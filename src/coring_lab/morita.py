"""The connecting Morita context between the coinvariants and the dual ring.

From a context this module computes the coinvariant subring B of A, the left
ideal Q of the dual ring, the two connecting pairings F: Q (x)_B A -> dual
ring and G: A (x)_dual Q -> B, and verifies every bilinearity and
associativity identity the context must satisfy, exactly, on all basis
triples.  On top sit the clause checkers for the two surjectivity
equivalence theorems; each clause is computed independently and any
disagreement raises, because an inconsistency there means an implementation
bug, not a mathematical discovery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import (
    AlgebraPresentation,
    ModulePresentation,
    balanced_tensor,
    hom_module,
    is_fg_projective,
    is_generator,
    subalgebra_on,
)
from .coring import (
    ComoduleInstance,
    coinvariants,
    dual_action,
    x_invariants,
)
from .exactla import (
    DenseMatrix,
    QuotientSpace,
    Subspace,
    combine_rows,
    image,
    kernel,
    kron,
    once,
    rank,
    solve,
)
from .verdict import Verdict, VerificationError, one_failure


class ClauseDisagreement(Exception):
    """Equivalent clauses of a theorem evaluated to different booleans."""

    def __init__(self, theorem: str, table: Dict[str, bool], detail: str = ""):
        self.theorem = theorem
        self.table = table
        super().__init__(f"clause disagreement in {theorem}: {table} {detail}")


@dataclass
class LinearMapReport:
    matrix: DenseMatrix
    injective: bool
    surjective: bool

    @property
    def bijective(self) -> bool:
        return self.injective and self.surjective


def map_report(matrix: DenseMatrix, target_dim: Optional[int] = None) -> LinearMapReport:
    r = rank(matrix)
    return LinearMapReport(matrix, r == matrix.cols,
                           r == (matrix.rows if target_dim is None else target_dim))


# ---------------------------------------------------------------------------
# B and Q
# ---------------------------------------------------------------------------


@dataclass
class CoinvariantData:
    space: Subspace                  # inside A
    algebra: AlgebraPresentation     # structure constants in the echelon basis
    embedding: DenseMatrix           # dim(A) x dim(B)

    @property
    def dim(self) -> int:
        return self.space.dim


def compute_B(ctx) -> CoinvariantData:
    """B = {b in A : b x = x b}, with its induced algebra structure.

    Closure under multiplication is verified by the structure-constant
    induction itself (it raises on failure, which would mean an upstream bug).
    """
    cor = ctx.coring()
    f = ctx.field
    nA = ctx.A.dim
    cols = []
    for i in range(nA):
        e_i = [1 if t == i else 0 for t in range(nA)]
        bx = cor.left_act(e_i).apply(ctx.x)
        xb = cor.right_act(e_i).apply(ctx.x)
        cols.append([f.sub(a, b) for a, b in zip(bx, xb)])
    condition = DenseMatrix.from_columns(f, cols, cor.dim)
    space = kernel(condition)
    algebra, embedding = subalgebra_on(ctx.A, space, name="coinvariants")
    return CoinvariantData(space, algebra, embedding)


@dataclass
class QIdealData:
    space: Subspace            # inside Hom(C, A) flat coordinates
    matrices: List[DenseMatrix]

    @property
    def dim(self) -> int:
        return self.space.dim


def _q_condition(ctx) -> DenseMatrix:
    """The condition sum c_1 q~(c_2) = q~(c) x on q in Hom(C, A), one column
    per e_a (x) c*.  Through the lift Delta(a (x) c) = sum (a (x) c_1) (x)
    (1 (x) c_2) of ``build_coring``, column (a, c) is R_a (I (x) D_c) minus
    (e_i e_a) x in the columns (i, c), R_a the coring's right action of e_a
    and D_c ``C.comult_slices("second")[c]``."""
    cor = ctx.coring()
    f = ctx.field
    nA, dim = ctx.A.dim, cor.dim
    lx = DenseMatrix.from_columns(f, [L.apply(ctx.x) for L in cor.left_module.action], dim)
    # row (r, i), column a: the r-th coordinate of (e_i e_a) . x
    ax = DenseMatrix(f, dim * nA, nA, lx.mul(ctx.A.mult_matrix()).entries)
    eyeA = DenseMatrix.identity(f, nA)
    lifts = [kron(eyeA, D) for D in ctx.C.comult_slices("second")]
    lhs = DenseMatrix.from_columns(
        f, [R.mul(L).entries for R in cor.right_module.action for L in lifts], dim * dim)
    return lhs.sub(kron(ax, DenseMatrix.identity(f, ctx.C.dim)))


def compute_Q(ctx) -> QIdealData:
    """Q = {q : sum c_1 q(c_2) = q(c) x for all c}, inside Hom(C, A).

    The condition is assembled through the coring's lifted comultiplication;
    stability under the dual-ring and B actions is re-verified in
    ``build_context``.
    """
    f = ctx.field
    space = kernel(_q_condition(ctx))
    mats = [DenseMatrix(f, ctx.A.dim, ctx.C.dim, space.basis.row(i)) for i in range(space.dim)]
    return QIdealData(space, mats)


# ---------------------------------------------------------------------------
# the context data
# ---------------------------------------------------------------------------


@dataclass
class MoritaContextData:
    ctx: object
    B: CoinvariantData
    Q: QIdealData
    A_left_B: ModulePresentation       # A as a left B-module
    A_right_dual: ModulePresentation   # A as a right dual-ring module
    Q_left_dual: ModulePresentation    # Q as a left dual-ring module
    Q_right_B: ModulePresentation      # Q as a right B-module
    QA: QuotientSpace                  # Q (x)_B A
    AQ: QuotientSpace                  # A (x)_dual Q
    F_matrix: DenseMatrix              # Q (x)_B A -> Hom(C, A) flat coords
    G_matrix: DenseMatrix              # A (x)_dual Q -> B coords
    F_report: LinearMapReport = None
    G_report: LinearMapReport = None


def _a_left_b_module(ctx, B: CoinvariantData) -> ModulePresentation:
    action = [ctx.A.lmul_matrix(B.embedding.col(j)) for j in range(B.dim)]
    return ModulePresentation(B.algebra, ctx.A.dim, "left", action, name="A over B")


def hook_product(ctx, a: Sequence, qflat: Sequence) -> list:
    """a <- q = q~(x a), in A-coordinates."""
    cor = ctx.coring()
    xa = cor.right_act(a).apply(ctx.x)
    return ctx.sharp_ring().eval_at(list(qflat), xa)


def build_context(ctx) -> MoritaContextData:
    """Assemble (B, dual ring, A, Q, F, G) and verify the context identities.

    Checks, exactly and on all basis combinations: Q's stability under both
    actions, F's dual-ring bilinearity, G's B-bilinearity, and the two
    associativity relations tying F and G together.  Any failure raises.
    """
    f = ctx.field
    sharp = ctx.sharp_ring()
    B = compute_B(ctx)
    Qd = compute_Q(ctx)

    # Q as a left dual-ring module and right B-module, in Q's echelon basis
    nQ = Qd.dim
    left_mats = []
    for idx in range(sharp.algebra.dim):
        gcoords = [1 if t == idx else 0 for t in range(sharp.algebra.dim)]
        cols = []
        for j in range(nQ):
            prod = sharp.mul_coords(gcoords, Qd.space.basis.row(j))
            if not Qd.space.contains(prod):
                raise VerificationError("build_context",
                                        one_failure("q-ideal-left-stability", (idx, j)))
            cols.append(Qd.space.coords(prod))
        left_mats.append(DenseMatrix.from_columns(f, cols, nQ))
    Q_left = ModulePresentation(sharp.algebra, nQ, "left", left_mats, name="Q")

    right_mats = []
    for j in range(B.dim):
        b = B.embedding.col(j)
        rb = ctx.A.rmul_matrix(b)
        cols = []
        for i in range(nQ):
            qb = rb.mul(Qd.matrices[i])
            if not Qd.space.contains(qb.entries):
                raise VerificationError("build_context",
                                        one_failure("q-ideal-right-stability", (i, j)))
            cols.append(Qd.space.coords(qb.entries))
        right_mats.append(DenseMatrix.from_columns(f, cols, nQ))
    Q_right = ModulePresentation(B.algebra, nQ, "right", right_mats, name="Q over B")

    A_left = _a_left_b_module(ctx, B)
    A_right_dual = dual_action(ctx.comodule_A())

    QA = balanced_tensor(Q_right, A_left)
    AQ = balanced_tensor(A_right_dual, Q_left)

    # F on the plain tensor, then through the quotient
    nA = ctx.A.dim
    f_cols = []
    for i in range(nQ):
        qm = Qd.matrices[i]
        for j in range(nA):
            e_j = [1 if t == j else 0 for t in range(nA)]
            f_cols.append(ctx.A.rmul_matrix(e_j).mul(qm).entries)
    F_plain = DenseMatrix.from_columns(f, f_cols, nA * ctx.C.dim)
    F_matrix = F_plain.mul(QA.section)

    g_cols = []
    for j in range(nA):
        e_j = [1 if t == j else 0 for t in range(nA)]
        for i in range(nQ):
            val = hook_product(ctx, e_j, Qd.space.basis.row(i))
            if not B.space.contains(val):
                raise VerificationError("build_context", one_failure("hook-lands-in-B", (j, i)))
            g_cols.append(B.space.coords(val))
    G_plain = DenseMatrix.from_columns(f, g_cols, B.dim)
    G_matrix = G_plain.mul(AQ.section)

    data = MoritaContextData(ctx, B, Qd, A_left, A_right_dual, Q_left, Q_right,
                             QA, AQ, F_matrix, G_matrix)
    data.F_report = map_report(F_matrix, target_dim=sharp.algebra.dim)
    data.G_report = map_report(G_matrix, target_dim=B.dim)
    _verify_context_identities(ctx, data)
    return data


def _verify_context_identities(ctx, data: MoritaContextData):
    """Bilinearity of F and G and the two associativity relations."""
    f = ctx.field
    sharp = ctx.sharp_ring()
    v = Verdict()
    nA, nQ, nB = ctx.A.dim, data.Q.dim, data.B.dim
    nS = sharp.algebra.dim

    def F_of(i, j):
        e_j = [1 if t == j else 0 for t in range(nA)]
        return ctx.A.rmul_matrix(e_j).mul(data.Q.matrices[i]).entries

    # F(g.q (x) a) = g . F(q (x) a)
    for s in range(nS):
        g = [1 if t == s else 0 for t in range(nS)]
        for i in range(nQ):
            gq = sharp.mul_coords(g, data.Q.space.basis.row(i))
            for j in range(nA):
                e_j = [1 if t == j else 0 for t in range(nA)]
                lhs = ctx.A.rmul_matrix(e_j).mul(sharp.matrix_of(gq)).entries
                rhs = sharp.mul_coords(g, F_of(i, j))
                if [f.normalize(t) for t in lhs] != rhs:
                    v.fail("F-left-dual-linearity", (s, i, j))
    # F(q (x) a<-g) = F(q (x) a) . g
    for s in range(nS):
        g = [1 if t == s else 0 for t in range(nS)]
        for i in range(nQ):
            for j in range(nA):
                e_j = [1 if t == j else 0 for t in range(nA)]
                ag = hook_product(ctx, e_j, g)
                lhs = ctx.A.rmul_matrix(ag).mul(data.Q.matrices[i]).entries
                rhs = sharp.mul_coords(F_of(i, j), g)
                if [f.normalize(t) for t in lhs] != rhs:
                    v.fail("F-right-dual-linearity", (s, i, j))
    # G bilinearity over B
    for bidx in range(nB):
        b = data.B.embedding.col(bidx)
        for j in range(nA):
            e_j = [1 if t == j else 0 for t in range(nA)]
            ba = ctx.A.mul_vec(b, e_j)
            ab = ctx.A.mul_vec(e_j, b)
            for i in range(nQ):
                q = data.Q.space.basis.row(i)
                lhs = hook_product(ctx, ba, q)
                rhs = ctx.A.mul_vec(b, hook_product(ctx, e_j, q))
                if lhs != rhs:
                    v.fail("G-left-B-linearity", (bidx, j, i))
                qb = ctx.A.rmul_matrix(b).mul(data.Q.matrices[i]).entries
                lhs2 = hook_product(ctx, e_j, qb)
                rhs2 = ctx.A.mul_vec(hook_product(ctx, e_j, q), b)
                if lhs2 != rhs2:
                    v.fail("G-right-B-linearity", (bidx, j, i))
    # associativity: F(q (x) a) . q~  =  q . G(a (x) q~)   in the dual ring
    for i in range(nQ):
        q = data.Q.space.basis.row(i)
        for j in range(nA):
            e_j = [1 if t == j else 0 for t in range(nA)]
            Fqa = F_of(i, j)
            for i2 in range(nQ):
                q2 = data.Q.space.basis.row(i2)
                lhs = sharp.mul_coords(Fqa, list(q2))
                g_val = hook_product(ctx, e_j, q2)  # in B inside A
                rhs = ctx.A.rmul_matrix(g_val).mul(data.Q.matrices[i]).entries
                if lhs != [f.normalize(t) for t in rhs]:
                    v.fail("associativity-FqG", (i, j, i2))
    # associativity: G(a (x) q) a~ = a <- F(q (x) a~)
    for j in range(nA):
        e_j = [1 if t == j else 0 for t in range(nA)]
        for i in range(nQ):
            q = data.Q.space.basis.row(i)
            Gaq = hook_product(ctx, e_j, q)
            for j2 in range(nA):
                e_j2 = [1 if t == j2 else 0 for t in range(nA)]
                lhs = ctx.A.mul_vec(Gaq, e_j2)
                rhs = hook_product(ctx, e_j, F_of(i, j2))
                if lhs != rhs:
                    v.fail("associativity-GaF", (j, i, j2))
    if not v.valid:
        raise VerificationError("morita context identities", v)


# ---------------------------------------------------------------------------
# q-hat, the trace, xi, Omega and Lambda
# ---------------------------------------------------------------------------


@once
def find_qhat(data: MoritaContextData) -> Optional[list]:
    """A deterministic q in Q with q(x) = 1_A, as flat Hom(C, A) coordinates."""
    ctx = data.ctx
    f = ctx.field
    at_x = ctx.sharp_ring().at_x()
    cols = [at_x.apply(data.Q.space.basis.row(i)) for i in range(data.Q.dim)]
    if not cols:
        return None
    system = DenseMatrix.from_columns(f, cols, ctx.A.dim)
    sol = solve(system, ctx.A.unit)
    if sol is None:
        return None
    return combine_rows(f, sol, data.Q.space.basis.row_lists(), ctx.A.dim * ctx.C.dim)


def xi_M(data: MoritaContextData, M: ModulePresentation) -> Tuple[DenseMatrix, LinearMapReport, QuotientSpace]:
    """M (x)_dual Q -> M^x, m (x) q -> m q, with bijectivity onto M^x."""
    ctx = data.ctx
    f = ctx.field
    tensor = balanced_tensor(M, data.Q_left_dual)
    target = x_invariants(M, ctx)
    acts = [M.act_matrix(list(data.Q.space.basis.row(i))) for i in range(data.Q.dim)]
    plain = DenseMatrix.from_columns(f, [a.col(m) for m in range(M.dim) for a in acts], M.dim)
    mat = plain.mul(tensor.section)
    # bijectivity measured against the target subspace
    img = image(mat)
    sur = img == target or (img.dim == target.dim and target.contains_subspace(img))
    if not target.contains_subspace(img):
        raise VerificationError("xi_M", one_failure(
            "xi-image-outside-invariants", detail="m q left the x-invariants; upstream bug"))
    return mat, LinearMapReport(mat, img.dim == mat.cols, sur), tensor


def trace_map(data: MoritaContextData, qhat: Sequence) -> DenseMatrix:
    """a -> a <- q-hat as a matrix A -> B-coordinates; the left B-linearity
    and the restriction-to-identity on B are verified exactly."""
    ctx = data.ctx
    f = ctx.field
    nA = ctx.A.dim
    cols = []
    for j in range(nA):
        e_j = [1 if t == j else 0 for t in range(nA)]
        val = hook_product(ctx, e_j, qhat)
        if not data.B.space.contains(val):
            raise VerificationError("trace_map", one_failure("trace-lands-in-B", (j,)))
        cols.append(data.B.space.coords(val))
    tr = DenseMatrix.from_columns(f, cols, data.B.dim)
    v = Verdict()
    for bidx in range(data.B.dim):
        b = data.B.embedding.col(bidx)
        if tr.apply(b) != [1 if t == bidx else 0 for t in range(data.B.dim)]:
            v.fail("trace-not-identity-on-B", (bidx,))
        lb = ctx.A.lmul_matrix(b)
        lb_B = data.B.algebra.lmul_matrix([1 if t == bidx else 0
                                           for t in range(data.B.dim)])
        if tr.mul(lb) != lb_B.mul(tr):
            v.fail("trace-not-left-B-linear", (bidx,))
    if not v.valid:
        raise VerificationError("trace_map", v)
    return tr


@dataclass
class OmegaLambdaReport:
    omega_matrix: DenseMatrix
    omega: LinearMapReport
    lambda_matrix: DenseMatrix
    lambda_report: LinearMapReport
    lambda_multiplicative: bool

    @property
    def omega_iso(self) -> bool:
        return self.omega.bijective

    @property
    def lambda_iso(self) -> bool:
        return self.lambda_report.bijective and self.lambda_multiplicative


@once
def omega_and_lambda(data: MoritaContextData) -> OmegaLambdaReport:
    """Omega: A -> Hom_{-B}(Q, B) and Lambda: dual ring -> End(_B A)^op."""
    ctx = data.ctx
    f = ctx.field
    sharp = ctx.sharp_ring()
    nA = ctx.A.dim
    homQB = hom_module(data.Q_right_B, data.B.algebra.regular_module("right"))
    omega_cols = []
    for j in range(nA):
        e_j = [1 if t == j else 0 for t in range(nA)]
        flat = [0] * (data.B.dim * data.Q.dim)
        for i in range(data.Q.dim):
            val = data.B.space.coords(hook_product(ctx, e_j,
                                                   data.Q.space.basis.row(i)))
            for r in range(data.B.dim):
                flat[r * data.Q.dim + i] = val[r]
        if not homQB.contains(flat):
            raise VerificationError("omega_and_lambda",
                                    one_failure("omega-image-not-B-linear", (j,)))
        omega_cols.append(homQB.coords(flat))
    omega_mat = DenseMatrix.from_columns(f, omega_cols, homQB.dim)
    omega_rep = map_report(omega_mat, target_dim=homQB.dim)

    endBA = hom_module(data.A_left_B, data.A_left_B)
    lam_cols = []
    lam_mats = []
    for s in range(sharp.algebra.dim):
        mat = data.A_right_dual.action[s]
        lam_mats.append(mat)
        if not endBA.contains(mat.entries):
            raise VerificationError("omega_and_lambda",
                                    one_failure("lambda-image-not-B-linear", (s,)))
        lam_cols.append(endBA.coords(mat.entries))
    lam_mat = DenseMatrix.from_columns(f, lam_cols, endBA.dim)
    lam_rep = map_report(lam_mat, target_dim=endBA.dim)
    multiplicative = True
    nS = sharp.algebra.dim
    for s1 in range(nS):
        g1 = [1 if t == s1 else 0 for t in range(nS)]
        for s2 in range(nS):
            g2 = [1 if t == s2 else 0 for t in range(nS)]
            prod = sharp.mul_coords(g1, g2)
            if data.A_right_dual.act_matrix(prod) != lam_mats[s2].mul(lam_mats[s1]):
                multiplicative = False
    if data.A_right_dual.act_matrix(sharp.algebra.unit) != \
            DenseMatrix.identity(f, nA):
        multiplicative = False
    return OmegaLambdaReport(omega_mat, omega_rep, lam_mat, lam_rep, multiplicative)


# ---------------------------------------------------------------------------
# theorem clause tables
# ---------------------------------------------------------------------------


@once
def q_left_annihilator(data: MoritaContextData) -> Subspace:
    """{g in the dual ring : g . q = 0 for all q in Q}."""
    ctx = data.ctx
    f = ctx.field
    sharp = ctx.sharp_ring()
    nS = sharp.algebra.dim
    cols = []
    for s in range(nS):
        g = [1 if t == s else 0 for t in range(nS)]
        col = []
        for i in range(data.Q.dim):
            col.extend(sharp.mul_coords(g, data.Q.space.basis.row(i)))
        cols.append(col)
    if data.Q.dim == 0:
        return Subspace.full(f, nS)
    system = DenseMatrix.from_columns(f, cols, data.Q.dim * ctx.A.dim * ctx.C.dim)
    return kernel(system)


def check_theorem_surj(ctx, witnesses: Optional[List[ComoduleInstance]] = None,
                       seed: int = 0) -> Dict[str, object]:
    """The G-surjectivity equivalence table.

    Clauses: (1) G surjective, (2) some q in Q has q(x) = 1, (3) the pairing
    into the x-invariants is bijective for every witness dual-ring module,
    (4) likewise onto the coinvariants for every witness comodule, (5) A is
    f.g. projective over the dual ring.  All computed clauses must agree.
    When (1) holds the parenthetical strengthenings (G bijective, B equals
    the x-invariants of A) are asserted as consistency checks.
    """
    data = ctx.morita()
    if witnesses is None:
        witnesses = ctx.default_witnesses(seed=seed)
    table: Dict[str, bool] = {}
    table["1"] = data.G_report.surjective
    table["2"] = find_qhat(data) is not None
    ok3 = True
    ok4 = True
    for w in witnesses:
        mod = dual_action(w)
        mat, rep, _ = xi_M(data, mod)
        if not rep.bijective:
            ok3 = False
        ci = coinvariants(w)
        img = image(mat)
        onto_coinv = rep.injective and img.dim == ci.dim and ci.contains_subspace(img)
        if not onto_coinv:
            ok4 = False
    _, rep_reg, _ = xi_M(data, ctx.sharp_ring().algebra.regular_module("right"))
    if not rep_reg.bijective:
        ok3 = False
    table["3"] = ok3
    table["4"] = ok4
    proj, _ = is_fg_projective(data.A_right_dual)
    table["5"] = proj
    values = set(table.values())
    result = {"theorem": "surj", "clauses": table, "agreement": len(values) == 1}
    if len(values) != 1:
        raise ClauseDisagreement("surj", table)
    if table["1"]:
        consistency = {
            "G_bijective": data.G_report.bijective,
            "B_equals_A_x": data.B.space == x_invariants(data.A_right_dual, ctx),
        }
        result["consistency"] = consistency
        if not all(consistency.values()):
            raise ClauseDisagreement("surj", table, detail=str(consistency))
    return result


def check_theorem_Cfinite(ctx, witnesses: Optional[List[ComoduleInstance]] = None,
                          seed: int = 0) -> Dict[str, object]:
    """The F-surjectivity equivalence table.

    Clauses: (1) F surjective, (2) Q f.g. projective over B + Omega iso +
    Q faithful over the dual ring, (3) A f.g. projective over B + Lambda a
    ring iso, (4) A a generator over the dual ring, (5) the weak structure
    maps are bijective on the witness comodules.  All must agree; when (1)
    holds, F must also be bijective (asserted).
    """
    from .galois import psi_M
    data = ctx.morita()
    if witnesses is None:
        witnesses = ctx.default_witnesses(seed=seed)
    table: Dict[str, bool] = {}
    sub: Dict[str, bool] = {}
    table["1"] = data.F_report.surjective
    proj_q, _ = is_fg_projective(data.Q_right_B)
    ol = omega_and_lambda(data)
    sub["2a"] = proj_q
    sub["2b"] = ol.omega_iso
    sub["2c"] = q_left_annihilator(data).is_zero()
    table["2"] = sub["2a"] and sub["2b"] and sub["2c"]
    proj_a, _ = is_fg_projective(data.A_left_B)
    sub["3a"] = proj_a
    sub["3b"] = ol.lambda_iso
    table["3"] = sub["3a"] and sub["3b"]
    table["4"] = is_generator(data.A_right_dual)
    ok5 = True
    for w in witnesses:
        _, rep = psi_M(ctx, w)
        if not rep.bijective:
            ok5 = False
    table["5"] = ok5
    values = set(table.values())
    result = {"theorem": "C-finite", "clauses": table, "subclauses": sub,
              "agreement": len(values) == 1}
    if len(values) != 1:
        raise ClauseDisagreement("C-finite", table, detail=str(sub))
    if table["1"] and not data.F_report.bijective:
        raise ClauseDisagreement("C-finite", table,
                                 detail="F surjective but not bijective")
    result["F_bijective"] = data.F_report.bijective
    return result


def psi_tilde_from_F(ctx, M: ComoduleInstance) -> Tuple[DenseMatrix, DenseMatrix]:
    """The explicit inverse of the weak-structure map built from a preimage of
    the counit under F; returns (psi_matrix, inverse_matrix), both verified.

    Raises when F is not surjective.
    """
    from .galois import _coinv_tensor_A, psi_M
    data = ctx.morita()
    f = ctx.field
    sharp = ctx.sharp_ring()
    eps_flat = sharp.embed_A(ctx.A.unit)  # eta . eps = unit of the dual ring
    pre = solve(data.F_matrix, eps_flat)
    if pre is None:
        raise VerificationError("psi_tilde_from_F", one_failure("F-not-surjective"))
    lift = data.QA.section.apply(pre)  # in Q-basis (x) A coordinates
    psi_mat, rep = psi_M(ctx, M)
    # psi_mat: coinv (x)_B A -> M; build the candidate inverse
    coinv_space = coinvariants(M)
    tensor = _coinv_tensor_A(ctx, M)
    dual = dual_action(M)
    nA = ctx.A.dim
    # per Q basis vector q_i the lift uses: its action and the nonzero c_ij
    used = []
    for i in range(data.Q.dim):
        cs = [(j, lift[i * nA + j]) for j in range(nA) if lift[i * nA + j]]
        if cs:
            used.append((dual.act_matrix(list(data.Q.space.basis.row(i))), cs))
    cols = []
    for m in range(M.dim):
        acc = [0] * (coinv_space.dim * nA)
        for act, cs in used:
            mq_coords = coinv_space.coords(act.col(m))
            for j, c in cs:
                for r, val in enumerate(mq_coords):
                    if val:
                        acc[r * nA + j] = f.add(acc[r * nA + j], f.mul(c, val))
        cols.append(tensor.project(acc))
    inv = DenseMatrix.from_columns(f, cols, tensor.dim)
    v = Verdict()
    if psi_mat.mul(inv) != DenseMatrix.identity(f, M.dim):
        v.fail("psi-tilde-not-right-inverse")
    if inv.mul(psi_mat) != DenseMatrix.identity(f, tensor.dim):
        v.fail("psi-tilde-not-left-inverse")
    if not v.valid:
        raise VerificationError("psi_tilde_from_F", v)
    return psi_mat, inv
