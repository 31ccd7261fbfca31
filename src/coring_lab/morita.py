"""The connecting Morita context between the coinvariants and the dual ring.

From a context this module computes the coinvariant subring B of A, the left
ideal Q of the dual ring and the two connecting pairings F: Q (x)_B A ->
dual ring and G: A (x)_dual Q -> B.  They form a Morita context by
construction (Doi 1994), so its bilinearity and associativity identities
are checked in the test suite, not here.  Every map is a product of
matrices that already exist: A's one right action over the dual ring gives
the hook a <- q = q~(x a), and through it G and Omega; restricted along
the unit map A -> dual ring it gives F; Q's module structures are the
dual ring's and B's multiplications read in Q's echelon basis by
``Subspace.coords_matrix``.

On top sit the clause checkers for the two surjectivity equivalence
theorems; each clause is computed independently and any disagreement raises,
because an inconsistency there means an implementation bug, not a
mathematical discovery.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable

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
    additive,
    coinvariants,
    dual_action,
    x_invariants,
)
from .exactla import (
    DenseMatrix,
    NotInSubspace,
    QuotientSpace,
    Subspace,
    combinations,
    flat_blocks,
    flat_columns,
    hstack,
    interleave_columns,
    kernel,
    kron,
    kron_mul,
    mul_kron,
    once,
    rank,
    solve_matrix,
    stack_slices,
    unflatten_rows,
)
from .verdict import ClauseDisagreement, Verdict, VerificationError, clause_table, one_failure


class LinearMapReport:
    def __init__(self, matrix: DenseMatrix, injective: bool, surjective: bool):
        self.matrix = matrix
        self.injective = injective
        self.surjective = surjective

    @property
    def bijective(self) -> bool:
        return self.injective and self.surjective


def map_report(matrix: DenseMatrix, target_dim: int | None = None) -> LinearMapReport:
    r = rank(matrix)
    return LinearMapReport(matrix, r == matrix.cols,
                           r == (matrix.rows if target_dim is None else target_dim))


# ---------------------------------------------------------------------------
# B and Q
# ---------------------------------------------------------------------------


class CoinvariantData:
    def __init__(self, space: Subspace, algebra: AlgebraPresentation,
                 embedding: DenseMatrix):
        self.space = space              # inside A
        self.algebra = algebra          # structure constants in the echelon basis
        self.embedding = embedding      # dim(A) x dim(B)

    @property
    def dim(self) -> int:
        return self.space.dim


@once
def _left_on_x(ctx) -> DenseMatrix:
    """Column i is e_i x, the coring's left action of e_i on x; built once
    per context, for ``compute_B`` and ``_q_condition``."""
    cor = ctx.coring()
    x = ctx.x_matrix().reshape(cor.dim, 1)
    return hstack(ctx.field, [a.mul(x) for a in cor.left_module.action], cor.dim)


def compute_B(ctx) -> CoinvariantData:
    """B = {b in A : b x = x b}, with its induced algebra structure.

    Closure under multiplication is verified by the structure-constant
    induction itself (it raises on failure, which would mean an upstream bug).
    """
    # column i of the coaction of A is x e_i
    space = kernel(_left_on_x(ctx).sub(ctx.comodule_A().coaction))
    algebra, embedding = subalgebra_on(ctx.A, space, name="coinvariants")
    return CoinvariantData(space, algebra, embedding)


class QIdealData:
    def __init__(self, space: Subspace, matrices: list[DenseMatrix]):
        self.space = space              # inside Hom(C, A) flat coordinates
        self.matrices = matrices

    @property
    def dim(self) -> int:
        return self.space.dim


def _q_condition(ctx) -> DenseMatrix:
    """The condition sum c_1 q~(c_2) = q~(c) x on q in Hom(C, A), one column
    per e_a (x) c*.  Both sides are left A-linear in c, so it is imposed on
    the coring's free left basis 1 (x) c_k only: dim x dim(C) rows, not
    dim x dim.  Through the lift Delta(a (x) c) = sum (a (x) c_1) (x)
    (1 (x) c_2) of ``build_coring``, column (a, c) is R_a kron(1_A, D_c)
    minus e_a x in the columns (., c), R_a the coring's right action of e_a
    and D_c ``C.comult_slices("second")[c]``."""
    cor = ctx.coring()
    f = ctx.field
    one = ctx.A.unit_matrix()
    lifts = [kron(one, D) for D in ctx.C.comult_slices("second")]
    lhs = flat_columns(f, [R.mul(L) for R in cor.right_module.action for L in lifts],
                       cor.dim, ctx.C.dim)
    return lhs.sub(kron(_left_on_x(ctx), DenseMatrix.identity(f, ctx.C.dim)))


def compute_Q(ctx) -> QIdealData:
    """Q = {q : sum c_1 q(c_2) = q(c) x for all c}, inside Hom(C, A), the
    kernel of ``_q_condition``.

    Stability under the dual-ring and B actions is re-verified in
    ``build_context``.
    """
    space = kernel(_q_condition(ctx))
    return QIdealData(space, unflatten_rows(space.basis, ctx.A.dim, ctx.C.dim))


# ---------------------------------------------------------------------------
# the context data
# ---------------------------------------------------------------------------


class MoritaContextData:
    def __init__(self, ctx: object, B: CoinvariantData, Q: QIdealData,
                 A_left_B: ModulePresentation, A_right_dual: ModulePresentation,
                 Q_left_dual: ModulePresentation, Q_right_B: ModulePresentation,
                 QA: QuotientSpace, AQ: QuotientSpace, F_matrix: DenseMatrix,
                 G_plain: DenseMatrix, G_matrix: DenseMatrix,
                 F_report: LinearMapReport | None = None,
                 G_report: LinearMapReport | None = None):
        self.ctx = ctx
        self.B = B
        self.Q = Q
        self.A_left_B = A_left_B            # A as a left B-module
        self.A_right_dual = A_right_dual    # A as a right dual-ring module
        self.Q_left_dual = Q_left_dual      # Q as a left dual-ring module
        self.Q_right_B = Q_right_B          # Q as a right B-module
        self.QA = QA                        # Q (x)_B A
        self.AQ = AQ                        # A (x)_dual Q
        self.F_matrix = F_matrix            # Q (x)_B A -> Hom(C, A) flat coords
        self.G_plain = G_plain              # A (x) Q -> B coords, column (j, i) = e_j <- q_i
        self.G_matrix = G_matrix            # A (x)_dual Q -> B coords
        self.F_report = F_report
        self.G_report = G_report


def _a_left_b_module(ctx, B: CoinvariantData) -> ModulePresentation:
    return ModulePresentation(B.algebra, ctx.A.dim, "left",
                              combinations(ctx.A.lmuls, B.embedding), name="A over B")


def _times_Q(M: ModulePresentation, Q: QIdealData) -> DenseMatrix:
    """m (x) q -> m q on the plain tensor M (x) Q for a right dual-ring
    module M, column (m, i) = m q_i.  For M = A this is the hook
    a <- q = q~(x a), the plain form of G in A-coordinates."""
    return interleave_columns(M.field, combinations(M.action, Q.space.embedding), M.dim)


def _F_plain(ctx, A_dual: ModulePresentation, Q: QIdealData) -> DenseMatrix:
    """F on the plain tensor Q (x) A, column (i, j) = F(q_i (x) e_j) = q_i(-) e_j,
    A acting on itself through the unit map a -> eps(-) a into the dual ring."""
    right = combinations(A_dual.action, ctx.sharp_ring().iota)
    return flat_columns(ctx.field, [R.mul(q) for q in Q.matrices for R in right],
                        ctx.A.dim, ctx.C.dim)


def _coords_or_fail(space: Subspace, P: DenseMatrix, where: str, label: str,
                    index: Callable[[int], tuple]) -> DenseMatrix:
    """``space.coords_matrix(P)``, a column outside the space failing as
    ``label`` at ``index(column)``."""
    try:
        return space.coords_matrix(P)
    except NotInSubspace as exc:
        raise VerificationError(where, one_failure(label, index(exc.column))) from None


def build_context(ctx) -> MoritaContextData:
    """Assemble (B, dual ring, A, Q, F, G).

    Q's module structures and G are read in the echelon bases of Q and B;
    a column outside them raises, naming the stability that failed.
    """
    f = ctx.field
    S = ctx.sharp_ring().algebra
    B = compute_B(ctx)
    Qd = compute_Q(ctx)
    nQ = Qd.dim

    # Q as a left dual-ring module and right B-module, in Q's echelon basis
    Q_left = ModulePresentation(S, nQ, "left", [
        _coords_or_fail(Qd.space, L.mul(Qd.space.embedding), "build_context",
                        "q-ideal-left-stability", lambda i: (s, i))
        for s, L in enumerate(S.lmuls)], name="Q")
    eyeC = DenseMatrix.identity(f, ctx.C.dim)
    Q_right = ModulePresentation(B.algebra, nQ, "right", [
        _coords_or_fail(Qd.space, kron_mul(R, eyeC, Qd.space.embedding),
                        "build_context", "q-ideal-right-stability", lambda i: (i, j))
        for j, R in enumerate(combinations(ctx.A.rmuls, B.embedding))], name="Q over B")

    A_left = _a_left_b_module(ctx, B)
    A_right_dual = dual_action(ctx.comodule_A())

    QA = balanced_tensor(Q_right, A_left)
    AQ = balanced_tensor(A_right_dual, Q_left)
    F_matrix = _F_plain(ctx, A_right_dual, Qd).mul(QA.section)
    G_plain = _coords_or_fail(B.space, _times_Q(A_right_dual, Qd), "build_context",
                              "hook-lands-in-B", lambda c: divmod(c, nQ))
    G_matrix = G_plain.mul(AQ.section)

    data = MoritaContextData(ctx, B, Qd, A_left, A_right_dual, Q_left, Q_right,
                             QA, AQ, F_matrix, G_plain, G_matrix)
    data.F_report = map_report(F_matrix, target_dim=S.dim)
    data.G_report = map_report(G_matrix, target_dim=B.dim)
    return data


# ---------------------------------------------------------------------------
# q-hat, the trace, xi, Omega and Lambda
# ---------------------------------------------------------------------------


@once
def find_qhat(data: MoritaContextData) -> DenseMatrix | None:
    """A deterministic q in Q with q(x) = 1_A, as a column of flat Hom(C, A)
    coordinates."""
    ctx = data.ctx
    if not data.Q.dim:
        return None
    emb = data.Q.space.embedding
    sol = solve_matrix(ctx.sharp_ring().at_x().mul(emb), ctx.A.unit_matrix())
    return None if sol is None else emb.mul(sol)


def xi_M(data: MoritaContextData, M: ModulePresentation,
         target: Subspace | None = None) -> tuple[DenseMatrix, LinearMapReport, QuotientSpace]:
    """M (x)_dual Q -> M^x, m (x) q -> m q, with bijectivity onto M^x.

    ``target`` is M^x when the caller holds it already: for M the dual
    action of a comodule it is that comodule's coinvariants (see
    ``x_invariants``), and ``x_invariants`` is taken only when it is None.

    Two modules take their tensor product in closed form:

    * A over the dual ring, ``data.A_right_dual``: A (x)_dual Q is
      ``data.AQ``, already taken by ``build_context``.
    * The dual ring S over itself, a module whose action is ``S.rmuls``:
      S (x)_S Q = Q by s (x) q -> s q, with inverse q -> 1 (x) q.  In Q's
      echelon coordinates the projection's column (s, i) is e_s q_i, column
      i of Q's left action of e_s, and the section's column i is 1 (x) q_i;
      xi is then q -> q, the inclusion of Q in S^x, whose matrix is Q's
      embedding, injective as an echelon basis is independent.
    """
    ctx = data.ctx
    if target is None:
        target = x_invariants(M, ctx)
    S = ctx.sharp_ring().algebra
    if M.algebra is S and M.action == S.rmuls:
        Q = data.Q_left_dual
        tensor = QuotientSpace(
            hstack(ctx.field, Q.action, Q.dim),
            kron(S.unit_matrix(), DenseMatrix.identity(ctx.field, Q.dim)))
        mat = data.Q.space.embedding
        return mat, LinearMapReport(mat, True, Q.dim == target.dim), tensor
    tensor = data.AQ if M is data.A_right_dual else balanced_tensor(M, data.Q_left_dual)
    mat = _times_Q(M, data.Q).mul(tensor.section)
    # bijectivity measured against the target subspace, which holds the
    # image: m q is x-invariant for q in Q
    return mat, map_report(mat, target_dim=target.dim), tensor


PairingFlags = namedtuple("PairingFlags", "bijective onto_coinvariants")
PairingFlags.__doc__ = "xi_M bijective onto the x-invariants, and onto the coinvariants."


@additive(PairingFlags)
def pairing_flags(ctx, M: ComoduleInstance) -> PairingFlags:
    """The flags of ``xi_M`` on a witness comodule over the dual ring,
    read by ``check_theorem_surj``: bijective onto its x-invariants, and
    injective with image the coinvariants of M, which are the x-invariants
    of its dual action and so the target of xi."""
    ci = coinvariants(M)
    mat, rep, _ = xi_M(ctx.morita(), dual_action(M), target=ci)
    return PairingFlags(rep.bijective, rep.injective and mat.cols == ci.dim
                        and ci.contains_columns(mat))


class OmegaLambdaReport:
    def __init__(self, omega_matrix: DenseMatrix, omega: LinearMapReport,
                 lambda_matrix: DenseMatrix, lambda_report: LinearMapReport,
                 lambda_multiplicative: bool):
        self.omega_matrix = omega_matrix
        self.omega = omega
        self.lambda_matrix = lambda_matrix
        self.lambda_report = lambda_report
        self.lambda_multiplicative = lambda_multiplicative

    @property
    def omega_iso(self) -> bool:
        return self.omega.bijective

    @property
    def lambda_iso(self) -> bool:
        return self.lambda_report.bijective and self.lambda_multiplicative


@once
def omega_and_lambda(data: MoritaContextData) -> OmegaLambdaReport:
    """Omega: A -> Hom_{-B}(Q, B) and Lambda: dual ring -> End(_B A)^op.

    Omega's column j is the j-block of G on the plain tensor, a -> (q -> a <- q)
    reshaped into a dim B x dim Q matrix; Lambda sends g to its action on A,
    and is multiplicative iff A satisfies the right-module law over the
    dual ring, R (I (x) mult) = R (R (x) I) for the action map R, and 1 acts
    as the identity."""
    ctx = data.ctx
    f = ctx.field
    S = ctx.sharp_ring().algebra
    nA, nQ, nB = ctx.A.dim, data.Q.dim, data.B.dim
    homQB = hom_module(data.Q_right_B, data.B.algebra.regular_module("right"))
    # block j of G's plain form, read row-major, is column j
    omega_mat = _coords_or_fail(homQB, flat_blocks(data.G_plain, nB, nQ), "omega_and_lambda",
                                "omega-image-not-B-linear", lambda j: (j,))
    omega_rep = map_report(omega_mat, target_dim=homQB.dim)

    Ad = data.A_right_dual
    endBA = hom_module(data.A_left_B, data.A_left_B)
    lam_mat = _coords_or_fail(
        endBA, flat_columns(f, Ad.action, nA, nA),
        "omega_and_lambda", "lambda-image-not-B-linear", lambda s: (s,))
    lam_rep = map_report(lam_mat, target_dim=endBA.dim)
    R = Ad.action_map()
    eyeA, eyeS = DenseMatrix.identity(f, nA), DenseMatrix.identity(f, S.dim)
    multiplicative = (mul_kron(R, eyeA, S.mult_matrix()) == mul_kron(R, R, eyeS)
                      and combinations(Ad.action, S.unit_matrix())[0] == eyeA)
    return OmegaLambdaReport(omega_mat, omega_rep, lam_mat, lam_rep, multiplicative)


# ---------------------------------------------------------------------------
# theorem clause tables
# ---------------------------------------------------------------------------


@once
def q_left_annihilator(data: MoritaContextData) -> Subspace:
    """{g in the dual ring : g . q = 0 for all q in Q}, the kernel of the
    right multiplications by the q_i stacked."""
    S = data.ctx.sharp_ring().algebra
    if data.Q.dim == 0:
        return Subspace.full(S.field, S.dim)
    return kernel(DenseMatrix.vstack(*combinations(S.rmuls, data.Q.space.embedding)))


def check_theorem_surj(ctx, witnesses: list[ComoduleInstance] | None = None,
                       seed: int = 0) -> dict[str, object]:
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
    table: dict[str, bool] = {}
    table["1"] = data.G_report.surjective
    table["2"] = find_qhat(data) is not None
    flags = [pairing_flags(ctx, w) for w in witnesses]
    ok3 = all(fl.bijective for fl in flags)
    ok4 = all(fl.onto_coinvariants for fl in flags)
    # the dual ring over itself: with the default witnesses it is the dual
    # action of the "dual-ring" witness, already evaluated, unless a witness
    # budget cut that witness; only a witness that is no direct sum and has
    # the dual ring's dimension can be it
    S = ctx.sharp_ring().algebra
    if not any(not w.summands and w.dim == S.dim and dual_action(w).action == S.rmuls
               for w in witnesses):
        _, rep_reg, _ = xi_M(data, S.regular_module("right"))
        ok3 = ok3 and rep_reg.bijective
    table["3"] = ok3
    table["4"] = ok4
    proj, _ = is_fg_projective(data.A_right_dual)
    table["5"] = proj
    result = clause_table("surj", table)
    if table["1"]:
        consistency = {
            "G_bijective": data.G_report.bijective,
            "B_equals_A_x": data.B.space == x_invariants(data.A_right_dual, ctx),
        }
        result["consistency"] = consistency
        if not all(consistency.values()):
            raise ClauseDisagreement("surj", table, detail=str(consistency))
    return result


def check_theorem_Cfinite(ctx, witnesses: list[ComoduleInstance] | None = None,
                          seed: int = 0) -> dict[str, object]:
    """The F-surjectivity equivalence table.

    Clauses: (1) F surjective, (2) Q f.g. projective over B + Omega iso +
    Q faithful over the dual ring, (3) A f.g. projective over B + Lambda a
    ring iso, (4) A a generator over the dual ring, (5) the weak structure
    maps are bijective on the witness comodules.  All must agree; when (1)
    holds, F must also be bijective (asserted).
    """
    from .galois import weak_map_flags
    data = ctx.morita()
    if witnesses is None:
        witnesses = ctx.default_witnesses(seed=seed)
    table: dict[str, bool] = {}
    sub: dict[str, bool] = {}
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
    ok5 = all(weak_map_flags(ctx, w).psi for w in witnesses)
    table["5"] = ok5
    result = clause_table("C-finite", table, detail=str(sub))
    result["subclauses"] = sub
    if table["1"] and not data.F_report.bijective:
        raise ClauseDisagreement("C-finite", table,
                                 detail="F surjective but not bijective")
    result["F_bijective"] = data.F_report.bijective
    return result


def psi_tilde_from_F(ctx, M: ComoduleInstance) -> tuple[DenseMatrix, DenseMatrix]:
    """The explicit inverse of the weak-structure map built from a preimage of
    the counit under F; returns (psi_matrix, inverse_matrix), both verified.

    Raises when F is not surjective.
    """
    from .galois import _coinv_tensor_A, psi_M
    data = ctx.morita()
    f = ctx.field
    # eta . eps is the unit of the dual ring
    pre = solve_matrix(data.F_matrix, ctx.sharp_ring().algebra.unit_matrix())
    if pre is None:
        raise VerificationError("psi_tilde_from_F", one_failure("F-not-surjective"))
    lift = data.QA.section.mul(pre)  # sum c_ij q_i (x) e_j, in Q-basis (x) A coordinates
    psi_mat, _ = psi_M(ctx, M)
    # psi_mat: coinv (x)_B A -> M; the candidate inverse m -> sum_ij m q_i (x) c_ij e_j,
    # applying the transposed lift to the coinvariant coordinates of m q_i stacked over i
    coinv_space = coinvariants(M)
    tensor = _coinv_tensor_A(ctx, M)
    dual = dual_action(M)
    nA = ctx.A.dim
    stacked = stack_slices(f, [coinv_space.coords_matrix(D)
                               for D in combinations(dual.action, data.Q.space.embedding)])
    lift_t = lift.reshape(data.Q.dim, nA).transpose()
    inv = tensor.projection.mul(kron_mul(DenseMatrix.identity(f, coinv_space.dim), lift_t,
                                         stacked))
    v = Verdict()
    if psi_mat.mul(inv) != DenseMatrix.identity(f, M.dim):
        v.fail("psi-tilde-not-right-inverse")
    if inv.mul(psi_mat) != DenseMatrix.identity(f, tensor.dim):
        v.fail("psi-tilde-not-left-inverse")
    if not v.valid:
        raise VerificationError("psi_tilde_from_F", v)
    return psi_mat, inv
