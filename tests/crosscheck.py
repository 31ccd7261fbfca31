"""Alternative constructions kept only to cross-check the runtime route.

Each function here builds an object the package also builds, by a second
mathematical route: the balanced square of a coring as a generic quotient
instead of through a free basis, the dual ring as left-A-linear maps off the
coring instead of Hom(C, A) with the entwined product, the ideal Q from the
entwined-form condition instead of the coring condition, and every operator
on Hom(C, A) by evaluation on each elementary map e_a (x) c* instead of in
closed form (and the convolution operators h -> f*h and h -> h*f also
with one product per basis element of A and of C instead of as one
product), the Morita context's maps and module structures one basis
vector at a time instead of as matrix products, balanced tensor products
and hom spaces with their relations over the whole basis of the algebra
instead of over its generators, the x-invariants of a dual-ring module
with a condition for every basis element of the dual ring instead of for
the f^j = 1 (x) c_j*, the comodule maps out of A and into an
induced comodule as such relation spans instead of through the coring
adjunctions, and the structure maps (the coring's Delta-lift, free basis
and right action, induced actions, the Doi-Koppinen entwining, the
explicit inverses of the weak-structure map) entry by entry
with plain ``+`` and ``*`` instead of as Kronecker and matrix products.
The tests compare the two routes.

``verify_associativity_by_triples`` checks associativity the way
``verify_algebra`` did before it became one matrix identity: one pair of
vector products per basis triple.  ``operators_from_table`` builds an
algebra's multiplication operators from a dense table of structure
constants, one ``from_columns`` of dense columns per operator, and
``sharp_table`` and ``subalgebra_table`` form the tables of the dual ring
and of the coinvariant subalgebra entry by entry, as references for the
operators the runtime stores.

``weak_map_flags_on``, ``pairing_flags_on`` and ``unit_map_flags_on``
evaluate a witness's flags on the witness itself, where the runtime reads
a direct sum's from its summands, the zero witness's as the empty sum and a
repeated witness's from the first; ``pairing_flags_on`` takes xi through
``balanced_tensor`` for every module (``xi_over_balanced_tensor``), where
the runtime has closed forms for A and the dual ring over themselves.
``seeded_kernel`` is the kernel the witness family restricts to, so that
its witness can be compared with ``restrict_comodule`` of it.

``beta_W`` extends the Galois map beta to W (x)_B A -> W (x) C for a right
A-module W, and ``varpi_M`` is the map M (x) (dual ring) -> M with the
normalized element sending x to 1; the analysis reads neither.

The first section holds what no command reaches: ``solve``, the
one-column ``solve_matrix``; ``coords``, the one-column
``Subspace.coords_matrix``; ``is_grouplike`` for a coring element;
``verify_comodule``, the comodule laws and the entwined-module law of a
comodule on every column, where the runtime checks A's coaction at 1
only; and ``induced_comodule``, which the analysis reaches only through
``hom_into_induced``.

The last section holds the checks of theorems about verified input that the
runtime does not repeat: that the canonical map into the coring is a coring
morphism, that the Morita context satisfies its identities, that the
trace a -> a <- q-hat splits B off A, and that B acts on A
multiplicatively.  Unlike ``oracles.py`` this module
imports the package.
"""

from dataclasses import dataclass
from typing import List, Sequence

from coring_lab.algebra import (
    AlgebraPresentation,
    ModulePresentation,
    balanced_tensor,
    hom_module,
    verify_algebra,
)
from coring_lab.coalgebra import CoalgebraPresentation, convolution
from coring_lab.coring import (
    ComoduleInstance,
    CoringPresentation,
    SquareReducer,
    coinvariants,
    dual_action,
    hom_into_induced,
    induced_action,
    x_invariants,
)
from coring_lab.exactla import (
    DenseMatrix,
    FieldSpec,
    QuotientSpace,
    SeededStream,
    ShapeError,
    Subspace,
    SubspaceBuilder,
    combinations,
    differing_columns,
    flat_columns,
    image,
    kernel,
    kron,
    kron_mul,
    mul_kron,
    quotient,
    solve_matrix,
)
from coring_lab.galois import (
    UnitMapFlags,
    WeakMapFlags,
    _coinv_tensor_A,
    _restrict_right_to_B,
    beta,
    phi_N,
    psi_M,
    psi_prime_M,
)
from coring_lab.morita import (
    PairingFlags,
    _coords_or_fail,
    _F_plain,
    _times_Q,
    map_report,
)
from coring_lab.verdict import Verdict, VerificationError

from helpers import int_row, lmul, mult_table, rmul


# ---------------------------------------------------------------------------
# what no command reaches
# ---------------------------------------------------------------------------


def solve(M: DenseMatrix, b: Sequence) -> list | None:
    """One solution of Mv = b, or None; the one-column ``solve_matrix``."""
    if len(b) != M.rows:
        raise ShapeError("rhs length mismatch")
    X = solve_matrix(M, DenseMatrix.from_columns(M.field, [b], M.rows))
    return None if X is None else X.entries


def coords(space: Subspace, vec: Sequence) -> list:
    """Coordinates of a member vector in the echelon basis of a subspace;
    the one-column ``coords_matrix``, raising ``NotInSubspace`` likewise."""
    col = DenseMatrix.from_columns(space.field, [vec], space.ambient_dim)
    return space.coords_matrix(col).entries


def is_grouplike(cor: CoringPresentation, x: Sequence, red: SquareReducer) -> bool:
    """Delta(x) = x (x)_A x after projection, and eps(x) = 1_A."""
    X = DenseMatrix.from_columns(cor.field, [x], cor.dim)
    return cor.counit_map.mul(X) == cor.A.unit_matrix() and \
        red.reduced_delta().mul(X) == red.projection.mul(kron(X, X))


def verify_comodule(M: ComoduleInstance) -> Verdict:
    """Coassociativity and counit of the coaction on every column, plus the
    entwined-module law for every basis element of A: the general check of
    a comodule.  The runtime checks A's own coaction at 1 only
    (``comodule_algebra_from_unit``): for a context whose axioms hold the
    entwined law is a theorem there, and the comodule laws hold on A iff
    they hold at 1."""
    v = Verdict()
    ctx = M.ctx
    f = M.field
    d, nA, nC = M.dim, ctx.A.dim, ctx.C.dim
    eye_d = DenseMatrix.identity(f, d)
    eye_c = DenseMatrix.identity(f, nC)
    rho = M.coaction
    lhs = kron_mul(rho, eye_c, rho)
    rhs = kron_mul(eye_d, ctx.C.comult_matrix(), rho)
    for j in differing_columns(lhs, rhs):
        v.fail("coaction-coassociativity", (j,))
    eps_row = ctx.C.counit_matrix()
    if kron_mul(eye_d, eps_row, rho) != eye_d:
        v.fail("coaction-counit")
    act_full = M.module.action_map()
    for i in range(nA):
        lhs_i = rho.mul(M.module.action[i])
        rhs_i = kron_mul(act_full, eye_c, kron_mul(eye_d, ctx.psi_slice(i), rho))
        if lhs_i != rhs_i:
            v.fail("entwined-module-law", (i,))
    return v


def induced_comodule(ctx, W: ModulePresentation, name: str = "") -> ComoduleInstance:
    """W (x)_A (coring) in entwined coordinates W (x) C: action
    ``induced_action``, coaction on the C leg by comultiplication.  The
    analysis reaches it only through ``hom_into_induced``."""
    if W.side != "right":
        raise ShapeError("induction starts from a right A-module")
    mod = ModulePresentation(ctx.A, W.dim * ctx.C.dim, "right", induced_action(ctx, W),
                             name=name or "induced")
    rho = kron(DenseMatrix.identity(W.field, W.dim), ctx.C.comult_matrix())
    return ComoduleInstance(ctx, mod, rho, name=name or f"{W.name or 'W'}(x)coring")


# ---------------------------------------------------------------------------
# the balanced square without a free basis
# ---------------------------------------------------------------------------


class GenericSquareReducer:
    """C (x)_A C and ((C (x)_A C) (x)_A C) as generic quotient spaces.

    Needs no free basis, so it checks ``coring.SquareReducer`` on the same
    coring: both must present the same square and the same verdicts.
    """

    def __init__(self, coring: CoringPresentation):
        self.coring = coring
        self._square = balanced_tensor(coring.right_module, coring.left_module)
        self.square_dim = self._square.dim
        self.projection = self._square.projection

    def reduced_delta(self) -> DenseMatrix:
        return self.projection.mul(self.coring.delta_lift)

    def left_on_first(self, i: int) -> DenseMatrix:
        cor = self.coring
        return self._square.projection.mul(
            kron(cor.left_module.action[i], DenseMatrix.identity(cor.field, cor.dim))
        ).mul(self._square.section)

    def right_on_second(self, i: int) -> DenseMatrix:
        cor = self.coring
        return self._square.projection.mul(
            kron(DenseMatrix.identity(cor.field, cor.dim), cor.right_module.action[i])
        ).mul(self._square.section)

    def coassociativity_defect(self) -> DenseMatrix:
        cor = self.coring
        f, n, sq = cor.field, cor.dim, self._square
        right_sq = ModulePresentation(
            cor.A, sq.dim, "right",
            [self.right_on_second(i) for i in range(cor.A.dim)])
        trip = balanced_tensor(right_sq, cor.left_module)
        eye = DenseMatrix.identity(f, n)
        proj3 = trip.projection.mul(kron(sq.projection, eye))
        lhs = proj3.mul(kron(cor.delta_lift, eye)).mul(cor.delta_lift)
        rhs = proj3.mul(kron(eye, cor.delta_lift)).mul(cor.delta_lift)
        return lhs.sub(rhs)


def generic_square_failures(cor: CoringPresentation) -> List[str]:
    """The comultiplication axioms of ``verify_coring`` checked through the
    generic square; returns the names of the failing axioms."""
    red = GenericSquareReducer(cor)
    D1 = red.reduced_delta()
    names = []
    for i in range(cor.A.dim):
        if D1.mul(cor.left_module.action[i]) != red.left_on_first(i).mul(D1):
            names.append("comultiplication-left-linearity")
        if D1.mul(cor.right_module.action[i]) != red.right_on_second(i).mul(D1):
            names.append("comultiplication-right-linearity")
    if not red.coassociativity_defect().is_zero():
        names.append("coassociativity")
    return names


def trivial_coring(A: AlgebraPresentation) -> CoringPresentation:
    """The coring A itself: Delta the canonical identification, counit id."""
    f = A.field
    n = A.dim
    lift_cols = []
    for j in range(n):
        # Delta(e_j) = e_j (x) 1
        vec = [0] * (n * n)
        for t in range(n):
            if A.unit[t]:
                vec[j * n + t] = A.unit[t]
        lift_cols.append(vec)
    delta = DenseMatrix.from_rows(f, lift_cols, cols=n * n).transpose()
    return CoringPresentation(
        A, n,
        [lmul(A, [1 if t == i else 0 for t in range(n)]) for i in range(n)],
        [rmul(A, [1 if t == i else 0 for t in range(n)]) for i in range(n)],
        delta, DenseMatrix.identity(f, n),
        free_left_basis=DenseMatrix.from_rows(f, [A.unit], cols=n).transpose(),
        name="trivial")


# ---------------------------------------------------------------------------
# the dual ring as left-A-linear maps off the coring
# ---------------------------------------------------------------------------


@dataclass
class DualRingData:
    """Hom of left-A-linear maps from the coring to A, as an algebra.

    ``space`` is the subspace of dim(A) x dim matrices (row-major flat);
    ``algebra`` carries the induced structure constants in its echelon basis;
    ``embed_matrices`` map A into the dual ring (making it an A-ring).
    """

    coring: CoringPresentation
    space: Subspace
    algebra: AlgebraPresentation
    embed_matrices: List[DenseMatrix]

    def unit_embedding(self, a: Sequence) -> list:
        """Coordinates in the dual ring of [c -> eps(c) a]."""
        cor = self.coring
        mat = rmul(cor.A, a).mul(cor.counit_map)
        return coords(self.space, mat.entries)


def dual_mult_matrix(cor: CoringPresentation, fmat: DenseMatrix,
                     gmat: DenseMatrix) -> DenseMatrix:
    """(f . g)(c) = sum g(c_1 f(c_2)), computed through the chosen lift."""
    rmat = cor.right_module.action_map()
    eye = DenseMatrix.identity(cor.field, cor.dim)
    return gmat.mul(rmat).mul(kron(eye, fmat)).mul(cor.delta_lift)


def dual_ring(cor: CoringPresentation) -> DualRingData:
    """The ring of left-A-linear maps from the coring to A; raises
    VerificationError if the induced structure is not an algebra."""
    A = cor.A
    space = hom_module(cor.left_module, A.regular_module("left"))
    d = space.dim
    basis_mats = [DenseMatrix(cor.field, A.dim, cor.dim, space.basis.row(i))
                  for i in range(d)]
    mult = [[coords(space, dual_mult_matrix(cor, basis_mats[i], basis_mats[j]).entries)
             for j in range(d)] for i in range(d)]
    unit = coords(space, cor.counit_map.entries)
    alg = AlgebraPresentation(cor.field, d, mult, unit, name="dual ring")
    verdict = verify_algebra(alg)
    if not verdict.valid:
        raise VerificationError("dual_ring", verdict)
    embeds = [rmul(A, [1 if t == i else 0 for t in range(A.dim)]).mul(cor.counit_map)
              for i in range(A.dim)]
    return DualRingData(cor, space, alg, embeds)


def check_dual_identification(ctx) -> bool:
    """The canonical map Hom(C, A) -> left-A-linear maps off the coring,
    f -> [a (x) c -> a f(c)], must be a ring isomorphism onto the dual ring;
    compared at the level of structure constants."""
    sharp = ctx.sharp_ring()
    dual = dual_ring(ctx.coring())
    n = sharp.algebra.dim
    if dual.algebra.dim != n:
        return False
    transport = []
    for idx in range(n):
        mat = qtilde_matrix(ctx, [1 if t == idx else 0 for t in range(n)])
        if not dual.space.contains(mat.entries):
            return False
        transport.append(coords(dual.space, mat.entries))
    tmat = DenseMatrix.from_rows(ctx.field, transport, cols=n).transpose()
    if not kernel(tmat).is_zero():
        return False
    for i in range(n):
        e_i = [1 if t == i else 0 for t in range(n)]
        for j in range(n):
            e_j = [1 if t == j else 0 for t in range(n)]
            lhs = tmat.apply(sharp.algebra.mul_vec(e_i, e_j))
            rhs = dual.algebra.mul_vec(tmat.apply(e_i), tmat.apply(e_j))
            if lhs != rhs:
                return False
    return tmat.apply(sharp.algebra.unit) == dual.algebra.unit


# ---------------------------------------------------------------------------
# comodule maps out of A and the induction unit
# ---------------------------------------------------------------------------


def evaluation_at_one(ctx, homspace: Subspace, M: ComoduleInstance) -> DenseMatrix:
    """The map f -> f(1_A) from a hom-space out of A into M, as a matrix."""
    f = ctx.A.field
    cols = []
    for i in range(homspace.dim):
        T = DenseMatrix(f, M.dim, ctx.A.dim, homspace.basis.row(i))
        cols.append(T.apply(ctx.A.unit))
    return DenseMatrix.from_rows(f, cols, cols=M.dim).transpose()


def induction_unit_map(ctx, W: ModulePresentation) -> DenseMatrix:
    """w -> w (x)_A x as a matrix W -> W (x) C."""
    f = W.field
    dW, nA, nC = W.dim, ctx.A.dim, ctx.C.dim
    rows = [[0] * dW for _ in range(dW * nC)]
    for i in range(nA):
        for k in range(nC):
            coef = ctx.x[i * nC + k]
            if coef:
                act = W.action[i]
                for r in range(dW):
                    arow = act.row(r)
                    target = rows[r * nC + k]
                    for c in range(dW):
                        if arow[c]:
                            target[c] += coef * arow[c]
    return DenseMatrix.from_rows(f, rows, cols=dW)


# ---------------------------------------------------------------------------
# the ideal Q through the entwined-form condition
# ---------------------------------------------------------------------------


def compute_Q_entwined(ctx) -> Subspace:
    """Q = {q : psi (id (x) q) Delta = sum q(c) 1_(0) (x) 1_(1)} inside
    Hom(C, A), the entwined form of the condition ``morita.compute_Q`` reads
    through the coring."""
    f = ctx.field
    nA, nC = ctx.A.dim, ctx.C.dim
    eyeC = DenseMatrix.identity(f, nC)
    delta = ctx.C.comult_matrix()
    u = ctx.unit_coaction
    w = [kron(lmul(ctx.A, [1 if t == i else 0 for t in range(nA)]), eyeC).apply(u)
         for i in range(nA)]
    cond_cols = []
    for idx in range(nA * nC):
        qmat = DenseMatrix(f, nA, nC, [1 if t == idx else 0 for t in range(nA * nC)])
        lhs = ctx.psi.mul(kron(eyeC, qmat)).mul(delta)
        rhs_cols = []
        for k in range(nC):
            acc = [0] * (nA * nC)
            for i in range(nA):
                coef = qmat.get(i, k)
                if coef:
                    acc = [f.normalize(a + coef * b) for a, b in zip(acc, w[i])]
            rhs_cols.append(acc)
        rhs = DenseMatrix.from_rows(f, rhs_cols, cols=nA * nC).transpose()
        cond_cols.append(lhs.sub(rhs).entries)
    condition = DenseMatrix.from_rows(f, cond_cols, cols=nA * nC * nC).transpose()
    return kernel(condition)


# ---------------------------------------------------------------------------
# operators on Hom(C, A), one evaluation per elementary map
# ---------------------------------------------------------------------------


def elementary_maps(field: FieldSpec, nA: int, nC: int) -> List[DenseMatrix]:
    """The maps e_a (x) c* as dim A x dim C matrices, in the order a * dim C + c."""
    n = nA * nC
    return [DenseMatrix(field, nA, nC, [1 if t == idx else 0 for t in range(n)])
            for idx in range(n)]


def conv_operator_by_evaluation(fmap: DenseMatrix, C: CoalgebraPresentation,
                                A: AlgebraPresentation, side: str) -> DenseMatrix:
    """h -> f*h (side "left") or h -> h*f, one convolution per elementary h."""
    cols = [(convolution(fmap, h, C, A) if side == "left" else convolution(h, fmap, C, A)).entries
            for h in elementary_maps(A.field, A.dim, C.dim)]
    return DenseMatrix.from_columns(A.field, cols, A.dim * C.dim)


def conv_operator_by_products(fmap: DenseMatrix, C: CoalgebraPresentation,
                              A: AlgebraPresentation, side: str) -> DenseMatrix:
    """h -> f*h (side "left") or h -> h*f with one product per basis element
    of A and of C: column (a, c) is rmul(e_a) f D_c, or lmul(e_a) f D'_c,
    each formed on its own and flattened, where the runtime forms all of
    them as the blocks of one product."""
    if side == "left":
        ops, slices = A.rmuls, C.comult_slices("second")
    else:
        ops, slices = A.lmuls, C.comult_slices("first")
    fD = [fmap.mul(D) for D in slices]
    return flat_columns(A.field, [op.mul(X) for op in ops for X in fD], A.dim, C.dim)


def dual_action_by_evaluation(M: ComoduleInstance) -> List[DenseMatrix]:
    """m . f = sum m_(0) f(m_(1)) for each elementary f, through the whole
    action map and the coaction."""
    ctx, f = M.ctx, M.field
    act_full = M.module.action_map()
    eye_d = DenseMatrix.identity(f, M.dim)
    return [act_full.mul(kron_mul(eye_d, fmat, M.coaction))
            for fmat in elementary_maps(f, ctx.A.dim, ctx.C.dim)]


def sharp_constants_by_evaluation(ctx) -> list:
    """Structure constants of Hom(C, A): f * g = mult (id (x) g) psi (id (x) f) Delta
    for every pair of elementary maps."""
    A, C, f = ctx.A, ctx.C, ctx.field
    eyeA = DenseMatrix.identity(f, A.dim)
    eyeC = DenseMatrix.identity(f, C.dim)
    maps = elementary_maps(f, A.dim, C.dim)
    pre = [ctx.psi.mul(kron_mul(eyeC, fmat, C.comult_matrix())) for fmat in maps]
    post = [mul_kron(A.mult_matrix(), eyeA, gmat) for gmat in maps]
    return [[g.mul(p).entries for g in post] for p in pre]


def eval_at(ctx, coords: Sequence, xvec: Sequence) -> list:
    """Value of the left-A-linear extension of the element of Hom(C, A) with
    flat coordinates ``coords`` on a vector of A (x) C."""
    A = ctx.A
    nA, nC = A.dim, ctx.C.dim
    out = [0] * nA
    for i in range(nA):
        for k in range(nC):
            coef = xvec[i * nC + k]
            if coef:
                # column k of the element's dim A x dim C matrix
                img = A.lmuls[i].apply(coords[k::nC])
                for t in range(nA):
                    if img[t]:
                        out[t] += coef * img[t]
    return [A.field.normalize(x) for x in out]


def at_x_by_evaluation(ctx) -> DenseMatrix:
    """Evaluation at x of every elementary map, as columns."""
    n = ctx.A.dim * ctx.C.dim
    cols = [eval_at(ctx, [1 if t == s else 0 for t in range(n)], ctx.x) for s in range(n)]
    return DenseMatrix.from_columns(ctx.field, cols, ctx.A.dim)


def integral_condition_by_evaluation(ctx) -> DenseMatrix:
    """rho_A lam - (lam (x) id) Delta for every elementary lam."""
    f = ctx.field
    nA, nC = ctx.A.dim, ctx.C.dim
    rho_A = ctx.comodule_A().coaction
    eyeC = DenseMatrix.identity(f, nC)
    cols = [rho_A.mul(lam).sub(kron_mul(lam, eyeC, ctx.C.comult_matrix())).entries
            for lam in elementary_maps(f, nA, nC)]
    return DenseMatrix.from_columns(f, cols, nA * nC * nC)


def normal_basis_condition_by_evaluation(ctx, B) -> DenseMatrix:
    """Left B-linearity, then colinearity, of every elementary theta:
    A -> B (x) C."""
    f = ctx.field
    nA, nC, nB = ctx.A.dim, ctx.C.dim, B.dim
    target = nB * nC
    rho_A = ctx.comodule_A().coaction
    eyeC = DenseMatrix.identity(f, nC)
    eyeB = DenseMatrix.identity(f, nB)
    lmuls = [(lmul(ctx.A, B.embedding.col(j)),
              lmul(B.algebra, [1 if t == j else 0 for t in range(nB)]))
             for j in range(nB)]
    cols = []
    for idx in range(target * nA):
        theta = DenseMatrix(f, target, nA, [1 if t == idx else 0 for t in range(target * nA)])
        rows = []
        for lb_A, lb_B in lmuls:
            rows.extend(theta.mul(lb_A).sub(kron_mul(lb_B, eyeC, theta)).entries)
        rows.extend(kron_mul(theta, eyeC, rho_A).sub(
            kron_mul(eyeB, ctx.C.comult_matrix(), theta)).entries)
        cols.append(rows)
    return DenseMatrix.from_columns(f, cols, len(cols[0]))


def qtilde_matrix(ctx, flat: Sequence) -> DenseMatrix:
    """The left-A-linear extension of q to the coring, as dim(A) x dim matrix."""
    f = ctx.field
    nA, nC = ctx.A.dim, ctx.C.dim
    mult = mult_table(ctx.A)
    cols = []
    for i in range(nA):
        for k in range(nC):
            acc = [0] * nA
            for u in range(nA):
                coef = flat[u * nC + k]
                if coef:
                    prod = mult[i][u]
                    for t in range(nA):
                        if prod[t]:
                            acc[t] += coef * prod[t]
            cols.append([f.normalize(x) for x in acc])
    return DenseMatrix.from_columns(f, cols, nA)


def q_condition_by_evaluation(ctx, inputs: DenseMatrix = None) -> DenseMatrix:
    """sum c_1 q~(c_2) - q~(c) x for every elementary q, through the coring's
    lifted comultiplication, at every c among the columns of ``inputs``
    (every basis vector of the coring by default)."""
    cor = ctx.coring()
    f = ctx.field
    nA, nC, dim = ctx.A.dim, ctx.C.dim, cor.dim
    eye = DenseMatrix.identity(f, dim)
    rmat = cor.right_module.action_map()
    lx = DenseMatrix.from_columns(
        f, [cor.left_module.act_matrix([1 if t == i else 0 for t in range(nA)]).apply(ctx.x)
            for i in range(nA)], dim)
    cols = []
    for idx in range(nA * nC):
        qt = qtilde_matrix(ctx, [1 if t == idx else 0 for t in range(nA * nC)])
        cond = rmat.mul(kron_mul(eye, qt, cor.delta_lift)).sub(lx.mul(qt))
        cols.append((cond if inputs is None else cond.mul(inputs)).entries)
    return DenseMatrix.from_columns(f, cols, len(cols[0]))


# ---------------------------------------------------------------------------
# the Morita context, one basis vector at a time
# ---------------------------------------------------------------------------


def _basis(n: int) -> List[list]:
    return [[1 if t == s else 0 for t in range(n)] for s in range(n)]


def hook_by_evaluation(ctx, a: Sequence, q: Sequence) -> list:
    """a <- q = q~(x a), evaluating q's extension on x a."""
    return eval_at(ctx, q, ctx.coring().right_module.act_matrix(a).apply(ctx.x))


def G_plain_by_evaluation(data) -> DenseMatrix:
    """The hook on every pair (e_j, q_i), column (j, i), in A-coordinates."""
    ctx = data.ctx
    cols = [hook_by_evaluation(ctx, e_j, q) for e_j in _basis(ctx.A.dim)
            for q in data.Q.space.basis.row_lists()]
    return DenseMatrix.from_columns(ctx.field, cols, ctx.A.dim)


def Q_left_by_evaluation(data) -> List[DenseMatrix]:
    """Per dual-ring basis element g, the Q-coordinates of g q_i, one product
    and one coordinate read per Q basis vector."""
    ctx = data.ctx
    S = ctx.sharp_ring().algebra
    Q = data.Q.space
    return [DenseMatrix.from_columns(ctx.field, [coords(Q, S.mul_vec(g, q)) for q in
                                                 Q.basis.row_lists()], Q.dim)
            for g in _basis(S.dim)]


def Q_right_by_evaluation(data) -> List[DenseMatrix]:
    """Per B basis element b, the Q-coordinates of q_i(-) b."""
    ctx = data.ctx
    Q = data.Q.space
    out = []
    for j in range(data.B.dim):
        rb = rmul(ctx.A, data.B.embedding.col(j))
        out.append(DenseMatrix.from_columns(
            ctx.field, [coords(Q, rb.mul(qm).entries) for qm in data.Q.matrices], Q.dim))
    return out


def omega_by_evaluation(data) -> DenseMatrix:
    """Omega(e_j) = (q -> e_j <- q) as a B-linear map Q -> B, in the
    coordinates of Hom_{-B}(Q, B), one hook per (e_j, q_i)."""
    ctx = data.ctx
    homQB = hom_module(data.Q_right_B, data.B.algebra.regular_module("right"))
    nQ, nB = data.Q.dim, data.B.dim
    cols = []
    for e_j in _basis(ctx.A.dim):
        vals = [coords(data.B.space, hook_by_evaluation(ctx, e_j, q))
                for q in data.Q.space.basis.row_lists()]
        cols.append(coords(homQB, [vals[i][r] for r in range(nB) for i in range(nQ)]))
    return DenseMatrix.from_columns(ctx.field, cols, homQB.dim)


def q_left_annihilator_by_evaluation(data) -> Subspace:
    """{g : g q = 0 for all q in Q}, one product per (basis element, q)."""
    ctx = data.ctx
    S = ctx.sharp_ring().algebra
    if data.Q.dim == 0:
        return Subspace.full(ctx.field, S.dim)
    cols = [[x for q in data.Q.space.basis.row_lists() for x in S.mul_vec(g, q)]
            for g in _basis(S.dim)]
    return kernel(DenseMatrix.from_columns(ctx.field, cols, data.Q.dim * S.dim))


# ---------------------------------------------------------------------------
# algebras from dense structure constants
# ---------------------------------------------------------------------------


def operators_from_table(field: FieldSpec, mult) -> tuple:
    """(lmuls, rmuls, multiplication matrix) of the structure constants
    mult[i][j][k], each constant normalized and each operator built by one
    ``from_columns`` of dense columns: column j of lmul(e_i), column i of
    rmul(e_j) and column (i, j) of the multiplication matrix are e_i e_j."""
    dim = len(mult)
    mult = [[[field.normalize(x) for x in cell] for cell in row] for row in mult]
    return ([DenseMatrix.from_columns(field, row, dim) for row in mult],
            [DenseMatrix.from_columns(field, col, dim) for col in zip(*mult)],
            DenseMatrix.from_columns(field, [cell for row in mult for cell in row], dim))


def algebra_json_from_table(field: FieldSpec, mult, unit) -> dict:
    """The wire form of an algebra, written from its dense table."""
    return {"dim": len(mult),
            "mult": [[[field.scalar_to_json(x) for x in cell] for cell in row] for row in mult],
            "unit": [field.scalar_to_json(x) for x in unit]}


def sharp_table(ctx, rmuls_A: List[DenseMatrix]) -> list:
    """The dual ring's structure constants as a dense table: (e_a (x) c*)
    (e_b (x) d*) is rmul(e_b), from ``rmuls_A``, applied to the rows (., d)
    of Psi_a D_c, read entry by entry."""
    nA, nC = ctx.A.dim, ctx.C.dim
    table = []
    for a in range(nA):
        for D in ctx.C.comult_slices("second"):
            Y = ctx.psi_slice(a).mul(D)
            rows_d = [Y.take_rows(range(d, nA * nC, nC)) for d in range(nC)]
            table.append([R.mul(X).entries for R in rmuls_A for X in rows_d])
    return table


def subalgebra_table(mult_A: DenseMatrix, space: Subspace) -> list:
    """The structure constants induced on a multiplicatively closed subspace,
    in its echelon basis, from the multiplication matrix of the parent."""
    d, emb = space.dim, space.embedding
    prods = space.coords_matrix(mul_kron(mult_A, emb, emb))
    return [[prods.col(i * d + j) for j in range(d)] for i in range(d)]


# ---------------------------------------------------------------------------
# associativity one basis triple at a time
# ---------------------------------------------------------------------------


def verify_associativity_by_triples(A: AlgebraPresentation) -> Verdict:
    """(e_i e_j) e_k against e_i (e_j e_k) for every basis triple, with two
    ``mul_vec`` calls each: 2 n^3 vector products, where ``verify_algebra``
    compares two matrices once."""
    v = Verdict()
    n, mult = A.dim, mult_table(A)
    for i in range(n):
        for j in range(n):
            ij = mult[i][j]
            for k in range(n):
                left = A.mul_vec(ij, [1 if t == k else 0 for t in range(n)])
                right = A.mul_vec([1 if t == i else 0 for t in range(n)], mult[j][k])
                if left != right:
                    v.fail("associativity", (i, j, k))
    return v


# ---------------------------------------------------------------------------
# relation spans over the whole basis of the acting algebra
# ---------------------------------------------------------------------------


def balanced_tensor_over_basis(M: ModulePresentation, N: ModulePresentation) -> QuotientSpace:
    """M (x)_S N with a relation m s (x) n - m (x) s n for every basis
    element s of S and basis vectors m, n, as dense vectors."""
    f, dM, dN = M.field, M.dim, N.dim
    span = SubspaceBuilder(f, dM * dN)
    for actM, actN in zip(M.action, N.action):
        for i in range(dM):
            for j in range(dN):
                rel = [0] * (dM * dN)
                for r in range(dM):
                    rel[r * dN + j] = f.normalize(rel[r * dN + j] + actM.get(r, i))
                for r in range(dN):
                    rel[i * dN + r] = f.normalize(rel[i * dN + r] - actN.get(r, j))
                span.insert(int_row(rel))
    return quotient(span)


def intertwiners_over_basis(field: FieldSpec, dM: int, dN: int, pairs) -> Subspace:
    """The dN x dM matrices T with T a = b T for every pair (a, b), as the
    kernel of all the relations stacked into one matrix."""
    rows = []
    for a, b in pairs:
        for i in range(dN):
            for j in range(dM):
                rel = [0] * (dN * dM)
                for c in range(dM):
                    rel[i * dM + c] = field.normalize(rel[i * dM + c] + a.get(c, j))
                for r in range(dN):
                    rel[r * dM + j] = field.normalize(rel[r * dM + j] - b.get(i, r))
                rows.append(rel)
    return kernel(DenseMatrix.from_rows(field, rows, cols=dN * dM))


def hom_module_over_basis(M: ModulePresentation, N: ModulePresentation) -> Subspace:
    """Module maps M -> N, intertwining the action of every basis element."""
    return intertwiners_over_basis(M.field, M.dim, N.dim, zip(M.action, N.action))


def hom_comodule_over_basis(M: ComoduleInstance, N: ComoduleInstance) -> Subspace:
    """Comodule maps M -> N, A-linear for every basis element of A and
    colinear for every C-component of the coactions."""
    pairs = list(zip(M.module.action, N.module.action)) + list(zip(M.slices(), N.slices()))
    return intertwiners_over_basis(M.field, M.dim, N.dim, pairs)


def x_invariants_over_basis(mod: ModulePresentation, ctx) -> Subspace:
    """{m : m . g = m . iota(g(x))} with the condition stacked for every
    basis element g of the dual ring, the reference for ``x_invariants``."""
    sharp = ctx.sharp_ring()
    diffs = [mod.action[idx].sub(mod.act_matrix(sharp.iota.apply(gx)))
             for idx, gx in enumerate(sharp.at_x().columns())]
    return kernel(diffs[0].vstack(*diffs[1:]))


def hom_from_A_over_basis(M: ComoduleInstance) -> Subspace:
    """Comodule maps A -> M as a relation span over the whole basis, the
    reference for ``hom_from_A``."""
    return hom_comodule_over_basis(M.ctx.comodule_A(), M)


def hom_into_induced_over_basis(M: ComoduleInstance, W: ModulePresentation) -> Subspace:
    """Comodule maps M -> W (x)_A C as a relation span over the whole basis,
    the reference for ``hom_into_induced``."""
    return hom_comodule_over_basis(M, induced_comodule(M.ctx, W))


# ---------------------------------------------------------------------------
# structure maps entry by entry
# ---------------------------------------------------------------------------


def induced_action_by_entries(ctx, W: ModulePresentation) -> List[DenseMatrix]:
    """(w (x) c_k) . e_i = sum psi[(a2, k2), (k, i)] (w . e_a2) (x) c_k2 on
    W (x) C, one entry at a time."""
    dW, nA, nC = W.dim, ctx.A.dim, ctx.C.dim
    mats = []
    for i in range(nA):
        out = [[0] * (dW * nC) for _ in range(dW * nC)]
        for k in range(nC):
            pcol = ctx.psi.col(k * nA + i)
            for a2 in range(nA):
                for k2 in range(nC):
                    coef = pcol[a2 * nC + k2]
                    for r in range(dW):
                        for c in range(dW):
                            out[r * nC + k2][c * nC + k] += coef * W.action[a2].get(r, c)
        mats.append(DenseMatrix.from_rows(W.field, out, cols=dW * nC))
    return mats


def coring_right_action_by_psi(ctx) -> List[DenseMatrix]:
    """(a (x) c) . e_i = mult (a (x) psi(c (x) e_i)), as the product
    (mult (x) id) (id (x) psi) on A (x) C (x) e_i."""
    f = ctx.field
    eyeA, eyeC = DenseMatrix.identity(f, ctx.A.dim), DenseMatrix.identity(f, ctx.C.dim)
    return [kron_mul(ctx.A.mult_matrix(), eyeC, kron(eyeA, ctx.psi_slice(i)))
            for i in range(ctx.A.dim)]


def coring_lift_by_entries(ctx):
    """(Delta-lift, free basis) of the coring A (x) C: Delta(e_i (x) c_k) =
    sum Delta[k][k1][k2] (e_i (x) c_k1) (x) (1 (x) c_k2) and the basis
    1 (x) c_j, one entry at a time."""
    A, C, f = ctx.A, ctx.C, ctx.field
    nA, nC = A.dim, C.dim
    dim = nA * nC
    lift = []
    for i in range(nA):
        for k in range(nC):
            col = [0] * (dim * dim)
            for k1 in range(nC):
                for k2 in range(nC):
                    for u in range(nA):
                        col[(i * nC + k1) * dim + (u * nC + k2)] += C.comult[k][k1][k2] * A.unit[u]
            lift.append(col)
    basis = [[A.unit[idx // nC] if idx % nC == j else 0 for idx in range(dim)]
             for j in range(nC)]
    return (DenseMatrix.from_columns(f, lift, dim * dim),
            DenseMatrix.from_columns(f, basis, dim))


def doi_koppinen_by_entries(H_alg: AlgebraPresentation, A: AlgebraPresentation,
                            coaction: DenseMatrix) -> DenseMatrix:
    """psi(h_k (x) a_j) = sum a_(0) (x) h_k a_(1), one entry at a time."""
    nA, nH = A.dim, H_alg.dim
    mult = mult_table(H_alg)
    cols = []
    for k in range(nH):
        for j in range(nA):
            col = [0] * (nA * nH)
            rho_j = coaction.col(j)
            for a2 in range(nA):
                for l in range(nH):
                    for m in range(nH):
                        col[a2 * nH + m] += rho_j[a2 * nH + l] * mult[k][l][m]
            cols.append(col)
    return DenseMatrix.from_columns(A.field, cols, nA * nH)


def psi_tilde_inverse_by_entries(ctx, M: ComoduleInstance) -> DenseMatrix:
    """The inverse of the weak-structure map from a preimage sum c_ij
    q_i (x) e_j of the counit under F: m -> sum m q_i (x) c_ij e_j, one
    entry at a time."""
    data = ctx.morita()
    f = ctx.field
    nA = ctx.A.dim
    lift = data.QA.section.apply(solve(data.F_matrix, ctx.sharp_ring().algebra.unit))
    coinv = coinvariants(M)
    tensor = _coinv_tensor_A(ctx, M)
    mq = [coinv.coords_matrix(dual_action(M).act_matrix(q))
          for q in data.Q.space.basis.row_lists()]
    cols = []
    for m in range(M.dim):
        acc = [0] * (coinv.dim * nA)
        for i, mq_i in enumerate(mq):
            for j in range(nA):
                for r, val in enumerate(mq_i.col(m)):
                    acc[r * nA + j] += lift[i * nA + j] * val
        cols.append(tensor.projection.apply([f.normalize(x) for x in acc]))
    return DenseMatrix.from_columns(f, cols, tensor.dim)


def cleft_psi_inverse_by_entries(ctx, witness, M: ComoduleInstance) -> DenseMatrix:
    """m -> sum (m_(0) lam_bar) (x)_B lam(m_(1)), reading the coinvariant
    coordinates of each C-component and multiplying out, one entry at a
    time."""
    f = ctx.field
    nA, nC = ctx.A.dim, ctx.C.dim
    D = dual_action(M).act_matrix(witness.lam_bar.entries)
    lifted = kron_mul(D, DenseMatrix.identity(f, nC), M.coaction)
    coinv = coinvariants(M)
    tensor = _coinv_tensor_A(ctx, M)
    cols = []
    for m in range(M.dim):
        plain = [0] * (coinv.dim * nA)
        for k in range(nC):
            xs = coords(coinv, lifted.col(m)[k::nC])
            lam_k = witness.lam.col(k)
            for r in range(coinv.dim):
                for j in range(nA):
                    plain[r * nA + j] += xs[r] * lam_k[j]
        cols.append(tensor.projection.apply([f.normalize(x) for x in plain]))
    return DenseMatrix.from_columns(f, cols, tensor.dim)


# ---------------------------------------------------------------------------
# witness flags on the witness itself
# ---------------------------------------------------------------------------


def weak_map_flags_on(ctx, M: ComoduleInstance) -> WeakMapFlags:
    """``weak_map_flags`` from psi_M and psi'_M of M itself, a direct sum
    included."""
    _, rep = psi_M(ctx, M)
    _, prep = psi_prime_M(ctx, M)
    return WeakMapFlags(rep.bijective, prep.bijective, prep.injective)


def xi_over_balanced_tensor(data, M: ModulePresentation) -> tuple:
    """``xi_M`` with M (x)_dual Q taken by ``balanced_tensor`` for every M."""
    tensor = balanced_tensor(M, data.Q_left_dual)
    mat = _times_Q(M, data.Q).mul(tensor.section)
    return mat, map_report(mat, target_dim=x_invariants(M, data.ctx).dim), tensor


def pairing_flags_on(ctx, M: ComoduleInstance) -> PairingFlags:
    """``pairing_flags`` from xi on M itself over the dual ring, a direct sum
    included, its image compared with the coinvariants as subspaces."""
    mat, rep, _ = xi_over_balanced_tensor(ctx.morita(), dual_action(M))
    return PairingFlags(rep.bijective, rep.injective and image(mat) == coinvariants(M))


def seeded_kernel(ctx, seed: int = 0) -> Subspace | None:
    """The kernel of the seeded comodule map A (+) coring -> coring that
    ``default_comodule_witnesses`` draws, or None when there is no map."""
    big = ctx.default_witnesses(seed)[3]
    homs = hom_into_induced(big, ctx.A.regular_module("right"))
    if not homs.dim:
        return None
    rng = SeededStream(seed)
    coeffs = [rng.randint(-2, 2) for _ in range(homs.dim)]
    return kernel(DenseMatrix(ctx.field, 1, homs.dim, coeffs).mul(homs.basis).reshape(
        big.dim - ctx.A.dim, big.dim))


def unit_map_flags_on(ctx, N: ModulePresentation) -> UnitMapFlags:
    """``unit_map_flags`` from phi_N of N itself, a direct sum included."""
    return UnitMapFlags(phi_N(ctx, N)[1].bijective)


# ---------------------------------------------------------------------------
# the Galois map of a module and the dual ring's pairing
# ---------------------------------------------------------------------------


def beta_W(ctx, W: ModulePresentation) -> tuple:
    """w (x) a -> w (x)_A x a: W (x)_B A into W (x) C, in entwined coordinates."""
    data = ctx.morita()
    f = ctx.field
    W_B = _restrict_right_to_B(ctx, W, data.B)
    tensor = balanced_tensor(W_B, data.A_left_B)
    # w (x) a -> w (x) x a -> sum (w e_i) (x) c_k over the components of x a
    plain = kron_mul(W.action_map(), DenseMatrix.identity(f, ctx.C.dim),
                     kron(DenseMatrix.identity(f, W.dim), ctx.comodule_A().coaction))
    mat = plain.mul(tensor.section)
    return mat, map_report(mat, target_dim=W.dim * ctx.C.dim)


def varpi_M(ctx, M: ModulePresentation) -> dict:
    """M (x)_dual (dual ring) -> M with its surjectivity verdict, plus the
    existence criterion for a dual-ring element sending x to 1.  For M = A
    both hold on verified input: the map is onto for any unital module, and
    iota(1)(x) = eps(x) 1 = 1 for the group-like x; the analysis does not
    re-prove this, the tests do."""
    sharp = ctx.sharp_ring()
    tensor = balanced_tensor(M, sharp.algebra.regular_module("left"))
    mat = M.action_map().mul(tensor.section)
    rep = map_report(mat, target_dim=M.dim)
    ghat = solve(sharp.at_x(), ctx.A.unit)
    return {"matrix": mat, "report": rep, "ghat": ghat,
            "ghat_exists": ghat is not None}


# ---------------------------------------------------------------------------
# theorems about verified input, checked on each tested instance
# ---------------------------------------------------------------------------


def verify_beta_coring_morphism(ctx, plain: DenseMatrix = None):
    """The canonical map a~ (x) a -> a~ x a on the plain tensor square of A,
    ``galois.beta``'s unless ``plain`` is given, is a coring morphism from
    Sweedler's coring: counit, comultiplication after projection to the
    balanced square, and A-bilinearity.  Raises VerificationError naming
    each failure."""
    f = ctx.field
    nA = ctx.A.dim
    cor = ctx.coring()
    if plain is None:
        plain = beta(ctx).plain_matrix
    v = Verdict()
    if cor.counit_map.mul(plain) != ctx.A.mult_matrix():
        v.fail("beta-counit")
    red = SquareReducer(cor)
    # Delta(a~ (x) a) = (a~ (x) 1) (x) (1 (x) a)
    one, eyeA = ctx.A.unit_matrix(), DenseMatrix.identity(f, nA)
    lift = kron(eyeA, kron(kron(one, one), eyeA))
    lhs = red.reduced_delta().mul(plain)
    rhs = red.projection.mul(kron_mul(plain, plain, lift))
    if lhs != rhs:
        v.fail("beta-comultiplication")
    for i in range(nA):
        e_i = [1 if t == i else 0 for t in range(nA)]
        if mul_kron(plain, lmul(ctx.A, e_i), eyeA) != \
                cor.left_module.act_matrix(e_i).mul(plain):
            v.fail("beta-left-linearity", (i,))
        if mul_kron(plain, eyeA, rmul(ctx.A, e_i)) != \
                cor.right_module.act_matrix(e_i).mul(plain):
            v.fail("beta-right-linearity", (i,))
    if not v.valid:
        raise VerificationError("beta", v)


def verify_context_identities(ctx, data):
    """Bilinearity of F and G and the two associativity relations, each one
    matrix equation over all basis triples at once.

    F and G are rebuilt on the plain tensors from ``data``'s fields, G in
    A-coordinates, and every side is a structure map after a Kronecker
    product, applied without building it.  A failing equation names the
    basis element of each failing block: the acting element for the four
    linearity laws, the first tensor factor for the two associativities.
    """
    f = ctx.field
    A, S = ctx.A, ctx.sharp_ring().algebra
    nA, nQ, nB, nS = A.dim, data.Q.dim, data.B.dim, S.dim
    Ad = data.A_right_dual
    F = _F_plain(ctx, Ad, data.Q)
    G = _times_Q(Ad, data.Q)
    eyeA, eyeQ, eyeB, eyeS = (DenseMatrix.identity(f, n) for n in (nA, nQ, nB, nS))
    equations = (
        # F(g.q (x) a) = g . F(q (x) a), columns (s, i, j)
        ("F-left-dual-linearity", mul_kron(F, data.Q_left_dual.action_map(), eyeA),
         mul_kron(S.mult_matrix(), eyeS, F), nQ * nA, nS),
        # F(q (x) a<-g) = F(q (x) a) . g, columns (i, j, s)
        ("F-right-dual-linearity", mul_kron(F, eyeQ, Ad.action_map()),
         mul_kron(S.mult_matrix(), F, eyeS), 1, nS),
        # G(b a (x) q) = b G(a (x) q), columns (b, j, i)
        ("G-left-B-linearity", mul_kron(G, data.A_left_B.action_map(), eyeQ),
         mul_kron(data.A_left_B.action_map(), eyeB, G), nA * nQ, nB),
        # G(a (x) q b) = G(a (x) q) b, columns (j, i, b)
        ("G-right-B-linearity", mul_kron(G, eyeA, data.Q_right_B.action_map()),
         mul_kron(A.mult_matrix(), G, data.B.embedding), 1, nB),
        # F(q (x) a) . q~ = q . G(a (x) q~), columns (i, j, i~)
        ("associativity-FqG", mul_kron(S.mult_matrix(), F, data.Q.space.embedding),
         mul_kron(F, eyeQ, G), nA * nQ, nQ),
        # G(a (x) q) a~ = a <- F(q (x) a~), columns (j, i, j~)
        ("associativity-GaF", mul_kron(A.mult_matrix(), G, eyeA),
         mul_kron(Ad.action_map(), eyeA, F), nQ * nA, nA),
    )
    v = Verdict()
    for label, lhs, rhs, stride, count in equations:
        if lhs != rhs:
            for idx in sorted({c // stride % count for c in range(lhs.cols)
                               if lhs.col(c) != rhs.col(c)}):
                v.fail(label, (idx,))
    if not v.valid:
        raise VerificationError("morita context identities", v)


def trace_map(data, qhat: DenseMatrix) -> DenseMatrix:
    """a -> a <- q-hat, for q-hat a column of dual-ring coordinates, as a
    matrix A -> B-coordinates; the left B-linearity and the
    restriction-to-identity on B are verified exactly."""
    B = data.B
    tr = _coords_or_fail(B.space, combinations(data.A_right_dual.action, qhat)[0], "trace_map",
                         "trace-lands-in-B", lambda j: (j,))
    v = Verdict()
    on_B = tr.mul(B.embedding)
    eyeB = DenseMatrix.identity(data.ctx.field, B.dim)
    for bidx, (lb, lb_B) in enumerate(zip(data.A_left_B.action, B.algebra.lmuls)):
        if on_B.col(bidx) != eyeB.col(bidx):
            v.fail("trace-not-identity-on-B", (bidx,))
        if tr.mul(lb) != lb_B.mul(tr):
            v.fail("trace-not-left-B-linear", (bidx,))
    if not v.valid:
        raise VerificationError("trace_map", v)
    return tr


def verify_B_acts_multiplicatively(ctx, data) -> None:
    """Left multiplication B -> End(A) is multiplicative, lmul(b b') =
    lmul(b) lmul(b') for every pair of basis vectors of B: associativity of
    A, which ``structure_report`` no longer re-proves when it identifies B
    with the endomorphism ring of A over the dual ring."""
    A = ctx.A
    basis = data.B.embedding.columns()
    v = Verdict()
    for i, bi in enumerate(basis):
        for j, bj in enumerate(basis):
            if lmul(A, A.mul_vec(bi, bj)) != lmul(A, bi).mul(lmul(A, bj)):
                v.fail("B-action-multiplicative", (i, j))
    if not v.valid:
        raise VerificationError("verify_B_acts_multiplicatively", v)
