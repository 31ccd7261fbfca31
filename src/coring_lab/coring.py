"""A-corings, their comodules, and coinvariant functors.

A coring is presented by commuting left/right A-actions on a space, a chosen
lift of the comultiplication into the plain tensor square, an A-valued
counit, and a basis of the coring as a free left A-module.  All coring
identities that live in the balanced square C (x)_A C are checked after
projection; the counit laws land in the coring itself and are checked on the
nose.

Every coring this package builds is free as a left A-module, with the
obvious basis, so the balanced squares collapse to direct sums of copies of
the coring.  ``SquareReducer`` verifies the declared free basis before using
it; a basis that fails is reported as the named ``coring-free-basis``
failure, so the verifier never trusts an unchecked hint.  The dual ring of
left-A-linear maps C -> A is ``entwining.SharpRing``, Hom(C, A) with the
entwined multiplication.
"""

from __future__ import annotations

import functools

from .algebra import (
    AlgebraPresentation,
    BimodulePresentation,
    ModulePresentation,
    hom_module,
    intertwiner_space,
    verify_bimodule,
)
from .exactla import (
    DenseMatrix,
    FieldSpec,
    SeededStream,
    ShapeError,
    Subspace,
    block_diag,
    combinations,
    differing_columns,
    flat_blocks,
    hstack,
    image,
    interleave_columns,
    json_dim,
    json_get,
    kernel,
    kron,
    kron_mul,
    mul_kron,
    once,
    rank,
    row_space,
    solve_matrix,
    stack_slices,
    unstack_slices,
)
from .verdict import Verdict, VerificationError, one_failure


class CoringPresentation:
    """An A-coring with a lifted comultiplication.

    left_action/right_action hold one matrix per basis element of A;
    delta_lift is (dim^2) x dim into the plain tensor square; counit_map is
    dim(A) x dim.  ``free_left_basis`` names columns spanning the coring
    freely as a left A-module; it is verified before any use.
    """

    def __init__(self, A: AlgebraPresentation, dim: int,
                 left_action: list[DenseMatrix], right_action: list[DenseMatrix],
                 delta_lift: DenseMatrix, counit_map: DenseMatrix,
                 free_left_basis: DenseMatrix, name: str = ""):
        self.A = A
        self.dim = dim
        if delta_lift.rows != dim * dim or delta_lift.cols != dim:
            raise ShapeError("comultiplication lift has the wrong shape")
        if counit_map.rows != A.dim or counit_map.cols != dim:
            raise ShapeError("counit has the wrong shape")
        self.left_module = ModulePresentation(A, dim, "left", left_action)
        self.right_module = ModulePresentation(A, dim, "right", right_action)
        self.delta_lift = delta_lift
        self.counit_map = counit_map
        self.free_left_basis = free_left_basis
        self.name = name

    @property
    def field(self) -> FieldSpec:
        return self.A.field

    def __repr__(self):
        label = self.name or f"{self.dim}-dim coring"
        return f"CoringPresentation({label})"


# ---------------------------------------------------------------------------
# reduction of the balanced tensor square
# ---------------------------------------------------------------------------


class SquareReducer:
    """Coordinates for C (x)_A C, and the coassociativity defect, through the
    coring's free left basis.

    With a verified free left basis v_1..v_r the square is a direct sum of r
    copies of the coring and the projection has the closed form
    c (x) c' |-> sum_j (c . a_j(c')) in block j, where (a_j) decomposes c'
    over the basis.  A basis that fails verification raises a
    VerificationError naming ``coring-free-basis``.
    """

    def __init__(self, coring: CoringPresentation):
        self.coring = coring
        f = coring.field
        n, nA = coring.dim, coring.A.dim
        basis = coring.free_left_basis
        shaped = nA > 0 and basis.rows == n and basis.cols * nA == n
        if shaped:
            # phi: A^r -> C, column (j, i) = e_i . v_j
            phi = interleave_columns(f, [L.mul(basis) for L in coring.left_module.action], n)
        if not shaped or rank(phi) != n:
            raise VerificationError("SquareReducer", one_failure(
                "coring-free-basis", detail="the declared basis does not span the "
                                            "coring freely as a left A-module"))
        self.rank = basis.cols
        # dec rows are grouped (j, i): coefficient of e_i in a_j
        self.dec = solve_matrix(phi, DenseMatrix.identity(f, n))
        self.square_dim = self.rank * n
        # column (k, k2), block j: c_k . a_j(c_k2) = sum_i dec[(j, i), k2] (c_k . e_i),
        # which is column k2 of kron(I_r, R^k) . dec, column i of R^k being
        # column k of the i-th right action, column (k, i) of the action map
        eye = DenseMatrix.identity(f, self.rank)
        act = coring.right_module.action_map()
        blocks = [kron_mul(eye, act.take_columns(range(k * nA, (k + 1) * nA)), self.dec)
                  for k in range(n)]
        # the projection matrix, (square_dim) x (dim^2)
        self.projection = hstack(f, blocks, self.square_dim)

    def _decomposed_actions(self, U: DenseMatrix) -> list[list[DenseMatrix]]:
        """Per column u of U, the right multiplications by a_m(u) for
        m = 1..r, where u = sum a_m(u) v_m: rows (m, .) of dec u are the
        coordinates of a_m(u), column (m, u) of their flattened blocks."""
        k = U.cols
        acts = combinations(self.coring.right_module.action,
                            flat_blocks(self.dec.mul(U), self.coring.A.dim, 1))
        return [[acts[m * k + c] for m in range(self.rank)] for c in range(k)]

    def _blocks(self, per_column: list[list[DenseMatrix]]) -> DenseMatrix:
        """Block matrix with block (b, j) = per_column[j][b], each dim x dim."""
        f, n = self.coring.field, self.coring.dim
        return DenseMatrix.vstack(*[hstack(f, brow, n) for brow in zip(*per_column)])

    @once
    def reduced_delta(self) -> DenseMatrix:
        return self.projection.mul(self.coring.delta_lift)

    # -- actions on the square ----------------------------------------------
    def right_on_second(self, i: int) -> DenseMatrix:
        cor = self.coring
        R = cor.right_module.action[i]
        return self._blocks(self._decomposed_actions(R.mul(cor.free_left_basis)))

    # -- triple -----------------------------------------------------------
    def coassociativity_defect(self) -> DenseMatrix:
        """Both reduced coassociativity composites, subtracted.

        Zero iff the lifted comultiplication is coassociative after
        projection to the balanced triple tensor product.
        """
        cor = self.coring
        n, r = cor.dim, self.rank
        D1 = self.reduced_delta()
        lhs = kron_mul(DenseMatrix.identity(cor.field, r), D1, D1)
        # rhs block (outer j', middle m) of input block j:
        # y_j . a_m(u_(j')) where D1(v_j) has blocks u_(j'), the column
        # (j', j) of the flattened blocks of D1 applied to the free basis
        acts = self._decomposed_actions(flat_blocks(D1.mul(cor.free_left_basis), n, 1))
        per_column = [[blk for jp in range(r) for blk in acts[jp * r + j]] for j in range(r)]
        return lhs.sub(self._blocks(per_column).mul(D1))


def verify_coring(cor: CoringPresentation) -> Verdict:
    """Bimodule axioms, counit bilinearity and laws, Delta bilinearity and
    coassociativity after projection through the balanced square.

    For the coring A (x) C of a verified entwining these hold by theorem, so
    the analysis never calls this; it checks corings built by hand."""
    v = Verdict()
    A = cor.A
    f = cor.field
    n = cor.dim
    bi = verify_bimodule(BimodulePresentation(cor.left_module, cor.right_module))
    for fail in bi.failures:
        v.fail("coring-" + fail.axiom, fail.indices, fail.detail)
    eps = cor.counit_map
    for i, (L, R) in enumerate(zip(A.lmuls, A.rmuls)):
        if eps.mul(cor.left_module.action[i]) != L.mul(eps):
            v.fail("counit-left-linearity", (i,))
        if eps.mul(cor.right_module.action[i]) != R.mul(eps):
            v.fail("counit-right-linearity", (i,))
    eye = DenseMatrix.identity(f, n)
    lmat = cor.left_module.action_map()
    rmat = cor.right_module.action_map()
    if lmat.mul(kron_mul(eps, eye, cor.delta_lift)) != eye:
        v.fail("counit-law-left")
    if rmat.mul(kron_mul(eye, eps, cor.delta_lift)) != eye:
        v.fail("counit-law-right")
    if not v.valid:
        # the balanced square is not meaningful under broken module axioms
        return v
    try:
        red = SquareReducer(cor)
    except VerificationError as exc:
        v.failures.extend(exc.verdict.failures)
        return v
    D1 = red.reduced_delta()
    eye_r = DenseMatrix.identity(f, red.rank)
    for i in range(A.dim):
        # the left action on the square acts on the first factor of each block
        if D1.mul(cor.left_module.action[i]) != kron_mul(eye_r, cor.left_module.action[i], D1):
            v.fail("comultiplication-left-linearity", (i,))
        if D1.mul(cor.right_module.action[i]) != red.right_on_second(i).mul(D1):
            v.fail("comultiplication-right-linearity", (i,))
    defect = red.coassociativity_defect()
    for j in differing_columns(defect, DenseMatrix.zeros(f, defect.rows, n)):
        v.fail("coassociativity", (j,))
    return v


# ---------------------------------------------------------------------------
# comodules in entwined form
# ---------------------------------------------------------------------------


class ComoduleInstance:
    """A right A-module with a C-coaction satisfying the entwined-module law.

    The coaction is stored in entwined form as a (dim * dim C) x dim matrix;
    under the canonical identification of M (x)_A (A (x) C) with M (x) C this
    is the same thing as a comodule over the coring the context builds.
    """

    # the comodules this one is the direct sum of, set by
    # ``direct_sum_comodule``, and the earlier witness with the same action
    # and coaction matrices, set by ``default_comodule_witnesses``; both
    # read by ``additive``
    summands = ()
    same_as = None

    def __init__(self, ctx, module: ModulePresentation, coaction: DenseMatrix,
                 name: str = ""):
        nC = ctx.C.dim
        if coaction.rows != module.dim * nC or coaction.cols != module.dim:
            raise ShapeError("coaction has the wrong shape")
        if module.side != "right":
            raise ShapeError("comodules are right modules here")
        self.ctx = ctx
        self.module = module
        self.coaction = coaction
        self.name = name

    @property
    def dim(self) -> int:
        return self.module.dim

    @property
    def field(self) -> FieldSpec:
        return self.module.field

    @once
    def slices(self) -> list[DenseMatrix]:
        """The C-components of the coaction: row m of slice c is row (m, c);
        ``stack_slices`` is the inverse."""
        return unstack_slices(self.coaction, self.ctx.C.dim)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "action": [m.to_json() for m in self.module.action],
            "coaction": self.coaction.to_json(),
        }

    @staticmethod
    def from_json(ctx, obj: dict, name: str = "") -> "ComoduleInstance":
        dim = json_dim(obj, "dim", "comodule")
        action = json_get(obj, "action", "comodule")
        if not isinstance(action, list):
            raise ShapeError("comodule action must be a list")
        action = [DenseMatrix.from_json(ctx.A.field, m) for m in action]
        coaction = DenseMatrix.from_json(ctx.A.field, json_get(obj, "coaction", "comodule"))
        mod = ModulePresentation(ctx.A, dim, "right", action, name=name)
        return ComoduleInstance(ctx, mod, coaction, name=name)

    def __repr__(self):
        label = self.name or f"{self.dim}-dim comodule"
        return f"ComoduleInstance({label})"


def zero_comodule(ctx) -> ComoduleInstance:
    from .algebra import zero_module
    f = ctx.A.field
    return ComoduleInstance(ctx, zero_module(ctx.A, "right"),
                            DenseMatrix.zeros(f, 0, 0), name="0")


def direct_sum_comodule(M: ComoduleInstance, N: ComoduleInstance,
                        name: str = "") -> ComoduleInstance:
    # each C-component of the coaction is the direct sum of those of M and N
    rho = stack_slices(M.field, [block_diag(x, y) for x, y in zip(M.slices(), N.slices())])
    out = ComoduleInstance(M.ctx, M.module.direct_sum(N.module), rho,
                           name=name or f"{M.name}(+){N.name}")
    out.summands = (M, N)
    return out


def additive(record):
    """Memoize ``flags(owner, M)``, a ``record`` (a namedtuple of booleans)
    each saying that a natural map on the witness M is injective,
    surjective or bijective, and evaluate it once per distinct nonzero
    witness that is no direct sum.  Every map it is asked of is additive,
    so on a direct sum it is the direct sum of the summands' maps:

    * the flags of a witness with ``summands`` are the field-wise AND of
      theirs, and nothing is evaluated on the sum itself;
    * the zero witness is the empty direct sum, so every flag on it is
      True (the map 0 -> 0 is bijective);
    * a witness with ``same_as`` has the action and coaction matrices of
      that earlier witness, so every map built from them is the same
      matrix, and it reads that witness's flags."""
    def decorate(flags):
        @once
        @functools.wraps(flags)
        def memo(owner, M):
            if not M.dim:
                return record._make(True for _ in record._fields)
            same = getattr(M, "same_as", None)   # B-module witnesses never repeat
            if same is not None:
                return memo(owner, same)
            if not M.summands:
                return flags(owner, M)
            parts = [memo(owner, s) for s in M.summands]
            return record._make(map(all, zip(*parts)))
        return memo
    return decorate


def restrict_comodule(M: ComoduleInstance, sub: Subspace, name: str = "") -> ComoduleInstance:
    """The subcomodule on an action- and coaction-invariant subspace."""
    # per C-component c, the coordinates of rho_c on the subspace
    rho = stack_slices(M.field, [sub.coords_matrix(rho_c.mul(sub.embedding))
                                 for rho_c in M.slices()])
    return ComoduleInstance(M.ctx, M.module.restrict(sub), rho, name=name)


# ---------------------------------------------------------------------------
# the right action of the dual ring on comodules
# ---------------------------------------------------------------------------


@once
def dual_action(M: ComoduleInstance) -> ModulePresentation:
    """M over the dual ring, m . f = sum m_(0) f(m_(1)): e_a (x) c* acts as action[a] rho_c."""
    # rho_c is M.slices()[c]; verify_module of the result is a theorem for
    # valid inputs and is exercised in the test suite
    mats = [act.mul(rho_c) for act in M.module.action for rho_c in M.slices()]
    return ModulePresentation(M.ctx.sharp_ring().algebra, M.dim, "right", mats,
                              name=f"{M.name} over dual ring")


def _tensor_x(ctx, W: ModulePresentation) -> DenseMatrix:
    """T_x: w -> w (x)_A x = sum x[(i,k)] (w . e_i) (x) c_k on a right
    A-module W: its component k is the action of x_k, the k-th C-component
    of x."""
    return stack_slices(W.field, combinations(W.action, ctx.x_matrix()))


@once
def coinvariants(M: ComoduleInstance) -> Subspace:
    """{m : rho(m) = m (x)_A x} as a subspace of M."""
    return kernel(M.coaction.sub(_tensor_x(M.ctx, M.module)))


@once
def x_invariants(mod: ModulePresentation, ctx) -> Subspace:
    """{m : m . g = m . iota(g(x)) for all g in the dual ring}, iota the unit
    embedding a -> a (x) eps.  For a right module over the dual ring this is
    the nC conditions m . f^j = m . iota(x_j) on f^j = 1_A (x) c_j*, x_j the
    j-th C-component of x, which is f^j(x): they give the rest, since
    f^j iota(e_a) = e_a (x) c_j* and (e_a (x) c_j*)(x) = x_j e_a.  So M^x is
    the coinvariants of ``comodule_from_dual_module(ctx, mod)``, whose
    coaction m -> sum_j (m . f^j) (x) c_j equals m (x)_A x exactly there.
    Column j of iota X, X the ``x_matrix``, is iota(x_j)."""
    sharp = ctx.sharp_ring()
    differences = sharp.duals.sub(sharp.iota.mul(ctx.x_matrix()))
    return kernel(stack_slices(mod.field, combinations(mod.action, differences)))


def hom_comodule(M: ComoduleInstance, N: ComoduleInstance) -> Subspace:
    """Comodule morphisms M -> N: A-linear maps commuting with the coactions.

    Returned as a subspace of dim(N) x dim(M) matrices, row-major.  This is
    the general construction, a relation span with no isomorphism behind
    it: A-linearity is imposed for the generators of A only, which is enough
    when both A-actions are unital algebra anti-homomorphisms.  The two hom
    spaces an analysis needs have closed forms through the coring
    adjunctions, ``hom_from_A`` and ``hom_into_induced``, which return the
    same subspaces.
    """
    # A-linearity, then colinearity (T (x) id) rho_M = rho_N T per C-component
    A = M.module.algebra
    pairs = zip(M.module.generator_actions(A), N.module.generator_actions(A))
    return intertwiner_space(M.field, M.dim, N.dim, [*pairs, *zip(M.slices(), N.slices())])


def hom_from_A(M: ComoduleInstance) -> Subspace:
    """``hom_comodule(ctx.comodule_A(), M)`` through Hom^C(A, M) = M^{co C}:
    the coinvariant m gives the map a -> m a, whose row-major matrix has
    column j equal to m . e_j.  Column i of the stacked products
    action[j] . (coinvariant basis) is the i-th such map, flattened."""
    emb = coinvariants(M).embedding
    return image(stack_slices(M.field, [act.mul(emb) for act in M.module.action]))


def hom_into_induced(M: ComoduleInstance, W: ModulePresentation) -> Subspace:
    """``hom_comodule`` into the comodule W (x)_A (coring) induced from W
    (built by ``crosscheck.induced_comodule``), through the induction
    adjunction Hom^C(M, W (x)_A C) = Hom_A(M, W), g -> (g (x) id_C) rho_M
    (Brzezinski and Wisbauer, Corings and Comodules, 18.10).  Flattened,
    g -> (g (x) id_C) rho_M is right multiplication by kron(I_W, R), where
    R is rho_M reshaped to dim(M) x (dim(C) dim(M)): row m of R holds the
    rows (m, c) of rho_M side by side."""
    R = M.coaction.reshape(M.dim, M.ctx.C.dim * M.dim)
    homs = hom_module(M.module, W)
    return row_space(mul_kron(homs.basis, DenseMatrix.identity(M.field, W.dim), R))


def induced_action(ctx, W: ModulePresentation) -> list[DenseMatrix]:
    """The right A-action on W (x) C through psi, (w (x) c) . a = sum
    w a_psi (x) c^psi: e_i acts as the sum over t of kron(rho_W(e_t),
    Psi_it), Psi_it the row block t of ``ctx.psi_slice(i)``, over the blocks
    that are nonzero.  For W = A it is the right action of the coring."""
    f, nC = W.field, ctx.C.dim
    mats = []
    for i in range(ctx.A.dim):
        P = ctx.psi_slice(i)
        blocks = [P.take_rows(range(t * nC, (t + 1) * nC)) for t in range(ctx.A.dim)]
        terms = [kron(W.action[t], b) for t, b in enumerate(blocks) if not b.is_zero()]
        mats += combinations(terms, DenseMatrix(f, len(terms), 1, [1] * len(terms)))
    return mats


def comodule_from_dual_module(ctx, mod: ModulePresentation,
                              name: str = "") -> ComoduleInstance:
    """Turn a right dual-ring module into a comodule (finite free coring).

    rho(m) = sum_j (m . f^j) (x) c_j where f^j(c_k) = delta_jk 1_A; valid
    because the coring is finitely generated free over A.
    """
    sharp = ctx.sharp_ring()
    rho = stack_slices(mod.field, combinations(mod.action, sharp.duals))
    amod = ModulePresentation(ctx.A, mod.dim, "right", combinations(mod.action, sharp.iota),
                              name=name)
    return ComoduleInstance(ctx, amod, rho, name=name or "dual-module comodule")


def default_comodule_witnesses(ctx, seed: int = 0) -> list:
    """The documented finite witness family for the "for all comodules" clauses.

    0, A, the coring itself, their sum, the comodule induced from the free
    rank-2 module, the dual ring as a comodule, and (seeded) the kernel of a
    random comodule map from A (+) coring to the coring.  The induced
    comodule A^2 (x)_A C is built as coring (+) coring, with the same action
    and coaction matrices, since kron(block_diag(X, X), b) =
    block_diag(kron(X, b), kron(X, b)); so two witnesses are direct sums,
    and ``additive`` decides them from their summands.  The coring is
    A (x)_A C, induced from A: its module is the coring's own right
    A-module, ``induced_action`` of A, and the seeded maps are
    ``hom_into_induced``:
    the A-linear maps g: A (+) coring -> A through Hom^C(M, A (x)_A C) =
    Hom_A(M, A), g -> (g (x) id_C) rho_M.

    When the echelon basis of the kernel of t = (t_1, t_2): A (+) coring ->
    coring has its pivots exactly on A's coordinates, t_2 is invertible and
    the kernel is the graph of -t_2^-1 t_1: A -> coring.  The projection
    onto A is then a comodule isomorphism taking the echelon basis to A's
    basis (coordinates in that basis are the entries at the pivots), and
    the big comodule's action and coaction are block diagonal, so the
    restricted matrices are A's own; the kernel is built from them without
    ``restrict_comodule``.

    Each nonzero witness that is no direct sum and has the action and
    coaction matrices of an earlier one gets that witness as ``same_as``,
    one equality test per pair, so ``additive`` evaluates it once: the
    graph-built kernel repeats A, and the dual ring as a comodule repeats
    the coring on some inputs (``fix-t``, ``fix-n``, scalar group-likes).
    """
    com_A = ctx.comodule_A()
    coring_com = ComoduleInstance(ctx, ctx.coring().right_module, kron(
        DenseMatrix.identity(ctx.field, ctx.A.dim), ctx.C.comult_matrix()), name="coring")
    big = direct_sum_comodule(com_A, coring_com, name="A(+)coring")
    witnesses = [zero_comodule(ctx), com_A, coring_com, big,
                 direct_sum_comodule(coring_com, coring_com, name="A^2(x)coring"),
                 comodule_from_dual_module(
                     ctx, ctx.sharp_ring().algebra.regular_module("right"), name="dual-ring")]
    rng = SeededStream(seed)
    homs = hom_into_induced(big, ctx.A.regular_module("right"))
    if homs.dim:
        coeffs = [rng.randint(-2, 2) for _ in range(homs.dim)]
        tmat = DenseMatrix(ctx.field, 1, homs.dim, coeffs).mul(homs.basis).reshape(
            coring_com.dim, big.dim)
        ker = kernel(tmat)
        if ker.pivots == list(range(ctx.A.dim)):
            mod = ModulePresentation(ctx.A, ker.dim, "right", com_A.module.action)
            witnesses.append(ComoduleInstance(ctx, mod, com_A.coaction, name="random-kernel"))
        elif 0 < ker.dim < big.dim:
            witnesses.append(restrict_comodule(big, ker, name="random-kernel"))
    distinct = []
    for w in witnesses:
        if w.dim and not w.summands:
            same = next((e for e in distinct if e.dim == w.dim and e.coaction == w.coaction
                         and e.module.action == w.module.action), None)
            if same is None:
                distinct.append(w)
            else:
                w.same_as = same
    return witnesses
