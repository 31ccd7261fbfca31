"""Entwining structures (A, C, psi) and everything derived from one.

The entwining map is stored as a matrix from C (x) A (index i_C * dimA + j_A)
to A (x) C (index j_A * dimC + i_C); every piece of Kronecker bookkeeping in
the package flows from this single convention.

An ``EntwinedContext`` bundles the algebra, the coalgebra, psi and the chosen
coaction of the unit.  Its derived objects (the coring on A (x) C, the ring
structure on Hom(C, A), the comodule structure on A and the group-like element
it determines) are methods memoized with ``exactla.once``, which stores each
result in the context itself.  Contexts are frozen after construction, so a
derived object is computed once and then shared freely; it is never mutated.
"""

from __future__ import annotations

from collections.abc import Sequence

# sha256 from the interpreter's builtin hash module, as ``random`` takes its
# sha512; ``hashlib`` would load OpenSSL into every process for one digest
try:
    from _sha256 import sha256  # Python <= 3.11
except ImportError:
    try:
        from _sha2 import sha256  # Python >= 3.12
    except ImportError:
        from hashlib import sha256

from .algebra import AlgebraPresentation, verify_algebra
from .coalgebra import CoalgebraPresentation, verify_coalgebra
from .coring import ComoduleInstance, CoringPresentation, induced_action
from .exactla import (
    DenseMatrix,
    FieldSpec,
    ShapeError,
    combinations,
    differing_columns,
    dumps_canonical,
    flat_blocks,
    hstack,
    json_get,
    kron,
    kron_mul,
    mul_kron,
    once,
    parse_array,
)
from .verdict import Verdict, VerificationError


def swap_matrix(field: FieldSpec, m: int, n: int) -> DenseMatrix:
    """V_m (x) V_n -> V_n (x) V_m on coordinates."""
    ent = [0] * (m * n * m * n)
    for i in range(m):
        for j in range(n):
            ent[(j * m + i) * (m * n) + (i * n + j)] = 1
    return DenseMatrix(field, m * n, m * n, ent)


def flip_entwining(A: AlgebraPresentation, C: CoalgebraPresentation) -> DenseMatrix:
    """The twist map c (x) a -> a (x) c, an entwining iff it satisfies the axioms
    (always, when either factor is trivial or both are suitably commutative)."""
    return swap_matrix(A.field, C.dim, A.dim)


def verify_entwining(A: AlgebraPresentation, C: CoalgebraPresentation,
                     psi: DenseMatrix) -> Verdict:
    """The four compatibility axioms, as exact identities on basis tensors."""
    v = Verdict()
    f = A.field
    nA, nC = A.dim, C.dim
    if psi.rows != nA * nC or psi.cols != nC * nA:
        raise ShapeError("psi has the wrong shape")
    eyeA = DenseMatrix.identity(f, nA)
    eyeC = DenseMatrix.identity(f, nC)
    one = A.unit_matrix()
    mult = A.mult_matrix()
    delta = C.comult_matrix()
    eps = C.counit_matrix()
    # multiplicativity on C (x) A (x) A
    lhs = mul_kron(psi, eyeC, mult)
    rhs = kron_mul(mult, eyeC, kron_mul(eyeA, psi, kron(psi, eyeA)))
    for j in differing_columns(lhs, rhs):
        v.fail("entwining-multiplicativity", (j // (nA * nA), (j // nA) % nA, j % nA))
    # unit: psi(c (x) 1) = 1 (x) c
    lhs = mul_kron(psi, eyeC, one)
    rhs = kron(one, eyeC)
    for k in differing_columns(lhs, rhs):
        v.fail("entwining-unit", (k,))
    # comultiplicativity on C (x) A
    lhs = kron_mul(eyeA, delta, psi)
    rhs = kron_mul(psi, eyeC, kron_mul(eyeC, psi, kron(delta, eyeA)))
    for j in differing_columns(lhs, rhs):
        v.fail("entwining-comultiplicativity", (j // nA, j % nA))
    # counit on C (x) A
    lhs = kron_mul(eyeA, eps, psi)
    rhs = kron(eps, eyeA)
    for j in differing_columns(lhs, rhs):
        v.fail("entwining-counit", (j // nA, j % nA))
    return v


# ---------------------------------------------------------------------------
# the ring structure on Hom(C, A)
# ---------------------------------------------------------------------------


class SharpRing:
    """Hom(C, A) with the entwined multiplication, as a concrete algebra.

    Basis index (i_A, j_C) -> i_A * dimC + j_C; coordinates of an element are
    simply the flattened entries of its dimA x dimC matrix, so reshaping is
    the identity on data.

    Two coefficient matrices name elements of the ring by their columns:
    ``iota`` = kron(I_A, eps^T), whose column a is the unit embedding
    c -> eps(c) e_a of e_a, and ``duals`` = kron(1_A, I_C), whose column j
    is f^j = 1_A (x) c_j*.  A acts on a right module over the ring through
    ``combinations(action, iota)``.  The algebra's generators are picked
    from the iota(e_a) and then the f^j: these generate, since
    f^j iota(e_a) = e_a (x) c_j*.
    """

    def __init__(self, ctx: "EntwinedContext"):
        """(e_a (x) c*)(e_b (x) d*) is rmul(e_b) applied to the rows (., d) of
        Psi_a D_c, a dim A x dim C matrix whose entries are its coordinates;
        lmul(e_a (x) c*) has these products, flattened, as its columns.  All
        of them come from one product per (a, c): the rmuls stacked, times
        Psi_a D_c reshaped so that its row m holds the rows (m, d) side by
        side, has block (b, d) equal to rmul(e_b) times rows (., d), which
        ``flat_blocks`` makes column (b, d)."""
        # Psi_a = ctx.psi_slice(a), the psi columns (k, a); D_c = comult_slices("second")[c]
        A, C = ctx.A, ctx.C
        f = A.field
        nA, nC = A.dim, C.dim
        self.ctx = ctx
        lmuls = []
        slices = C.comult_slices("second")
        stacked = DenseMatrix.vstack(*A.rmuls)  # row (b, i) is row i of rmul(e_b)
        for a in range(nA):
            P = ctx.psi_slice(a)
            for D in slices:
                lmuls.append(flat_blocks(stacked.mul(P.mul(D).reshape(nA, nC * nC)), nA, nC))
        self.duals = kron(A.unit_matrix(), DenseMatrix.identity(f, nC))
        self.iota = kron(DenseMatrix.identity(f, nA), C.counit_matrix().transpose())
        self.algebra = AlgebraPresentation.from_operators(
            f, lmuls, self.iota.mul(A.unit_matrix()), name="Hom(C,A) ring",
            candidates=hstack(f, [self.iota, self.duals], nA * nC))

    @once
    def at_x(self) -> DenseMatrix:
        """Evaluation at x, g -> g~(x), as a dim A x dim(ring) matrix: column
        (a, c) is rmul(e_a) applied to x_c, the c-th C-component of x, which
        is column c of ``x_matrix``."""
        ctx = self.ctx
        X = ctx.x_matrix()
        return hstack(ctx.field, [R.mul(X) for R in ctx.A.rmuls], ctx.A.dim)


# ---------------------------------------------------------------------------
# the coring on A (x) C
# ---------------------------------------------------------------------------


def build_coring(ctx: "EntwinedContext") -> CoringPresentation:
    """The coring with underlying space A (x) C, actions through psi."""
    verdict = ctx.entwining_verdict()
    if not verdict.valid:
        raise VerificationError("build_coring", verdict)
    A, C = ctx.A, ctx.C
    f = A.field
    eyeC = DenseMatrix.identity(f, C.dim)
    eyeA = DenseMatrix.identity(f, A.dim)
    left = [kron(L, eyeC) for L in A.lmuls]
    right = induced_action(ctx, A.regular_module("right"))
    # the free basis 1 (x) c_j, and Delta(a (x) c) = sum (a (x) c_1) (x) (1 (x) c_2)
    free_basis = kron(A.unit_matrix(), eyeC)
    delta_lift = kron(eyeA, kron_mul(eyeC, free_basis, C.comult_matrix()))
    counit = kron(eyeA, C.counit_matrix())
    return CoringPresentation(A, A.dim * C.dim, left, right, delta_lift, counit,
                              free_left_basis=free_basis,
                              name=f"A(x)C[{ctx.name}]" if ctx.name else "A(x)C")


def comodule_algebra_from_unit(ctx: "EntwinedContext") -> tuple[ComoduleInstance, list]:
    """The comodule structure a -> 1_(0) a_psi (x) 1_(1)^psi on A, plus the
    group-like element it determines.

    This is the input check on the declared unit coaction u, and it checks
    u alone.  Its precondition is that A, C and psi satisfy their axioms
    (``verify_axioms``, memoized, so the guard costs nothing after
    ``full_verify``); a context that fails them raises VerificationError.
    Under that precondition rho(a) = u a is right A-linear for the action
    through psi, so the entwined-module law holds and is not checked here
    (``crosscheck.verify_comodule`` still checks it in the test suite).  Both
    sides of coassociativity and of the counit law are right A-linear maps
    out of A = 1 A, so they hold on A iff they hold at 1, where rho(1) = u
    by the entwining-unit axiom: Delta(u) = u (x)_A u and eps(u) = 1
    (Brzezinski and Wisbauer, Corings and Comodules).  The comodule laws of
    A are then a theorem, and u is group-like."""
    verdict = ctx.verify_axioms()
    if not verdict.valid:
        raise VerificationError("comodule_algebra_from_unit", verdict)
    A, C = ctx.A, ctx.C
    f = A.field
    u = ctx.unit_coaction
    eyeA, eyeC = DenseMatrix.identity(f, A.dim), DenseMatrix.identity(f, C.dim)
    u_col = DenseMatrix.from_columns(f, [u], A.dim * C.dim)
    # ins_u: A -> A (x) C (x) A, a -> u (x) a
    rho = kron_mul(A.mult_matrix(), eyeC, kron_mul(eyeA, ctx.psi, kron(u_col, eyeA)))
    verdict = Verdict()
    if kron_mul(rho, eyeC, u_col) != kron_mul(eyeA, C.comult_matrix(), u_col):
        verdict.fail("coaction-coassociativity", detail="at 1")
    if kron_mul(eyeA, C.counit_matrix(), u_col) != A.unit_matrix():
        verdict.fail("coaction-counit", detail="at 1")
    if not verdict.valid:
        raise VerificationError("comodule_algebra_from_unit", verdict)
    return ComoduleInstance(ctx, A.regular_module("right"), rho, name="A"), list(u)


# ---------------------------------------------------------------------------
# Doi-Koppinen input data
# ---------------------------------------------------------------------------


def _multiplicative(rho: DenseMatrix, X: AlgebraPresentation, Y: AlgebraPresentation) -> bool:
    """Whether rho: X -> X (x) Y is multiplicative, with (x (x) y)(x' (x) y')
    = x x' (x) y y': column j of rho lmul(e_i) is rho(e_i e_j), and left
    multiplication by rho(e_i) is the sum of its coefficients times
    kron(lmul(x), lmul(y)), each applied to rho without building it."""
    nY = Y.dim
    # the terms of the nonzero rows of rho, the only ones a coefficient uses
    used = [k for k, pairs in enumerate(rho.numerator_rows()) if pairs]
    if not used:
        return True
    terms = [kron_mul(X.lmuls[k // nY], Y.lmuls[k % nY], rho) for k in used]
    return all(rho.mul(L) == T
               for L, T in zip(X.lmuls, combinations(terms, rho.take_rows(used))))


def verify_bialgebra(H_alg: AlgebraPresentation, H_coalg: CoalgebraPresentation) -> Verdict:
    v = Verdict()
    if H_alg.dim != H_coalg.dim or H_alg.field != H_coalg.field:
        raise ShapeError("bialgebra data on mismatched spaces")
    for fail in verify_algebra(H_alg).failures:
        v.fail("bialgebra-" + fail.axiom, fail.indices, fail.detail)
    for fail in verify_coalgebra(H_coalg).failures:
        v.fail("bialgebra-" + fail.axiom, fail.indices, fail.detail)
    mult = H_alg.mult_matrix()
    delta = H_coalg.comult_matrix()
    if not _multiplicative(delta, H_alg, H_alg):
        v.fail("comultiplication-not-algebra-map")
    eps = H_coalg.counit_matrix()
    if eps.mul(mult) != kron(eps, eps):
        v.fail("counit-not-algebra-map")
    one = H_alg.unit_matrix()
    if delta.mul(one) != kron(one, one):
        v.fail("comultiplication-of-unit")
    if eps.mul(one) != DenseMatrix.identity(H_alg.field, 1):
        v.fail("counit-of-unit")
    return v


def verify_comodule_algebra(H_alg: AlgebraPresentation,
                            H_coalg: CoalgebraPresentation,
                            A: AlgebraPresentation,
                            coaction: DenseMatrix) -> Verdict:
    """coaction: A -> A (x) H must be a counital coassociative algebra map."""
    v = Verdict()
    f = A.field
    nA, nH = A.dim, H_alg.dim
    if coaction.rows != nA * nH or coaction.cols != nA:
        raise ShapeError("coaction has the wrong shape")
    eyeA = DenseMatrix.identity(f, nA)
    eyeH = DenseMatrix.identity(f, nH)
    if kron_mul(coaction, eyeH, coaction) != \
            kron_mul(eyeA, H_coalg.comult_matrix(), coaction):
        v.fail("coaction-coassociativity")
    if kron_mul(eyeA, H_coalg.counit_matrix(), coaction) != eyeA:
        v.fail("coaction-counit")
    if not _multiplicative(coaction, A, H_alg):
        v.fail("coaction-not-algebra-map")
    if coaction.mul(A.unit_matrix()) != kron(A.unit_matrix(), H_alg.unit_matrix()):
        v.fail("coaction-of-unit")
    return v


def doi_koppinen(H_alg: AlgebraPresentation, H_coalg: CoalgebraPresentation,
                 A: AlgebraPresentation, coaction: DenseMatrix) -> DenseMatrix:
    """psi(c (x) a) = sum a_(0) (x) c a_(1) for a comodule algebra over a
    bialgebra H, with C = H acting on itself by multiplication."""
    verdict = verify_bialgebra(H_alg, H_coalg)
    if not verdict.valid:
        raise VerificationError("doi_koppinen bialgebra", verdict)
    # H coacting on itself by Delta: the four comodule-algebra laws are then
    # coassociativity, the right counit law, Delta multiplicative and
    # Delta(1) = 1 (x) 1, all just checked by verify_bialgebra
    if not (A is H_alg and coaction == H_coalg.comult_matrix()):
        verdict = verify_comodule_algebra(H_alg, H_coalg, A, coaction)
        if not verdict.valid:
            raise VerificationError("doi_koppinen comodule algebra", verdict)
    # column (k, j) is column j of (id (x) lmul(h_k)) rho
    eyeA = DenseMatrix.identity(A.field, A.dim)
    return hstack(A.field, [kron_mul(eyeA, L, coaction) for L in H_alg.lmuls], A.dim * H_alg.dim)


# ---------------------------------------------------------------------------
# the bundled context
# ---------------------------------------------------------------------------


class EntwinedContext:
    """(A, C, psi, rho_A(1)); each derived object is a method memoized with
    ``exactla.once`` in the context itself, sound because contexts are frozen."""

    def __init__(self, A: AlgebraPresentation, C: CoalgebraPresentation,
                 psi: DenseMatrix, unit_coaction: Sequence, name: str = "",
                 entwining_kind: str = "matrix"):
        if A.field != C.field:
            raise ShapeError("algebra and coalgebra over different fields")
        if psi.rows != A.dim * C.dim or psi.cols != C.dim * A.dim:
            raise ShapeError("psi has the wrong shape")
        if len(unit_coaction) != A.dim * C.dim:
            raise ShapeError("unit coaction has the wrong length")
        self.A = A
        self.C = C
        self.psi = psi
        self.unit_coaction = [A.field.normalize(x) for x in unit_coaction]
        self.name = name
        self.entwining_kind = entwining_kind

    @property
    def field(self) -> FieldSpec:
        return self.A.field

    @property
    def x(self) -> list:
        """The group-like element of the coring, as a vector of A (x) C."""
        return self.unit_coaction

    @once
    def x_matrix(self) -> DenseMatrix:
        """x reshaped to dim A x dim C: column c is x_c, the c-th
        C-component of x, as coefficients for ``combinations``."""
        return DenseMatrix(self.field, self.A.dim, self.C.dim, self.x)

    @once
    def psi_slice(self, i: int) -> DenseMatrix:
        """The columns (k, i) of psi, k = 1..dim C: psi on C (x) e_i."""
        nA = self.A.dim
        return self.psi.take_columns(range(i, self.psi.cols, nA))

    @once
    def entwining_verdict(self) -> Verdict:
        """The entwining axioms of psi; read by ``verify_axioms`` and
        ``build_coring``."""
        return verify_entwining(self.A, self.C, self.psi)

    @once
    def verify_axioms(self) -> Verdict:
        """Algebra, coalgebra and entwining axioms, with tagged failure names;
        memoized, and read by ``full_verify`` and by the guard of
        ``comodule_algebra_from_unit``.  The verdict is never mutated."""
        v = Verdict()
        for fail in verify_algebra(self.A).failures:
            v.fail("algebra-" + fail.axiom, fail.indices, fail.detail)
        for fail in verify_coalgebra(self.C).failures:
            v.fail("coalgebra-" + fail.axiom, fail.indices, fail.detail)
        if v.valid:
            for fail in self.entwining_verdict().failures:
                v.fail(fail.axiom, fail.indices, fail.detail)
        return v

    @once
    def coring(self) -> CoringPresentation:
        return build_coring(self)

    @once
    def sharp_ring(self) -> SharpRing:
        return SharpRing(self)

    @once
    def comodule_A(self) -> ComoduleInstance:
        return comodule_algebra_from_unit(self)[0]

    @once
    def morita(self):
        from .morita import build_context
        return build_context(self)

    @once
    def default_witnesses(self, seed: int = 0) -> list:
        from .coring import default_comodule_witnesses
        return default_comodule_witnesses(self, seed=seed)

    # -- serialization -------------------------------------------------------
    def to_json(self) -> dict:
        f = self.field
        ent: dict
        if self.entwining_kind == "doi_koppinen":
            ent = {"kind": "doi_koppinen"}
        else:
            ent = {"kind": "matrix", "psi": self.psi.json_rows()}
        out = {
            "field": f.to_json(),
            "algebra": self.A.to_json(),
            "coalgebra": self.C.to_json(),
            "entwining": ent,
            "unit_coaction": [f.scalar_to_json(x) for x in self.unit_coaction],
        }
        if self.name:
            out["name"] = self.name
        return out

    def digest(self) -> str:
        return sha256(dumps_canonical(self.to_json()).encode()).hexdigest()

    def __repr__(self):
        return f"EntwinedContext({self.name or 'anonymous'}: dimA={self.A.dim}, dimC={self.C.dim})"


def instance_from_json(obj: dict) -> EntwinedContext:
    """Parse the instance wire format into a context (axioms not yet checked).

    This is the package's parsing boundary: any malformed input, down to a
    single scalar, raises ShapeError.
    """
    if not isinstance(obj, dict):
        raise ShapeError("instance JSON must be an object")
    field = FieldSpec.from_json(obj.get("field", {"kind": "Q"}))
    A = AlgebraPresentation.from_json(field, json_get(obj, "algebra", "instance"))
    C = CoalgebraPresentation.from_json(field, json_get(obj, "coalgebra", "instance"))
    ent = json_get(obj, "entwining", "instance")
    n = A.dim * C.dim
    unit_coaction = parse_array(field, json_get(obj, "unit_coaction", "instance"), (n,),
                                "unit coaction")
    name = obj.get("name", "")
    if not isinstance(name, str):
        raise ShapeError(f"instance name must be a string, got {name!r}")
    kind = json_get(ent, "kind", "entwining")
    if kind == "matrix":
        psi = parse_array(field, json_get(ent, "psi", "matrix entwining"), (n, n), "psi")
        return EntwinedContext(A, C, DenseMatrix.from_rows(field, psi, cols=n),
                               unit_coaction, name=name)
    if kind == "doi_koppinen":
        if A.dim != C.dim:
            raise ShapeError("self-paired Doi-Koppinen input needs dim A = dim C")
        psi = doi_koppinen(A, C, A, C.comult_matrix())
        return EntwinedContext(A, C, psi, unit_coaction, name=name,
                               entwining_kind="doi_koppinen")
    raise ShapeError(f"unknown entwining kind {kind!r}")
