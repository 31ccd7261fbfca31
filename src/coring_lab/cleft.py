"""Integrals, cleftness, the normal basis property, and their equivalences.

A cleft extension is witnessed by a convolution-invertible colinear map
C -> A.  Because the convolution algebra here is a finite-dimensional unital
algebra, invertibility of a candidate is one exact rank computation, and
invertibility over the whole integral space is a Zariski-open condition.
Every operator on Hom(C, A) is built in closed form from the structure data,
so a search runs over an explicit span of matrices M_1..M_r: the candidate
for t is M(t) = sum t_i M_i, whose determinant is a polynomial in t of degree
at most n, the matrix size.  The search evaluates it at deterministic 0/1
patterns, then at seeded random rationals, and certifies a negative answer
by grid evaluation (over Q, degree-counting makes a full grid of zeros a
proof of identical vanishing; over a prime field small parameter spaces are
simply exhausted).  "Inconclusive" survives only for large parameter counts
over small prime fields.
"""

from __future__ import annotations

from itertools import product
from math import lcm

from .coalgebra import (
    _conv_operator,
    convolution,
    convolution_inverse,
    convolution_unit,
    is_grouplike_C,
)
from .coring import ComoduleInstance, coinvariants, dual_action
from .exactla import (
    DenseMatrix,
    FieldSpec,
    SeededStream,
    Subspace,
    combination_is_invertible,
    combinations,
    flat_columns,
    interleave_columns,
    kernel,
    kron,
    kron_mul,
    once,
    solve_matrix,
    stack_slices,
    unflatten_rows,
)
from .morita import find_qhat
from .verdict import ClauseDisagreement, Verdict, VerificationError, clause_table, one_failure


class InconclusiveSearch(Exception):
    """The randomized budget ran out without a symbolic determination."""


# ---------------------------------------------------------------------------
# integrals
# ---------------------------------------------------------------------------


class IntegralSpace:
    """All colinear maps C -> A, with the affine totality condition."""

    def __init__(self, space: Subspace, total_example: DenseMatrix | None):
        self.space = space                  # inside Hom(C, A) flat coordinates
        self.total_example = total_example  # one total integral as a column, when any exists

    @property
    def dim(self) -> int:
        return self.space.dim


def _integral_condition(ctx) -> DenseMatrix:
    """Colinearity rho_A lam = (lam (x) id) Delta on lam in Hom(C, A), one
    column per e_a (x) c*: kron(rho_A, I) - kron(I, T), where column c of T
    is ``C.comult_slices("first")[c]`` read row-major."""
    f = ctx.field
    nA, nC = ctx.A.dim, ctx.C.dim
    T = flat_columns(f, ctx.C.comult_slices("first"), nC, nC)
    return kron(ctx.comodule_A().coaction, DenseMatrix.identity(f, nC)).sub(
        kron(DenseMatrix.identity(f, nA), T))


@once
def integral_space(ctx) -> IntegralSpace:
    space = kernel(_integral_condition(ctx))
    sol = solve_matrix(ctx.sharp_ring().at_x().mul(space.embedding), ctx.A.unit_matrix())
    return IntegralSpace(space, None if sol is None else space.embedding.mul(sol))


# ---------------------------------------------------------------------------
# generic invertibility over a linear space of candidates
# ---------------------------------------------------------------------------


class SearchResult:
    """The answer of a search: its status, the witness when one was found
    (the parameter vector of ``search_invertible``, the ``CleftWitness`` of
    ``find_cleft``, the isomorphism theta of ``normal_basis_check``) and
    the certificate of how it was decided."""

    def __init__(self, status: str, witness: object = None, certificate: str = ""):
        self.status = status            # "found" | "absent" | "inconclusive"
        self.witness = witness
        self.certificate = certificate

    @property
    def answer(self) -> bool | str:
        """True when found, False when absent, else "inconclusive"."""
        return {"found": True, "absent": False}.get(self.status, self.status)


# the search budgets: 0/1 patterns tried, seeded random candidates, the
# largest prime-field space scanned exhaustively, and the most parameters a
# certification grid covers
PATTERN_BUDGET = 256
RANDOM_BUDGET = 64
EXHAUSTIVE_BUDGET = 4096
GRID_VARS = 3


def search_invertible(field: FieldSpec, mats: list[DenseMatrix],
                      seed: int = 0) -> SearchResult:
    """Find parameters t for which M(t) = sum t_i mats[i] is invertible.

    The span is taken once; each trial is one
    ``combination_is_invertible``, which forms the rows of M(t) only as far
    as the elimination reads them and stops at the first dependent one.  The
    determinant of M(t) is a polynomial in t of total degree at most the
    matrix size n, because M(t) is linear in t; that bound drives the
    certification grid.
    """
    r = len(mats)
    if r == 0:
        return SearchResult("absent", certificate="empty candidate space")
    n = mats[0].rows

    def invertible(params):
        return combination_is_invertible(field, params, mats)

    tried = 0
    if 2 ** r <= PATTERN_BUDGET:
        patterns = range(1, 2 ** r)
    else:
        patterns = range(1, PATTERN_BUDGET + 1)
    for mask in patterns:
        params = [(mask >> i) & 1 for i in range(r)]
        tried += 1
        if invertible(params):
            return SearchResult("found", params,
                                certificate=f"0/1 pattern after {tried} trials")
    rng = SeededStream(seed)
    for k in range(RANDOM_BUDGET):
        if field.kind == "Fp":
            params = trial = [rng.randbelow(field.p) for _ in range(r)]
        else:
            # the candidate t_i = a_i / b_i is tried as the integer vector
            # L t, L the lcm of the b_i, which is invertible iff t is
            params = [(rng.randint(-2 ** 16, 2 ** 16), rng.randint(1, 2 ** 16))
                      for _ in range(r)]
            den = lcm(*(b for _, b in params))
            trial = [a * (den // b) for a, b in params]
        if invertible(trial):
            if field.kind == "Q":
                from fractions import Fraction
                params = [Fraction(a, b) for a, b in params]
            return SearchResult("found", params,
                                certificate=f"random candidate {k} (seed {seed})")
    # certification phase
    degree = n  # det is a polynomial of total degree <= n in the parameters
    if field.kind == "Fp" and field.p ** r <= EXHAUSTIVE_BUDGET:
        for params in product(range(field.p), repeat=r):
            if invertible(list(params)):
                return SearchResult("found", list(params), certificate="exhaustive scan")
        return SearchResult("absent", certificate=f"exhausted all {field.p ** r} candidates")
    if r <= GRID_VARS and (field.kind == "Q" or field.p > degree):
        for params in product(range(degree + 1), repeat=r):
            if invertible(list(params)):
                return SearchResult("found", list(params), certificate="grid")
        # a polynomial of degree <= n in each variable vanishing on an
        # (n+1)^r grid is identically zero
        return SearchResult(
            "absent", certificate=f"determinant vanishes on a degree-{degree} grid")
    return SearchResult("inconclusive", certificate=(
        "budget exhausted over a small prime field" if field.kind == "Fp"
        else "too many parameters for grid certification"))


# ---------------------------------------------------------------------------
# cleftness
# ---------------------------------------------------------------------------


class CleftWitness:
    def __init__(self, lam: DenseMatrix, lam_bar: DenseMatrix):
        self.lam = lam            # the *-invertible integral
        self.lam_bar = lam_bar    # its two-sided convolution inverse

    def to_json(self) -> dict:
        return {"lambda": self.lam.to_json(), "lambda_bar": self.lam_bar.to_json()}


@once
def find_cleft(ctx, seed: int = 0) -> SearchResult:
    """Search the integral space for a convolution-invertible element."""
    integrals = integral_space(ctx)
    f = ctx.field
    if integrals.dim == 0:
        return SearchResult("absent", certificate="no nonzero integrals")
    # h -> lam * h is invertible iff lam is *-invertible (one-sided inverses
    # are two-sided in the finite-dimensional convolution algebra)
    lams = unflatten_rows(integrals.space.basis, ctx.A.dim, ctx.C.dim)
    res = search_invertible(f, [_conv_operator(g, ctx.C, ctx.A, "left") for g in lams],
                            seed=seed)
    if res.status != "found":
        return res
    lam = combinations(lams, DenseMatrix.from_columns(f, [res.witness], len(lams)))[0]
    lam_bar = convolution_inverse(lam, ctx.C, ctx.A)
    if lam_bar is None:
        raise VerificationError("find_cleft", one_failure(
            "inverse-missing", detail="operator invertible but no two-sided inverse"))
    unit = convolution_unit(ctx.C, ctx.A)
    v = Verdict()
    if convolution(lam, lam_bar, ctx.C, ctx.A) != unit:
        v.fail("cleft-witness-right-inverse")
    if convolution(lam_bar, lam, ctx.C, ctx.A) != unit:
        v.fail("cleft-witness-left-inverse")
    if not v.valid:
        raise VerificationError("find_cleft", v)
    return SearchResult("found", CleftWitness(lam, lam_bar), res.certificate)


def is_colinear(ctx, lam: DenseMatrix) -> bool:
    f = ctx.field
    rho_A = ctx.comodule_A().coaction
    eyeC = DenseMatrix.identity(f, ctx.C.dim)
    return rho_A.mul(lam) == kron_mul(lam, eyeC, ctx.C.comult_matrix())


@once
def x_case_grouplike(ctx) -> DenseMatrix | None:
    """When the unit coaction is 1_A (x) x for a group-like x of C, return x
    as a column: the solution of kron(1_A, I_C) x = u, unique because 1_A is
    nonzero."""
    u = DenseMatrix.from_columns(ctx.field, [ctx.unit_coaction], ctx.A.dim * ctx.C.dim)
    x = solve_matrix(kron(ctx.A.unit_matrix(), DenseMatrix.identity(ctx.field, ctx.C.dim)), u)
    return x if x is not None and is_grouplike_C(ctx.C, x) else None


def lemma_coQ_check(ctx, lam: DenseMatrix, lam_bar: DenseMatrix) -> dict[str, object]:
    """The colinearity/Q-membership biconditional for a *-invertible pair.

    Verifies lam * lam_bar = lam_bar * lam = unit first, then asserts
    (lam colinear) == (lam_bar in Q); in the special case where the unit
    coaction is 1 (x) x for x group-like in C, also builds
    lam_hat = lam_bar . lam(x) and checks lam_hat in Q with lam_hat(x) = 1.
    """
    data = ctx.morita()
    unit = convolution_unit(ctx.C, ctx.A)
    v = Verdict()
    if convolution(lam, lam_bar, ctx.C, ctx.A) != unit or \
            convolution(lam_bar, lam, ctx.C, ctx.A) != unit:
        v.fail("not-a-convolution-inverse-pair")
        raise VerificationError("lemma_coQ_check", v)
    colinear = is_colinear(ctx, lam)
    flat = ctx.A.dim * ctx.C.dim
    in_q = data.Q.space.contains_columns(lam_bar.reshape(flat, 1))
    out: dict[str, object] = {"colinear": colinear, "inverse_in_Q": in_q}
    clause_table("colinear-vs-Q", out)
    x = x_case_grouplike(ctx)
    if x is not None and colinear:
        lam_hat = combinations(ctx.A.rmuls, lam.mul(x))[0].mul(lam_bar).reshape(flat, 1)
        hat_in_q = data.Q.space.contains_columns(lam_hat)
        hat_ok = ctx.sharp_ring().at_x().mul(lam_hat) == ctx.A.unit_matrix()
        if not (hat_in_q and hat_ok):
            raise ClauseDisagreement("normalized-inverse",
                                     {"in_Q": hat_in_q, "evaluates_to_1": hat_ok})
        out["lam_hat_in_Q"] = True
        out["lam_hat_at_x_is_1"] = True
    return out


# ---------------------------------------------------------------------------
# the trivialization isomorphisms
# ---------------------------------------------------------------------------


def _trivialized(ctx, witness: CleftWitness, M: ComoduleInstance) -> DenseMatrix:
    """m -> sum (m_(0) . lam_bar) (x) m_(1) into (coinvariants of M) (x) C:
    its c_k-component is D rho_k, D the action of lam_bar, read in the
    coinvariants' coordinates."""
    lam_bar = witness.lam_bar
    D = combinations(dual_action(M).action, lam_bar.reshape(lam_bar.rows * lam_bar.cols, 1))[0]
    coinv = coinvariants(M)  # theorem: every component lands in the coinvariants
    return stack_slices(ctx.field, [coinv.coords_matrix(D.mul(rho_k)) for rho_k in M.slices()])


def gamma_M(ctx, witness: CleftWitness, M: ComoduleInstance
            ) -> tuple[DenseMatrix, DenseMatrix]:
    """M -> (coinvariants of M) (x) C, m -> sum (m_(0) . lam_bar) (x) m_(1),
    with the verified inverse n (x) c -> n lam(c)."""
    f = ctx.field
    nC = ctx.C.dim
    coinv = coinvariants(M)
    gamma = _trivialized(ctx, witness, M)
    # column (r, k) is n_r lam(c_k), n_r the r-th coinvariant basis vector
    gamma_inv = interleave_columns(f, [L.mul(coinv.embedding)
                                       for L in combinations(M.module.action, witness.lam)],
                                   M.dim)
    v = Verdict()
    if gamma.mul(gamma_inv) != DenseMatrix.identity(f, coinv.dim * nC):
        v.fail("gamma-right-inverse")
    if gamma_inv.mul(gamma) != DenseMatrix.identity(f, M.dim):
        v.fail("gamma-left-inverse")
    if not v.valid:
        raise VerificationError("gamma_M", v)
    return gamma, gamma_inv


def cleft_psi_inverse(ctx, witness: CleftWitness, M: ComoduleInstance) -> DenseMatrix:
    """The explicit weak-structure inverse attached to a cleft witness,
    m -> sum (m_(0) lam_bar) (x)_B lam(m_(1)): the trivialization, then
    n (x) c_k -> n (x)_B lam(c_k)."""
    from .galois import _coinv_tensor_A
    eye = DenseMatrix.identity(ctx.field, coinvariants(M).dim)
    return _coinv_tensor_A(ctx, M).projection.mul(
        kron_mul(eye, witness.lam, _trivialized(ctx, witness, M)))


def cleft_psi_inverse_check(ctx, witness: CleftWitness, M: ComoduleInstance) -> bool:
    """``cleft_psi_inverse`` verified against the forward map exactly."""
    from .galois import psi_M
    f = ctx.field
    tilde = cleft_psi_inverse(ctx, witness, M)
    psi_mat, _ = psi_M(ctx, M)
    return psi_mat.mul(tilde) == DenseMatrix.identity(f, M.dim) and \
        tilde.mul(psi_mat) == DenseMatrix.identity(f, tilde.rows)


# ---------------------------------------------------------------------------
# the normal basis property
# ---------------------------------------------------------------------------


def _normal_basis_condition(ctx, B) -> DenseMatrix:
    """Left B-linearity and colinearity of theta: A -> B (x) C, one column
    per elementary theta (row-major, rows (b, c), columns a).  Row-major
    vec(X theta Y) = kron(X, Y^T) vec(theta) makes every block a
    re-indexing: theta L_b - (L_b (x) id) theta for each basis element b of
    B, then (theta (x) id) rho_A - (id (x) Delta) theta."""
    f = ctx.field
    nA, nC, nB = ctx.A.dim, ctx.C.dim, B.dim
    eye_t = DenseMatrix.identity(f, nB * nC)
    eye_cA = DenseMatrix.identity(f, nC * nA)
    # (theta (x) id) rho_A = kron(I, R) vec(theta), R[(c, a'), a] = rho_A[(a, c), a'],
    # the transposed C-components of rho_A stacked
    R = DenseMatrix.vstack(*[S.transpose() for S in ctx.comodule_A().slices()])
    blocks = [kron(eye_t, L.transpose()).sub(kron(lb, eye_cA))
              for L, lb in zip(combinations(ctx.A.lmuls, B.embedding), B.algebra.lmuls)]
    blocks.append(kron(eye_t, R).sub(kron(DenseMatrix.identity(f, nB), kron(
        ctx.C.comult_matrix(), DenseMatrix.identity(f, nA)))))
    return DenseMatrix.vstack(*blocks)


@once
def normal_basis_check(ctx, seed: int = 0) -> SearchResult:
    """Search for a left-B-linear right-C-colinear isomorphism A -> B (x) C.

    The dimension obstruction short-circuits; otherwise the solution space of
    the two linearity conditions is searched by the same generic
    invertibility routine as the cleft search.
    """
    data = ctx.morita()
    f = ctx.field
    nA, nC, nB = ctx.A.dim, ctx.C.dim, data.B.dim
    if nA != nB * nC:
        return SearchResult("absent",
                            certificate=f"dimension obstruction: {nA} != {nB}*{nC}")
    condition = _normal_basis_condition(ctx, data.B)
    space = kernel(condition)
    if space.dim == 0:
        return SearchResult("absent", certificate="no equivariant maps")
    thetas = unflatten_rows(space.basis, nA, nA)
    res = search_invertible(f, thetas, seed=seed)
    if res.status != "found":
        return res
    theta = combinations(thetas, DenseMatrix.from_columns(f, [res.witness], len(thetas)))[0]
    return SearchResult("found", theta, res.certificate)


# ---------------------------------------------------------------------------
# the equivalence tables
# ---------------------------------------------------------------------------


# Each theorem states that five properties are equivalent.  The five
# booleans below are computed by different mathematical routes (a witness
# search, the F-surjectivity criterion, the bijectivity of the comparison
# map, the endomorphism-ring map, faithful flatness plus Galois), so their
# agreement is a real cross-check.  Clause independence means a different
# route for each clause, never recomputing the same route twice: the memoized
# values these tables read share one route's result and never merge two.
_CLAUSE_ORDER = {
    "main": ("cleft", "weak", "galois", "lambda", "strong"),
    "x-case": ("cleft", "strong", "weak", "galois", "lambda"),
}


def _equivalence_table(ctx, theorem: str, seed: int) -> dict[str, object]:
    """Evaluate the five clauses of ``theorem`` in its own numbering, assert
    that they agree, and attach the colinearity/Q checks when they hold."""
    from .galois import structure_flags
    from .morita import omega_and_lambda
    flags = structure_flags(ctx)
    cleft_result = find_cleft(ctx, seed)
    nb_result = normal_basis_check(ctx, seed)
    if cleft_result.status == "inconclusive" or nb_result.status == "inconclusive":
        raise InconclusiveSearch(cleft_result.certificate or nb_result.certificate)
    nb = nb_result.status == "found"
    routes = {
        "cleft": cleft_result.status == "found",
        "weak": flags.weak and nb,
        "galois": flags.galois and nb,
        "lambda": omega_and_lambda(ctx.morita()).lambda_iso and nb,
        "strong": flags.strong and nb,
    }
    result = clause_table(theorem, {str(k + 1): routes[name]
                                    for k, name in enumerate(_CLAUSE_ORDER[theorem])})
    if result["clauses"]["1"]:
        result["coQ"] = lemma_coQ_check(ctx, cleft_result.witness.lam,
                                        cleft_result.witness.lam_bar)
    return result


def check_theorem_main(ctx, seed: int = 0) -> dict[str, object]:
    """Cleft <=> weak + normal basis <=> Galois + normal basis <=> the
    endomorphism-ring map is an iso + normal basis <=> strong + normal basis
    (the last licensed by faithful flatness of C over the ground field).
    The clauses must agree; when they hold, the explicit inverse of the weak
    structure map attached to the cleft witness is verified too.
    """
    result = _equivalence_table(ctx, "main", seed)
    if result["clauses"]["1"] and \
            not cleft_psi_inverse_check(ctx, find_cleft(ctx, seed).witness, ctx.comodule_A()):
        raise ClauseDisagreement("main", result["clauses"], detail="explicit inverse failed")
    return result


def check_theorem_xcase(ctx, seed: int = 0) -> dict[str, object] | None:
    """The variant available when the coaction of 1 is 1 (x) x with x
    group-like in C: cleft <=> strong + nb <=> weak + nb <=> Galois + nb <=>
    the endomorphism-ring map is an iso + nb.  Returns None when that shape
    does not hold; when the clauses hold, a normalized q must exist.
    """
    if x_case_grouplike(ctx) is None:
        return None
    result = _equivalence_table(ctx, "x-case", seed)
    if result["clauses"]["1"] and find_qhat(ctx.morita()) is None:
        raise ClauseDisagreement("x-case", result["clauses"],
                                 detail="cleft but no normalized q exists")
    return result
