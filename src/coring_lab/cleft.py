"""Integrals, cleftness, the normal basis property, and their equivalences.

A cleft extension is witnessed by a convolution-invertible colinear map
C -> A.  Because the convolution algebra here is a finite-dimensional unital
algebra, invertibility of a candidate is one exact rank computation, and
invertibility over the whole integral space is a Zariski-open condition: the
search evaluates the determinant of the (linearly parameterized) convolution
operator at deterministic 0/1 patterns, then at seeded random rationals, and
certifies a negative answer by grid evaluation (over Q, degree-counting makes
a full grid of zeros a proof of identical vanishing; over a prime field small
parameter spaces are simply exhausted).  "Inconclusive" survives only for
large parameter counts over small prime fields.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .coalgebra import (
    convolution,
    convolution_inverse,
    convolution_unit,
    is_grouplike_C,
)
from .coring import ComoduleInstance, coinvariants, dual_action
from .exactla import (
    DenseMatrix,
    FieldSpec,
    Subspace,
    combine_rows,
    kernel,
    kron_mul,
    once,
    solve,
)
from .morita import ClauseDisagreement, find_qhat
from .verdict import Verdict, VerificationError, one_failure


class InconclusiveSearch(Exception):
    """The randomized budget ran out without a symbolic determination."""


# ---------------------------------------------------------------------------
# integrals
# ---------------------------------------------------------------------------


@dataclass
class IntegralSpace:
    """All colinear maps C -> A, with the affine totality condition."""

    space: Subspace                      # inside Hom(C, A) flat coordinates
    total_example: Optional[list]        # one total integral, when any exists

    @property
    def dim(self) -> int:
        return self.space.dim


@once
def integral_space(ctx) -> IntegralSpace:
    f = ctx.field
    nA, nC = ctx.A.dim, ctx.C.dim
    rho_A = ctx.comodule_A().coaction
    delta = ctx.C.comult_matrix()
    eyeC = DenseMatrix.identity(f, nC)
    cond_cols = []
    for idx in range(nA * nC):
        lam = DenseMatrix(f, nA, nC, [1 if t == idx else 0 for t in range(nA * nC)])
        diff = rho_A.mul(lam).sub(kron_mul(lam, eyeC, delta))
        cond_cols.append(diff.entries)
    condition = DenseMatrix.from_columns(f, cond_cols, nA * nC * nC)
    space = kernel(condition)
    sharp = ctx.sharp_ring()
    evals = [sharp.eval_at(list(space.basis.row(i)), ctx.x)
             for i in range(space.dim)]
    total = None
    if evals:
        system = DenseMatrix.from_columns(f, evals, nA)
        sol = solve(system, ctx.A.unit)
        if sol is not None:
            total = combine_rows(f, sol, space.basis.row_lists(), nA * nC)
    return IntegralSpace(space, total)


# ---------------------------------------------------------------------------
# generic invertibility over a linear space of candidates
# ---------------------------------------------------------------------------


@dataclass
class SearchResult:
    status: str                      # "found" | "absent" | "inconclusive"
    coords: Optional[list] = None    # parameter vector of the hit
    certificate: str = ""


# the search budgets: 0/1 patterns tried, seeded random candidates, the
# largest prime-field space scanned exhaustively, and the most parameters a
# certification grid covers
PATTERN_BUDGET = 256
RANDOM_BUDGET = 64
EXHAUSTIVE_BUDGET = 4096
GRID_VARS = 3


def search_invertible(field: FieldSpec, basis: List[list],
                      to_matrix: Callable[[list], DenseMatrix],
                      seed: int = 0) -> SearchResult:
    """Find parameters t for which to_matrix(sum t_i basis_i) is invertible.

    to_matrix must be linear in the candidate, so the determinant is a
    polynomial of total degree at most the matrix size; that bound drives the
    certification grid.
    """
    r = len(basis)
    if r == 0:
        return SearchResult("absent", certificate="empty candidate space")
    width = len(basis[0])

    def combine(params):
        return combine_rows(field, params, basis, width)

    def invertible(params):
        mat = to_matrix(combine(params))
        return mat.rows == mat.cols and kernel(mat).is_zero()

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
    rng = random.Random(seed)
    for k in range(RANDOM_BUDGET):
        if field.kind == "Fp":
            params = [rng.randrange(field.p) for _ in range(r)]
        else:
            params = [Fraction(rng.randint(-2 ** 16, 2 ** 16),
                               rng.randint(1, 2 ** 16)) for _ in range(r)]
        if invertible(params):
            return SearchResult("found", params,
                                certificate=f"random candidate {k} (seed {seed})")
    # certification phase
    n = to_matrix(combine([0] * r)).rows
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


@dataclass
class CleftWitness:
    lam: DenseMatrix         # the *-invertible integral
    lam_bar: DenseMatrix     # its two-sided convolution inverse

    def to_json(self) -> dict:
        return {"lambda": self.lam.to_json(), "lambda_bar": self.lam_bar.to_json()}


@dataclass
class CleftResult:
    status: str                      # "found" | "absent" | "inconclusive"
    witness: Optional[CleftWitness] = None
    certificate: str = ""

    @property
    def cleft(self):
        if self.status == "found":
            return True
        if self.status == "absent":
            return False
        return "inconclusive"


def _left_conv_operator(ctx, lam_flat: Sequence) -> DenseMatrix:
    """h -> lam * h on Hom(C, A); invertibility of this operator is
    equivalent to *-invertibility in the finite-dimensional convolution
    algebra (one-sided inverses are two-sided there)."""
    f = ctx.field
    nA, nC = ctx.A.dim, ctx.C.dim
    lam = DenseMatrix(f, nA, nC, list(lam_flat))
    n = nA * nC
    cols = []
    for idx in range(n):
        h = DenseMatrix(f, nA, nC, [1 if t == idx else 0 for t in range(n)])
        cols.append(convolution(lam, h, ctx.C, ctx.A).entries)
    return DenseMatrix.from_columns(f, cols, n)


@once
def find_cleft(ctx, seed: int = 0) -> CleftResult:
    """Search the integral space for a convolution-invertible element."""
    integrals = integral_space(ctx)
    f = ctx.field
    if integrals.dim == 0:
        return CleftResult("absent", certificate="no nonzero integrals")
    basis = [list(integrals.space.basis.row(i)) for i in range(integrals.dim)]
    res = search_invertible(f, basis, lambda flat: _left_conv_operator(ctx, flat),
                            seed=seed)
    if res.status != "found":
        return CleftResult(res.status, certificate=res.certificate)
    lam = DenseMatrix(f, ctx.A.dim, ctx.C.dim,
                      combine_rows(f, res.coords, basis, ctx.A.dim * ctx.C.dim))
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
    return CleftResult("found", CleftWitness(lam, lam_bar), res.certificate)


def is_colinear(ctx, lam: DenseMatrix) -> bool:
    f = ctx.field
    rho_A = ctx.comodule_A().coaction
    eyeC = DenseMatrix.identity(f, ctx.C.dim)
    return rho_A.mul(lam) == kron_mul(lam, eyeC, ctx.C.comult_matrix())


def x_case_grouplike(ctx) -> Optional[list]:
    """When the unit coaction is 1_A (x) x for a group-like x of C, return x."""
    f = ctx.field
    nA, nC = ctx.A.dim, ctx.C.dim
    u = ctx.unit_coaction
    pivot = next((i for i in range(nA) if ctx.A.unit[i]), None)
    if pivot is None:
        return None
    x = [f.div(u[pivot * nC + k], ctx.A.unit[pivot]) for k in range(nC)]
    for i in range(nA):
        for k in range(nC):
            if u[i * nC + k] != f.mul(ctx.A.unit[i], x[k]):
                return None
    if not is_grouplike_C(ctx.C, x):
        return None
    return x


def lemma_coQ_check(ctx, lam: DenseMatrix, lam_bar: DenseMatrix) -> Dict[str, object]:
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
    in_q = data.Q.space.contains(lam_bar.entries)
    if colinear != in_q:
        raise ClauseDisagreement("colinear-vs-Q",
                                 {"colinear": colinear, "inverse_in_Q": in_q})
    out: Dict[str, object] = {"colinear": colinear, "inverse_in_Q": in_q}
    x = x_case_grouplike(ctx)
    if x is not None and colinear:
        lam_x = lam.apply(x)
        lam_hat = ctx.A.rmul_matrix(lam_x).mul(lam_bar)
        hat_in_q = data.Q.space.contains(lam_hat.entries)
        hat_val = ctx.sharp_ring().eval_at(lam_hat.entries, ctx.x)
        hat_ok = hat_val == [ctx.field.normalize(t) for t in ctx.A.unit]
        if not (hat_in_q and hat_ok):
            raise ClauseDisagreement("normalized-inverse",
                                     {"in_Q": hat_in_q, "evaluates_to_1": hat_ok})
        out["lam_hat_in_Q"] = True
        out["lam_hat_at_x_is_1"] = True
    return out


# ---------------------------------------------------------------------------
# the trivialization isomorphisms
# ---------------------------------------------------------------------------


def _trivialized(ctx, witness: CleftWitness, M: ComoduleInstance) -> List[List[list]]:
    """Per basis vector m of M and per basis vector c_k of C, the coinvariant
    coordinates of the c_k-component of sum (m_(0) . lam_bar) (x) m_(1)."""
    nC = ctx.C.dim
    D = dual_action(M).act_matrix(witness.lam_bar.entries)
    lifted = kron_mul(D, DenseMatrix.identity(ctx.field, nC), M.coaction)  # M -> M (x) C
    coinv = coinvariants(M)  # theorem: every component lands in the coinvariants
    return [[coinv.coords(lifted.col(m)[k::nC]) for k in range(nC)] for m in range(M.dim)]


def gamma_M(ctx, witness: CleftWitness, M: ComoduleInstance
            ) -> Tuple[DenseMatrix, DenseMatrix]:
    """M -> (coinvariants of M) (x) C, m -> sum (m_(0) . lam_bar) (x) m_(1),
    with the verified inverse n (x) c -> n lam(c)."""
    f = ctx.field
    nC = ctx.C.dim
    coinv = coinvariants(M)
    cols = [[part[k][r] for r in range(coinv.dim) for k in range(nC)]
            for part in _trivialized(ctx, witness, M)]
    gamma = DenseMatrix.from_columns(f, cols, coinv.dim * nC)
    acts = [M.module.act_matrix(witness.lam.col(k)) for k in range(nC)]
    inv_cols = [a.apply(coinv.basis.row(r)) for r in range(coinv.dim) for a in acts]
    gamma_inv = DenseMatrix.from_columns(f, inv_cols, M.dim)
    v = Verdict()
    if gamma.mul(gamma_inv) != DenseMatrix.identity(f, coinv.dim * nC):
        v.fail("gamma-right-inverse")
    if gamma_inv.mul(gamma) != DenseMatrix.identity(f, M.dim):
        v.fail("gamma-left-inverse")
    if not v.valid:
        raise VerificationError("gamma_M", v)
    return gamma, gamma_inv


def cleft_psi_inverse_check(ctx, witness: CleftWitness, M: ComoduleInstance) -> bool:
    """The explicit weak-structure inverse attached to a cleft witness:
    m -> sum (m_(0) lam_bar) (x)_B lam(m_(1)); verified against the forward
    map exactly."""
    from .galois import psi_M, _coinv_tensor_A
    f = ctx.field
    nA = ctx.A.dim
    coinv = coinvariants(M)
    tensor = _coinv_tensor_A(ctx, M)
    cols = []
    for part in _trivialized(ctx, witness, M):
        plain = [0] * (coinv.dim * nA)
        for k, coords in enumerate(part):
            lam_k = witness.lam.col(k)
            for r in range(coinv.dim):
                if coords[r]:
                    for j in range(nA):
                        if lam_k[j]:
                            plain[r * nA + j] = f.add(plain[r * nA + j],
                                                      f.mul(coords[r], lam_k[j]))
        cols.append(tensor.project(plain))
    tilde = DenseMatrix.from_columns(f, cols, tensor.dim)
    psi_mat, _ = psi_M(ctx, M)
    return psi_mat.mul(tilde) == DenseMatrix.identity(f, M.dim) and \
        tilde.mul(psi_mat) == DenseMatrix.identity(f, tensor.dim)


# ---------------------------------------------------------------------------
# the normal basis property
# ---------------------------------------------------------------------------


@dataclass
class NormalBasisResult:
    status: str                     # "found" | "absent" | "inconclusive"
    witness: Optional[DenseMatrix] = None
    certificate: str = ""

    @property
    def normal_basis(self):
        if self.status == "found":
            return True
        if self.status == "absent":
            return False
        return "inconclusive"


@once
def normal_basis_check(ctx, seed: int = 0) -> NormalBasisResult:
    """Search for a left-B-linear right-C-colinear isomorphism A -> B (x) C.

    The dimension obstruction short-circuits; otherwise the solution space of
    the two linearity conditions is searched by the same generic
    invertibility routine as the cleft search.
    """
    data = ctx.morita()
    f = ctx.field
    nA, nC, nB = ctx.A.dim, ctx.C.dim, data.B.dim
    if nA != nB * nC:
        return NormalBasisResult("absent",
                                 certificate=f"dimension obstruction: "
                                             f"{nA} != {nB}*{nC}")
    target = nB * nC
    rho_A = ctx.comodule_A().coaction
    eyeC = DenseMatrix.identity(f, nC)
    eyeB = DenseMatrix.identity(f, nB)
    delta = ctx.C.comult_matrix()
    # (b . on A, b . on B (x) C) for each basis vector b of B
    lmuls = [(ctx.A.lmul_matrix(data.B.embedding.col(j)),
              data.B.algebra.lmul_matrix([1 if t == j else 0 for t in range(nB)]))
             for j in range(nB)]
    cond_cols = []
    for idx in range(target * nA):
        theta = DenseMatrix(f, target, nA,
                            [1 if t == idx else 0 for t in range(target * nA)])
        rows = []
        for lb_A, lb_B in lmuls:
            rows.extend(theta.mul(lb_A).sub(kron_mul(lb_B, eyeC, theta)).entries)
        rows.extend(kron_mul(theta, eyeC, rho_A).sub(kron_mul(eyeB, delta, theta)).entries)
        cond_cols.append(rows)
    condition = DenseMatrix.from_columns(f, cond_cols, len(cond_cols[0]))
    space = kernel(condition)
    if space.dim == 0:
        return NormalBasisResult("absent", certificate="no equivariant maps")
    basis = [list(space.basis.row(i)) for i in range(space.dim)]
    res = search_invertible(f, basis,
                            lambda flat: DenseMatrix(f, target, nA, list(flat)),
                            seed=seed)
    if res.status != "found":
        return NormalBasisResult(res.status, certificate=res.certificate)
    theta = DenseMatrix(f, target, nA, combine_rows(f, res.coords, basis, target * nA))
    return NormalBasisResult("found", theta, res.certificate)


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


def _equivalence_table(ctx, theorem: str, seed: int) -> Dict[str, object]:
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
    table = {str(k + 1): routes[name] for k, name in enumerate(_CLAUSE_ORDER[theorem])}
    if len(set(table.values())) != 1:
        raise ClauseDisagreement(theorem, table)
    result = {"theorem": theorem, "clauses": table, "agreement": True}
    if table["1"]:
        result["coQ"] = lemma_coQ_check(ctx, cleft_result.witness.lam,
                                        cleft_result.witness.lam_bar)
    return result


def check_theorem_main(ctx, seed: int = 0) -> Dict[str, object]:
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


def check_theorem_xcase(ctx, seed: int = 0) -> Optional[Dict[str, object]]:
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
