import random
from fractions import Fraction

import pytest

from coring_lab.exactla import GF, QQ, DenseMatrix, Subspace
from coring_lab.algebra import (
    AlgebraPresentation,
    BimodulePresentation,
    ModulePresentation,
    balanced_tensor,
    hom_matrices,
    hom_module,
    is_fg_projective,
    is_generator,
    subalgebra_on,
    trace_span,
    verify_algebra,
    verify_bimodule,
    verify_module,
    zero_module,
)
from coring_lab.entwining import instance_from_json
from coring_lab.fixtures import fixture
from coring_lab.verdict import VerificationError

from crosscheck import verify_associativity_by_triples

from helpers import (
    dual_numbers,
    group_algebra_z2,
    group_algebra_zn,
    lmul,
    module_with_zero_action,
    mult_table,
    perfbench_instance,
    rationals_algebra,
    rmul,
)
from oracles import naive_rank, naive_subalgebra, span_contains


def test_verify_dual_numbers():
    assert verify_algebra(dual_numbers()).valid


def test_verify_group_algebra():
    assert verify_algebra(group_algebra_z2()).valid


def test_verify_algebra_is_computed_once_per_algebra():
    """A Doi-Koppinen instance checks its algebra at load and again in
    ``verify_axioms``; both read one verdict."""
    A = group_algebra_z2()
    assert verify_algebra(A) is verify_algebra(A)


@pytest.mark.parametrize("side", ["left", "right"])
def test_action_map_columns(side):
    # the regular module twice over, so that dim M differs from dim A and a
    # swapped index convention cannot pass
    A = dual_numbers()
    reg = A.regular_module(side)
    M = reg.direct_sum(reg)
    nA, d = A.dim, M.dim
    amap = M.action_map()
    assert (amap.rows, amap.cols) == (d, nA * d)
    for i in range(nA):
        for m in range(d):
            j = i * d + m if side == "left" else m * nA + i
            e_m = [1 if t == m else 0 for t in range(d)]
            e_i = [1 if t == i else 0 for t in range(nA)]
            assert amap.col(j) == M.act_matrix(e_i).apply(e_m)
    assert amap is M.action_map()
    assert A.regular_module(side).action_map() == A.mult_matrix()


def test_verify_names_failing_triple():
    # 3-dim: e1*e1 = e2, e1*e2 = e1, e2*e1 = 0: then (e1 e1) e1 = e2 e1 = 0
    # while e1 (e1 e1) = e1 e2 = e1.
    z = [0, 0, 0]
    mult = [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[0, 1, 0], [0, 0, 1], [0, 1, 0]],
            [[0, 0, 1], z, z]]
    A = AlgebraPresentation(QQ, 3, mult, [1, 0, 0])
    v = verify_algebra(A)
    assert not v.valid
    assert any(f.axiom == "associativity" and f.indices == (1, 1, 1)
               for f in v.failures)


def _associativity_failures(verdict):
    return [f.indices for f in verdict.failures if f.axiom == "associativity"]


def _corrupted(A, rng):
    """A with one structure constant e_i e_j moved by a random nonzero
    scalar, and sometimes a second one."""
    mult = [[list(cell) for cell in row] for row in mult_table(A)]
    for _ in range(rng.choice([1, 1, 2])):
        i, j, k = (rng.randrange(A.dim) for _ in range(3))
        shift = A.field.normalize(rng.choice([1, -1, 2, Fraction(1, 2)]))
        mult[i][j][k] = A.field.normalize(mult[i][j][k] + shift)
    return AlgebraPresentation(A.field, A.dim, mult, A.unit)


@pytest.mark.parametrize("label", ["Q[t]/(t^2)", "QZ3", "QZ4-F7", "fix-s", "fix-s-dual"])
def test_associativity_identity_matches_triple_loop(label):
    """The one matrix identity of ``verify_algebra`` reports the same
    failing triples, in the same order, as the loop over basis triples, on
    the algebra itself and on copies with corrupted structure constants."""
    A = {"Q[t]/(t^2)": dual_numbers, "QZ3": lambda: group_algebra_zn(3),
         "QZ4-F7": lambda: group_algebra_zn(4, GF(7)),
         "fix-s": lambda: fixture("fix-s").context.A,
         "fix-s-dual": lambda: fixture("fix-s").context.sharp_ring().algebra}[label]()
    rng = random.Random(label)
    assert _associativity_failures(verify_algebra(A)) == []
    fired = 0
    for B in [_corrupted(A, rng) for _ in range(6)]:
        want = _associativity_failures(verify_associativity_by_triples(B))
        assert _associativity_failures(verify_algebra(B)) == want
        fired += bool(want)
    assert fired


def test_verify_module_regular_and_unit_violation():
    A = group_algebra_z2()
    assert verify_module(A.regular_module("right")).valid
    assert verify_module(A.regular_module("left")).valid
    assert verify_module(zero_module(A, "right")).valid
    bad = ModulePresentation(A, 1, "right",
                             [DenseMatrix.zeros(QQ, 1, 1), DenseMatrix.zeros(QQ, 1, 1)])
    v = verify_module(bad)
    assert "module-unit" in v.axioms()


def test_left_right_action_composition_order():
    A = dual_numbers()
    reg = A.regular_module("right")
    v = verify_module(reg)
    assert v.valid
    # t acting then t acting again must be the action of t^2 = 0
    t_act = reg.action[1]
    assert t_act.mul(t_act).is_zero()


def quarter_square_algebra():
    """Q[t]/(t^2 - 1/4) on the basis {1, t}: structure constants with a
    denominator."""
    mult = [[[1, 0], [0, 1]], [[0, 1], [Fraction(1, 4), 0]]]
    return AlgebraPresentation(QQ, 2, mult, [1, 0])


@pytest.mark.parametrize("A", [quarter_square_algebra(), group_algebra_zn(3),
                               group_algebra_zn(3, GF(7))], ids=["Q-frac", "QZ3", "F7Z3"])
def test_products_of_elements_against_structure_constants(A):
    # mul_vec, the combinations of lmuls and rmuls and the regular actions all take the
    # fraction-free route; the oracle sums u_i v_j mult[i][j] in Fractions
    rng = random.Random(19)
    p = A.field.p
    mult = mult_table(A)
    for _ in range(30):
        u, v = ([A.field.normalize(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                 if rng.random() < 0.7 else 0 for _ in range(A.dim)] for _ in range(2))
        want = [sum((Fraction(a) * Fraction(b) * Fraction(mult[i][j][k])
                     for i, a in enumerate(u) for j, b in enumerate(v)), Fraction(0))
                for k in range(A.dim)]
        want = [A.field.normalize(x) for x in want]
        got = A.mul_vec(u, v)
        assert got == want
        # canonical scalars: an int wherever the value is integral
        assert all(type(x) is int or (p is None and x.denominator > 1) for x in got)
        assert lmul(A, u).apply(v) == want
        assert rmul(A, v).apply(u) == want
        assert A.regular_module("left").act_matrix(u).apply(v) == want


# -- generators -------------------------------------------------------------


def _product_algebra(field, n):
    """k^n on its basis of orthogonal idempotents."""
    mult = [[[1 if i == j == k else 0 for k in range(n)] for j in range(n)] for i in range(n)]
    return AlgebraPresentation(field, n, mult, [1] * n, name=f"k^{n}")


def _matrix_unit_algebra(field, units):
    """The span of the 2x2 matrix units E_rc, (r, c) in units, in that order."""
    n = len(units)
    mult = [[[1 if b == c and units[k] == (a, d) else 0 for k in range(n)]
             for (c, d) in units] for (a, b) in units]
    unit = [1 if r == c else 0 for r, c in units]
    return AlgebraPresentation(field, n, mult, unit, name=f"matrix units {units}")


def _dense_qz3(field):
    """The group algebra of Z/3 in the benchmark's dense rational basis."""
    obj = perfbench_instance("dense", "dense-QZ3")["algebra"]
    return AlgebraPresentation.from_json(field, obj, name="dense QZ3")


def _dual_ring_of_qz(n):
    """The dual ring Hom(C, A) of the Doi-Koppinen instance Q[Z/n] over
    itself, over a field: n^2-dimensional, with candidates iota(e_a) and
    f^j = 1 (x) c_j*."""
    def make(field):
        obj = perfbench_instance("ladder", f"QZ{n}-x0-Q")
        obj["field"] = field.to_json()
        return instance_from_json(obj).sharp_ring().algebra
    return make


GENERATOR_CASES = {  # name -> (algebra over a field, number of generators)
    "QZ5": (lambda f: group_algebra_zn(5, f), 1),
    "k^4": (lambda f: _product_algebra(f, 4), 3),
    "k": (rationals_algebra, 0),
    "upper-triangular": (lambda f: _matrix_unit_algebra(f, [(0, 0), (0, 1), (1, 1)]), 2),
    "M_2": (lambda f: _matrix_unit_algebra(f, [(0, 0), (0, 1), (1, 0), (1, 1)]), 3),
    "dense-QZ3": (_dense_qz3, 1),
    "dual-ring-QZ3": (_dual_ring_of_qz(3), 2),
    "dual-ring-QZ4": (_dual_ring_of_qz(4), 2),
}


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "F7"])
@pytest.mark.parametrize("case", sorted(GENERATOR_CASES))
def test_generators_against_words_closure(case, field):
    make, count = GENERATOR_CASES[case]
    A = make(field)
    assert verify_algebra(A).valid
    gens = A.generators().columns()
    assert len(gens) == count
    p = field.p
    assert naive_rank(naive_subalgebra(mult_table(A), A.unit, gens, p), p) == A.dim
    # the greedy rule: a candidate, and then a basis vector, is chosen iff it
    # lies outside the subalgebra that the ones chosen before it generate
    basis = [[int(t == i) for t in range(A.dim)] for i in range(A.dim)]
    chosen = []
    for c in A.candidates.columns() + basis:
        earlier = naive_subalgebra(mult_table(A), A.unit, chosen, p)
        if naive_rank(earlier, p) == A.dim:
            break
        if not span_contains(earlier, c, p):
            chosen.append(c)
    assert gens == chosen


def test_dual_ring_of_qzn_has_two_generators():
    """iota(g) for the generator g of Z/n, then one f^j; the basis of the
    n^2-dimensional ring is never reached."""
    for n in range(2, 7):
        S = _dual_ring_of_qz(n)(QQ)
        gens = S.generators().columns()
        assert len(gens) == 2 and all(g in S.candidates.columns() for g in gens)


def test_generators_are_memoized():
    A = group_algebra_zn(4)
    assert A.generators() is A.generators()


# -- balanced tensor -----------------------------------------------------------


def test_balanced_tensor_unit_isomorphism():
    S = group_algebra_z2()
    q = balanced_tensor(S.regular_module("right"), S.regular_module("left"))
    assert q.dim == S.dim


def test_balanced_tensor_over_scalars_inside():
    # A = QZ2 as a module over B = Q*1 embedded as a subalgebra: A (x)_B A has
    # dimension 4.  Oracle: rank of the relation span over all basis triples.
    A = group_algebra_z2()
    B_space = Subspace.from_spanning(QQ, 2, [[1, 0]])
    B, emb = subalgebra_on(A, B_space)
    # A as right/left B-module: action of the single basis element 1
    right = ModulePresentation(B, 2, "right", [DenseMatrix.identity(QQ, 2)])
    left = ModulePresentation(B, 2, "left", [DenseMatrix.identity(QQ, 2)])
    q = balanced_tensor(right, left)
    rel_rows = []
    # oracle: relations m*1 (x) n - m (x) 1*n = 0, so rank 0; dimension 4
    assert naive_rank(rel_rows or [[0] * 4]) == 0
    assert q.dim == 4


def test_balanced_tensor_trivial():
    k = rationals_algebra()
    q = balanced_tensor(k.regular_module("right"), k.regular_module("left"))
    assert q.dim == 1


def test_balanced_tensor_kills_twist():
    # S = QZ2, M = N = S: g (x) 1 = 1 (x) g in S (x)_S S
    S = group_algebra_z2()
    q = balanced_tensor(S.regular_module("right"), S.regular_module("left"))
    g_tensor_1 = [0, 0, 1, 0]
    one_tensor_g = [0, 1, 0, 0]
    assert q.projection.apply(g_tensor_1) == q.projection.apply(one_tensor_g)


# -- hom spaces -----------------------------------------------------------------


def test_hom_regular_endomorphisms():
    S = group_algebra_z2()
    reg = S.regular_module("right")
    homs = hom_module(reg, reg)
    assert homs.dim == 2
    # oracle: brute-force solve the intertwining equations on 2x2 unknowns
    a0, a1 = reg.action[0], reg.action[1]
    rows = []
    for act in (a0, a1):
        for i in range(2):
            for j in range(2):
                row = [0] * 4
                for c in range(2):
                    row[i * 2 + c] += act.get(c, j)
                for r in range(2):
                    row[r * 2 + j] -= act.get(i, r)
                rows.append(row)
    assert 4 - naive_rank(rows) == 2


def test_hom_to_zero_module():
    S = group_algebra_z2()
    assert hom_module(S.regular_module("right"), zero_module(S, "right")).dim == 0


def test_hom_left_modules():
    S = dual_numbers()
    reg = S.regular_module("left")
    homs = hom_matrices(reg, reg)
    assert len(homs) == 2
    for h in homs:
        for i in range(S.dim):
            assert h.mul(reg.action[i]) == reg.action[i].mul(h)


# -- projectivity and generators --------------------------------------------------


def test_regular_module_projective_and_generator():
    for S in (group_algebra_z2(), dual_numbers()):
        for side in ("left", "right"):
            reg = S.regular_module(side)
            ok, witness = is_fg_projective(reg)
            assert ok and witness is not None
            assert is_generator(reg)


def test_non_projective_module_detected():
    # Q over Q[t]/(t^2) with t acting as zero is not projective.  Oracle: the
    # splitting system is inconsistent; exhaust it by hand below.
    A = dual_numbers()
    M = module_with_zero_action(A)
    ok, witness = is_fg_projective(M)
    assert not ok and witness is None
    # oracle: module maps M -> A are multiples of 1 |-> a with t a = 0 and
    # a t = 0, i.e. a in span{t}; the composite M -> A -> M is then zero,
    # never the identity.  Convince ourselves the hom space is span{t}:
    homs = hom_matrices(M, A.regular_module("right"))
    assert len(homs) == 1
    assert homs[0].col(0) in ([0, 1], [Fraction(0), Fraction(1)])


def test_projectivity_and_generator_share_one_hom_space(monkeypatch):
    import coring_lab.algebra as algebra
    calls = []
    orig = algebra.hom_module

    def counting(M, N):
        calls.append((M, N))
        return orig(M, N)
    monkeypatch.setattr(algebra, "hom_module", counting)
    M = dual_numbers().regular_module("right")
    assert is_fg_projective(M)[0] and is_generator(M)
    assert trace_span(M).is_full()
    assert len(calls) == 1   # Hom(M, S), computed once for M


def test_projective_not_faithful_over_product_ring():
    # S = Q x Q (dual of the group-like coalgebra), M = Q through the second
    # factor: projective via the idempotent splitting, not a generator.
    mult = [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]
    S = AlgebraPresentation(QQ, 2, mult, [1, 1], name="QxQ")
    assert verify_algebra(S).valid
    M = ModulePresentation(S, 1, "right",
                           [DenseMatrix.zeros(QQ, 1, 1), DenseMatrix.identity(QQ, 1)])
    assert verify_module(M).valid
    ok, witness = is_fg_projective(M)
    assert ok
    # explicit idempotent splitting oracle: sigma(1) = delta_g, pi(delta_g) = 1
    assert not is_generator(M)
    assert trace_span(M).basis.row_lists() == [[0, 1]]


def test_generator_of_regular_sum():
    S = dual_numbers()
    reg = S.regular_module("right")
    M = reg.direct_sum(module_with_zero_action(S))
    assert is_generator(M)


# -- bimodules and subalgebras -----------------------------------------------------


def test_bimodule_regular():
    S = group_algebra_z2()
    bi = BimodulePresentation(S.regular_module("left"), S.regular_module("right"))
    assert verify_bimodule(bi).valid


def test_bimodule_commutation_failure_named():
    A = dual_numbers()
    left = A.regular_module("left")
    # a right action that fails to commute with left multiplication:
    # let t act on the right as the projection to 1 (not right mult)
    bad_right = ModulePresentation(
        A, 2, "right",
        [DenseMatrix.identity(QQ, 2),
         DenseMatrix.from_rows(QQ, [[0, 1], [0, 0]])])
    bi = BimodulePresentation(left, bad_right)
    v = verify_bimodule(bi)
    assert not v.valid


def test_subalgebra_closure_error():
    A = group_algebra_z2()
    bad = Subspace.from_spanning(QQ, 2, [[1, 1]])  # span{1+g}: no unit
    with pytest.raises(VerificationError):
        subalgebra_on(A, bad)


def test_subalgebra_scalars():
    A = group_algebra_z2()
    space = Subspace.from_spanning(QQ, 2, [[1, 0]])
    B, emb = subalgebra_on(A, space)
    assert B.dim == 1
    assert verify_algebra(B).valid
    assert emb.col(0) == [1, 0]


def test_restrict_module_to_invariant_subspace():
    S = group_algebra_z2()
    reg = S.regular_module("right")
    inv = Subspace.from_spanning(QQ, 2, [[1, 1]])  # span{1+g} is g-invariant
    sub = reg.restrict(inv)
    assert verify_module(sub).valid
    assert sub.dim == 1
    assert sub.action[1] == DenseMatrix.identity(QQ, 1)  # g fixes 1+g
