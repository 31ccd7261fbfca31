"""The theorems about verified input that the pipeline does not re-prove,
checked on every fixture, on the instances of ``test_closed_forms`` and on
the 47 instances the benchmark generates at seed 0:

* A (x) C is a coring, and the unit coaction's x = rho_A(1) is group-like
  in it, when psi is an entwining map (Brzezinski 2002, Prop. 2.2);
* a -> x a satisfies the entwined-module law, and its comodule laws hold
  on every column once they hold at 1, where the runtime checks them;
* the x-invariants of a comodule's dual action are its coinvariants, so
  xi_M on a witness takes the coinvariants as its target;
* Hom(C, A) with the entwined product is an algebra;
* the canonical map A (x)_B A -> A (x) C is a coring morphism (Brzezinski
  2002, section 5);
* (B, dual ring, A, Q, F, G) is a Morita context (Doi 1994), its trace
  splits B off A, and m q is x-invariant for q in Q;
* the comodule maps A -> M are the maps a -> m a for the coinvariants m
  of M, and induction W -> W (x)_A C is right adjoint to forgetting the
  coaction, g -> (g (x) id_C) rho_M (Brzezinski and Wisbauer, Corings and
  Comodules, 18.10), so ``hom_from_A`` and ``hom_into_induced`` are the
  comodule hom spaces;
* the f^j = 1 (x) c_j* and iota(A) generate the dual ring, as f^j iota(e_a)
  = e_a (x) c_j*, so every condition over the dual ring may be imposed on
  the generators ``SharpRing`` picks: relation spans and x-invariants
  equal their whole-basis references, and the condition defining Q, left
  A-linear in its argument, may be imposed on the coring's free left
  basis alone;
* A over the dual ring is unital and iota(1)(x) = 1, so the dual pairing
  A (x)_dual (dual ring) -> A is onto and an element sending x to 1
  exists;
* left multiplication B -> End(A) is multiplicative, by associativity of A;
* psi_M, psi'_M, xi_M and phi_N are additive, so their flags on a direct
  sum are the AND of the summands' flags, which is how the runtime decides
  the witnesses A (+) coring, A^2 (x)_A coring and B^2; and A^2 (x)_A
  coring, built as coring (+) coring, is the comodule induced from A (+) A.

The same instances check the algebras of an analysis (A, the dual ring and
B), which are stored as their multiplication operators, against dense
structure-constant tables formed entry by entry: the operators, the
multiplication matrices and the wire form agree.  They also check the
convolution operators h -> f*h and h -> h*f on Hom(C, A), which the
runtime forms as the blocks of one product, against one product per basis
element of A and of C, for every integral the cleft search tries and a
random map.
"""

import pytest

from coring_lab.algebra import balanced_tensor, hom_module, verify_algebra
from coring_lab.cleft import integral_space
from coring_lab.coalgebra import _conv_operator
from coring_lab.coring import (
    ComoduleInstance,
    SquareReducer,
    coinvariants,
    dual_action,
    hom_comodule,
    hom_from_A,
    hom_into_induced,
    verify_coring,
    x_invariants,
)
from coring_lab.entwining import comodule_algebra_from_unit
from coring_lab.exactla import DenseMatrix, combinations, kernel, kron, parse_array, unflatten_rows
from coring_lab.fixtures import FIXTURE_NAMES, fixture
from coring_lab.galois import (
    beta,
    default_B_module_witnesses,
    unit_map_flags,
    weak_map_flags,
)
from coring_lab.morita import compute_Q, find_qhat, pairing_flags, xi_M
from coring_lab.verdict import VerificationError

from crosscheck import (
    algebra_json_from_table,
    balanced_tensor_over_basis,
    conv_operator_by_products,
    hom_from_A_over_basis,
    hom_module_over_basis,
    induced_comodule,
    is_grouplike,
    operators_from_table,
    pairing_flags_on,
    q_condition_by_evaluation,
    sharp_table,
    subalgebra_table,
    trace_map,
    unit_map_flags_on,
    varpi_M,
    verify_B_acts_multiplicatively,
    verify_beta_coring_morphism,
    verify_comodule,
    verify_context_identities,
    weak_map_flags_on,
    x_invariants_over_basis,
)
from instances import DISTINCT, LABELLED, WORKLOADS
from test_closed_forms import _random_map


def test_every_generated_instance_is_covered():
    assert sum(label.startswith(WORKLOADS) for label, _ in LABELLED) == 47
    assert {ctx.field.kind for _, ctx in DISTINCT.values()} == {"Q", "Fp"}


@pytest.mark.parametrize("ctx", [ctx for _, ctx in DISTINCT.values()],
                         ids=[label for label, _ in DISTINCT.values()])
def test_constructions_satisfy_their_theorems(ctx):
    assert ctx.verify_axioms().valid
    cor = ctx.coring()
    assert verify_coring(cor).valid
    x = ctx.comodule_A().coaction.apply(ctx.A.unit)
    assert x == ctx.x
    assert is_grouplike(cor, x, SquareReducer(cor))
    assert verify_algebra(ctx.sharp_ring().algebra).valid
    verify_beta_coring_morphism(ctx)
    data = ctx.morita()
    verify_context_identities(ctx, data)
    verify_B_acts_multiplicatively(ctx, data)
    qhat = find_qhat(data)
    if qhat is not None:
        trace_map(data, qhat)
    for w in ctx.default_witnesses():
        mod = dual_action(w)
        assert x_invariants(mod, ctx).contains_columns(xi_M(data, mod)[0])
    pairing = varpi_M(ctx, data.A_right_dual)
    assert pairing["report"].surjective and pairing["ghat_exists"]


@pytest.mark.parametrize("ctx", [ctx for _, ctx in DISTINCT.values()],
                         ids=[label for label, _ in DISTINCT.values()])
def test_unit_coaction_checked_at_one_is_a_comodule(ctx):
    """The check at 1 passes, and A's coaction satisfies the comodule laws
    on every column and the entwined-module law on every basis element."""
    comodule, x = comodule_algebra_from_unit(ctx)
    assert x == ctx.x
    assert verify_comodule(comodule).valid
    assert verify_comodule(ctx.comodule_A()).valid


@pytest.mark.parametrize("ctx", [ctx for _, ctx in DISTINCT.values()],
                         ids=[label for label, _ in DISTINCT.values()])
def test_x_invariants_of_each_witness_are_its_coinvariants(ctx):
    for w in ctx.default_witnesses():
        assert x_invariants(dual_action(w), ctx) == coinvariants(w), w.name


@pytest.mark.parametrize("ctx", [ctx for _, ctx in DISTINCT.values()],
                         ids=[label for label, _ in DISTINCT.values()])
def test_dual_ring_conditions_hold_on_generating_sets(ctx):
    sharp = ctx.sharp_ring()
    S, nC = sharp.algebra, ctx.C.dim
    for a, e_a in enumerate(DenseMatrix.identity(ctx.field, ctx.A.dim).row_lists()):
        for j, f_j in enumerate(sharp.duals.columns()):
            assert S.mul_vec(f_j, sharp.iota.col(a)) == \
                [int(t == a * nC + j) for t in range(S.dim)]
    data = ctx.morita()
    right = [dual_action(w) for w in ctx.default_witnesses()]
    right += [S.regular_module("right"), data.A_right_dual]
    for M in right:
        assert x_invariants(M, ctx) == x_invariants_over_basis(M, ctx)
        assert balanced_tensor(M, data.Q_left_dual) == \
            balanced_tensor_over_basis(M, data.Q_left_dual)
    left = S.regular_module("left")
    assert balanced_tensor(data.A_right_dual, left) == \
        balanced_tensor_over_basis(data.A_right_dual, left)
    for M, N in ((data.A_right_dual, S.regular_module("right")),
                 (data.A_right_dual, data.A_right_dual), (data.Q_left_dual, left)):
        assert hom_module(M, N) == hom_module_over_basis(M, N)
    assert compute_Q(ctx).space == kernel(q_condition_by_evaluation(ctx))


@pytest.mark.parametrize("ctx", [ctx for _, ctx in DISTINCT.values()],
                         ids=[label for label, _ in DISTINCT.values()])
def test_algebras_match_their_structure_constant_tables(ctx):
    """A from the table its instance is written with, the dual ring from its
    entry-by-entry table and B from the products of its basis vectors."""
    f, A = ctx.field, ctx.A
    table_A = parse_array(f, ctx.to_json()["algebra"]["mult"], (A.dim,) * 3, "mult")
    _, rmuls_A, mult_A = operators_from_table(f, table_A)
    data = ctx.morita()
    for alg, table in ((A, table_A), (ctx.sharp_ring().algebra, sharp_table(ctx, rmuls_A)),
                       (data.B.algebra, subalgebra_table(mult_A, data.B.space))):
        lmuls, rmuls, mult = operators_from_table(f, table)
        assert alg.lmuls == lmuls
        assert alg.rmuls == rmuls
        assert alg.mult_matrix() == mult
        assert alg.to_json() == algebra_json_from_table(f, table, alg.unit)


@pytest.mark.parametrize("ctx", [ctx for _, ctx in DISTINCT.values()],
                         ids=[label for label, _ in DISTINCT.values()])
def test_convolution_operators_match_their_products(ctx):
    """_conv_operator, one product cut into flattened blocks, against one
    product per basis element of A and of C, on both sides, for the maps
    the cleft search combines and a random map."""
    maps = unflatten_rows(integral_space(ctx).space.basis, ctx.A.dim, ctx.C.dim)
    for fmap in maps + [_random_map(ctx)]:
        for side in ("left", "right"):
            assert _conv_operator(fmap, ctx.C, ctx.A, side) == \
                conv_operator_by_products(fmap, ctx.C, ctx.A, side)


def _and(flags: list) -> tuple:
    return tuple(map(all, zip(*flags)))


@pytest.mark.parametrize("ctx", [ctx for _, ctx in DISTINCT.values()],
                         ids=[label for label, _ in DISTINCT.values()])
def test_direct_sums_are_decided_by_their_summands(ctx):
    """Each direct-sum witness's flags, evaluated on the sum itself, are the
    AND of its summands' flags, which is what the runtime returns for it."""
    witnesses = ctx.default_witnesses()
    coring = witnesses[2]
    sums = [w for w in witnesses if w.summands]
    assert [(w.name, w.summands) for w in sums] == [
        ("A(+)coring", (witnesses[1], coring)), ("A^2(x)coring", (coring, coring))]
    for w in sums:
        for runtime, on in ((weak_map_flags, weak_map_flags_on),
                            (pairing_flags, pairing_flags_on)):
            assert runtime(ctx, w) == on(ctx, w) == _and([on(ctx, s) for s in w.summands])
    B, B2, _ = default_B_module_witnesses(ctx)
    assert B2.summands == (B, B)
    assert unit_map_flags(ctx, B2) == unit_map_flags_on(ctx, B2) == unit_map_flags_on(ctx, B)
    # A^2 (x)_A coring is the comodule induced from the free module A (+) A
    reg = ctx.A.regular_module("right")
    induced = induced_comodule(ctx, reg.direct_sum(reg))
    assert sums[1].module.action == induced.module.action
    assert sums[1].coaction == induced.coaction


def test_direct_sum_flags_reach_false():
    """The additivity test meets sums whose weak-structure maps fail, so the
    AND is compared on False flags too.  (The pairing flags hold on every
    instance tested here, and phi_N is bijective on N = B, and so on B^2,
    on every instance.)"""
    assert any(not all(weak_map_flags(ctx, w)) for _, ctx in DISTINCT.values()
               for w in ctx.default_witnesses() if w.summands)


def _comodules_without_coinvariants(ctx) -> list:
    """A with the coaction a -> a (x) c, for each basis element c of C that
    makes it a comodule with no coinvariants: over A = k these are the
    comodules k_c of the group-likes c other than x."""
    f, nC = ctx.field, ctx.C.dim
    out = []
    for k in range(nC):
        c = DenseMatrix.from_columns(f, [[int(t == k) for t in range(nC)]], nC)
        M = ComoduleInstance(ctx, ctx.A.regular_module("right"),
                             kron(DenseMatrix.identity(f, ctx.A.dim), c), name=f"A_c{k}")
        if verify_comodule(M).valid and coinvariants(M).is_zero():
            out.append(M)
    return out


def _adjunction_witnesses(ctx) -> list:
    return ctx.default_witnesses() + _comodules_without_coinvariants(ctx)


@pytest.mark.parametrize("ctx", [ctx for _, ctx in DISTINCT.values()],
                         ids=[label for label, _ in DISTINCT.values()])
def test_hom_spaces_follow_the_coring_adjunctions(ctx):
    reg = ctx.A.regular_module("right")
    for M in _adjunction_witnesses(ctx):
        assert hom_from_A(M) == hom_comodule(ctx.comodule_A(), M) == hom_from_A_over_basis(M)
        for W in (reg, reg.direct_sum(reg)):
            assert hom_into_induced(M, W) == hom_comodule(M, induced_comodule(ctx, W))


def test_adjunction_witnesses_reach_empty_hom_spaces():
    """Over Q and over a prime field, the adjunction tests meet the zero
    comodule and a nonzero comodule with no coinvariants, so the empty
    spans are compared too."""
    for kind in ("Q", "Fp"):
        contexts = [ctx for _, ctx in DISTINCT.values() if ctx.field.kind == kind]
        assert all(ctx.default_witnesses()[0].dim == 0 for ctx in contexts)
        assert any(M.dim and hom_from_A(M).is_zero()
                   for ctx in contexts for M in _adjunction_witnesses(ctx))


def test_beta_check_fires_on_a_perturbed_column():
    for name in FIXTURE_NAMES:
        ctx = fixture(name).context
        plain = beta(ctx).plain_matrix
        ent = list(plain.entries)
        ent[0] += 1   # entry 0 of the column of e_0 (x) e_0
        with pytest.raises(VerificationError) as exc:
            verify_beta_coring_morphism(ctx, DenseMatrix(ctx.field, plain.rows, plain.cols, ent))
        assert {"beta-counit", "beta-comultiplication"} & set(exc.value.verdict.axioms())


def test_trace_check_fires_on_a_doubled_qhat():
    """2 q-hat lies in Q but sends x to 2, so its trace doubles B."""
    fired = 0
    for name in FIXTURE_NAMES:
        data = fixture(name).context.morita()
        qhat = find_qhat(data)
        if qhat is None:
            continue
        with pytest.raises(VerificationError) as exc:
            trace_map(data, combinations([qhat], DenseMatrix(qhat.field, 1, 1, [2]))[0])
        assert "trace-not-identity-on-B" in exc.value.verdict.axioms()
        fired += 1
    assert fired
