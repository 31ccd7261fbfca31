"""Guard the names other code reaches into the package by.

``coring_lab.__all__`` is the public API, and ``perfbench/tracer.py`` wraps
package functions by (module, attribute) to time a benchmark run.  A refactor
that renames or moves one of them must fail here, not silently drop a span
from the traced benchmark.  It also pins what the package's plain classes
promise in place of generated ones (value equality, hashing, immutability)
and that importing the analysis modules stays free of ``dataclasses``,
``typing``, ``argparse``, ``hashlib``, ``random`` and the fixtures.
"""

import hashlib
import importlib
import importlib.util
import os
import subprocess
import sys

import pytest

import coring_lab
from coring_lab.exactla import SubspaceBuilder, dumps_canonical
from coring_lab.fixtures import FIXTURE_NAMES
from coring_lab.verdict import AxiomFailure

TRACER = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracer.py")


def _tracer_hooks():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return list(tracer.SPANS) + list(tracer.COUNTS)


@pytest.mark.parametrize("name", coring_lab.__all__)
def test_public_name_resolves(name):
    assert getattr(coring_lab, name, None) is not None


@pytest.mark.parametrize("label,module,attr", _tracer_hooks())
def test_tracer_hook_resolves(label, module, attr):
    mod = importlib.import_module(module)
    if "." in attr:
        # the tracer patches the class's own attribute, not an inherited one
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(mod, cls_name)), label
    else:
        assert callable(getattr(mod, attr, None)), label


@pytest.mark.parametrize("name", ["add", "sub", "mul", "neg", "inv", "div", "one"])
def test_field_spec_does_no_scalar_arithmetic(name):
    """Every sum and product goes through the matrix operations of
    ``exactla``; a field spec only normalizes, parses and serializes."""
    assert not hasattr(coring_lab.FieldSpec, name)
    assert not hasattr(coring_lab.QQ, name)


def test_subspace_membership_has_one_routine():
    """``Subspace.coords_matrix`` is the one membership routine; no second
    reduction modulo the subspace exists beside it."""
    assert not hasattr(coring_lab.Subspace, "reduce")


def test_operators_have_one_construction():
    """``exactla.combinations`` is the one construction of an operator from
    coordinates, and it takes a coefficient matrix: the per-element entry
    points beside it, the unit embedding's numerator helpers and the
    builder's fraction view of its rows are gone."""
    from coring_lab import exactla
    from coring_lab.entwining import SharpRing
    assert not hasattr(exactla, "combine_matrices")
    for name in ("lmul_matrix", "rmul_matrix"):
        assert not hasattr(coring_lab.AlgebraPresentation, name), name
    for name in ("embedded", "embed_A", "unit_actions"):
        assert not hasattr(SharpRing, name), name
    assert not hasattr(SubspaceBuilder, "rows")
    act = coring_lab.ModulePresentation.act_matrix.__code__
    assert act.co_varnames[:act.co_argcount] == ("self", "u")


def test_one_record_per_answer():
    """One ``SearchResult`` carries every search answer and one
    ``clause_table`` checks every equivalence table: the per-search result
    classes, the structure verdict that copied ``structure_flags``, the
    morita copy of ``ClauseDisagreement``, the dense invertibility test the
    runtime never called, the Galois map's unread tensor and the
    ``join_columns`` mode flag are gone."""
    from coring_lab import cleft, exactla, galois, morita, verdict
    assert "CleftResult" not in coring_lab.__all__ and "SearchResult" in coring_lab.__all__
    for module, name in ((cleft, "CleftResult"), (cleft, "NormalBasisResult"),
                         (galois, "StructureVerdict"), (exactla, "is_invertible"),
                         (exactla, "join_columns"), (morita, "_acting_on_x")):
        assert not hasattr(module, name), name
    for name in ("coords", "cleft", "normal_basis"):
        assert not hasattr(cleft.SearchResult, name), name
    assert not hasattr(coring_lab.DenseMatrix, "hstack")
    assert morita.ClauseDisagreement is verdict.ClauseDisagreement
    assert verdict.ClauseDisagreement.__module__ == "coring_lab.verdict"
    ctx = coring_lab.fixture("fix-h").context
    assert not hasattr(galois.beta(ctx), "tensor")


def test_algebra_stores_its_product_once():
    """An algebra stores its product as its left multiplication operators;
    no dense table of structure constants is kept beside them."""
    A = coring_lab.AlgebraPresentation(coring_lab.QQ, 2, [[[1, 0], [0, 1]], [[0, 1], [0, 0]]],
                                       [1, 0])
    for name in ("mult", "_int_cells", "_mult_den"):
        assert not hasattr(A, name), name


SRC = os.path.join(os.path.dirname(__file__), "..", "src")
# what ``perfbench/child.py`` imports before it times an analysis
CHILD_IMPORTS = ("from coring_lab import cli; import coring_lab.cleft, coring_lab.exactla, "
                 "coring_lab.morita, coring_lab.verdict")


def test_analysis_imports_no_reflection_or_parser_machinery():
    """The modules an analysis imports pull in neither ``dataclasses`` (and
    its ``inspect``) nor ``typing``; ``argparse`` waits for ``main``.  The
    digest and the seeded draws take the builtin sha256 and ``_random``
    cores, not ``hashlib`` (which loads OpenSSL as ``_hashlib``) or
    ``random``, and the fixtures wait for their first use.  ``fractions``
    (with its ``decimal`` and ``numbers``) waits for the first
    ``Fraction`` built or recognized."""
    unwanted = ("dataclasses", "typing", "inspect", "argparse", "hashlib", "_hashlib", "random",
                "coring_lab.fixtures", "fractions", "decimal", "numbers")
    code = (f"import sys; sys.path.insert(0, {SRC!r}); {CHILD_IMPORTS}; "
            f"print(' '.join(m for m in {unwanted!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.split() == []


FIXDIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def test_integer_instances_never_load_fractions():
    """fix-s and fix-n have integer data and integer answers: loaded,
    verified and analysed, they leave ``fractions`` unimported."""
    paths = [os.path.join(FIXDIR, f"{name}.json") for name in ("fix-s", "fix-n")]
    code = (f"import sys; sys.path.insert(0, {SRC!r}); {CHILD_IMPORTS}\n"
            f"for path in {paths!r}:\n"
            "    ctx = cli.load_instance(path)\n"
            "    cli.full_verify(ctx)\n"
            "    cli.run_analysis(ctx, seed=0).to_json()\n"
            "print('fractions' in sys.modules)")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.split() == ["False"]


def _hashlib_digest(ctx):
    return hashlib.sha256(dumps_canonical(ctx.to_json()).encode()).hexdigest()


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_digest_is_the_sha256_of_the_canonical_instance(name):
    ctx = coring_lab.fixture(name).context
    assert ctx.digest() == _hashlib_digest(ctx)


def test_digest_falls_back_to_hashlib():
    """Without a builtin sha256 module the digest is ``hashlib``'s, and the
    same."""
    code = (f"import sys; sys.modules['_sha256'] = sys.modules['_sha2'] = None; "
            f"sys.path.insert(0, {SRC!r}); import hashlib; "
            "from coring_lab import entwining, fixture; "
            "from coring_lab.fixtures import FIXTURE_NAMES; "
            "print(entwining.sha256 is hashlib.sha256, "
            "*(fixture(n).context.digest() for n in FIXTURE_NAMES))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         check=True).stdout.split()
    assert out == ["True"] + [_hashlib_digest(coring_lab.fixture(n).context)
                              for n in FIXTURE_NAMES]


def test_field_spec_is_an_immutable_value():
    assert coring_lab.GF(7) == coring_lab.GF(7)
    assert hash(coring_lab.GF(7)) == hash(coring_lab.GF(7))
    assert {coring_lab.GF(7): "seven"}[coring_lab.GF(7)] == "seven"
    assert coring_lab.QQ != coring_lab.GF(7)
    assert coring_lab.QQ == coring_lab.FieldSpec("Q")
    with pytest.raises(AttributeError):
        coring_lab.QQ.kind = "Fp"
    with pytest.raises(AttributeError):
        coring_lab.GF(7).p = 11


def test_field_spec_compares_by_identity_then_by_value():
    """``==`` and ``!=`` answer by identity first and otherwise by kind and
    modulus; any other operand is never equal."""
    QQ, GF, FieldSpec = coring_lab.QQ, coring_lab.GF, coring_lab.FieldSpec
    for a, b in [(QQ, FieldSpec("Q")), (GF(7), GF(7))]:
        assert a is not b
        assert a == b and b == a and not a != b and not b != a
        assert hash(a) == hash(b)
    for a in (QQ, GF(7)):
        assert a == a and not a != a
    for a, b in [(QQ, GF(7)), (GF(7), GF(11))]:
        assert a != b and b != a and not a == b and not b == a
    for other in (0, "Q", None, {"kind": "Q"}):
        assert QQ != other and other != QQ and not QQ == other
    assert GF(7) != 7 and not GF(7) == 7


def test_dense_matrix_rejects_assignment():
    M = coring_lab.DenseMatrix.identity(coring_lab.QQ, 2)
    for name in ("field", "rows", "cols", "den", "_nonzero_rows", "other"):
        with pytest.raises(AttributeError):
            setattr(M, name, 1)
    assert (M.rows, M.cols, M.den) == (2, 2, 1)


def test_axiom_failure_is_an_immutable_value():
    a, b = AxiomFailure("unit-left", (1,), "x"), AxiomFailure("unit-left", (1,), "x")
    assert a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert a != AxiomFailure("unit-left", (2,), "x")
    assert a != AxiomFailure("unit-right", (1,), "x")
    with pytest.raises(AttributeError):
        a.axiom = "unit-right"


def test_quotient_space_equal_by_value():
    spans = [SubspaceBuilder(coring_lab.QQ, 3) for _ in range(3)]
    spans[0].insert([1, 1, 0])
    spans[1].insert([2, 2, 0])
    spans[2].insert([0, 1, 1])
    first, same, other = (coring_lab.quotient(s) for s in spans)
    assert first == same and first is not same
    assert first != other
