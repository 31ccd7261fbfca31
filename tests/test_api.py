"""Guard the names other code reaches into the package by.

``coring_lab.__all__`` is the public API, and ``perfbench/tracer.py`` wraps
package functions by (module, attribute) to time a benchmark run.  A refactor
that renames or moves one of them must fail here, not silently drop a span
from the traced benchmark.
"""

import importlib
import importlib.util
import os

import pytest

import coring_lab

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
