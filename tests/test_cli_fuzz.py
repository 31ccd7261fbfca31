"""Fuzz the CLI with mutated fixture JSON.

Keys are dropped, values swapped for arbitrary JSON, lists grown or
shrunk.  Whatever the input, ``analyze`` must end in an exit class, never
with an escaping exception; it must never claim a failed assertion (3) or an
internal disagreement (4); and a parse failure (1) is one line on stderr.
"""

import copy
import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings, strategies as st

from coring_lab.cli import main

FIXDIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")
FIXTURES = {name: json.load(open(os.path.join(FIXDIR, f"{name}.json")))
            for name in ("fix-t", "fix-h", "fix-n")}

scalars = st.none() | st.booleans() | st.integers(-3, 3) \
    | st.floats(allow_nan=False, allow_infinity=False) \
    | st.sampled_from(["", "1", "1/2", "-1/3", "1/0", "x", "Q", "Fp", "matrix"])
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["kind", "p", "dim", "mult", "unit", "psi"]), inner, max_size=3),
    max_leaves=6)


def _paths(obj, prefix=()):
    """Every (container path, key) of the JSON tree."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for k, v in items:
        yield prefix, k
        yield from _paths(v, prefix + (k,))


def _at(obj, path):
    for k in path:
        obj = obj[k]
    return obj


@st.composite
def mutated_instances(draw):
    blob = copy.deepcopy(FIXTURES[draw(st.sampled_from(sorted(FIXTURES)))])
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(blob))
        if not paths:
            break
        kind = draw(st.sampled_from(["drop", "swap", "scalar", "grow", "shrink"]))
        if kind == "scalar":
            # a single leaf: the entries most instances differ in
            leaves = [pk for pk in paths if not isinstance(_at(blob, pk[0])[pk[1]],
                                                           (dict, list))]
            paths = leaves or paths
        prefix, key = draw(st.sampled_from(paths))
        parent = _at(blob, prefix)
        value = parent[key]
        if kind == "drop":
            del parent[key]
        elif kind in ("swap", "scalar"):
            parent[key] = draw(json_values if kind == "swap" else scalars)
        elif kind == "grow" and isinstance(value, list):
            value.append(copy.deepcopy(value[-1]) if value else draw(json_values))
        elif kind == "shrink" and isinstance(value, list) and value:
            value.pop()
    return blob


@given(mutated_instances())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_mutated_fixture_never_crashes(blob):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "instance.json")
        with open(path, "w") as fh:
            json.dump(blob, fh)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["analyze", path, "--format", "json"])
    assert code in (0, 1, 2, 5), err.getvalue()
    if code == 1:
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()
