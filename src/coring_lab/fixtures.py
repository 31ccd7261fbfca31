"""Named example instances with frozen expected values.

Four instances cover the qualitatively different outcomes:

* fix-t: the trivial coalgebra over the dual numbers; everything holds.
* fix-h: the group algebra of Z/2 entwined with itself through its own
  coaction; a Galois, cleft extension with 1-dimensional coinvariants.
* fix-n: scalars coacting through the nontrivial group-like of the Z/2
  coalgebra; the normalized element exists yet the extension is neither
  Galois nor cleft, which separates the two surjectivity theorems.
* fix-s: the 4-dimensional Hopf algebra with a nilpotent generator, over
  itself; cleft with the convolution inverse of the identity given by the
  antipode.

Every value in ``expected`` was computed with the brute-force oracles in the
test suite and frozen here; the pipeline must reproduce each one exactly.
"""

from __future__ import annotations

import json

from .algebra import AlgebraPresentation
from .coalgebra import CoalgebraPresentation, grouplike_coalgebra
from .entwining import EntwinedContext, doi_koppinen, flip_entwining
from .exactla import QQ, ShapeError

FIXTURE_NAMES = ("fix-t", "fix-h", "fix-n", "fix-s")


class Fixture:
    def __init__(self, name: str, context: EntwinedContext, expected: dict[str, object]):
        self.name = name
        self.context = context
        self.expected = expected

    def instance_json(self) -> dict:
        return self.context.to_json()


def _dual_numbers():
    mult = [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]
    return AlgebraPresentation(QQ, 2, mult, [1, 0], name="dual numbers")


def _group_algebra_z2():
    mult = [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]
    return AlgebraPresentation(QQ, 2, mult, [1, 0], name="QZ2")


def _sweedler_algebra():
    n = 4

    def vec(*pairs):
        v = [0] * n
        for i, c in pairs:
            v[i] = c
        return v

    mult = [[None] * n for _ in range(n)]
    mult[0][0] = vec((0, 1)); mult[0][1] = vec((1, 1))
    mult[0][2] = vec((2, 1)); mult[0][3] = vec((3, 1))
    mult[1][0] = vec((1, 1)); mult[1][1] = vec((0, 1))
    mult[1][2] = vec((3, 1)); mult[1][3] = vec((2, 1))
    mult[2][0] = vec((2, 1)); mult[2][1] = vec((3, -1))
    mult[2][2] = vec(); mult[2][3] = vec()
    mult[3][0] = vec((3, 1)); mult[3][1] = vec((2, -1))
    mult[3][2] = vec(); mult[3][3] = vec()
    return AlgebraPresentation(QQ, n, mult, [1, 0, 0, 0], name="sweedler")


def _sweedler_coalgebra():
    n = 4
    com = [[[0] * n for _ in range(n)] for _ in range(n)]
    com[0][0][0] = 1
    com[1][1][1] = 1
    com[2][2][0] = 1
    com[2][1][2] = 1
    com[3][3][1] = 1
    com[3][0][3] = 1
    return CoalgebraPresentation(QQ, n, com, [1, 1, 0, 0], name="sweedler")


def _context(name: str) -> EntwinedContext:
    if name == "fix-t":
        A = _dual_numbers()
        C = CoalgebraPresentation(QQ, 1, [[[1]]], [1], name="trivial")
        return EntwinedContext(A, C, flip_entwining(A, C), [1, 0], name="fix-t")
    if name == "fix-h":
        H = _group_algebra_z2()
        C = grouplike_coalgebra(QQ, 2, name="Z2 group-likes")
        psi = doi_koppinen(H, C, H, C.comult_matrix())
        return EntwinedContext(H, C, psi, [1, 0, 0, 0], name="fix-h",
                               entwining_kind="doi_koppinen")
    if name == "fix-n":
        A = AlgebraPresentation(QQ, 1, [[[1]]], [1], name="scalars")
        C = grouplike_coalgebra(QQ, 2, name="Z2 group-likes")
        return EntwinedContext(A, C, flip_entwining(A, C), [0, 1], name="fix-n")
    if name == "fix-s":
        H = _sweedler_algebra()
        C = _sweedler_coalgebra()
        psi = doi_koppinen(H, C, H, C.comult_matrix())
        u = [0] * 16
        u[0] = 1
        return EntwinedContext(H, C, psi, u, name="fix-s",
                               entwining_kind="doi_koppinen")
    raise ShapeError(f"unknown fixture {name!r}")


_ALL_TRUE = {"1": True, "2": True, "3": True, "4": True, "5": True}
_ALL_FALSE = {"1": False, "2": False, "3": False, "4": False, "5": False}

_EXPECTED: dict[str, dict[str, object]] = {
    "fix-t": {
        "dims": {"A": 2, "C": 1, "coring": 2, "dual_ring": 2, "B": 2, "Q": 2,
                 "integrals": 2},
        "qhat_exists": True,
        "F_surjective": True,
        "G_surjective": True,
        "galois": True,
        "weak": True,
        "strong": True,
        "cleft": True,
        "normal_basis": True,
        "total_integral_exists": True,
        "x_case_applies": True,
        "theorem_surj": _ALL_TRUE,
        "theorem_C_finite": _ALL_TRUE,
        "theorem_main": _ALL_TRUE,
        "theorem_x_case": _ALL_TRUE,
    },
    "fix-h": {
        "dims": {"A": 2, "C": 2, "coring": 4, "dual_ring": 4, "B": 1, "Q": 2,
                 "integrals": 2},
        "qhat_exists": True,
        "qhat": [["1", "0"], ["0", "0"]],
        "F_surjective": True,
        "G_surjective": True,
        "galois": True,
        "weak": True,
        "strong": True,
        "cleft": True,
        "lambda": [["1", "0"], ["0", "1"]],
        "lambda_bar": [["1", "0"], ["0", "1"]],
        "normal_basis": True,
        "total_integral_exists": True,
        "x_case_applies": True,
        "theorem_surj": _ALL_TRUE,
        "theorem_C_finite": _ALL_TRUE,
        "theorem_main": _ALL_TRUE,
        "theorem_x_case": _ALL_TRUE,
    },
    "fix-n": {
        "dims": {"A": 1, "C": 2, "coring": 2, "dual_ring": 2, "B": 1, "Q": 1,
                 "integrals": 1},
        "qhat_exists": True,
        "qhat": [["0", "1"]],
        "F_surjective": False,
        "G_surjective": True,
        "galois": False,
        "weak": False,
        "strong": False,
        "cleft": False,
        "normal_basis": False,
        "total_integral_exists": True,
        "x_case_applies": True,
        "theorem_surj": _ALL_TRUE,
        "theorem_C_finite": _ALL_FALSE,
        "theorem_main": _ALL_FALSE,
        "theorem_x_case": _ALL_FALSE,
    },
    "fix-s": {
        "dims": {"A": 4, "C": 4, "coring": 16, "dual_ring": 16, "B": 1, "Q": 4,
                 "integrals": 4},
        "qhat_exists": True,
        "F_surjective": True,
        "G_surjective": True,
        "galois": True,
        "weak": True,
        "strong": True,
        "cleft": True,
        "lambda": [["1", "0", "0", "0"], ["0", "1", "0", "0"],
                   ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
        "lambda_bar": [["1", "0", "0", "0"], ["0", "1", "0", "0"],
                       ["0", "0", "0", "1"], ["0", "0", "-1", "0"]],
        "normal_basis": True,
        "total_integral_exists": True,
        "x_case_applies": True,
        "theorem_surj": _ALL_TRUE,
        "theorem_C_finite": _ALL_TRUE,
        "theorem_main": _ALL_TRUE,
        "theorem_x_case": _ALL_TRUE,
    },
}


def fixture(name: str) -> Fixture:
    key = name.lower()
    if key not in FIXTURE_NAMES:
        raise ShapeError(f"unknown fixture {name!r}; "
                         f"choose one of {', '.join(FIXTURE_NAMES)}")
    return Fixture(key, _context(key), json.loads(json.dumps(_EXPECTED[key])))


def all_fixtures():
    return [fixture(n) for n in FIXTURE_NAMES]


def write_fixture_files(directory: str):
    """Write <name>.json and <name>.expected.json files for the CLI."""
    import os

    os.makedirs(directory, exist_ok=True)
    for fx in all_fixtures():
        with open(os.path.join(directory, f"{fx.name}.json"), "w") as fh:
            json.dump(fx.instance_json(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        with open(os.path.join(directory, f"{fx.name}.expected.json"), "w") as fh:
            json.dump(fx.expected, fh, indent=1, sort_keys=True)
            fh.write("\n")
