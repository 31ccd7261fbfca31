"""Work budget: the matrix entries one full analysis of ``fix-s`` builds.

Every matrix goes through ``DenseMatrix.__init__``, which normalizes each
entry, so the entries built are a machine-independent measure of the
exact-arithmetic work.  The budget is 10 % above the count measured when
the operators on Hom(C, A) were built in closed form instead of by
evaluation on each elementary map, and the invertibility search took its
matrix span once (531,854 entries; 704,826 before, 790,094 before relation
spans stopped being written out as dense subspaces and linear maps stopped
being built as transposes, 1,036,630 before that, and 2,155,670 before
``kron_mul`` replaced the Kronecker products that were only multiplied).  A
change that materializes such products or spans again, evaluates an
operator per basis vector again, or recomputes a derived object, fails here.
"""

import os

from coring_lab import cli
from coring_lab.exactla import DenseMatrix

FIX_S = os.path.join(os.path.dirname(__file__), "..", "fixtures", "fix-s.json")
ENTRY_BUDGET = 585_000


def test_fix_s_analysis_stays_within_entry_budget(monkeypatch):
    ctx = cli.load_instance(FIX_S)
    built = [0]
    orig = DenseMatrix.__init__

    def counting(self, field, rows, cols, entries):
        built[0] += rows * cols
        orig(self, field, rows, cols, entries)
    monkeypatch.setattr(DenseMatrix, "__init__", counting)
    cli.full_verify(ctx)
    cli.run_analysis(ctx, seed=0)
    assert built[0] <= ENTRY_BUDGET, built[0]
