"""Work budgets for one full analysis: machine-independent counts of the
exact-arithmetic work, each budget about 10 % above a measured count.

Counts of one ``fix-s`` verify + analysis:

* Matrix entries built (rows x cols of every ``DenseMatrix``): 171,145,
  budget 188,250 (177,225 while A's coaction was checked on every column
  and xi took the x-invariants of each witness).  A failure means a
  structure map is materialized where it used to be applied (a Kronecker
  product, a dense relation span), an operator is evaluated per basis
  vector, or a derived object is computed twice.
* Nonzeros stored: 6,698, budget 7,370 (7,003 before the same change).  A
  failure means dense intermediates are built as matrices, or a structure
  map is filled with entries that the arithmetic only multiplies by zero.
* Rows inserted into a ``SubspaceBuilder``, the one elimination routine:
  206, budget 227 and floor 185, about 10 % either side (1,123 while
  kernels, ranks, solutions and spans inserted every row and only the
  relation spans solved their one- and two-term rows by the union-find
  of ``presolved_span``; 1,887 while every relation row went through
  ``insert``; 2,023 while xi on each witness took a kernel for the
  x-invariants that its coinvariants already are).  A failure means a
  reduction inserts its one- and two-term rows again, relation spans are
  taken over a whole basis instead of generators, a direct-sum witness is
  evaluated instead of its summands, the zero witness or a witness equal
  to an earlier one is evaluated at all, xi on the dual ring over itself
  or on A takes a new balanced tensor, or an invertibility trial runs
  past its first dependent row.  A count that falls through the floor
  means rows of three or more terms are reduced around ``insert`` and
  the budget no longer measures the elimination.
* Calls of ``exactla._combine``, which sums scaled numerator rows in every
  product and sum: 1,277, budget 1,405 (1,405 before the check at 1 and
  the coinvariants as xi's target, 11,066 when every product row built a
  term list, empty and single unit rows included, and 2,220 while the zero
  and repeated witnesses were evaluated and a zero coefficient column and
  a one-term unit segment of ``mul_kron`` still called it).  A failure
  means a product again combines the rows that it could share or leave
  empty.
* Calls of ``exactla._eliminate``, which clears one column of one
  integer row in ``SubspaceBuilder.insert``: 152, budget 167 and floor
  137, about 10 % either side (337 while only the relation spans took the
  short-row presolve, 1,237 before it, 1,267 before the coinvariants
  became xi's target).  ``insert`` back-substitutes a new pivot
  only when its set of held columns says a stored row may hold it, so a
  count through the floor means that filter skips an elimination the
  reduced echelon form needs, and a count over the budget means the
  bookkeeping of the elimination adds eliminations of its own, or the
  short rows of a reduction are eliminated again.
* Cells read through the dense views ``entries``, ``columns``,
  ``row_lists`` and ``col`` outside a ``to_json``: 0, budget 0.  Every
  operator is built from a coefficient matrix and every solution stays a
  matrix, so the analysis reads dense views only to serialize.  A failure
  means coordinates are read as a list again to build an operator, return
  a vector or compare two matrices.

Rows inserted into a ``SubspaceBuilder`` inside the relation spans of one
verify + analysis of ``QZ6`` from the benchmark's ``ladder`` workload: 0,
budget 0 (1,172 before the short-row presolve).  Every relation row of a
group algebra over its dual ring has one or two terms, so the union-find
solves them all; a failure means relation rows go through ``insert``
again.

Rows inserted into a ``SubspaceBuilder`` inside ``kernel``, ``rank`` and
``solve_matrix`` in one verify + analysis of the same ``QZ6``: 54, budget
60 (2,395 while they inserted every row, before ``row_reduce`` solved the
one- and two-term rows of every reduction by the union-find).  Most rows
of these reductions (the coinvariants, Q, the integrals, the ranks of
psi_M and beta) have one or two terms, so a failure means they go through
``insert`` row by row again.

Matrices built (``DenseMatrix`` constructions) by one ``full_verify`` of
``fix-s`` after load: 25, budget 27 and floor 23, about 10 % either side
(54 while A's coaction was checked on every column and the entwined-module
law once per basis element of A).  A count over the budget means an input
law is checked on a whole basis again where the axioms make one element
enough, or the algebra and coalgebra are checked twice; a count through the
floor means an input check was dropped.

Fractions built by one verify + analysis of the dense change of basis of
``QZ3`` from the benchmark's ``dense`` workload: 0, budget 0 (126 while
the canonical instance behind the digest, the cleft witness and q-hat
were serialized through dense views).  Elimination and its results are
read from stored numerators, and serialization writes each JSON scalar
from a stored numerator and the denominator, so a failure means a
reduction, a span, a solution or a serialized table is routed through
``Fraction`` again.

Objects that ``gc.collect()`` frees after a load, verify and analysis of
``fix-s`` and of that ``QZ6``, run with the cyclic collector off: 66,
budget 100, all closures of the stdlib's ``json.dumps(indent=1)``.  The
CLI pauses the collector for these calls, so a failure means the package
now makes reference cycles that build up during the pause.
"""

import gc
import json
import os
import sys
from fractions import Fraction

from coring_lab import algebra, cli, exactla
from coring_lab.entwining import instance_from_json
from coring_lab.exactla import DenseMatrix, SubspaceBuilder

from helpers import perfbench_instance

FIX_S = os.path.join(os.path.dirname(__file__), "..", "fixtures", "fix-s.json")
ENTRY_BUDGET = 188_250
NONZERO_BUDGET = 7_370
INSERT_BUDGET = 227
INSERT_FLOOR = 185
COMBINE_BUDGET = 1_405
ELIMINATE_BUDGET = 167
ELIMINATE_FLOOR = 137
RELATION_INSERT_BUDGET = 0
REDUCTION_INSERT_BUDGET = 60
VERIFY_MATRIX_BUDGET = 27
VERIFY_MATRIX_FLOOR = 23
FRACTION_BUDGET = 0
DENSE_VIEW_BUDGET = 0
CYCLIC_GARBAGE_BUDGET = 100


def _analyze_fix_s():
    ctx = cli.load_instance(FIX_S)
    cli.full_verify(ctx)
    cli.run_analysis(ctx, seed=0)


def test_fix_s_analysis_stays_within_entry_budget(monkeypatch):
    built = [0]
    orig = DenseMatrix.__init__

    def counting(self, field, rows, cols, entries):
        built[0] += rows * cols
        orig(self, field, rows, cols, entries)
    monkeypatch.setattr(DenseMatrix, "__init__", counting)
    _analyze_fix_s()
    assert built[0] <= ENTRY_BUDGET, built[0]


def test_fix_s_analysis_stays_within_nonzero_budget(monkeypatch):
    stored = [0]
    orig = DenseMatrix.__init__

    def counting(self, field, rows, cols, entries):
        orig(self, field, rows, cols, entries)
        stored[0] += self.nnz
    monkeypatch.setattr(DenseMatrix, "__init__", counting)
    _analyze_fix_s()
    assert stored[0] <= NONZERO_BUDGET, stored[0]


def test_fix_s_analysis_stays_within_insert_budget(monkeypatch):
    inserted = [0]
    orig = SubspaceBuilder.insert

    def counting(self, vec):
        inserted[0] += 1
        return orig(self, vec)
    monkeypatch.setattr(SubspaceBuilder, "insert", counting)
    _analyze_fix_s()
    assert INSERT_FLOOR <= inserted[0] <= INSERT_BUDGET, inserted[0]


def test_fix_s_analysis_stays_within_combine_budget(monkeypatch):
    combined = [0]
    orig = exactla._combine

    def counting(terms):
        combined[0] += 1
        return orig(terms)
    monkeypatch.setattr(exactla, "_combine", counting)
    _analyze_fix_s()
    assert combined[0] <= COMBINE_BUDGET, combined[0]


def test_fix_s_analysis_stays_within_eliminate_budget(monkeypatch):
    eliminated = [0]
    orig = exactla._eliminate

    def counting(v, c, row):
        eliminated[0] += 1
        return orig(v, c, row)
    monkeypatch.setattr(exactla, "_eliminate", counting)
    _analyze_fix_s()
    assert ELIMINATE_FLOOR <= eliminated[0] <= ELIMINATE_BUDGET, eliminated[0]


def test_qz6_relation_spans_stay_within_insert_budget(monkeypatch):
    ctx = instance_from_json(perfbench_instance("ladder", "QZ6-x0-Q"))
    inside, spans, inserted = [False], [0], [0]
    runtime, orig = algebra._relation_span, SubspaceBuilder.insert

    def span(*args, **kwargs):
        spans[0] += 1
        inside[0] = True
        try:
            return runtime(*args, **kwargs)
        finally:
            inside[0] = False

    def counting(self, vec):
        inserted[0] += inside[0]
        return orig(self, vec)
    monkeypatch.setattr(algebra, "_relation_span", span)
    monkeypatch.setattr(SubspaceBuilder, "insert", counting)
    cli.full_verify(ctx)
    cli.run_analysis(ctx, seed=0)
    assert spans[0] and inserted[0] <= RELATION_INSERT_BUDGET, inserted[0]


def test_qz6_kernels_ranks_and_solutions_stay_within_insert_budget(monkeypatch):
    ctx = instance_from_json(perfbench_instance("ladder", "QZ6-x0-Q"))
    inside, calls, inserted = [0], [0], [0]
    orig = SubspaceBuilder.insert

    def entered(fn):
        def call(*args, **kwargs):
            calls[0] += 1
            inside[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                inside[0] -= 1
        return call

    def counting(self, vec):
        inserted[0] += inside[0] > 0
        return orig(self, vec)
    # each name is patched where it is defined and wherever a module of
    # the package bound it with ``from .exactla import``
    for name in ("kernel", "rank", "solve_matrix"):
        runtime = getattr(exactla, name)
        for module in list(sys.modules.values()):
            if module.__name__.startswith("coring_lab") and getattr(module, name, None) is runtime:
                monkeypatch.setattr(module, name, entered(runtime))
    monkeypatch.setattr(SubspaceBuilder, "insert", counting)
    cli.full_verify(ctx)
    cli.run_analysis(ctx, seed=0)
    assert calls[0] and inserted[0] <= REDUCTION_INSERT_BUDGET, inserted[0]


def test_fix_s_verify_stays_within_matrix_budget(monkeypatch):
    ctx = cli.load_instance(FIX_S)
    built = [0]
    orig = DenseMatrix.__init__

    def counting(self, field, rows, cols, entries):
        built[0] += 1
        orig(self, field, rows, cols, entries)
    monkeypatch.setattr(DenseMatrix, "__init__", counting)
    cli.full_verify(ctx)
    assert VERIFY_MATRIX_FLOOR <= built[0] <= VERIFY_MATRIX_BUDGET, built[0]


def test_dense_qz3_analysis_stays_within_fraction_budget(monkeypatch):
    ctx = instance_from_json(perfbench_instance("dense", "dense-QZ3"))
    built = [0]
    orig = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built[0] += 1
        return orig(cls, *args, **kwargs)
    monkeypatch.setattr(Fraction, "__new__", counting)
    cli.full_verify(ctx)
    cli.run_analysis(ctx, seed=0)
    assert built[0] <= FRACTION_BUDGET, built[0]


def _in_to_json() -> bool:
    frame = sys._getframe()
    while frame is not None:
        if frame.f_code.co_name == "to_json":
            return True
        frame = frame.f_back
    return False


def test_fix_s_analysis_stays_within_dense_view_budget(monkeypatch):
    ctx = cli.load_instance(FIX_S)
    read = [0]

    def counted(view, cells):
        def reading(self, *args):
            if not _in_to_json():
                read[0] += cells(self)
            return view(self, *args)
        return reading
    square = lambda M: M.rows * M.cols  # noqa: E731
    monkeypatch.setattr(DenseMatrix, "entries", property(counted(DenseMatrix.entries.fget, square)))
    monkeypatch.setattr(DenseMatrix, "columns", counted(DenseMatrix.columns, square))
    monkeypatch.setattr(DenseMatrix, "row_lists", counted(DenseMatrix.row_lists, square))
    monkeypatch.setattr(DenseMatrix, "col", counted(DenseMatrix.col, lambda M: M.rows))
    cli.full_verify(ctx)
    cli.run_analysis(ctx, seed=0)
    assert read[0] <= DENSE_VIEW_BUDGET, read[0]


def test_analysis_makes_almost_no_cyclic_garbage(tmp_path):
    """The premise of the CLI's collector pause: an analysis makes next
    to no reference cycles, so nothing builds up while it is paused."""
    qz6 = tmp_path / "QZ6.json"
    qz6.write_text(json.dumps(perfbench_instance("ladder", "QZ6-x0-Q")))
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        contexts = []
        for path in (FIX_S, str(qz6)):
            ctx = cli.load_instance(path)
            cli.full_verify(ctx)
            cli.run_analysis(ctx, seed=0)
            contexts.append(ctx)
        freed = gc.collect()
    finally:
        if was_enabled:
            gc.enable()
    assert len(contexts) == 2 and freed <= CYCLIC_GARBAGE_BUDGET, freed
