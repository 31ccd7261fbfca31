"""Work budgets for one full analysis of ``fix-s``: the matrix entries it
builds and the vectors it inserts into relation spans and reductions.

Every matrix goes through ``DenseMatrix.__init__``, which normalizes each
entry, so the entries built are a machine-independent measure of the
exact-arithmetic work.  The budget is 10 % above the count measured when
the direct-sum witnesses (A (+) coring, A^2 (x)_A coring, B^2) were decided
from their summands, the invertibility trials stopped at the first
dependent row and the dual ring's operators came from one product per
(a, c) (184,480 entries; 278,455 before, which fails here).  Before that it
was 267,857 when every condition over the dual ring was imposed on a
generating set (its relation spans over iota(A) and the f^j = 1 (x) c_j*,
the x-invariants on the f^j alone, the condition defining Q on the
coring's free left basis) and the dual pairing stopped being re-proved
(375,557 before).  Before that it was 360,949 when the pipeline
stopped re-proving theorems about its verified input (the coring laws of
A (x) C, the coring morphism beta, the Morita context identities) and the
bialgebra laws stopped building Kronecker products of the
comultiplication, 362,005 since associativity is checked as one identity
of n x n^3 matrices, 375,557 since the comodule hom spaces are built as
images of matrices through the coring adjunctions; 560,039 before, 531,854
when the operators on Hom(C, A) were built in
closed form instead of by evaluation on each elementary map and the
invertibility search took its matrix span once, 704,826 before that,
790,094 before relation
spans stopped being written out as dense subspaces and linear maps stopped
being built as transposes, 1,036,630 before that, and 2,155,670 before
``kron_mul`` replaced the Kronecker products that were only multiplied).  A
change that materializes such products or spans again, evaluates an
operator per basis vector again, or recomputes a derived object, fails here.
Storing every algebra as its multiplication operators had raised the count
to 278,455, within the budget of the time: the dim^3 table of structure
constants it dropped was a nested list, never counted here, while
re-indexing stored pairs builds a few more matrices (each algebra's
operators flattened on their way to ``rmuls``, the joined columns of the
projectivity system).

A matrix stores only its nonzero entries, so the nonzeros stored are the
measure of the memory and arithmetic its later products cost.  The budget
is 10 % above the count measured when the direct-sum witnesses were decided
from their summands (7,446 nonzeros in the matrices built, of the 184,480
entries their shapes hold; 9,741 before, which fails here; 9,268 of
267,857 when the conditions over the dual ring were imposed on generating
sets, 10,506 of 362,005 when every matrix
became its nonzero rows, 10,964 of 375,557 since the coring adjunctions;
9,741 of 278,455 since algebras are stored as their operators).
A change that builds dense intermediates as matrices, or fills a structure
map with entries that the arithmetic will only multiply by zero, fails
here.

Every elimination goes through ``SubspaceBuilder.insert``, so its calls
count the rows eliminated.  The budget is 10 % above the count measured
when the direct-sum witnesses were decided from their summands and each
invertibility trial stopped at its first dependent row (2,350 inserts;
3,692 before, which fails here, measured when the conditions over the
dual ring were imposed on generating sets; 6,068 before that, when the
comodule maps out
of A and into the coring were read through the coring adjunctions instead
of solved as relation spans, 8,494 before that, and 8,452 when balanced
tensor products and hom spaces first took their relations over the
generators of the acting algebra, 12,018 with relations over its whole
basis).

The entry and nonzero counts rose to 186,400 and 7,576 when the exact
linear algebra stopped building fractions between stored numerators and
echelon rows, both within their budgets, which are kept: the balanced
tensor products take each generator's action on the right module as a
transposed matrix, and the convolution operators are cut out of one
product of stacked operators, where the invertibility trials no longer
form their combinations.

Exact arithmetic over Q builds a ``Fraction`` only where a dense view or a
vector product must return one.  The Fraction budget for one verify +
analysis of the dense change of basis of ``QZ3`` from the benchmark's
``dense`` workload is 10 % above the count measured when relation spans,
kernels, spans, quotients and solutions were read from the stored
numerators and the builder's integer rows (1,070 fractions; 6,122 before,
which fails here, when relation rows were written from fraction views and
every echelon basis was divided out into fractions).  A change that routes
elimination or its results through fractions again fails here.  The
budget is now 10 % above the count measured when the unit embedding of A
into the dual ring and the x-invariance conditions were written from the
numerators of their factors (756 fractions; 1,070 before, which fails
here, when ``SharpRing.embed_A`` normalized each product and
``x_invariants`` subtracted such vectors entry by entry).

The entry and nonzero counts fell to 184,160 and 7,465 when the balanced
tensor products stopped transposing each generator's action and read its
columns instead.  They rose to 186,388 and 7,665 when every operator
came to be built by ``combinations`` from a coefficient matrix, both within
their budgets, which are kept: the coefficients are small matrices now
(x reshaped, the unit embedding and its conditions, the generators'
candidates side by side with the basis, the vectors a solve returns),
where they were lists.

The Fraction budget is now 10 % above the count measured when every
operator was built by ``combinations`` from the coefficient matrix its
caller holds and ``generators`` closed span{1} on integer numerators
(139 fractions, 117 of them serializing the result; 756 before, which
fails here).

An analysis reads the dense views of a matrix (``entries``, ``col``,
``columns``, ``row_lists``) only to serialize its result and to return
the few vectors that ``solve`` finds.  The dense-view budget for one
``fix-s`` verify + analysis counts the cells those views return outside
any ``to_json``, 10 % above the count measured when every operator came
to be built from a coefficient matrix by ``combinations`` (13 cells;
1,773 before, which fails here, when the operators of B, Q, the unit
embedding and the witness were built from coordinate lists read through
those views, and the projectivity test read its hom matrices by
``columns()``).  A change that reads coordinates through a dense view
again to build an operator, or to compare two matrices, fails here.
"""

import os
import sys
from fractions import Fraction

from coring_lab import cli
from coring_lab.entwining import instance_from_json
from coring_lab.exactla import DenseMatrix, SubspaceBuilder

from helpers import perfbench_instance

FIX_S = os.path.join(os.path.dirname(__file__), "..", "fixtures", "fix-s.json")
ENTRY_BUDGET = 202_900
NONZERO_BUDGET = 8_190
INSERT_BUDGET = 2_580
FRACTION_BUDGET = 153
DENSE_VIEW_BUDGET = 14


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
    assert inserted[0] <= INSERT_BUDGET, inserted[0]


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
