"""Property tests of the sparse matrix storage against the naive oracles.

``DenseMatrix`` stores only the nonzero entries of each row, as numerators
over one denominator.  These tests draw matrices over Q (entries a/b, so
that ``den > 1`` is common) and over GF(7), mostly zero, with all-zero
matrices, zero rows and 0 x n and n x 0 shapes among them, and compare
every operation that reads or writes the stored pairs with the textbook
routines of ``oracles.py``: the products, the Kronecker forms, transpose,
difference, the linear combinations of matrices (``combinations``), reshaping, interleaving rows and taking
them apart again, reduction, kernels and row spaces, joining columns side
by side, interleaved or flattened, cutting into flattened blocks, direct
sums, the columns in which two matrices differ, the invertibility test
that stops at the first dependent row, and value equality and hashing.
The results read off a ``SubspaceBuilder``'s integer rows (span bases,
null vectors, the projection and section of a quotient, ``solve_matrix``)
are checked on rows scaled so that the stored pivot entries are not 1, and
the invertibility trial that combines each row only when it is read is
checked against the combination it would form.  The products, stacks and
differences are also drawn on matrices rich in empty rows and rows of a
single unit numerator, which they share instead of combining, and numerator
rows over GF(7) are built both from residues, which are kept as given, and
from any other representatives, which are reduced to the same matrix.
A ``SubspaceBuilder`` is fed sequences built to cause fill-in, where a
later pivot column enters a stored row only through an earlier
back-substitution, and checked against the textbook RREF after every
insertion.  Every reduction solves its one- and two-term rows by a
union-find before it eliminates; ``kernel``, ``rank``, ``solve_matrix``,
``image``, ``row_space`` and ``Subspace.from_spanning`` are compared with
the same routines run on ``oracles.plain_row_reduce``, which inserts every
row into one builder.
"""

from fractions import Fraction
from math import lcm
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from coring_lab import exactla
from coring_lab.exactla import (
    QQ,
    GF,
    DenseMatrix,
    ShapeError,
    Subspace,
    SubspaceBuilder,
    block_diag,
    combination_is_invertible,
    combinations,
    differing_columns,
    flat_blocks,
    flat_columns,
    hstack,
    image,
    interleave_columns,
    kernel,
    kron,
    kron_mul,
    mul_kron,
    null_space,
    null_vectors,
    presolved_span,
    quotient,
    rank,
    row_reduce,
    row_space,
    solve_matrix,
    stack_slices,
    unstack_slices,
    _Numerators,
)

from helpers import int_row
from oracles import (
    is_invertible,
    naive_combination,
    naive_combinations,
    naive_hstack,
    naive_interleave_columns,
    naive_kron,
    naive_matmul,
    naive_null_space,
    naive_rank,
    naive_rref,
    naive_transpose,
    plain_row_reduce,
)

F7 = GF(7)
FIELDS = st.sampled_from([QQ, F7])
DIMS = st.integers(0, 4)
SETTINGS = settings(max_examples=60, deadline=None)


def scalars(field):
    """Zero half the time; otherwise a/b with |a| <= 4, b <= 4 over Q and a
    residue (zero included) over GF(7)."""
    if field.kind == "Fp":
        nonzero = st.integers(0, 6)
    else:
        nonzero = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
    return st.one_of(st.just(0), nonzero)


@st.composite
def matrices(draw, field, rows=None, cols=None):
    """A DenseMatrix over field, with its entries as a list of rows."""
    rows = draw(DIMS) if rows is None else rows
    cols = draw(DIMS) if cols is None else cols
    zero = draw(st.booleans()) and draw(st.booleans())   # all-zero a quarter of the time
    ent = [0 if zero else draw(scalars(field)) for _ in range(rows * cols)]
    return DenseMatrix(field, rows, cols, ent)


def p_of(field):
    return field.p if field.kind == "Fp" else None


def assert_canonical(field, M):
    """M's views hold canonical scalars and its ``den`` is the lcm of their
    denominators; zero entries are not stored."""
    xs = M.entries
    for x in xs:
        if field.kind == "Fp":
            assert type(x) is int and 0 <= x < field.p
        else:
            assert type(x) is int or x.denominator != 1
    assert M.den == (lcm(*(Fraction(x).denominator for x in xs)) if field.kind == "Q" else 1)
    assert M.nnz == sum(1 for x in xs if x)


def normalized(field, rows):
    return [[field.normalize(x) for x in r] for r in rows]


@given(st.data(), FIELDS)
@SETTINGS
def test_mul_matches_oracle(data, field):
    A = data.draw(matrices(field))
    B = data.draw(matrices(field, rows=A.cols))
    got = A.mul(B)
    assert (got.rows, got.cols) == (A.rows, B.cols)
    want = naive_matmul(A.row_lists(), B.row_lists(), B.cols, p_of(field))
    assert got.row_lists() == normalized(field, want)
    assert_canonical(field, got)


@given(st.data(), FIELDS)
@SETTINGS
def test_kron_matches_oracle(data, field):
    M, N = data.draw(matrices(field)), data.draw(matrices(field))
    got = kron(M, N)
    want = naive_kron(M.row_lists(), N.row_lists(), M.cols, N.cols)
    assert (got.rows, got.cols) == (M.rows * N.rows, M.cols * N.cols)
    assert got.row_lists() == normalized(field, want)
    assert_canonical(field, got)


@given(st.data(), FIELDS)
@SETTINGS
def test_kron_mul_and_mul_kron_match_oracle(data, field):
    M, N = data.draw(matrices(field)), data.draw(matrices(field))
    K = naive_kron(M.row_lists(), N.row_lists(), M.cols, N.cols)
    Y = data.draw(matrices(field, rows=M.cols * N.cols))
    got = kron_mul(M, N, Y)
    assert (got.rows, got.cols) == (M.rows * N.rows, Y.cols)
    want = naive_matmul(K, Y.row_lists(), Y.cols, p_of(field))
    assert got.row_lists() == normalized(field, want)
    assert_canonical(field, got)
    X = data.draw(matrices(field, cols=M.rows * N.rows))
    got = mul_kron(X, M, N)
    assert (got.rows, got.cols) == (X.rows, M.cols * N.cols)
    assert got.row_lists() == normalized(field, naive_matmul(X.row_lists(), K, M.cols * N.cols,
                                                        p_of(field)))
    assert_canonical(field, got)


@given(st.data(), FIELDS)
@SETTINGS
def test_transpose_and_sub_match_oracle(data, field):
    A = data.draw(matrices(field))
    B = data.draw(matrices(field, rows=A.rows, cols=A.cols))
    T = A.transpose()
    assert (T.rows, T.cols) == (A.cols, A.rows)
    assert T.row_lists() == naive_transpose(A.row_lists(), A.cols)
    assert T.transpose() == A
    assert_canonical(field, T)
    D = A.sub(B)
    want = naive_combination([1, -1], [A.row_lists(), B.row_lists()], A.rows, A.cols,
                             p_of(field))
    assert D.row_lists() == normalized(field, want)
    assert_canonical(field, D)
    assert A.sub(A).is_zero() and A.sub(A) == DenseMatrix.zeros(field, A.rows, A.cols)


@st.composite
def coefficient_columns(draw, field, k):
    """A k x m coefficient matrix whose columns are zero, a unit vector or
    drawn scalars (fractions over Q), each kind as likely."""
    cols = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["zero", "unit", "scalars"]))
        if kind == "zero":
            cols.append([0] * k)
        elif kind == "unit":
            i = draw(st.integers(0, k - 1))
            cols.append([int(t == i) for t in range(k)])
        else:
            cols.append([draw(scalars(field)) for _ in range(k)])
    return DenseMatrix.from_columns(field, cols, k)


@given(st.data(), FIELDS)
@SETTINGS
def test_combinations_match_oracle(data, field):
    """Column k of the coefficients gives sum_i C[i, k] mats[i], against
    the entry-by-entry oracle, for matrices with den > 1 among them; a unit
    column gives its matrix itself."""
    rows, cols, k = data.draw(DIMS), data.draw(DIMS), data.draw(st.integers(1, 4))
    mats = [data.draw(matrices(field, rows=rows, cols=cols)) for _ in range(k)]
    C = data.draw(coefficient_columns(field, k))
    got = combinations(mats, C)
    want = naive_combinations([M.row_lists() for M in mats], C.row_lists(), rows, cols,
                              p_of(field))
    assert len(got) == C.cols
    for G, W, column in zip(got, want, C.columns()):
        assert (G.rows, G.cols) == (rows, cols)
        assert G.row_lists() == normalized(field, W)
        assert_canonical(field, G)
        if sorted(column) == [0] * (k - 1) + [1]:
            assert G is mats[column.index(1)]


def test_combinations_of_fractional_matrices():
    """Matrices and coefficients with denominators: the result is
    canonical, in lowest terms over the lcm of what remains."""
    M = DenseMatrix(QQ, 2, 2, [Fraction(1, 2), 0, 0, Fraction(1, 3)])
    N = DenseMatrix(QQ, 2, 2, [Fraction(1, 2), 1, 0, Fraction(2, 3)])
    C = DenseMatrix(QQ, 2, 3, [2, Fraction(1, 2), 0, 0, Fraction(-1, 2), 0])
    half, diff, zero = combinations([M, N], C)
    assert (M.den, N.den) == (6, 6)
    assert half == DenseMatrix(QQ, 2, 2, [1, 0, 0, Fraction(2, 3)])
    assert diff == DenseMatrix(QQ, 2, 2, [0, Fraction(-1, 2), 0, Fraction(-1, 6)])
    assert zero == DenseMatrix.zeros(QQ, 2, 2) and zero.den == 1
    assert combinations([M, N], DenseMatrix(QQ, 2, 1, [0, 1]))[0] is N


def test_combinations_check_their_shapes():
    M, N = DenseMatrix.identity(QQ, 2), DenseMatrix.zeros(QQ, 2, 3)
    with pytest.raises(ShapeError):
        combinations([M], DenseMatrix.identity(QQ, 2))    # one matrix, two rows
    with pytest.raises(ShapeError):
        combinations([M, N], DenseMatrix.identity(QQ, 2))  # two shapes
    with pytest.raises(ShapeError):
        combinations([], DenseMatrix.zeros(QQ, 0, 1))     # no matrix to take a shape from
    with pytest.raises(ShapeError):
        combinations([DenseMatrix.identity(F7, 2)], DenseMatrix.identity(QQ, 1))


@given(st.data(), FIELDS)
@SETTINGS
def test_reshape_and_stack_slices_keep_the_entries(data, field):
    A = data.draw(matrices(field))
    n = A.rows * A.cols
    rows = data.draw(st.sampled_from([d for d in range(1, n + 1) if not n % d] or [0, 3]))
    cols = n // rows if rows else 0
    R = A.reshape(rows, cols)
    assert (R.rows, R.cols) == (rows, cols)
    assert R.entries == A.entries
    assert R.reshape(A.rows, A.cols) == A
    assert_canonical(field, R)
    with pytest.raises(ShapeError):
        A.reshape(n + 1, 1)
    parts = [data.draw(matrices(field, rows=A.rows, cols=A.cols))
             for _ in range(data.draw(st.integers(0, 3)))]
    parts.insert(data.draw(st.integers(0, len(parts))), A)
    S = stack_slices(field, parts)
    assert (S.rows, S.cols) == (A.rows * len(parts), A.cols)
    assert S.row_lists() == [P.row(m) for m in range(A.rows) for P in parts]
    assert_canonical(field, S)
    assert unstack_slices(S, len(parts)) == parts


@given(st.data(), FIELDS)
@SETTINGS
def test_hstack_matches_oracle(data, field):
    """Parts of any widths side by side; no parts make a rows x 0 matrix."""
    rows, k = data.draw(DIMS), data.draw(st.integers(0, 4))
    parts = [data.draw(matrices(field, rows=rows)) for _ in range(k)]
    got = hstack(field, parts, rows)
    assert (got.rows, got.cols) == (rows, sum(P.cols for P in parts))
    assert got.row_lists() == naive_hstack([P.row_lists() for P in parts], rows)
    assert_canonical(field, got)
    # a horizontal join is the transpose of the stacked transposes
    if parts:
        assert got == parts[0].transpose().vstack(*[P.transpose() for P in parts[1:]]).transpose()
    with pytest.raises(ShapeError):
        hstack(field, parts + [DenseMatrix.zeros(field, rows + 1, 1)], rows)


@given(st.data(), FIELDS)
@SETTINGS
def test_interleave_columns_matches_oracle(data, field):
    rows, cols, k = data.draw(DIMS), data.draw(DIMS), data.draw(st.integers(0, 4))
    parts = [data.draw(matrices(field, rows=rows, cols=cols)) for _ in range(k)]
    got = interleave_columns(field, parts, rows)
    assert (got.rows, got.cols) == (rows, k * cols)
    assert got.row_lists() == naive_interleave_columns([P.row_lists() for P in parts], rows,
                                                       cols)
    assert_canonical(field, got)
    # an interleaved join is the transpose of the interleaved rows of the
    # transposes
    if parts:
        assert got == stack_slices(field, [P.transpose() for P in parts]).transpose()
    with pytest.raises(ShapeError):
        interleave_columns(field, parts + [DenseMatrix.zeros(field, rows + 1, cols)], rows)
    # each part flattened row-major into one column, the shape kept when
    # there are no parts: the interleaved join reshaped
    F = flat_columns(field, parts, rows, cols)
    assert (F.rows, F.cols) == (rows * cols, k)
    assert F.columns() == [P.entries for P in parts]
    assert_canonical(field, F)
    assert F == got.reshape(rows * cols, k)


@given(st.data(), FIELDS)
@SETTINGS
def test_block_diag_and_differing_columns_match_oracle(data, field):
    A, B = data.draw(matrices(field)), data.draw(matrices(field))
    D = block_diag(A, B)
    assert (D.rows, D.cols) == (A.rows + B.rows, A.cols + B.cols)
    assert D.row_lists() == [r + [0] * B.cols for r in A.row_lists()] + \
        [[0] * A.cols + r for r in B.row_lists()]
    assert_canonical(field, D)
    C = data.draw(matrices(field, rows=A.rows, cols=A.cols))
    assert differing_columns(A, C) == [j for j in range(A.cols) if A.col(j) != C.col(j)]
    assert differing_columns(A, A) == []


@given(st.data(), FIELDS)
@SETTINGS
def test_row_reduce_and_kernel_match_oracle(data, field):
    M = data.draw(matrices(field))
    p = p_of(field)
    span = row_reduce(field, M.cols, M.row_lists())
    want, want_pivots = naive_rref(M.row_lists(), p)
    assert span.pivots == want_pivots
    assert DenseMatrix(field, span.dim, M.cols, span.echelon()).row_lists() == \
        normalized(field, want)
    K = kernel(M)
    assert K.dim == M.cols - naive_rank(M.row_lists(), p)
    assert_canonical(field, K.basis)
    basis = K.basis.row_lists()
    assert naive_rank(basis, p) == K.dim
    for v in basis:
        assert all(not x for x in M.apply(v))
    # the basis is its own reduced echelon form
    assert normalized(field, naive_rref(basis, p)[0]) == basis
    S = row_space(M)
    assert S.pivots == want_pivots
    assert S.basis.row_lists() == normalized(field, want)
    assert S.ambient_dim == M.cols
    assert_canonical(field, S.basis)


@given(st.data(), FIELDS)
@SETTINGS
def test_equality_and_hash_follow_the_entries(data, field):
    A = data.draw(matrices(field))
    eye_r, eye_c = DenseMatrix.identity(field, A.rows), DenseMatrix.identity(field, A.cols)
    # the same matrix reached by other routes: equal, with equal hashes
    for B in (eye_r.mul(A), A.mul(eye_c), A.transpose().transpose(),
              DenseMatrix.from_rows(field, A.row_lists(), cols=A.cols),
              kron(DenseMatrix.identity(field, 1), A)):
        assert B == A and hash(B) == hash(A) and B.den == A.den
    if A.rows and A.cols:
        i = data.draw(st.integers(0, A.rows - 1))
        j = data.draw(st.integers(0, A.cols - 1))
        ent = A.entries
        ent[i * A.cols + j] += Fraction(1, 2) if field.kind == "Q" else 1
        assert DenseMatrix(field, A.rows, A.cols, ent) != A
    assert A != DenseMatrix.zeros(field, A.rows, A.cols) or A.is_zero()
    assert DenseMatrix.zeros(field, A.rows, 0) != DenseMatrix.zeros(field, A.rows, 1)


@given(st.data(), FIELDS)
@SETTINGS
def test_flat_blocks_flattens_each_block(data, field):
    rows, cols = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    nb, nd = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    M = data.draw(matrices(field, rows=nb * rows, cols=nd * cols))
    F = flat_blocks(M, rows, cols)
    assert (F.rows, F.cols) == (rows * cols, nb * nd)
    dense = M.row_lists()
    assert F.columns() == [[dense[b * rows + i][d * cols + j]
                            for i in range(rows) for j in range(cols)]
                           for b in range(nb) for d in range(nd)]
    assert_canonical(field, F)
    for shape in ((rows, 0), (rows, cols + 1)):
        with pytest.raises(ShapeError):
            flat_blocks(DenseMatrix.zeros(field, rows, cols), *shape)


@given(st.data(), FIELDS)
@SETTINGS
def test_is_invertible_matches_the_kernel(data, field):
    """Square matrices M + k I, invertible or singular, and matrices of any
    shape: invertible exactly when square with a zero kernel."""
    n = data.draw(DIMS)
    M = data.draw(matrices(field, rows=n, cols=n))
    k = data.draw(st.integers(0, 3))
    X = combinations([M, DenseMatrix.identity(field, n)], DenseMatrix(field, 2, 1, [1, k]))[0]
    for Y in (M, X, data.draw(matrices(field))):
        want = Y.rows == Y.cols and kernel(Y).is_zero()
        assert is_invertible(Y) == want
        assert want == (Y.rows == Y.cols == naive_rank(Y.row_lists(), p_of(field)))


@st.composite
def scaled_rows(draw, field):
    """(M, rows): a drawn matrix and its rows, each multiplied by a nonzero
    scalar (a/b with 2 <= |a| <= 6 over Q, a nonzero residue over GF(7)),
    so that the builder's stored pivot entries are rarely 1."""
    M = draw(matrices(field))
    if field.kind == "Fp":
        factor = st.integers(1, 6)
    else:
        factor = st.builds(Fraction, st.integers(2, 6).flatmap(
            lambda a: st.sampled_from([a, -a])), st.integers(1, 3))
    rows = []
    for r in M.row_lists():
        a = draw(factor)
        rows.append([field.normalize(a * x) for x in r])
    return M, rows


@given(st.data(), FIELDS)
@SETTINGS
def test_integer_reads_of_a_builder_match_oracle(data, field):
    """The span basis, the null vectors and the quotient's projection and
    section, each read off the builder's integer rows, against the textbook
    reduced echelon form and null space."""
    M, rows = data.draw(scaled_rows(field))
    p, n = p_of(field), M.cols
    span = row_reduce(field, n, rows)
    want, want_pivots = naive_rref(rows, p)
    assert span.pivots == want_pivots
    for S in (row_space(M), Subspace.from_spanning(field, n, rows)):
        assert S.pivots == want_pivots
        assert S.basis.row_lists() == normalized(field, want)
        assert_canonical(field, S.basis)
    nulls = null_vectors(span)
    assert (nulls.rows, nulls.cols) == (n - len(want_pivots), n)
    assert nulls.row_lists() == normalized(field, naive_null_space(rows, n, p))
    assert_canonical(field, nulls)
    q = quotient(span)
    assert q.projection == nulls
    free = [c for c in range(n) if c not in want_pivots]
    assert q.section.columns() == [[int(c == f) for c in range(n)] for f in free]
    assert q.projection.mul(q.section) == DenseMatrix.identity(field, len(free))
    for r in rows:
        assert not any(q.projection.apply(r))


@given(st.data(), FIELDS)
@SETTINGS
def test_solve_matrix_matches_oracle(data, field):
    """solve_matrix on [M | B] with M's rows scaled: None exactly when B
    leaves M's column space; otherwise the solution with the free variables
    zero, read off the oracle's reduced echelon form of [M | B]."""
    M, rows = data.draw(scaled_rows(field))
    M = DenseMatrix.from_rows(field, rows, cols=M.cols)
    p = p_of(field)
    k = data.draw(st.integers(0, 3))
    if data.draw(st.booleans()):
        B = M.mul(data.draw(matrices(field, rows=M.cols, cols=k)))   # consistent
    else:
        B = data.draw(matrices(field, rows=M.rows, cols=k))
    X = solve_matrix(M, B)
    aug = [r + b for r, b in zip(M.row_lists(), B.row_lists())]
    rref, pivots = naive_rref(aug, p)
    if any(c >= M.cols for c in pivots):
        assert X is None
        return
    want = [[0] * k for _ in range(M.cols)]
    for r, c in zip(rref, pivots):
        want[c] = r[M.cols:]
    assert X.row_lists() == normalized(field, want)
    assert M.mul(X) == B
    assert_canonical(field, X)


@given(st.data(), FIELDS)
@SETTINGS
def test_lazy_invertibility_trial_matches_the_combination(data, field):
    """combination_is_invertible decides exactly what is_invertible decides
    on the combination ``combinations`` forms, for square and non-square
    matrices, zero, unit and fractional coefficients."""
    rows = data.draw(DIMS)
    cols = rows if data.draw(st.integers(0, 3)) else data.draw(DIMS)
    r = data.draw(st.integers(1, 3))
    mats = [data.draw(matrices(field, rows=rows, cols=cols)) for _ in range(r)]
    if rows == cols and data.draw(st.booleans()):
        mats.append(DenseMatrix.identity(field, rows))
    coeffs = [field.normalize(data.draw(scalars(field))) for _ in mats]
    if data.draw(st.booleans()):
        coeffs = [int(i == 0) for i in range(len(mats))]   # a basis vector
    want = is_invertible(combinations(mats, DenseMatrix.from_columns(field, [coeffs], len(mats)))[0])
    assert combination_is_invertible(field, coeffs, mats) == want


def test_builder_reads_rows_with_non_unit_pivots():
    """A stored row 2 x + y has pivot entry 2: the basis reads it over the
    denominator 2, and the null vector of column 1 carries -1/2."""
    span = row_reduce(QQ, 3, [[4, 2, 0], [0, 0, -3]])
    assert span._den() == 2
    assert DenseMatrix(QQ, span.dim, 3, span.echelon()).row_lists() == \
        [[1, Fraction(1, 2), 0], [0, 0, 1]]
    assert null_vectors(span).row_lists() == [[Fraction(-1, 2), 1, 0]]


# -- empty and single unit rows -------------------------------------------------

@st.composite
def unit_rich(draw, field, rows=None, cols=None, d=None):
    """A DenseMatrix over field whose rows are each empty, a single unit
    numerator, a single entry 1 or drawn, with every entry a multiple of
    1/d.  Over Q, d is drawn from 1, 2, 3 and 6 unless given, so a unit
    numerator is the entry 1/d of a matrix whose ``den`` is d; over GF(7)
    d is 1."""
    rows = draw(DIMS) if rows is None else rows
    cols = draw(DIMS) if cols is None else cols
    if field.kind == "Fp":
        d, entry = 1, st.integers(0, 6)
    else:
        d = draw(st.sampled_from([1, 2, 3, 6])) if d is None else d
        entry = st.builds(Fraction, st.integers(-4, 4), st.just(d))
    out = []
    for _ in range(rows):
        kind = draw(st.sampled_from(["empty", "unit", "one", "drawn"])) if cols else "empty"
        row = [0] * cols
        if kind in ("unit", "one"):
            row[draw(st.integers(0, cols - 1))] = Fraction(1, d) if kind == "unit" else 1
        elif kind == "drawn":
            row = [draw(st.one_of(st.just(0), entry)) for _ in range(cols)]
        out.append(row)
    return DenseMatrix.from_rows(field, out, cols=cols)


def permutation_like(M) -> bool:
    """Whether every stored row of M is empty or a single unit numerator."""
    return all(not r or (len(r) == 1 and r[0][1] == 1) for r in M.numerator_rows())


@given(st.data(), FIELDS)
@SETTINGS
def test_mul_shares_unit_rows_and_matches_oracle(data, field):
    """Products of unit-rich matrices against the oracle; when every row of
    A is empty or a unit and B's stored rows are final (den 1), each row of
    the product is the row of B it picks, shared."""
    A = data.draw(unit_rich(field))
    B = data.draw(unit_rich(field, rows=A.cols))
    got = A.mul(B)
    want = naive_matmul(A.row_lists(), B.row_lists(), B.cols, p_of(field))
    assert got.row_lists() == normalized(field, want)
    assert_canonical(field, got)
    if permutation_like(A) and A.den == B.den == 1:
        brows = B.numerator_rows()
        for row, picked in zip(got.numerator_rows(), A.numerator_rows()):
            assert row == [] if not picked else row is brows[picked[0][0]]


@given(st.data(), FIELDS)
@SETTINGS
def test_kron_mul_of_unit_rich_matrices_matches_oracle(data, field):
    M, N = data.draw(unit_rich(field)), data.draw(unit_rich(field))
    Y = data.draw(unit_rich(field, rows=M.cols * N.cols))
    got = kron_mul(M, N, Y)
    assert (got.rows, got.cols) == (M.rows * N.rows, Y.cols)
    K = naive_kron(M.row_lists(), N.row_lists(), M.cols, N.cols)
    want = naive_matmul(K, Y.row_lists(), Y.cols, p_of(field))
    assert got.row_lists() == normalized(field, want)
    assert_canonical(field, got)
    assert got == kron(M, N).mul(Y)


@given(st.data(), FIELDS)
@SETTINGS
def test_mul_kron_of_unit_rich_matrices_matches_oracle(data, field):
    """X kron(M, N) with the rows of X empty, a unit numerator or drawn, so
    that a row segment is often one unit term, which is its row of N itself
    with no ``_combine``."""
    M, N = data.draw(unit_rich(field)), data.draw(unit_rich(field))
    X = data.draw(unit_rich(field, cols=M.rows * N.rows))
    got = mul_kron(X, M, N)
    assert (got.rows, got.cols) == (X.rows, M.cols * N.cols)
    K = naive_kron(M.row_lists(), N.row_lists(), M.cols, N.cols)
    want = naive_matmul(X.row_lists(), K, M.cols * N.cols, p_of(field))
    assert got.row_lists() == normalized(field, want)
    assert_canonical(field, got)
    assert got == X.mul(kron(M, N))


@given(st.data(), FIELDS)
@SETTINGS
def test_vstack_stack_slices_and_sub_of_unit_rich_matrices_match_oracle(data, field):
    """Parts of one shape with different denominators: stacked, interleaved
    and subtracted, against the entry-by-entry oracles."""
    rows, cols = data.draw(st.integers(1, 4)), data.draw(DIMS)
    parts = [data.draw(unit_rich(field, rows=rows, cols=cols))
             for _ in range(data.draw(st.integers(1, 4)))]
    V = parts[0].vstack(*parts[1:])
    assert (V.rows, V.cols) == (rows * len(parts), cols)
    assert V.row_lists() == [r for P in parts for r in P.row_lists()]
    assert_canonical(field, V)
    S = stack_slices(field, parts)
    assert S.row_lists() == [P.row(m) for m in range(rows) for P in parts]
    assert_canonical(field, S)
    # either order, so that the rows of the one with the smaller den are
    # scaled where the other's rows are empty
    A, B = parts[0], data.draw(unit_rich(field, rows=rows, cols=cols))
    for X, Y in ((A, B), (B, A)):
        D = X.sub(Y)
        want = naive_combination([1, -1], [X.row_lists(), Y.row_lists()], rows, cols,
                                 p_of(field))
        assert D.row_lists() == normalized(field, want)
        assert_canonical(field, D)
    Z = DenseMatrix.zeros(field, rows, cols)
    assert A.sub(Z) == A and Z.sub(A).sub(Z) == Z.sub(A)


@given(st.data())
@SETTINGS
def test_fp_construction_from_any_representatives_is_canonical(data):
    """Numerator rows over GF(7) given as residues, or with each entry moved
    by a multiple of 7 (negatives among them) and multiples of 7 added,
    build the one canonical matrix; rows of residues are kept as given.
    Zeros are added with or without the shifts, so that one zero among
    residues is also reduced."""
    M = data.draw(unit_rich(F7))
    residues = M.numerator_rows()
    shift = st.integers(-3, 3) if data.draw(st.booleans()) else st.just(0)
    shifted = []
    for pairs in residues:
        entries = dict(pairs)
        for j in range(M.cols):
            if j not in entries and data.draw(st.booleans()):
                entries[j] = 0
        shifted.append([(j, x + 7 * data.draw(shift)) for j, x in sorted(entries.items())])
    kept = DenseMatrix(F7, M.rows, M.cols, _Numerators(residues))
    assert kept == M and kept.numerator_rows() is residues
    rebuilt = DenseMatrix(F7, M.rows, M.cols, _Numerators(shifted))
    assert rebuilt == M and hash(rebuilt) == hash(M)
    assert_canonical(F7, rebuilt)


# -- back-substitution through fill-in -------------------------------------------

def nonzero_scalars(field):
    if field.kind == "Fp":
        return st.integers(1, 6)
    return st.builds(Fraction, st.integers(1, 4).flatmap(lambda a: st.sampled_from([a, -a])),
                     st.integers(1, 4))


@st.composite
def fill_in_sequences(draw, field):
    """(n, chain, vectors) in k^n.  The vectors open with a chain
    x_i e_(c_i) + y_i e_(c_(i+1)) over the columns chain = c_0 < ... < c_k,
    closed by x_k e_(c_k), and end with a few drawn vectors.  Inserting the
    chain, column c_(i+1) enters the row of pivot c_0 only when the vector
    of pivot c_i is back-substituted into it, so that row holds the pivot
    column of each later chain vector through fill-in alone."""
    n = draw(st.integers(3, 7))
    cols = sorted(draw(st.sets(st.integers(0, n - 1), min_size=3, max_size=n)))
    x = nonzero_scalars(field)
    vectors = []
    for a, b in zip(cols, cols[1:]):
        v = [0] * n
        v[a], v[b] = draw(x), draw(x)
        vectors.append(v)
    last = [0] * n
    last[cols[-1]] = draw(x)
    vectors.append(last)
    vectors += draw(st.lists(st.lists(scalars(field), min_size=n, max_size=n), max_size=3))
    return n, cols, vectors


@given(st.data(), FIELDS)
@SETTINGS
def test_builder_back_substitutes_through_fill_in(data, field):
    """After every insertion of a fill-in sequence the builder's pivots and
    reduced rows are the textbook RREF of the vectors so far."""
    n, chain, vectors = data.draw(fill_in_sequences(field))
    p = p_of(field)
    span = SubspaceBuilder(field, n)
    for k, v in enumerate(vectors):
        span.insert(int_row(v))
        want, want_pivots = naive_rref(vectors[:k + 1], p)
        assert span.pivots == want_pivots
        assert DenseMatrix(field, span.dim, n, span.echelon()).row_lists() == \
            normalized(field, want)
        if k == len(chain) - 1:
            # the chain is triangular: its pivots are the columns it runs over
            assert span.pivots == chain


# -- the short-row presolve of relation spans ------------------------------------

COEFFICIENTS = st.one_of(st.integers(-6, 6).filter(bool), st.sampled_from([7, -14, 21]))


@st.composite
def short_row_streams(draw):
    """(n, rows): integer {col: int} rows in k^n, n <= 9, as a relation span
    streams them: rows of one, two and three terms with coefficients that
    are mostly not units (and multiples of 7, which vanish over GF(7), so
    that a row is shorter there), explicit zero entries, cycles of two-term
    rows that close inconsistently or, built from a solution, consistently,
    and repeats of earlier rows."""
    n = draw(st.integers(1, 9))
    col = st.integers(0, n - 1)
    rows = []
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(["one", "two", "two", "three", "cycle", "solved", "repeat"]))
        if kind == "repeat" and rows:
            rows.append(dict(draw(st.sampled_from(rows))))
        elif kind in ("cycle", "solved") and n > 1:
            cols = draw(st.lists(col, min_size=2, max_size=4, unique=True))
            x = {c: draw(st.integers(1, 6)) * draw(st.sampled_from([1, -1])) for c in cols}
            for c, d in zip(cols, cols[1:] + cols[:1]):
                if kind == "solved":   # k x[d] e_c - k x[c] e_d vanishes at x
                    k = draw(st.integers(1, 3))
                    rows.append({c: k * x[d], d: -k * x[c]})
                else:
                    rows.append({c: draw(COEFFICIENTS), d: draw(COEFFICIENTS)})
        else:
            k = min(n, {"one": 1, "three": 3}.get(kind, 2))
            row = {c: draw(COEFFICIENTS) for c in draw(st.lists(col, min_size=k, max_size=k,
                                                                 unique=True))}
            if draw(st.booleans()):
                row.setdefault(draw(col), 0)
            rows.append(row)
    return n, rows


def _as_presolve_input(field, rows):
    """The {col: int} rows of a short-row stream as the per-field loops of
    ``row_reduce`` hand them to ``presolved_span``: the zeros (mod p over
    GF(7)) dropped, every entry a residue over GF(7)."""
    p = field.p
    out = []
    for r in rows:
        r = {c: x % p if p else x for c, x in r.items()}
        out.append({c: x for c, x in r.items() if x})
    return out


@given(short_row_streams(), FIELDS)
@settings(max_examples=300, deadline=None)
def test_presolved_span_matches_row_reduce(stream, field):
    """The span with its one- and two-term rows solved by the weighted
    union-find holds exactly the builder rows that inserting each row into
    one builder leaves (``oracles.plain_row_reduce``), as does
    ``row_reduce`` of the rows as drawn, zeros and all; and the null space
    and the quotient's projection and section read off it are the same."""
    n, rows = stream
    span = presolved_span(field, n, _as_presolve_input(field, rows))
    plain = plain_row_reduce(field, n, rows)
    assert span._rows == plain._rows
    assert row_reduce(field, n, [dict(r) for r in rows])._rows == plain._rows
    assert null_space(span) == null_space(plain)
    assert quotient(span) == quotient(plain)


def test_presolved_span_reduces_long_rows_before_and_after_short_ones():
    """Three-term rows before and after the short rows are buffered and
    each rewritten once over the class roots; a root that is a pivot of the
    reduced rows is substituted into the rows of its class; a weight with
    a denominator and a class forced to zero by a cycle are written
    fraction-free."""
    rows = [{0: 1, 2: 1, 5: 1},   # long, before any short row
            {1: 3, 4: -2},        # x1 = 2/3 x4
            {3: 2, 4: 1},         # x3 = -1/2 x4: the class {1, 3, 4}
            {0: 1, 1: 1, 4: 2},   # long, after them
            {2: 1, 6: 1},
            {6: 2, 2: 1}]         # x6 = -x2 and x6 = -2 x2: {2, 6} is zero
    for field in (QQ, F7):
        span = presolved_span(field, 7, _as_presolve_input(field, rows))
        assert span._rows == plain_row_reduce(field, 7, rows)._rows
        assert span._rows == row_reduce(field, 7, [dict(r) for r in rows])._rows
        assert span.pivots == [0, 1, 2, 3, 4, 6]


def test_rewrite_without_classes_returns_the_row_itself():
    """While no class has been merged or zeroed a long row is not copied;
    once one has, the rewrite is a new row over the roots."""
    for p in (None, 7):
        classes = exactla._Classes(p)
        row = {0: 1, 2: 3, 5: 1}
        assert classes.rewrite(row) is row
        classes.merge(1, 1, 2, -1)    # x1 = x2
        assert classes.rewrite(row) == {0: 1, 2: 3, 5: 1} and classes.rewrite(row) is not row
        zeroed = exactla._Classes(p)
        zeroed.zero.add(5)
        assert zeroed.rewrite(row) == {0: 1, 2: 3}


# -- every reduction through the presolve -------------------------------------


def presolve_scalars(field):
    """Nonzero entries a/b over Q and GF(7), b prime to 7, with multiples
    of 7 among them, which vanish over GF(7)."""
    num = st.one_of(st.integers(-5, 5).filter(bool), st.sampled_from([7, -14, 21]))
    return st.builds(Fraction, num, st.sampled_from([1, 1, 2, 3, 4]))


@st.composite
def presolve_rows(draw, field):
    """(n, rows): dense rows of ``Fraction`` entries in k^n, n <= 8, of one,
    two and three or more nonzero terms, zero rows, rows that repeat an
    earlier one (or a multiple of it), rows that vanish mod 7, and long
    rows both before the first short row and after it."""
    n = draw(st.integers(1, 8))
    entry = presolve_scalars(field)

    def row(k):
        cols = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True))
        out = [Fraction(0)] * n
        for c in cols:
            out[c] = draw(entry)
        return out

    def long_row():
        return row(draw(st.integers(min(3, n), n)))

    rows = [long_row() for _ in range(draw(st.integers(0, 3)))]
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["one", "two", "long", "zero", "repeat", "vanish"]))
        if kind == "repeat" and rows:
            s = draw(st.sampled_from([1, -2, Fraction(1, 3)]))
            rows.append([s * x for x in draw(st.sampled_from(rows))])
        elif kind == "zero":
            rows.append([Fraction(0)] * n)
        elif kind == "vanish":
            rows.append([7 * x for x in long_row()])
        elif kind == "one":
            rows.append(row(1))
        elif kind == "two":
            rows.append(row(min(2, n)))
        else:
            rows.append(long_row())
    rows += [long_row() for _ in range(draw(st.integers(0, 2)))]
    return n, rows


def _plain_results(field, n, rows, B):
    """kernel, rank, solve_matrix, image, row_space and from_spanning of
    the rows, with ``oracles.plain_row_reduce`` in place of
    ``row_reduce``."""
    with mock.patch.object(exactla, "row_reduce", plain_row_reduce):
        return _results(field, n, rows, B)


def _results(field, n, rows, B):
    M = DenseMatrix.from_rows(field, rows, cols=n)
    return (kernel(M), rank(M), solve_matrix(M, B), image(M), row_space(M),
            Subspace.from_spanning(field, n, rows))


@given(st.data(), FIELDS)
@settings(max_examples=200, deadline=None)
def test_every_reduction_matches_the_plain_builder(data, field):
    """``kernel``, ``rank``, ``solve_matrix``, ``image``, ``row_space`` and
    ``Subspace.from_spanning``, each run through the short-row presolve of
    ``row_reduce``, equal what they read off the plain builder, into which
    every row is inserted in order, on dense rows of ``Fraction`` entries;
    the right-hand sides are solvable (M X) or drawn at random."""
    n, rows = data.draw(presolve_rows(field))
    M = DenseMatrix.from_rows(field, rows, cols=n)
    X = data.draw(matrices(field, rows=n))
    B = M.mul(X) if data.draw(st.booleans()) else data.draw(matrices(field, rows=M.rows))
    got = _results(field, n, rows, B)
    want = _plain_results(field, n, rows, B)
    assert got == want
    K, r, solution, image_, rows_, spanned = got
    p = p_of(field)
    assert r == naive_rank(M.row_lists(), p) == rows_.dim == spanned.dim == image_.dim
    assert K.dim == n - r
    if solution is not None:
        assert M.mul(solution) == B
