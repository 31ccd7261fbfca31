import random
from fractions import Fraction
from functools import partial
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from coring_lab.exactla import (
    QQ,
    GF,
    DenseMatrix,
    ExactLAError,
    FieldSpec,
    NotInSubspace,
    ShapeError,
    Subspace,
    PRIME_BOUND,
    SeededStream,
    SubspaceBuilder,
    _is_prime,
    combinations,
    image,
    kernel,
    kron,
    kron_mul,
    mul_kron,
    null_vectors,
    once,
    quotient,
    rank,
    row_reduce,
    solve_matrix,
)

from crosscheck import coords, solve
from helpers import int_row
from oracles import (
    intersect,
    naive_is_prime,
    naive_kron,
    naive_matmul,
    naive_rank,
    naive_rref,
    naive_solve,
    random_scalar,
    scalar_to_str,
    span_contains,
)

F5 = GF(5)


def mat(field, rows):
    return DenseMatrix.from_rows(field, rows)


# -- kernel -----------------------------------------------------------------

def test_kernel_rank_one_symmetric():
    k = kernel(mat(QQ, [[1, 1], [1, 1]]))
    assert k.dim == 1
    # canonical echelon representative of span{(1,-1)}
    assert k.basis.row_lists() == [[1, -1]]


def test_kernel_identity_is_zero():
    assert kernel(DenseMatrix.identity(QQ, 3)).is_zero()


def test_kernel_f5_line():
    # brute force over all 25 vectors of F_5^2
    M = [[1, 2], [2, 4]]
    sols = [v for v in [(a, b) for a in range(5) for b in range(5)]
            if (v[0] + 2 * v[1]) % 5 == 0 and (2 * v[0] + 4 * v[1]) % 5 == 0]
    k = kernel(mat(F5, M))
    assert k.dim == 1
    assert all(k.contains(list(v)) for v in sols)
    assert k.contains([3, 1])
    assert (1 * 3 + 2 * 1) % 5 == 0


# -- solve --------------------------------------------------------------------

def test_solve_identity():
    assert solve(DenseMatrix.identity(QQ, 3), [2, 5, -1]) == [2, 5, -1]


def test_solve_free_vars_zero():
    assert solve(mat(QQ, [[1, 1]]), [2]) == [2, 0]


def test_solve_inconsistent():
    assert solve(mat(QQ, [[0]]), [1]) is None


def test_solve_shape_error():
    with pytest.raises(ShapeError):
        solve(mat(QQ, [[1, 0]]), [1, 2])


# -- image --------------------------------------------------------------------

def test_image_zero():
    assert image(DenseMatrix.zeros(QQ, 3, 2)).is_zero()


def test_image_identity_full():
    assert image(DenseMatrix.identity(QQ, 4)).is_full()


def test_image_proportional_columns():
    im = image(mat(QQ, [[1, 2], [2, 4]]))
    assert im.dim == 1
    assert im.basis.row_lists() == [[1, 2]]


# -- kron ---------------------------------------------------------------------

def test_kron_scalar():
    N = mat(QQ, [[1, 2], [3, 4]])
    assert kron(mat(QQ, [[3]]), N) == DenseMatrix(QQ, 2, 2, [3 * x for x in N.entries])


def test_kron_identities():
    assert kron(DenseMatrix.identity(QQ, 2), DenseMatrix.identity(QQ, 3)) == \
        DenseMatrix.identity(QQ, 6)


def test_kron_swap_block():
    out = kron(mat(QQ, [[0, 1], [1, 0]]), mat(QQ, [[2]]))
    assert out.row_lists() == [[0, 2], [2, 0]]


def test_kron_index_convention():
    M = mat(QQ, [[1, 2], [3, 4]])
    N = mat(QQ, [[5, 6], [7, 8]])
    K = kron(M, N)
    for im in range(2):
        for jm in range(2):
            for i2 in range(2):
                for j2 in range(2):
                    assert K.get(im * 2 + i2, jm * 2 + j2) == \
                        M.get(im, jm) * N.get(i2, j2)


# -- products against the naive oracles -----------------------------------------

F7 = GF(7)


def random_matrix(field, rng, rows, cols, density):
    """Entries zero with probability 1 - density; Fractions a/b over Q."""
    def entry():
        if rng.random() >= density:
            return 0
        if field.kind == "Fp":
            return rng.randrange(1, field.p)
        return rng.choice([1, Fraction(rng.randint(-3, 3), rng.randint(1, 3))])
    return DenseMatrix(field, rows, cols, [entry() for _ in range(rows * cols)])


def product_cases(field, seed, count=60):
    """(M, N, Y) with M.cols * N.cols == Y.rows; every dimension may be 0."""
    rng = random.Random(seed)
    for _ in range(count):
        a, b, c, d, q = (rng.randint(0, 3) for _ in range(5))
        yield (random_matrix(field, rng, a, b, rng.choice([0.3, 1.0])),
               random_matrix(field, rng, c, d, rng.choice([0.3, 1.0])),
               random_matrix(field, rng, b * d, q, rng.choice([0.3, 1.0])))


def oracle_p(field):
    return field.p if field.kind == "Fp" else None


def assert_canonical(field, xs):
    """Every scalar in canonical form: a residue int over Fp; over Q an int
    whenever the value is integral, a Fraction only otherwise."""
    for x in xs:
        if field.kind == "Fp":
            assert type(x) is int and 0 <= x < field.p
        else:
            assert type(x) is int or x.denominator != 1


@pytest.mark.parametrize("field", [QQ, F7], ids=["Q", "F7"])
def test_kron_matches_naive_oracle(field):
    """kron is fraction-free like the products: canonical entries, equal to
    the textbook product of the scalars."""
    p = oracle_p(field)
    for M, N, _ in product_cases(field, seed=10):
        want = naive_kron(M.row_lists(), N.row_lists(), M.cols, N.cols)
        got = kron(M, N)
        assert (got.rows, got.cols) == (M.rows * N.rows, M.cols * N.cols)
        assert got.row_lists() == [[x if p is None else x % p for x in r] for r in want]
        assert_canonical(field, got.entries)


@pytest.mark.parametrize("field", [QQ, F7], ids=["Q", "F7"])
def test_kron_mul_matches_naive_oracles(field):
    for M, N, Y in product_cases(field, seed=11):
        want = naive_matmul(naive_kron(M.row_lists(), N.row_lists(), M.cols, N.cols),
                            Y.row_lists(), Y.cols, oracle_p(field))
        got = kron_mul(M, N, Y)
        assert (got.rows, got.cols) == (M.rows * N.rows, Y.cols)
        assert got.row_lists() == want
        assert got == kron(M, N).mul(Y)
        assert_canonical(field, got.entries)


@pytest.mark.parametrize("field", [QQ, F7], ids=["Q", "F7"])
def test_mul_kron_matches_naive_oracles(field):
    rng = random.Random(12)
    for M, N, _ in product_cases(field, seed=12):
        X = random_matrix(field, rng, rng.randint(0, 3), M.rows * N.rows, 0.5)
        want = naive_matmul(X.row_lists(),
                            naive_kron(M.row_lists(), N.row_lists(), M.cols, N.cols),
                            M.cols * N.cols, oracle_p(field))
        got = mul_kron(X, M, N)
        assert (got.rows, got.cols) == (X.rows, M.cols * N.cols)
        assert got.row_lists() == want
        assert got == X.mul(kron(M, N))
        assert_canonical(field, got.entries)


@pytest.mark.parametrize("field", [QQ, F7], ids=["Q", "F7"])
def test_sparse_mul_matches_naive_matmul(field):
    rng = random.Random(13)
    for _ in range(80):
        n, m, q = (rng.randint(0, 5) for _ in range(3))
        A = random_matrix(field, rng, n, m, rng.choice([0.2, 1.0]))
        B = random_matrix(field, rng, m, q, rng.choice([0.2, 1.0]))
        got = A.mul(B)
        assert (got.rows, got.cols) == (n, q)
        assert got.row_lists() == naive_matmul(A.row_lists(), B.row_lists(), q,
                                               oracle_p(field))
        assert_canonical(field, got.entries)


@pytest.mark.parametrize("field", [QQ, F7], ids=["Q", "F7"])
def test_apply_matches_naive_matmul(field):
    rng = random.Random(16)
    for _ in range(80):
        n, m = rng.randint(0, 5), rng.randint(0, 5)
        A = random_matrix(field, rng, n, m, rng.choice([0.2, 1.0]))
        v = random_matrix(field, rng, m, 1, rng.choice([0.2, 1.0])).entries
        got = A.apply(v)
        want = naive_matmul(A.row_lists(), [[x] for x in v], 1, oracle_p(field))
        assert got == [row[0] for row in want]
        assert_canonical(field, got)


@pytest.mark.parametrize("field", [QQ, F7], ids=["Q", "F7"])
def test_row_combinations_match_naive_matmul(field):
    """A linear combination of a matrix's rows is its transpose applied to
    the coefficients, as ``Subspace.embedding`` combines basis vectors."""
    rng = random.Random(17)
    for _ in range(80):
        k, width = rng.randint(0, 5), rng.randint(0, 5)
        coeffs = random_matrix(field, rng, 1, k, rng.choice([0.2, 1.0]))
        rows = random_matrix(field, rng, k, width, rng.choice([0.2, 1.0]))
        got = rows.transpose().apply(coeffs.entries)
        assert got == naive_matmul(coeffs.row_lists(), rows.row_lists(), width,
                                   oracle_p(field))[0]
        assert_canonical(field, got)
        # the same combination of matrices, each row of `rows` a 1 x width
        # matrix; with no matrix there is no shape to combine into
        mats = [DenseMatrix(field, 1, width, rows.row(i)) for i in range(k)]
        if not k:
            with pytest.raises(ShapeError):
                combinations(mats, coeffs.transpose())
            continue
        combo = combinations(mats, coeffs.transpose())[0]
        assert combo.entries == got


@pytest.mark.parametrize("field", [QQ, F7], ids=["Q", "F7"])
def test_den_is_lcm_of_denominators(field):
    rng = random.Random(18)
    for _ in range(60):
        r, c = rng.randint(0, 4), rng.randint(0, 4)
        M = random_matrix(field, rng, r, c, rng.choice([0.2, 1.0]))
        want = 1 if field.kind == "Fp" else lcm(*(Fraction(x).denominator for x in M.entries))
        assert M.den == want
        ints = DenseMatrix(field, r, c, [rng.randint(-9, 9) for _ in range(r * c)])
        assert ints.den == 1
        assert all(type(x) is int for x in ints.entries)
    # a generator of entries is read once, not consumed by the type scan
    G = DenseMatrix(field, 1, 3, (x for x in [2, Fraction(1, 2), Fraction(-5, 6)]))
    assert G.entries == [field.normalize(x) for x in [2, Fraction(1, 2), Fraction(-5, 6)]]
    assert G.den == (6 if field.kind == "Q" else 1)


def test_kron_mul_identity_factors():
    # kron(I, F) applies F to each row block of Y (the unit-row copy path);
    # kron(F, I) mixes whole row blocks of Y
    F = mat(QQ, [[1, Fraction(1, 2)], [0, 3], [2, 0]])
    Y = mat(QQ, [[1, 0], [2, 1], [0, -1], [Fraction(1, 3), 0]])
    eye2 = DenseMatrix.identity(QQ, 2)
    assert kron_mul(eye2, F, Y) == kron(eye2, F).mul(Y)
    assert kron_mul(F, eye2, Y) == kron(F, eye2).mul(Y)
    assert kron_mul(eye2, eye2, Y) == Y
    # a row of M whose only entry scales to 1 (here 1/3, den 3) is copied too
    T = mat(QQ, [[Fraction(1, 3), 0], [0, Fraction(2, 3)]])
    assert kron_mul(T, F, Y) == kron(T, F).mul(Y)


def test_kron_mul_rejects_mismatches():
    M, N = mat(QQ, [[1, 2]]), mat(QQ, [[1], [1]])
    with pytest.raises(ShapeError):
        kron_mul(M, N, DenseMatrix.zeros(QQ, 3, 1))
    with pytest.raises(ShapeError):
        kron_mul(M, N, DenseMatrix.zeros(F5, 2, 1))


def test_kron_mul_builds_only_its_result(monkeypatch):
    M = random_matrix(QQ, random.Random(14), 3, 3, 1.0)
    N, Y = DenseMatrix.identity(QQ, 4), random_matrix(QQ, random.Random(15), 12, 2, 1.0)
    built = []
    orig = DenseMatrix.__init__

    def counting(self, field, rows, cols, entries):
        built.append((rows, cols))
        orig(self, field, rows, cols, entries)
    monkeypatch.setattr(DenseMatrix, "__init__", counting)
    kron_mul(M, N, Y)
    assert built == [(12, 2)]


@pytest.mark.parametrize("field,raw", [
    (QQ, [Fraction(4, 2), Fraction(1, 2), -3, 0, Fraction(-6, 3), True]),
    (F7, [Fraction(1, 2), Fraction(14, 2), -3, 10, 0, Fraction(-1, 3), True]),
], ids=["Q", "F7"])
def test_entries_are_normalized(field, raw):
    m = DenseMatrix(field, 1, len(raw), raw)
    want = [field.normalize(x) for x in raw]
    assert m.entries == want
    assert [type(x) for x in m.entries] == [type(x) for x in want]


def test_normalization_examples():
    assert DenseMatrix(QQ, 1, 1, [Fraction(4, 2)]).entries == [2]
    assert type(DenseMatrix(QQ, 1, 1, [Fraction(4, 2)]).entries[0]) is int
    assert DenseMatrix(QQ, 1, 1, [Fraction(1, 2)]).entries == [Fraction(1, 2)]
    assert DenseMatrix(F7, 1, 1, [Fraction(1, 2)]).entries == [4]   # 2 * 4 = 1 mod 7
    assert DenseMatrix(F7, 1, 2, [-1, 9]).entries == [6, 2]


# -- quotient -------------------------------------------------------------------

def span_of(field, n, vecs):
    """The relation span of vecs, as ``quotient`` takes it."""
    span = SubspaceBuilder(field, n)
    for v in vecs:
        span.insert(int_row(v))
    return span


def test_quotient_by_zero():
    q = quotient(SubspaceBuilder(QQ, 3))
    assert q.dim == 3
    assert q.projection == DenseMatrix.identity(QQ, 3)


def test_quotient_by_full():
    q = quotient(span_of(QQ, 2, [[1, 0], [0, 1]]))
    assert q.dim == 0


def test_quotient_line():
    q = quotient(span_of(QQ, 2, [[1, -1]]))
    assert q.dim == 1
    assert q.projection.apply([1, 0]) == q.projection.apply([0, 1])


def test_quotient_projection_section_identities():
    vecs = [[1, 2, 0, 0], [0, 0, 1, -1]]
    rel = Subspace.from_spanning(QQ, 4, vecs)
    q = quotient(span_of(QQ, 4, vecs))
    assert q.projection.mul(q.section) == DenseMatrix.identity(QQ, q.dim)
    resid = q.section.mul(q.projection).sub(DenseMatrix.identity(QQ, 4))
    for j in range(4):
        assert rel.contains(resid.col(j))
    for i in range(rel.dim):
        assert all(not x for x in q.projection.apply(rel.basis.row(i)))


def rational_scalar(rng):
    """A rational a/b with |a| <= 5 and 1 <= b <= 5, often not an integer."""
    return QQ.normalize(Fraction(rng.randint(-5, 5), rng.randint(1, 5)))


def relation_cases(field, seed):
    """Random sparse generating families, zero-dimensional ambients included;
    over Q a second batch has rational entries."""
    rng = random.Random(seed)
    scalars = [partial(random_scalar, field)] + ([rational_scalar] if field == QQ else [])
    for scalar in scalars:
        for _ in range(40):
            n = rng.randint(0, 7)
            yield n, [[scalar(rng) if rng.random() < 0.5 else 0 for _ in range(n)]
                      for _ in range(rng.randint(0, 7))]


@pytest.mark.parametrize("field,p", [(QQ, None), (F5, 5)], ids=["Q", "F5"])
def test_builder_null_vectors_against_oracle(field, p):
    for n, vecs in relation_cases(field, seed=29):
        span = span_of(field, n, vecs)
        nulls = null_vectors(span)
        assert (nulls.rows, nulls.cols) == (n - naive_rank(vecs, p), n)
        nulls = nulls.row_lists()
        assert len(nulls) == n - naive_rank(vecs, p)
        assert naive_rank(nulls, p) == len(nulls)
        for w in nulls:
            assert naive_matmul(vecs, [[x] for x in w], 1, p) == [[0]] * len(vecs)


@pytest.mark.parametrize("field,p", [(QQ, None), (F5, 5)], ids=["Q", "F5"])
def test_quotient_projection_kills_relations(field, p):
    for n, vecs in relation_cases(field, seed=30):
        q = quotient(span_of(field, n, vecs))
        assert q.dim == n - naive_rank(vecs, p)
        for v in vecs:
            assert all(not x for x in q.projection.apply(v))
        assert q.projection.mul(q.section) == DenseMatrix.identity(field, q.dim)


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
def test_from_columns_matches_transposed_rows(field):
    rng = random.Random(31)
    for _ in range(60):
        rows, width = rng.randint(0, 4), rng.randint(0, 4)
        cols = [[random_scalar(field, rng) for _ in range(rows)] for _ in range(width)]
        got = DenseMatrix.from_columns(field, cols, rows)
        assert (got.rows, got.cols) == (rows, width)
        assert got == DenseMatrix.from_rows(field, cols, cols=rows).transpose()


def test_from_columns_rejects_ragged_columns():
    with pytest.raises(ShapeError):
        DenseMatrix.from_columns(QQ, [[1, 2], [3]], 2)
    with pytest.raises(ShapeError):
        DenseMatrix.from_columns(QQ, [[1, 2]], 3)
    # from_rows checks its declared width the same way
    with pytest.raises(ShapeError):
        DenseMatrix.from_rows(QQ, [[1, 2], [3]])
    with pytest.raises(ShapeError):
        DenseMatrix.from_rows(QQ, [[1, 2]], cols=3)
    assert DenseMatrix.from_rows(QQ, [[1, 2]], cols=2) == DenseMatrix(QQ, 1, 2, [1, 2])


# -- randomized cross-checks against the naive oracle ---------------------------

def random_system(field, rng, rows, cols, density=0.7):
    """Entries zero with probability 1 - density, otherwise any residue
    over Fp (zero included) and a/b, |a| <= 6, b in {1, 2, 3} over Q."""
    ent = []
    for _ in range(rows * cols):
        if rng.random() < density:
            if field.kind == "Fp":
                ent.append(rng.randrange(field.p))
            else:
                ent.append(Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3])))
        else:
            ent.append(0)
    return DenseMatrix(field, rows, cols, ent)


@pytest.mark.parametrize("field,p", [(QQ, None), (F5, 5)], ids=["Q", "F5"])
def test_row_reduce_matches_naive_rref(field, p):
    """row_reduce, densified, against the textbook Gauss-Jordan oracle; the
    inputs include zero rows, repeated rows, no rows and no columns."""
    rng = random.Random(11)
    cases = [(0, []), (3, []), (0, [[], []]), (4, [[0] * 4, [0] * 4])]
    for _ in range(60):
        n = rng.randint(1, 6)
        rows = random_system(field, rng, rng.randint(1, 6), n).row_lists()
        if p is None:
            rows.append([rational_scalar(rng) for _ in range(n)])
        rows += [[0] * n, list(rows[0])]
        rng.shuffle(rows)
        cases.append((n, rows))
    for n, rows in cases:
        span = row_reduce(field, n, rows)
        pivots = span.pivots
        dense = DenseMatrix(field, span.dim, n, span.echelon()).row_lists()
        want, want_pivots = naive_rref(rows, p)
        want = [[field.normalize(x) for x in r] for r in want]
        assert pivots == want_pivots
        # the same entries, each an int wherever it is integral
        assert [[(type(x), x) for x in r] for r in dense] == \
            [[(type(x), x) for x in r] for r in want]


@pytest.mark.parametrize("field,p", [(QQ, None), (F5, 5)])
def test_rank_nullity_random(field, p):
    rng = random.Random(7)
    for _ in range(60):
        r = rng.randint(0, 5)
        c = rng.randint(0, 5)
        M = random_system(field, rng, r, c)
        k = kernel(M)
        im = image(M)
        assert k.dim + im.dim == c
        assert im.dim == naive_rank(M.row_lists(), p)
        for i in range(k.dim):
            assert all(not x for x in M.apply(k.basis.row(i)))


@pytest.mark.parametrize("field,p", [(QQ, None), (F5, 5)])
def test_solve_random_agrees_with_oracle(field, p):
    rng = random.Random(11)
    for _ in range(60):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        M = random_system(field, rng, r, c)
        b = [random_scalar(field, rng) for _ in range(r)]
        got = solve(M, b)
        want = naive_solve(M.row_lists(), b, p)
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert M.apply(got) == [field.normalize(x) for x in b]


@pytest.mark.parametrize("field,p", [(QQ, None), (F5, 5)])
def test_solve_matrix_random_agrees_with_oracle(field, p):
    # 1-3 right-hand columns; singular systems with free variables come from
    # rank-deficient M (a repeated row or column), inconsistent ones from a
    # column of B outside the column space
    rng = random.Random(13)
    seen = {"inconsistent": 0, "free": 0}
    for trial in range(90):
        r, c, k = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 3)
        rows = random_system(field, rng, r, c).row_lists()
        if trial % 3 == 1 and c > 1:
            rows = [row[:-1] + [row[0]] for row in rows]     # repeated column
        elif trial % 3 == 2 and r > 1:
            rows[-1] = list(rows[0])                          # repeated row
        M = DenseMatrix.from_rows(field, rows, cols=c)
        B = DenseMatrix.from_rows(field, [[random_scalar(field, rng) for _ in range(k)]
                                          for _ in range(r)], cols=k)
        wants = [naive_solve(rows, B.col(j), p) for j in range(k)]
        X = solve_matrix(M, B)
        if any(w is None for w in wants):
            seen["inconsistent"] += 1
            assert X is None
            continue
        if naive_rank(rows, p) < c:
            seen["free"] += 1
        assert X is not None and (X.rows, X.cols) == (c, k)
        assert M.mul(X) == B
        for j in range(k):
            assert X.col(j) == solve(M, B.col(j))
            # free variables are zero, as in the oracle's Gauss-Jordan
            assert X.col(j) == [field.normalize(x) for x in wants[j]]
    assert seen["inconsistent"] and seen["free"]


@pytest.mark.parametrize("field,p", [(QQ, None), (F5, 5)])
def test_canonical_form_unique_random(field, p):
    rng = random.Random(13)
    for _ in range(40):
        dim = rng.randint(1, 5)
        n = rng.randint(1, 4)
        vecs = [[random_scalar(field, rng) for _ in range(dim)] for _ in range(n)]
        s1 = Subspace.from_spanning(field, dim, vecs)
        # a different spanning set of the same space: shuffled sums
        mixed = []
        for _ in range(2 * n):
            w = [0] * dim
            for v in vecs:
                c = random_scalar(field, rng)
                w = [field.normalize(a + c * b) for a, b in zip(w, v)]
            mixed.append(w)
        s2 = Subspace.from_spanning(field, dim, mixed)
        if s2.dim == s1.dim:
            assert s1 == s2
        else:
            assert s1.contains_columns(s2.embedding)


def test_subspace_membership_against_oracle():
    rng = random.Random(17)
    for _ in range(40):
        dim = rng.randint(1, 5)
        vecs = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(3)]
        s = Subspace.from_spanning(QQ, dim, vecs)
        probe = [rng.randint(-3, 3) for _ in range(dim)]
        assert s.contains(probe) == span_contains(vecs, probe)


@pytest.mark.parametrize("field,p", [(QQ, None), (F5, 5)], ids=["Q", "F5"])
def test_coords_matrix_matches_oracle_solve(field, p):
    rng = random.Random(19)
    for _ in range(60):
        n, k = rng.randint(1, 6), rng.randint(0, 4)
        sub = Subspace.from_spanning(
            field, n, random_matrix(field, rng, rng.randint(0, n), n, 0.6).row_lists())
        P = sub.embedding.mul(random_matrix(field, rng, sub.dim, k, 0.7))
        X = sub.coords_matrix(P)
        # column j: the unique solution of basis^T x = P e_j, by brute force
        want = [naive_solve(sub.embedding.row_lists(), P.col(j), p) for j in range(k)]
        assert X == DenseMatrix.from_columns(field, want, sub.dim)
        assert_canonical(field, X.entries)
        if sub.is_full():
            continue
        # e_c for a non-pivot column c lies outside; put it at a random column
        c = rng.choice([c for c in range(n) if c not in sub.pivots])
        j = rng.randint(0, k)
        cols = [P.col(t) for t in range(k)]
        cols.insert(j, [1 if t == c else 0 for t in range(n)])
        with pytest.raises(ExactLAError) as exc:
            sub.coords_matrix(DenseMatrix.from_columns(field, cols, n))
        assert isinstance(exc.value, NotInSubspace) and exc.value.column == j


@pytest.mark.parametrize("field,p", [(QQ, None), (F5, 5)], ids=["Q", "F5"])
def test_coords_of_a_non_member_raises(field, p):
    rng = random.Random(23)
    outside = 0
    for _ in range(40):
        n = rng.randint(1, 6)
        sub = Subspace.from_spanning(
            field, n, random_matrix(field, rng, rng.randint(0, n - 1), n, 0.6).row_lists())
        vec = [random_scalar(field, rng) for _ in range(n)]
        if naive_solve(sub.embedding.row_lists(), vec, p) is not None:
            continue
        outside += 1
        assert not sub.contains(vec)
        with pytest.raises(NotInSubspace) as exc:
            coords(sub, vec)
        assert exc.value.column == 0
    assert outside >= 20


def test_coords_matrix_rejects_a_foreign_matrix():
    sub = Subspace.from_spanning(QQ, 3, [[1, 2, 0]])
    with pytest.raises(ShapeError):
        sub.coords_matrix(DenseMatrix.zeros(QQ, 2, 1))
    with pytest.raises(ShapeError):
        sub.coords_matrix(DenseMatrix.zeros(F5, 3, 1))


def test_subspace_sum_and_intersection():
    a = Subspace.from_spanning(QQ, 3, [[1, 0, 0], [0, 1, 0]])
    b = Subspace.from_spanning(QQ, 3, [[0, 1, 0], [0, 0, 1]])
    assert Subspace.from_spanning(QQ, 3, a.basis.row_lists() + b.basis.row_lists()).is_full()
    inter = Subspace.from_spanning(QQ, 3, intersect(a.basis.row_lists(),
                                                  b.basis.row_lists(), 3))
    assert inter.dim == 1
    assert inter.contains([0, 1, 0])


def test_subspace_builder_matches_dense():
    rng = random.Random(23)
    for field, p, scalar in [(QQ, None, partial(random_scalar, QQ)),
                             (F5, 5, partial(random_scalar, F5)), (QQ, None, rational_scalar)]:
        for _ in range(20):
            dim = rng.randint(1, 6)
            vecs = [[scalar(rng) for _ in range(dim)] for _ in range(rng.randint(0, 6))]
            sb = SubspaceBuilder(field, dim)
            for k, v in enumerate(vecs):
                grew = sb.insert(int_row(v))
                # read the rows after every insertion, so a stale view fails
                rref, pivots = naive_rref(vecs[:k + 1], p)
                assert grew == (len(pivots) > naive_rank(vecs[:k], p))
                assert sb.pivots == pivots
                dense = DenseMatrix(field, sb.dim, dim, sb.echelon()).row_lists()
                assert dense == rref
                for row in dense:
                    for x in row:
                        assert not x or type(x) is int or x.denominator != 1
            pivots = sb.pivots
            dense = DenseMatrix(field, sb.dim, dim, sb.echelon()).row_lists()
            assert Subspace(field, dim, DenseMatrix.from_rows(field, dense, cols=dim), pivots) == \
                Subspace.from_spanning(field, dim, vecs)


# -- serialization ---------------------------------------------------------------

def test_matrix_json_roundtrip_q():
    M = mat(QQ, [[Fraction(1, 2), 3], [Fraction(-7, 3), 0]])
    back = DenseMatrix.from_json(QQ, M.to_json())
    assert back == M
    js = M.to_json()
    assert js["entries"][0][0] == "1/2"
    assert js["entries"][0][1] == 3


def test_matrix_json_roundtrip_fp():
    M = mat(F5, [[1, 4], [2, 3]])
    assert DenseMatrix.from_json(F5, M.to_json()) == M
    assert M.to_json()["entries"] == [[1, 4], [2, 3]]


@given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
@settings(max_examples=200, deadline=None)
def test_scalar_string_roundtrip_lossless(n, d):
    x = Fraction(n, d)
    assert QQ.scalar_from_str(scalar_to_str(QQ, x)) == x


def test_fieldspec_validation():
    with pytest.raises(ShapeError):
        FieldSpec("Fp", 6)
    with pytest.raises(ShapeError):
        FieldSpec("Fp")
    with pytest.raises(ShapeError):
        FieldSpec("Z")
    assert GF(7).p == 7


def test_is_prime_matches_trial_division():
    assert all(_is_prime(n) == naive_is_prime(n) for n in range(10 ** 5))


def test_is_prime_is_fast_on_61_bit_moduli():
    import time
    t0 = time.perf_counter()
    assert _is_prime(2 ** 61 - 1)
    assert not _is_prime(2147483647 * 1073741789)   # product of two primes
    assert not _is_prime(3215031751)   # strong pseudoprime to bases 2, 3, 5, 7
    assert time.perf_counter() - t0 < 0.1
    assert GF(2 ** 61 - 1).p == 2 ** 61 - 1


def test_modulus_beyond_primality_bound_rejected():
    with pytest.raises(ShapeError):
        GF(PRIME_BOUND)
    with pytest.raises(ShapeError):
        FieldSpec("Fp", True)


@given(st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4),
                min_size=1, max_size=5))
@settings(max_examples=100, deadline=None)
def test_rank_matches_oracle(rows):
    M = mat(QQ, rows)
    assert rank(M) == naive_rank(rows) == image(M).dim
    assert rank(mat(F5, rows)) == naive_rank(rows, 5)


# -- hypothesis property: exactness / no rounding --------------------------------

@given(st.lists(st.lists(st.fractions(max_denominator=20), min_size=3, max_size=3),
                min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_rank_nullity_property(rows):
    M = DenseMatrix.from_rows(QQ, rows)
    assert kernel(M).dim + image(M).dim == M.cols


def test_bareiss_stress_against_oracle():
    # denser, larger, uglier entries than the smoke tests use; the
    # fraction-free elimination must agree with textbook Gauss-Jordan
    rng = random.Random(101)
    for _ in range(15):
        rows = rng.randint(6, 9)
        cols = rng.randint(6, 9)
        ent = [Fraction(rng.randint(-50, 50), rng.randint(1, 7))
               for _ in range(rows * cols)]
        M = DenseMatrix(QQ, rows, cols, ent)
        assert image(M).dim == naive_rank(M.row_lists())
        k = kernel(M)
        assert k.dim == cols - image(M).dim
        for i in range(k.dim):
            assert all(not x for x in M.apply(k.basis.row(i)))
        b = [Fraction(rng.randint(-20, 20), rng.randint(1, 5))
             for _ in range(rows)]
        got = solve(M, b)
        want = naive_solve(M.row_lists(), b)
        assert (got is None) == (want is None)
        if got is not None:
            assert M.apply(got) == [QQ.normalize(x) for x in b]


def test_seeded_stream_draws_as_random_does():
    """``SeededStream(seed)`` reproduces ``random.Random(seed)`` draw for draw
    on the draws the package makes, for small, negative and wide seeds."""
    for seed in [*range(100), -12345, 2 ** 64 + 12345]:
        ours, oracle = SeededStream(seed), random.Random(seed)
        for _ in range(10):
            assert ours.randint(-2, 2) == oracle.randint(-2, 2), seed
            assert ours.randint(-2 ** 16, 2 ** 16) == oracle.randint(-2 ** 16, 2 ** 16), seed
            assert ours.randint(1, 2 ** 16) == oracle.randint(1, 2 ** 16), seed
            assert ours.randbelow(2147483647) == oracle.randrange(2147483647), seed


# -- memoization ------------------------------------------------------------------

class _Owner:
    pass


def test_once_keys_a_call_with_its_defaults_filled_in():
    """``f(x)``, ``f(x, 0)`` and ``f(x, seed=0)`` are one cache entry, and
    ``f(x, 1)`` another; a result of None is cached like any other."""
    calls = []

    @once
    def f(owner, x, seed=0):
        calls.append((x, seed))
        return None if x is None else (x, seed)

    owner = _Owner()
    assert f(owner, 5) == f(owner, 5, 0) == f(owner, 5, seed=0) == (5, 0)
    assert calls == [(5, 0)]
    assert f(owner, 5, 1) == f(owner, 5, seed=1) == (5, 1)
    assert f(owner, x=5, seed=1) == (5, 1)
    assert calls == [(5, 0), (5, 1)]
    assert f(owner, None) is None and f(owner, None, 0) is None
    assert calls == [(5, 0), (5, 1), (None, 0)]
    assert len(owner._once) == 3
    # each owner has a cache of its own
    other = _Owner()
    assert f(other, 5) == (5, 0)
    assert calls[-1] == (5, 0) and len(calls) == 4
