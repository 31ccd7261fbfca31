"""Independent brute-force oracles for the test suite.

Everything here is deliberately naive and self-contained: plain Fraction
Gauss-Jordan, exhaustive searches, hand-rolled modular arithmetic.  Nothing
imports the package's linear algebra, so these results can vouch for it.
"""

from fractions import Fraction
from itertools import product


def naive_rref(rows, p=None):
    """Textbook Gauss-Jordan RREF; rows of Fractions (p None) or ints mod p."""
    if p is None:
        m = [[Fraction(x) for x in r] for r in rows]
    else:
        m = [[int(x) % p for x in r] for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        if p is None:
            inv = Fraction(1) / m[r][c]
            m[r] = [x * inv for x in m[r]]
        else:
            inv = pow(m[r][c], p - 2, p)
            m[r] = [x * inv % p for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                if p is None:
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
                else:
                    m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return [m[i] for i in range(len(pivots))], pivots


def naive_rank(rows, p=None):
    rref, pivots = naive_rref(rows, p)
    return len(pivots)


def is_invertible(M):
    """Whether the matrix M is square of full rank, by ``naive_rank`` of its
    rows: the oracle of the package's invertibility trials."""
    return M.rows == M.cols and naive_rank(M.row_lists(), M.field.p) == M.rows


def naive_solve(rows, rhs, p=None):
    """Any solution of the system, or None; brute Gauss-Jordan on [A|b]."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    rref, pivots = naive_rref(aug, p)
    ncols = len(rows[0]) if rows else 0
    if ncols in pivots:
        return None
    x = [Fraction(0) if p is None else 0] * ncols
    for r, c in enumerate(pivots):
        x[c] = rref[r][ncols]
    return x


def naive_kernel_dim(rows, p=None):
    ncols = len(rows[0]) if rows else 0
    return ncols - naive_rank(rows, p)


def all_fp_vectors(p, n):
    return product(range(p), repeat=n)


def fp_matvec(rows, v, p):
    return [sum(a * b for a, b in zip(r, v)) % p for r in rows]


def span_contains(rows, vec, p=None):
    """Is vec in the row span?  Decided by a rank comparison."""
    return naive_rank(list(rows) + [list(vec)], p) == naive_rank(rows, p)


def naive_is_prime(n):
    """Trial division."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def naive_matmul(a, b, cols, p=None):
    """Textbook triple loop on lists of rows, b having `cols` columns (passed
    in so that a b without rows keeps its shape); exact Fractions (p None) or
    ints mod p."""
    out = []
    for row in a:
        out_row = []
        for j in range(cols):
            s = sum((Fraction(row[k]) * Fraction(b[k][j]) for k in range(len(b))), Fraction(0))
            out_row.append(s if p is None else int(s) % p)
        out.append(out_row)
    return out


def naive_kron(a, b, a_cols, b_cols):
    """Kronecker product of two lists of rows, row (i, k) -> i*len(b)+k and
    column (j, l) -> j*b_cols+l; the column counts are passed in so that
    matrices without rows keep their shape."""
    return [[a[i][j] * b[k][l] for j in range(a_cols) for l in range(b_cols)]
            for i in range(len(a)) for k in range(len(b))]


def naive_null_space(rows, ncols, p=None):
    """A basis of {v : r . v = 0 for every row r}, one vector per free column
    of the textbook RREF."""
    rref, pivots = naive_rref(rows, p)
    out = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [0] * ncols
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = -rref[r][f] if p is None else -rref[r][f] % p
        out.append(v)
    return out


def intersect(a, b, n, p=None):
    """A spanning list of the intersection of the row spaces of a and b in
    k^n: the combinations of a's rows that b's rows reach, read off the null
    space of the n x (len(a) + len(b)) matrix with those rows as columns."""
    cols = list(a) + list(b)
    system = [[c[k] for c in cols] for k in range(n)]
    out = []
    for x in naive_null_space(system, len(cols), p):
        v = [sum(Fraction(x[i]) * Fraction(a[i][k]) for i in range(len(a))) for k in range(n)]
        out.append(v if p is None else [int(t) % p for t in v])
    return out


def naive_subalgebra(mult, unit, gens, p=None):
    """A spanning list of the subalgebra generated by the elements with
    coordinate vectors gens: the words in them, applied to 1 by the
    structure constants ``mult[i][j][k]`` (the e_k-coefficient of e_i e_j).
    Words grow one letter at a time, breadth first; a word in the span of
    the words kept before it is dropped, and so are all its extensions,
    which lie in the span of the extensions of the kept ones."""
    n = len(unit)
    kept = [[Fraction(x) for x in unit]]
    frontier = list(kept)
    while frontier:
        longer = []
        for word in frontier:
            for g in gens:
                w = [sum(Fraction(g[i]) * Fraction(mult[i][j][k]) * word[j]
                         for i in range(n) if g[i] for j in range(n)) for k in range(n)]
                if p is not None:
                    w = [Fraction(int(x) % p) for x in w]
                if not span_contains(kept, w, p):
                    kept.append(w)
                    longer.append(w)
        frontier = longer
    return kept


def random_scalar(field, rng, span=5):
    """A random field element: uniform in [0, p) over Fp, an integer in
    [-span, span] over Q."""
    if field.kind == "Fp":
        return rng.randrange(field.p)
    return rng.randint(-span, span)


def scalar_to_str(field, x):
    """The string form of a scalar: its residue in [0, p) over Fp, "a" or
    "a/b" in lowest terms over Q."""
    x = Fraction(x)
    if field.kind == "Fp":
        return str(x.numerator * pow(x.denominator, -1, field.p) % field.p)
    return str(x)


def is_total(ctx, lam_flat):
    """Does lambda(x) = 1_A hold for the element lambda of Hom(C, A) with flat
    coordinates lam_flat (lambda(c_k) = lam_flat[k::dim C]), extended left
    A-linearly to x in A (x) C?  Computed from the structure constants."""
    A, nA, nC, p = ctx.A, ctx.A.dim, ctx.C.dim, ctx.field.p
    mult = A.to_json()["mult"]   # the structure constants as the wire format writes them
    out = [Fraction(0)] * nA
    for i in range(nA):
        for k in range(nC):
            coef = Fraction(ctx.x[i * nC + k])
            for j in range(nA):
                # coef * e_i * lambda(c_k)_j e_j
                c = coef * Fraction(lam_flat[j * nC + k])
                for t in range(nA):
                    out[t] += c * Fraction(mult[i][j][t])
    unit = [Fraction(u) for u in A.unit]
    if p is not None:
        return [int(x) % p for x in out] == [int(u) % p for u in unit]
    return out == unit


def naive_transpose(a, cols):
    """The transpose of a list of rows with `cols` columns."""
    return [[row[j] for row in a] for j in range(cols)]


def naive_hstack(mats, rows):
    """The matrices, each a list of `rows` rows, side by side; built one row
    at a time."""
    return [[x for m in mats for x in m[r]] for r in range(rows)]


def naive_interleave_columns(mats, rows, cols):
    """The matrices, each a list of `rows` rows of `cols` entries,
    interleaved: column (m, i) is column m of mats[i]; built one entry at a
    time."""
    return [[mats[i][r][m] for m in range(cols) for i in range(len(mats))]
            for r in range(rows)]


def naive_combination(coeffs, mats, rows, cols, p=None):
    """sum coeffs[i] * mats[i] entry by entry, each matrix a list of `rows`
    rows of `cols` entries; exact Fractions (p None) or ints mod p."""
    out = []
    for r in range(rows):
        out_row = []
        for c in range(cols):
            s = sum((Fraction(a) * Fraction(m[r][c]) for a, m in zip(coeffs, mats)), Fraction(0))
            out_row.append(s if p is None else int(s) % p)
        out.append(out_row)
    return out


def naive_combinations(mats, coeff_rows, rows, cols, p=None):
    """For each column k of the coefficient matrix (a list of rows, one per
    matrix), ``naive_combination`` of the matrices with the coefficients of
    column k."""
    width = len(coeff_rows[0]) if coeff_rows else 0
    return [naive_combination([c[k] for c in coeff_rows], mats, rows, cols, p)
            for k in range(width)]
