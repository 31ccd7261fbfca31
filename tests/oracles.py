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
