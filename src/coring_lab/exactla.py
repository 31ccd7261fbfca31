"""Exact linear algebra over the rationals and prime fields.

Everything downstream (algebra/coalgebra presentations, corings, the Morita
context, the Galois and cleft analyses) reduces to rank computations over an
exact field, so this module is deliberately self-contained: field elements,
matrices, canonical subspaces and quotient spaces, with no floating point
anywhere.

Rational entries are plain Python ``int`` whenever the value is integral and
``fractions.Fraction`` otherwise; both are exact and interoperate, and the
integer fast path matters because structure constants are almost always small
integers.  ``fractions`` is imported only where a ``Fraction`` is built or
recognized, so a run over integer data never loads it.  Prime-field entries
are ints in ``[0, p)``.  ``FieldSpec`` only
normalizes, parses and serializes scalars and offers no arithmetic: every
structure map of the package is a matrix expression built from the
operations below.

A ``DenseMatrix`` keeps the API of a dense row-major matrix but stores only
its nonzero entries: per row, the (column, numerator) pairs of its nonzero
entries in column order, every numerator an int over the matrix's one
denominator ``den`` (over Q the lcm of the entries' denominators, over Fp
always 1).  The matrices here are mostly zeros (an analysis of the
``QZ6`` group algebra builds 1.53 M entries, 1.2 % of them nonzero), so
every operation costs its nonzeros, not its shape.  ``__init__`` is the one
construction: it takes a flat list of scalars, normalizing the nonzero
ones, or, from the operations of this module, rows of numerator pairs over
a common denominator, which it only reduces to lowest terms.  ``entries``,
``row``, ``col``, ``columns``, ``row_lists`` and ``get`` read dense views,
built on each call and never cached; an analysis reads them only to
serialize its results.

Arithmetic over Q is fraction-free: ``mul``, ``kron``, ``kron_mul``,
``mul_kron``, ``apply``, ``sub`` and ``combinations`` multiply and add
numerators and hand the product of the denominators to the result, so no
``Fraction`` is built until a dense view is read.  Integer matrices take the
same path with ``den`` 1.  ``apply`` takes a plain vector: it clears the
vector's denominators once and divides once per output entry.

``combinations(mats, C)`` is the one construction of an operator from
coordinates: for each column k of a coefficient matrix C it returns
sum_i C[i, k] mats[i], read from C's stored numerator columns, and a unit
column returns its matrix itself.  Its callers pass the matrix that names
the elements: a subspace's embedding, a hom matrix, a solution, the unit
embedding of A into the dual ring.  ``combination_is_invertible`` forms
one such combination lazily, a row at a time.  Unit rows are shared as unit
columns are: in ``mul``, ``kron_mul``, ``vstack``, ``stack_slices`` and
``sub`` a result row that is one operand row times 1 is that row, and an
empty row stays empty, without arithmetic.  Rows never change, so sharing
them is safe, and over Fp ``__init__`` keeps rows whose numerators are all
residues in [1, p) as they are.

Structure maps between tensor products are applied, not built:
``kron_mul(M, N, Y)`` is ``kron(M, N).mul(Y)`` and ``mul_kron(X, M, N)`` is
``X.mul(kron(M, N))``, neither materializing ``kron(M, N)``.  Every product
and sum combines numerator rows through ``_combine``, apart from the
shared and empty rows above.  Matrices are put
side by side by ``hstack``, as ``vstack`` stacks them, and interleaved
column by column by ``interleave_columns``, the column twin of
``stack_slices``; both re-index the stored pairs.  ``flat_columns`` makes
each of them one column, and ``flat_blocks`` each block of one matrix;
``take_columns`` picks columns as ``take_rows`` picks rows.  A basis of
flattened maps is read back as matrices by ``unflatten_rows``, one per
row, or by ``side_by_side``, all of them in one.  A map given by dense
columns is built with ``DenseMatrix.from_columns``.  None of them goes
through a transpose.

``Subspace.coords_matrix`` is the one membership routine: it reads the
echelon coordinates of every column of a matrix at the pivots and re-checks
them with one product.  ``contains`` and ``contains_columns`` are its
one-column and boolean cases.

``row_reduce`` is the package's one reduction routine: ``kernel``,
``rank``, ``solve_matrix``, ``image``, ``row_space``, ``null_space``,
``Subspace.from_spanning`` and the relation spans (balanced-tensor
relations, intertwiner constraints, taken over the generators of the
acting algebra rather than its whole basis) all read their results off
the ``SubspaceBuilder`` it returns.  Its per-field loops are the one
place a row is normalized: each row, as it is read, becomes a {col: int}
dict of its nonzero entries (a dense row times the lcm of its
denominators, residues over Fp).  ``presolved_span`` then solves the rows
of one or two terms by a weighted union-find over the columns
(``_Classes``), structured Gaussian elimination, and buffers the longer
rows.  Each buffered row is rewritten once over the classes and reaches
the builder's ``insert``, the one elimination step; the classes then write
the row of every other column into the builder itself, so it ends with
the rows that inserting every row would leave.  Only
``combination_is_invertible``, which stops at the first row that adds
nothing, and the closure of ``AlgebraPresentation.generators``, which asks
after every product whether the span grew, insert their rows directly.
Matrix rows enter the builder as their numerator pairs, never densified.
``insert`` takes one input form, a {col: int} dict of nonzero ints, and
eliminates without fractions: it stores every echelon row as its
primitive integer multiple with a positive pivot entry (over Fp with a
unit pivot), and keeps the full RREF after every insertion, scanning the
stored rows for each new pivot column.
Its results are read off those integer rows without building a ``Fraction``:
``SubspaceBuilder.echelon`` scales them to numerator rows over the lcm of
their pivot entries (over Fp the pivots are already 1), which span bases
and ``solve_matrix`` take, and ``null_vectors``, ``null_space`` and
``quotient`` take the builder itself, reading its rows in time linear in
their nonzeros.  No read of the builder builds a fraction.
"""

from __future__ import annotations

import functools
import json
from _random import Random as _CoreRandom
from collections.abc import Iterable, Sequence
from math import gcd, lcm

# a field element: an int, or over Q a ``fractions.Fraction`` where it is
# not integral; the name is read only in annotations, never evaluated
Scalar = "int | Fraction"


def _wire_scalar(s: str) -> bool:
    """Whether s is in the one scalar grammar of the wire format,
    -?[0-9]+(/[0-9]+)?, checked before ``int`` and ``Fraction``, which
    would also take spaces, underscores, a "+", decimals and non-ASCII
    digits."""
    num, slash, den = s.partition("/")
    return s.isascii() and num.removeprefix("-").isdigit() and (den.isdigit() or not slash)


def _fraction(x: int, d: int) -> Scalar:
    """The reduced ``Fraction`` x / d, d not dividing x; ``fractions`` is
    imported with the first one built."""
    from fractions import Fraction
    return Fraction(x, d)


class ExactLAError(Exception):
    """Base error for this package's exact linear algebra layer."""


class ShapeError(ExactLAError):
    """Dimension or shape mismatch."""


class NotInSubspace(ExactLAError):
    """A column handed to ``Subspace.coords_matrix`` lies outside the subspace."""

    def __init__(self, column: int):
        super().__init__(f"column {column} is not in the subspace")
        self.column = column


def once(fn):
    """Memoize ``fn`` in the ``__dict__`` of its first argument, keyed by ``fn``
    and the other arguments (ints, or objects hashed by identity) with their
    defaults filled in, so ``f(x)``, ``f(x, 0)`` and ``f(x, seed=0)`` share
    one entry.  A call that passes every argument positionally is keyed as
    ``(fn, *args)`` without filling anything in, and a hit is served by one
    lookup in the cache.  Sound only because the owners (contexts, reducers,
    comodules, modules, Morita data) are frozen after construction; never
    mutate a result."""
    rest = fn.__code__.co_varnames[1:fn.__code__.co_argcount]
    defaults = dict(zip(reversed(rest), reversed(fn.__defaults__ or ())))
    arity = len(rest)

    @functools.wraps(fn)
    def memo(owner, *args, **kwargs):
        if kwargs or len(args) != arity:
            key = (fn, *args, *(kwargs.get(n, defaults.get(n)) for n in rest[len(args):]))
        else:
            key = (fn, *args)
        cache = owner.__dict__.get("_once")
        if cache is None:
            cache = owner.__dict__["_once"] = {}
        value = cache.get(key, _MISSING)
        if value is _MISSING:
            value = cache[key] = fn(owner, *args, **kwargs)
        return value
    return memo


_MISSING = object()   # a cache miss of ``once``; a result may be None


class SeededStream(_CoreRandom):
    """The draws of ``random.Random(seed)`` from its C core alone.

    It subclasses the core that ``random.Random`` subclasses and is seeded
    the same way, and ``randbelow`` is ``random``'s own rejection loop over
    ``getrandbits``, so ``randint`` and ``randbelow(n)`` (``randrange(n)``)
    give the same values, draw for draw, without importing ``random``."""

    def randbelow(self, n: int) -> int:
        """A draw from range(n), n > 0."""
        k = n.bit_length()
        r = self.getrandbits(k)
        while r >= n:
            r = self.getrandbits(k)
        return r

    def randint(self, a: int, b: int) -> int:
        """A draw from a..b, both included."""
        return a + self.randbelow(b - a + 1)


# Miller-Rabin with the first 13 prime bases is exact for every n below this
# bound (Sorenson and Webster, 2015); larger moduli are rejected, not guessed.
PRIME_BOUND = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(p: int) -> bool:
    """Deterministic primality for 0 <= p < PRIME_BOUND."""
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class FieldSpec:
    """Ground field: the rationals (kind "Q") or a prime field (kind "Fp").

    The ground ring is restricted to fields so that every downstream check is
    a rank computation; this is a recorded scope restriction of the engine.
    A field spec only normalizes, parses and serializes scalars; it offers
    no arithmetic.  Structure maps are built by the matrix operations of
    this module, fraction-free over Q and normalized once per entry.
    Immutable, equal and hashed by value.  ``==`` and ``!=`` answer by
    identity first, as nearly every comparison in the package is of the one
    spec an instance carries with itself; only separately built specs are
    compared by kind and modulus.
    """

    __slots__ = ("kind", "p")

    def __init__(self, kind: str, p: int | None = None):
        if kind not in ("Q", "Fp"):
            raise ShapeError(f"unknown field kind {kind!r}")
        if kind == "Fp":
            if type(p) is not int:
                raise ShapeError(f"Fp requires an integer p, got {p!r}")
            if p >= PRIME_BOUND:
                raise ShapeError(f"Fp modulus {p} is not below the primality "
                                 f"bound {PRIME_BOUND}")
            if not _is_prime(p):
                raise ShapeError(f"Fp requires a prime p, got {p!r}")
        elif p is not None:
            raise ShapeError("Q admits no modulus")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "p", p)

    def __setattr__(self, *a):
        raise AttributeError("FieldSpec is immutable")

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not FieldSpec:
            return NotImplemented
        return self.kind == other.kind and self.p == other.p

    def __ne__(self, other):
        if self is other:
            return False
        if type(other) is not FieldSpec:
            return NotImplemented
        return self.kind != other.kind or self.p != other.p

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return f"FieldSpec(kind={self.kind!r}, p={self.p!r})"

    def normalize(self, x) -> Scalar:
        """Canonical representative: reduced Fraction/int for Q, [0,p) for Fp.

        The ``type(x) is int`` fast path matters: Fraction's isinstance check
        goes through an ABC and would dominate every hot loop otherwise.
        """
        if self.kind == "Fp":
            if type(x) is int:
                return x % self.p
            from fractions import Fraction
            if isinstance(x, Fraction):
                if x.denominator == 1:
                    return x.numerator % self.p
                return (x.numerator * pow(x.denominator, -1, self.p)) % self.p
            return x % self.p
        if type(x) is int:
            return x
        from fractions import Fraction
        if isinstance(x, Fraction):
            return x.numerator if x.denominator == 1 else x
        return int(x) if type(x) is bool else x

    # -- serialization ----------------------------------------------------
    def scalar_from_str(self, s) -> Scalar:
        """Parse a JSON scalar: an int, or a string "a" or "a/b" of ASCII
        digits, a leading "-" allowed and nothing else.

        Booleans, null, floats, any other string (exponents, which could ask
        for unbounded work, decimal points, signs other than a leading "-",
        spaces, underscores, non-ASCII digits), zero denominators and, over
        Fp, denominators divisible by p all raise ShapeError.
        """
        if type(s) is int:
            return self.normalize(s)
        if type(s) is not str or not _wire_scalar(s):
            raise ShapeError(f"cannot parse scalar {s!r}")
        num, slash, den = s.partition("/")
        try:
            if not slash:
                return self.normalize(int(num))
            from fractions import Fraction
            x = Fraction(int(num), int(den))
        except (ValueError, ZeroDivisionError):
            raise ShapeError(f"cannot parse scalar {s!r}") from None
        if self.kind == "Fp" and x.denominator % self.p == 0:
            raise ShapeError(f"scalar {s!r} has a denominator divisible by {self.p}")
        return self.normalize(x)

    def scalar_to_json(self, x):
        x = self.normalize(x)
        if self.kind == "Fp":
            return x
        return x if isinstance(x, int) else str(x)

    def to_json(self) -> dict:
        if self.kind == "Fp":
            return {"kind": "Fp", "p": self.p}
        return {"kind": "Q"}

    @staticmethod
    def from_json(obj: dict) -> "FieldSpec":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ShapeError("field spec must be an object with a 'kind'")
        if obj["kind"] == "Fp":
            return FieldSpec("Fp", obj.get("p"))
        if obj["kind"] == "Q":
            return FieldSpec("Q")
        raise ShapeError(f"unknown field kind {obj['kind']!r}")


QQ = FieldSpec("Q")


def GF(p: int) -> FieldSpec:
    return FieldSpec("Fp", p)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


class _Numerators:
    """Rows of (column, int) pairs in column order over one denominator: the
    form in which the operations of this module hand a result to
    ``DenseMatrix.__init__``.  Over Q no pair may hold a zero.  Over Fp
    ``den`` is 1 and the ints may be any representatives: one scan checks
    that every numerator is a residue in [1, p), in which case the rows are
    stored as they are, and otherwise they are rebuilt reduced mod p with the
    zeros dropped."""

    __slots__ = ("rows", "den")

    def __init__(self, rows: list, den: int = 1):
        self.rows = rows
        self.den = den


class DenseMatrix:
    """Immutable matrix over an exact field with the API of a dense
    row-major one, stored as its nonzero entries.

    ``_nonzero_rows`` holds, per row, the (column, numerator) pairs of the
    nonzero entries in column order; entry (i, j) is numerator / ``den``.
    ``den`` is the least common multiple of the entries' denominators over
    Q (1 when every entry is an int) and 1 over Fp, and each numerator is
    an int (a residue in [0, p) over Fp), so equal matrices store equal
    pairs.  Products read the numerators without scanning any zero.
    """

    __slots__ = ("field", "rows", "cols", "den", "_nonzero_rows")

    def __init__(self, field: FieldSpec, rows: int, cols: int, entries):
        """The rows x cols matrix of a flat row-major list of scalars, or of
        the ``_Numerators`` that an operation of this module hands over.
        The five slots are written through their descriptors, bound once at
        import, which skip the assignment guard ``__setattr__`` without an
        attribute lookup per slot: an analysis builds thousands of
        matrices."""
        if rows < 0 or cols < 0:
            raise ShapeError("negative dimensions")
        if type(entries) is _Numerators:
            nonzero, den = _lowest_terms(field, entries.rows, entries.den)
            if len(nonzero) != rows:
                raise ShapeError(f"need {rows} rows, got {len(nonzero)}")
        else:
            nonzero, den = _from_flat(field, rows, cols, entries)
        _set_field(self, field)
        _set_rows(self, rows)
        _set_cols(self, cols)
        _set_den(self, den)
        _set_nonzero(self, nonzero)

    def __setattr__(self, *a):
        raise AttributeError("DenseMatrix is immutable")

    # -- constructors -----------------------------------------------------
    @staticmethod
    def from_rows(field: FieldSpec, rows: Sequence[Sequence[Scalar]], cols: int | None = None) -> "DenseMatrix":
        rows = list(rows)
        if not rows:
            return DenseMatrix(field, 0, 0 if cols is None else cols, [])
        w = len(rows[0]) if cols is None else cols
        if any(len(r) != w for r in rows):
            raise ShapeError(f"ragged rows: every row needs {w} entries")
        flat = [x for r in rows for x in r]
        return DenseMatrix(field, len(rows), w, flat)

    @staticmethod
    def from_columns(field: FieldSpec, cols: Sequence[Sequence[Scalar]], rows: int) -> "DenseMatrix":
        """The rows x len(cols) matrix whose j-th column is cols[j]."""
        cols = list(cols)
        if any(len(c) != rows for c in cols):
            raise ShapeError("ragged columns")
        return DenseMatrix(field, rows, len(cols), [x for r in zip(*cols) for x in r])

    @staticmethod
    def identity(field: FieldSpec, n: int) -> "DenseMatrix":
        return DenseMatrix(field, n, n, _Numerators([[(i, 1)] for i in range(n)]))

    @staticmethod
    def zeros(field: FieldSpec, rows: int, cols: int) -> "DenseMatrix":
        return DenseMatrix(field, rows, cols, _Numerators([[] for _ in range(rows)]))

    # -- access -----------------------------------------------------------
    @property
    def entries(self) -> list:
        """All entries, row-major: a dense list built on each read."""
        out = [0] * (self.rows * self.cols)
        c, d = self.cols, self.den
        for i, pairs in enumerate(self._nonzero_rows):
            _fill(out, i * c, pairs, d)
        return out

    @property
    def nnz(self) -> int:
        """The number of nonzero entries, all that the matrix stores."""
        return sum(map(len, self._nonzero_rows))

    def get(self, i: int, j: int) -> Scalar:
        if not 0 <= j < self.cols:
            raise IndexError("column index out of range")
        # a scan of the sorted pairs: no command reads a single entry
        for c, x in self._nonzero_rows[i]:
            if c >= j:
                return _value(x, self.den) if c == j else 0
        return 0

    def row(self, i: int) -> list:
        out = [0] * self.cols
        _fill(out, 0, self._nonzero_rows[i], self.den)
        return out

    def col(self, j: int) -> list:
        if not 0 <= j < self.cols:
            raise IndexError("column index out of range")
        out, d = [0] * self.rows, self.den
        for i, pairs in enumerate(self._nonzero_rows):
            for c, x in pairs:
                if c >= j:
                    if c == j:
                        out[i] = _value(x, d)
                    break
        return out

    def columns(self) -> list:
        out = [[0] * self.rows for _ in range(self.cols)]
        for i, pairs in enumerate(self.nonzero_rows()):
            for j, x in pairs:
                out[j][i] = x
        return out

    def row_lists(self) -> list:
        return [self.row(i) for i in range(self.rows)]

    def nonzero_rows(self) -> list:
        """Per row, the (column, entry) pairs of its nonzero entries in
        column order: the stored pairs themselves when ``den`` is 1, which
        a caller must not mutate."""
        d = self.den
        if d == 1:
            return self._nonzero_rows
        return [[(j, _value(x, d)) for j, x in pairs] for pairs in self._nonzero_rows]

    def nonzero_columns(self) -> list:
        """Per column, the (row, entry) pairs of its nonzero entries in row
        order; the column twin of ``nonzero_rows``, built on each call."""
        return _transposed(self.nonzero_rows(), self.cols)

    def numerator_rows(self) -> list:
        """Per row, the stored (column, numerator) pairs, entry (i, j) being
        numerator / ``den``; a caller must not mutate them."""
        return self._nonzero_rows

    def numerator_columns(self) -> list:
        """Per column, the (row, numerator) pairs over ``den`` in row order;
        the column twin of ``numerator_rows``, built on each call."""
        return _transposed(self._nonzero_rows, self.cols)

    def is_zero(self) -> bool:
        return not any(self._nonzero_rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DenseMatrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.den == other.den
            and self._nonzero_rows == other._nonzero_rows
        )

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self.den,
                     tuple(map(tuple, self._nonzero_rows))))

    def __repr__(self):
        return f"DenseMatrix({self.rows}x{self.cols} over {self.field.kind})"

    # -- arithmetic ---------------------------------------------------------
    def _check_same_shape(self, other: "DenseMatrix"):
        if self.rows != other.rows or self.cols != other.cols or self.field != other.field:
            raise ShapeError("shape/field mismatch")

    def sub(self, other: "DenseMatrix") -> "DenseMatrix":
        self._check_same_shape(other)
        d = lcm(self.den, other.den)
        a, b = d // self.den, -(d // other.den)
        # a row of self over an empty row of other is that row itself when
        # self is already over d
        out = [_combine([(a, x), (b, y)]) if y else x if a == 1 else _combine([(a, x)])
               for x, y in zip(self._nonzero_rows, other._nonzero_rows)]
        return DenseMatrix(self.field, self.rows, self.cols, _Numerators(out, d))

    def mul(self, other: "DenseMatrix") -> "DenseMatrix":
        if self.cols != other.rows or self.field != other.field:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        out = _times_rows(self._nonzero_rows, other._nonzero_rows)
        return DenseMatrix(self.field, self.rows, other.cols,
                           _Numerators(out, self.den * other.den))

    def apply(self, vec: Sequence[Scalar]) -> list:
        """Matrix times column vector, returned as a plain list."""
        if len(vec) != self.cols:
            raise ShapeError("vector length mismatch")
        dv, iv = clear_denominators(vec)
        out = [sum([a * iv[j] for j, a in pairs]) for pairs in self._nonzero_rows]
        return divide_out(self.field, out, self.den * dv)

    def transpose(self) -> "DenseMatrix":
        return DenseMatrix(self.field, self.cols, self.rows,
                           _Numerators(_transposed(self._nonzero_rows, self.cols), self.den))

    def take_rows(self, indices: Iterable[int]) -> "DenseMatrix":
        """The matrix of this one's rows at indices, in that order."""
        nz = self._nonzero_rows
        out = [nz[i] for i in indices]
        return DenseMatrix(self.field, len(out), self.cols, _Numerators(out, self.den))

    def take_columns(self, indices: Iterable[int]) -> "DenseMatrix":
        """The matrix of this one's columns at indices, distinct, in that
        order."""
        index = {j: k for k, j in enumerate(indices)}
        out = [sorted((index[j], x) for j, x in pairs if j in index)
               for pairs in self._nonzero_rows]
        return DenseMatrix(self.field, self.rows, len(index), _Numerators(out, self.den))

    def reshape(self, rows: int, cols: int) -> "DenseMatrix":
        """The rows x cols matrix with this one's entries in the same
        row-major order."""
        if rows * cols != self.rows * self.cols:
            raise ShapeError(f"cannot reshape {self.rows}x{self.cols} to {rows}x{cols}")
        out = [[] for _ in range(rows)]
        for i, pairs in enumerate(self._nonzero_rows):
            base = i * self.cols
            for j, x in pairs:
                r, k = divmod(base + j, cols)
                out[r].append((k, x))
        return DenseMatrix(self.field, rows, cols, _Numerators(out, self.den))

    def vstack(self, *others: "DenseMatrix") -> "DenseMatrix":
        """This matrix with the rows of the others below it."""
        if any(o.cols != self.cols or o.field != self.field for o in others):
            raise ShapeError("vstack mismatch")
        mats = (self, *others)
        d = lcm(*[m.den for m in mats])
        out = [pairs for m in mats for pairs in _scaled_rows(d // m.den, m._nonzero_rows)]
        return DenseMatrix(self.field, len(out), self.cols, _Numerators(out, d))

    # -- serialization ------------------------------------------------------
    def json_rows(self) -> list:
        """The rows as lists of JSON scalars, each ``FieldSpec.scalar_to_json``
        of its entry, read from the stored numerators."""
        return [_json_scalars(pairs, self.den, self.cols) for pairs in self._nonzero_rows]

    def json_columns(self) -> list:
        """The columns as lists of JSON scalars, as ``json_rows``."""
        return [_json_scalars(pairs, self.den, self.rows) for pairs in self.numerator_columns()]

    def to_json(self) -> dict:
        return {"rows": self.rows, "cols": self.cols, "entries": self.json_rows()}

    @staticmethod
    def from_json(field: FieldSpec, obj: dict) -> "DenseMatrix":
        rows, cols = json_dim(obj, "rows", "matrix"), json_dim(obj, "cols", "matrix")
        parsed = parse_array(field, json_get(obj, "entries", "matrix"), (rows, cols),
                             "matrix entries")
        return DenseMatrix.from_rows(field, parsed, cols=cols)


# the setters of DenseMatrix's slots, bypassing its assignment guard
_set_field = DenseMatrix.field.__set__
_set_rows = DenseMatrix.rows.__set__
_set_cols = DenseMatrix.cols.__set__
_set_den = DenseMatrix.den.__set__
_set_nonzero = DenseMatrix._nonzero_rows.__set__


def _from_flat(field: FieldSpec, rows: int, cols: int, entries) -> tuple:
    """(nonzero rows, den) of a flat row-major list of scalars, normalizing
    the nonzero ones only; one type scan finds the all-int case."""
    entries = list(entries)   # a list of its own: a generator is read once
    if len(entries) != rows * cols:
        raise ShapeError(f"need {rows * cols} entries, got {len(entries)}")
    nonzero = [[(j, x) for j, x in enumerate(entries[i * cols:(i + 1) * cols]) if x]
               for i in range(rows)]
    # FieldSpec.normalize with its int case inlined: almost every entry is
    # an int
    if field.kind == "Fp":
        p, norm = field.p, field.normalize
        return [[(j, y) for j, x in pairs if (y := x % p if type(x) is int else norm(x))]
                for pairs in nonzero], 1
    if set(map(type, entries)) <= {int}:
        return nonzero, 1
    norm = field.normalize
    nonzero = [[(j, x if type(x) is int else norm(x)) for j, x in pairs] for pairs in nonzero]
    # over the common denominator of the canonical entries
    den = lcm(*{x.denominator for pairs in nonzero for _, x in pairs if type(x) is not int})
    if den == 1:
        return nonzero, 1
    return [[(j, x * den if type(x) is int else x.numerator * (den // x.denominator))
             for j, x in pairs] for pairs in nonzero], den


def _lowest_terms(field: FieldSpec, rows: list, den: int) -> tuple:
    """The canonical (nonzero rows, den) of numerator rows over den: over Fp
    residues with the zeros dropped, the rows themselves when every
    numerator is already a residue in [1, p); over Q numerators and den
    divided by their common content, den 1 when no entry is left."""
    if field.kind == "Fp":
        p = field.p
        for pairs in rows:
            for _, x in pairs:
                if not 0 < x < p:
                    return [[(j, y) for j, x in pairs if (y := x % p)] for pairs in rows], 1
        return rows, 1
    if den == 1:
        return rows, 1
    g = den
    for pairs in rows:
        for _, x in pairs:
            g = gcd(g, x)
            if g == 1:
                return rows, den
    # g == den also when no entry is left
    return [[(j, x // g) for j, x in pairs] for pairs in rows], den // g


def _value(x: int, d: int) -> Scalar:
    """The field element x / d of a numerator: an int where integral and a
    (reduced) Fraction otherwise."""
    if d == 1:
        return x
    return x // d if not x % d else _fraction(x, d)


def _fill(out: list, base: int, pairs: list, d: int) -> None:
    """Write the entries of a numerator row over d into the dense list out,
    its column 0 at index base."""
    if d == 1:
        for j, x in pairs:
            out[base + j] = x
    else:
        for j, x in pairs:
            out[base + j] = x // d if not x % d else _fraction(x, d)


def _json_scalars(pairs: list, d: int, n: int) -> list:
    """The n JSON scalars of a numerator row over d: an int where the entry
    is integral and otherwise "a/b" in lowest terms, as ``str(Fraction)``
    gives it, without building the Fraction."""
    out = [0] * n
    if d == 1:
        for j, x in pairs:
            out[j] = x
    else:
        for j, x in pairs:
            g = gcd(x, d)
            out[j] = x // d if g == d else f"{x // g}/{d // g}"
    return out


def _transposed(rows: list, cols: int) -> list:
    """The columns of rows of (column, x) pairs, as (row, x) pairs in row
    order."""
    out = [[] for _ in range(cols)]
    for i, pairs in enumerate(rows):
        for j, x in pairs:
            out[j].append((i, x))
    return out


def _combine(terms: list) -> list:
    """sum a * pairs over the (a, pairs) of terms, each pairs a numerator row
    and so is the result: the inner loop of every product and sum here.  A
    single term with a == 1 is its row itself, shared, as rows never
    change."""
    if len(terms) == 1:
        a, pairs = terms[0]
        return pairs if a == 1 else [(j, a * b) for j, b in pairs]
    if not terms:
        return []
    acc = {}
    get = acc.get
    for a, pairs in terms:
        for j, b in pairs:
            acc[j] = get(j, 0) + a * b
    return [(j, acc[j]) for j in sorted(acc) if acc[j]]


def _times_rows(rows: list, other: list) -> list:
    """The numerator rows of the product of numerator rows with the rows
    other, each row of the result sum a * other[k] over the (k, a) of its
    row.  An empty row stays empty and a row with a single unit numerator
    (k, 1) is other[k] itself, shared: neither builds terms for
    ``_combine``."""
    return [other[pairs[0][0]] if len(pairs) == 1 and pairs[0][1] == 1
            else _combine([(a, other[k]) for k, a in pairs]) if pairs else pairs
            for pairs in rows]


def _scaled_rows(s: int, rows: list) -> list:
    """The numerator rows s * rows: rows themselves, shared, when s is 1."""
    return rows if s == 1 else [[(j, s * x) for j, x in pairs] for pairs in rows]


def _one_shape(field: FieldSpec, parts: Sequence[DenseMatrix], rows: int, cols: int) -> tuple:
    """(d, the (d / den, stored rows) of each part) for parts of shape
    rows x cols over field, d the lcm of their denominators."""
    if any(P.rows != rows or P.cols != cols or P.field != field for P in parts):
        raise ShapeError(f"the parts are not all {rows} x {cols} over one field")
    d = lcm(*[P.den for P in parts])
    return d, [(d // P.den, P._nonzero_rows) for P in parts]


def stack_slices(field: FieldSpec, parts: Sequence[DenseMatrix]) -> DenseMatrix:
    """The rows of parts, all of one shape, interleaved: row (m, c) is row m
    of parts[c], at index m * len(parts) + c.  A map into M (x) C is stacked
    this way from its C-components."""
    rows, cols = parts[0].rows, parts[0].cols
    d, scaled = _one_shape(field, parts, rows, cols)
    scaled = [_scaled_rows(s, nz) for s, nz in scaled]
    out = [nz[m] for m in range(rows) for nz in scaled]
    return DenseMatrix(field, rows * len(parts), cols, _Numerators(out, d))


def unstack_slices(M: DenseMatrix, n: int) -> list[DenseMatrix]:
    """The n parts that ``stack_slices`` interleaves into M: row m of part c
    is row (m, c) of M."""
    return [M.take_rows(range(c, M.rows, n)) for c in range(n)]


def hstack(field: FieldSpec, parts: Sequence[DenseMatrix], rows: int) -> DenseMatrix:
    """The columns of parts, each with ``rows`` rows over field, side by
    side in order, as ``vstack`` stacks rows; no parts make a rows x 0
    matrix.  The stored pairs are re-indexed into the one matrix built."""
    if any(P.rows != rows or P.field != field for P in parts):
        raise ShapeError(f"the parts do not all have {rows} rows over one field")
    d, offset, scaled = lcm(*[P.den for P in parts]), 0, []
    for P in parts:
        scaled.append((offset, d // P.den, P._nonzero_rows))
        offset += P.cols
    out = [[(o + j, s * x) for o, s, nz in scaled for j, x in nz[r]] for r in range(rows)]
    return DenseMatrix(field, rows, offset, _Numerators(out, d))


def interleave_columns(field: FieldSpec, parts: Sequence[DenseMatrix], rows: int) -> DenseMatrix:
    """The columns of parts, all of one shape rows x cols, interleaved:
    column (m, i), at index m * len(parts) + i, is column m of parts[i],
    the column twin of ``stack_slices``."""
    cols = parts[0].cols if parts else 0
    d, scaled = _one_shape(field, parts, rows, cols)
    n = len(parts)
    out = [sorted((m * n + i, s * x) for i, (s, nz) in enumerate(scaled) for m, x in nz[r])
           for r in range(rows)]
    return DenseMatrix(field, rows, n * cols, _Numerators(out, d))


def flat_columns(field: FieldSpec, parts: Sequence[DenseMatrix], rows: int,
                 cols: int) -> DenseMatrix:
    """The (rows * cols) x len(parts) matrix whose column k is parts[k], each
    rows x cols, read row-major: ``interleave_columns`` reshaped,
    re-indexed into the one matrix built."""
    d, scaled = _one_shape(field, parts, rows, cols)
    out = [[] for _ in range(rows * cols)]
    for k, (s, nz) in enumerate(scaled):
        for r, pairs in enumerate(nz):
            for m, x in pairs:
                out[r * cols + m].append((k, s * x))
    return DenseMatrix(field, rows * cols, len(parts), _Numerators(out, d))


def flat_blocks(M: DenseMatrix, rows: int, cols: int) -> DenseMatrix:
    """M cut into blocks of rows x cols, block (b, d) in block row b and
    block column d, as the (rows * cols) x (number of blocks) matrix whose
    column (b, d) is that block read row-major: ``flat_columns`` of the
    blocks, re-indexed from M's stored pairs without cutting them out."""
    if rows <= 0 or cols <= 0 or M.rows % rows or M.cols % cols:
        raise ShapeError(f"cannot cut {M.rows}x{M.cols} into {rows}x{cols} blocks")
    per_row = M.cols // cols
    out = [[] for _ in range(rows * cols)]
    # taking M's rows in order keeps each output row in column order
    for r, pairs in enumerate(M._nonzero_rows):
        b, i = divmod(r, rows)
        for c, x in pairs:
            d, j = divmod(c, cols)
            out[i * cols + j].append((b * per_row + d, x))
    return DenseMatrix(M.field, rows * cols, M.rows // rows * per_row, _Numerators(out, M.den))


def _check_row_shape(M: DenseMatrix, rows: int, cols: int) -> None:
    if rows * cols != M.cols:
        raise ShapeError(f"cannot read rows of length {M.cols} as {rows}x{cols} matrices")


def unflatten_rows(M: DenseMatrix, rows: int, cols: int) -> list[DenseMatrix]:
    """Each row of M read row-major as a rows x cols matrix, as a hom space
    stores its maps: one matrix per row, re-indexed from its stored pairs."""
    _check_row_shape(M, rows, cols)
    out = []
    for pairs in M._nonzero_rows:
        split = [[] for _ in range(rows)]
        for c, x in pairs:
            r, k = divmod(c, cols)
            split[r].append((k, x))
        out.append(DenseMatrix(M.field, rows, cols, _Numerators(split, M.den)))
    return out


def side_by_side(M: DenseMatrix, rows: int, cols: int) -> DenseMatrix:
    """``hstack`` of ``unflatten_rows(M, rows, cols)``: column (i, m),
    at index i * cols + m, is column m of row i of M read as a rows x cols
    matrix; one matrix, re-indexed from M's stored pairs."""
    _check_row_shape(M, rows, cols)
    out = [[] for _ in range(rows)]
    # taking M's rows in order keeps each output row in column order
    for i, pairs in enumerate(M._nonzero_rows):
        for c, x in pairs:
            r, m = divmod(c, cols)
            out[r].append((i * cols + m, x))
    return DenseMatrix(M.field, rows, M.rows * cols, _Numerators(out, M.den))


def block_diag(M: DenseMatrix, N: DenseMatrix) -> DenseMatrix:
    """The direct sum of M and N: M the top left block, N the bottom right."""
    if M.field != N.field:
        raise ShapeError("field mismatch")
    d, c = lcm(M.den, N.den), M.cols
    a, b = d // M.den, d // N.den
    out = [[(j, a * x) for j, x in pairs] for pairs in M._nonzero_rows] + \
        [[(c + j, b * x) for j, x in pairs] for pairs in N._nonzero_rows]
    return DenseMatrix(M.field, M.rows + N.rows, c + N.cols, _Numerators(out, d))


def differing_columns(X: DenseMatrix, Y: DenseMatrix) -> list:
    """The columns in which X and Y, of one shape, differ, in order: those a
    failing matrix identity names."""
    if X == Y:
        return []
    return [j for j, (x, y) in enumerate(zip(X.nonzero_columns(), Y.nonzero_columns()))
            if x != y]


def kron(M: DenseMatrix, N: DenseMatrix) -> DenseMatrix:
    """Kronecker product; row index (i_M, i_N) -> i_M*rows(N)+i_N, same for
    cols.  Fraction-free like the products."""
    if M.field != N.field:
        raise ShapeError("field mismatch")
    cN = N.cols
    out = [[(jm * cN + j2, a * b) for jm, a in mrow for j2, b in nrow]
           for mrow in M._nonzero_rows for nrow in N._nonzero_rows]
    return DenseMatrix(M.field, M.rows * N.rows, M.cols * cN, _Numerators(out, M.den * N.den))


def _scaled(xs, d: int) -> list:
    """The ints d * x for the scalars xs, d a multiple of their denominators."""
    return [x * d if type(x) is int else x.numerator * (d // x.denominator) for x in xs]


def clear_denominators(xs) -> tuple:
    """(d, ints): d the lcm of the denominators of the scalars xs and ints
    their multiples by d; (1, xs) when every x is an int, found by one type
    scan.  With ``divide_out`` this is the fraction-free product path."""
    if set(map(type, xs)) <= {int}:
        return 1, xs
    d = lcm(*{x.denominator for x in xs if type(x) is not int})
    return d, _scaled(xs, d)


def divide_out(field: FieldSpec, xs: list, d: int) -> list:
    """The ints xs divided by d, as canonical field elements: over Q an int
    where the quotient is integral and a Fraction otherwise, over Fp
    reduced mod p; the one division of a fraction-free product."""
    if d != 1:
        xs = [x // d if not x % d else _fraction(x, d) for x in xs]
    if field.kind == "Q":
        return xs
    p, norm = field.p, field.normalize
    return [x % p if type(x) is int else norm(x) for x in xs]


def kron_mul(M: DenseMatrix, N: DenseMatrix, Y: DenseMatrix) -> DenseMatrix:
    """kron(M, N).mul(Y) without building kron(M, N).

    Row block jm of Y (N.cols rows) passes through N once, for each column jm
    that M uses; M[im, jm] then mixes those blocks into row block im of the
    result.  A row of M with a single unit numerator, as in kron(I, N),
    shares its block's rows.  The result is the only DenseMatrix built.
    """
    if not M.field == N.field == Y.field or M.cols * N.cols != Y.rows:
        raise ShapeError(f"cannot multiply kron({M.rows}x{M.cols}, {N.rows}x{N.cols}) "
                         f"by {Y.rows}x{Y.cols}")
    cN, rN, ynz, mnz = N.cols, N.rows, Y._nonzero_rows, M._nonzero_rows
    # blocks[jm][i2]: row i2 of N . (row block jm of Y)
    blocks = {jm: _times_rows(N._nonzero_rows, ynz[jm * cN:(jm + 1) * cN])
              for jm in {jm for pairs in mnz for jm, _ in pairs}}
    out = []
    for pairs in mnz:
        if len(pairs) == 1 and pairs[0][1] == 1:
            out += blocks[pairs[0][0]]
        elif pairs:
            out += [_combine([(a, blocks[jm][i2]) for jm, a in pairs]) for i2 in range(rN)]
        else:
            out += [pairs] * rN
    return DenseMatrix(M.field, M.rows * N.rows, Y.cols,
                       _Numerators(out, M.den * N.den * Y.den))


def mul_kron(X: DenseMatrix, M: DenseMatrix, N: DenseMatrix) -> DenseMatrix:
    """X.mul(kron(M, N)) without building kron(M, N), or any transpose.

    Per row of X, the segment that meets row block i of kron(M, N) passes
    through N once, for each row i that M uses; M[i, a] then mixes it into
    column block a of the result row.  A segment with a single unit
    numerator of X is its row of N itself, with no ``_combine``.  The
    result is the only DenseMatrix built.
    """
    if not X.field == M.field == N.field or X.cols != M.rows * N.rows:
        raise ShapeError(f"cannot multiply {X.rows}x{X.cols} by "
                         f"kron({M.rows}x{M.cols}, {N.rows}x{N.cols})")
    rN, cN = N.rows, N.cols
    nnz, mnz = N._nonzero_rows, M._nonzero_rows
    out = []
    for xrow in X._nonzero_rows:
        segments = {}
        for c, x in xrow:
            i, k = divmod(c, rN)
            if mnz[i]:
                segments.setdefault(i, []).append((x, nnz[k]))
        acc = {}
        get = acc.get
        for i, terms in segments.items():
            seg = terms[0][1] if len(terms) == 1 and terms[0][0] == 1 else _combine(terms)
            for a, m in mnz[i]:
                off = a * cN
                for b, y in seg:
                    acc[off + b] = get(off + b, 0) + m * y
        out.append([(j, acc[j]) for j in sorted(acc) if acc[j]])
    return DenseMatrix(X.field, X.rows, M.cols * cN, _Numerators(out, X.den * M.den * N.den))


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------


class Subspace:
    """A subspace of k^n, held as the unique reduced-echelon basis: the rows
    of the matrix ``basis``."""

    __slots__ = ("field", "ambient_dim", "basis", "pivots", "_embedding")

    def __init__(self, field: FieldSpec, ambient_dim: int, basis: DenseMatrix, pivots: list):
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.pivots = list(pivots)
        self._embedding = None

    @staticmethod
    def from_spanning(field: FieldSpec, ambient_dim: int, vectors: Iterable[Sequence[Scalar]]) -> "Subspace":
        vecs = list(vectors)
        for v in vecs:
            if len(v) != ambient_dim:
                raise ShapeError("spanning vector has wrong length")
        return _span(field, ambient_dim, vecs)

    @staticmethod
    def full(field: FieldSpec, ambient_dim: int) -> "Subspace":
        return Subspace(field, ambient_dim, DenseMatrix.identity(field, ambient_dim),
                        range(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.rows

    @property
    def embedding(self) -> DenseMatrix:
        """The inclusion into k^n, ambient_dim x dim: the basis as columns,
        built once."""
        if self._embedding is None:
            self._embedding = self.basis.transpose()
        return self._embedding

    def is_zero(self) -> bool:
        return self.dim == 0

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of k^{self.ambient_dim})"

    def contains(self, vec: Sequence[Scalar]) -> bool:
        """Membership of one vector; the one-column ``contains_columns``."""
        return self.contains_columns(
            DenseMatrix.from_columns(self.field, [vec], self.ambient_dim))

    def coords_matrix(self, P: DenseMatrix) -> DenseMatrix:
        """The echelon coordinates X of every column of P, basis^T X = P: X is
        P's rows at the pivots, and one product re-checks it.  A column
        outside the subspace raises ``NotInSubspace`` naming the first one."""
        if P.rows != self.ambient_dim or P.field != self.field:
            raise ShapeError("matrix does not live in the subspace's ambient space")
        rows = P._nonzero_rows
        X = DenseMatrix(self.field, self.dim, P.cols,
                        _Numerators([rows[c] for c in self.pivots], P.den))
        outside = differing_columns(self.embedding.mul(X), P)
        if outside:
            raise NotInSubspace(outside[0])
        return X

    def contains_columns(self, P: DenseMatrix) -> bool:
        """Whether every column of P lies in the subspace, read by
        ``coords_matrix``."""
        try:
            self.coords_matrix(P)
        except NotInSubspace:
            return False
        return True


class SubspaceBuilder:
    """Incremental reduced-echelon accumulator with sparse integer rows: the
    package's one elimination routine, under ``row_reduce`` and every span
    built a vector at a time.

    Each echelon row is stored as a dict col->int, a scalar
    multiple of its reduced echelon row: over Q the primitive integer
    multiple with a positive pivot entry, over Fp the row itself (unit
    pivot, entries in [0, p)).  Elimination is fraction-free: a row with
    pivot entry b clears an entry a of v by ``b'*v - a'*row``, with (b', a')
    the pair (b, a) divided by its gcd, and every row it produces is brought
    back to that canonical multiple.  The full RREF invariant (no row has an
    entry in another row's pivot column) holds after every insertion:
    ``insert`` scans the stored rows for each new pivot column and
    back-substitutes the new row into those that hold it.

    ``insert`` takes one input form, a {col: int} dict of nonzero ints, and
    takes it over: the dict becomes the builder's row, or is eliminated in
    place, so a caller that keeps its vector passes a copy.  Bringing a
    row to that form is the per-field loops' work in ``row_reduce``.

    The results are read from the integer rows: ``pivots`` and ``dim``,
    ``echelon`` (the reduced rows as numerators), and ``null_vectors``,
    ``null_space`` and ``quotient``, which take the builder.
    ``row_reduce`` hands it only the rows of three or more terms, and
    ``presolved_span`` fills the other rows in directly, with the rows
    that inserting would leave.
    """

    def __init__(self, field: FieldSpec, ambient_dim: int):
        self.field = field
        self.ambient_dim = ambient_dim
        self._rows = {}   # leading col -> {col: int}, canonical multiple

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> list:
        """The pivot columns, in order."""
        return sorted(self._rows)

    def _den(self) -> int:
        """The lcm of the stored pivot entries, over which every reduced
        echelon entry is a numerator; 1 over Fp."""
        return lcm(*[row[c] for c, row in self._rows.items()])

    def echelon(self) -> _Numerators:
        """The reduced echelon rows in pivot order as numerator rows over
        ``_den()``: each stored row scaled so that its pivot reads that
        denominator.  ``DenseMatrix`` brings them to lowest terms."""
        rows, den = self._rows, self._den()
        out = []
        for c in sorted(rows):
            row = sorted(rows[c].items())
            s = den // row[0][1]   # the pivot is the row's first entry
            out.append(row if s == 1 else [(j, s * x) for j, x in row])
        return _Numerators(out, den)

    def _canonical(self, v: dict) -> dict:
        """The canonical multiple of an integer row: primitive with a positive
        pivot over Q, reduced mod p with a unit pivot over Fp; empty if the
        row is zero in the field."""
        p = self.field.p
        if p is not None:
            v = {c: x % p for c, x in v.items() if x % p}
        if not v:
            return v
        lead = v[min(v)]
        if lead == 1:
            return v
        if p is None:
            # pairwise gcd, not gcd(*row): it stops at content 1, and star
            # calls would leave thousands of argument tuples in the
            # interpreter's free lists
            g = 0
            for x in v.values():
                g = gcd(g, x)
                if g == 1:
                    break
            if lead < 0:
                g = -g
            return v if g == 1 else {c: x // g for c, x in v.items()}
        inv = pow(lead, -1, p)
        return {c: x * inv % p for c, x in v.items()}

    def insert(self, v: dict) -> bool:
        """Insert a {col: int} dict of nonzero ints (over Fp any ints, read
        mod p); True if the dim grew.  The dict is taken over, not copied:
        the builder changes it and may keep it as a row."""
        rows = self._rows
        # Pivot rows carry no other pivot columns (full RREF invariant), so
        # clearing one hit introduces no new ones and the hits are fixed.
        for c in rows.keys() & v.keys():
            _eliminate(v, c, rows[c])
        v = self._canonical(v)
        if not v:
            return False
        lead = min(v)
        for piv, row in rows.items():
            if lead in row:
                _eliminate(row, lead, v)
                rows[piv] = self._canonical(row)
        rows[lead] = v
        return True


def _eliminate(v: dict, c: int, row: dict) -> None:
    """Clear column c of the integer row v in place with ``row``, whose
    entry in c is its pivot: v <- b'*v - a'*row, (b', a') being
    (row[c], v[c]) divided by their gcd."""
    b, a = row[c], v[c]
    g = gcd(b, a)
    if g != 1:
        b //= g
        a //= g
    if b != 1:
        for k in v:
            v[k] *= b
    for k, y in row.items():
        x = v.get(k, 0) - a * y
        if x:
            v[k] = x
        else:
            del v[k]


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------


class _Classes:
    """A weighted union-find over the columns of a relation span: the
    solution of its one- and two-term rows.

    Every column c lies in a class whose root r is its largest column, with
    a weight num/den such that x_c = num/den * x_r on the solutions: over Q
    a pair of coprime ints with den > 0, over Fp a residue over 1.  A
    two-term row a x + b y = 0 merges two classes, the smaller root under
    the larger; within one class it either holds already or forces the
    class to zero.  A one-term row forces its class to zero, and a merge
    with a zero class is zero.  ``find`` compresses the paths it walks."""

    __slots__ = ("p", "up", "zero")

    def __init__(self, p: int | None):
        self.p = p
        self.up = {}        # non-root column -> (parent, num, den)
        self.zero = set()   # the roots of the zero classes

    def _ratio(self, num: int, den: int) -> tuple:
        """num/den (den nonzero) as a weight pair."""
        p = self.p
        if p is not None:
            return (num if den == 1 else num * pow(den, -1, p)) % p, 1
        if den == 1:
            return num, 1
        if den == -1:
            return -num, 1
        g = gcd(num, den)
        if den < 0:
            g = -g
        return num // g, den // g

    def find(self, c: int) -> tuple:
        """(root, num, den) with x_c = num/den * x_root."""
        up = self.up
        link = up.get(c)
        if link is None:
            return c, 1, 1
        if link[0] not in up:
            return link
        path = []
        while link is not None:
            path.append((c, link))
            c = link[0]
            link = up.get(c)
        # from the root outwards, each weight times its parent's
        num, den = 1, 1
        for node, (_, n, d) in reversed(path):
            num, den = self._ratio(n * num, d * den)
            up[node] = (c, num, den)
        return c, num, den

    def merge(self, x: int, a: int, y: int, b: int) -> None:
        """Impose a x + b y = 0, a and b nonzero in the field."""
        X, nx, dx = self.find(x)
        Y, ny, dy = self.find(y)
        s, t = a * nx * dy, b * ny * dx   # s X + t Y = 0
        zero = self.zero
        if X == Y:
            if (s + t) % self.p if self.p else s + t:
                zero.add(X)
            return
        if X > Y:
            X, Y, s, t = Y, X, t, s
        self.up[X] = (Y, *self._ratio(-t, s))
        if X in zero:
            zero.discard(X)
            zero.add(Y)

    def rewrite(self, row: dict) -> dict:
        """An integer row over the live roots: each column replaced by its
        weight times its root, the zero classes dropped, the whole row
        scaled by the lcm of the weights' denominators; the row itself
        while no class has been merged or zeroed."""
        zero, find = self.zero, self.find
        if not (self.up or zero):
            return row
        terms = []
        m = 1
        for c, x in row.items():
            r, num, den = find(c)
            if r not in zero:
                terms.append((r, x * num, den))
                if den != 1:
                    m = lcm(m, den)
        out = {}
        for r, x, den in terms:
            out[r] = out.get(r, 0) + (x if den == m else x * (m // den))
        p = self.p
        if p is not None:
            return {r: x % p for r, x in out.items() if x % p}
        return {r: x for r, x in out.items() if x}

    def complete(self, span: "SubspaceBuilder") -> None:
        """Add to a builder holding the reduced rows over the live roots the
        rows of every other column, so that it holds the RREF of the whole
        span: e_c - w e_r for c in the class of r with weight w, with the
        reduced row of r substituted in when r is a pivot, and e_c for
        every column of a zero class.  c is less than r and every column of
        that reduced row, so c leads the row, and no row holds another's
        pivot."""
        rows, zero, p = span._rows, self.zero, self.p
        for c in self.up:
            r, num, den = self.find(c)
            if r in zero:
                v = {c: 1}
            else:
                red = rows.get(r)
                if red is None:
                    v = {c: den, r: -num % p if p else -num}
                else:
                    v = {c: den * red[r]}
                    for j, y in red.items():
                        if j != r:
                            v[j] = num * y
                    v = span._canonical(v)
            rows[c] = v
        for z in zero:
            rows[z] = {z: 1}


def presolved_span(field: FieldSpec, n: int, rows) -> SubspaceBuilder:
    """The span in k^n of integer rows, {col: int} dicts of nonzero entries
    (residues over Fp) as the per-field loops of ``row_reduce`` yield
    them, in a ``SubspaceBuilder`` holding exactly the rows that inserting
    each of them leaves (canonical RREF is unique), with the rows of one or
    two terms solved first by a weighted union-find (``_Classes``):
    structured Gaussian elimination, the singleton and doubleton presolve.

    The rows are read once, as they come: the short rows merge classes and
    the rows of three or more terms are buffered.  Then each buffered row
    is rewritten once over the roots of the classes (the row itself when
    there were no short rows) and inserted, and the classes add the row of
    every other column (``_Classes.complete``)."""
    classes = _Classes(field.p)
    long = []
    for row in rows:
        k = len(row)
        if k > 2:
            long.append(row)
        elif k == 2:
            (x, a), (y, b) = row.items()
            classes.merge(x, a, y, b)
        elif k:
            classes.zero.add(classes.find(*row)[0])
    span = SubspaceBuilder(field, n)
    for row in long:
        row = classes.rewrite(row)
        if row:
            span.insert(row)
    classes.complete(span)
    return span


def _row_reduce_q(rows):
    """The rows of a ``row_reduce`` over Q as {col: int} dicts of their
    nonzero entries, as they are read.  A {col: int} dict keeps its entries
    and drops its zeros; a dense sequence of scalars is multiplied by the
    lcm of its denominators, a nonzero multiple that spans the same line.
    One loop per field, so that profiles tell the two fields apart."""
    for row in rows:
        if not isinstance(row, dict):
            row = _integer_row(row)
        elif 0 in row.values():
            row = {c: x for c, x in row.items() if x}
        yield row


def _row_reduce_fp(rows, p: int):
    """The rows of a ``row_reduce`` over Fp as {col: residue} dicts of their
    nonzero entries, each reduced mod p, as ``_row_reduce_q``."""
    for row in rows:
        if not isinstance(row, dict):
            row = _integer_row(row)
        yield {c: y for c, x in row.items() if (y := x % p)}


def _integer_row(row: Sequence[Scalar]) -> dict:
    """The nonzero entries of a dense row of scalars as a {col: int} dict,
    the row times the lcm of its denominators."""
    row = {c: x for c, x in enumerate(row) if x}
    values = row.values()
    _, ints = clear_denominators(values)
    return row if ints is values else dict(zip(row, ints))


def row_reduce(field: FieldSpec, n: int, rows: Iterable[Sequence[Scalar]]) -> SubspaceBuilder:
    """The span of rows in k^n, reduced by one ``SubspaceBuilder``, which is
    returned: its integer rows are the unique reduced row echelon form up to
    the scale of each row.  A row may be a dense sequence of scalars or a
    {col: int} dict, as a matrix's numerator rows are passed
    (``_dict_rows``); a dict is taken over, as ``insert`` takes it.

    This is the package's one reduction routine: every kernel, rank,
    solution, span and relation span is read off the builder it returns.
    The per-field loop brings each row to a {col: int} dict as it is read,
    and ``presolved_span`` solves the rows of one or two terms before any
    elimination, so only the longer rows reach ``SubspaceBuilder.insert``."""
    p = field.p
    return presolved_span(field, n, _row_reduce_q(rows) if p is None else _row_reduce_fp(rows, p))


# ---------------------------------------------------------------------------
# the operations of the module contract
# ---------------------------------------------------------------------------


def _combination_rows(rows: int, pairs: list, mats: Sequence[DenseMatrix]):
    """(den, the rows of sum a * mats[i] over the (i, a) of pairs, as
    numerator rows over den), each row combined only when it is read."""
    # each coefficient absorbs the lcm of the matrices' scales
    den = lcm(*[mats[i].den for i, _ in pairs])
    used = [(a * (den // mats[i].den), mats[i]._nonzero_rows) for i, a in pairs]
    return den, (_combine([(a, nz[r]) for a, nz in used]) for r in range(rows))


def combinations(mats: Sequence[DenseMatrix], C: DenseMatrix) -> list[DenseMatrix]:
    """For each column k of C, the matrix sum_i C[i, k] * mats[i], the
    matrices of one shape: the package's one construction of an operator
    from coordinates, those of an element acting through the action
    matrices of a basis.  C's stored numerator columns are combined over
    the lcm of the denominators; a unit column returns its (immutable)
    matrix itself and a zero column the zero matrix, without arithmetic."""
    if not mats or C.rows != len(mats):
        raise ShapeError(f"need {C.rows} matrices, one per row of the coefficients, "
                         f"got {len(mats)}")
    rows, cols = mats[0].rows, mats[0].cols
    if any(M.rows != rows or M.cols != cols or M.field != C.field for M in mats):
        raise ShapeError(f"the matrices are not all {rows} x {cols} over one field")
    out = []
    for pairs in C.numerator_columns():
        if len(pairs) == 1 and pairs[0][1] == C.den:
            out.append(mats[pairs[0][0]])
        elif not pairs:
            out.append(DenseMatrix.zeros(C.field, rows, cols))
        else:
            den, combined = _combination_rows(rows, pairs, mats)
            out.append(DenseMatrix(C.field, rows, cols, _Numerators(list(combined), den * C.den)))
    return out


def _null_numerators(span: SubspaceBuilder) -> _Numerators:
    """The vectors of ``null_vectors`` as numerator rows over the lcm of the
    builder's pivot entries."""
    rows, den = span._rows, span._den()
    free = [c for c in range(span.ambient_dim) if c not in rows]
    index = {c: k for k, c in enumerate(free)}
    out = [[] for _ in free]
    # every entry of the row with pivot c sits right of c, so taking the
    # rows in pivot order and e_f last keeps each vector in column order
    for piv in sorted(rows):
        row = rows[piv]
        s = -(den // row[piv])
        for c, x in row.items():
            if c != piv:
                out[index[c]].append((piv, s * x))
    for k, c in enumerate(free):
        out[k].append((c, den))
    return _Numerators(out, den)


def null_vectors(span: SubspaceBuilder) -> DenseMatrix:
    """A basis of {v in k^n : r . v = 0 for every vector r of the span a
    builder holds}, as the rows of a matrix.

    One vector per non-pivot column f, in column order: e_f minus the
    reduced echelon entries of column f, read from the builder's integer
    rows in time linear in their nonzeros.  This is the package's one
    null-space routine: quotients use it as their projection, and
    ``null_space`` takes the span of its vectors.
    """
    out = _null_numerators(span)
    return DenseMatrix(span.field, len(out.rows), span.ambient_dim, out)


def null_space(span: SubspaceBuilder) -> Subspace:
    """The span of ``null_vectors`` in canonical form, from the same
    builder; kernels and hom-spaces are read this way."""
    return _span(span.field, span.ambient_dim, map(dict, _null_numerators(span).rows))


def _dict_rows(M: DenseMatrix):
    """M's rows as {col: numerator} dicts, for ``row_reduce``: each is a
    nonzero multiple of the row, which spans the same line."""
    return map(dict, M._nonzero_rows)


def _span(field: FieldSpec, n: int, vectors) -> Subspace:
    """The span of vectors (dense sequences of scalars or {col: int}
    dicts) in k^n as a canonical Subspace, its basis read off the rows of
    the builder ``row_reduce`` returns."""
    span = row_reduce(field, n, vectors)
    return Subspace(field, n, DenseMatrix(field, span.dim, n, span.echelon()), span.pivots)


def kernel(M: DenseMatrix) -> Subspace:
    """Right null space {v : Mv = 0} in canonical echelon form, read from the
    sparse reduced rows of M without densifying them."""
    return null_space(row_reduce(M.field, M.cols, _dict_rows(M)))


def combination_is_invertible(field: FieldSpec, coeffs: Sequence[Scalar],
                              mats: Sequence[DenseMatrix]) -> bool:
    """Whether the combination sum coeffs[i] * mats[i] of matrices of one
    shape is invertible, without forming it: each row is combined, from
    the numerators of the coefficients, only when the elimination reads
    it, so a singular combination is formed only up to its first dependent
    row."""
    n, cols = mats[0].rows, mats[0].cols
    if n != cols:
        return False
    _, ints = clear_denominators(coeffs)
    pairs = [(i, a) for i, a in enumerate(ints) if a]
    span = SubspaceBuilder(field, cols)
    # the first row that adds nothing to the span ends the elimination
    return all(span.insert(dict(r)) for r in _combination_rows(n, pairs, mats)[1])


def rank(M: DenseMatrix) -> int:
    """The rank of M, as the number of pivots of its reduced rows; every
    rank-only question in the package asks this."""
    return row_reduce(M.field, M.cols, _dict_rows(M)).dim


def image(M: DenseMatrix) -> Subspace:
    """Column space in canonical form."""
    return _span(M.field, M.rows, map(dict, M.numerator_columns()))


def row_space(M: DenseMatrix) -> Subspace:
    """Row space in canonical form, its rows entering as their numerators."""
    return _span(M.field, M.cols, _dict_rows(M))


def solve_matrix(M: DenseMatrix, B: DenseMatrix) -> DenseMatrix | None:
    """One solution X of M X = B, or None when some column of B has none,
    from one reduction of [M | B]; free variables are set to zero."""
    if B.rows != M.rows:
        raise ShapeError("rhs shape mismatch")
    n, k = M.cols, B.cols
    # row i of [M | B] times lcm(M.den, B.den), as numerators
    d = lcm(M.den, B.den)
    sm, sb = d // M.den, d // B.den
    aug = ({**{j: x * sm for j, x in mr}, **{n + j: y * sb for j, y in br}}
           for mr, br in zip(M._nonzero_rows, B._nonzero_rows))
    span = row_reduce(M.field, n + k, aug)
    pivots = span.pivots
    if pivots and pivots[-1] >= n:
        return None  # a pivot in an augmented column: inconsistent
    # with free variables zero, reduced row c reads x_c = its augmented
    # entries, which follow its entries in M's columns
    ech = span.echelon()
    X = [[] for _ in range(n)]
    for row, c in zip(ech.rows, pivots):
        X[c] = [(j - n, x) for j, x in row if j >= n]
    return DenseMatrix(M.field, n, k, _Numerators(X, ech.den))


class QuotientSpace:
    """k^n / relations with an explicit projection/section pair.

    projection is (q x n), section is (n x q); projection . section = id and
    the kernel of projection is exactly the relation subspace.  Equal when
    both matrices are.
    """

    def __init__(self, projection: DenseMatrix, section: DenseMatrix):
        self.projection = projection
        self.section = section

    def __eq__(self, other):
        if type(other) is not QuotientSpace:
            return NotImplemented
        return self.projection == other.projection and self.section == other.section

    @property
    def dim(self) -> int:
        return self.projection.rows


def quotient(span: SubspaceBuilder) -> QuotientSpace:
    """Quotient of k^n by the span a builder holds, with canonical coordinates.

    Quotient coordinates are indexed by the non-pivot columns of the relation
    echelon basis; the class of e_f for a free column f maps to the f-th
    coordinate, which makes the section simply the inclusion of those e_f.
    """
    n, pivots = span.ambient_dim, span._rows
    # projection: reduce modulo the relations, then read the free coordinates
    projection = null_vectors(span)
    free = iter(range(projection.rows))
    section = [[] if c in pivots else [(next(free), 1)] for c in range(n)]
    return QuotientSpace(projection,
                         DenseMatrix(span.field, n, projection.rows, _Numerators(section)))


# ---------------------------------------------------------------------------
# the JSON parsing boundary: every malformed input becomes a ShapeError
# ---------------------------------------------------------------------------


def json_get(obj, key: str, what: str):
    """obj[key] of a JSON object, or a ShapeError naming what is missing."""
    if not isinstance(obj, dict):
        raise ShapeError(f"{what} JSON must be an object")
    if key not in obj:
        raise ShapeError(f"{what} JSON is missing {key!r}")
    return obj[key]


def json_dim(obj, key: str, what: str) -> int:
    d = json_get(obj, key, what)
    if type(d) is not int or d < 0:
        raise ShapeError(f"{what} {key} must be a non-negative integer, got {d!r}")
    return d


def parse_array(field: FieldSpec, obj, shape: Sequence[int], what: str) -> list:
    """Nested JSON lists of exactly the given shape, as parsed scalars."""
    if not shape:
        return field.scalar_from_str(obj)
    if not isinstance(obj, list) or len(obj) != shape[0]:
        raise ShapeError(f"{what} must be a list of length {shape[0]}")
    return [parse_array(field, x, shape[1:], what) for x in obj]


def dumps_canonical(obj) -> str:
    """Deterministic JSON: sorted keys, no spaces drift, canonical scalars."""
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1)
