"""Finite-dimensional unital associative algebras given by their
multiplication operators.

An algebra stores its product once, as the sparse matrices of left
multiplication by its basis elements; right multiplication, the
multiplication map A (x) A -> A and the structure constants of the wire
format are read off them.  Modules are presented by one action matrix per
algebra basis element, acting on column coordinate vectors; for a right
module ``rho(ab) = rho(b) rho(a)`` and for a left module
``rho(ab) = rho(a) rho(b)``.  On top of that sit the workhorses of the whole
engine: balanced tensor products over an algebra, hom-spaces of module maps,
and the projectivity and generator tests the equivalence theorems reduce
to.

Flatness of a finitely generated module over a finite-dimensional algebra is
implemented as projectivity, and faithful flatness of a f.g. projective
module as the generator property; both readings are equivalences at this
scale and the reports label them accordingly.
"""

from __future__ import annotations

from collections.abc import Sequence

from .exactla import (
    DenseMatrix,
    FieldSpec,
    NotInSubspace,
    QuotientSpace,
    ShapeError,
    Subspace,
    SubspaceBuilder,
    block_diag,
    combinations,
    differing_columns,
    flat_columns,
    hstack,
    image,
    interleave_columns,
    json_dim,
    json_get,
    mul_kron,
    null_space,
    once,
    parse_array,
    quotient,
    row_reduce,
    solve_matrix,
    unflatten_rows,
    unstack_slices,
)
from .verdict import Verdict, VerificationError, one_failure


class AlgebraPresentation:
    """A unital associative algebra on a distinguished basis, stored as its
    multiplication operators.

    ``lmuls[i]`` is the sparse matrix of left multiplication by e_i: its
    column j is the coordinate vector of e_i e_j.  ``unit_matrix`` is the
    coordinate column of 1, and ``unit`` its dense view.  The constructor
    takes the structure constants ``mult[i][j][k]``, the e_k-coefficient of
    e_i e_j, and the unit's coordinates, as instances write them, and
    converts them once; an algebra derived from another enters through
    ``from_operators``, with its unit as a column.  Everything else is read
    off ``lmuls``: ``rmuls`` (column i of rmul(e_j) is column j of
    lmul(e_i)), the multiplication map ``mult_matrix`` and the table
    ``to_json`` writes.
    The operator of any other element is a ``combinations`` of them.
    """

    def __init__(self, field: FieldSpec, dim: int, mult, unit, name: str = "",
                 candidates: DenseMatrix | None = None):
        if len(mult) != dim or any(len(row) != dim for row in mult) or any(
                len(cell) != dim for row in mult for cell in row):
            raise ShapeError("structure constants have the wrong shape")
        if len(unit) != dim:
            raise ShapeError("unit vector has the wrong length")
        self._store(field, [DenseMatrix.from_columns(field, row, dim) for row in mult],
                    DenseMatrix.from_columns(field, [unit], dim), name, candidates)

    @classmethod
    def from_operators(cls, field: FieldSpec, lmuls: list[DenseMatrix], unit: DenseMatrix,
                       name: str = "", candidates: DenseMatrix | None = None
                       ) -> "AlgebraPresentation":
        """The algebra whose left multiplication by e_i is ``lmuls[i]`` and
        whose unit is the column ``unit``."""
        algebra = cls.__new__(cls)
        algebra._store(field, lmuls, unit, name, candidates)
        return algebra

    def _store(self, field: FieldSpec, lmuls: list[DenseMatrix], unit: DenseMatrix,
               name: str, candidates: DenseMatrix | None) -> None:
        dim = len(lmuls)
        if dim < 1:
            raise ShapeError("an algebra needs dimension at least 1")
        if any(L.rows != dim or L.cols != dim for L in lmuls):
            raise ShapeError("multiplication operators have the wrong shape")
        if (unit.rows, unit.cols) != (dim, 1):
            raise ShapeError("unit vector has the wrong length")
        self.field = field
        self.dim = dim
        self.lmuls = lmuls
        self._unit = unit
        self.name = name
        # the elements ``generators`` tries before the basis, as columns
        self.candidates = DenseMatrix.zeros(field, dim, 0) if candidates is None else candidates
        # row (r, j) of the flattened operators holds entry (r, j) of every
        # lmul(e_i), the e_r-coefficient of e_i e_j: row r of rmul(e_j)
        self.rmuls = unstack_slices(flat_columns(field, lmuls, dim, dim), dim)

    def mul_vec(self, u: Sequence, v: Sequence) -> list:
        """Coordinates of uv."""
        return self.regular_module("left").act_matrix(u).apply(v)

    @once
    def generators(self) -> DenseMatrix:
        """Elements picked greedily from the candidates given to the
        constructor and then the basis, in that order, as the columns of a
        matrix: picked until left multiplication by the chosen elements
        closes span{1} to the whole algebra, each outside the subalgebra the
        earlier ones generate.  A unital action is determined by its
        matrices at these elements, so relation spans over the algebra are
        taken over them.  The closure multiplies numerator vectors and never
        divides them out: a nonzero multiple spans the same line.  Each
        picked generator's numerator columns are taken once, and a product
        reads only the columns at the vector's support."""
        f, n = self.field, self.dim
        pool = hstack(f, [self.candidates, DenseMatrix.identity(f, n)], n)
        span = SubspaceBuilder(f, n)
        unit = dict(self._unit.numerator_columns()[0])
        # ``insert`` takes over a dict: the vectors of ``closed`` enter as copies
        span.insert(dict(unit))
        closed, picked, lcols = [unit], [], []
        for k, g in enumerate(pool.numerator_columns()):
            if len(closed) == n:
                break
            if not span.insert(dict(g)):  # g is in the subalgebra generated already
                continue
            g = dict(g)
            picked.append(k)
            lcols.append(combinations(self.lmuls, pool.take_columns([k]))[0].numerator_columns())
            closed.append(g)
            # every product of a generator with a vector of ``closed`` is
            # formed once: the new generator's with all, the old ones' with g
            todo = [_times(lcols[-1], v, f.p) for v in closed] + \
                [_times(L, g, f.p) for L in lcols[:-1]]
            while todo:
                v = todo.pop()
                if span.insert(dict(v)):
                    closed.append(v)
                    todo += [_times(L, v, f.p) for L in lcols]
        return pool.take_columns(picked)

    def unit_matrix(self) -> DenseMatrix:
        """The unit as a dim x 1 matrix, the map k -> A."""
        return self._unit

    @property
    def unit(self) -> list:
        """The unit's coordinate vector, a dense view of ``unit_matrix``."""
        return self._unit.entries

    @once
    def mult_matrix(self) -> DenseMatrix:
        """Multiplication as a matrix A (x) A -> A, column (i*dim+j) = e_i e_j:
        the operators lmul(e_i) side by side."""
        return hstack(self.field, self.lmuls, self.dim)

    def regular_module(self, side: str) -> "ModulePresentation":
        if side == "right":
            action = list(self.rmuls)
        elif side == "left":
            action = list(self.lmuls)
        else:
            raise ShapeError(f"unknown side {side!r}")
        return ModulePresentation(self, self.dim, side, action)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "mult": [L.json_columns() for L in self.lmuls],
            "unit": self._unit.json_columns()[0],
        }

    @staticmethod
    def from_json(field: FieldSpec, obj: dict, name: str = "") -> "AlgebraPresentation":
        dim = json_dim(obj, "dim", "algebra")
        mult = parse_array(field, json_get(obj, "mult", "algebra"), (dim, dim, dim),
                           "algebra mult")
        unit = parse_array(field, json_get(obj, "unit", "algebra"), (dim,), "algebra unit")
        return AlgebraPresentation(field, dim, mult, unit, name=name)

    def __repr__(self):
        label = self.name or f"{self.dim}-dim algebra"
        return f"AlgebraPresentation({label} over {self.field.kind})"


def _times(lcols: list, v: dict, p: int | None) -> dict:
    """A nonzero multiple of L v, for v a vector of {column: int} and lcols
    the numerator columns of L, as {row: int}: the columns at v's support
    times v's numerators, summed, reduced mod p over Fp."""
    out = {}
    get = out.get
    for j, x in v.items():
        for i, a in lcols[j]:
            out[i] = get(i, 0) + a * x
    if p is not None:
        return {i: y for i, x in out.items() if (y := x % p)}
    return {i: x for i, x in out.items() if x}


class ModulePresentation:
    """A left or right module by one action matrix per algebra basis element."""

    # the modules this one is the direct sum of, set by ``direct_sum``
    summands = ()

    def __init__(self, algebra: AlgebraPresentation, dim: int, side: str,
                 action: list[DenseMatrix], name: str = ""):
        if side not in ("left", "right"):
            raise ShapeError(f"unknown side {side!r}")
        if len(action) != algebra.dim:
            raise ShapeError("need one action matrix per algebra basis element")
        for m in action:
            if m.rows != dim or m.cols != dim:
                raise ShapeError("action matrix has the wrong shape")
        self.algebra = algebra
        self.dim = dim
        self.side = side
        self.action = action
        self.name = name

    @property
    def field(self) -> FieldSpec:
        return self.algebra.field

    def act_matrix(self, u: Sequence) -> DenseMatrix:
        """Action of the algebra element with coordinate vector u: the
        one-column case of ``combinations``."""
        return combinations(self.action,
                            DenseMatrix.from_columns(self.field, [u], len(self.action)))[0]

    @once
    def generator_actions(self, algebra: AlgebraPresentation) -> list[DenseMatrix]:
        """The actions of ``algebra.generators()``, for an algebra with the
        structure constants of this module's own; memoized here, so every
        relation span over the algebra reads them without rebuilding them."""
        return combinations(self.action, algebra.generators())

    @once
    def action_map(self) -> DenseMatrix:
        """The action as one linear map: S (x) M -> M with column (i, m) =
        e_i . m for a left module, M (x) S -> M with column (m, i) = m . e_i
        for a right module."""
        join = interleave_columns if self.side == "right" else hstack
        return join(self.field, self.action, self.dim)

    def restrict(self, sub: Subspace, name: str = "") -> "ModulePresentation":
        """The induced module on an action-invariant subspace, in its basis."""
        action = [sub.coords_matrix(mat.mul(sub.embedding)) for mat in self.action]
        return ModulePresentation(self.algebra, sub.dim, self.side, action, name=name)

    def direct_sum(self, other: "ModulePresentation") -> "ModulePresentation":
        if not same_algebra(self.algebra, other.algebra):
            raise ShapeError("direct sum over different algebras")
        if other.side != self.side:
            raise ShapeError("direct sum of modules on different sides")
        out = ModulePresentation(self.algebra, self.dim + other.dim, self.side,
                                 [block_diag(a, b) for a, b in zip(self.action, other.action)])
        out.summands = (self, other)
        return out

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "side": self.side,
            "action": [m.to_json() for m in self.action],
        }

    @staticmethod
    def from_json(algebra: AlgebraPresentation, obj: dict) -> "ModulePresentation":
        dim = json_dim(obj, "dim", "module")
        action = json_get(obj, "action", "module")
        if not isinstance(action, list):
            raise ShapeError("module action must be a list")
        return ModulePresentation(algebra, dim, json_get(obj, "side", "module"),
                                  [DenseMatrix.from_json(algebra.field, m) for m in action])

    def __repr__(self):
        label = self.name or f"{self.dim}-dim {self.side} module"
        return f"ModulePresentation({label})"


class BimodulePresentation:
    """Commuting left and right module structures on the same space."""

    def __init__(self, left: ModulePresentation, right: ModulePresentation):
        if left.dim != right.dim:
            raise ShapeError("bimodule sides disagree on the dimension")
        if left.side != "left" or right.side != "right":
            raise ShapeError("bimodule needs a left and a right structure")
        self.left = left
        self.right = right

    @property
    def dim(self):
        return self.left.dim


def same_algebra(S: AlgebraPresentation, T: AlgebraPresentation) -> bool:
    """Whether S and T are one algebra: the same object, or over one field
    with equal multiplication operators."""
    return S is T or (S.field == T.field and S.lmuls == T.lmuls)


def zero_module(algebra: AlgebraPresentation, side: str) -> ModulePresentation:
    return ModulePresentation(algebra, 0, side, [DenseMatrix.zeros(algebra.field, 0, 0)
                                                 for _ in range(algebra.dim)])


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------


@once
def verify_algebra(A: AlgebraPresentation) -> Verdict:
    """Associativity as one matrix identity, m (m (x) 1) = m (1 (x) m) on
    A (x) A (x) A, and the two-sided unit law.  Column (i, j, k) of the two
    sides is (e_i e_j) e_k and e_i (e_j e_k), so a failing column names its
    basis triple, in the order of a loop over i, j and k.

    The verdict is memoized with ``once`` on A, which is frozen: the
    bialgebra check of a Doi-Koppinen instance at load and
    ``EntwinedContext.verify_axioms`` read one verdict for the same A.
    Callers copy its failures and never mutate it."""
    v = Verdict()
    n = A.dim
    m, eye = A.mult_matrix(), DenseMatrix.identity(A.field, n)
    left, right = mul_kron(m, m, eye), mul_kron(m, eye, m)
    for c in differing_columns(left, right):
        v.fail("associativity", (c // (n * n), c // n % n, c % n))
    # column i of lmul(1) and of rmul(1) is 1 e_i and e_i 1
    one = A.unit_matrix()
    for i, (x, y) in enumerate(zip(combinations(A.lmuls, one)[0].nonzero_columns(),
                                   combinations(A.rmuls, one)[0].nonzero_columns())):
        if x != [(i, 1)]:
            v.fail("unit-left", (i,))
        if y != [(i, 1)]:
            v.fail("unit-right", (i,))
    return v


def verify_module(M: ModulePresentation) -> Verdict:
    """rho(1) = id and rho(e_i e_j) compatibility for the module's side:
    column j of lmul(e_i) holds the coordinates of e_i e_j."""
    v = Verdict()
    A = M.algebra
    if combinations(M.action, A.unit_matrix())[0] != DenseMatrix.identity(M.field, M.dim):
        v.fail("module-unit")
    for i, L in enumerate(A.lmuls):
        for j, lhs in enumerate(combinations(M.action, L)):
            if M.side == "right":
                rhs = M.action[j].mul(M.action[i])
            else:
                rhs = M.action[i].mul(M.action[j])
            if lhs != rhs:
                v.fail("action-multiplicativity", (i, j))
    return v


def verify_bimodule(B: BimodulePresentation) -> Verdict:
    v = Verdict()
    lv = verify_module(B.left)
    rv = verify_module(B.right)
    for f in lv.failures:
        v.fail("left-" + f.axiom, f.indices, f.detail)
    for f in rv.failures:
        v.fail("right-" + f.axiom, f.indices, f.detail)
    for i, L in enumerate(B.left.action):
        for j, R in enumerate(B.right.action):
            if L.mul(R) != R.mul(L):
                v.fail("bimodule-commutation", (i, j))
    return v


# ---------------------------------------------------------------------------
# balanced tensor products and hom spaces
# ---------------------------------------------------------------------------


def balanced_tensor(M: ModulePresentation, N: ModulePresentation) -> QuotientSpace:
    """M (x)_S N for a right module M and left module N over the same S.

    The plain tensor square carries the index convention (i_M, i_N) ->
    i_M*dim(N)+i_N.  The relations m g (x) n - m (x) g n are taken for the
    elements g of ``S.generators()`` only, which spans the same relations
    as all of S provided both actions are unital (anti-)homomorphisms of S;
    over the dual ring these are a few elements iota(a) and f^j, not basis
    vectors.  For a dim(M) x dim(N) matrix X of unknowns they are the
    coefficient vectors of the entries of X rho_N(g) - rho_M(g)^T X, so
    ``_relation_span`` builds them with the pair (rho_N(g), rho_M(g)^T),
    reading the rows of rho_M(g)^T as the columns of rho_M(g).
    """
    if M.side != "right" or N.side != "left":
        raise ShapeError("balanced tensor needs (right module, left module)")
    if not same_algebra(M.algebra, N.algebra):
        raise ShapeError("balanced tensor over mismatched algebras")
    S = M.algebra
    return quotient(_relation_span(M.field, M.dim, N.dim, zip(
        N.generator_actions(S), M.generator_actions(S)), b_transposed=True))


def hom_module(M: ModulePresentation, N: ModulePresentation) -> Subspace:
    """All module maps M -> N as a subspace of dN x dM matrices (row-major).

    For either side the intertwining condition reads T rho_M(a) = rho_N(a) T.
    It is imposed for the elements of ``generators()`` of the algebra only,
    which is enough when both actions are unital algebra
    (anti-)homomorphisms.
    """
    if M.side != N.side:
        raise ShapeError("hom between modules on different sides")
    if not same_algebra(M.algebra, N.algebra):
        raise ShapeError("hom over mismatched algebras")
    S = M.algebra
    return intertwiner_space(M.field, M.dim, N.dim,
                             zip(M.generator_actions(S), N.generator_actions(S)))


def intertwiner_space(field: FieldSpec, dM: int, dN: int, pairs) -> Subspace:
    """All dN x dM matrices T with T a = b T for every pair (a, b), as a
    subspace of row-major flattened matrices."""
    return null_space(_relation_span(field, dN, dM, pairs))


def _relation_span(field: FieldSpec, dR: int, dC: int, pairs,
                   b_transposed: bool = False) -> SubspaceBuilder:
    """The span of the entries of T a - b T over the pairs (a, b) of
    matrices, for a dR x dC matrix T whose entry T[r][c] is the coordinate
    r*dC+c; the one relation span of the package.  Each relation is written
    from the stored numerators of a and b, times a.den * b.den.  With
    ``b_transposed`` each pair holds b's transpose, whose columns are read
    as the rows of b.

    The rows stream into ``row_reduce``, which solves those of one or two
    terms (x = 0, a x + b y = 0) by a weighted union-find before it
    eliminates the longer ones, as it does for every reduction.  Over the
    dual ring of a group algebra every row is that short, so the Hom
    spaces and balanced tensor products of the Morita context take no
    elimination."""
    return row_reduce(field, dR * dC, _relation_rows(dC, pairs, b_transposed))


def _relation_rows(dC: int, pairs, b_transposed: bool):
    """The rows of ``_relation_span``, one {col: int} dict per entry of
    each T a - b T, made as they are read."""
    for a, b in pairs:
        sa, sb = b.den, a.den
        acols = a.numerator_columns()
        if sa != 1:
            acols = [[(c, sa * x) for c, x in acol] for acol in acols]
        brows = b.numerator_columns() if b_transposed else b.numerator_rows()
        for i, brow in enumerate(brows):
            brow = [(r * dC, sb * y) for r, y in brow]
            for j, acol in enumerate(acols):
                # entry (i, j): sum_c T[i][c] a[c][j] - sum_r b[i][r] T[r][j]
                row = {i * dC + c: x for c, x in acol}
                for r, y in brow:
                    row[r + j] = row.get(r + j, 0) - y
                if row:
                    yield row


def hom_matrices(M: ModulePresentation, N: ModulePresentation) -> list[DenseMatrix]:
    """The hom-space basis, each vector read row-major as a dN x dM matrix."""
    return unflatten_rows(hom_module(M, N).basis, N.dim, M.dim)


@once
def dual_homs(M: ModulePresentation) -> list[DenseMatrix]:
    """Hom_S(M, S) for M over S, as matrices; the projectivity and generator
    tests share it."""
    return hom_matrices(M, M.algebra.regular_module(M.side))


@once
def is_fg_projective(M: ModulePresentation) -> tuple[bool, DenseMatrix | None]:
    """Does the canonical surjection from a free module of rank dim(M) split?

    The splitting is sought as a linear combination of module maps M -> S per
    coordinate, so the search is one exact linear solve.  Returns the
    splitting map (dim(M)*dim(S)) x dim(M) when it exists.
    """
    if M.dim == 0:
        return True, DenseMatrix.zeros(M.field, 0, 0)
    f = M.field
    homs = dual_homs(M)
    r, d = len(homs), M.dim
    if r == 0:
        return False, None
    # unknowns t[i][j], sigma_i = sum_j t[i][j] h_j; equations: for each basis
    # m_k of M:  sum_i  m_i . (sigma_i(m_k))  =  m_k.  Column (i, j) of the
    # system is column i of the action of h_j(m_k), stacked over k.
    stacked = [DenseMatrix.vstack(*combinations(M.action, h)) for h in homs]
    sol = solve_matrix(interleave_columns(f, stacked, d * d),
                       DenseMatrix.identity(f, d).reshape(d * d, 1))
    if sol is None:
        return False, None
    # the splitting M -> S^d, a (d*dim S) x d matrix: the sigma_i stacked, the
    # coefficients of sigma_i being the unknowns t[i][.]
    return True, DenseMatrix.vstack(*combinations(homs, sol.reshape(d, r).transpose()))


def trace_span(M: ModulePresentation) -> Subspace:
    """Span of all images of module maps M -> S inside S (the trace ideal)."""
    return image(hstack(M.field, dual_homs(M), M.algebra.dim))


@once
def is_generator(M: ModulePresentation) -> bool:
    """True iff the trace ideal of M in S is all of S."""
    return trace_span(M).is_full()


# ---------------------------------------------------------------------------
# subalgebras carved out of a parent algebra
# ---------------------------------------------------------------------------


def subalgebra_on(A: AlgebraPresentation, space: Subspace, name: str = "") -> tuple[AlgebraPresentation, DenseMatrix]:
    """Induce structure constants on a unital, multiplicatively closed subspace.

    Returns the presentation in the echelon basis of ``space`` together with
    the embedding matrix into A.  Raises VerificationError when the subspace
    is not closed or misses the unit, which would flag an upstream bug.
    """
    try:
        unit = space.coords_matrix(A.unit_matrix())
    except NotInSubspace:
        raise VerificationError("subalgebra_on", one_failure(
            "subalgebra-unit", detail="unit of A is not in the subspace")) from None
    d = space.dim
    emb = space.embedding
    # column (i, j) of the products is b_i b_j, column j of lmul(b_i), so
    # row (k, i) of their reshape is row k of lmul(b_i)
    try:
        prods = space.coords_matrix(mul_kron(A.mult_matrix(), emb, emb))
    except NotInSubspace as exc:
        raise VerificationError("subalgebra_on", one_failure(
            "subalgebra-closure", divmod(exc.column, d))) from None
    return AlgebraPresentation.from_operators(
        A.field, unstack_slices(prods.reshape(d * d, d), d), unit, name=name), emb
