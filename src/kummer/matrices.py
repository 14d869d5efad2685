"""Exact arbitrary-precision integer matrices and their normal forms.

Everything in this module is pure and deterministic: no floats, no global
state, and fixed pivot rules, so repeated runs produce identical transforms.
Matrices are immutable; all operations return fresh values.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .errors import InputError

__all__ = [
    "IntMatrix",
    "SmithDecomposition",
    "HermiteColumnForm",
    "smith_normal_form",
    "hermite_column_form",
    "kernel_lattice",
    "image_and_kernel",
    "preimage_lattice",
    "solve_integer_system",
    "solve_integer_columns",
    "solve_modular",
    "solve_modular_columns",
    "hstack",
    "vstack",
    "block_diag",
    "MatrixEquationSystem",
]


def int_tuple(values: Iterable) -> tuple[int, ...]:
    """The values as plain ints by ``operator.index``, so bool and other int
    subclasses convert; anything else, such as 1.5, is an InputError."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise InputError("matrix and element entries must be integers") from None


_INT_ONLY = frozenset((int,))


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, row-major storage."""

    rows: int
    cols: int
    data: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise InputError("matrix dimensions must be nonnegative")
        if len(self.data) != self.rows * self.cols:
            raise InputError(
                f"matrix data has {len(self.data)} entries, expected {self.rows * self.cols}"
            )
        if not _INT_ONLY.issuperset(map(type, self.data)):
            object.__setattr__(self, "data", int_tuple(self.data))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: Optional[int] = None) -> "IntMatrix":
        r = len(rows)
        if r == 0:
            if cols is None:
                cols = 0
            return cls(0, cols, ())
        c = len(rows[0])
        if cols is not None and cols != c:
            raise InputError("explicit column count disagrees with row data")
        if any(len(row) != c for row in rows):
            raise InputError("ragged rows")
        return cls(r, c, tuple(x for row in rows for x in row))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(int(i == j) for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    @classmethod
    def diagonal(cls, entries: Sequence[int], rows: Optional[int] = None,
                 cols: Optional[int] = None) -> "IntMatrix":
        n = len(entries)
        r = n if rows is None else rows
        c = n if cols is None else cols
        if n > min(r, c):
            raise InputError("too many diagonal entries for requested shape")
        data = [0] * (r * c)
        for i, d in enumerate(entries):
            data[i * c + i] = d
        return cls(r, c, tuple(data))

    @classmethod
    def column(cls, vec: Sequence[int]) -> "IntMatrix":
        return cls(len(vec), 1, tuple(vec))

    @classmethod
    def from_columns(cls, rows: int, cols: Sequence[Sequence[int]]) -> "IntMatrix":
        """Matrix whose j-th column is cols[j]; ``rows`` fixes the shape when
        there are no columns."""
        if any(len(col) != rows for col in cols):
            raise InputError(f"every column needs {rows} entries")
        return cls(rows, len(cols), tuple(col[i] for i in range(rows) for col in cols))

    # -- access ------------------------------------------------------------

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"index {key} out of range for {self.rows}x{self.cols}")
        return self.data[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.data[i * self.cols:(i + 1) * self.cols]

    def col(self, j: int) -> tuple[int, ...]:
        return self.data[j::self.cols] if self.cols else ()

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- arithmetic --------------------------------------------------------

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise InputError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        k = self.cols
        rows = [self.data[i * k:(i + 1) * k] for i in range(self.rows)]
        cols = [other.col(j) for j in range(other.cols)]
        return IntMatrix(self.rows, other.cols,
                         tuple(sum(map(operator.mul, row, col)) for row in rows for col in cols))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if self.shape != other.shape:
            raise InputError("shape mismatch in matrix addition")
        return IntMatrix(self.rows, self.cols,
                         tuple(x + y for x, y in zip(self.data, other.data)))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if self.shape != other.shape:
            raise InputError("shape mismatch in matrix subtraction")
        return IntMatrix(self.rows, self.cols,
                         tuple(x - y for x, y in zip(self.data, other.data)))

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(-x for x in self.data))

    def scaled(self, k: int) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(k * x for x in self.data))

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows,
                         tuple(self.data[i * self.cols + j]
                               for j in range(self.cols) for i in range(self.rows)))

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Matrix times column vector."""
        if len(vec) != self.cols:
            raise InputError(f"vector length {len(vec)} does not match {self.cols} columns")
        return tuple(sum(map(operator.mul, self.row(i), vec)) for i in range(self.rows))

    def select(self, row_idx: Iterable[int], col_idx: Iterable[int]) -> "IntMatrix":
        ri, ci = list(row_idx), list(col_idx)
        return IntMatrix(len(ri), len(ci),
                         tuple(self.data[i * self.cols + j] for i in ri for j in ci))

    def __str__(self) -> str:
        if self.rows == 0 or self.cols == 0:
            return f"<empty {self.rows}x{self.cols}>"
        return "\n".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))


def hstack(*mats: IntMatrix) -> IntMatrix:
    if not mats:
        raise InputError("hstack of nothing")
    r = mats[0].rows
    if any(m.rows != r for m in mats):
        raise InputError("hstack row mismatch")
    data = []
    for i in range(r):
        for m in mats:
            data.extend(m.row(i))
    return IntMatrix(r, sum(m.cols for m in mats), tuple(data))


def vstack(*mats: IntMatrix) -> IntMatrix:
    if not mats:
        raise InputError("vstack of nothing")
    c = mats[0].cols
    if any(m.cols != c for m in mats):
        raise InputError("vstack column mismatch")
    data = []
    for m in mats:
        data.extend(m.data)
    return IntMatrix(sum(m.rows for m in mats), c, tuple(data))


def block_diag(*mats: IntMatrix) -> IntMatrix:
    r = sum(m.rows for m in mats)
    c = sum(m.cols for m in mats)
    out = [[0] * c for _ in range(r)]
    ro = co = 0
    for m in mats:
        for i in range(m.rows):
            out[ro + i][co:co + m.cols] = list(m.row(i))
        ro += m.rows
        co += m.cols
    return IntMatrix.from_rows(out, cols=c)


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ M @ V == S for the decomposed matrix M, with U, V unimodular and
    S a divisibility chain.

    U_inv and V_inv are the exact inverses, accumulated during elimination;
    they make changes of generators invertible without extra solving.
    """

    U: IntMatrix
    S: IntMatrix
    V: IntMatrix
    U_inv: IntMatrix
    V_inv: IntMatrix

    @cached_property
    def diagonal(self) -> tuple[int, ...]:
        n = min(self.S.rows, self.S.cols)
        return tuple(self.S[i, i] for i in range(n))

    @cached_property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x*a + y*b == g == gcd(a, b) >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, rem = divmod(a, b)
        a, b = b, rem
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return (a, x0, y0) if a >= 0 else (-a, -x0, -y0)


# A row step E acts on each row of the working matrix with the transform T
# that follows it, and E^-T on the rows of T_inv^T, so T @ T_inv == I.
_REDUCE_EVERY = 8  # untracked passes; larger batches let entries grow


def _combine(i: int, k: int, x: int, y: int, z: int, w: int,
             rows: list[list[int]], inv_t: Optional[list[list[int]]]) -> None:
    """E = [[x, y], [z, w]] (determinant 1) on rows i and k."""
    ri, rk = rows[i], rows[k]
    rows[i] = [x * s + y * t for s, t in zip(ri, rk)]
    rows[k] = [z * s + w * t for s, t in zip(ri, rk)]
    if inv_t is not None:
        ri, rk = inv_t[i], inv_t[k]
        inv_t[i] = [w * s - z * t for s, t in zip(ri, rk)]
        inv_t[k] = [x * t - y * s for s, t in zip(ri, rk)]


def _hermite_pass(a: list[list[int]], width: int,
                  inv_t: Optional[list[list[int]]] = None) -> list[int]:
    """Row Hermite form of the first ``width`` entries of the rows of ``a``,
    in place: row echelon form, pivots positive, entries above each pivot
    reduced into [0, pivot), zero rows last. Entries past ``width`` are a
    transform, and ``inv_t`` its inverse transpose. Returns the pivot
    column of each nonzero row. Applied to a transpose it is a column pass.

    Rows are added one at a time (Kannan & Bachem 1979). A tracked pass
    reduces above the pivots after every row, because its transforms are
    outputs of that schedule; the Hermite form is unique (Cohen, GTM 138,
    §2.4), so an untracked pass reduces after every ``_REDUCE_EVERY`` rows
    and the last.
    """
    every = _REDUCE_EVERY if inv_t is None and all(len(row) == width for row in a) else 1
    piv: list[int] = []  # pivot column of row s, increasing in s
    low = 0  # first Hermite row changed since the last reduction
    for i in range(len(a)):
        t = len(piv)
        s = lead = 0
        while True:
            row = a[i]
            while lead < width and not row[lead]:
                lead += 1
            if lead == width:
                break
            while s < t and piv[s] < lead:
                s += 1
            if s == t or piv[s] != lead:
                # a new pivot: move row i up to position s
                flip = row[lead] < 0
                for rows in (a,) if inv_t is None else (a, inv_t):
                    moved = rows.pop(i)
                    rows.insert(s, [-x for x in moved] if flip else moved)
                piv.insert(s, lead)
                t += 1
                low = min(low, s)
                break
            p, q = a[s][lead], row[lead]
            m, rem = divmod(q, p)
            if rem:
                # [[x, y], [-q/g, p/g]] puts g = gcd(p, q) in row s, 0 in row i
                g, x, y = _ext_gcd(p, q)
                _combine(s, i, x, y, -q // g, p // g, a, inv_t)
                low = min(low, s)
            else:
                a[i] = [u - m * v for u, v in zip(row, a[s])]
                if inv_t is not None:
                    inv_t[s] = [u + m * v for u, v in zip(inv_t[s], inv_t[i])]
        if (i + 1) % every and i + 1 < len(a):
            continue
        # reduce each row against the changed rows below it, bottom up;
        # subtracting a lower row never moves a pivot, so pivots are read once
        changed = [(s, piv[s], a[s][piv[s]]) for s in range(low, t)]
        for k in range(t - 2, -1, -1):
            for s, j, p in changed[max(k + 1 - low, 0):]:
                m = a[k][j] // p
                if m:
                    a[k] = [u - m * v for u, v in zip(a[k], a[s])]
                    if inv_t is not None:
                        inv_t[s] = [u + m * v for u, v in zip(inv_t[s], inv_t[k])]
        low = t
    return piv


def _is_diagonal(a: list[list[int]]) -> bool:
    for i, row in enumerate(a):
        nonzero = len(row) - row.count(0)
        if nonzero and (nonzero > 1 or i >= len(row) or not row[i]):
            return False
    return True


def _identity_rows(n: int) -> list[list[int]]:
    return [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]


def _diagonal_of(mat: IntMatrix) -> Optional[tuple[int, ...]]:
    """The diagonal of mat if every entry off it is zero, else None."""
    n = min(mat.rows, mat.cols)
    diag = mat.data[::mat.cols + 1][:n]
    if len(mat.data) - mat.data.count(0) != n - diag.count(0):
        return None
    return diag


def _is_smith_chain(diag: tuple[int, ...]) -> bool:
    """Nonnegative entries, each dividing the next (so zeros trail)."""
    prev = 1
    for d in diag:
        if d < 0 or (d % prev if prev else d):
            return False
        prev = d
    return True


def smith_normal_form(mat: IntMatrix) -> SmithDecomposition:
    """Smith normal form over the integers.

    Alternates a row Hermite pass on the rows [a | U] and a column pass
    (the row pass on [a^T | V^T]) until a is diagonal, then turns each
    diagonal pair into (gcd, lcm) until every entry divides the next
    (Kannan & Bachem 1979). Pivot order is fixed, so the transforms are
    deterministic. Diagonal entries are nonnegative, each divides the next,
    zeros trail. An input already in that form makes no step of the
    passes, so it is returned with identity transforms without them.
    """
    r, c = mat.rows, mat.cols
    diag = _diagonal_of(mat)
    if diag is not None and _is_smith_chain(diag):
        u, v = IntMatrix.identity(r), IntMatrix.identity(c)
        return SmithDecomposition(U=u, S=mat, V=v, U_inv=u, V_inv=v)
    a = [list(mat.row(i)) + e for i, e in enumerate(_identity_rows(r))]
    u_inv_t, v_t, v_inv = _identity_rows(r), _identity_rows(c), _identity_rows(c)
    while True:
        _hermite_pass(a, c, u_inv_t)
        a, u = [row[:c] for row in a], [row[c:] for row in a]
        if _is_diagonal(a):
            break
        a = [list(col) + e for col, e in zip(zip(*a), v_t)]
        _hermite_pass(a, r, v_inv)
        a, v_t = [list(col) for col in zip(*(row[:r] for row in a))], [row[r:] for row in a]
        if _is_diagonal(a):
            break
        a = [x + y for x, y in zip(a, u)]

    # Each pass ends in echelon form, so the nonzero diagonal is a prefix.
    rank = sum(1 for i in range(min(r, c)) if a[i][i])
    for i in range(rank):
        for j in range(i + 1, rank):
            di, dj = a[i][i], a[j][j]
            if dj % di == 0:
                continue
            # U2 diag(di, dj) V2 == diag(g, lcm), both with determinant 1
            g, x, y = _ext_gcd(di, dj)
            a[i][i], a[j][j] = g, di // g * dj
            _combine(i, j, x, y, -dj // g, di // g, u, u_inv_t)
            # V2 == [[1, -y*dj/g], [1, x*di/g]] acts on columns: its
            # transpose acts on the rows of V^T
            _combine(i, j, 1, 1, -y * dj // g, x * di // g, v_t, v_inv)

    return SmithDecomposition(
        U=IntMatrix(r, r, tuple(x for row in u for x in row)),
        S=IntMatrix(r, c, tuple(x for row in a for x in row)),
        V=IntMatrix(c, c, tuple(x for col in zip(*v_t) for x in col)),
        U_inv=IntMatrix(r, r, tuple(x for col in zip(*u_inv_t) for x in col)),
        V_inv=IntMatrix(c, c, tuple(x for row in v_inv for x in row)),
    )


# ---------------------------------------------------------------------------
# Hermite column form (canonical form of a column lattice)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HermiteColumnForm:
    """Canonical generating set of a column lattice.

    ``matrix`` has one column per pivot, pivot rows strictly increasing,
    pivots positive, and every entry in a pivot row lying to the left of its
    pivot reduced into [0, pivot). Two integer matrices span the same column
    lattice iff their Hermite column forms are equal.
    """

    matrix: IntMatrix
    pivots: tuple[tuple[int, int], ...]  # (row, col) pairs

    def _divide(self, vec: Sequence[int]) -> tuple[list[int], list[int]]:
        """Remainder of vec modulo the lattice and the quotient at each
        pivot, in column order."""
        if len(vec) != self.matrix.rows:
            raise InputError("vector length does not match lattice ambient rank")
        v = list(int_tuple(vec))
        h, stride = self.matrix.data, self.matrix.cols
        quotients = []
        for prow, pcol in self.pivots:
            q = v[prow] // h[prow * stride + pcol]
            quotients.append(q)
            if q:
                for i, x in enumerate(h[prow * stride + pcol::stride], prow):
                    v[i] -= q * x
        return v, quotients

    def reduce(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Canonical representative of vec modulo the column lattice."""
        return tuple(self._divide(vec)[0])

    def contains(self, vec: Sequence[int]) -> bool:
        return not any(self._divide(vec)[0])

    def coordinates(self, vec: Sequence[int]) -> Optional[tuple[int, ...]]:
        """The unique x with matrix @ x == vec, by back-substitution through
        the pivots (Cohen, GTM 138, §2.4), or None if vec is outside."""
        rem, quotients = self._divide(vec)
        return None if any(rem) else tuple(quotients)

    def outside(self, mat: IntMatrix) -> Optional[int]:
        """Index of the first column of mat not in the lattice, or None."""
        for j in range(mat.cols):
            if not self.contains(mat.col(j)):
                return j
        return None


def hermite_column_form(mat: IntMatrix) -> HermiteColumnForm:
    """Hermite form of the column lattice: the row pass on the columns.

    The pass only drops the zero columns of a nonnegative diagonal input,
    so such an input skips it.
    """
    diag = _diagonal_of(mat)
    if diag is not None and min(diag, default=0) >= 0:
        piv = [i for i, d in enumerate(diag) if d]
        return _column_form(mat.rows, [mat.col(i) for i in piv], piv)
    return _column_pass(mat, track=False)[0]


def _column_form(rows: int, cols: list, piv: list[int]) -> HermiteColumnForm:
    """The form whose columns are the first len(piv) of cols, pivoted at piv."""
    return HermiteColumnForm(matrix=IntMatrix.from_columns(rows, cols[:len(piv)]),
                             pivots=tuple((row, j) for j, row in enumerate(piv)))


def _column_pass(mat: IntMatrix, track: bool) -> tuple[HermiteColumnForm, list[list[int]]]:
    """The row pass on the columns of mat: the Hermite form H of their
    lattice and, with ``track``, the rows of the transform T of an identity
    companion, each carried in the row of its column ([cols | T]). Row s of
    T combines the columns of mat into column s of H for s below the rank,
    and into zero past it."""
    w = mat.rows
    if not track:
        rows = [list(mat.col(j)) for j in range(mat.cols)]
        return _column_form(w, rows, _hermite_pass(rows, w)), []
    rows = [[*mat.col(j), *e] for j, e in enumerate(_identity_rows(mat.cols))]
    piv = _hermite_pass(rows, w)
    return _column_form(w, [row[:w] for row in rows[:len(piv)]], piv), [row[w:] for row in rows]


def kernel_lattice(mat: IntMatrix) -> IntMatrix:
    """Basis (as columns) of the integer kernel {x : mat @ x = 0}: the rows
    of the column pass's transform T past the rank, whose combinations of
    the columns of mat vanish."""
    form, t = _column_pass(mat, track=True)
    return IntMatrix.from_columns(mat.cols, t[len(form.pivots):])


def image_and_kernel(mat: IntMatrix, target_relations: IntMatrix
                     ) -> tuple[HermiteColumnForm, IntMatrix]:
    """One tracked column pass of [mat | target_relations]: the Hermite form
    of the lattice its columns span, and the unreduced top rows of its
    kernel basis, which generate {x : mat @ x in colspan(target_relations)}."""
    return _tracked_elimination(mat, target_relations)[:2]


def _tracked_elimination(mat: IntMatrix, target_relations: IntMatrix
                         ) -> tuple[HermiteColumnForm, IntMatrix, list[list[int]]]:
    """``image_and_kernel``, and the rows of T below the rank cut to mat's
    columns: y_s times row s, summed, solves mat @ x = b modulo the
    relations for y the coordinates of b in the image (Cohen, §2.4). A map
    into the trivial group (no rows) has image 0 and kernel everything, so
    its pass, which would make no step, is written down in closed form."""
    if mat.rows == target_relations.rows == 0:
        n = mat.cols
        return (_column_form(0, [], []),
                hstack(IntMatrix.identity(n), IntMatrix.zeros(n, target_relations.cols)), [])
    form, t = _column_pass(hstack(mat, target_relations), track=True)
    top, rank = [row[:mat.cols] for row in t], len(form.pivots)
    return form, IntMatrix.from_columns(mat.cols, top[rank:]), top[:rank]


def preimage_lattice(mat: IntMatrix, target_relations: IntMatrix
                     ) -> HermiteColumnForm:
    """Hermite form of {x : mat @ x lies in colspan(target_relations)}."""
    return hermite_column_form(image_and_kernel(mat, target_relations)[1])


# ---------------------------------------------------------------------------
# Linear solving
# ---------------------------------------------------------------------------


def solve_integer_system(mat: IntMatrix, rhs: Sequence[int]) -> Optional[tuple[int, ...]]:
    """One integer solution x of mat @ x = rhs, or None (one column)."""
    return solve_integer_columns(mat, [rhs])[0]


def solve_integer_columns(mat: IntMatrix, rhss: Sequence[Sequence[int]]
                          ) -> list[Optional[tuple[int, ...]]]:
    """One integer solution x of mat @ x = rhs, or None, for each rhs.

    Back-substitution through the Hermite form of the column lattice gives
    the coordinates of rhs or shows that rhs is outside it, and the
    transform of the same pass, built once for every rhs, turns them into
    x. Congruences modulo a relation lattice are solved by the group layer
    (``FgAbGroup.solve_columns``, ``groups.solve_congruences``).
    """
    if any(len(rhs) != mat.rows for rhs in rhss):
        raise InputError("right-hand side length does not match row count")
    form, t = _column_pass(mat, track=True)
    ys = [form.coordinates(rhs) for rhs in rhss]
    return [None if y is None else
            tuple(sum(yi * ti[j] for yi, ti in zip(y, t)) for j in range(mat.cols)) for y in ys]


def solve_modular(mat: IntMatrix, rhs: Sequence[int], m: int
                  ) -> Optional[tuple[int, ...]]:
    """Solve mat @ x = rhs over Z/m (any m >= 1), or None (one column)."""
    return solve_modular_columns(mat, [rhs], m)[0]


def solve_modular_columns(mat: IntMatrix, rhss: Sequence[Sequence[int]], m: int
                          ) -> list[Optional[tuple[int, ...]]]:
    """Solve mat @ x = rhs over Z/m (any m >= 1), or None, for each rhs.

    Diagonalizes by row/column operations with every entry kept reduced to
    the symmetric range, so entries never exceed m in size. The right-hand
    sides ride along as extra columns that take every row operation and
    no column operation; pivots are chosen among the columns of mat only,
    so each answer is the one a single-column solve gives. Deterministic:
    pivot is the smallest nonzero absolute value, leftmost-topmost ties.
    """
    if any(len(rhs) != mat.rows for rhs in rhss):
        raise InputError("right-hand side length does not match row count")
    if m < 1:
        raise InputError("modulus must be positive")
    r, c = mat.rows, mat.cols
    # (x + k) % m - k is the representative of x in [-k, m - 1 - k], the
    # symmetric range (-m/2, m/2]
    k = m - m // 2 - 1

    rhss = [int_tuple(rhs) for rhs in rhss]
    a = [[(x + k) % m - k for x in (*mat.row(i), *(rhs[i] for rhs in rhss))]
         for i in range(r)]
    v = _identity_rows(c)

    t = 0
    mdim = min(r, c)
    while t < mdim:
        # column-major scan: the first entry of least absolute value is the
        # least (|x|, j, i), and no entry beats a unit
        least = bi = bj = 0
        for j in range(t, c):
            for i in range(t, r):
                x = a[i][j]
                if x and (not least or abs(x) < least):
                    least, bi, bj = abs(x), i, j
                    if least == 1:
                        break
            if least == 1:
                break
        if not least:
            break
        a[bi], a[t] = a[t], a[bi]
        if bj != t:
            for row in a:
                row[bj], row[t] = row[t], row[bj]
            v[bj], v[t] = v[t], v[bj]
        while True:
            recheck = False
            for i in range(t + 1, r):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    a[i] = [(x - q * y + k) % m - k for x, y in zip(a[i], a[t])]
                    if a[i][t]:
                        a[i], a[t] = a[t], a[i]
                        recheck = True
            if recheck:
                continue
            # the row steps left column t at a[t][t] * e_t, so until a
            # column swap a column step changes only row t
            for j in range(t + 1, c):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    for row in (a if recheck else (a[t],)):
                        row[j] = (row[j] - q * row[t] + k) % m - k
                    v[j] = [(x - q * y + k) % m - k for x, y in zip(v[j], v[t])]
                    if a[t][j]:
                        for row in a:
                            row[j], row[t] = row[t], row[j]
                        v[j], v[t] = v[t], v[j]
                        recheck = True
            if not recheck:
                break
        t += 1

    def back(col: int) -> Optional[tuple[int, ...]]:
        x = [0] * c
        for i in range(r):
            rhs_i = a[i][col] % m
            d = a[i][i] % m if i < mdim else 0
            if d:
                g = math.gcd(d, m)
                if rhs_i % g:
                    return None
                mg = m // g
                w = ((rhs_i // g) * pow((d // g) % mg, -1, mg)) % mg if mg > 1 else 0
                if w:
                    x = [xi + w * vi for xi, vi in zip(x, v[i])]
            elif rhs_i:
                return None
        return tuple(xi % m for xi in x)

    return [back(col) for col in range(c, c + len(rhss))]


# ---------------------------------------------------------------------------
# Block matrix equation systems
# ---------------------------------------------------------------------------


class MatrixEquationSystem:
    """Joint integer linear system in several unknown matrix blocks.

    Equations have the shape  sum_t  L_t @ X_{b_t} @ R_t  =  RHS  where each
    term names an unknown block and optional left/right coefficient matrices.
    ``solve`` flattens everything into one integer system; a None result
    means that system has no solution.
    """

    def __init__(self) -> None:
        self._shapes: dict[str, tuple[int, int]] = {}
        self._offsets: dict[str, int] = {}
        self._total = 0
        self._rows: list[list[int]] = []
        self._rhs: list[int] = []

    def add_unknown(self, name: str, rows: int, cols: int) -> None:
        if name in self._shapes:
            raise InputError(f"duplicate unknown block {name!r}")
        self._shapes[name] = (rows, cols)
        self._offsets[name] = self._total
        self._total += rows * cols
        for row in self._rows:  # equations added so far do not involve it
            row.extend([0] * (rows * cols))

    def add_equation(self, terms: list[tuple[Optional[IntMatrix], str, Optional[IntMatrix]]],
                     rhs: IntMatrix) -> None:
        """Append the matrix equation  sum_t L_t @ X_t @ R_t = rhs."""
        er, ec = rhs.rows, rhs.cols
        rows = [[0] * self._total for _ in range(er * ec)]
        for left, name, right in terms:
            if name not in self._shapes:
                raise InputError(f"unknown block {name!r}")
            xr, xc = self._shapes[name]
            lrows = left.rows if left is not None else xr
            rcols = right.cols if right is not None else xc
            if lrows != er or rcols != ec:
                raise InputError(f"term for {name!r} has shape {lrows}x{rcols}, "
                                 f"equation is {er}x{ec}")
            if left is not None and left.cols != xr:
                raise InputError(f"left coefficient for {name!r} has {left.cols} cols, "
                                 f"block has {xr} rows")
            if right is not None and right.rows != xc:
                raise InputError(f"right coefficient for {name!r} has {right.rows} rows, "
                                 f"block has {xc} cols")
            off = self._offsets[name]
            for i in range(er):
                for j in range(ec):
                    row = rows[i * ec + j]
                    # coefficient of X[k][l] in (L X R)[i][j] is L[i][k] * R[l][j]
                    for k in range(xr):
                        lik = left[i, k] if left is not None else int(i == k)
                        if not lik:
                            continue
                        for l in range(xc):
                            rlj = right[l, j] if right is not None else int(l == j)
                            if rlj:
                                row[off + k * xc + l] += lik * rlj
        self._rows += rows
        self._rhs += rhs.data

    def solve(self, mod: Optional[int] = None) -> Optional[dict[str, IntMatrix]]:
        """Solve over Z, or over Z/mod when ``mod`` is given.

        The modular path is only equivalent to the exact one when every
        equation tolerates a slack of mod (its congruence lattice contains
        mod times the ambient lattice); ``groups.solve_congruences`` builds
        such systems and is the one caller in the library that passes it.
        """
        neq = len(self._rows)
        big = IntMatrix(neq, self._total, tuple(x for row in self._rows for x in row))
        if mod is None:
            sol = solve_integer_system(big, self._rhs)
        else:
            sol = solve_modular(big, self._rhs, mod)
        if sol is None:
            return None
        out = {}
        for name, (xr, xc) in self._shapes.items():
            off = self._offsets[name]
            out[name] = IntMatrix(xr, xc, tuple(sol[off:off + xr * xc]))
        return out
