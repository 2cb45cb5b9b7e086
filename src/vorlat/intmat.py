"""Exact integer matrix algebra.

Entries are Python ints, so everything here is arbitrary precision. Matrices
are immutable, row-major, and indexed [i][j]. Throughout the package the
columns of a generator matrix are the basis vectors: a lattice point is G @ b
for an integer coordinate vector b.
"""

from __future__ import annotations

import operator

import numpy as np


def _integer(name: str, value, low: int | None = None) -> int:
    """value as a Python int, for every integer argument of the package.

    Python and numpy integers pass; anything else (floats, strings, arrays)
    is refused with a ValueError naming the argument, and so is a value
    below `low`, which is 0 (non-negative) or 1 (positive) when given.
    """
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if low is not None and value < low:
        raise ValueError(f"{name} must be {'positive' if low else 'non-negative'}")
    return value


class IntMatrix:
    """Immutable matrix of Python ints with exact arithmetic."""

    __slots__ = ("_data", "rows", "cols")

    def __init__(self, entries):
        data = tuple(tuple(_integer("matrix entry", x) for x in row) for row in entries)
        if not data or not data[0]:
            raise ValueError("empty matrix")
        w = len(data[0])
        if any(len(r) != w for r in data):
            raise ValueError("ragged rows")
        object.__setattr__(self, "_data", data)
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", w)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def block_diagonal(cls, blocks) -> "IntMatrix":
        blocks = list(blocks)
        n = sum(b.rows for b in blocks)
        m = sum(b.cols for b in blocks)
        out = [[0] * m for _ in range(n)]
        i0 = j0 = 0
        for b in blocks:
            for i in range(b.rows):
                out[i0 + i][j0 : j0 + b.cols] = list(b._data[i])
            i0 += b.rows
            j0 += b.cols
        return cls(out)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, ij):
        i, j = ij
        return self._data[i][j]

    def row(self, i: int) -> tuple:
        return self._data[i]

    def column(self, j: int) -> tuple:
        return tuple(r[j] for r in self._data)

    def tolist(self) -> list:
        return [list(r) for r in self._data]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(list(zip(*self._data)))

    def scale(self, k: int) -> "IntMatrix":
        k = _integer("scale", k)
        return IntMatrix([[k * x for x in r] for r in self._data])

    def matvec(self, v) -> tuple:
        v = [_integer("vector entry", x) for x in v]
        if len(v) != self.cols:
            raise ValueError("shape mismatch")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self._data)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and self._data == other._data

    def __hash__(self):
        return hash(self._data)

    def __repr__(self):
        body = ", ".join(str(list(r)) for r in self._data)
        return f"IntMatrix([{body}])"

    def to_float(self) -> np.ndarray:
        return np.array(self._data, dtype=np.float64)

    def to_int64(self) -> np.ndarray:
        if any(not (-(2**62) < x < 2**62) for r in self._data for x in r):
            raise OverflowError("entries exceed int64 range")
        return np.array(self._data, dtype=np.int64)

    def is_lower_triangular(self) -> bool:
        return all(
            self._data[i][j] == 0 for i in range(self.rows) for j in range(i + 1, self.cols)
        )


def _xgcd(a: int, b: int):
    """Extended gcd: returns (g, x, y) with a*x + b*y = g >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        return -a, -x0, -y0
    return a, x0, y0


def _is_reduced_lower_triangular(m: IntMatrix) -> bool:
    if not m.is_square or not m.is_lower_triangular():
        return False
    d = m._data
    for i in range(m.rows):
        if d[i][i] <= 0:
            return False
        for j in range(i):
            if not (0 <= d[i][j] < d[i][i]):
                return False
    return True


def hnf_lower_triangular(g: IntMatrix) -> IntMatrix:
    """Lower-triangular Hermite normal form of a nonsingular square matrix.

    Returns L with positive diagonal and off-diagonal entries reduced into
    [0, L[i][i]), such that L = G @ U for some unimodular integer U (column
    operations only; the lattice spanned by the columns is unchanged).
    """
    if not g.is_square:
        raise ValueError("square matrix required")
    if _is_reduced_lower_triangular(g):
        return g
    return hnf_from_spanning(g.column(j) for j in range(g.cols))


def hnf_from_spanning(columns) -> IntMatrix:
    """HNF of the lattice spanned by an arbitrary set of integer columns.

    Accepts m >= n columns of length n; raises if they do not span full rank.
    Unimodular column operations sweep row by row: afterwards column i has
    its first nonzero entry at row i, the diagonal is positive, and entries
    left of the diagonal lie in [0, diag).
    """
    cols = [list(c) for c in columns]
    if not cols:
        raise ValueError("no columns")
    n, m = len(cols[0]), len(cols)
    if m < n:
        raise ValueError("degenerate lattice")
    for i in range(n):
        # Clear row i in all columns beyond i using unimodular column ops.
        for j in range(i + 1, m):
            a, b = cols[i][i], cols[j][i]
            if b == 0:
                continue
            if a == 0:
                cols[i], cols[j] = cols[j], cols[i]
                continue
            g, x, y = _xgcd(a, b)
            aa, bb = a // g, b // g
            ci, cj = cols[i], cols[j]
            for r in range(i, n):
                u, v = ci[r], cj[r]
                ci[r] = x * u + y * v
                cj[r] = aa * v - bb * u
        if cols[i][i] == 0:
            raise ValueError("degenerate lattice")
        if cols[i][i] < 0:
            cols[i] = [-x for x in cols[i]]
        # Reduce earlier columns so 0 <= entry < diagonal in row i.
        d = cols[i][i]
        for j in range(i):
            q = cols[j][i] // d
            if q:
                cj, ci = cols[j], cols[i]
                for r in range(i, n):
                    cj[r] -= q * ci[r]
    return IntMatrix(list(zip(*cols[:n])))


def integer_solve_lower_triangular(lower: IntMatrix, rhs: IntMatrix):
    """Solve L @ X = B over the integers for lower-triangular L.

    Returns X as an IntMatrix, or None when no integer solution exists.
    Works column by column with an early exit on the first non-divisible step.
    """
    n = lower.rows
    if rhs.rows != n:
        raise ValueError("shape mismatch")
    w = rhs.cols
    out = [[0] * w for _ in range(n)]
    for c in range(w):
        for i in range(n):
            acc = rhs[i, c]
            li = lower.row(i)
            for j in range(i):
                if li[j]:
                    acc -= li[j] * out[j][c]
            d = li[i]
            if d == 0 or acc % d != 0:
                return None
            out[i][c] = acc // d
    return IntMatrix(out) if n else None
