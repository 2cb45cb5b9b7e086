"""Integer lattices: construction, normal forms, sublattice tests, quotients.

Conventions used package-wide:
  * generator columns are basis vectors (a point is G @ b, b integer),
  * the cached triangular form is the lower-triangular Hermite normal form
    with positive diagonal and off-diagonals reduced into [0, diag),
  * all lattice algebra (normal forms, sublattice tests, quotients) is exact
    on Python integers; the float_* views exist only for the quantizers.

Containment is tested between lattices (`is_sublattice`), not per point:
a constellation tests its points in batches, by indexing them
(`VoronoiCodeSpec.index_batch` refuses rows whose digits leave a code) or by
comparing cosets of the shaping lattice (`VoronoiCodeSpec.same_message`).

Lattice objects are immutable and safe to share across threads.
"""

from __future__ import annotations

import math
import re

import numpy as np

from . import golay
from .intmat import (
    IntMatrix,
    _integer,
    hnf_from_spanning,
    hnf_lower_triangular,
    integer_solve_lower_triangular,
    _is_reduced_lower_triangular,
)


class Lattice:
    """Full-rank integer lattice with a cached triangular generator."""

    __slots__ = (
        "dim",
        "generator",
        "triangular_generator",
        "volume",
        "structure",
        "cov_sq",
        "name",
        "_float_gen",
        "_float_tri",
    )

    def __init__(self, generator: IntMatrix, *, structure=None, cov_sq=None, name=None,
                 _triangular: IntMatrix | None = None):
        if not isinstance(generator, IntMatrix):
            generator = IntMatrix(generator)
        if not generator.is_square:
            raise ValueError("generator must be square")
        if _triangular is not None and not _is_reduced_lower_triangular(_triangular):
            raise ValueError("bad precomputed triangular form")
        tri = _triangular if _triangular is not None else hnf_lower_triangular(generator)
        vol = 1
        for i in range(tri.rows):
            vol *= tri[i, i]
        if vol == 0:
            raise ValueError("degenerate lattice")
        object.__setattr__(self, "dim", generator.rows)
        object.__setattr__(self, "generator", generator)
        object.__setattr__(self, "triangular_generator", tri)
        object.__setattr__(self, "volume", vol)
        object.__setattr__(self, "structure", structure)
        object.__setattr__(self, "cov_sq", cov_sq)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_float_gen", None)
        object.__setattr__(self, "_float_tri", None)

    def __setattr__(self, attr, value):
        raise AttributeError("Lattice is immutable")

    def float_generator(self) -> np.ndarray:
        if self._float_gen is None:
            object.__setattr__(self, "_float_gen", self.generator.to_float())
        return self._float_gen

    def float_triangular(self) -> np.ndarray:
        if self._float_tri is None:
            object.__setattr__(self, "_float_tri", self.triangular_generator.to_float())
        return self._float_tri

    def diag(self) -> tuple:
        t = self.triangular_generator
        return tuple(t[i, i] for i in range(self.dim))

    def scaled(self, k: int) -> "Lattice":
        """The lattice k * self (every point multiplied by the integer k)."""
        k = _integer("scale", k, 1)
        if k == 1:
            return self
        return Lattice(
            self.generator.scale(k),
            structure=None if self.structure is None else ("scaled", k, self),
            cov_sq=None if self.cov_sq is None else k * k * self.cov_sq,
            name=None if self.name is None else f"{k}*{self.name}",
            _triangular=self.triangular_generator.scale(k),
        )

    def __repr__(self):
        label = self.name or f"{self.dim}-dim"
        return f"Lattice({label}, volume={self.volume})"


# ---------------------------------------------------------------------------
# standard lattices


def _zn(n: int) -> Lattice:
    m = IntMatrix.identity(n)
    return Lattice(m, structure=("Zn",), cov_sq=n / 4.0, name=f"Zn({n})", _triangular=m)


def _dn(n: int) -> Lattice:
    if n < 2:
        raise ValueError("Dn needs n >= 2")
    cols = []
    for i in range(n - 1):
        c = [0] * n
        c[i], c[i + 1] = 1, -1
        cols.append(c)
    c = [0] * n
    c[n - 2] = c[n - 1] = 1
    cols.append(c)
    gen = IntMatrix(list(zip(*cols)))
    return Lattice(gen, structure=("Dn",), cov_sq=max(1.0, n / 4.0), name=f"Dn({n})")


def _e8_int() -> Lattice:
    # Twice the even-coordinate-system Gosset lattice: all coordinates share
    # one parity and the coordinate sum is divisible by 4. Basis rows below
    # are the doubled standard basis (the half-integer glue row becomes ones).
    rows = [
        [4, 0, 0, 0, 0, 0, 0, 0],
        [-2, 2, 0, 0, 0, 0, 0, 0],
        [0, -2, 2, 0, 0, 0, 0, 0],
        [0, 0, -2, 2, 0, 0, 0, 0],
        [0, 0, 0, -2, 2, 0, 0, 0],
        [0, 0, 0, 0, -2, 2, 0, 0],
        [0, 0, 0, 0, 0, -2, 2, 0],
        [1, 1, 1, 1, 1, 1, 1, 1],
    ]
    gen = IntMatrix(rows).transpose()  # basis vectors as columns
    lat = Lattice(gen, structure=("E8_int",), cov_sq=4.0, name="E8_int")
    if lat.volume != 256:
        raise AssertionError("E8_int construction failed self-check")
    return lat


def _leech_int() -> Lattice:
    """Leech lattice scaled so all coordinates are integers (volume 2^36).

    Spanned by 4*(D24 basis), twice the Golay generators, and one odd-class
    vector (-3, 1, ..., 1).
    """
    cols = []
    for i in range(23):
        c = [0] * 24
        c[i], c[i + 1] = 4, -4
        cols.append(c)
    c = [0] * 24
    c[22] = c[23] = 4
    cols.append(c)
    for row in golay.generator_matrix():
        cols.append([2 * int(b) for b in row])
    cols.append([-3] + [1] * 23)
    tri = hnf_from_spanning(cols)
    lat = Lattice(tri, structure=("Leech_int",), cov_sq=16.0, name="Leech_int",
                  _triangular=tri)
    if lat.volume != 2**36:
        raise AssertionError("Leech_int construction failed self-check")
    return lat


_ZOO_CACHE: dict[str, Lattice] = {}


def standard_lattice(name: str) -> Lattice:
    """Named lattice zoo: Zn(n), Dn(n), E8_int, Leech_int."""
    key = name.strip()
    if key in _ZOO_CACHE:
        return _ZOO_CACHE[key]
    m = re.fullmatch(r"(Zn|Dn)\((\d+)\)", key)
    if m:
        n = int(m.group(2))
        if n < 1:
            raise ValueError(f"bad dimension in {name!r}")
        lat = _zn(n) if m.group(1) == "Zn" else _dn(n)
    elif key == "E8_int":
        lat = _e8_int()
    elif key == "Leech_int":
        lat = _leech_int()
    else:
        raise ValueError(f"unknown lattice name {name!r}")
    _ZOO_CACHE[key] = lat
    return lat


def direct_sum(base: Lattice, copies: int, alpha: int = 1) -> Lattice:
    """Direct sum of `copies` blocks of alpha * base."""
    copies = _integer("copies", copies, 1)
    alpha = _integer("alpha", alpha, 1)
    block = base.scaled(alpha)
    if copies == 1:
        return block
    gen = IntMatrix.block_diagonal([block.generator] * copies)
    tri = IntMatrix.block_diagonal([block.triangular_generator] * copies)
    cov = None if block.cov_sq is None else copies * block.cov_sq
    name = None if base.name is None else f"{copies}x({alpha}*{base.name})"
    structure = None if block.structure is None else ("blocks", copies, block)
    return Lattice(gen, structure=structure, cov_sq=cov, name=name, _triangular=tri)


# ---------------------------------------------------------------------------
# containment and quotients


def is_sublattice(sub: Lattice, sup: Lattice) -> bool:
    """Exact test that every point of `sub` lies in `sup`."""
    if sub.dim != sup.dim:
        raise ValueError("dimension mismatch")
    if sub.volume % sup.volume != 0:
        return False
    sol = integer_solve_lower_triangular(sup.triangular_generator, sub.triangular_generator)
    return sol is not None


def quotient_order(coding: Lattice, shaping: Lattice) -> int:
    """Number of shaping-lattice cosets inside the coding lattice (exact)."""
    if not is_sublattice(shaping, coding):
        raise ValueError("shaping lattice is not a sublattice of the coding lattice")
    return shaping.volume // coding.volume


# ---------------------------------------------------------------------------
# matrix text files: header "n n", then n rows of n integers, '#' comments,
# columns are basis vectors


def parse_matrix_text(text: str) -> IntMatrix:
    tokens: list[str] = []
    for line in text.splitlines():
        body = line.split("#", 1)[0].strip()
        if body:
            tokens.extend(body.split())
    if len(tokens) < 2:
        raise ValueError("matrix file: missing size header")
    try:
        rows, cols = int(tokens[0]), int(tokens[1])
    except ValueError as exc:
        raise ValueError("matrix file: bad size header") from exc
    need = rows * cols
    vals = tokens[2:]
    if len(vals) != need:
        raise ValueError(f"matrix file: expected {need} entries, got {len(vals)}")
    try:
        nums = [int(v) for v in vals]
    except ValueError as exc:
        raise ValueError("matrix file: non-integer entry") from exc
    return IntMatrix([nums[i * cols : (i + 1) * cols] for i in range(rows)])


def load_lattice(path) -> Lattice:
    with open(path, "r", encoding="utf-8") as fh:
        return Lattice(parse_matrix_text(fh.read()))


def log2_volume(lat: Lattice) -> float:
    """log2 of the fundamental volume, exact for powers of two."""
    v = lat.volume
    if v & (v - 1) == 0:
        return float(v.bit_length() - 1)
    return math.log2(v)
