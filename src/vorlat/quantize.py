"""Nearest-point quantizers and Voronoi folding.

Every quantizer maps real vectors with entries of magnitude below 2^52 to
exact integer lattice points, and refuses NaN, infinite or larger input
with a ValueError: from 2^52 on float64 holds no halves, so the rounding
rules below cannot hold, and the int64 points would wrap past 2^63. Rounding
rules are deterministic: coordinatewise rounding sends halves toward +inf,
flip decisions pick the lowest index, and enumeration breaks exact distance
ties (difference below 1e-9) by the lexicographically smallest lattice point.
Fast structured decoders are exact and are cross-checked against sphere
enumeration in the test suite. Second moments come from
`Quantizer._squared_error_blocks`, each row's squared distance to its
nearest point, block by block: E8_int and Leech_int take it from their
decoders' own distances, with no point built (the D8 distance formula on
both cosets, and the least score of the class search), and every other
quantizer from its points.

`make_quantizer` reads which quantizer a lattice takes from its Hermite form
alone (`_leaf_form`), so every basis of a lattice gets the same one: alpha
times `copies` equal blocks of Zn, Dn, E8_int or Leech_int get one wrapper
over the leaf quantizer (`ScaledQuantizer`), however the lattice was built,
and the wrapper checks and converts its rows once (`Quantizer._rows`). Any
other lattice gets sphere enumeration. Float rows of any float dtype are
quantized in float64. Integer rows, which is what encode and decode fold,
are quantized in float32 when that is exact: the chain's scale is a power of
two 2^j, its leaf is Zn or E8_int (j <= 9) or Leech_int (j <= 8), and every
entry is below B(j) (`_F32_BOUNDS`). Their points are then those of the same
rows in float64.

Quantizers are stateless after construction and safe to share across threads.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math

import numpy as np

from . import golay
from .lattice import Lattice, standard_lattice

TIE_EPS = 1e-9
# Inputs must stay below this in magnitude: float64 has no halves from here
# on. VoronoiCodeSpec keeps its box representatives below it too.
_FLOAT_LIMIT = 1 << 52
# B(j) = _F32_BOUNDS[j]: integer rows r under a chain of scale 2^j are
# quantized in float32 when every |r| is below B(j) and the chain's leaf
# takes that scale (`Quantizer._f32_bounds`): Zn and E8_int for j <= 9,
# Leech_int for j <= 8. Float32's 24-bit significand holds every multiple of
# 2^-k up to 2^(24-k) in magnitude, so a leaf's kernel makes the values of
# float64 bit for bit when its largest value on each grid is within that.
# - E8_int rounds the cosets r / 2^(j+1) and r / 2^(j+1) - 1/2; every value it
#   makes is a multiple of 2^-(2j+2), the grid of its squared errors, held up
#   to 2^(22-2j). The largest values are 8-term sums: of squared errors, at
#   most 8, and of rounded coordinates, at most 8 (|r| / 2^(j+1) + 1), which
#   is within 2^(22-2j) below B(j) = 2^(20-j) - 2^(j+1). Zn makes a subset of
#   these values (r / 2^j + 1/2 and its floor).
# - Leech_int works at quarter scale, on r / 2^(j+2) less offsets in quarters:
#   its rounding errors lie on a grid of 2^-(j+2), their squares on one of
#   2^-(2j+4), held up to 2^(20-2j). The largest sums on that grid are a class
#   sum (six tetrads of four squared errors, at most 6) plus a correction (at
#   most 2): at most 8, which is within 2^(20-2j) for j <= 8 only. The largest
#   integer sums are the parity sums of 24 rounded coordinates, below
#   24 (|r| / 2^(j+2) + 2) < 2^24 when |r| < B(j). The final D24 round of
#   (r / 2^j - t) / 4, t in -3..3, makes values on the same grids, no larger.
# Distances on these grids differ by 2^-20 or more, so the TIE_EPS tests
# decide as in float64.
_F32_BOUNDS = tuple((1 << 20 - j) - (2 << j) for j in range(10))
# 0, 1/2, TIE_EPS and 1/4 as scalars of each float dtype the kernels run in: a
# Python float costs every float32 call a cast, and making the scalar once a
# call costs about as much (about 1 us over a one-row E8 call either way)
_SCALARS = {np.dtype(t): (t(0), t(0.5), t(TIE_EPS), t(0.25))
            for t in (np.float32, np.float64)}


def round_half_up(y: np.ndarray) -> np.ndarray:
    """Coordinatewise nearest integer of a float32 or float64 array, halves
    toward +inf, with the half a scalar of y's dtype (`_SCALARS`)."""
    return np.floor(y + _SCALARS[y.dtype][1])


@functools.cache
def _first_weights(n: int) -> np.ndarray:
    """Read-only (n, 1) weights n - i of coordinate i, in the narrowest signed
    dtype that holds n: the type of -n - 1, since the type of -n may not (int8
    for n = 128)."""
    weight = np.arange(n, 0, -1, dtype=np.min_scalar_type(-n - 1))[:, None]
    weight.setflags(write=False)
    return weight


def _dn_work(w: np.ndarray) -> tuple:
    """Arrays `_dn_columns` writes into for float (..., n, rows) input of w's
    shape, float dtype and memory order: the point and the errors (w's
    dtype), one mask for the entry tests and weights (`_first_weights`
    dtype), and the steps (int8)."""
    shape, order = w.shape, "F" if w.flags.f_contiguous else "C"
    return (np.empty(shape, w.dtype, order), np.empty(shape, w.dtype, order),
            np.empty(shape, _first_weights(shape[-2]).dtype, order),
            np.empty(shape, np.int8, order))


def _dn_columns(w: np.ndarray, work: tuple) -> np.ndarray:
    """Nearest point of Dn (even coordinate sum) for each column of a float
    (..., n, rows) array; every reduction runs along the rows.

    Every coordinate rounds with halves toward +inf. Where a column's sum is
    odd (it is exact below 2^53), its first coordinate of largest |error|
    steps the other way: that coordinate holds the largest weight n - i on
    the `== max` mask, and the weight is zeroed where the sum is even. No
    step branches on the data. Every array of w's shape is one of `work`
    (`_dn_work(w)`), and one mask holds in turn the `== max` test, its
    weights and the marked coordinate; tests write into it and the steps
    through bool views, which take no cast. The point, integer-valued in
    w's dtype, is the first, and the errors' magnitudes are left in the
    second.
    Here and in `_e8_cosets` ufunc outputs are passed by position: the
    `out=` keyword costs about 80 ns a call, 2-3% of a one-row desk8-e8
    encode. Constants are scalars of w's dtype (`_SCALARS`).
    """
    f, e, mask, step = work
    weight = _first_weights(w.shape[-2])
    zero, h, _, _ = _SCALARS[w.dtype]
    top = mask.view(bool) if mask.itemsize == 1 else mask
    np.add(w, h, f)
    np.floor(f, f)  # round_half_up(w)
    np.subtract(w, f, e)  # in [-0.5, 0.5)
    half = f.sum(axis=-2) * h
    np.greater(e, zero, step.view(bool))
    mag = np.abs(e, e)
    np.equal(mag, mag.max(axis=-2, keepdims=True), top)
    first = np.multiply(mask, weight, mask).max(axis=-2)
    first *= half != np.floor(half)
    np.equal(weight, first[..., None, :], top)
    step *= np.int8(2)
    step -= mask
    step *= mask  # +1 at a marked positive error, -1 at a marked error <= 0
    f += step
    return f


def _finite(ys, n: int, scale: int = 1, copy: bool = False) -> np.ndarray:
    """ys as a float64 (rows, n) array, a new one if `copy`; other shapes,
    NaN or infinite entries and entries of magnitude scale * _FLOAT_LIMIT
    (scale * 2^52) or more are refused with a ValueError. One reduction
    tests all three: NaN fails the comparison too."""
    y = np.array(ys, dtype=np.float64, copy=copy or None)
    if y.ndim != 2 or y.shape[1] != n:
        raise ValueError(f"expected a 2-d array of rows with {n} columns, got shape {y.shape}")
    limit = scale * float(_FLOAT_LIMIT)
    if y.size and not np.abs(y).max() < limit:
        if not np.isfinite(y).all():
            at = tuple(int(i) for i in np.argwhere(~np.isfinite(y))[0])
            raise ValueError(f"cannot quantize non-finite input {y[at]} at index {at}")
        at = tuple(int(i) for i in np.argwhere(np.abs(y) >= limit)[0])
        scaled = "" if scale == 1 else f" times the scale {scale}"
        raise ValueError(f"cannot quantize input {y[at]} at index {at}: its magnitude "
                         f"is not below the float64 limit 2^52{scaled}")
    return y


class _Checked(np.ndarray):
    """Rows that the top of a quantizer chain has checked and converted
    (`Quantizer._rows`), as a wrapper hands them to its inner quantizer."""


class Quantizer:
    """Base class: nearest-lattice-point maps.

    `quantize_batch` takes its rows through `_rows`, and a wrapper hands its
    inner quantizer the rows as `_Checked`, so a chain checks and converts
    its rows once, at its top. It returns a new, writeable int64 array that
    shares no memory with its input, so callers may write into it:
    `fold_batch` subtracts into it, and `ScaledQuantizer` scales its inner
    output in place.

    `alpha` is the scale a quantizer divides its rows by before its leaf
    quantizes them (1 but for `ScaledQuantizer`), and integer rows with
    every entry below `_f32_bound` (0 for none) are quantized in float32.
    A leaf that runs exactly in float32 lists B(j) for each scale 2^j it
    takes in `_f32_bounds`.
    """

    alpha = 1
    _f32_bounds = ()

    def __init__(self, lattice: Lattice):
        self.lattice = lattice
        self._f32_bound = self._f32_bounds[0] if self._f32_bounds else 0

    def quantize_batch(self, ys: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _rows(self, ys) -> np.ndarray:
        """ys as the float (rows, n) array the chain quantizes, new if it
        divides it by alpha: `_Checked` rows as they are, float32 for integer
        rows whose entries are all below `_f32_bound`, and otherwise float64,
        refused as by `_finite` at the scale alpha."""
        if type(ys) is _Checked:
            return ys.view(np.ndarray)
        x = np.asarray(ys)
        n = self.lattice.dim
        if (x.dtype.kind in "iu" and self._f32_bound and x.ndim == 2 and x.shape[1] == n
                and x.size):
            y = x.astype(np.float32)
            # float32 rounds monotonically and holds the bound, so this is
            # the range test of the integers themselves
            if np.abs(y).max() < self._f32_bound:
                return y
        return _finite(x, n, self.alpha, self.alpha != 1)

    def _squared_error_blocks(self, blocks):
        """For each array of rows of the iterable `blocks`, yield a new array
        of each row's squared distance to its nearest lattice point; a block
        is refused as by `quantize_batch`. A block is scored before the next
        is taken, so a caller may draw every block into the same buffer.

        Here the distance is that of the point `quantize_batch` returns,
        the row-major `.sum(axis=1)` of (y - point)^2. `E8FastQuantizer` and
        `LeechFastQuantizer` yield their decoder's own squared distance
        instead, with no point built: the same bits on integer, half- and
        quarter-integer rows, where every value is exact, and on float rows
        the same up to rounding (a few units of 1e-15 relative)."""
        for ys in blocks:
            y = np.asarray(ys, dtype=np.float64)
            e = y - self.quantize_batch(y)
            yield (e * e).sum(axis=1)

    def __repr__(self):
        return f"{type(self).__name__}({self.lattice!r})"


class ZnQuantizer(Quantizer):
    _f32_bounds = _F32_BOUNDS

    def quantize_batch(self, ys):
        return round_half_up(self._rows(ys)).astype(np.int64)


class DnQuantizer(Quantizer):
    def quantize_batch(self, ys):
        w = self._rows(ys).T
        return _dn_columns(w, _dn_work(w)).T.astype(np.int64)


# Bytes of one coordinate of one coset in a block of `quantize_batch`: 512
# float64 rows or 1024 float32 ones. A block's buffers are three (2, 8, rows)
# float arrays and two one-byte ones, 208 KiB at 512 float64 rows and 224 KiB
# at 1024 float32 ones. The bound is the encode path's memory: 1024-row
# float64 blocks took about 13% less time on 4096-row batches (half the numpy
# calls), but a 4096-row desk8-e8 encode, then folded in float64, peaked at
# 1412 KiB under tracemalloc, past the 1152 KiB bound of its memory test
# (1092 KiB at 512 rows). Monte Carlo estimates do not share this bound:
# `E8FastQuantizer._squared_error_blocks` scores each sample block in one
# pass, in a (2, 2, 8, rows) float64 work area, 1 MiB at 4096 rows.
_E8_BLOCK_BYTES = 4096


def _e8_work(rows: int, dtype) -> tuple:
    """Arrays `_e8_cosets` writes into for blocks of up to `rows` rows of a
    float dtype: the (2, 8, rows) coset inputs and their `_dn_work`."""
    w = np.empty((2, 8, rows), dtype)
    return w, _dn_work(w)


def _e8_cosets(y: np.ndarray, work: tuple) -> tuple:
    """(f, pick) for the rows of y: the nearest points f of both cosets
    w = (y/2, y/2 - 1/2) at half scale, shape (2, 8, rows), rounded in one
    `_dn_columns` call, and where the second coset's point is the nearer one.

    Every array of the block's shape is one of `work` (`_e8_work`), or a
    view of its first rows for a shorter last block, so a call's blocks all
    write into the same memory and the caller may overwrite f.
    """
    w, dn = work
    if len(y) < w.shape[-1]:
        w, dn = w[..., : len(y)], tuple(a[..., : len(y)] for a in dn)
    z = w[0]
    _, h, eps, _ = _SCALARS[w.dtype]
    np.multiply(y.T, h, z)
    np.subtract(z, h, w[1])
    f = _dn_columns(w, dn)
    f[1] += h
    # squared distances, in the round's error array, summed in the pairwise
    # order of a row-major .sum(axis=1)
    d = np.subtract(z, f, dn[1])
    d *= d
    s = d[:, 0::2] + d[:, 1::2]
    s = s[:, 0::2] + s[:, 1::2]
    da, db = s[:, 0] + s[:, 1]
    # the D8 point is integral and the other is not, so they differ in their
    # first coordinate: on a tie the smaller first one is the smaller point
    tie = np.abs(da - db) <= eps
    pick = (db < da - eps) | (tie & (f[1, 0] < f[0, 0]))
    return f, pick


class E8FastQuantizer(Quantizer):
    """Exact nearest point of E8_int via the doubled Gosset decoder.

    At half scale E8_int is D8 union D8 + 1/2 (Conway & Sloane, 1982). Each
    block of rows rounds both cosets in one call of `_dn_columns`, the
    module's one D_n round, and keeps the nearer point. Ties within a coset
    follow `_dn_columns` (lowest index); ties within TIE_EPS between the
    cosets go to the lexicographically smaller point.

    `quantize_batch` takes rows in blocks of _E8_BLOCK_BYTES per coordinate
    that all work in the same buffers, made once per call in the rows' float
    dtype (`_e8_work`), so memory stays bounded by the output plus one
    block's buffers whatever the batch size.
    `_squared_error_blocks` scores each row by the D_n distance formula
    (Conway & Sloane, 1982) on both cosets and keeps the smaller: a coset's
    round with errors e is at squared distance sum(e^2), plus 1 - 2*max|e|
    where its coordinate sum is odd (the flip of `_dn_columns`). It makes
    no flip, coset pick or point, and agrees with the kept point's distance
    bit for bit on integer, half- and quarter-integer rows. It scores each
    block of a stream in one pass, every block in one work area sized to
    the first (and remade only for a longer block), which is how
    `second_moment_mc` scores whole sample blocks.
    """

    _f32_bounds = _F32_BOUNDS

    def quantize_batch(self, ys):
        y = self._rows(ys)
        out = np.empty(y.shape, dtype=np.int64)
        rows = _E8_BLOCK_BYTES // y.itemsize
        work = _e8_work(min(len(y), rows), y.dtype)
        for lo in range(0, len(y), rows):
            f, pick = _e8_cosets(y[lo : lo + rows], work)
            half = np.where(pick, f[1], f[0])
            np.add(half, half, out=out[lo : lo + rows].T, casting="unsafe")
        return out

    def _squared_error_blocks(self, blocks):
        work = None
        for ys in blocks:
            y = _finite(ys, 8)
            if work is None or len(y) > work.shape[-1]:
                work = np.empty((2, 2, 8, len(y)))
            # the cosets w = (y/2, y/2 - 1/2) and their rounds, halves toward +inf
            w, f = work[..., : len(y)]
            np.multiply(y.T, 0.5, w[0])
            np.subtract(w[0], 0.5, w[1])
            np.add(w, 0.5, f)
            np.floor(f, f)
            e = np.subtract(w, f, w)  # in [-0.5, 0.5)
            half = f.sum(axis=1) * 0.5
            odd = half != np.floor(half)
            # D8's flip steps the largest |e| of an odd sum, which adds
            # (1 - |e|)^2 - e^2 = 1 - 2 max|e| to the sum of squares
            pen = (1.0 - 2.0 * np.abs(e, f).max(axis=1)) * odd
            e *= e
            s = e[:, 0::2] + e[:, 1::2]
            s = s[:, 0::2] + s[:, 1::2]
            d = s[:, 0] + s[:, 1]
            d += pen
            # 4 ||y/2 - p||^2 is ||y - 2p||^2: scaling by a power of two is exact
            d = np.minimum(d[0], d[1])
            d *= 4.0
            yield d


# Bytes of one coordinate of a block of `LeechFastQuantizer.quantize_batch`: 32
# float64 rows or 64 float32 ones, so the pattern and class sums of a block
# stay near 150 KB in either dtype.
_LEECH_BLOCK_BYTES = 256
_LEECH_HALF_ROWS = 2 * _LEECH_BLOCK_BYTES // 4  # half-rows of the largest block
# flat index 128*j of the first class sum of half-row j, for the half-rows of a block
_CLASS_STARTS = np.arange(0, 128 * _LEECH_HALF_ROWS, 128)
_CLASS_STARTS.setflags(write=False)


# The read-only tables of `LeechFastQuantizer`, as `_leech_tables` builds them
_LeechTables = collections.namedtuple("_LeechTables", (
    "table offsets tetrads pattern_bits pattern_coords class_sum owed residual tetrad_at"
    " class_words word_rows class_index"))


@functools.cache
def _leech_tables() -> _LeechTables:
    """The Leech quantizer's tables, built on the first call from the Golay
    codewords; every call returns the same read-only arrays. The float ones
    are float64; `_leech_floats` gives them in another float dtype."""
    words = golay.codewords()
    u = np.array([-3] + [1] * 23, dtype=np.int8)
    # entries lie in -3..3; y - t and t + 4 * ... promote them to the same values
    table = np.empty((2, 4096, 24), dtype=np.int8)
    np.multiply(words, 2, out=table[0], casting="unsafe")
    np.add(table[0], u, out=table[1])
    table = table.reshape(8192, 24)
    # quarter-scale coset offsets (m*u_i + 2b)/4, indexed [m, b, i]
    offsets = (np.stack([np.zeros(24), u])[:, None] + 2.0 * np.arange(2)[:, None]) * 0.25
    # The sextet: tetrad {0, 1, 2, 3} and the five octads through it, less it.
    octads = words[(words.sum(axis=1) == 8) & words[:, :4].all(axis=1)]
    tetrads = np.vstack([np.arange(4)] + [np.flatnonzero(o)[4:] for o in octads])
    pattern = words[:, tetrads] @ (1 << np.arange(4))  # bit j: the tetrad's j-th coordinate
    flip = pattern >> 3  # complement every pattern that has bit 3 set
    canon = pattern ^ (15 * flip)
    _, cls = np.unique(canon @ (8 ** np.arange(6)), return_inverse=True)
    class_words = np.argsort(cls, kind="stable").reshape(128, 32)
    first = class_words[:, 0]
    # Pattern rows (flip, tetrad, canonical pattern): row r reads bit b of
    # coordinate i from entry b*24 + i of a half-row's rounding errors.
    r = np.arange(96)[:, None]
    bits = ((r % 8) ^ (15 * (r >= 48))) >> np.arange(4) & 1
    coords = bits * 24 + tetrads[r % 48 // 8, np.arange(4)]  # (96, 4)
    pattern_bits = np.zeros((48, 96))
    pattern_bits[coords, r] = 1.0
    class_rows = 8 * np.arange(6) + canon[first]  # (128, 6), unflipped rows
    class_sum = np.zeros((48, 128))
    class_sum[class_rows, np.arange(128)[:, None]] = 1.0
    owed = 8 * (flip[first].sum(axis=1) & 1)  # 8 * complement parity
    z = np.arange(64)
    residual = (z >> 2 & 2) | (z & 1)  # 8*flips + parities -> 2*(flip parity) + D24 parity
    # flat index 48*j + row of the rows of class c in half-row j, at [:, 128*j + c],
    # below 48 * _LEECH_HALF_ROWS: int16, written in place
    tetrad_at = np.empty((6, _LEECH_HALF_ROWS, 128), dtype=np.int16)
    np.add(class_rows.T.astype(np.int16)[:, None],
           48 * np.arange(_LEECH_HALF_ROWS, dtype=np.int16)[:, None], out=tetrad_at)
    # word_rows stays int64: a narrower one costs its every take a promoting add
    rows = 48 * flip + 8 * np.arange(6) + canon  # (4096, 6)
    word_rows = rows[class_words].transpose(0, 2, 1).reshape(128, 192)
    class_index = (class_words + 4096 * np.arange(2)[:, None, None]).reshape(256, 32)
    tables = _LeechTables(table, offsets, tetrads, pattern_bits, coords.T.copy(), class_sum,
                          owed, residual, tetrad_at.reshape(6, -1), class_words, word_rows,
                          class_index.astype(np.int16))
    for arr in tables:
        arr.setflags(write=False)
    return tables


@functools.cache
def _leech_floats(dtype) -> tuple:
    """offsets, pattern_bits and class_sum of `_leech_tables` in a float
    dtype, read-only: the float64 tables themselves, and copies made on the
    first call for float32."""
    tb = _leech_tables()
    floats = tuple(a.astype(dtype, copy=False) for a in (tb.offsets, tb.pattern_bits, tb.class_sum))
    for arr in floats:
        arr.setflags(write=False)
    return floats


class LeechFastQuantizer(Quantizer):
    """Exact nearest point of Leech_int by a sextet-class search of its 8192 cosets.

    The integer-scaled Leech lattice is the disjoint union of cosets
    2c + m*u + 4*D24 over Golay codewords c and m in {0,1}, with u the odd
    representative (-3, 1, ..., 1). At quarter scale the best point of a coset
    is its offset plus 4 times a D24 round, so per half m and coordinate i
    only two roundings occur, of (y_i - m*u_i - 2b)/4 for bit b = 0, 1, with
    errors e_b and integers f_b. Word c then costs sum(e_{c_i}^2) plus, when
    sum(f_{c_i}) is odd, the D24 flip penalty 1 - 2*max|e_{c_i}|.

    A sextet (six disjoint tetrads, any two forming an octad) splits the Golay
    code into 128 classes of 32 words. A class fixes each tetrad's pattern up
    to complement, and its words all complement an even number of tetrads or
    all an odd one. Per class and half, taking each tetrad's cheaper pattern
    costs B and leaves a residual in Z2^2: the complement parity still owed
    and the D24 parity. Changing a single tetrad (flipping the D24 parity in
    it, complementing it, or both) repairs any residual, so B plus the
    cheapest such correction bounds the class minimum from above, and B alone,
    corrections costing at least 0, bounds it from below.

    Bounds come in the order B, pass-1 bound, survivors. Pass 1 bounds each
    row by B plus the correction of each half's least-B class. Pass 2 gives
    corrections only to the classes with B within that bound. Every class
    that bounding all 256 (class, half) pairs would keep is among them, so
    they give the same row bound (their least upper bound) and the same
    survivors: the classes whose lower bound, B plus the cheaper of the owed
    correction and one of each other kind, is within TIE_EPS of it. Only the
    survivors' words are scored exactly.

    Ties within TIE_EPS go to the first coset in table order (m = 0 first, then
    codeword index). Within that coset t the point is t + 4 times the D24
    round of (y - t)/4 by `_dn_columns`, the module's one D_n round.

    One search serves both float dtypes: the rows' own (`Quantizer._rows`),
    float32 for integer rows under a scale 2^j with j <= 8 and every entry
    below B(j) (`_F32_BOUNDS`, which derives why every value is then exact),
    float64 otherwise. Blocks hold _LEECH_BLOCK_BYTES per coordinate, 32
    float64 or 64 float32 rows, and the float tables are taken in the rows'
    dtype (`_leech_floats`).

    `_squared_error_blocks` runs the same search in float64 and yields 16
    times each row's least score, the squared distance at quarter scale
    that the search has already summed: no table gather, no final D24 round
    and no int64 point.
    """

    _f32_bounds = _F32_BOUNDS[:9]

    def __init__(self, lattice: Lattice):
        super().__init__(lattice)
        self._tables = _leech_tables()

    def quantize_batch(self, ys):
        y = self._rows(ys)
        t = self._tables.table[self._search(y)[0]]
        w = ((y - t) * _SCALARS[y.dtype][3]).T
        return t + 4 * _dn_columns(w, _dn_work(w)).T.astype(np.int64)

    def _squared_error_blocks(self, blocks):
        for ys in blocks:
            _, low = self._search(_finite(ys, 24))
            low *= 16.0  # the search scores distances at quarter scale
            yield low

    def _search(self, y):
        """(best, low) for the float rows y: `_nearest_cosets` run on
        blocks of _LEECH_BLOCK_BYTES per coordinate of y / 4."""
        yq = y * _SCALARS[y.dtype][3]
        floats = _leech_floats(y.dtype)
        rows = _LEECH_BLOCK_BYTES // y.itemsize
        best = np.empty(len(y), dtype=np.int64)
        low = np.empty(len(y), dtype=y.dtype)
        for lo in range(0, len(y), rows):
            best[lo : lo + rows], low[lo : lo + rows] = self._nearest_cosets(
                yq[lo : lo + rows], floats)
        return best, low

    def _nearest_cosets(self, yq, floats):
        """(best, low) for the rows of yq = y / 4, with the float tables
        `floats` in yq's dtype: the table index of each row's first nearest
        coset, and the least score of any coset, the row's squared distance
        to Leech_int / 4."""
        tb = self._tables
        offsets, pattern_bits, class_sum = floats
        _, half, eps, _ = _SCALARS[yq.dtype]
        rows = len(yq)
        h = 2 * rows  # half-row 2*r + m holds half m of row r
        w = (yq[:, None, None, :] - offsets).reshape(h, 48)
        x = np.empty((2, h, 48), yq.dtype)
        f = np.add(w, half, x[1])
        np.floor(f, f)
        e = np.subtract(w, f, w)  # rounding errors, in [-0.5, 0.5)
        np.multiply(e, e, x[0])
        # per half-row and pattern row: sum(e^2), sum(f), flip penalty 1 - 2*max|e|
        s = np.empty((3, h, 96), yq.dtype)
        cost, fsum, pen = s[0], s[1], s[2]
        np.matmul(x, pattern_bits, out=s[:2])
        # max|e| per pattern row, gathered coordinate-major: one contiguous copy per row
        top = np.abs(e.T, order="C").take(tb.pattern_coords, axis=0).max(axis=0)
        np.subtract(half, top.T, pen)
        pen += pen  # 2 * (1/2 - max|e|) rounds as 1 - 2*max|e| does
        par = fsum.astype(np.int64) & 1
        # Each tetrad takes its cheaper pattern; class sums of those costs and
        # of the codes 8*flip + parity give each class its B and its residual.
        # One product per half of `pick`, (h, 48) by (48, 128): as one (2h, 48)
        # product, 64 float32 rows cross OpenBLAS's threading threshold, and a
        # threaded product this small took up to 20 ms (mean 2.5 ms, median
        # 30 us) on a shared 2-vCPU host unless BLAS was pinned to one thread.
        flip = cost[:, 48:] < cost[:, :48]
        pick = np.empty((2, h, 48), yq.dtype)
        np.minimum(cost[:, :48], cost[:, 48:], out=pick[0])
        pick[1] = np.where(flip, par[:, 48:] + 8, par[:, :48])
        sums = pick @ class_sum  # flat index 128*half-row + class in each half
        b = sums[0].reshape(-1)
        res = tb.residual.take(sums[1].astype(np.int64) + tb.owed).reshape(-1)
        # one-tetrad corrections by kind: none, flip the D24 parity, complement
        # keeping it, complement flipping it (via the other pattern's penalty if needed)
        corr = np.zeros((4, h, 48), yq.dtype)
        corr[1] = np.where(flip, pen[:, 48:], pen[:, :48])
        dc = np.abs(cost[:, 48:] - cost[:, :48])
        both = dc + np.where(flip, pen[:, :48], pen[:, 48:])
        split = par[:, :48] != par[:, 48:]
        corr[2] = np.where(split, both, dc)
        corr[3] = np.where(split, dc, both)
        corr = corr.reshape(4, -1)

        def bounds(at):
            """B, each kind's cheapest correction and the one owed, at flat class indices."""
            md = corr.take(tb.tetrad_at.take(at, axis=1), axis=1).min(axis=1)
            return b.take(at), md, res.take(at).choose(md)

        # pass 1: the least-B class of each half, with its correction, bounds the row
        starts = _CLASS_STARTS[:h]
        bc, _, one = bounds(starts + b.reshape(h, 128).argmin(axis=1))
        bound = (bc + one).reshape(rows, 2).min(axis=1) + eps
        # pass 2: B bounds its class from below, so only classes with B <= bound
        # can hold the row's least upper bound or its nearest coset
        at = (b.reshape(rows, 256) <= bound[:, None]).ravel().nonzero()[0]
        bc, md, one = bounds(at)
        bound = np.minimum.reduceat(bc + one, at.searchsorted(starts[::2])) + eps
        # one correction always works; two of the other kinds may be cheaper
        lb = bc + np.minimum(one, md.sum(axis=0) - one)
        at = at[lb <= bound.take(at >> 8)]
        # score every word of the surviving classes exactly
        words = tb.word_rows.take(at & 127, axis=0) + (96 * (at >> 7))[:, None]
        rec = s.reshape(3, -1).take(words, axis=1).reshape(3, -1, 6, 32)
        tot = rec[:2].sum(axis=2)
        # the parity as an integer of one byte, so the product keeps yq's dtype
        odd = (tot[1].astype(np.int64) & 1).astype(np.int8)
        score = tot[0] + odd * rec[2].min(axis=1)
        # first coset within TIE_EPS of the minimum, in table order m*4096 + codeword index
        start = 32 * at.searchsorted(starts[::2])
        low = np.minimum.reduceat(score.reshape(-1), start)
        tied = score <= low.take(at >> 8)[:, None] + eps
        index = np.where(tied, tb.class_index.take(at & 255, axis=0), 8192)
        return np.minimum.reduceat(index.reshape(-1), start), low


class EnumerationQuantizer(Quantizer):
    """Exact nearest point by sphere enumeration (works for any lattice).

    The search starts from the covering-radius bound when the lattice carries
    one (otherwise unbounded) and its first descent reaches the Babai
    round-off point, which shrinks the radius to that point's distance; both
    are upper bounds on the true distance, so the enumeration stays exact.
    """

    def __init__(self, lattice: Lattice):
        super().__init__(lattice)
        b = lattice.generator.to_float()
        q, r = np.linalg.qr(b)
        sgn = np.sign(np.diag(r))
        sgn[sgn == 0] = 1.0
        self._q = q * sgn
        self._r = r * sgn[:, None]
        self._gen = lattice.generator

    def _search(self, w, radius_sq):
        """Depth-first zig-zag enumeration; yields (dist, coeffs) leaves."""
        n = len(w)
        r = self._r
        b = np.zeros(n, dtype=np.int64)
        center = np.zeros(n)
        step = np.zeros(n, dtype=np.int64)
        part = np.zeros(n + 1)  # part[k]: squared distance from levels k..n-1
        leaves = []
        k = n - 1
        center[k] = w[k] / r[k, k]
        b[k] = np.rint(center[k])
        step[k] = 1 if center[k] >= b[k] else -1
        bound = radius_sq + TIE_EPS
        while True:
            d = part[k + 1] + (r[k, k] * (b[k] - center[k])) ** 2
            if d <= bound:
                if k == 0:
                    leaves.append((d, b.copy()))
                    if d < radius_sq:
                        radius_sq = d
                        bound = radius_sq + TIE_EPS
                    b[k] += step[k]
                    step[k] = -step[k] - (1 if step[k] > 0 else -1)
                else:
                    part[k] = d
                    k -= 1
                    center[k] = (w[k] - r[k, k + 1 :] @ b[k + 1 :]) / r[k, k]
                    b[k] = np.rint(center[k])
                    step[k] = 1 if center[k] >= b[k] else -1
            else:
                k += 1
                if k == n:
                    return leaves, radius_sq
                b[k] += step[k]
                step[k] = -step[k] - (1 if step[k] > 0 else -1)

    def _nearest(self, y):
        cov_sq = self.lattice.cov_sq
        leaves, best = self._search(self._q.T @ y, math.inf if cov_sq is None else cov_sq)
        # matvec returns int tuples, which compare lexicographically
        return np.array(min(self._gen.matvec(b) for d, b in leaves if d <= best + TIE_EPS),
                        dtype=np.int64)

    def quantize_batch(self, ys):
        y = self._rows(ys)
        return np.array([self._nearest(row) for row in y], dtype=np.int64).reshape(y.shape)


class ScaledQuantizer(Quantizer):
    """Nearest point of a lattice alpha * L (`Lattice.scaled`) from L's quantizer.

    The lattice's Hermite form gives `alpha`, `copies` and the leaf
    (`_leaf_form`), so a chain of scalings and direct sums (`direct_sum`)
    of any depth, in any basis, has one wrapper level: `alpha` is the
    product of its scales, `copies` the number of leaf blocks, and `inner`
    the quantizer of the stock leaf lattice. The rows, in the new array
    `_rows` makes of them, are divided by alpha in place (in float64, the
    bits of `np.asarray(ys, float64) / alpha`; alpha 1 divides nothing and
    copies nothing), handed to `inner` as `_Checked` rows of the leaf's
    dimension, and its output, which is its own (see `Quantizer`), is
    multiplied by alpha in place. Float rows are refused from alpha times
    2^52 on. Integer rows take float32 when alpha is a power of two 2^j,
    the leaf is Zn or E8_int (j <= 9) or Leech_int (j <= 8) and every entry
    is below B(j) (`_F32_BOUNDS`): dividing them by 2^j is exact, and so is
    every value the leaf makes, so their points are those of the float64
    rows. The leaf's rows are below
    2^52 and a nearest point lies within the covering radius of its row, so
    the leaf's coordinates are below 2^53. Whether alpha times that fits
    int64 is decided once, here: it does for every stock scale, and then no
    row is checked. Otherwise a row whose point would leave int64 is refused
    with a ValueError.
    """

    def __init__(self, lattice: Lattice):
        super().__init__(lattice)
        form = _leaf_form(lattice.triangular_generator)
        if form is None:
            raise ValueError(f"{lattice!r} is not a scaled direct sum of Zn, Dn, "
                             f"E8_int or Leech_int")
        name, self.alpha, self.copies = form
        self.inner = make_quantizer(standard_lattice(name))
        self._block = self.inner.lattice.dim
        top = int(np.iinfo(np.int64).max)
        self._top = None if self.alpha * 2 * _FLOAT_LIMIT <= top else top // self.alpha
        j = self.alpha.bit_length() - 1
        if self.alpha == 1 << j and j < len(self.inner._f32_bounds):
            self._f32_bound = self.inner._f32_bounds[j]

    def quantize_batch(self, ys):
        y = self._rows(ys)
        shape = y.shape
        if self.alpha != 1:
            y /= self.alpha
        # one copy reshapes nothing: two reshapes are about 0.4 us, 1% of a
        # one-row desk8-e8 encode
        if self.copies != 1:
            y = y.reshape(shape[0] * self.copies, self._block)
        p = self.inner.quantize_batch(y.view(_Checked))
        if self.copies != 1:
            p = p.reshape(shape)
        if self._top is not None and p.size and np.abs(p).max() > self._top:
            at = tuple(int(i) for i in np.argwhere(np.abs(p) > self._top)[0])
            raise ValueError(f"cannot quantize the row at index {at[0]}: its nearest point "
                             f"has coordinate {self.alpha} * {p[at]}, past the int64 range")
        p *= self.alpha
        return p


class DirectSumQuantizer(ScaledQuantizer):
    """Blockwise quantizer for a direct sum of identical blocks (`direct_sum`):
    the collapsed chain of `ScaledQuantizer`, for a lattice whose scale
    alpha is 1."""

    # an entry of the class's own, so a wrapper of each class's
    # `quantize_batch` (the perfbench tracer's) names direct sums apart
    quantize_batch = ScaledQuantizer.quantize_batch


# Leaf quantizers by the name of their stock lattice, less its dimension
_LEAVES = {
    "Zn": ZnQuantizer,
    "Dn": DnQuantizer,
    "E8_int": E8FastQuantizer,
    "Leech_int": LeechFastQuantizer,
}
# The volume of a leaf's Hermite form tells the leaves apart
_LEAF_VOLUMES = {1: "Zn", 2: "Dn", 256: "E8_int", 1 << 36: "Leech_int"}


# bounded, since each entry keeps its form alive: a 512-dim one is 262 144 ints
@functools.lru_cache(maxsize=64)
def _leaf_form(tri) -> tuple | None:
    """(leaf name, alpha, copies) of the lattice whose Hermite form
    (`Lattice.triangular_generator`) is `tri`, or None when it has no
    structured quantizer.

    alpha is the gcd of tri's entries. The lattice is alpha times `copies`
    coordinate blocks of a stock leaf when tri / alpha is the identity (the
    leaf Zn(n), one copy) or `copies` equal diagonal blocks, each the
    Hermite form of Dn(d), E8_int (d = 8) or Leech_int (d = 24). A lattice
    has one Hermite form, so every basis of it gets the same answer.
    """
    n = tri.rows
    rows = [tri.row(i) for i in range(n)]
    alpha = math.gcd(*itertools.chain.from_iterable(rows))
    # the first diagonal block: the least d with no entry of columns < d in rows >= d
    d, j = 1, 0
    while j < d:
        d = max(d, 1 + max(i for i in range(j, n) if rows[i][j]))
        j += 1
    copies, rest = divmod(n, d)
    if rest or any(rows[b * d + i] != (0,) * (b * d) + rows[i][:d] + (0,) * (n - b * d - d)
                   for b in range(1, copies) for i in range(d)):
        return None
    block = [tuple(x // alpha for x in r[:d]) for r in rows[:d]]
    kind = _LEAF_VOLUMES.get(math.prod(block[i][i] for i in range(d)))
    if kind is None:
        return None
    name = f"{kind}({d})" if kind in ("Zn", "Dn") else kind
    leaf = standard_lattice(name).triangular_generator
    if leaf.rows != d or any(block[i] != leaf.row(i) for i in range(d)):
        return None
    return (f"Zn({n})", alpha, 1) if kind == "Zn" else (name, alpha, copies)


def make_quantizer(lattice: Lattice) -> Quantizer:
    """The fastest exact quantizer for the lattice, read from its Hermite form.

    A lattice that is alpha times a direct sum of copies of Zn, Dn, E8_int
    or Leech_int (`_leaf_form`), in any basis, gets that leaf's structured
    decoder: the leaf quantizer itself when alpha and copies are 1, and
    otherwise one wrapper over it, a `ScaledQuantizer` when alpha is not 1
    and a `DirectSumQuantizer` when it is. Any other lattice falls back to
    sphere enumeration.
    """
    form = _leaf_form(lattice.triangular_generator)
    if form is None:
        return EnumerationQuantizer(lattice)
    name, alpha, copies = form
    if alpha != 1:
        return ScaledQuantizer(lattice)
    if copies != 1:
        return DirectSumQuantizer(lattice)
    return _LEAVES[name.split("(")[0]](lattice)


def fold_batch(q: Quantizer, xs: np.ndarray) -> np.ndarray:
    """Rows of xs minus their nearest lattice points: Voronoi-region representatives.

    Integer rows give int64 and any other rows float64. xs is left as it
    is. Integer rows are subtracted into the quantizer's int64 output, a
    new array of the caller's own (see `Quantizer`), so the fold makes no
    array of its own; float rows need a new float64 result. Integer rows
    are quantized in float32 where that gives the float64 points exactly
    (see `ScaledQuantizer`), which is how encode and decode fold.
    """
    x = np.asarray(xs)
    x = x.astype(np.int64 if x.dtype.kind in "iu" else np.float64, copy=False)
    p = q.quantize_batch(x)
    return np.subtract(x, p, out=p if p.dtype == x.dtype else None)


def fold_mod_parallelotope_batch(tri: np.ndarray, rs: np.ndarray) -> np.ndarray:
    """Reduce int64 rows into the digit box of a triangular generator.

    tri is an int64 lower-triangular matrix with positive diagonal (columns
    are basis vectors). Coordinates are swept top-down, subtracting the basis
    column that pins each one, so every row lands in {0..d_1-1} x ... x
    {0..d_n-1} for the diagonal entries d_i. Exactly one point per residue
    class lies there. Values stay desk-scale, so int64 does not overflow.
    """
    out = np.array(rs, dtype=np.int64, copy=True)
    for i in range(len(tri)):
        qf = np.floor_divide(out[:, i], tri[i, i])
        out[:, i:] -= qf[:, None] * tri[i:, i][None, :]
    return out
