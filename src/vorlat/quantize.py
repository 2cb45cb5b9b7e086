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
nearest point, block by block: E8_int takes it from its decoder's own coset
distances, and every other quantizer from its points.

Quantizers are stateless after construction and safe to share across threads.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import golay
from .lattice import Lattice

TIE_EPS = 1e-9
# Inputs must stay below this in magnitude: float64 has no halves from here
# on. VoronoiCodeSpec keeps its box representatives below it too.
_FLOAT_LIMIT = 1 << 52


def round_half_up(y: np.ndarray) -> np.ndarray:
    """Coordinatewise nearest integer, halves toward +inf."""
    return np.floor(y + 0.5)


@functools.cache
def _first_weights(n: int) -> np.ndarray:
    """Read-only (n, 1) weights n - i of coordinate i, in the narrowest unsigned dtype."""
    weight = np.arange(n, 0, -1, dtype=np.min_scalar_type(n))[:, None]
    weight.setflags(write=False)
    return weight


def _dn_work(w: np.ndarray) -> tuple:
    """Arrays `_dn_columns` writes into for float (..., n, rows) input of w's
    shape and memory order: the point and the errors (float64), then the
    entry masks (bool), weights (`_first_weights` dtype) and steps (int8)."""
    shape, order = w.shape, "F" if w.flags.f_contiguous else "C"
    return (np.empty(shape, np.float64, order), np.empty(shape, np.float64, order),
            np.empty(shape, bool, order), np.empty(shape, _first_weights(shape[-2]).dtype, order),
            np.empty(shape, np.int8, order))


def _dn_columns(w: np.ndarray, work: tuple) -> np.ndarray:
    """Nearest point of Dn (even coordinate sum) for each column of a float
    (..., n, rows) array; every reduction runs along the rows.

    Every coordinate rounds with halves toward +inf. Where a column's sum is
    odd (it is exact below 2^53), its first coordinate of largest |error|
    steps the other way: that coordinate holds the largest weight n - i on
    the `== max` mask, and the weight is zeroed where the sum is even. No
    step branches on the data. Every array of w's shape is one of `work`
    (`_dn_work(w)`); the point, integer-valued float64, is its first, and
    the errors' magnitudes are left in its second. Here and in `_e8_cosets`
    ufunc outputs are passed by position: the `out=` keyword costs about
    80 ns a call, 2-3% of a one-row desk8-e8 encode.
    """
    f, e, top, weighted, step = work
    weight = _first_weights(w.shape[-2])
    np.add(w, 0.5, f)
    np.floor(f, f)  # round_half_up(w)
    np.subtract(w, f, e)  # in [-0.5, 0.5)
    half = f.sum(axis=-2) * 0.5
    np.greater(e, 0.0, step.view(bool))
    mag = np.abs(e, e)
    np.equal(mag, mag.max(axis=-2, keepdims=True), top)
    first = np.multiply(top, weight, weighted).max(axis=-2)
    first *= half != np.floor(half)
    at = np.equal(weight, first[..., None, :], top)
    step *= np.int8(2)
    step -= at
    step *= at  # +1 at a marked positive error, -1 at a marked error <= 0
    f += step
    return f


def _finite(ys, n: int) -> np.ndarray:
    """ys as a float64 (rows, n) array; other shapes, NaN or infinite
    entries and entries of magnitude _FLOAT_LIMIT (2^52) or more are refused
    with a ValueError. One reduction tests all three: NaN fails the
    comparison too."""
    y = np.asarray(ys, dtype=np.float64)
    if y.ndim != 2 or y.shape[1] != n:
        raise ValueError(f"expected a 2-d array of rows with {n} columns, got shape {y.shape}")
    if y.size and not np.abs(y).max() < _FLOAT_LIMIT:
        if not np.isfinite(y).all():
            at = tuple(int(i) for i in np.argwhere(~np.isfinite(y))[0])
            raise ValueError(f"cannot quantize non-finite input {y[at]} at index {at}")
        at = tuple(int(i) for i in np.argwhere(np.abs(y) >= _FLOAT_LIMIT)[0])
        raise ValueError(f"cannot quantize input {y[at]} at index {at}: its magnitude "
                         f"is not below the float64 limit 2^52")
    return y


class Quantizer:
    """Base class: nearest-lattice-point maps.

    `quantize_batch` returns a new, writeable int64 array that shares no
    memory with its input, so callers may write into it: `fold_batch`
    subtracts into it, and `ScaledQuantizer` scales its inner output in place.
    """

    def __init__(self, lattice: Lattice):
        self.lattice = lattice

    def quantize_batch(self, ys: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _squared_error_blocks(self, blocks):
        """For each array of rows of the iterable `blocks`, yield a new array
        of each row's squared distance to its nearest lattice point, summed
        in the pairwise order of a row-major `.sum(axis=1)`; a block is
        refused as by `quantize_batch`. A block is scored before the next is
        taken, so a caller may draw every block into the same buffer."""
        for ys in blocks:
            y = np.asarray(ys, dtype=np.float64)
            e = y - self.quantize_batch(y)
            yield (e * e).sum(axis=1)

    def __repr__(self):
        return f"{type(self).__name__}({self.lattice!r})"


class ZnQuantizer(Quantizer):
    def quantize_batch(self, ys):
        return round_half_up(_finite(ys, self.lattice.dim)).astype(np.int64)


class DnQuantizer(Quantizer):
    def quantize_batch(self, ys):
        w = _finite(ys, self.lattice.dim).T
        return _dn_columns(w, _dn_work(w)).T.astype(np.int64)


# Rows per block of `quantize_batch`, whose buffers are three (2, 8, rows)
# float64 arrays and three one-byte ones,
# 216 KiB at 512 rows. The bound is the encode path's memory: 1024-row blocks
# took about 13% less time on 4096-row batches (half the numpy calls), but a
# 4096-row desk8-e8 encode then peaked at 1412 KiB under tracemalloc, past the
# 1152 KiB bound of its memory test (1092 KiB at 512 rows). A rewrite of the
# kernel over three buffers still read 1268 KiB at 1024 rows, and at 512 and
# 768 rows it encoded 5-10% slower than this one. Monte Carlo estimates do not
# share this bound: `second_moment_mc` scores each sample block in one pass.
_E8_ROWS = 512


def _e8_work(rows: int) -> tuple:
    """Arrays `_e8_cosets` writes into for blocks of up to `rows` rows: the
    (2, 8, rows) coset inputs and their `_dn_work`."""
    w = np.empty((2, 8, rows))
    return w, _dn_work(w)


def _e8_cosets(y: np.ndarray, work: tuple) -> tuple:
    """(f, pick, da, db) for the rows of y: the nearest points f of both
    cosets w = (y/2, y/2 - 1/2) at half scale, shape (2, 8, rows), rounded in
    one `_dn_columns` call; where the second coset's point is the nearer one;
    and both points' squared distances to y/2.

    Every array of the block's shape is one of `work` (`_e8_work`), or a
    view of its first rows for a shorter last block, so a call's blocks all
    write into the same memory and the caller may overwrite f, da and db.
    """
    w, dn = work
    if len(y) < w.shape[-1]:
        w, dn = w[..., : len(y)], tuple(a[..., : len(y)] for a in dn)
    z = w[0]
    np.multiply(y.T, 0.5, z)
    np.subtract(z, 0.5, w[1])
    f = _dn_columns(w, dn)
    f[1] += 0.5
    # squared distances, in the round's error array, summed in the pairwise
    # order of a row-major .sum(axis=1)
    d = np.subtract(z, f, dn[1])
    d *= d
    s = d[:, 0::2] + d[:, 1::2]
    s = s[:, 0::2] + s[:, 1::2]
    da, db = s[:, 0] + s[:, 1]
    # the D8 point is integral and the other is not, so they differ in their
    # first coordinate: on a tie the smaller first one is the smaller point
    tie = np.abs(da - db) <= TIE_EPS
    pick = (db < da - TIE_EPS) | (tie & (f[1, 0] < f[0, 0]))
    return f, pick, da, db


class E8FastQuantizer(Quantizer):
    """Exact nearest point of E8_int via the doubled Gosset decoder.

    At half scale E8_int is D8 union D8 + 1/2 (Conway & Sloane, 1982). Each
    block of rows rounds both cosets in one call of `_dn_columns`, the
    module's one D_n round, and keeps the nearer point. Ties within a coset
    follow `_dn_columns` (lowest index); ties within TIE_EPS between the
    cosets go to the lexicographically smaller point.

    `quantize_batch` takes rows in blocks of _E8_ROWS that all work in the
    same buffers, made once per call (`_e8_work`), so memory stays bounded
    by the output plus one block's buffers whatever the batch size.
    `_squared_error_blocks` returns the kept coset's distance, which the
    decoder has already summed, without building the point. It scores each
    block of a stream in one pass, every block in one work area sized to
    the first (and remade only for a longer block), which is how
    `second_moment_mc` scores whole sample blocks.
    """

    def quantize_batch(self, ys):
        y = _finite(ys, 8)
        out = np.empty(y.shape, dtype=np.int64)
        work = _e8_work(min(len(y), _E8_ROWS))
        for lo in range(0, len(y), _E8_ROWS):
            f, pick, _, _ = _e8_cosets(y[lo : lo + _E8_ROWS], work)
            np.multiply(np.where(pick, f[1], f[0]), 2.0, out=out[lo : lo + _E8_ROWS].T,
                        casting="unsafe")
        return out

    def _squared_error_blocks(self, blocks):
        work = None
        for ys in blocks:
            y = _finite(ys, 8)
            if work is None or len(y) > work[0].shape[-1]:
                work = _e8_work(len(y))
            _, pick, da, db = _e8_cosets(y, work)
            # 4 ||y/2 - f||^2 is ||y - 2f||^2 bit for bit: the same sums scaled by a power of two
            s = np.where(pick, db, da)
            s *= 4.0
            yield s


_LEECH_ROWS = 32  # rows per block: the pattern and class sums stay near 150 KB
# flat index 128*j of the first class sum of half-row j, for the 2*_LEECH_ROWS half-rows of a block
_CLASS_STARTS = np.arange(0, 256 * _LEECH_ROWS, 128)
_CLASS_STARTS.setflags(write=False)


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
    """

    _TABLES = None

    def __init__(self, lattice: Lattice):
        super().__init__(lattice)
        if LeechFastQuantizer._TABLES is None:
            LeechFastQuantizer._TABLES = self._build_tables()
        (self._table, self._offsets, self._tetrads, self._pattern_bits, self._pattern_coords,
         self._class_sum, self._owed, self._residual, self._tetrad_at, self._class_words,
         self._word_rows, self._class_index) = LeechFastQuantizer._TABLES

    @staticmethod
    def _build_tables():
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
        # flat index 48*j + row of the rows of class c in half-row j, at [:, 128*j + c]
        tetrad_at = (np.ascontiguousarray(class_rows.T)[:, None]
                     + 48 * np.arange(2 * _LEECH_ROWS)[:, None]).reshape(6, -1)
        rows = 48 * flip + 8 * np.arange(6) + canon  # (4096, 6)
        word_rows = rows[class_words].transpose(0, 2, 1).reshape(128, 192)
        class_index = (class_words + 4096 * np.arange(2)[:, None, None]).reshape(256, 32)
        out = (table, offsets, tetrads, pattern_bits, coords.T.copy(), class_sum, owed,
               residual, tetrad_at, class_words, word_rows, class_index)
        for arr in out:
            arr.setflags(write=False)
        return out

    def quantize_batch(self, ys):
        y = _finite(ys, 24)
        yq = y * 0.25
        best = np.empty(len(y), dtype=np.int64)
        for lo in range(0, len(y), _LEECH_ROWS):
            best[lo : lo + _LEECH_ROWS] = self._nearest_cosets(yq[lo : lo + _LEECH_ROWS])
        t = self._table[best]
        w = ((y - t) * 0.25).T
        return t + 4 * _dn_columns(w, _dn_work(w)).T.astype(np.int64)

    def _nearest_cosets(self, yq):
        """Table index of the first nearest coset for each row of yq = y / 4."""
        rows = len(yq)
        h = 2 * rows  # half-row 2*r + m holds half m of row r
        w = (yq[:, None, None, :] - self._offsets).reshape(h, 48)
        x = np.empty((2, h, 48))
        f = np.floor(w + 0.5, out=x[1])
        e = w - f  # rounding errors, in [-0.5, 0.5)
        np.multiply(e, e, out=x[0])
        # per half-row and pattern row: sum(e^2), sum(f), flip penalty 1 - 2*max|e|
        s = np.empty((3, h, 96))
        cost, fsum, pen = s[0], s[1], s[2]
        np.matmul(x, self._pattern_bits, out=s[:2])
        # max|e| per pattern row, gathered coordinate-major: one contiguous copy per row
        top = np.abs(e.T, order="C").take(self._pattern_coords, axis=0).max(axis=0)
        np.subtract(1.0, 2.0 * top.T, out=pen)
        par = fsum.astype(np.int64) & 1
        # Each tetrad takes its cheaper pattern; class sums of those costs and
        # of the codes 8*flip + parity give each class its B and its residual.
        flip = cost[:, 48:] < cost[:, :48]
        pick = np.empty((2 * h, 48))
        np.minimum(cost[:, :48], cost[:, 48:], out=pick[:h])
        pick[h:] = np.where(flip, par[:, 48:] + 8, par[:, :48])
        sums = pick @ self._class_sum  # flat index 128*half-row + class
        b = sums[:h].reshape(-1)
        res = self._residual.take(sums[h:].astype(np.int64) + self._owed).reshape(-1)
        # one-tetrad corrections by kind: none, flip the D24 parity, complement
        # keeping it, complement flipping it (via the other pattern's penalty if needed)
        corr = np.zeros((4, h, 48))
        corr[1] = np.where(flip, pen[:, 48:], pen[:, :48])
        dc = np.abs(cost[:, 48:] - cost[:, :48])
        both = dc + np.where(flip, pen[:, :48], pen[:, 48:])
        split = par[:, :48] != par[:, 48:]
        corr[2] = np.where(split, both, dc)
        corr[3] = np.where(split, dc, both)
        corr = corr.reshape(4, -1)

        def bounds(at):
            """B, each kind's cheapest correction and the one owed, at flat class indices."""
            md = corr.take(self._tetrad_at.take(at, axis=1), axis=1).min(axis=1)
            return b.take(at), md, res.take(at).choose(md)

        # pass 1: the least-B class of each half, with its correction, bounds the row
        starts = _CLASS_STARTS[:h]
        bc, _, one = bounds(starts + b.reshape(h, 128).argmin(axis=1))
        bound = (bc + one).reshape(rows, 2).min(axis=1) + TIE_EPS
        # pass 2: B bounds its class from below, so only classes with B <= bound
        # can hold the row's least upper bound or its nearest coset
        at = (b.reshape(rows, 256) <= bound[:, None]).ravel().nonzero()[0]
        bc, md, one = bounds(at)
        bound = np.minimum.reduceat(bc + one, at.searchsorted(starts[::2])) + TIE_EPS
        # one correction always works; two of the other kinds may be cheaper
        lb = bc + np.minimum(one, md.sum(axis=0) - one)
        at = at[lb <= bound.take(at >> 8)]
        # score every word of the surviving classes exactly
        words = self._word_rows.take(at & 127, axis=0) + (96 * (at >> 7))[:, None]
        rec = s.reshape(3, -1).take(words, axis=1).reshape(3, -1, 6, 32)
        tot = rec[:2].sum(axis=2)
        score = tot[0] + (tot[1].astype(np.int64) & 1) * rec[2].min(axis=1)
        # first coset within TIE_EPS of the minimum, in table order m*4096 + codeword index
        start = 32 * at.searchsorted(starts[::2])
        low = np.minimum.reduceat(score.reshape(-1), start)
        tied = score <= low.take(at >> 8)[:, None] + TIE_EPS
        index = np.where(tied, self._class_index.take(at & 255, axis=0), 8192)
        return np.minimum.reduceat(index.reshape(-1), start)


class EnumerationQuantizer(Quantizer):
    """Exact nearest point by sphere enumeration (works for any lattice).

    The search starts from the covering-radius bound when the lattice carries
    one (otherwise unbounded) and its first descent reaches the Babai
    round-off point, which shrinks the radius to that point's distance; both
    are upper bounds on the true distance, so the enumeration stays exact.
    """

    def __init__(self, lattice: Lattice):
        super().__init__(lattice)
        b = lattice.float_generator()
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
        y = _finite(ys, self.lattice.dim)
        return np.array([self._nearest(row) for row in y], dtype=np.int64).reshape(y.shape)


class ScaledQuantizer(Quantizer):
    """Nearest point of a lattice alpha * L (`Lattice.scaled`) from L's quantizer.

    The rows are converted into one new float64 array and divided by alpha
    in place (the bits of `np.asarray(ys, float64) / alpha`), and the inner
    quantizer's output, which is its own (see `Quantizer`), is multiplied by
    alpha in place. The inner quantizer refuses input, so its limits apply
    to the rows divided by alpha.
    """

    def __init__(self, lattice: Lattice):
        super().__init__(lattice)
        _, self.alpha, base = lattice.structure
        self.inner = make_quantizer(base)

    def quantize_batch(self, ys):
        y = np.array(ys, dtype=np.float64)
        y /= self.alpha
        p = self.inner.quantize_batch(y)
        p *= self.alpha
        return p


class DirectSumQuantizer(Quantizer):
    """Blockwise quantizer for a direct sum of identical blocks (`direct_sum`)."""

    def __init__(self, lattice: Lattice):
        super().__init__(lattice)
        _, self.copies, block = lattice.structure
        self.inner = make_quantizer(block)
        self._block = block.dim

    def quantize_batch(self, ys):
        y = _finite(ys, self.lattice.dim)
        rows = y.shape[0]
        flat = y.reshape(rows * self.copies, self._block)
        return self.inner.quantize_batch(flat).reshape(rows, self.copies * self._block)


# Structure tag -> quantizer factory; untagged lattices fall back to enumeration.
_DISPATCH = {
    "Zn": ZnQuantizer,
    "Dn": DnQuantizer,
    "E8_int": E8FastQuantizer,
    "Leech_int": LeechFastQuantizer,
    "scaled": ScaledQuantizer,
    "blocks": DirectSumQuantizer,
}


def make_quantizer(lattice: Lattice) -> Quantizer:
    """The fastest exact quantizer the lattice structure supports.

    Zn, Dn, E8_int and Leech_int get their structured decoders, scaled
    lattices and direct sums wrap their block's quantizer, and any other
    lattice falls back to sphere enumeration.
    """
    tag = lattice.structure[0] if lattice.structure else None
    return _DISPATCH.get(tag, EnumerationQuantizer)(lattice)


def fold_batch(q: Quantizer, xs: np.ndarray) -> np.ndarray:
    """Rows of xs minus their nearest lattice points: Voronoi-region representatives.

    Integer rows give int64 and any other rows float64. xs is left as it
    is. Integer rows are subtracted into the quantizer's int64 output, a
    new array of the caller's own (see `Quantizer`), so the fold makes no
    array of its own; float rows need a new float64 result.
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
