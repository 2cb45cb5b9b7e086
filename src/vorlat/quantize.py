"""Nearest-point quantizers, Voronoi folding, and second-moment estimation.

Every quantizer maps real vectors to exact integer lattice points. Rounding
rules are deterministic: coordinatewise rounding sends halves toward +inf,
flip decisions pick the lowest index, and enumeration breaks exact distance
ties (difference below 1e-9) by the lexicographically smallest lattice point.
Fast structured decoders are exact and are cross-checked against sphere
enumeration in the test suite.

Quantizers are stateless after construction and safe to share across threads.
Monte Carlo draws use the counter-based Philox generator keyed by
(seed, batch index), so estimates are reproducible regardless of batching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import golay
from .lattice import Lattice, log2_volume

TIE_EPS = 1e-9


def round_half_up(y: np.ndarray) -> np.ndarray:
    """Coordinatewise nearest integer, halves toward +inf."""
    return np.floor(y + 0.5)


def _dn_round(y: np.ndarray) -> np.ndarray:
    """Nearest point of Dn (even coordinate sum) for each row of a 2-d array.

    Standard decoder: round every coordinate; where the rounded sum is odd,
    re-round the coordinate with the largest rounding error the other way
    (lowest index on ties). Returns integer-valued float64.
    """
    f = round_half_up(y)
    err = y - f  # in [-0.5, 0.5)
    odd = (f.sum(axis=1) % 2.0) != 0.0
    if np.any(odd):
        rows = np.nonzero(odd)[0]
        sub = err[rows]
        k = np.argmax(np.abs(sub), axis=1)
        delta = np.where(sub[np.arange(len(rows)), k] > 0, 1.0, -1.0)
        f[rows, k] += delta
    return f


def _lex_smaller(a, b) -> bool:
    for x, y in zip(a, b):
        if x != y:
            return x < y
    return False


class Quantizer:
    """Base class: nearest-lattice-point maps with a named method."""

    method = "base"

    def __init__(self, lattice: Lattice):
        self.lattice = lattice

    def quantize(self, y) -> np.ndarray:
        out = self.quantize_batch(np.asarray(y, dtype=np.float64).reshape(1, -1))
        return out[0]

    def quantize_batch(self, ys: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}({self.lattice!r})"


class ZnQuantizer(Quantizer):
    method = "zn"

    def quantize_batch(self, ys):
        return round_half_up(np.asarray(ys, dtype=np.float64)).astype(np.int64)


class DnQuantizer(Quantizer):
    method = "dn"

    def quantize_batch(self, ys):
        return _dn_round(np.asarray(ys, dtype=np.float64)).astype(np.int64)


def _e8_unimodular_round(y: np.ndarray) -> np.ndarray:
    """Nearest point of the unit Gosset lattice (D8 union D8 + half-ones)."""
    a = _dn_round(y)
    b = _dn_round(y - 0.5) + 0.5
    da = ((y - a) ** 2).sum(axis=1)
    db = ((y - b) ** 2).sum(axis=1)
    # a is integral and b is not, so they differ in their first coordinate:
    # on a tie the lexicographically smaller point has the smaller first one.
    tie = np.abs(da - db) <= TIE_EPS
    pick_b = (db < da - TIE_EPS) | (tie & (b[:, 0] < a[:, 0]))
    return np.where(pick_b[:, None], b, a)


class E8FastQuantizer(Quantizer):
    """Exact nearest point of E8_int via the doubled Gosset decoder."""

    method = "e8_fast"

    def quantize_batch(self, ys):
        y = np.asarray(ys, dtype=np.float64)
        return np.rint(2.0 * _e8_unimodular_round(y * 0.5)).astype(np.int64)


_LEECH_BLOCK = 8  # rows per block: the (rows, 2, 4096) scores stay near 0.5 MB


class LeechFastQuantizer(Quantizer):
    """Exact nearest point of Leech_int, scoring its 8192 cosets of 4*D24 by matmul.

    The integer-scaled Leech lattice is the disjoint union of cosets
    2c + m*u + 4*D24 over Golay codewords c and m in {0,1}, with u the odd
    representative (-3, 1, ..., 1). At quarter scale the best point of a coset
    is its offset plus 4 times a D24 round, so per half m and coordinate i
    only two roundings occur, of (y_i - m*u_i - 2b)/4 for bit b = 0, 1, with
    errors e_b and integers f_b. Before the D24 parity repair, word c costs
    sum(e_0^2) + (e_1^2 - e_0^2).c, one matmul against the codeword table for
    every word; its parity is that of sum(f_0) + (f_0 - f_1).c, which splits
    into the table's low and high six generator bits. An odd word pays the
    exact flip penalty 1 - 2*max|e|, computed only where it could still tie or
    beat the best even word.

    Ties go to the first coset in table order (m = 0 first, then codeword
    index), then to the D24 rule of `_dn_round` within that coset.
    """

    method = "leech_fast"
    _TABLES = None

    def __init__(self, lattice: Lattice):
        super().__init__(lattice)
        if LeechFastQuantizer._TABLES is None:
            LeechFastQuantizer._TABLES = self._build_tables()
        self._table, self._offsets, self._cost, self._bits = LeechFastQuantizer._TABLES

    @staticmethod
    def _build_tables():
        words = golay.codewords().astype(np.int64)
        u = np.array([-3] + [1] * 23, dtype=np.int64)
        table = np.concatenate([2 * words, 2 * words + u], axis=0)
        # offsets[m, b, i] = m*u_i + 2b: coordinate i of every half-m coset with c_i = b
        offsets = np.stack([[np.zeros(24), np.full(24, 2.0)], [u, u + 2.0]])
        # a trailing row of ones adds each half's sum(e_0^2) inside the matmul
        cost = np.vstack([words.T, np.ones((1, 4096))]).astype(np.float64)
        out = (table, offsets, cost, words.astype(bool))
        for arr in out:
            arr.setflags(write=False)
        return out

    def quantize_batch(self, ys):
        y = np.atleast_2d(np.asarray(ys, dtype=np.float64))
        best = np.empty(y.shape[0], dtype=np.int64)
        for lo in range(0, y.shape[0], _LEECH_BLOCK):
            best[lo : lo + _LEECH_BLOCK] = self._best_cosets(y[lo : lo + _LEECH_BLOCK])
        t = self._table[best]
        return t + 4 * _dn_round((y - t) * 0.25).astype(np.int64)

    def _best_cosets(self, y):
        """Table index of the first nearest coset for each row of y."""
        rows = y.shape[0]
        w = (y[:, None, None, :] - self._offsets) * 0.25  # (rows, m, b, 24)
        f = np.floor(w + 0.5)
        e = w - f  # rounding errors, in [-0.5, 0.5)
        e2 = e * e
        a = np.empty((rows, 2, 25))
        a[..., :24] = e2[:, :, 1] - e2[:, :, 0]
        a[..., 24] = e2[:, :, 0].sum(axis=2)
        score = (a.reshape(-1, 25) @ self._cost).reshape(rows, 2, 4096)
        # Codeword j is word (j & 63) xor word (j & ~63), so word j's parity
        # is that of its high part's count plus its low part's count.
        g = f[:, :, 0] - f[:, :, 1]  # 0 or 1
        f0_sum = f[:, :, 0].sum(axis=2)[..., None]
        bits = self._cost[:24]  # one column per codeword
        odd_hi = ((g @ bits[:, ::64] + f0_sum).astype(np.int64) & 1).astype(bool)
        odd_lo = ((g @ bits[:, :64]).astype(np.int64) & 1).astype(bool)
        odd = (odd_hi[..., :, None] ^ odd_lo[..., None, :]).reshape(rows, 2, 4096)
        masked = np.where(odd, np.inf, score)
        best_even = masked.reshape(rows, -1).min(axis=1)
        # An odd word's penalty is at least 1 - 2*max|e| over both bits; the
        # slack only admits extra candidates, whose exact scores follow.
        err = np.abs(e)
        bound = 1.0 - 2.0 * err.max(axis=(2, 3))
        limit = best_even[:, None] - bound + TIE_EPS
        cand = np.flatnonzero(odd & (score <= limit[..., None]))
        if cand.size:
            half, word = np.divmod(cand, 4096)
            err = err.reshape(2 * rows, 2, 24)[half]
            worst = np.where(self._bits[word], err[:, 1], err[:, 0]).max(axis=1)
            masked.reshape(-1)[cand] = score.reshape(-1)[cand] + (1.0 - 2.0 * worst)
        return np.argmin(masked.reshape(rows, -1), axis=1)


class EnumerationQuantizer(Quantizer):
    """Exact nearest point by sphere enumeration (works for any lattice).

    The search radius starts from the Babai round-off point and, when the
    lattice carries a covering-radius bound, is clamped by it; both are valid
    upper bounds on the true distance so the enumeration stays exact.
    """

    method = "exact_enumeration"

    def __init__(self, lattice: Lattice):
        super().__init__(lattice)
        b = lattice.float_generator()
        q, r = np.linalg.qr(b)
        sgn = np.sign(np.diag(r))
        sgn[sgn == 0] = 1.0
        self._q = q * sgn
        self._r = r * sgn[:, None]
        self._gen = lattice.generator

    def _babai(self, w):
        n = len(w)
        r = self._r
        b = np.zeros(n, dtype=np.int64)
        for k in range(n - 1, -1, -1):
            c = (w[k] - r[k, k + 1 :] @ b[k + 1 :]) / r[k, k]
            b[k] = np.rint(c)
        resid = w - r @ b
        return b, float(resid @ resid)

    def _search(self, w, radius_sq, shrink=True):
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
                    if shrink and d < radius_sq:
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

    def quantize(self, y):
        y = np.asarray(y, dtype=np.float64).reshape(-1)
        w = self._q.T @ y
        b0, d0 = self._babai(w)
        radius = d0
        if self.lattice.cov_sq is not None:
            radius = min(radius, self.lattice.cov_sq)
        leaves, best = self._search(w, radius)
        if not leaves:
            # Babai point itself is the only candidate within the radius.
            coeffs = b0
        else:
            near = [bb for d, bb in leaves if d <= best + TIE_EPS]
            pts = [self._gen.matvec(bb) for bb in near]
            coeffs = None
            chosen = None
            for bb, x in zip(near, pts):
                if chosen is None or _lex_smaller(x, chosen):
                    chosen = x
                    coeffs = bb
            return np.array(chosen, dtype=np.int64)
        return np.array(self._gen.matvec(coeffs), dtype=np.int64)

    def quantize_batch(self, ys):
        y = np.atleast_2d(np.asarray(ys, dtype=np.float64))
        return np.stack([self.quantize(row) for row in y])


class ScaledQuantizer(Quantizer):
    """Nearest point of alpha * L from a quantizer for L."""

    method = "scaled"

    def __init__(self, inner: Quantizer, alpha: int, lattice: Lattice | None = None):
        alpha = int(alpha)
        if alpha < 1:
            raise ValueError("alpha must be a positive integer")
        super().__init__(lattice if lattice is not None else inner.lattice.scaled(alpha))
        self.inner = inner
        self.alpha = alpha

    def quantize_batch(self, ys):
        y = np.asarray(ys, dtype=np.float64)
        return self.alpha * self.inner.quantize_batch(y / self.alpha)


class DirectSumQuantizer(Quantizer):
    """Blockwise quantizer for a direct sum of identical blocks."""

    method = "direct_sum_blockwise"

    def __init__(self, inner: Quantizer, copies: int, lattice: Lattice | None = None):
        from .lattice import direct_sum  # local import to avoid a cycle

        copies = int(copies)
        if copies < 1:
            raise ValueError("copies must be positive")
        super().__init__(lattice if lattice is not None else direct_sum(inner.lattice, copies))
        self.inner = inner
        self.copies = copies
        self._block = inner.lattice.dim

    def quantize_batch(self, ys):
        y = np.atleast_2d(np.asarray(ys, dtype=np.float64))
        rows = y.shape[0]
        flat = y.reshape(rows * self.copies, self._block)
        return self.inner.quantize_batch(flat).reshape(rows, self.copies * self._block)


def make_quantizer(lattice: Lattice, method: str = "auto") -> Quantizer:
    """Pick a quantizer for the lattice.

    "auto" selects the fastest exact method the lattice structure supports and
    falls back to sphere enumeration; explicit method names are validated
    against the lattice.
    """
    if method == "auto":
        s = lattice.structure
        if s is None:
            return EnumerationQuantizer(lattice)
        tag = s[0]
        if tag == "Zn":
            return ZnQuantizer(lattice)
        if tag == "Dn":
            return DnQuantizer(lattice)
        if tag == "E8_int":
            return E8FastQuantizer(lattice)
        if tag == "Leech_int":
            return LeechFastQuantizer(lattice)
        if tag == "scaled":
            _, alpha, inner = s
            return ScaledQuantizer(make_quantizer(inner), alpha, lattice)
        if tag == "blocks":
            _, copies, inner = s
            return DirectSumQuantizer(make_quantizer(inner), copies, lattice)
        return EnumerationQuantizer(lattice)
    if method == "exact_enumeration":
        return EnumerationQuantizer(lattice)
    if method == "zn":
        if lattice.structure != ("Zn",):
            raise ValueError("zn applies to Zn(n)")
        return ZnQuantizer(lattice)
    if method == "dn":
        if lattice.structure != ("Dn",):
            raise ValueError("dn applies to Dn(n)")
        return DnQuantizer(lattice)
    if method == "e8_fast":
        if lattice.structure != ("E8_int",):
            raise ValueError("e8_fast applies to E8_int")
        return E8FastQuantizer(lattice)
    if method == "leech_fast":
        if lattice.structure != ("Leech_int",):
            raise ValueError("leech_fast applies to Leech_int")
        return LeechFastQuantizer(lattice)
    raise ValueError(f"unknown quantizer method {method!r}")


def quantize(q: Quantizer, y) -> np.ndarray:
    """Nearest lattice point of y under quantizer q."""
    return q.quantize(y)


def quantize_scaled(inner: Quantizer, alpha: int, y) -> np.ndarray:
    """Nearest point of alpha * L: alpha * Q_L(y / alpha)."""
    return ScaledQuantizer(inner, alpha).quantize(y)


def quantize_direct_sum(inner: Quantizer, copies: int, y) -> np.ndarray:
    """Blockwise nearest point for `copies` blocks of the inner lattice."""
    return DirectSumQuantizer(inner, copies).quantize(y)


def fold_mod_lattice(q: Quantizer, x) -> np.ndarray:
    """x minus its nearest lattice point: the Voronoi-region representative."""
    x = np.asarray(x)
    if np.issubdtype(x.dtype, np.integer):
        xi = x.astype(np.int64)
        return xi - q.quantize(xi.astype(np.float64))
    xf = np.asarray(x, dtype=np.float64)
    return xf - q.quantize(xf)


def fold_batch(q: Quantizer, xs: np.ndarray) -> np.ndarray:
    xs = np.asarray(xs)
    if np.issubdtype(xs.dtype, np.integer):
        xi = xs.astype(np.int64)
        return xi - q.quantize_batch(xi.astype(np.float64))
    xf = np.asarray(xs, dtype=np.float64)
    return xf - q.quantize_batch(xf)


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


@dataclass(frozen=True)
class NsmEstimate:
    nsm: float
    stderr: float
    samples: int

    def gain_db(self) -> float:
        return 10.0 * math.log10((1.0 / 12.0) / self.nsm)

    def gain_stderr_db(self) -> float:
        return (10.0 / math.log(10.0)) * self.stderr / self.nsm


_MC_BLOCK = 4096


def second_moment_mc(q: Quantizer, samples: int, seed: int = 0) -> NsmEstimate:
    """Monte Carlo normalized second moment of the quantizer's lattice.

    Draws points uniformly in the fundamental parallelotope, folds them into
    the Voronoi region, and returns E||e||^2 / (n * vol^(2/n)) with its
    standard error. Samples come from counter-based Philox streams keyed by
    (seed, block index) with a fixed block quantum, so the estimate depends
    only on (seed, samples), not on how work is batched.
    """
    lat = q.lattice
    n = lat.dim
    t = lat.float_triangular()
    scale = n * 2.0 ** (2.0 * log2_volume(lat) / n)
    total = 0.0
    total_sq = 0.0
    done = 0
    block = 0
    while done < samples:
        take = min(_MC_BLOCK, samples - done)
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(seed, spawn_key=(block,)))
        )
        u = rng.random((take, n))
        p = u @ t.T
        e = p - q.quantize_batch(p)
        se = (e * e).sum(axis=1)
        total += float(se.sum())
        total_sq += float((se * se).sum())
        done += take
        block += 1
    mean = total / done
    var = max(total_sq / done - mean * mean, 0.0)
    stderr = math.sqrt(var / done)
    return NsmEstimate(nsm=mean / scale, stderr=stderr / scale, samples=done)


def short_vectors(lattice: Lattice, max_norm_sq: float) -> list:
    """All nonzero lattice vectors with squared norm <= max_norm_sq (exact)."""
    enum = EnumerationQuantizer(lattice)
    w = np.zeros(lattice.dim)
    leaves, _ = enum._search(w, float(max_norm_sq), shrink=False)
    out = []
    for d, b in leaves:
        if not np.any(b):
            continue
        x = lattice.generator.matvec(b)
        if sum(v * v for v in x) <= max_norm_sq + TIE_EPS:
            out.append(tuple(x))
    return out

