"""AWGN experiments: energy and second moments, WER sweeps, encode benchmarks.

Noise, message and Monte Carlo draws come from counter-based Philox streams
keyed by (seed, trial block), so a run is reproducible from (seed, trial
index) no matter how trials are batched, and parallel or early-stopped runs
agree with sequential ones. The Es/N0 convention is documented in
SIGMA_FORMULA and echoed into CSV headers; only dB differences between
paired runs are calibration-free.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .codes import LinearCode, make_rep_spc_chain
from .intmat import _integer
from .lattice import log2_volume, standard_lattice
from .quantize import Quantizer, _finite, fold_batch
from .shaping import _ENUM_LIMIT, VoronoiCodeSpec, _check_int64_ordinals, _share

_TRIAL_BLOCK = 4096
_TABLE_ML_LIMIT = 1 << 14
_ML_SCORES = 1 << 20  # bounds the (rows, words) score block of table ML
_BENCH_SAMPLE_NS = 5_000_000  # one complexity_bench timing sample lasts at least this

SIGMA_FORMULA = "sigma^2 = Es/(2*10^(EsN0_dB/10))*(1/2) with Es = 2*average_energy"


@dataclass(frozen=True)
class WerPoint:
    es_n0_db: float
    wer: float
    errors: int
    trials: int
    ci_low: float
    ci_high: float


def _stream(seed: int, *key: int) -> np.random.Generator:
    """The Philox stream of `seed` under a spawn key: (block,) for Monte Carlo
    estimates, (lane, block) for the noise and message lanes. Every draw of
    the module comes from here, so this is where a seed that is not a
    non-negative integer is refused."""
    seed = _integer("seed", seed, 0)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


def _block_draws(seed: int, lane: int, trial_offset: int, out: np.ndarray, fill) -> np.ndarray:
    """Fill `out` with the draws of trials trial_offset .. trial_offset + len(out) - 1.

    Trials are grouped into fixed blocks and each block has its own Philox
    stream on `lane`, so a trial's draw is a fixed function of (seed, lane,
    trial index). `fill(generator, buf)` fills `buf` with a block's first
    len(buf) draws. A call draws a block's stream only up to its last trial
    there; Philox fills rows in order, so that draw is a prefix of the full
    block. A part that starts a block is filled in place; a part that starts
    inside one fills a temporary from the block's start and keeps its tail.
    A trial_offset that is not a non-negative integer is refused.
    """
    trial_offset = _integer("trial_offset", trial_offset, 0)
    done = 0
    while done < len(out):
        block, inner = divmod(trial_offset + done, _TRIAL_BLOCK)
        take = min(_TRIAL_BLOCK - inner, len(out) - done)
        part, gen = out[done : done + take], _stream(seed, lane, block)
        if inner:
            head = np.empty((inner + take,) + out.shape[1:], dtype=out.dtype)
            fill(gen, head)
            part[...] = head[inner:]
        else:
            fill(gen, part)
        done += take
    return out


def _standard_normals(seed: int, trial_offset: int, rows: int, n: int,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Standard normals of trials trial_offset .. trial_offset + rows - 1,
    written into `out` (C-ordered, shape (rows, n)) when it is given."""
    if out is None:
        out = np.empty((rows, n))
    elif out.shape != (rows, n):
        raise ValueError(f"out has shape {out.shape}, not {(rows, n)}")
    return _block_draws(seed, 0, trial_offset, out, lambda gen, buf: gen.standard_normal(out=buf))


def transmit(x, sigma: float, seed: int = 0, trial_offset: int = 0) -> np.ndarray:
    """y = x + white Gaussian noise, std sigma per dimension.

    The noise of absolute trial t is sigma times a standard normal that
    depends only on (seed, t), so batching and early stopping cannot change
    any draw, and sweeps at different sigma share one noise stream. A sigma
    that is not positive is refused.
    """
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    arr = np.asarray(x, dtype=np.float64)
    squeeze = arr.ndim == 1
    if squeeze:
        arr = arr[None, :]
    out = arr + sigma * _standard_normals(seed, trial_offset, *arr.shape)
    return out[0] if squeeze else out


def random_ordinals(spec: VoronoiCodeSpec, count: int, seed: int,
                    trial_offset: int = 0) -> np.ndarray:
    """Uniform message ordinals, reproducible per (seed, trial index).

    count and trial_offset must be non-negative integers."""
    count = _integer("count", count, 0)
    _check_int64_ordinals(spec.message_count)

    def fill(gen, buf):
        buf[...] = gen.integers(0, spec.message_count, len(buf), dtype=np.int64)

    return _block_draws(seed, 1, trial_offset, np.empty(count, dtype=np.int64), fill)


# ---------------------------------------------------------------------------
# energy, second moments and the Es/N0 mapping


def average_energy(spec: VoronoiCodeSpec, samples: int = 100_000, seed: int = 0) -> float:
    """Mean squared norm per dimension over the constellation.

    Exact when the constellation is small enough: every point is encoded,
    _TRIAL_BLOCK ordinals at a time, and the int64 squares are summed, so
    memory stays bounded by one block. Otherwise a Monte Carlo average over
    `samples` random messages.
    """
    count = spec.message_count
    if count <= _ENUM_LIMIT:
        total = 0
        for lo in range(0, count, _TRIAL_BLOCK):
            x = spec.encode_batch(np.arange(lo, min(lo + _TRIAL_BLOCK, count)))
            total += int((x * x).sum())
        return total / (count * spec.n)
    energy, _ = sampled_energy(spec, samples, seed)
    return energy


def _mc_mean(blocks) -> tuple:
    """(mean, standard error) of the values in `blocks`, an iterable of
    per-block arrays, one per block of `_sample_blocks`, summed block by
    block in that order."""
    count = 0
    total = 0.0
    total_sq = 0.0
    for v in blocks:
        count += len(v)
        total += float(v.sum())
        total_sq += float((v * v).sum())
    mean = total / count
    var = max(total_sq / count - mean * mean, 0.0)
    return mean, math.sqrt(var / count)


def _sample_blocks(samples: int) -> range:
    """Start of each block of _TRIAL_BLOCK samples of a Monte Carlo
    estimate; block b draws from its own stream, keyed (seed, b). A
    non-integral or non-positive `samples` is refused."""
    return range(0, _integer("samples", samples, 1), _TRIAL_BLOCK)


def sampled_energy(spec: VoronoiCodeSpec, samples: int, seed: int = 0) -> tuple:
    """(Monte Carlo energy per dimension, standard error)."""
    starts = _sample_blocks(samples)

    def energy(lo):
        take = min(_TRIAL_BLOCK, starts.stop - lo)
        x = spec.encode_batch(random_ordinals(spec, take, seed, lo)).astype(np.float64)
        return (x * x).sum(axis=1) / spec.n

    return _mc_mean(map(energy, starts))


@dataclass(frozen=True)
class NsmEstimate:
    nsm: float
    stderr: float
    samples: int

    def gain_db(self) -> float:
        return 10.0 * math.log10((1.0 / 12.0) / self.nsm)

    def gain_stderr_db(self) -> float:
        return (10.0 / math.log(10.0)) * self.stderr / self.nsm


def second_moment_mc(q: Quantizer, samples: int, seed: int = 0) -> NsmEstimate:
    """Monte Carlo normalized second moment of the quantizer's lattice.

    Draws points uniformly in the fundamental parallelotope, folds them into
    the Voronoi region, and returns E||e||^2 / (n * vol^(2/n)) with its
    standard error. Block b of _TRIAL_BLOCK samples draws from the stream
    keyed (seed, b), so the estimate depends only on (seed, samples). Each
    block is drawn into the same two buffers, made once per call, and the
    stream of blocks is scored by `q._squared_error_blocks`: E8_int scores
    each block in one pass, in one work area per call.
    """
    lat = q.lattice
    n = lat.dim
    t = lat.float_triangular()
    scale = n * 2.0 ** (2.0 * log2_volume(lat) / n)
    starts = _sample_blocks(samples)
    samples = starts.stop
    u = np.empty((min(samples, _TRIAL_BLOCK), n))
    p = np.empty_like(u)

    def draws():
        for lo in starts:
            take = min(_TRIAL_BLOCK, samples - lo)
            _stream(seed, lo // _TRIAL_BLOCK).random(out=u[:take])
            yield np.matmul(u[:take], t.T, out=p[:take])

    mean, stderr = _mc_mean(q._squared_error_blocks(draws()))
    return NsmEstimate(nsm=mean / scale, stderr=stderr / scale, samples=samples)


def sigma_for(energy_per_dim: float, es_n0_db: float) -> float:
    """Noise std per dimension for the documented Es/N0 convention.

    A non-finite Es/N0, an energy that is not finite and positive, or a pair
    whose sigma is not finite and positive (past about +-3000 dB) is refused.
    """
    if not math.isfinite(es_n0_db):
        raise ValueError(f"es_n0_db must be finite, got {es_n0_db}")
    if not (math.isfinite(energy_per_dim) and energy_per_dim > 0):
        raise ValueError(f"energy_per_dim must be finite and positive, got {energy_per_dim}")
    es = 2.0 * energy_per_dim
    try:
        ratio = 10.0 ** (es_n0_db / 10.0)
        sigma = math.sqrt(es / (2.0 * ratio) * 0.5)
    except (OverflowError, ZeroDivisionError):
        sigma = 0.0
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"es_n0_db {es_n0_db} gives no finite positive sigma at energy "
                         f"{energy_per_dim}")
    return sigma


def wilson_interval(errors: int, trials: int, z: float = 1.96) -> tuple:
    """95% score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    p = errors / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    return max(center - half, 0.0), min(center + half, 1.0)


# ---------------------------------------------------------------------------
# decoders


class _TableML:
    """Exact ML over a table of candidates, scored by one matmul.

    `x.reshape(rows, -1) @ weights` gives every candidate's score for each
    row; the first candidate of least score wins and its `table` row is
    returned. Rows are scored in chunks of at most _ML_SCORES scores, which
    bounds the memory of a call whatever the table size.
    """

    def __init__(self, table: np.ndarray, weights: np.ndarray):
        self.table = table
        self.weights = weights
        self.chunk = max(1, _ML_SCORES // weights.shape[1])

    def __call__(self, x: np.ndarray) -> np.ndarray:
        flat = x.reshape(x.shape[0], self.weights.shape[0])
        best = np.empty(flat.shape[0], dtype=np.int64)
        for lo in range(0, flat.shape[0], self.chunk):
            best[lo : lo + self.chunk] = np.argmin(flat[lo : lo + self.chunk] @ self.weights,
                                                   axis=1)
        return self.table[best]


def _code_ml(code: LinearCode) -> _TableML:
    """Table ML over a code's codewords from (rows, n, q) per-symbol costs.

    `onehot[j*q + v, w]` is 1 where codeword w has symbol v at position j, so
    `costs.reshape(rows, n*q) @ onehot` sums every word's per-symbol costs.
    The first minimal word in message-ordinal order wins, which for codes in
    reduced row echelon form is the lexicographically smallest one.
    """
    words = code.codewords()
    onehot = np.zeros((code.n * code.q, len(words)), dtype=np.float64)
    cells = np.arange(code.n)[None, :] * code.q + words
    onehot[cells, np.arange(len(words))[:, None]] = 1.0
    return _TableML(words, onehot)


class _WagnerML:
    """Exact ML for a binary [n, n-1] code by Wagner's rule (Silverman and
    Balser, Proc. IRE 42(9), 1954), O(n) per row.

    Each position takes its cheaper bit, 0 on a tie (bit 1 only where
    delta = cost1 - cost0 < 0). If the parity row h then sees an odd weight,
    one position of h's support with least |delta| flips: the first of them
    that holds a 1, or else the last of them. Flipping a 1 to 0 as early as
    possible, or a 0 to 1 as late as possible, gives the lexicographically
    smallest ML word: for a code in reduced row echelon form that is the
    first ML word in message order, the word table ML returns.

    The support of h is found once, when the level is built. A call works on
    (positions, rows) arrays, so every reduction over positions is an
    elementwise operation along the rows.
    """

    def __init__(self, code: LinearCode):
        h = code.parity_check()[0]
        m = int(np.count_nonzero(h))
        # a full support is a slice, so the support rows are views, not copies
        self.support = slice(None) if m == len(h) else np.flatnonzero(h)
        # Position j of the support gets key j if it holds a 1 and 2m-1-j if
        # it holds a 0, plus 2m off the least |delta|: the least key marks
        # the position to flip.
        dtype = np.min_scalar_type(-4 * m)
        j = np.arange(m)[:, None]
        self.key_zero = (2 * m - 1 - j).astype(dtype)
        self.key_step = (2 * j + 1 - 2 * m).astype(dtype)
        self.key_off = dtype.type(2 * m)

    def __call__(self, costs: np.ndarray) -> np.ndarray:
        delta = np.subtract(costs[:, :, 1].T, costs[:, :, 0].T, order="C")
        bits = delta < 0
        b = bits[self.support]
        a = np.abs(delta[self.support])
        key = b * self.key_step
        key += self.key_zero
        key += (a != a.min(axis=0)) * self.key_off
        flip = key == key.min(axis=0)
        flip &= np.logical_xor.reduce(b, axis=0)
        bits[self.support] ^= flip
        return bits.T.astype(np.int64, order="C")


def _min_distance(code: LinearCode) -> float:
    """Least nonzero Hamming weight of a code's words, inf if it has none.

    A binary [n, n-1] code is read from its parity row h: 2 when h covers
    every position, 1 otherwise (a unit vector off h's support is a word).
    Any other code is enumerated.
    """
    if code.q == 2 and code.k == code.n - 1:
        return 2 if np.all(code.parity_check()[0]) else 1
    weights = np.count_nonzero(code.codewords(), axis=1)
    return min(weights[weights > 0], default=math.inf)


def _guaranteed_radius(spec: VoronoiCodeSpec) -> float:
    """min(min_i q^i sqrt(d_i) / 2, q^a / 2): noise of smaller norm cannot
    move the multistage or the exhaustive decision off the sent point.

    Level i of the multistage decoder decides the nearest coset of
    q^i (C_i + q Z^n), whose cosets lie q^i sqrt(d_i) apart when C_i has
    minimum Hamming distance d_i (`_min_distance`), and the grid round
    decides the nearest point of q^a Z^n. So noise of norm below the radius
    returns the sent lattice point at every level (Barnes and Sloane, Canad.
    J. Math. 35, 1983; Forney, IEEE Trans. IT 34(5), 1988); a level with no
    nonzero word does not bound it. Two coding-lattice points closer than
    twice the radius would both be returned for their midpoint, so the
    radius is at most d_min(coding lattice) / 2, and noise below it leaves
    the sent point strictly nearest among all lattice points, hence among
    the constellation points too.
    """
    return min([spec.qa / 2] + [code.q**level * math.sqrt(_min_distance(code)) / 2
                                for level, code in enumerate(spec.chain.codes)])


class MultistageDecoder:
    """Level-by-level decoding: per-symbol metrics, code ML, subtract.

    Level i sees the residual of the levels below it; its per-symbol cost for
    symbol v is the squared distance from the residual to the nearest integer
    congruent to v at scale q^i. The ML routine of a level follows from its
    code's structure: Wagner's rule (`_WagnerML`) for every binary [n, n-1]
    code, table ML (`_code_ml`) for any other code of at most
    _TABLE_ML_LIMIT words; other codes are refused. Both return the first
    ML word in message order, so the decision does not depend on which
    routine runs. After the last level the residual is rounded to the
    integer grid (`lattice_points`), and `decode_batch` folds the assembled
    lattice point back into the constellation. The fold does not change the
    message, so callers that only compare messages can skip it.

    `lattice_points` commutes with shifts by q^a Z^n: level i reads the
    residual only modulo q^(i+1), and the grid round moves by the same
    integer vector. The shaping lattice q^a L' lies inside q^a Z^n, so the
    decision for a box representative plus noise and for its fold plus the
    same noise differ by the fold's shaping-lattice vector and carry one
    message (`shift_equivariant`).

    Noise of norm below `radius` (`_guaranteed_radius`) returns the sent
    lattice point, so `wer_sweep` decodes no trial whose noise lies inside it.
    """

    shift_equivariant = True

    def __init__(self, spec: VoronoiCodeSpec):
        self.spec = spec
        self._strategies = []
        for level, code in enumerate(spec.chain.codes):
            if code.q == 2 and code.k == code.n - 1:
                self._strategies.append(_WagnerML(code))
            elif code.q**code.k <= _TABLE_ML_LIMIT:
                self._strategies.append(_code_ml(code))
            else:
                raise ValueError(
                    f"level {level} code is too large for exhaustive metrics"
                )
        self._radius = _guaranteed_radius(spec)

    @property
    def radius(self) -> float:
        """Norm below which noise cannot change the decoded lattice point."""
        return self._radius

    def lattice_points(self, ys: np.ndarray) -> np.ndarray:
        """Per-level ML plus the grid round: coding-lattice points, unfolded.

        One (rows, n, q) cost buffer and one (rows, n) work buffer serve
        every level. Symbol v's cost is (t - scale (v + q z))^2 with
        z = round_half_up((t / scale - v) / q), built in place in that
        operation order. Steps that divide or multiply by a scale of 1 or
        add v = 0 are left out: they change no cost bit (at most the sign of
        a zero difference, which the square drops). The residual t loses
        each level's words in place and then holds the grid round. Rows that
        are not n wide or hold NaN or inf are refused (`quantize._finite`).
        """
        spec, q = self.spec, self.spec.q
        t = np.subtract(_finite(ys, spec.n), spec._offset_np)
        assembled = np.zeros(t.shape, dtype=np.int64)
        costs = np.empty(t.shape + (q,), dtype=np.float64)
        u = np.empty(t.shape)
        for level, ml in enumerate(self._strategies):
            scale = q**level
            for v in range(q):
                if level:
                    np.divide(t, scale, out=u)
                    u -= v
                else:
                    np.subtract(t, v, out=u)
                u /= q
                u += 0.5
                np.floor(u, out=u)  # z, as round_half_up gives it
                u *= q
                if v:
                    u += v
                if level:
                    u *= scale
                np.subtract(t, u, out=u)
                np.square(u, out=costs[:, :, v])
            words = ml(costs)
            if level:
                words *= scale
            assembled += words
            t -= words
        t /= spec.qa
        t += 0.5
        grid = np.floor(t, out=t).astype(np.int64)  # round_half_up(t / q^a)
        grid *= spec.qa
        grid += assembled
        grid += spec._offset_np
        return grid

    def decode_batch(self, ys: np.ndarray) -> np.ndarray:
        return fold_batch(self.spec._quantizer, self.lattice_points(ys))


class ExhaustiveDecoder:
    """Argmin of the Euclidean distance over the whole constellation.

    ||y - p||^2 - ||y||^2 = [y, 1] . [-2p, ||p||^2], so table ML over those
    weights picks the nearest point, the first in message order on ties.
    It chooses among constellation points, so its decision does not follow a
    shaping-lattice shift of the input (`shift_equivariant` is false).
    Noise of norm below `radius` (`_guaranteed_radius`, at most half the
    coding lattice's minimum distance) leaves the sent point strictly
    nearest, so `wer_sweep` decodes no trial whose noise lies inside it.
    Rows that are not n wide or hold NaN or inf are refused, as by the
    quantizers.
    """

    shift_equivariant = False

    def __init__(self, spec: VoronoiCodeSpec):
        if spec.message_count > _ENUM_LIMIT:
            raise ValueError(
                f"constellation has {spec.message_count} points, "
                f"more than the exhaustive bound {_ENUM_LIMIT}"
            )
        self.spec = spec
        points = spec.enumerate_constellation()
        pts = points.astype(np.float64)
        self._ml = _TableML(points, np.vstack([-2.0 * pts.T, (pts**2).sum(axis=1)]))
        self._radius = _guaranteed_radius(spec)

    @property
    def radius(self) -> float:
        """Norm below which noise cannot change the decoded point."""
        return self._radius

    def decode_batch(self, ys: np.ndarray) -> np.ndarray:
        y = _finite(ys, self.spec.n)
        return self._ml(np.hstack([y, np.ones((len(y), 1))]))

    lattice_points = decode_batch  # decisions are already constellation points


def make_decoder(spec: VoronoiCodeSpec, mode: str):
    if mode == "multistage":
        return MultistageDecoder(spec)
    if mode == "exhaustive_ml":
        return ExhaustiveDecoder(spec)
    raise ValueError(f"unknown decode mode {mode!r}")


# ---------------------------------------------------------------------------
# WER sweeps


def wer_sweep(spec: VoronoiCodeSpec, es_n0_list, *, trials: int, seed: int = 0,
              max_errors: int = 200, energy: float | None = None, decoder=None) -> list:
    """WER at each Es/N0 point, stopping a point early after max_errors.

    The decoder defaults to `MultistageDecoder(spec)`; pass
    `decoder=make_decoder(spec, mode)` for another.

    Messages and noise are paired across points and across specs sharing a
    seed, so dB gaps between paired sweeps are low-variance. Trial blocks run
    in the outer loop, each one pass of four steps over the points that have
    not yet reached max_errors. The noise and norm buffers are made once per
    call; nothing outlives the call.

    - draw: the block's message ordinals (`random_ordinals`), and its
      standard-normal noise z and squared norms ||z||^2 written into the
      buffers, once for every point;
    - screen: one comparison sigma_i^2 ||z||^2 >= radius^2 (1 - 1e-9) of
      every active point i on the rows that the noisiest one keeps (every
      row when the decoder has no `radius`), and one `np.nonzero`, which
      lists the kept (point, row) pairs in point order, then row order;
    - decode: sent vectors are built once per kept row and gathered per
      pair; sent vector plus sigma_i z, in pair order, goes to one
      `decoder.lattice_points` call of at most (active points) x
      _TRIAL_BLOCK rows; a block that keeps no pair makes no call;
    - count: a pair is an error when its lattice point carries another
      message than its sent vector (`spec.same_message`, run once on the
      pairs whose point differs); one `np.bincount` adds the errors to the
      points' int64 counts.
    Decoded points are never folded. A row's decision does not depend on
    the other rows of its call, so stacking changes no count.

    The fold of encoding only moves a box representative by a shaping-lattice
    vector into the Voronoi region, which sets the energy (`energy`, or
    `average_energy`) but not the message. So a decoder whose class sets
    `shift_equivariant` (`MultistageDecoder`) receives the unfolded box
    representatives plus noise, and the error flags are those of the folded
    points (up to float rounding of the two sums, which can matter only for
    noise within about one ulp of a decision boundary). Every other decoder,
    `ExhaustiveDecoder` and duck-typed ones included, receives the folded
    constellation points plus noise.

    A decoder with a `radius` (`MultistageDecoder`, `ExhaustiveDecoder`)
    returns the sent point for any noise of smaller norm
    (`_guaranteed_radius`), so every row the screen drops is a correct
    trial. The 1e-9 margin covers the float rounding of the decoder's sums,
    so the counts are those of decoding every row.

    Non-integral or non-positive `trials` and `max_errors`, a `seed` that is
    not a non-negative integer, non-finite Es/N0 values and an energy that is
    not finite and positive are refused with a ValueError naming the
    argument, before anything is computed or drawn.
    """
    trials = _integer("trials", trials, 1)
    max_errors = _integer("max_errors", max_errors, 1)
    seed = _integer("seed", seed, 0)
    db_values = [float(v) for v in es_n0_list]
    bad = [v for v in db_values if not math.isfinite(v)]
    if bad:
        raise ValueError(f"es_n0_list must hold finite values, got {bad[0]}")
    if energy is None:
        energy = average_energy(spec)
    if not (math.isfinite(energy) and energy > 0):
        raise ValueError(f"energy must be finite and positive, got {energy}")
    if decoder is None:
        decoder = MultistageDecoder(spec)
    unfolded = getattr(decoder, "shift_equivariant", False)
    sent_of = spec.representative_batch if unfolded else spec.encode_batch
    radius = getattr(decoder, "radius", None)
    screen = -math.inf if radius is None else radius * radius * (1.0 - 1e-9)
    sigma_list = [sigma_for(energy, db) for db in db_values]
    sigmas = np.array(sigma_list)
    sig2 = np.array([s**2 for s in sigma_list])
    errors = np.zeros(len(db_values), dtype=np.int64)
    done = np.zeros(len(db_values), dtype=np.int64)
    z_buf = np.empty((min(_TRIAL_BLOCK, trials), spec.n))
    norm_buf = np.empty(len(z_buf))
    start = 0
    while start < trials:
        active = np.flatnonzero(errors < max_errors)
        if not len(active):
            break
        take = min(_TRIAL_BLOCK, trials - start)
        ords = random_ordinals(spec, take, seed, trial_offset=start)
        z = _standard_normals(seed, start, take, spec.n, out=z_buf[:take])
        norms = np.einsum("ij,ij->i", z, z, out=norm_buf[:take])
        s2 = sig2[active]
        rows = np.flatnonzero(s2.max() * norms >= screen)
        point, row = np.nonzero(s2[:, None] * norms[rows] >= screen)
        if len(point):
            sent = sent_of(ords[rows])[row]
            y = z[rows[row]]
            y *= sigmas[active[point], None]
            y += sent
            p = decoder.lattice_points(y)
            wrong = np.flatnonzero(np.any(p != sent, axis=1))
            wrong = wrong[~spec.same_message(p[wrong], sent[wrong])]
            errors[active] += np.bincount(point[wrong], minlength=len(active))
        done[active] += take
        start += take
    points = []
    for db, e, d in zip(db_values, errors.tolist(), done.tolist()):
        lo, hi = wilson_interval(e, d)
        points.append(WerPoint(db, e / d, e, d, lo, hi))
    return points


def interpolate_db_at_wer(points, target_wer: float) -> float:
    """Es/N0 where the sweep crosses target_wer, log-linear in WER."""
    pts = sorted(points, key=lambda p: p.es_n0_db)
    for a, b in zip(pts, pts[1:]):
        if a.wer >= target_wer >= b.wer and a.wer > 0 and b.wer > 0:
            if a.wer == b.wer:
                return a.es_n0_db
            la, lb, lt = math.log10(a.wer), math.log10(b.wer), math.log10(target_wer)
            frac = (lt - la) / (lb - la)
            return a.es_n0_db + frac * (b.es_n0_db - a.es_n0_db)
    raise ValueError(f"sweep does not bracket WER {target_wer:g}")


def wer_gap_db(points_a, points_b, target_wer: float = 1e-3) -> float:
    """Horizontal dB gap between two sweeps at the target WER (a minus b)."""
    return interpolate_db_at_wer(points_a, target_wer) - interpolate_db_at_wer(
        points_b, target_wer
    )


def wer_points_to_csv(points, header_lines=()) -> str:
    lines = ["# " + h for h in header_lines]
    lines.append("es_n0_db,wer,errors,trials,ci_low,ci_high")
    for p in points:
        lines.append(
            f"{p.es_n0_db:.6g},{p.wer:.8g},{p.errors},{p.trials},"
            f"{p.ci_low:.8g},{p.ci_high:.8g}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# encoding benchmark


@dataclass(frozen=True)
class BenchResult:
    dim: int
    baseline_ns: float  # dense generator multiply, per message
    split_encode_ns: float  # per-unit share step plus offset (no fold), per message
    code_encode_ns: float  # code encoders alone, per message
    fold_ns: float  # blockwise fold, per message
    outputs_match: bool


def _random_components(spec: VoronoiCodeSpec, trials: int, rng) -> tuple:
    msgs = [
        rng.integers(0, spec.q, size=(trials, code.k), dtype=np.int64)
        for code in spec.chain.codes
    ]
    box = np.array(spec.s_box, dtype=np.int64)
    s = rng.integers(0, box[None, :], size=(trials, spec.n), dtype=np.int64)
    return msgs, s


def _exact_coordinates(spec: VoronoiCodeSpec, reps: np.ndarray) -> np.ndarray:
    """Integer coefficient vectors b with G b = rep, by triangular solve."""
    t = spec.coding.float_triangular()
    b = np.linalg.solve(t, (reps - spec._offset_np).astype(np.float64).T)
    bi = np.rint(b).astype(np.int64)
    check = spec.coding.triangular_generator.to_int64() @ bi
    if not np.array_equal(check, (reps - spec._offset_np).T.astype(np.int64)):
        raise AssertionError("baseline coordinates failed exact verification")
    return bi


def complexity_bench(spec: VoronoiCodeSpec, trials: int = 256, repeats: int = 9,
                     seed: int = 0) -> BenchResult:
    """Median per-message cost of dense encoding vs the split encoder.

    Times (a) the dense n x n generator multiply on precomputed coordinates,
    (b) the split path, the spec's own share step on per-unit digit blocks
    (code encoders times q^i, then q^a s) plus the offset, (c) the per-level
    code encoders alone, and (d) the fold, on identical messages, and
    verifies that (a) reproduces the representatives of (b).

    Each sample times as many back-to-back calls of a path as fill
    _BENCH_SAMPLE_NS, so a sample of a fast path spans the short swings in
    machine speed instead of landing in one of them. Non-integral or
    non-positive `trials` and `repeats` are refused.
    """
    trials = _integer("trials", trials, 1)
    repeats = _integer("repeats", repeats, 1)
    rng = np.random.default_rng(_integer("seed", seed, 0))
    msgs, s = _random_components(spec, trials, rng)
    blocks = [*msgs, s]
    gen = spec.coding.triangular_generator.to_int64()

    def run_baseline():
        return (gen @ coords).T + spec._offset_np

    def run_code_only():
        return [c.encode_batch(m) for c, m in zip(spec.chain.codes, msgs)]

    def run_split():
        return sum(map(_share, spec._units, blocks), spec._offset_np)

    def run_fold():
        return fold_batch(spec._quantizer, reps)

    reps = run_split()
    coords = _exact_coordinates(spec, reps)
    match = np.array_equal(run_baseline(), reps)

    # Repeats run round-robin over the four paths, so drift in machine speed
    # during the run reaches every path alike instead of favouring one.
    paths = (run_baseline, run_split, run_code_only, run_fold)
    calls = [_calls_per_sample(fn) for fn in paths]  # also warms each path up
    times = [[] for _ in paths]
    for _ in range(repeats):
        for fn, count, out in zip(paths, calls, times):
            start = time.perf_counter_ns()
            for _ in range(count):
                fn()
            out.append((time.perf_counter_ns() - start) / count)
    baseline_ns, split_ns, code_ns, fold_ns = (float(np.median(t)) / trials for t in times)
    return BenchResult(
        dim=spec.n,
        baseline_ns=baseline_ns,
        split_encode_ns=split_ns,
        code_encode_ns=code_ns,
        fold_ns=fold_ns,
        outputs_match=bool(match),
    )


def _calls_per_sample(fn) -> int:
    """Smallest power of two of back-to-back calls of fn lasting _BENCH_SAMPLE_NS."""
    count = 1
    while True:
        start = time.perf_counter_ns()
        for _ in range(count):
            fn()
        if time.perf_counter_ns() - start >= _BENCH_SAMPLE_NS:
            return count
        count *= 2


def bench_spec_for_dim(n: int) -> VoronoiCodeSpec:
    """Stock benchmark family: rep/spc chain over direct sums of 8-dim blocks."""
    if n % 8 or n < 8:
        raise ValueError("benchmark dimensions must be positive multiples of 8")
    return VoronoiCodeSpec(
        make_rep_spc_chain(n),
        standard_lattice("E8_int"),
        copies=n // 8,
        name=f"bench{n}",
    )


def bench_family(dims=(8, 16, 32, 64, 128, 256, 512), trials: int = 256,
                 repeats: int = 9, seed: int = 0) -> list:
    return [
        complexity_bench(bench_spec_for_dim(n), trials=trials, repeats=repeats,
                         seed=seed)
        for n in dims
    ]


def bench_to_csv(results, header_lines=()) -> str:
    lines = ["# " + h for h in header_lines]
    lines.append("dim,baseline_ns,split_encode_ns,code_encode_ns,fold_ns,outputs_match")
    for r in results:
        lines.append(
            f"{r.dim},{r.baseline_ns:.1f},{r.split_encode_ns:.1f},"
            f"{r.code_encode_ns:.1f},{r.fold_ns:.1f},{int(r.outputs_match)}"
        )
    return "\n".join(lines) + "\n"
