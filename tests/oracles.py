"""Independent exact-arithmetic oracles used across the test suite.

Deliberately written from scratch (plain Fraction Gaussian elimination and
brute-force enumeration) so they share no code with the package internals
they check. The exceptions are the Leech coset oracle, which takes the
Golay codebook from the package as data; the point membership test, which
solves against the lattice's own triangular generator with the package's
integer solver; the reference encode, index, ML, multistage, energy and
sweep loops, which are the package's earlier, unoptimised forms of the same
computation and reuse its codes, channel, decoders, encoder and box fold;
and the brute-force constellation and coset-representative searches, which
fold with the spec's quantizer and test membership in its lattices. The D_n
and E8 references are the package's earlier row-major rounds, written out
here whole, so they share no rounding code with the coordinate-major D_n
round that the D_n, E8 and Leech quantizers use.
"""

import math
from fractions import Fraction
from itertools import product

import numpy as np

from vorlat import golay
from vorlat.codes import _CODEWORD_TABLE_LIMIT
from vorlat.intmat import IntMatrix, integer_solve_lower_triangular
from vorlat.lattice import Lattice, quotient_order
from vorlat.quantize import TIE_EPS, fold_batch, fold_mod_parallelotope_batch
from vorlat.shaping import _ENUM_LIMIT, VoronoiCodeSpec
from vorlat.simulate import (
    _TRIAL_BLOCK,
    WerPoint,
    random_ordinals,
    sigma_for,
    transmit,
    wilson_interval,
)


def frac_matrix(m):
    return [[Fraction(x) for x in row] for row in m]


def frac_det(m) -> Fraction:
    a = frac_matrix(m)
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col]:
                f = a[r][col] * inv
                for c in range(col, n):
                    a[r][c] -= f * a[col][c]
    return det


def frac_solve(a, b):
    """Solve A X = B over the rationals; None if A is singular."""
    n = len(a)
    w = len(b[0])
    aug = [[Fraction(x) for x in row_a] + [Fraction(x) for x in row_b]
           for row_a, row_b in zip(a, b)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [v - f * p for v, p in zip(aug[r], aug[col])]
    return [row[n : n + w] for row in aug]


def solve_lower_triangular_exact(lower, rhs):
    """Solve L @ X = B exactly over the rationals for lower-triangular L.

    Takes IntMatrix arguments and returns X as a list of Fraction rows, or
    None if L has a zero diagonal.
    """
    n = lower.rows
    if rhs.rows != n:
        raise ValueError("shape mismatch")
    if any(lower[i, i] == 0 for i in range(n)):
        return None
    w = rhs.cols
    x = [[Fraction(0)] * w for _ in range(n)]
    for c in range(w):
        for i in range(n):
            acc = Fraction(rhs[i, c])
            for j in range(i):
                if lower[i, j]:
                    acc -= lower[i, j] * x[j][c]
            x[i][c] = acc / lower[i, i]
    return x


def all_integer(fracs) -> bool:
    return all(v.denominator == 1 for row in fracs for v in row)


def spans_same_lattice(g, l) -> bool:
    """Exact check that square integer matrices g and l span the same lattice."""
    u = frac_solve(g, l)
    v = frac_solve(l, g)
    if u is None or v is None:
        return False
    return all_integer(u) and all_integer(v)


def other_basis(lattice: Lattice) -> IntMatrix:
    """A generator of the same lattice in another basis: the lattice's
    generator times a fixed unimodular matrix (all-ones lower triangle times
    the identity plus its superdiagonal), so every column mixes many
    basis vectors."""
    n = lattice.dim
    u = np.tril(np.ones((n, n), dtype=object)) @ (np.eye(n, dtype=int) + np.eye(n, k=1, dtype=int))
    return IntMatrix((np.array(lattice.generator.tolist(), dtype=object) @ u).tolist())


def in_span(g, vec) -> bool:
    sol = frac_solve(g, [[x] for x in vec])
    return sol is not None and all_integer(sol)


def contains_point(lattice: Lattice, x) -> bool:
    """Exact membership test for an integer vector."""
    rhs = IntMatrix([[int(v)] for v in x])
    return integer_solve_lower_triangular(lattice.triangular_generator, rhs) is not None


def e8_int_short_vectors(max_norm_sq: int = 16) -> np.ndarray:
    """Nonzero E8_int vectors of squared norm <= max_norm_sq, by its definition.

    E8_int is the set of integer vectors whose coordinates share one parity
    and whose coordinate sum is divisible by 4. Scans both parity classes of
    the cube [-r, r]^8 with r = isqrt(max_norm_sq), which holds every such
    vector, and keeps the ones that qualify.
    """
    r = math.isqrt(max_norm_sq)
    out = []
    for parity in (0, 1):
        values = [v for v in range(-r, r + 1) if v % 2 == parity]
        cube = np.array(list(product(values, repeat=8)), dtype=np.int64)
        norm = (cube**2).sum(axis=1)
        keep = (norm <= max_norm_sq) & (norm > 0) & (cube.sum(axis=1) % 4 == 0)
        out.append(cube[keep])
    return np.concatenate(out)


def count_residues_brute(gen_rows, box: int) -> int:
    """Distinct cosets of Z^n modulo the lattice, by pairwise congruence.

    Enumerates integer points in [0, box)^n and merges points whose
    difference lies in the lattice. The box must be at least as large as the
    largest diagonal entry of any triangular generator for the count to equal
    the lattice determinant.
    """
    n = len(gen_rows)
    reps: list[tuple] = []
    for p in product(range(box), repeat=n):
        if not any(in_span(gen_rows, [a - b for a, b in zip(p, r)]) for r in reps):
            reps.append(p)
    return len(reps)


def fold_mod_parallelotope(tri, r) -> tuple:
    """Reduce an integer vector into the digit box of a triangular generator.

    tri is an IntMatrix, lower triangular with positive diagonal (columns are
    basis vectors). Sweeps coordinates top-down in Python ints, subtracting
    the basis column that pins each row.
    """
    n = tri.rows
    v = [int(x) for x in r]
    if len(v) != n:
        raise ValueError("dimension mismatch")
    for i in range(n):
        d = tri[i, i]
        qf = v[i] // d
        if qf:
            for j in range(i, n):
                v[j] -= qf * tri[j, i]
    return tuple(v)


def representative_reference(spec, ordinals) -> np.ndarray:
    """Box representatives by peeling one digit of each ordinal at a time.

    Level by level, the level's ordinal is split off, then its base-q symbols
    one by one (most significant first in the row), and the box vector s
    last, with s_{n-1} the least significant.
    """
    rem = np.asarray(ordinals, dtype=np.int64).copy()
    x = np.zeros((len(rem), spec.n), dtype=np.int64)
    for level, code in enumerate(spec.chain.codes):
        rem, level_ords = np.divmod(rem, spec.q**code.k)
        msgs = np.empty((len(rem), code.k), dtype=np.int64)
        for j in range(code.k - 1, -1, -1):
            level_ords, msgs[:, j] = np.divmod(level_ords, spec.q)
        x += spec.q**level * code.encode_batch(msgs)
    s = np.empty((len(rem), spec.n), dtype=np.int64)
    for i in range(spec.n - 1, -1, -1):
        rem, s[:, i] = np.divmod(rem, int(spec.s_box[i]))
    return x + spec.qa * s + spec._offset_np


def index_reference(spec, points) -> np.ndarray:
    """Message ordinals of integer points by a per-level peel and radix sums."""
    t = np.asarray(points, dtype=np.int64) - spec._offset_np
    ords = np.zeros(len(t), dtype=np.int64)
    radix = 1
    for code in spec.chain.codes:
        digits = t % spec.q
        msgs = digits[:, list(code.pivots)]
        if not np.array_equal(code.encode_batch(msgs), digits):
            raise ValueError("level digits leave the code")
        ords += radix * (msgs @ (spec.q ** np.arange(code.k - 1, -1, -1, dtype=np.int64)))
        radix *= spec.q**code.k
        t = (t - digits) // spec.q
    s = fold_mod_parallelotope_batch(spec.shaping_prime.triangular_generator.to_int64(), t)
    weights = np.empty(spec.n, dtype=np.int64)
    w = 1
    for i in range(spec.n - 1, -1, -1):
        weights[i] = w
        w *= int(spec.s_box[i])
    return ords + radix * (s @ weights)


def dn_round_reference(y) -> np.ndarray:
    """Nearest point of Dn (even coordinate sum) for each row of a 2-d array.

    Standard decoder: round every coordinate; where the rounded sum is odd,
    re-round the coordinate with the largest rounding error the other way
    (lowest index on ties). Returns integer-valued float64. This is the
    package's earlier D_n round.
    """
    f = np.floor(y + 0.5)
    err = y - f  # in [-0.5, 0.5)
    odd = (f.sum(axis=1) % 2.0) != 0.0
    if np.any(odd):
        rows = np.nonzero(odd)[0]
        sub = err[rows]
        k = np.argmax(np.abs(sub), axis=1)
        delta = np.where(sub[np.arange(len(rows)), k] > 0, 1.0, -1.0)
        f[rows, k] += delta
    return f


def e8_round_reference(ys) -> np.ndarray:
    """Nearest E8_int points by two `dn_round_reference` calls, one per coset.

    At half scale E8_int is D8 union D8 + 1/2: round y/2 and y/2 - 1/2 to D8,
    keep the nearer of the two points, and on a tie within TIE_EPS the
    lexicographically smaller one. Squared distances are `.sum(axis=1)` of
    (rows, 8) arrays. This is the package's earlier E8 quantizer.
    """
    h = np.asarray(ys, dtype=np.float64) * 0.5
    a = dn_round_reference(h)
    b = dn_round_reference(h - 0.5) + 0.5
    da = ((h - a) ** 2).sum(axis=1)
    db = ((h - b) ** 2).sum(axis=1)
    # a is integral and b is not, so they differ in their first coordinate
    tie = np.abs(da - db) <= TIE_EPS
    pick_b = (db < da - TIE_EPS) | (tie & (b[:, 0] < a[:, 0]))
    return np.rint(2.0 * np.where(pick_b[:, None], b, a)).astype(np.int64)


def leech_coset_reference(ys) -> np.ndarray:
    """Nearest Leech_int points by a D24 round in each of the 8192 cosets.

    Broadcasts every input against all cosets 2c + m*u + 4*D24 (c a Golay
    codeword, m in {0,1}, u = (-3, 1, ..., 1)) and keeps the first coset, in
    table order (m = 0 first, then codeword index), whose squared distance is
    within 1e-9 of the least.
    Within a coset the D24 round re-rounds the coordinate of largest error,
    lowest index on ties, when the rounded sum is odd.
    """
    words = golay.codewords().astype(np.int64)
    u = np.array([-3] + [1] * 23, dtype=np.int64)
    table = np.concatenate([2 * words, 2 * words + u], axis=0)
    t = table.astype(np.float64)
    y = np.atleast_2d(np.asarray(ys, dtype=np.float64))
    out = np.empty((y.shape[0], 24), dtype=np.int64)
    chunk = 4
    for lo in range(0, y.shape[0], chunk):
        yc = y[lo : lo + chunk]
        # Work at quarter scale: the best point of coset t is t + 4*f with
        # f the D24 round of (y - t)/4, and the residual is 4*(w - f).
        w = (yc[:, None, :] - t[None, :, :]) * 0.25
        f = np.floor(w + 0.5)
        w -= f  # rounding errors, in [-0.5, 0.5)
        # Index the (row, coset) pairs directly: a reshape of f or w copies
        # them when the input is not C-contiguous, and the repair would be lost.
        row, coset = np.nonzero(f.sum(axis=2) % 2.0 != 0.0)
        if row.size:
            sub = w[row, coset]
            k = np.argmax(np.abs(sub), axis=1)
            delta = np.where(sub[np.arange(row.size), k] > 0, 1.0, -1.0)
            f[row, coset, k] += delta
            w[row, coset, k] -= delta
        dist = np.einsum("bij,bij->bi", w, w)
        idx = np.argmax(dist <= dist.min(axis=1, keepdims=True) + 1e-9, axis=1)
        rows = np.arange(yc.shape[0])
        out[lo : lo + chunk] = table[idx] + 4 * f[rows, idx].astype(np.int64)
    return out


def ordinal_symbols(ordinals, length: int, q: int) -> np.ndarray:
    """Base-q symbols of each ordinal, most significant first, peeled one
    divmod at a time from the least significant end."""
    rem = np.asarray(ordinals, dtype=np.int64).copy()
    out = np.empty((len(rem), length), dtype=np.int64)
    for j in range(length - 1, -1, -1):
        rem, out[:, j] = np.divmod(rem, q)
    return out


def symbols_to_ordinal(symbols, q: int) -> int:
    """Ordinal of a base-q symbol block, most significant symbol first."""
    value = 0
    for s in symbols:
        value = value * q + int(s)
    return value


_ML_CHUNK = 4096


def ml_decode(code, costs) -> np.ndarray:
    """Codeword minimizing the summed per-symbol costs.

    costs has shape (n, q); entry (j, v) is the price of putting symbol v at
    position j. Exhaustive over all q^k messages, chunked to bound memory.
    Cost ties below 1e-12 resolve to the lexicographically smallest codeword.
    The multistage decoder's table ML and Wagner's rule are checked against it.
    """
    costs = np.asarray(costs, dtype=np.float64)
    if costs.shape != (code.n, code.q):
        raise ValueError(f"costs must have shape ({code.n}, {code.q})")
    count = code.q**code.k
    if count > _CODEWORD_TABLE_LIMIT:
        raise ValueError("code too large for exhaustive decoding")
    pos = np.arange(code.n)
    best_score = np.inf
    best_word = None
    for start in range(0, count, _ML_CHUNK):
        ords = np.arange(start, min(start + _ML_CHUNK, count))
        words = code.encode_batch(ordinal_symbols(ords, code.k, code.q))
        scores = costs[pos[None, :], words].sum(axis=1)
        lo = float(scores.min())
        if lo > best_score + 1e-12:
            continue
        near = np.nonzero(scores <= min(lo, best_score) + 1e-12)[0]
        for i in near:
            s, w = float(scores[i]), words[i]
            if s < best_score - 1e-12:
                best_score, best_word = s, w
            elif best_word is None or list(w) < list(best_word):
                best_score = min(best_score, s)
                best_word = w
    return best_word


def table_ml_reference(code, costs) -> np.ndarray:
    """ML over the full codeword table by gathering every word's costs.

    Builds a (rows, q^k, n) array of per-symbol costs and sums it; the first
    minimal word in message-ordinal order wins.
    """
    words = code.codewords()
    idx = np.arange(code.n)[None, :] * code.q + words
    flat = costs.reshape(costs.shape[0], -1)
    scores = flat[:, idx].sum(axis=2)
    return words[np.argmin(scores, axis=1)]


def multistage_reference(spec, ys) -> np.ndarray:
    """Multistage lattice points, unfolded, with `table_ml_reference` at every level.

    Level i prices symbol v at each coordinate by the squared distance from
    the residual to the nearest number q^i (v + q z), z an integer, halves
    rounding up; it takes the table-ML word and subtracts q^i times it. The
    last residual is rounded to q^a Z^n, halves up.
    """
    q = spec.q
    t = np.asarray(ys, dtype=np.float64) - spec._offset_np
    point = np.zeros(t.shape, dtype=np.int64)
    v = np.arange(q)
    for level, code in enumerate(spec.chain.codes):
        scale = q**level
        z = np.floor((t[:, :, None] / scale - v) / q + 0.5)
        words = table_ml_reference(code, (t[:, :, None] - scale * (v + q * z)) ** 2)
        point += scale * words
        t = t - scale * words
    return point + spec.qa * np.floor(t / spec.qa + 0.5).astype(np.int64) + spec._offset_np


def energy_reference(spec) -> float:
    """Exact energy per dimension from the whole constellation in one array."""
    points = spec.encode_batch(np.arange(spec.message_count))
    return int((points**2).sum()) / (spec.message_count * spec.n)


def wer_sweep_reference(spec, es_n0_list, *, trials, seed, max_errors, energy,
                        decoder) -> list:
    """WER sweep with Es/N0 points outside and trial blocks inside.

    Each point draws, encodes and decodes its own blocks until it has run
    `trials` trials or counted `max_errors` errors.
    """
    points = []
    for db in es_n0_list:
        sigma = sigma_for(energy, db)
        errors = 0
        done = 0
        while done < trials and errors < max_errors:
            take = min(_TRIAL_BLOCK, trials - done)
            ords = random_ordinals(spec, take, seed, trial_offset=done)
            x = spec.encode_batch(ords)
            y = transmit(x, sigma, seed, trial_offset=done)
            decoded = decoder.decode_batch(y)
            errors += int(np.any(decoded != x, axis=1).sum())
            done += take
        lo, hi = wilson_interval(errors, done)
        points.append(WerPoint(float(db), errors / done, errors, done, lo, hi))
    return points


def enumerate_constellation_oracle(spec: VoronoiCodeSpec) -> set:
    """Coding-lattice points in the shaping Voronoi region, by direct search.

    Independent of the box indexing: scans an integer cube that provably
    covers the Voronoi region and keeps the points that belong to the coding
    lattice and fold to themselves. The cube's half-side comes from the
    nearest-plane bound on the squared covering radius, sum(d_i^2) / 4 over
    the diagonal d of the shaping lattice's triangular form (the lengths of
    its Gram-Schmidt vectors).
    """
    cover_sq = sum(d * d for d in spec.shaping.diag())
    bound = math.isqrt(-(-cover_sq // 4)) + 1
    count = (2 * bound + 1) ** spec.n
    if count > 4_000_000:
        raise ValueError("search cube too large for the brute-force oracle")
    pts = np.array(
        list(product(range(-bound, bound + 1), repeat=spec.n)),
        dtype=np.int64,
    )
    folded = fold_batch(spec._quantizer, pts)
    keep = np.all(folded == pts, axis=1)
    out = set()
    for p in pts[keep]:
        if contains_point(spec.coding, p - spec._offset_np):
            out.add(tuple(int(v) for v in p))
    return out


def box_coset_representatives(coding: Lattice, shaping: Lattice) -> list:
    """Coding-lattice points in the digit box of the shaping lattice.

    Brute force over the box spanned by the triangular diagonal of `shaping`;
    the result is one representative per coset, so its length equals the
    quotient order. Only intended for small toy systems.
    """
    diag = shaping.diag()
    total = 1
    for d in diag:
        total *= int(d)
    if total > _ENUM_LIMIT:
        raise ValueError("shaping box too large for brute-force enumeration")
    reps = [
        pt
        for pt in product(*(range(int(d)) for d in diag))
        if contains_point(coding, pt)
    ]
    if len(reps) != quotient_order(coding, shaping):
        raise AssertionError("box enumeration missed cosets")
    return reps
