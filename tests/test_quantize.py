"""Tests for nearest-point search, folding, and second-moment estimation."""

import math
import re
import tracemalloc
from itertools import combinations

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vorlat import golay
from vorlat.intmat import IntMatrix
from vorlat.lattice import Lattice, direct_sum, standard_lattice
from vorlat.quantize import (
    _E8_BLOCK_BYTES,
    _F32_BOUNDS,
    _LEECH_BLOCK_BYTES,
    TIE_EPS,
    DirectSumQuantizer,
    DnQuantizer,
    E8FastQuantizer,
    EnumerationQuantizer,
    LeechFastQuantizer,
    Quantizer,
    ScaledQuantizer,
    ZnQuantizer,
    _leech_floats,
    _leech_tables,
    fold_batch,
    fold_mod_parallelotope_batch,
    make_quantizer,
    round_half_up,
)
from vorlat.codes import builtin_chain
from vorlat.shaping import BUILTIN_SPECS, VoronoiCodeSpec, builtin_spec, construction_d_lattice
from vorlat.simulate import _TRIAL_BLOCK, _draw_rows, _stream, random_ordinals, second_moment_mc

from oracles import (
    contains_point,
    dn_round_reference,
    e8_int_short_vectors,
    e8_round_reference,
    fold_mod_parallelotope,
    in_span,
    leech_coset_reference,
    other_basis,
)


# rows per E8 block of float64 rows, and of the float32 rows integer input takes
_F64_ROWS = _E8_BLOCK_BYTES // 8
_F32_ROWS = _E8_BLOCK_BYTES // 4
# and per Leech block
_LEECH_F64_ROWS = _LEECH_BLOCK_BYTES // 8
_LEECH_F32_ROWS = _LEECH_BLOCK_BYTES // 4


def nearest(q, y):
    """The quantizer's point for one input row, through its batch call."""
    return q.quantize_batch(np.asarray(y, dtype=np.float64)[None, :])[0]


# ---------------------------------------------------------------------------
# componentwise rounding and the integer-coordinate decoders


def test_round_half_up_breaks_ties_upward():
    y = np.array([0.5, -0.5, 1.5, -1.5, 0.49, -0.49])
    assert round_half_up(y).tolist() == [1, 0, 2, -1, 0, 0]


def test_zn_quantizer_example():
    q = make_quantizer(standard_lattice("Zn(3)"))
    assert nearest(q, [0.4, -1.2, 2.5]).tolist() == [0, -1, 3]


def test_dn_quantizer_example():
    q = make_quantizer(standard_lattice("Dn(4)"))
    assert nearest(q, [0.6, 0.6, 0.1, 0.1]).tolist() == [1, 1, 0, 0]


def test_dn_quantizer_parity_repair():
    q = make_quantizer(standard_lattice("Dn(4)"))
    # naive rounding gives odd sum; the worst coordinate is re-rounded the
    # other way, which here lands on the origin
    assert nearest(q, [0.6, 0.0, 0.0, 0.0]).tolist() == [0, 0, 0, 0]
    # exact odd-parity integer input: lowest-index coordinate moves down
    assert nearest(q, [1.0, 0.0, 0.0, 0.0]).tolist() == [0, 0, 0, 0]


@pytest.mark.parametrize("n", [2, 3, 24, 127, 128, 300])
def test_dn_quantizer_matches_the_row_major_reference(n):
    # Dn(128) needs weights past int8 and Dn(300) past uint8; half-integer rows
    # tie many coordinates at the largest |error|, and the first must step
    q = DnQuantizer(standard_lattice(f"Dn({n})"))
    rng = np.random.default_rng(n)
    for kind, ys in (("uniform", rng.uniform(-8, 8, size=(2000, n))),
                     ("half", rng.integers(-16, 17, size=(2000, n)) * 0.5),
                     ("quarter", rng.integers(-32, 33, size=(2000, n)) * 0.25)):
        got = q.quantize_batch(ys)
        assert got.dtype == np.int64 and got.shape == ys.shape
        assert np.array_equal(got, dn_round_reference(ys)), kind


def test_scaled_quantizer_example():
    q = ScaledQuantizer(standard_lattice("Zn(2)").scaled(4))
    assert type(q.inner) is ZnQuantizer
    assert nearest(q, [3.0, 3.0]).tolist() == [4, 4]


def test_scaled_quantizer_refuses_points_past_int64():
    # alpha * 2^53 fits int64 for alpha < 2^10, so those scales check no
    # row; past that a row whose point would leave int64 is refused, not
    # wrapped, also under nested scales and direct sums
    e8 = standard_lattice("E8_int")
    for alpha in (2, 16, (1 << 10) - 1):
        assert make_quantizer(e8.scaled(alpha))._top is None
    assert make_quantizer(e8.scaled(1 << 10))._top is not None
    q = make_quantizer(e8.scaled(1 << 20))
    ys = np.full((2, 8), 1e12)
    assert np.array_equal(q.quantize_batch(ys),
                          make_quantizer(e8).quantize_batch(ys / (1 << 20)) << 20)
    for lat in (e8.scaled(1 << 20), e8.scaled(64).scaled(64),
                direct_sum(e8, copies=2).scaled(1 << 20)):
        rows = np.vstack([np.full((3, lat.dim), 1e12), np.full((1, lat.dim), 1e19)])
        with pytest.raises(ValueError, match="row at index 3.*past the int64 range"):
            make_quantizer(lat).quantize_batch(rows)


def test_nested_chains_collapse_to_one_wrapper():
    """Scalings and direct sums at any depth build one wrapper over the leaf
    quantizer, its scale the product of theirs. A lattice does not record
    which operation came last: any scale other than 1 makes a
    ScaledQuantizer."""
    e8 = standard_lattice("E8_int")
    for lattice, cls, alpha, copies in (
            (e8.scaled(2).scaled(4), ScaledQuantizer, 8, 1),
            (direct_sum(e8, 2, 4).scaled(8), ScaledQuantizer, 32, 2),
            (direct_sum(direct_sum(e8, 3).scaled(2), 2), ScaledQuantizer, 2, 6),
            (direct_sum(direct_sum(e8, 3), 2), DirectSumQuantizer, 1, 6)):
        q = make_quantizer(lattice)
        assert (type(q), type(q.inner), q.alpha, q.copies) == (cls, E8FastQuantizer, alpha, copies)
    spec = builtin_spec("desk8-cube")
    q = spec._quantizer
    assert (type(q.inner), q.alpha) == (ZnQuantizer, spec.alpha * spec.qa)


def test_direct_sum_quantizer_example():
    q = DirectSumQuantizer(direct_sum(standard_lattice("Zn(2)"), 2))
    assert type(q.inner) is ZnQuantizer
    got = nearest(q, [0.4, -1.2, 2.5, 0.6])
    assert got.tolist() == [0, -1, 3, 1]


def test_direct_sum_quantizer_matches_blockwise():
    e8 = standard_lattice("E8_int")
    lat = direct_sum(e8, copies=3, alpha=2)
    q = make_quantizer(lat)
    inner = make_quantizer(e8.scaled(2))
    rng = np.random.default_rng(42)
    ys = rng.uniform(-6, 6, size=(20, 24))
    got = q.quantize_batch(ys)
    for row, y in zip(got, ys):
        parts = [nearest(inner, y[8 * b : 8 * (b + 1)]) for b in range(3)]
        assert row.tolist() == np.concatenate(parts).tolist()


# ---------------------------------------------------------------------------
# sphere enumeration: ties and agreement with the fast decoders


def test_enumeration_tie_is_lexicographically_smallest():
    lat = standard_lattice("Zn(2)").scaled(2)
    q = EnumerationQuantizer(lat)
    assert nearest(q, [1.0, 1.0]).tolist() == [0, 0]
    assert nearest(q, [-1.0, -1.0]).tolist() == [-2, -2]
    assert nearest(q, [1.0, -1.0]).tolist() == [0, -2]


def test_enumeration_matches_zn_and_dn():
    rng = np.random.default_rng(0)
    for name in ("Zn(3)", "Dn(4)"):
        lat = standard_lattice(name)
        fast = make_quantizer(lat)
        enum = EnumerationQuantizer(lat)
        ys = rng.uniform(-4, 4, size=(60, lat.dim))
        pf = fast.quantize_batch(ys)
        pe = enum.quantize_batch(ys)
        df = ((ys - pf) ** 2).sum(axis=1)
        de = ((ys - pe) ** 2).sum(axis=1)
        assert np.all(np.abs(df - de) < 1e-9)


def test_enumeration_on_an_untagged_skewed_lattice_matches_brute_force():
    """Without a covering bound the search starts unbounded and must stay exact."""
    lat = Lattice(IntMatrix([[2, 0, 0], [7, 3, 0], [-5, 11, 4]]))
    assert lat.cov_sq is None
    enum = EnumerationQuantizer(lat)
    rng = np.random.default_rng(31)
    ys = rng.uniform(-9, 9, size=(200, 3))
    ys[:80] = np.round(ys[:80] * 2) / 2  # half-integer rows tie often
    got = enum.quantize_batch(ys)
    gen = lat.generator.to_int64()
    # a nearest point is no farther than the returned one, which bounds its coefficients
    reach = np.abs(ys).max() + np.sqrt(((ys - got) ** 2).sum(axis=1)).max()
    spans = np.ceil(np.abs(np.linalg.inv(gen)).sum(axis=1) * reach).astype(int)
    axes = [np.arange(-k, k + 1) for k in spans]
    coeffs = np.stack(np.meshgrid(*axes, indexing="ij")).reshape(3, -1)
    pts = (gen @ coeffs).T
    for y, point in zip(ys, got):
        dist = ((pts - y) ** 2).sum(axis=1)
        nearest = pts[dist <= dist.min() + 1e-9]
        assert tuple(point) == min(map(tuple, nearest.tolist()))


def test_e8_fast_matches_enumeration_distances():
    lat = standard_lattice("E8_int")
    fast = E8FastQuantizer(lat)
    enum = EnumerationQuantizer(lat)
    rng = np.random.default_rng(1)
    ys = rng.uniform(-8, 8, size=(150, 8))
    df = ((ys - fast.quantize_batch(ys)) ** 2).sum(axis=1)
    de = ((ys - enum.quantize_batch(ys)) ** 2).sum(axis=1)
    assert np.all(np.abs(df - de) < 1e-9)


def test_e8_fast_tie_agrees_in_distance_only():
    # (1,1,0,...,0) is equidistant from the origin and from (2,2,0,...,0);
    # the two decoders may pick different representatives of the tie
    lat = standard_lattice("E8_int")
    fast = E8FastQuantizer(lat)
    enum = EnumerationQuantizer(lat)
    y = np.array([1.0, 1.0, 0, 0, 0, 0, 0, 0])
    pf = nearest(fast, y)
    pe = nearest(enum, y)
    assert pe.tolist() == [0] * 8
    assert abs(((y - pf) ** 2).sum() - 2.0) < 1e-12
    assert abs(((y - pe) ** 2).sum() - 2.0) < 1e-12


def test_e8_fast_coset_tie_keeps_the_lexicographically_smaller_point():
    # Integer inputs often sit, at half scale, as close to the D8 candidate
    # as to the D8 + 1/2 candidate; the smaller of the two in lexicographic
    # order must win, in batches and in single-row calls alike.
    fast = E8FastQuantizer(standard_lattice("E8_int"))
    ys = np.random.default_rng(8).integers(-6, 7, size=(3000, 8)).astype(np.float64)
    half = ys * 0.5
    a = dn_round_reference(half)
    b = dn_round_reference(half - 0.5) + 0.5
    da = ((half - a) ** 2).sum(axis=1)
    db = ((half - b) ** 2).sum(axis=1)
    tie = np.abs(da - db) <= TIE_EPS
    assert 300 < tie.sum() < len(ys)
    got = fast.quantize_batch(ys)
    for i in range(len(ys)):
        pick_b = db[i] < da[i] - TIE_EPS or (tie[i] and tuple(b[i]) < tuple(a[i]))
        assert got[i].tolist() == (2 * (b[i] if pick_b else a[i])).astype(int).tolist()
    for i in np.nonzero(tie)[0][:30]:
        assert np.array_equal(nearest(fast, ys[i]), got[i])


def test_e8_fast_outputs_are_optimal_voronoi_points():
    """Self-contained optimality proof for each decoded point.

    For e = y - Q(y), the point Q(y) is a true nearest neighbour iff
    2<e, v> <= ||v||^2 for every lattice vector v. Vectors with
    ||v|| > 2||e|| satisfy that automatically (Cauchy-Schwarz), and the
    covering radius bound ||e||^2 <= 4 means checking every vector of
    squared norm <= 16 is a complete certificate.
    """
    lat = standard_lattice("E8_int")
    fast = E8FastQuantizer(lat)
    vecs = e8_int_short_vectors(16).astype(np.float64)
    assert len(vecs) == 2400
    norms = (vecs**2).sum(axis=1)
    rng = np.random.default_rng(2)
    ys = rng.uniform(-10, 10, size=(300, 8))
    errs = ys - fast.quantize_batch(ys)
    err_norms = (errs**2).sum(axis=1)
    assert np.all(err_norms <= 4.0 + 1e-9)
    assert np.all(2.0 * errs @ vecs.T <= norms[None, :] + 1e-9)


def _e8_inputs(kind, rows, rng):
    """E8_int inputs y of one kind; the decoder rounds y/2 and y/2 - 1/2 to D8."""
    if kind == "uniform":
        return rng.uniform(-8, 8, size=(rows, 8))
    if kind == "integer":
        return rng.integers(-6, 7, size=(rows, 8)).astype(np.float64)
    if kind == "half":
        return rng.integers(-12, 13, size=(rows, 8)) * 0.5
    if kind == "quarter":
        return rng.integers(-24, 25, size=(rows, 8)) * 0.25
    k = rng.integers(-3, 4, size=(rows, 8))
    k[:, 0] += 1 - k.sum(axis=1) % 2  # odd coordinate sum
    if kind == "odd_integral":
        # y/2 (even y) or y/2 - 1/2 (odd y) is integral with an odd sum: every
        # error is 0, and the first coordinate steps down
        return 2.0 * k + rng.integers(0, 2, size=(rows, 1))
    # two coordinates share the largest |error| 3/8 at half scale, the rest
    # err by at most 1/8: the first of the two steps
    err = rng.choice([-0.125, 0.0, 0.125], size=(rows, 8))
    pair = rng.random((rows, 8)).argsort(axis=1)[:, :2]
    np.put_along_axis(err, pair, rng.choice([-0.375, 0.375], size=(rows, 2)), axis=1)
    return 2.0 * (k + err)


@pytest.mark.parametrize("rows", [0, 1, _F64_ROWS - 1, _F64_ROWS, _F64_ROWS + 1,
                                  8 * _F64_ROWS + 1])
def test_e8_fast_matches_the_two_coset_reference(rows):
    """Pointwise equality with the row-major reference across block edges."""
    fast = E8FastQuantizer(standard_lattice("E8_int"))
    rng = np.random.default_rng(rows)
    for kind in ("uniform", "integer", "half", "quarter", "odd_integral", "two_largest"):
        ys = _e8_inputs(kind, rows, rng)
        got = fast.quantize_batch(ys)
        assert got.dtype == np.int64 and got.shape == (rows, 8)
        assert np.array_equal(got, e8_round_reference(ys)), kind


def test_e8_fast_steps_the_first_of_two_largest_errors():
    fast = E8FastQuantizer(standard_lattice("E8_int"))
    # y/2 = (0, 3/8, 0, -3/8, 1, 0, 0, 0): odd sum, the largest errors tie at
    # indices 1 and 3, and index 1 steps up; the D8 + 1/2 point is farther
    y = 2.0 * np.array([0.0, 0.375, 0.0, -0.375, 1.0, 0.0, 0.0, 0.0])
    assert nearest(fast, y).tolist() == [0, 2, 0, 0, 2, 0, 0, 0]
    # y/2 = (1, 0, ..., 0) is integral with an odd sum: every error is 0 and
    # coordinate 0 steps down, to the origin (the D8 + 1/2 point is farther)
    assert nearest(fast, [2.0, 0, 0, 0, 0, 0, 0, 0]).tolist() == [0] * 8


class _PointScored(Quantizer):
    """The points of `quantize`, a function of rows, scored by the base
    class as the row sums of their folded squares: the point-based path."""

    def __init__(self, lattice, quantize):
        super().__init__(lattice)
        self.quantize_batch = quantize


@pytest.mark.parametrize("samples", [1, _TRIAL_BLOCK - 1, _TRIAL_BLOCK, _TRIAL_BLOCK + 1, 20_000])
@pytest.mark.parametrize("name", ["E8_int", "Leech_int"])
def test_second_moment_is_the_point_based_estimate(name, samples):
    """The decoders' own distances give the estimate of the folded squares
    of their points to 1e-12 relative, in one block, around the block
    boundary and over several; E8_int's points are the row-major
    reference's. A one-sample estimate has a standard error of 0."""
    lat = standard_lattice(name)
    q = make_quantizer(lat)
    points = _PointScored(lat, e8_round_reference if name == "E8_int" else q.quantize_batch)
    fast = second_moment_mc(q, samples=samples, seed=5)
    slow = second_moment_mc(points, samples=samples, seed=5)
    assert fast.samples == slow.samples == samples
    assert math.isclose(fast.nsm, slow.nsm, rel_tol=1e-12)
    assert math.isclose(fast.stderr, slow.stderr, rel_tol=1e-12)


def test_e8_squared_error_blocks_score_a_stream_drawn_into_one_buffer():
    """A stream drawn into one buffer, as second_moment_mc draws it: full
    blocks, a one-row block and a block longer than the first. Each block
    scores as it does alone, and its tie rows, half-integers (ties between
    and within cosets), score as their folded squares bit for bit."""
    fast = E8FastQuantizer(standard_lattice("E8_int"))
    rng = np.random.default_rng(12)
    blocks = [rng.uniform(-16.0, 16.0, (rows, 8)) for rows in (4096, 4096, 1, 5000)]
    blocks[1][::7] = np.round(blocks[1][::7]) + 0.5
    buffer = np.empty((5000, 8))

    def drawn():
        for b in blocks:
            np.copyto(buffer[: len(b)], b)
            yield buffer[: len(b)]

    got = list(fast._squared_error_blocks(drawn()))
    assert len(got) == len(blocks)
    for b, s in zip(blocks, got):
        assert s.dtype == np.float64
        assert np.array_equal(s, _squared_errors(fast, b))
    ties = blocks[1][::7]
    assert np.array_equal(got[1][::7], ((ties - fast.quantize_batch(ties)) ** 2).sum(axis=1))


def test_e8_second_moment_memory_is_the_draw_buffers_plus_one_work_area():
    """Two (4096, 8) sample buffers, one 4096-row work area (1024 KiB) and
    one block's distance sums."""
    q = E8FastQuantizer(standard_lattice("E8_int"))
    second_moment_mc(q, 4 * _TRIAL_BLOCK, seed=1)  # builds cached lattice data
    tracemalloc.start()
    try:
        second_moment_mc(q, 4 * _TRIAL_BLOCK, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 << 20


def test_e8_fast_memory_is_the_output_plus_one_block():
    ys = np.random.default_rng(6).uniform(-8, 8, size=(65536, 8))
    fast = E8FastQuantizer(standard_lattice("E8_int"))
    tracemalloc.start()
    try:
        fast.quantize_batch(ys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 << 20  # the int64 output alone is 4 MiB


# ---------------------------------------------------------------------------
# integer rows in float32


def _width(q, xs):
    """The float dtype a quantizer chain quantizes these rows in."""
    return q._rows(xs).dtype


def _fold_reference(q, r):
    """The fold of integer rows r through their float64 copy."""
    return r - q.quantize_batch(r.astype(np.float64))


def _all_or_sampled_ordinals(spec):
    if spec.message_count <= 1 << 20:
        return np.arange(spec.message_count, dtype=np.int64)
    return random_ordinals(spec, 4096, seed=28)


@pytest.mark.parametrize("name", BUILTIN_SPECS)
def test_stock_encode_equals_the_float64_fold(name):
    """4096 random ordinals, and every ordinal of the stock specs that have at
    most 2^20 (all but leech24), encode as their representatives folded in
    float64; every stock spec folds them in float32."""
    spec = builtin_spec(name)
    q = spec._quantizer
    ords = np.concatenate([random_ordinals(spec, 4096, seed=28), _all_or_sampled_ordinals(spec)])
    for lo in range(0, len(ords), 1 << 16):
        o = ords[lo : lo + (1 << 16)]
        r = spec.representative_batch(o)
        assert _width(q, r) == np.float32
        assert np.array_equal(spec.encode_batch(o), _fold_reference(q, r)), lo


def _bound_chains():
    """(lattice, j) for Zn(8) and E8_int under every scale 2^j with a float32 bound,
    some of them nested or in a direct sum."""
    e8, zn = standard_lattice("E8_int"), standard_lattice("Zn(8)")
    chains = [(e8.scaled(1 << j), j) for j in range(len(_F32_BOUNDS))]
    chains += [(zn.scaled(1 << j), j) for j in (0, 3, 9)]
    chains += [(e8.scaled(2).scaled(4), 3), (direct_sum(e8, 2, 4).scaled(8), 5)]
    return chains


@pytest.mark.parametrize("lattice, j", _bound_chains(), ids=lambda v: getattr(v, "name", v))
def test_integer_rows_at_the_float32_bound_equal_the_float64_fold(lattice, j):
    """Rows whose largest |entry| is B(j) - 1 fold in float32 and rows that
    reach B(j) in float64, both as the float64 reference: full-size entries
    of both signs in every coordinate (the largest coordinate sums), random
    entries, and odd integers next to the bound."""
    q = make_quantizer(lattice)
    bound = _F32_BOUNDS[j]
    assert q._f32_bound == bound
    rng = np.random.default_rng(j)
    for top, width in ((bound - 1, np.float32), (bound, np.float64)):
        r = rng.integers(-top, top + 1, size=(600, lattice.dim))
        r[:200] = rng.choice([-top, top], size=(200, lattice.dim))
        r[200:300] = rng.choice([-top, top, top - 1, 1 - top, top - 3], size=(100, lattice.dim))
        r[300, 0] = top
        assert _width(q, r) == width
        assert np.array_equal(fold_batch(q, r), _fold_reference(q, r)), top


def _octad_near_ties(j, rng):
    """Integer rows at the scale 2^j that are nearer to 2c, for Golay octads c,
    than to 0: 2^j times the midpoint of 0 and 2c, plus 1 in one coordinate
    of the octad, whose squared distances differ by 2^-(j+2) at quarter
    scale. The coset of 0 comes first in table order, so a tie margin of
    that gap or more (2^-10 for j = 8) takes 0. Returns the rows and their
    nearest points 2^j * 2c."""
    words = golay.codewords()
    octads = words[words.sum(axis=1) == 8][:16].astype(np.int64)
    r = octads << j
    r[np.arange(len(r)), [rng.choice(np.flatnonzero(o)) for o in octads]] += 1
    return r, octads << j + 1


@pytest.mark.parametrize("j", [0, 2, 8])
def test_leech_integer_rows_at_the_float32_bound_equal_the_float64_fold(j):
    """Integer rows through Leech_int at the scale 2^j: rows whose largest
    |entry| is B(j) - 1 fold in float32 and rows that reach B(j) in float64,
    both as the float64 fold and as the coset reference. The rows hold
    full-size entries of both signs, random entries, odd entries next to the
    bound and octad near-ties (`_octad_near_ties`)."""
    lattice = standard_lattice("Leech_int").scaled(1 << j)
    q = make_quantizer(lattice)
    bound = _F32_BOUNDS[j]
    assert q._f32_bound == bound
    rng = np.random.default_rng(j)
    ties, points = _octad_near_ties(j, rng)
    for top, width in ((bound - 1, np.float32), (bound, np.float64)):
        r = rng.integers(-top, top + 1, size=(80, 24))
        r[:24] = rng.choice([-top, top], size=(24, 24))
        r[24:40] = rng.choice([-top, top, top - 1, 1 - top, top - 3], size=(16, 24))
        r[40, 0] = top
        r[64:] = ties
        assert _width(q, r) == width
        got = fold_batch(q, r)
        assert np.array_equal(got, _fold_reference(q, r)), top
        assert np.array_equal(got, r - (leech_coset_reference(r / (1 << j)) << j)), top
    assert _width(q, ties) == np.float32
    assert np.array_equal(q.quantize_batch(ties), points)


def test_integer_rows_past_the_float32_chains_take_float64():
    """Scales that are not powers of two, or past 2^9 (past 2^8 for Leech_int),
    and leaves other than Zn, E8_int and Leech_int, never take float32; what
    they fold equals the float64 reference, as does a spec at alpha 3."""
    e8 = standard_lattice("E8_int")
    for lattice in (e8.scaled(3), e8.scaled(1 << 10), e8.scaled(4).scaled(3),
                    standard_lattice("Dn(8)").scaled(2),
                    standard_lattice("Leech_int").scaled(1 << 9)):
        q = make_quantizer(lattice)
        assert q._f32_bound == 0
        r = np.random.default_rng(3).integers(-40, 41, size=(50, lattice.dim))
        assert _width(q, r) == np.float64
        assert np.array_equal(fold_batch(q, r), _fold_reference(q, r))
    spec = VoronoiCodeSpec(builtin_chain("rep8-spc8"), e8, alpha=3)
    q = spec._quantizer
    assert q.alpha == 12 and q._f32_bound == 0
    ords = np.concatenate([np.arange(4096), random_ordinals(spec, 4096, seed=3)])
    r = spec.representative_batch(ords)
    assert _width(q, r) == np.float64
    assert np.array_equal(spec.encode_batch(ords), _fold_reference(q, r))


@pytest.mark.parametrize("rows", [_F32_ROWS - 1, _F32_ROWS, _F32_ROWS + 1, 8 * _F32_ROWS + 1])
def test_e8_fast_integer_rows_match_the_two_coset_reference(rows):
    """Integer rows across the float32 block edges, unscaled and at the
    scale of desk8-e8: points equal the row-major float64 reference."""
    rng = np.random.default_rng(rows)
    for scale in (1, 4):
        q = make_quantizer(standard_lattice("E8_int").scaled(scale))
        for kind in ("integer", "odd_integral"):
            r = (scale * _e8_inputs(kind, rows, rng)).astype(np.int64)
            r[rows // 2] = 100 * scale + np.arange(8)
            assert _width(q, r) == np.float32
            got = q.quantize_batch(r)
            assert np.array_equal(got, scale * e8_round_reference(r / scale)), (scale, kind)


def test_float32_input_is_quantized_in_float64():
    """A caller's float32 rows are quantized as their float64 copy. The
    first row ties the two E8 cosets at half scale except for 2^-24 in one
    coordinate: float64 sees the D8 + 1/2 point nearer by 2^-24, while
    float32 squared errors would round the two distances to a tie."""
    rng = np.random.default_rng(32)
    y = rng.uniform(-16, 16, size=(2000, 8)).astype(np.float32)
    y[0] = 0.5
    y[0, 0] += np.float32(2.0**-24)
    e8 = standard_lattice("E8_int")
    assert make_quantizer(e8).quantize_batch(y[:1]).tolist() == [[1] * 8]
    for lattice, scale in ((e8, 1), (e8.scaled(4), 4), (standard_lattice("Zn(8)").scaled(4), 4)):
        q = make_quantizer(lattice)
        ys = y * np.float32(scale)
        assert _width(q, ys) == np.float64
        assert np.array_equal(q.quantize_batch(ys), q.quantize_batch(ys.astype(np.float64)))


def test_integer_rows_out_of_range_are_refused_in_float64():
    """The range test of the float32 path takes -2^63, whose magnitude
    wraps in int64, and uint64 entries past 2^63: they go to float64 and
    are refused there."""
    q = make_quantizer(builtin_spec("desk8-e8").shaping)
    for r in (np.array([[-(2**63)] + [0] * 7]), np.array([[0] * 7 + [2**63]], dtype=np.uint64)):
        with pytest.raises(ValueError, match="float64 limit 2\\^52 times the scale 4"):
            q.quantize_batch(r)
    small = np.arange(8, dtype=np.uint64)[None]
    assert np.array_equal(q.quantize_batch(small), q.quantize_batch(small.astype(np.float64)))


def test_leech_fast_matches_enumeration_distances():
    lat = standard_lattice("Leech_int")
    fast = LeechFastQuantizer(lat)
    enum = EnumerationQuantizer(lat)
    rng = np.random.default_rng(3)
    spec = builtin_spec("leech24")
    reps = spec.representative_batch(random_ordinals(spec, 8, seed=3))
    ys = np.concatenate([reps.astype(np.float64), rng.uniform(-8, 8, size=(16, 24))])
    pf = fast.quantize_batch(ys)
    for y, f in zip(ys, pf):
        e = nearest(enum, y)
        df = ((y - f) ** 2).sum()
        de = ((y - e) ** 2).sum()
        assert abs(df - de) < 1e-9


def test_leech_fast_matches_coset_reference():
    """Bit-identical points to the per-coset broadcast, ties included."""
    fast = LeechFastQuantizer(standard_lattice("Leech_int"))
    spec = builtin_spec("leech24")
    rng = np.random.default_rng(8)
    reps = spec.representative_batch(random_ordinals(spec, 512, seed=8))
    for ys in (
        reps.astype(np.float64),
        rng.integers(-16, 16, size=(512, 24)) + 0.5,
        rng.uniform(-8, 8, size=(512, 24)),
    ):
        assert np.array_equal(fast.quantize_batch(ys), leech_coset_reference(ys))
    # one batch call across two internal block boundaries equals single-row
    # calls: float64 rows, and integer rows, which take float32 in blocks twice
    # as long, through the leech24 fold's scale 4
    ys = np.concatenate([reps[: _LEECH_F64_ROWS + 2].astype(np.float64),
                         rng.uniform(-8, 8, size=(_LEECH_F64_ROWS + 1, 24))])
    rows = np.stack([nearest(fast, y) for y in ys])
    assert np.array_equal(fast.quantize_batch(ys), rows)
    scaled = spec._quantizer
    rs = reps[: 2 * _LEECH_F32_ROWS + 1]
    assert _width(scaled, rs) == np.float32
    rows = np.concatenate([scaled.quantize_batch(r[None]) for r in rs])
    assert np.array_equal(scaled.quantize_batch(rs), rows)


@pytest.mark.parametrize("rows", [_LEECH_F64_ROWS - 1, _LEECH_F64_ROWS, _LEECH_F64_ROWS + 1,
                                  _LEECH_F32_ROWS - 1, _LEECH_F32_ROWS, _LEECH_F32_ROWS + 1])
def test_leech_fast_matches_coset_reference_around_one_block(rows):
    """Batches just short of, at and just past one internal block of either
    dtype, on the inputs of a leech24 fold: encoder representatives over the
    scale 4 as float64 rows, and the integer representatives through the
    leech24 quantizer, in float32; and of second_moment_mc (uniform draws in
    the fundamental parallelotope), in float64."""
    lat = standard_lattice("Leech_int")
    fast = LeechFastQuantizer(lat)
    spec = builtin_spec("leech24")
    reps = spec.representative_batch(random_ordinals(spec, rows, seed=rows))
    draws = np.random.default_rng(rows).random((rows, 24)) @ lat.float_triangular().T
    want = leech_coset_reference(reps / 4.0)
    assert np.array_equal(fast.quantize_batch(reps / 4.0), want)
    assert _width(spec._quantizer, reps) == np.float32
    assert np.array_equal(spec._quantizer.quantize_batch(reps), 4 * want)
    assert np.array_equal(fast.quantize_batch(draws), leech_coset_reference(draws))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_leech_fast_matches_coset_reference_on_random_grids(data):
    """Quarter-, half- and whole-integer rows are tie-heavy; uniform rows are
    not. Integer rows given as int64 take float32, the others float64; the
    row counts reach past two blocks of either."""
    fast = LeechFastQuantizer(standard_lattice("Leech_int"))
    rows = data.draw(st.integers(1, 2 * _LEECH_F32_ROWS + 1))
    kind = data.draw(st.sampled_from(["quarter", "half", "integer", "int64", "uniform"]))
    if kind == "uniform":
        ys = data.draw(hnp.arrays(np.float64, (rows, 24), elements=st.floats(-8, 8)))
    else:
        ints = data.draw(hnp.arrays(np.int64, (rows, 24), elements=st.integers(-32, 32)))
        ys = {"quarter": ints * 0.25, "half": ints + 0.5, "integer": ints * 1.0,
              "int64": ints}[kind]
    assert np.array_equal(fast.quantize_batch(ys), leech_coset_reference(ys))


def test_leech_fast_and_coset_reference_take_the_first_of_float_rounded_ties():
    """21 cosets tie exactly in rational arithmetic on this row, but their float
    distances differ in the last bits, each summed in its own order. Both sides
    take the first coset in table order within TIE_EPS of the least distance."""
    fast = LeechFastQuantizer(standard_lattice("Leech_int"))
    y = np.array([[0.0, 0.0, 0.0] + [6.44116979] * 21])
    got = fast.quantize_batch(y)
    assert np.array_equal(got, leech_coset_reference(y))
    diff = got - _leech_tables().table  # the point's coset is the row with diff in 4*D24
    coset = np.flatnonzero(np.all(diff % 4 == 0, axis=1) & (diff.sum(axis=1) % 8 == 0))
    assert coset.tolist() == [936]


def test_leech_fast_and_coset_reference_ignore_memory_layout():
    fast = LeechFastQuantizer(standard_lattice("Leech_int"))
    spec = builtin_spec("leech24")
    reps = spec.representative_batch(random_ordinals(spec, 64, seed=12)).astype(np.float64)
    want = leech_coset_reference(reps)
    wide = np.zeros((64, 48))
    wide[:, ::2] = reps
    for ys in (np.asfortranarray(reps), wide[:, ::2]):
        assert not ys.flags.c_contiguous
        assert np.array_equal(leech_coset_reference(ys), want)
        assert np.array_equal(fast.quantize_batch(ys), want)


def test_golay_and_leech_tables_are_built_once_and_read_only():
    for build in (golay.generator_matrix, golay.codewords):
        assert build() is build()
        assert not build().flags.writeable
    first = _leech_tables()
    assert all(a is b for a, b in zip(_leech_tables(), first))
    assert not any(a.flags.writeable for a in first)
    LeechFastQuantizer(standard_lattice("Leech_int"))
    misses = (_leech_tables.cache_info().misses, golay.codewords.cache_info().misses)
    second = LeechFastQuantizer(standard_lattice("Leech_int"))
    assert (_leech_tables.cache_info().misses, golay.codewords.cache_info().misses) == misses
    assert second._tables is first


def test_leech_float_tables_are_the_float64_tables_or_one_float32_copy():
    """The float64 search reads `_leech_tables`' own float arrays; float32
    reads read-only float32 copies of them, made once."""
    tb = _leech_tables()
    f64 = _leech_floats(np.dtype(np.float64))
    assert all(a is b for a, b in zip(f64, (tb.offsets, tb.pattern_bits, tb.class_sum)))
    f32 = _leech_floats(np.dtype(np.float32))
    assert all(a is b for a, b in zip(_leech_floats(np.dtype(np.float32)), f32))
    for a, b in zip(f32, f64):
        assert a.dtype == np.float32 and not a.flags.writeable
        assert np.array_equal(a, b)


def test_leech_sextet_classes_partition_the_golay_code():
    words = golay.codewords()
    classes = _leech_tables().class_words
    assert classes.shape == (128, 32)
    assert np.array_equal(np.sort(classes, axis=None), np.arange(4096))
    assert np.all(np.diff(classes, axis=1) > 0)  # table order within a class
    # six disjoint tetrads, any two of which form an octad of the code
    tetrads = _leech_tables().tetrads
    assert np.array_equal(np.sort(tetrads, axis=None), np.arange(24))
    codebook = {w.tobytes() for w in words}
    for a, b in combinations(tetrads, 2):
        octad = np.zeros(24, dtype=np.uint8)
        octad[np.concatenate([a, b])] = 1
        assert octad.tobytes() in codebook
    # a class fixes each tetrad's pattern up to complement, and its words
    # complement the same parity of tetrads
    pattern = words[:, tetrads] @ (1 << np.arange(4))
    flips = pattern >> 3
    canon = pattern ^ (15 * flips)
    keys = set()
    for members in classes:
        assert (canon[members] == canon[members[0]]).all()
        assert len(set(flips[members].sum(axis=1) % 2)) == 1
        keys.add(canon[members[0]].tobytes())
    assert len(keys) == 128


def test_golay_table_splits_into_generator_bit_halves():
    # `codewords` documents this table order: row j xors the generator rows
    # picked by the bits of j
    words = golay.codewords()
    j = np.arange(4096)
    assert np.array_equal(words, words[j & 63] ^ words[j & ~63])


def test_leech_fast_fixed_points():
    lat = standard_lattice("Leech_int")
    fast = make_quantizer(lat)
    pts = np.zeros((3, 24))
    pts[1, 0] = pts[1, 1] = 4.0
    pts[2, :] = 1.0
    pts[2, 0] = -3.0
    got = fast.quantize_batch(pts)
    assert got[0].tolist() == [0] * 24
    assert got[1].tolist() == pts[1].tolist()
    assert got[2].tolist() == pts[2].tolist()


def test_quantizer_idempotent_on_lattice_points():
    for name in ("Zn(4)", "Dn(4)", "E8_int", "Leech_int"):
        lat = standard_lattice(name)
        q = make_quantizer(lat)
        rng = np.random.default_rng(4)
        gen = np.array(lat.generator.tolist(), dtype=np.float64)
        coeffs = rng.integers(-3, 4, size=(20, lat.dim))
        pts = coeffs @ gen.T
        assert np.array_equal(q.quantize_batch(pts), pts)


# ---------------------------------------------------------------------------
# make_quantizer dispatch


def _leaf(q):
    """The quantizer under any ScaledQuantizer / DirectSumQuantizer wrappers."""
    while isinstance(q, (ScaledQuantizer, DirectSumQuantizer)):
        q = q.inner
    return q


# lattice (stock name or the shaping lattice of a stock spec) -> its leaf quantizer
_LEAVES = {
    "Zn(4)": ZnQuantizer, "Dn(4)": DnQuantizer, "E8_int": E8FastQuantizer,
    "Leech_int": LeechFastQuantizer, "pair2": ZnQuantizer, "desk8-e8": E8FastQuantizer,
    "desk8-cube": ZnQuantizer, "desk8-ham": ZnQuantizer, "leech24": LeechFastQuantizer,
}


def _form(q):
    """A quantizer's wrapper type, leaf type, scale and copies."""
    return type(q), type(_leaf(q)), q.alpha, getattr(q, "copies", 1)


@pytest.mark.parametrize("name", ["Zn(4)", "Dn(4)", "E8_int", "Leech_int", *BUILTIN_SPECS])
def test_make_quantizer_dispatches_to_the_structured_leaf(name):
    if name in BUILTIN_SPECS:
        lattice = builtin_spec(name).shaping
    else:
        lattice = standard_lattice(name)
    q = make_quantizer(lattice)
    assert q.lattice is lattice
    assert type(_leaf(q)) is _LEAVES[name]
    if name not in BUILTIN_SPECS:
        assert q is _leaf(q)
    # the quantizer follows from the lattice, not from the basis it is given by
    rebased = Lattice(other_basis(lattice))
    assert rebased.generator != lattice.generator
    got = make_quantizer(rebased)
    assert got.lattice is rebased
    assert _form(got) == _form(q)


def test_construction_d_over_rep8_spc8_gets_the_e8_decoder():
    # desk8's coding lattice is E8_int itself, given by a Construction D basis
    assert type(make_quantizer(construction_d_lattice(builtin_chain("rep8-spc8")))) \
        is E8FastQuantizer


@pytest.mark.parametrize("lattice", [
    # Leech_int with coordinates 0 and 1 swapped: another lattice, another Hermite form
    Lattice(IntMatrix([standard_lattice("Leech_int").generator.row(i) for i in (1, 0, *range(2, 24))])),
    # blocks of two leaves
    Lattice(IntMatrix.block_diagonal([IntMatrix.identity(8), standard_lattice("E8_int").generator])),
    Lattice(IntMatrix([[1, 0], [0, 2]])),
], ids=["leech-swapped", "zn8+e8", "diag12"])
def test_near_misses_of_the_structured_leaves_get_enumeration(lattice):
    assert type(make_quantizer(lattice)) is EnumerationQuantizer
    with pytest.raises(ValueError, match="not a scaled direct sum of Zn, Dn"):
        ScaledQuantizer(lattice)


def test_make_quantizer_auto_falls_back_to_enumeration():
    lat = Lattice(IntMatrix([[2, 0], [1, 3]]))
    q = make_quantizer(lat)
    assert isinstance(q, EnumerationQuantizer)
    # columns (2,1) and (0,3): nearest point to (2.1, 2.9) is (2,1)+(0,3)
    assert nearest(q, [2.1, 2.9]).tolist() == [2, 4]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("quantizer", [
    ZnQuantizer(standard_lattice("Zn(4)")),
    DnQuantizer(standard_lattice("Dn(4)")),
    E8FastQuantizer(standard_lattice("E8_int")),
    LeechFastQuantizer(standard_lattice("Leech_int")),
    EnumerationQuantizer(Lattice(IntMatrix([[2, 0], [1, 3]]))),
], ids=lambda q: type(q).__name__)
def test_leaf_quantizers_refuse_non_finite_input(quantizer, bad):
    n = quantizer.lattice.dim
    one = np.zeros(n)
    one[-1] = bad
    # the last row of a full Leech block of float64 rows, after finite rows
    block = np.zeros((_LEECH_F64_ROWS, n))
    block[-1, 0] = bad
    for ys in (one[None, :], block):
        with pytest.raises(ValueError, match=f"non-finite input {bad}"):
            quantizer.quantize_batch(ys)


@pytest.mark.parametrize("quantizer", [
    ZnQuantizer(standard_lattice("Zn(4)")),
    DnQuantizer(standard_lattice("Dn(4)")),
    E8FastQuantizer(standard_lattice("E8_int")),
    LeechFastQuantizer(standard_lattice("Leech_int")),
    EnumerationQuantizer(Lattice(IntMatrix([[2, 0], [1, 3]]))),
    ScaledQuantizer(standard_lattice("E8_int").scaled(2)),
    DirectSumQuantizer(direct_sum(standard_lattice("Dn(4)"), 2)),
], ids=lambda q: type(q).__name__)
def test_leaf_quantizers_refuse_rows_of_the_wrong_width(quantizer):
    n = quantizer.lattice.dim
    for shape in ((2, n - 1), (2, n + 1), (n,), (1, 2, n)):
        with pytest.raises(ValueError, match=f"with {n} columns, got shape"):
            quantizer.quantize_batch(np.zeros(shape))
    empty = quantizer.quantize_batch(np.zeros((0, n)))
    assert empty.dtype == np.int64 and empty.shape == (0, n)


def test_wrapped_quantizers_refuse_non_finite_input():
    q = make_quantizer(builtin_spec("leech24").shaping)
    ys = np.zeros((3, 24))
    ys[1, 5] = np.nan
    with pytest.raises(ValueError, match=r"non-finite input nan at index \(1, 5\)"):
        fold_batch(q, ys)


# ---------------------------------------------------------------------------
# squared distances to the nearest point, block by block

_SQUARED_ERROR_QUANTIZERS = [
    ZnQuantizer(standard_lattice("Zn(8)")),
    DnQuantizer(standard_lattice("Dn(8)")),
    E8FastQuantizer(standard_lattice("E8_int")),
    LeechFastQuantizer(standard_lattice("Leech_int")),
    ScaledQuantizer(standard_lattice("E8_int").scaled(3)),
    DirectSumQuantizer(direct_sum(standard_lattice("E8_int"), 2)),
    EnumerationQuantizer(Lattice(IntMatrix([[2, 0], [1, 3]]))),
]


def _squared_error_inputs(kind, lattice, rows, rng):
    shape = (rows, lattice.dim)
    if kind == "uniform":
        return rng.uniform(-16.0, 16.0, shape)
    if kind == "mc-draws":  # as second_moment_mc draws them
        return rng.random(shape) @ lattice.float_triangular().T
    ints = rng.integers(-32, 33, shape)
    return {"quarter": ints * 0.25, "half": ints + 0.5, "integer": ints * 1.0}[kind]


def _squared_errors(quantizer, ys):
    """Scores of one block through the quantizer's block loop."""
    (got,) = quantizer._squared_error_blocks([ys])
    return got


# E8_int and Leech_int score rows by their decoders' own distances, every
# other quantizer by its points
_DECODER_SCORED = [q for q in _SQUARED_ERROR_QUANTIZERS
                   if isinstance(q, (E8FastQuantizer, LeechFastQuantizer))]
_POINT_SCORED = [q for q in _SQUARED_ERROR_QUANTIZERS if q not in _DECODER_SCORED]


@pytest.mark.parametrize("rows", [1, _F64_ROWS - 1, _F64_ROWS, _F64_ROWS + 1])
@pytest.mark.parametrize("quantizer", _POINT_SCORED, ids=lambda q: type(q).__name__)
def test_squared_error_blocks_equal_the_row_sums_of_the_folded_squares(quantizer, rows):
    """Bit for bit, on every kind of input, ties included, around E8's
    quantize block size."""
    rng = np.random.default_rng(rows)
    for kind in ("uniform", "mc-draws", "quarter", "half", "integer"):
        ys = _squared_error_inputs(kind, quantizer.lattice, rows, rng)
        got = _squared_errors(quantizer, ys)
        assert got.dtype == np.float64 and got.shape == (rows,), kind
        assert np.array_equal(got, ((ys - quantizer.quantize_batch(ys)) ** 2).sum(axis=1)), kind


def _decoder_score_bound(quantizer, ys, want):
    """How far a decoder's own squared distance may lie from `want`, the
    row sum of the folded squares (ys - p)^2 of its point p, per row of
    float64 rows ys: 2^-46 (n s (max|y| + 2s) + want).

    With u = 2^-53: the decoder works at scale 1/s (s = 2 for E8_int, 4 for
    Leech_int) on w = y/s less a coset offset below 2 in magnitude, where
    only the subtraction rounds, so each rounding error e (|e| <= 1/2) is
    off by at most d = u (max|y|/s + 2), each e^2 by at most 1.01 d, and
    the penalty 1 - 2 max|e| by at most 2d + u. Sums of at most n = 24
    nonnegative terms, then the penalty, add at most 32u relative, and so
    do the folded squares, whose y - p is exact. Scaled back by s^2 that is
    at most s^2 (n + 3) 1.01 d + 64u want, within the bound above. p must
    be the nearest point: a row with two within TIE_EPS could keep one up
    to s^2 TIE_EPS farther, and these seeded rows have none."""
    n = quantizer.lattice.dim
    s = 2 if n == 8 else 4
    return 2.0**-46 * (n * s * (np.abs(ys).max(axis=1) + 2 * s) + want)


@pytest.mark.parametrize("quantizer, rows", [
    *((_DECODER_SCORED[0], rows) for rows in (1, _F64_ROWS - 1, _F64_ROWS, _F64_ROWS + 1)),
    *((_DECODER_SCORED[1], rows) for rows in (1, _LEECH_F64_ROWS - 1, _LEECH_F64_ROWS,
                                              _LEECH_F64_ROWS + 1, 2 * _LEECH_F64_ROWS - 1,
                                              2 * _LEECH_F64_ROWS, 2 * _LEECH_F64_ROWS + 1)),
], ids=lambda v: type(v).__name__ if isinstance(v, Quantizer) else str(v))
def test_decoder_squared_distances_are_the_folded_squares(quantizer, rows):
    """E8_int's and Leech_int's own squared distances equal the row sums of
    their folded squares bit for bit on quarter-, half- and whole-integer
    rows, where every value is exact, and within `_decoder_score_bound` on
    float rows; across E8's quantize blocks and Leech's search blocks."""
    rng = np.random.default_rng(rows)
    for kind in ("uniform", "mc-draws", "quarter", "half", "integer"):
        ys = _squared_error_inputs(kind, quantizer.lattice, rows, rng)
        got = _squared_errors(quantizer, ys)
        want = ((ys - quantizer.quantize_batch(ys)) ** 2).sum(axis=1)
        assert got.dtype == np.float64 and got.shape == (rows,), kind
        if kind in ("uniform", "mc-draws"):
            assert (np.abs(got - want) <= _decoder_score_bound(quantizer, ys, want)).all(), kind
        else:
            assert np.array_equal(got, want), kind


@pytest.mark.parametrize("quantizer", _SQUARED_ERROR_QUANTIZERS, ids=lambda q: type(q).__name__)
def test_squared_error_blocks_refuse_what_quantize_batch_refuses(quantizer):
    n = quantizer.lattice.dim
    bad = []
    for value in (np.nan, np.inf, -np.inf):
        ys = np.zeros((3, n))
        ys[1, -1] = value
        bad.append(ys)
    bad += [np.zeros(shape) for shape in ((2, n - 1), (2, n + 1), (n,), (1, 2, n))]
    for ys in bad:
        with pytest.raises(ValueError) as want:
            quantizer.quantize_batch(ys)
        with pytest.raises(ValueError) as got:
            _squared_errors(quantizer, ys)
        assert str(got.value) == str(want.value)
    assert _squared_errors(quantizer, np.zeros((0, n))).shape == (0,)


_ALL_QUANTIZERS = [*_SQUARED_ERROR_QUANTIZERS,
                   *(make_quantizer(builtin_spec(name).shaping) for name in BUILTIN_SPECS)]


@pytest.mark.parametrize("quantizer", _ALL_QUANTIZERS, ids=repr)
def test_quantizers_refuse_entries_past_the_float_limit(quantizer):
    """A row of 1e19 used to quantize to wrapped int64 points (-2^63 under
    Zn, Dn and E8_int); from 2^52 on float64 has no halves to round."""
    n = quantizer.lattice.dim
    limit = "not below the float64 limit 2\\^52"
    for value in (1e19, -1e19, 2.0**62):
        ys = np.zeros((2, n))
        ys[1, n - 1] = value
        with pytest.raises(ValueError, match=limit):
            quantizer.quantize_batch(ys)
        with pytest.raises(ValueError, match=limit):
            fold_batch(quantizer, ys)
        with pytest.raises(ValueError, match=limit):
            _squared_errors(quantizer, ys)


def test_chains_refuse_entries_from_their_scale_times_the_float_limit():
    """A chain checks its rows once, at its top, against its scale times
    2^52, also when a direct sum of scaled blocks is at the top; below that
    its points are the blocks' own."""
    e8 = standard_lattice("E8_int")
    for lattice, scale in ((e8.scaled(4), 4), (direct_sum(e8, 2, 4), 4),
                           (direct_sum(e8, 2, 4).scaled(2), 8)):
        q = make_quantizer(lattice)
        ys = np.zeros((2, lattice.dim))
        ys[1, -1] = (2.0**52 - 4) * scale
        blocks = make_quantizer(e8).quantize_batch((ys / scale).reshape(-1, 8))
        assert np.array_equal(q.quantize_batch(ys), scale * blocks.reshape(ys.shape))
        ys[1, -1] = 2.0**52 * scale
        at = f"input {ys[1, -1]} at index (1, {lattice.dim - 1})"
        with pytest.raises(ValueError, match=re.escape(at) + ".*2\\^52 times the scale " + str(scale)):
            q.quantize_batch(ys)


@pytest.mark.parametrize("quantizer", [q for q in _SQUARED_ERROR_QUANTIZERS
                                       if not isinstance(q, (ScaledQuantizer, DirectSumQuantizer))],
                         ids=repr)
def test_leaf_quantizers_take_entries_up_to_the_float_limit(quantizer):
    n = quantizer.lattice.dim
    for value in (2.0**52, -(2.0**52)):
        with pytest.raises(ValueError, match=f"input {value} at index \\(0, 0\\)"):
            quantizer.quantize_batch(np.full((1, n), value))
    # below the limit the points are exact: an integer lattice point is its own
    base = quantizer.lattice.generator.to_int64()[:, 0]
    point = base * ((2**52 - 1) // int(np.abs(base).max()))
    assert quantizer.quantize_batch(point[None, :].astype(np.float64)).tolist() == [point.tolist()]


@pytest.mark.parametrize("quantizer", _SQUARED_ERROR_QUANTIZERS, ids=lambda q: type(q).__name__)
def test_quantize_batch_returns_a_new_writeable_array(quantizer):
    """The `Quantizer` contract that fold_batch and ScaledQuantizer write into."""
    rng = np.random.default_rng(9)
    n = quantizer.lattice.dim
    for ys in (rng.uniform(-16.0, 16.0, (5, n)), rng.integers(-32, 33, (5, n)),
               np.zeros((1, n), dtype=np.int64)):
        out = quantizer.quantize_batch(ys)
        assert out.flags.writeable and not np.shares_memory(out, ys)


@pytest.mark.parametrize("quantizer", _SQUARED_ERROR_QUANTIZERS, ids=lambda q: type(q).__name__)
def test_fold_batch_leaves_its_input_unchanged(quantizer):
    rng = np.random.default_rng(10)
    n = quantizer.lattice.dim
    for ys in (rng.integers(-32, 33, (5, n)), rng.uniform(-16.0, 16.0, (5, n))):
        kept = ys.copy()
        folded = fold_batch(quantizer, ys)
        assert np.array_equal(ys, kept)
        assert folded.dtype == ys.dtype and not np.shares_memory(folded, ys)
        assert np.array_equal(folded, ys - quantizer.quantize_batch(ys))


# ---------------------------------------------------------------------------
# folding into the Voronoi region and into the digit box


def test_fold_mod_lattice_example():
    lat = standard_lattice("Zn(2)").scaled(4)
    q = make_quantizer(lat)
    out = fold_batch(q, [[3, 3]])[0]
    assert out.tolist() == [-1, -1]
    assert np.issubdtype(out.dtype, np.integer)


def test_fold_mod_lattice_properties():
    lat = standard_lattice("E8_int")
    q = make_quantizer(lat)
    rng = np.random.default_rng(5)
    xs = rng.integers(-20, 21, size=(40, 8))
    folded = fold_batch(q, xs)
    assert np.issubdtype(folded.dtype, np.integer)
    # folding is idempotent and lands in the Voronoi region (quantizes to 0)
    assert np.array_equal(fold_batch(q, folded), folded)
    assert np.all(q.quantize_batch(folded.astype(np.float64)) == 0)
    # x and fold(x) differ by a lattice point
    for x, f in zip(xs, folded):
        assert contains_point(lat, x - f)
    # the same for every stock spec's shaping quantizer, on the box
    # representatives the encoder folds and on uniform float rows
    for name in BUILTIN_SPECS:
        spec = builtin_spec(name)
        q = spec._quantizer
        ords = random_ordinals(spec, 4096, seed=5)
        reps = spec.representative_batch(ords)
        reach = spec.qa * max(spec.s_box)
        for xs in (reps, rng.uniform(-reach, reach, size=(4096, spec.n))):
            folded = fold_batch(q, xs)
            assert folded.dtype == xs.dtype
            assert np.array_equal(fold_batch(q, folded), folded), name
            assert not q.quantize_batch(folded).any(), name
        assert np.array_equal(fold_batch(q, reps), spec.encode_batch(ords))


def test_fold_mod_parallelotope_example():
    tri = IntMatrix([[1, 0], [1, 2]])
    assert fold_mod_parallelotope(tri, (3, 4)) == (0, 1)


def test_fold_mod_parallelotope_is_exact_residue_map():
    tri = IntMatrix([[2, 0], [1, 4]])
    seen = set()
    rng = np.random.default_rng(6)
    for _ in range(60):
        r = [int(v) for v in rng.integers(-15, 16, size=2)]
        out = fold_mod_parallelotope(tri, r)
        assert 0 <= out[0] < 2 and 0 <= out[1] < 4
        diff = [r[0] - out[0], r[1] - out[1]]
        # exact congruence checked against an independent rational solver
        assert in_span(tri.tolist(), diff)
        assert contains_point(Lattice(tri), diff)
        seen.add(out)
    # full residue system: folding the box itself is the identity
    for a in range(2):
        for b in range(4):
            assert fold_mod_parallelotope(tri, (a, b)) == (a, b)
    assert len(seen) == 8


def test_fold_mod_parallelotope_batch_matches_scalar():
    tri = standard_lattice("E8_int").triangular_generator
    rng = np.random.default_rng(7)
    rs = rng.integers(-50, 51, size=(30, 8))
    batch = fold_mod_parallelotope_batch(tri.to_int64(), rs)
    for r, out in zip(rs, batch):
        assert tuple(out.tolist()) == fold_mod_parallelotope(tri, [int(v) for v in r])


# ---------------------------------------------------------------------------
# Monte Carlo second moment


def test_second_moment_zn_matches_uniform_box():
    q = make_quantizer(standard_lattice("Zn(4)"))
    est = second_moment_mc(q, samples=20000, seed=11)
    assert est.samples == 20000
    assert est.stderr > 0
    assert abs(est.nsm - 1.0 / 12.0) < 4 * est.stderr
    assert abs(est.gain_db()) < 0.05


class _DrawRecorder(Quantizer):
    """Keeps a copy of every block of draws it is given, and scores each row 1."""

    def _squared_error_blocks(self, blocks):
        self.blocks = []
        for ys in blocks:
            self.blocks.append(ys.copy())
            yield np.ones(len(ys))


@pytest.mark.parametrize("name", ["E8_int", "Leech_int"])
def test_second_moment_draws_are_whole_block_products(name):
    """Row blocks of `_draw_rows` rows, which BLAS runs on one thread, give
    each block's product with the generator bit for bit; the second block
    is short and not a multiple of them."""
    lat = standard_lattice(name)
    n = lat.dim
    assert _draw_rows(n) * n * n <= 1 << 18
    q = _DrawRecorder(lat)
    second_moment_mc(q, _TRIAL_BLOCK + 300, seed=9)
    assert [len(b) for b in q.blocks] == [_TRIAL_BLOCK, 300]
    for b, got in enumerate(q.blocks):
        u = _stream(9, b).random((len(got), n))
        assert np.array_equal(got, u @ lat.float_triangular().T)


def test_second_moment_seed_determinism():
    q = make_quantizer(standard_lattice("Dn(4)"))
    a = second_moment_mc(q, samples=5000, seed=3)
    b = second_moment_mc(q, samples=5000, seed=3)
    c = second_moment_mc(q, samples=5000, seed=4)
    assert a == b
    assert a.nsm != c.nsm


def test_second_moment_e8_gain():
    q = make_quantizer(standard_lattice("E8_int"))
    est = second_moment_mc(q, samples=30000, seed=0)
    assert 0.60 < est.gain_db() < 0.71
    assert est.gain_stderr_db() < 0.03

