"""Tests for nearest-point search, folding, and second-moment estimation."""

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
    _E8_ROWS,
    _LEECH_ROWS,
    TIE_EPS,
    DirectSumQuantizer,
    DnQuantizer,
    E8FastQuantizer,
    EnumerationQuantizer,
    LeechFastQuantizer,
    Quantizer,
    ScaledQuantizer,
    ZnQuantizer,
    fold_batch,
    fold_mod_parallelotope_batch,
    make_quantizer,
    round_half_up,
)
from vorlat.shaping import BUILTIN_SPECS, builtin_spec
from vorlat.simulate import _TRIAL_BLOCK, random_ordinals, second_moment_mc

from oracles import (
    contains_point,
    dn_round_reference,
    e8_int_short_vectors,
    e8_round_reference,
    fold_mod_parallelotope,
    in_span,
    leech_coset_reference,
)


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


@pytest.mark.parametrize("n", [2, 3, 24, 300])
def test_dn_quantizer_matches_the_row_major_reference(n):
    # Dn(300) needs first-coordinate weights past uint8; half-integer rows
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


@pytest.mark.parametrize("rows", [0, 1, _E8_ROWS - 1, _E8_ROWS, _E8_ROWS + 1, 8 * _E8_ROWS + 1])
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


class _E8Reference(Quantizer):
    """E8_int through the row-major reference, scored by the base class."""

    def quantize_batch(self, ys):
        return e8_round_reference(ys)


def test_second_moment_is_the_same_through_the_e8_reference():
    lat = standard_lattice("E8_int")
    fast = second_moment_mc(E8FastQuantizer(lat), samples=20000, seed=3)
    assert fast == second_moment_mc(_E8Reference(lat), samples=20000, seed=3)


@pytest.mark.parametrize("samples", [1, _TRIAL_BLOCK - 1, _TRIAL_BLOCK, _TRIAL_BLOCK + 1,
                                     2 * _TRIAL_BLOCK + 1])
def test_second_moment_matches_the_e8_reference_around_sample_blocks(samples):
    """One-pass block scoring, a short last block and a one-sample estimate."""
    lat = standard_lattice("E8_int")
    fast = second_moment_mc(E8FastQuantizer(lat), samples=samples, seed=5)
    assert fast == second_moment_mc(_E8Reference(lat), samples=samples, seed=5)


def test_e8_squared_error_blocks_equal_the_row_sums_of_each_folded_block():
    """A stream drawn into one buffer, as second_moment_mc draws it: full
    blocks, a one-row block and a block longer than the first."""
    fast = E8FastQuantizer(standard_lattice("E8_int"))
    rng = np.random.default_rng(12)
    blocks = [rng.uniform(-16.0, 16.0, (rows, 8)) for rows in (4096, 4096, 1, 5000)]
    blocks[1][::7] = np.round(blocks[1][::7]) + 0.5  # ties between and within cosets
    buffer = np.empty((5000, 8))

    def drawn():
        for b in blocks:
            np.copyto(buffer[: len(b)], b)
            yield buffer[: len(b)]

    got = list(fast._squared_error_blocks(drawn()))
    assert len(got) == len(blocks)
    for b, s in zip(blocks, got):
        assert s.dtype == np.float64
        assert np.array_equal(s, ((b - fast.quantize_batch(b)) ** 2).sum(axis=1))


def test_e8_second_moment_memory_is_the_draw_buffers_plus_one_work_area():
    """Two (4096, 8) sample buffers, one 4096-row work area (1728 KiB) and
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
    # one batch call across two internal block boundaries equals single-row calls
    ys = np.concatenate([reps[: _LEECH_ROWS + 2].astype(np.float64),
                         rng.uniform(-8, 8, size=(_LEECH_ROWS + 1, 24))])
    rows = np.stack([nearest(fast, y) for y in ys])
    assert np.array_equal(fast.quantize_batch(ys), rows)


@pytest.mark.parametrize("rows", [_LEECH_ROWS - 1, _LEECH_ROWS, _LEECH_ROWS + 1])
def test_leech_fast_matches_coset_reference_around_one_block(rows):
    """Batches just short of, at and just past one internal block, on the
    inputs of a leech24 fold (encoder representatives over the scale 4) and
    of second_moment_mc (uniform draws in the fundamental parallelotope)."""
    lat = standard_lattice("Leech_int")
    fast = LeechFastQuantizer(lat)
    spec = builtin_spec("leech24")
    reps = spec.representative_batch(random_ordinals(spec, rows, seed=rows)) / 4.0
    draws = np.random.default_rng(rows).random((rows, 24)) @ lat.float_triangular().T
    for ys in (reps, draws):
        assert np.array_equal(fast.quantize_batch(ys), leech_coset_reference(ys))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_leech_fast_matches_coset_reference_on_random_grids(data):
    """Quarter-, half- and whole-integer rows are tie-heavy; uniform rows are not."""
    fast = LeechFastQuantizer(standard_lattice("Leech_int"))
    rows = data.draw(st.integers(1, 2 * _LEECH_ROWS + 1))
    kind = data.draw(st.sampled_from(["quarter", "half", "integer", "uniform"]))
    if kind == "uniform":
        ys = data.draw(hnp.arrays(np.float64, (rows, 24), elements=st.floats(-8, 8)))
    else:
        ints = data.draw(hnp.arrays(np.int64, (rows, 24), elements=st.integers(-32, 32)))
        ys = {"quarter": ints * 0.25, "half": ints + 0.5, "integer": ints * 1.0}[kind]
    assert np.array_equal(fast.quantize_batch(ys), leech_coset_reference(ys))


def test_leech_fast_and_coset_reference_take_the_first_of_float_rounded_ties():
    """21 cosets tie exactly in rational arithmetic on this row, but their float
    distances differ in the last bits, each summed in its own order. Both sides
    take the first coset in table order within TIE_EPS of the least distance."""
    fast = LeechFastQuantizer(standard_lattice("Leech_int"))
    y = np.array([[0.0, 0.0, 0.0] + [6.44116979] * 21])
    got = fast.quantize_batch(y)
    assert np.array_equal(got, leech_coset_reference(y))
    diff = got - fast._table  # the point's coset is the row with diff in 4*D24
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


def test_leech_sextet_classes_partition_the_golay_code():
    fast = LeechFastQuantizer(standard_lattice("Leech_int"))
    words = golay.codewords()
    classes = fast._class_words
    assert classes.shape == (128, 32)
    assert np.array_equal(np.sort(classes, axis=None), np.arange(4096))
    assert np.all(np.diff(classes, axis=1) > 0)  # table order within a class
    # six disjoint tetrads, any two of which form an octad of the code
    tetrads = fast._tetrads
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
    # the last row of a full Leech block, after finite rows
    block = np.zeros((_LEECH_ROWS, n))
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


@pytest.mark.parametrize("rows", [1, _E8_ROWS - 1, _E8_ROWS, _E8_ROWS + 1])
@pytest.mark.parametrize("quantizer", _SQUARED_ERROR_QUANTIZERS, ids=lambda q: type(q).__name__)
def test_squared_error_blocks_equal_the_row_sums_of_the_folded_squares(quantizer, rows):
    """Bit for bit, on every kind of input, ties included, around E8's
    quantize block size."""
    rng = np.random.default_rng(rows)
    for kind in ("uniform", "mc-draws", "quarter", "half", "integer"):
        ys = _squared_error_inputs(kind, quantizer.lattice, rows, rng)
        got = _squared_errors(quantizer, ys)
        assert got.dtype == np.float64 and got.shape == (rows,), kind
        assert np.array_equal(got, ((ys - quantizer.quantize_batch(ys)) ** 2).sum(axis=1)), kind


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

