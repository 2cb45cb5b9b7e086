"""Channel simulation, decoders, WER sweeps, and the encode benchmark."""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    energy_reference,
    ml_decode,
    multistage_reference,
    table_ml_reference,
    wer_sweep_reference,
)
from vorlat.codes import CodeChain, LinearCode, single_parity_check_code
from vorlat.lattice import standard_lattice
from vorlat.quantize import make_quantizer
from vorlat.shaping import BUILTIN_SPECS, VoronoiCodeSpec, builtin_spec
from vorlat.simulate import (
    BenchResult,
    ExhaustiveDecoder,
    MultistageDecoder,
    _TRIAL_BLOCK,
    _TableML,
    _WagnerML,
    _box_muller,
    _code_ml,
    _noise_uniforms,
    _squared_norms,
    _standard_normals,
    _stream,
    average_energy,
    bench_spec_for_dim,
    complexity_bench,
    interpolate_db_at_wer,
    make_decoder,
    random_ordinals,
    sampled_energy,
    second_moment_mc,
    sigma_for,
    transmit,
    wer_gap_db,
    wer_points_to_csv,
    wer_sweep,
    wilson_interval,
)


def test_transmit_refuses_non_positive_sigma():
    for sigma in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="sigma must be positive"):
            transmit(np.zeros((2, 4)), sigma)


def test_transmit_refuses_non_finite_sigma():
    for sigma in (math.inf, np.float64(np.inf)):
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            transmit(np.zeros((1, 2)), sigma)


def test_transmit_is_reproducible_and_batch_invariant():
    x = np.zeros((10000, 4))
    whole = transmit(x, 0.7, seed=42)
    again = transmit(x, 0.7, seed=42)
    assert np.array_equal(whole, again)
    parts = np.vstack([
        transmit(x[:3000], 0.7, seed=42),
        transmit(x[3000:9000], 0.7, seed=42, trial_offset=3000),
        transmit(x[9000:], 0.7, seed=42, trial_offset=9000),
    ])
    assert np.array_equal(whole, parts)
    one = transmit(np.zeros(4), 0.7, seed=42, trial_offset=77)
    assert np.array_equal(one, whole[77])


def test_transmit_noise_statistics():
    noise = transmit(np.zeros((100000, 2)), 0.5, seed=9)
    assert abs(noise.std() - 0.5) / 0.5 < 0.02
    assert abs(noise.mean()) < 0.005


def test_noise_scales_linearly_with_sigma():
    # paired sweeps rely on a shared underlying standard-normal stream
    base = transmit(np.zeros((500, 3)), 1.0, seed=5)
    double = transmit(np.zeros((500, 3)), 2.0, seed=5)
    assert np.allclose(double, 2.0 * base)


def test_transmit_adds_sigma_times_the_shared_standard_normals():
    # sweeps draw the standard normals once per block and scale them per
    # point; that must equal transmit bit for bit, also across a block edge
    x = np.arange(300 * 5, dtype=np.float64).reshape(300, 5) / 7.0
    offset = 2 * _TRIAL_BLOCK - 120
    for sigma in (0.37, 2.5):
        z = _standard_normals(8, offset, 300, 5)
        y = transmit(x, sigma, seed=8, trial_offset=offset)
        assert np.array_equal(y, x + sigma * z)
    assert np.array_equal(z[120:], _standard_normals(8, 2 * _TRIAL_BLOCK, 180, 5))


def test_random_ordinals_split_invariance():
    spec = builtin_spec("pair2")
    whole = random_ordinals(spec, 100, seed=9)
    parts = np.concatenate([
        random_ordinals(spec, 60, seed=9),
        random_ordinals(spec, 40, seed=9, trial_offset=60),
    ])
    assert np.array_equal(whole, parts)
    assert whole.min() >= 0 and whole.max() < spec.message_count


def test_short_draws_are_prefixes_of_the_full_block():
    # transmit and random_ordinals draw a block's stream only up to the last
    # trial they use; every shorter draw must equal the full block's prefix.
    full = _stream(12, 0, 3).random((_TRIAL_BLOCK, 12, 2))
    for rows in (1, 64, 1000):
        assert np.array_equal(_stream(12, 0, 3).random((rows, 12, 2)), full[:rows])
    for count in (65536, (1 << 40) + 7):
        draws = _stream(12, 1, 3).integers(0, count, _TRIAL_BLOCK, dtype=np.int64)
        for rows in (1, 64, 1000):
            short = _stream(12, 1, 3).integers(0, count, rows, dtype=np.int64)
            assert np.array_equal(short, draws[:rows])
    # and the public draws equal slices of the full blocks
    offset = 3 * _TRIAL_BLOCK + 100
    noise = 0.5 * _box_muller(full, 24)
    assert np.array_equal(transmit(np.zeros((64, 24)), 0.5, 12, offset), noise[100:164])
    spec = SimpleNamespace(message_count=(1 << 40) + 7)
    assert np.array_equal(random_ordinals(spec, 64, 12, offset), draws[100:164])


def test_uniforms_drawn_into_a_buffer_equal_the_allocated_ones():
    # wer_sweep draws each block's uniforms into a prefix of one per-call
    # buffer; that must equal the allocating draw at block-aligned and
    # unaligned offsets, across block edges, and on a short last block
    buf = np.full((_TRIAL_BLOCK + 300, 4, 2), np.nan)
    cases = [(0, _TRIAL_BLOCK), (2 * _TRIAL_BLOCK, 700), (100, 64),
             (_TRIAL_BLOCK - 120, 300), (3 * _TRIAL_BLOCK - 5, _TRIAL_BLOCK + 300), (0, 1)]
    for offset, rows in cases:
        out = buf[:rows]
        got = _noise_uniforms(5, offset, out)
        assert got is out
        assert np.array_equal(got, _noise_uniforms(5, offset, np.empty((rows, 4, 2))))
        assert np.array_equal(_box_muller(got, 8), _standard_normals(5, offset, rows, 8))
    full = _noise_uniforms(5, 2 * _TRIAL_BLOCK, np.empty((_TRIAL_BLOCK, 4, 2)))
    assert np.array_equal(_noise_uniforms(5, 2 * _TRIAL_BLOCK, buf[:700]), full[:700])


@pytest.mark.parametrize("n", [1, 2, 3, 8, 24])
def test_squared_radii_give_the_squared_norms_of_the_normals(n):
    # the sweep screens on sum_k rho_k before any normal is built; it must
    # be the squared norm of the normals that a kept row gets
    uv = _noise_uniforms(7, 50, np.empty((3000, (n + 1) // 2, 2)))
    z = _box_muller(uv, n)
    assert z.shape == (3000, n)
    norms = _squared_norms(uv, n, np.empty(uv.shape[:2]))
    exact = np.einsum("ij,ij->i", z, z)
    assert np.all(np.abs(norms - exact) <= 1e-12 * exact)


@pytest.mark.parametrize("n", [1, 8, 24])
def test_box_muller_is_the_cosine_and_sine_of_each_pair(n):
    # the half-angle tangent must give sqrt(rho) cos(2 pi V) and
    # sqrt(rho) sin(2 pi V) of the same pair, in that order, to a few ulps
    uv = _noise_uniforms(9, 0, np.empty((3000, (n + 1) // 2, 2)))
    u, v = uv[..., 0], uv[..., 1]
    r = np.sqrt(-2.0 * np.log1p(-u))
    ref = np.stack([r * np.cos(2 * np.pi * v), r * np.sin(2 * np.pi * v)], axis=-1)
    ref = ref.reshape(len(uv), -1)[:, :n]
    assert np.abs(_box_muller(uv, n) - ref).max() <= 1e-14


@pytest.mark.parametrize("n", [3, 8])
def test_normals_of_a_row_subset_are_the_full_block_rows(n):
    # the sweep builds normals only for the rows its screen keeps; they must
    # equal the rows transmit uses, bit for bit, whatever rows are kept
    uv = _noise_uniforms(3, 0, np.empty((_TRIAL_BLOCK, (n + 1) // 2, 2)))
    full = _box_muller(uv, n)
    norms = _squared_norms(uv, n, np.empty(uv.shape[:2]))
    for rows in (np.flatnonzero(norms >= 2.5 * n), np.array([0]), np.array([_TRIAL_BLOCK - 1]),
                 np.arange(1, _TRIAL_BLOCK, 7), np.array([], dtype=np.int64)):
        assert np.array_equal(_box_muller(uv[rows], n), full[rows])
    assert np.array_equal(full, _standard_normals(3, 0, _TRIAL_BLOCK, n))


def test_standard_normals_pass_ks_and_chi_square_tests():
    # fixed seed, 2e5 rows: every coordinate is N(0, 1) and every squared
    # norm chi^2(n); the thresholds fail a wrong scale or angle by far
    stats = pytest.importorskip("scipy.stats")
    rows, n = 200_000, 5
    z = _standard_normals(2026, 0, rows, n)
    for j in range(n):
        assert stats.kstest(z[:, j], "norm").pvalue > 1e-3, j
    norms = _squared_norms(_noise_uniforms(2026, 0, np.empty((rows, 3, 2))), n,
                           np.empty((rows, 3)))
    assert stats.kstest(norms, stats.chi2(n).cdf).pvalue > 1e-3
    assert abs(np.corrcoef(z[:, 0], z[:, 1])[0, 1]) < 0.01


def test_average_energy_small_systems_exact():
    assert average_energy(builtin_spec("pair2")) == pytest.approx(1.5)
    assert average_energy(builtin_spec("desk8-cube")) == pytest.approx(5.5)


def test_average_energy_equals_the_whole_constellation_sum():
    for name in ("pair2", "desk8-cube", "desk8-e8"):
        spec = builtin_spec(name)
        assert average_energy(spec) == energy_reference(spec), name


def test_average_energy_memory_is_one_block():
    spec = builtin_spec("desk8-e8")  # 2^16 points, a 4 MiB constellation
    tracemalloc.start()
    try:
        average_energy(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_sampled_energy_matches_enumeration():
    for name in ("pair2", "desk8-e8"):
        spec = builtin_spec(name)
        exact = average_energy(spec)
        mean, stderr = sampled_energy(spec, 20000, seed=4)
        assert abs(mean - exact) < 3 * stderr


def test_sigma_for_implements_the_documented_convention():
    for energy, db in [(1.5, 0.0), (4.9, 10.0), (5.5, -3.0)]:
        sigma = sigma_for(energy, db)
        es = 2.0 * energy
        assert sigma**2 == pytest.approx(es / (2.0 * 10.0 ** (db / 10.0)) * 0.5)


def test_sigma_for_refuses_values_outside_its_domain():
    for db in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="es_n0_db must be finite"):
            sigma_for(1.5, db)
    for energy in (math.nan, math.inf, 0.0, -1.5):
        with pytest.raises(ValueError, match="energy_per_dim must be finite and positive"):
            sigma_for(energy, 5.0)
    # finite inputs whose sigma overflows or underflows
    for energy, db in ((1.5, 4000.0), (1.5, -4000.0), (1.5, 3100.0), (1e308, -3000.0)):
        with pytest.raises(ValueError, match="no finite positive sigma"):
            sigma_for(energy, db)


def test_wilson_interval_values():
    lo, hi = wilson_interval(10, 100)
    assert lo == pytest.approx(0.0552, abs=1e-3)
    assert hi == pytest.approx(0.1744, abs=1e-3)
    lo, hi = wilson_interval(0, 50)
    assert lo == 0.0 and hi > 0
    lo, hi = wilson_interval(50, 50)
    assert hi == 1.0 and lo < 1
    with pytest.raises(ValueError):
        wilson_interval(0, 0)


def _random_code(rng, n, k, q):
    while True:
        try:
            return LinearCode(rng.integers(0, q, (k, n)).tolist(), q)
        except ValueError:  # dependent rows: draw again
            pass


def test_table_ml_matches_gather_reference():
    rng = np.random.default_rng(21)
    for n, k, q in [(8, 4, 2), (8, 7, 2), (10, 6, 2), (6, 3, 3), (7, 4, 3)]:
        code = _random_code(rng, n, k, q)
        ml = _code_ml(code)
        costs = rng.normal(0, 1, (300, n, q)) ** 2
        words = ml(costs)
        assert np.array_equal(words, table_ml_reference(code, costs))
        # one batched call equals single-row calls
        singles = np.vstack([ml(costs[i : i + 1]) for i in range(20)])
        assert np.array_equal(singles, words[:20])


def test_table_ml_ties_go_to_the_first_word():
    # small integer costs tie exactly between many codewords
    rng = np.random.default_rng(22)
    for n, k, q in [(8, 4, 2), (6, 3, 3)]:
        code = _random_code(rng, n, k, q)
        costs = rng.integers(0, 2, (500, n, q)).astype(np.float64)
        words = _code_ml(code)(costs)
        assert np.array_equal(words, table_ml_reference(code, costs))
        zero = _code_ml(code)(np.zeros((3, n, q)))
        assert np.array_equal(zero, np.zeros((3, n), dtype=np.int64))
        for row, cost in zip(words[:40], costs[:40]):
            assert np.array_equal(row, ml_decode(code, cost))


def test_table_ml_chunks_rows_of_large_codes():
    rng = np.random.default_rng(23)
    code = _random_code(rng, 14, 11, 2)
    ml = _code_ml(code)
    assert ml.chunk == 512  # 2^20 scores over 2^11 words
    costs = rng.normal(0, 1, (1300, 14, 2)) ** 2
    words = ml(costs)
    ref = np.vstack([table_ml_reference(code, part) for part in np.array_split(costs, 13)])
    assert np.array_equal(words, ref)


def test_wagner_matches_table_ml():
    # continuous costs tie with probability zero, so the words themselves agree
    # (a parity row that covers every position, or one that misses two)
    rng = np.random.default_rng(11)
    partial = LinearCode([[1, 0, 1, 0, 0], [0, 1, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]])
    for code in [single_parity_check_code(n) for n in range(3, 13)] + [partial]:
        costs = rng.normal(0, 1, (200, code.n, 2)) ** 2
        assert np.array_equal(_WagnerML(code)(costs), _code_ml(code)(costs))


def test_wagner_agrees_with_reference_decoder():
    rng = np.random.default_rng(2)
    spc = single_parity_check_code(8)
    pos = np.arange(8)
    for _ in range(25):
        costs = rng.normal(0, 1, (8, 2)) ** 2
        wag = _WagnerML(spc)(costs[None, :, :])[0]
        ref = ml_decode(spc, costs)
        assert costs[pos, wag].sum() == pytest.approx(costs[pos, ref].sum())


def test_wagner_ties_go_to_the_table_ml_word():
    # costs in {0, 1, 2} sum exactly and tie often: Wagner's rule must return
    # the first ML word in message order, the word table ML returns
    rng = np.random.default_rng(12)
    # the last code's parity row is 1 1 1 0 0: positions 3 and 4 are free
    free = LinearCode([[1, 0, 1, 0, 0], [0, 1, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]])
    assert free.parity_check().tolist() == [[1, 1, 1, 0, 0]]
    for code in [single_parity_check_code(n) for n in range(2, 13)] + [free]:
        costs = rng.integers(0, 3, (2000, code.n, 2)).astype(np.float64)
        words = _WagnerML(code)(costs)
        assert np.array_equal(words, _code_ml(code)(costs)), code
        for row, cost in zip(words[:30], costs[:30]):
            assert np.array_equal(row, ml_decode(code, cost)), code


def test_wagner_on_wide_codes_outputs_valid_words():
    rng = np.random.default_rng(3)
    spc = single_parity_check_code(24)
    costs = rng.normal(0, 1, (60, 24, 2)) ** 2
    words = _WagnerML(spc)(costs)
    assert np.all(words.sum(axis=1) % 2 == 0)
    pos = np.arange(24)
    best = costs[np.arange(60)[:, None], pos, words].sum(axis=1)
    # no random codeword may beat the claimed optimum
    for _ in range(100):
        m = rng.integers(0, 2, (60, 23), dtype=np.int64)
        c = spc.encode_batch(m)
        other = costs[np.arange(60)[:, None], pos, c].sum(axis=1)
        assert np.all(best <= other + 1e-9)


def test_multistage_matches_table_ml_at_every_level():
    # Wagner's rule runs the [n, n-1] levels; half-integer rows tie exactly
    for name in ("pair2", "desk8-cube", "desk8-e8", "desk8-ham"):
        spec = builtin_spec(name)
        dec = MultistageDecoder(spec)
        assert [type(ml) for ml in dec._strategies] == [
            _WagnerML if c.k == c.n - 1 else _TableML for c in spec.chain.codes], name
        x = spec.representative_batch(random_ordinals(spec, 2560, seed=9))
        y = x + 0.9 * _standard_normals(9, 0, 2560, spec.n)
        y[2048:] = np.round(y[2048:] * 2) / 2
        assert np.array_equal(dec.lattice_points(y), multistage_reference(spec, y)), name


def test_multistage_memory_is_bounded_per_call():
    spec = builtin_spec("desk8-e8")
    dec = MultistageDecoder(spec)
    y = spec.representative_batch(random_ordinals(spec, 4096, seed=2)) + 0.5 * (
        _standard_normals(2, 0, 4096, spec.n))
    tracemalloc.start()
    try:
        dec.lattice_points(y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_lattice_points_do_not_depend_on_the_batch():
    # wer_sweep stacks the rows of every Es/N0 point into one call, so a row's
    # decision must not depend on the rows beside it: table ML (desk8-ham's
    # BLAS matmul, whose stack here spans more than one chunk of its Hamming
    # level), Wagner's rule (desk8-e8, desk8-cube) and leech24's two levels
    sigmas = (0.4, 0.7, 1.2)
    for name in ("desk8-ham", "desk8-e8", "desk8-cube", "leech24"):
        spec = builtin_spec(name)
        dec = MultistageDecoder(spec)
        rows = 2000
        if name == "desk8-ham":
            chunk = min(ml.chunk for ml in dec._strategies if isinstance(ml, _TableML))
            rows = chunk // len(sigmas) + 500
            assert len(sigmas) * rows > chunk > rows
        sent = [spec.representative_batch(random_ordinals(spec, rows, seed))
                for seed in range(len(sigmas))]
        parts = [x + sigma * _standard_normals(seed, 0, rows, spec.n)
                 for seed, (sigma, x) in enumerate(zip(sigmas, sent))]
        stack = np.vstack(parts)
        got = dec.lattice_points(stack)
        assert np.array_equal(got, np.vstack([dec.lattice_points(y) for y in parts])), name
        pick = np.arange(0, len(stack), 97)
        singles = np.vstack([dec.lattice_points(stack[i : i + 1]) for i in pick])
        assert np.array_equal(got[pick], singles), name
        assert 0 < int(np.any(got != np.vstack(sent), axis=1).sum()) < len(stack), name


def test_decoders_take_empty_batches():
    cases = [(name, "multistage") for name in ("desk8-e8", "desk8-ham", "leech24")]
    for name, mode in cases + [("pair2", "exhaustive_ml")]:
        spec = builtin_spec(name)
        dec = make_decoder(spec, mode)
        y = np.empty((0, spec.n))
        for out in (dec.lattice_points(y), dec.decode_batch(y)):
            assert out.shape == (0, spec.n) and out.dtype == np.int64, (name, mode)


def test_multistage_radius_of_stock_specs():
    # min(min_i q^i sqrt(d_i) / 2, q^a / 2): rep2 sets pair2's radius, the
    # spc level at scale 2 (or rep8 at scale 1) that of the others
    want = {"pair2": math.sqrt(2) / 2, "desk8-cube": math.sqrt(2), "desk8-e8": math.sqrt(2),
            "desk8-ham": math.sqrt(2), "leech24": math.sqrt(2)}
    assert set(want) == set(BUILTIN_SPECS)
    for name, radius in want.items():
        assert MultistageDecoder(builtin_spec(name)).radius == pytest.approx(radius, rel=1e-12)


def test_a_level_of_distance_one_sets_the_radius_to_one_half():
    # one code per routine: a Wagner level whose parity row misses positions
    # 3 and 4, and a table level with a word of weight 1
    wagner = LinearCode([[1, 0, 1, 0, 0], [0, 1, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]])
    table = LinearCode([[1, 1, 1, 0], [0, 0, 0, 1]])
    for code, routine in ((wagner, _WagnerML), (table, _TableML)):
        spec = VoronoiCodeSpec(CodeChain([code]), standard_lattice(f"Zn({code.n})"))
        dec = MultistageDecoder(spec)
        assert type(dec._strategies[0]) is routine
        assert dec.radius == 0.5
        # noise just past 1/2 on the weight-1 word's position moves the decision
        x = spec.representative_batch(spec.all_ordinals())
        e = np.zeros(code.n)
        e[code.n - 1] = 0.5
        assert np.array_equal(dec.lattice_points(x + (1 - 1e-6) * e), x)
        assert np.all(np.any(dec.lattice_points(x + (1 + 1e-6) * e) != x, axis=1))


def _lattice_rows(spec, rows, seed):
    ords = random_ordinals(spec, rows, seed)
    return np.vstack([spec.representative_batch(ords), spec.encode_batch(ords)])


def test_multistage_radius_is_tight():
    # e0 + e1 has norm sqrt(2), the radius of both specs: just inside it every
    # point decodes to itself, just outside it the spc level at scale 2 flips
    for name in ("desk8-e8", "leech24"):
        spec = builtin_spec(name)
        dec = MultistageDecoder(spec)
        x = _lattice_rows(spec, 256, seed=14)
        e = np.zeros(spec.n)
        e[:2] = 1.0
        assert math.sqrt(2) * (1 - 1e-6) < dec.radius
        assert np.array_equal(dec.lattice_points(x + (1 - 1e-6) * e), x), name
        assert np.all(np.any(dec.lattice_points(x + (1 + 1e-6) * e) != x, axis=1)), name


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(BUILTIN_SPECS), support=st.integers(0, 24),
       seed=st.integers(0, 2**32 - 1))
@example(name="pair2", support=2, seed=0)
@example(name="desk8-e8", support=2, seed=0)
@example(name="desk8-ham", support=2, seed=1)
@example(name="leech24", support=2, seed=2)
def test_noise_inside_the_radius_returns_the_sent_point(name, support, seed):
    # a random Gaussian direction (support 0 or above n) or a sparse +-1 one,
    # scaled to just inside the radius; two +-1 entries meet the radius of
    # every stock spec, so an inflated radius fails the examples above
    spec = builtin_spec(name)
    dec = MultistageDecoder(spec)
    rng = np.random.default_rng(seed)
    if 0 < support <= spec.n:
        u = np.zeros(spec.n)
        u[rng.choice(spec.n, support, replace=False)] = rng.choice([-1.0, 1.0], support)
    else:
        u = rng.standard_normal(spec.n)
    e = dec.radius * (1 - 1e-9) * u / np.linalg.norm(u)
    x = _lattice_rows(spec, 32, seed=seed % 1000)
    assert np.array_equal(dec.lattice_points(x + e), x)


def test_decoders_recover_clean_points():
    for name in ("pair2", "desk8-e8", "desk8-cube"):
        spec = builtin_spec(name)
        ords = random_ordinals(spec, 256, seed=1)
        x = spec.encode_batch(ords)
        y = x.astype(np.float64)
        for mode in ("multistage", "exhaustive_ml"):
            assert np.array_equal(make_decoder(spec, mode).decode_batch(y), x)


def test_tiny_noise_gives_zero_errors():
    spec = builtin_spec("desk8-e8")
    ords = random_ordinals(spec, 1000, seed=6)
    x = spec.encode_batch(ords)
    y = transmit(x, 0.01, seed=6)
    decoded = make_decoder(spec, "multistage").decode_batch(y)
    assert np.array_equal(decoded, x)


def test_multistage_close_to_exhaustive_at_moderate_noise():
    spec = builtin_spec("pair2")
    trials = 10000
    ords = random_ordinals(spec, trials, seed=7)
    x = spec.encode_batch(ords)
    y = transmit(x, 0.45, seed=7)
    e_ms, e_ex = (int(np.any(make_decoder(spec, mode).decode_batch(y) != x, axis=1).sum())
                  for mode in ("multistage", "exhaustive_ml"))
    assert 0 < e_ex <= e_ms <= 2 * e_ex


def test_saturated_noise_approaches_blind_guessing():
    spec = builtin_spec("pair2")
    trials = 30000
    ords = random_ordinals(spec, trials, seed=8)
    x = spec.encode_batch(ords)
    y = transmit(x, 1000.0, seed=8)
    wer = np.any(make_decoder(spec, "multistage").decode_batch(y) != x, axis=1).mean()
    assert abs(wer - (1 - 1 / spec.message_count)) < 0.01


def test_leech24_multistage_round_trip():
    spec = builtin_spec("leech24")
    dec = MultistageDecoder(spec)
    ords = random_ordinals(spec, 64, seed=5)
    x = spec.encode_batch(ords)
    y = transmit(x, 0.05, seed=5)
    assert np.array_equal(dec.decode_batch(y), x)


@pytest.mark.parametrize("mode", ["multistage", "exhaustive_ml"])
def test_decoders_refuse_non_finite_and_misshaped_rows(mode):
    # both used to decode NaN and inf rows to the all-zero point
    decoder = make_decoder(builtin_spec("desk8-e8"), mode)
    for call in (decoder.decode_batch, decoder.lattice_points):
        for bad in (np.nan, np.inf, -np.inf):
            ys = np.zeros((3, 8))
            ys[1, 5] = bad
            with pytest.raises(ValueError, match=rf"non-finite input {bad} at index \(1, 5\)"):
                call(ys)
        for shape in ((8,), (2, 7), (2, 9), (1, 2, 8)):
            with pytest.raises(ValueError, match=r"with 8 columns, got shape"):
                call(np.zeros(shape))


@pytest.mark.parametrize("name, mode", [("desk8-e8", "multistage"), ("leech24", "multistage"),
                                        ("desk8-e8", "exhaustive_ml"), ("pair2", "exhaustive_ml")])
def test_decoders_refuse_entries_past_the_float_limit(name, mode):
    """`lattice_points` used to return the wrapped int64 point of a 1e19 row."""
    spec = builtin_spec(name)
    decoder = make_decoder(spec, mode)
    for call in (decoder.decode_batch, decoder.lattice_points):
        for value in (1e19, -1e19, 2.0**52):
            ys = np.zeros((3, spec.n))
            ys[2, 0] = value
            with pytest.raises(ValueError, match=r"at index \(2, 0\): its magnitude is not "
                                                 r"below the float64 limit 2\^52"):
                call(ys)


def test_exhaustive_decoder_is_the_first_nearest_point():
    for name, rows in [("pair2", 200), ("desk8-e8", 24)]:
        spec = builtin_spec(name)
        pts = spec.enumerate_constellation()
        x = spec.encode_batch(random_ordinals(spec, rows, seed=4))
        y = x + 0.8 * _standard_normals(4, 0, rows, spec.n)
        y[: rows // 4] = np.round(y[: rows // 4] * 2) / 2  # half-integer rows tie exactly
        want = np.stack([pts[np.argmin(((pts - row) ** 2).sum(axis=1))] for row in y])
        assert np.array_equal(ExhaustiveDecoder(spec).decode_batch(y), want)


def test_exhaustive_decoder_memory_is_bounded_per_call():
    """Scores are taken in chunks of at most 2^20, whatever the batch size."""
    spec = builtin_spec("desk8-e8")  # 2^17 points
    dec = ExhaustiveDecoder(spec)
    y = spec.encode_batch(random_ordinals(spec, 256, seed=2)) + 0.4 * _standard_normals(
        2, 0, 256, spec.n)
    tracemalloc.start()
    try:
        dec.decode_batch(y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20


def test_exhaustive_decoder_size_guard():
    with pytest.raises(ValueError, match="more than the exhaustive bound"):
        ExhaustiveDecoder(builtin_spec("leech24"))
    with pytest.raises(ValueError, match="unknown decode mode"):
        make_decoder(builtin_spec("pair2"), "soft")


def test_wer_sweep_reporting():
    spec = builtin_spec("pair2")
    points = wer_sweep(spec, [2.0, 4.0, 6.0], trials=2000, seed=3)
    assert [p.es_n0_db for p in points] == [2.0, 4.0, 6.0]
    for p in points:
        assert p.wer == p.errors / p.trials
        assert 0.0 <= p.ci_low <= p.wer <= p.ci_high <= 1.0
    # lower noise cannot make things much worse
    assert points[0].wer >= points[-1].wer
    again = wer_sweep(spec, [2.0, 4.0, 6.0], trials=2000, seed=3)
    assert points == again
    assert wer_points_to_csv(points) == wer_points_to_csv(again)


def test_wer_sweep_refuses_bad_trial_counts():
    spec = builtin_spec("pair2")
    for grid in ([], [3.0]):
        for trials in (0, -5):
            with pytest.raises(ValueError, match="trials must be positive"):
                wer_sweep(spec, grid, trials=trials)


def test_wer_sweep_early_stop():
    spec = builtin_spec("pair2")
    (point,) = wer_sweep(spec, [-15.0], trials=500000, seed=1, max_errors=50)
    assert point.errors >= 50
    assert point.trials < 500000
    assert point.wer == point.errors / point.trials


def test_wer_sweep_matches_point_outer_reference():
    # max_errors is small enough that points stop after different blocks; the
    # -5 dB pair2 point decodes some trials to other points of the sent
    # message's coset, which count as correct in both sweeps
    multi = 5 * _TRIAL_BLOCK + 123
    cases = [("pair2", "multistage", [-5.0, 11.0, 11.5, 12.0, 13.0], 30, multi),
             ("desk8-cube", "multistage", [13.0, 14.0, 15.0], 25, multi),
             ("desk8-e8", "multistage", [13.0, 13.5, 14.0], 25, multi),
             ("desk8-ham", "multistage", [17.0, 18.0, 19.0, 20.0], 200, multi),
             ("pair2", "exhaustive_ml", [10.0, 11.0, 11.5, 12.0], 30, multi),
             ("leech24", "multistage", [13.0, 15.0, 16.0], 200, 300)]
    for name, mode, grid, max_errors, trials in cases:
        spec = builtin_spec(name)
        energy = sampled_energy(spec, 512)[0] if name == "leech24" else average_energy(spec)
        kwargs = dict(trials=trials, seed=17, max_errors=max_errors, energy=energy,
                      decoder=make_decoder(spec, mode))
        points = wer_sweep(spec, grid, **kwargs)
        assert points == wer_sweep_reference(spec, grid, **kwargs)
        assert all(p.errors > 0 for p in points)
        if trials > _TRIAL_BLOCK:
            assert len({p.trials for p in points}) >= 3


def test_wer_sweep_counts_messages_not_points():
    # a decoder that lands every trial on another point of the decided coset
    # must score exactly like one that returns the constellation point itself
    class Shifted(MultistageDecoder):
        def lattice_points(self, ys):
            return super().lattice_points(ys) + self.shift

    for name, grid in (("pair2", [-5.0, 8.0, 12.0]), ("desk8-e8", [10.0, 13.0])):
        spec = builtin_spec(name)
        shifted = Shifted(spec)
        shifted.shift = spec.qa * spec.shaping_prime.triangular_generator.to_int64().sum(axis=1)
        kwargs = dict(trials=_TRIAL_BLOCK + 500, seed=4, max_errors=300)
        points = wer_sweep(spec, grid, decoder=shifted, **kwargs)
        assert points == wer_sweep(spec, grid, **kwargs)
        assert all(0 < p.errors < p.trials for p in points)


def test_box_representatives_give_the_error_flags_of_folded_points():
    # a multistage decision commutes with shifts by q^a Z^n, which hold the
    # shaping lattice, so sending the unfolded box representative r instead
    # of its fold x changes the decided point by the fold's shift only
    cases = [("pair2", -5.0), ("desk8-e8", 13.0), ("desk8-cube", 13.0),
             ("desk8-ham", 17.0), ("leech24", 15.0)]
    rows = _TRIAL_BLOCK
    for name, db in cases:
        spec = builtin_spec(name)
        energy = sampled_energy(spec, 512)[0] if name == "leech24" else average_energy(spec)
        dec = make_decoder(spec, "multistage")
        ords = random_ordinals(spec, rows, seed=31)
        r = spec.representative_batch(ords)
        x = spec.encode_batch(ords)
        noise = sigma_for(energy, db) * _standard_normals(31, 0, rows, spec.n)
        from_r = spec.same_message(dec.lattice_points(r + noise), r)
        from_x = spec.same_message(dec.lattice_points(x + noise), x)
        assert np.array_equal(from_r, from_x), name
        assert 0 < int((~from_x).sum()) < rows, name
        assert np.any(r != x), name


class _RecordingDecoder:
    """Decisions of an inner decoder that keep a copy of every input they get."""

    def __init__(self, spec, inner=MultistageDecoder):
        self.inner = inner(spec)
        self.inputs = []

    def lattice_points(self, ys):
        self.inputs.append(np.array(ys))
        return self.inner.lattice_points(ys)


class _DeclaredRecordingDecoder(_RecordingDecoder):
    shift_equivariant = True


def test_wer_sweep_folds_for_decoders_without_the_shift_declaration():
    spec = builtin_spec("desk8-e8")
    energy, trials, seed = average_energy(spec), 300, 12
    ords = random_ordinals(spec, trials, seed)
    noise = sigma_for(energy, 12.0) * _standard_normals(seed, 0, trials, spec.n)
    x = spec.encode_batch(ords)
    r = spec.representative_batch(ords)
    assert np.any(r != x)
    for cls, sent in ((_RecordingDecoder, x), (_DeclaredRecordingDecoder, r)):
        dec = cls(spec)
        wer_sweep(spec, [12.0], trials=trials, seed=seed, energy=energy, decoder=dec)
        (seen,) = dec.inputs  # no radius: every row, inside it or not
        assert not hasattr(dec, "radius")
        assert np.array_equal(seen, sent + noise)
    assert MultistageDecoder.shift_equivariant is True
    assert ExhaustiveDecoder.shift_equivariant is False


class _RadiusRecordingDecoder(_RecordingDecoder):
    def __init__(self, spec, inner=MultistageDecoder):
        super().__init__(spec, inner)
        self.radius = self.inner.radius
        self.shift_equivariant = self.inner.shift_equivariant


def _per_point_inputs(spec, grid, *, trials, seed, energy, radius, sent_of):
    """Per trial block, the screened rows of each point: what a sweep with one
    decoder call per (block, point) sent, with `sent_of(ords)` as sent vectors."""
    blocks = []
    for start in range(0, trials, _TRIAL_BLOCK):
        take = min(_TRIAL_BLOCK, trials - start)
        sent = sent_of(random_ordinals(spec, take, seed, start))
        z = _standard_normals(seed, start, take, spec.n)
        per_point = []
        for db in grid:
            sigma = sigma_for(energy, db)
            far = sigma**2 * (z * z).sum(axis=1) >= radius**2 * (1 - 1e-9)
            per_point.append(sent[far] + sigma * z[far])
        blocks.append(per_point)
    return blocks


def test_wer_sweep_decodes_only_rows_outside_the_radius():
    # one call per block: the screened rows of every point, stacked in point
    # order, bit for bit what one call per (block, point) sent before
    spec = builtin_spec("desk8-e8")
    energy, seed, grid = average_energy(spec), 6, [8.0, 11.0, 15.0]
    trials = _TRIAL_BLOCK + 700
    dec = _RadiusRecordingDecoder(spec)
    points = wer_sweep(spec, grid, trials=trials, seed=seed, energy=energy, decoder=dec,
                       max_errors=trials)
    assert points == wer_sweep(spec, grid, trials=trials, seed=seed, energy=energy,
                               decoder=_DeclaredRecordingDecoder(spec), max_errors=trials)
    blocks = _per_point_inputs(spec, grid, trials=trials, seed=seed, energy=energy,
                               radius=dec.radius, sent_of=spec.representative_batch)
    assert len(dec.inputs) == len(blocks) == 2
    for seen, per_point in zip(dec.inputs, blocks):
        assert np.array_equal(seen, np.vstack(per_point))
    assert len(blocks[1][2]) == 0  # the 15 dB point of block 1 has no row
    assert all(len(rows) for rows in blocks[0] + blocks[1][:2])
    assert 0 < sum(len(rows) for rows in blocks[1]) < 2 * 700


def test_exhaustive_decoder_radius_is_the_multistage_radius_and_holds():
    # noise just inside the radius, in a Gaussian direction or along e0 + e1,
    # leaves the sent point strictly nearest
    for name in ("pair2", "desk8-e8"):
        spec = builtin_spec(name)
        dec = ExhaustiveDecoder(spec)
        assert dec.radius == MultistageDecoder(spec).radius
        x = spec.encode_batch(random_ordinals(spec, 64, seed=15))
        u = np.random.default_rng(15).standard_normal((64, spec.n))
        u[:32] = 0.0
        u[:32, :2] = 1.0
        e = dec.radius * (1 - 1e-9) * u / np.linalg.norm(u, axis=1)[:, None]
        assert np.array_equal(dec.decode_batch(x + e), x), name


def test_wer_sweep_screens_exhaustive_decoders_on_folded_points():
    spec = builtin_spec("pair2")
    energy, seed, grid = average_energy(spec), 9, [10.0, 14.0, 18.0]
    trials = _TRIAL_BLOCK + 900
    dec = _RadiusRecordingDecoder(spec, ExhaustiveDecoder)
    kwargs = dict(trials=trials, seed=seed, energy=energy, max_errors=trials)
    points = wer_sweep(spec, grid, decoder=dec, **kwargs)
    assert points == wer_sweep_reference(spec, grid, decoder=ExhaustiveDecoder(spec), **kwargs)
    blocks = _per_point_inputs(spec, grid, trials=trials, seed=seed, energy=energy,
                               radius=dec.radius, sent_of=spec.encode_batch)
    assert len(dec.inputs) == len(blocks) == 2
    for seen, per_point in zip(dec.inputs, blocks):
        assert np.array_equal(seen, np.vstack(per_point))
    assert 0 < sum(len(v) for v in dec.inputs) < trials
    assert 0 < points[0].errors and points[-1].errors == 0


def test_wer_sweep_at_high_snr_makes_no_decoder_call():
    spec = builtin_spec("desk8-e8")
    energy = average_energy(spec)
    dec = _RadiusRecordingDecoder(spec)
    kwargs = dict(trials=2 * _TRIAL_BLOCK, seed=3, max_errors=10, energy=energy)
    points = wer_sweep(spec, [40.0], decoder=dec, **kwargs)
    assert dec.inputs == []
    assert points == wer_sweep_reference(spec, [40.0], decoder=MultistageDecoder(spec), **kwargs)
    assert points[0].errors == 0 and points[0].trials == 2 * _TRIAL_BLOCK


def test_wer_sweep_refuses_bad_inputs_before_any_draw(monkeypatch):
    spec = builtin_spec("desk8-e8")
    energy = average_energy(spec)
    good = dict(trials=500, seed=1, energy=energy)
    cases = [
        (dict(es_n0_list=[math.nan, 5.0]), "es_n0_list must hold finite values"),
        (dict(es_n0_list=[5.0, math.inf]), "es_n0_list must hold finite values"),
        (dict(energy=math.nan), "energy must be finite and positive"),
        (dict(energy=math.inf), "energy must be finite and positive"),
        (dict(energy=-1.0), "energy must be finite and positive"),
        (dict(energy=0.0), "energy must be finite and positive"),
        (dict(trials=100.5), "trials must be an integer"),
        (dict(trials=100.0), "trials must be an integer"),
        (dict(trials="100"), "trials must be an integer"),
        (dict(max_errors=2.5), "max_errors must be an integer"),
        (dict(max_errors=-3), "max_errors must be positive"),
        (dict(es_n0_list=[4000.0]), "no finite positive sigma"),
    ]
    # the valid calls below are what these bad values were before: a NaN
    # point zeroed the 5 dB point after it
    alone = wer_sweep(spec, [5.0], **good)
    assert alone[0].errors > 0
    assert wer_sweep(spec, [5.0], trials=np.int64(500), seed=1, energy=energy,
                     max_errors=np.int32(200)) == alone

    def no_draw(*args, **kwargs):
        raise AssertionError("a refused sweep drew")

    monkeypatch.setattr("vorlat.simulate._stream", no_draw)
    for change, message in cases:
        kwargs = {"es_n0_list": [5.0], **good, **change}
        grid = kwargs.pop("es_n0_list")
        with pytest.raises(ValueError, match=message):
            wer_sweep(spec, grid, **kwargs)


@pytest.mark.parametrize("name, mode, grid, max_errors", [
    ("desk8-e8", "multistage", [12.0, 14.0, 30.0], 40),
    ("pair2", "exhaustive_ml", [8.0, 12.0, 30.0], 40),
])
def test_wer_sweep_matches_the_reference_through_stops_empty_screens_and_a_short_block(
        name, mode, grid, max_errors):
    # the first point stops at max_errors after its first block, the last
    # point's screen keeps no row of any block, and the last block is short
    spec = builtin_spec(name)
    energy, seed = average_energy(spec), 21
    trials = 2 * _TRIAL_BLOCK + 700
    kwargs = dict(trials=trials, seed=seed, max_errors=max_errors, energy=energy)
    dec = _RadiusRecordingDecoder(spec, type(make_decoder(spec, mode)))
    points = wer_sweep(spec, grid, decoder=dec, **kwargs)
    assert points == wer_sweep_reference(spec, grid, decoder=make_decoder(spec, mode),
                                         **kwargs)
    first, middle, last = points
    assert first.errors >= max_errors and first.trials == _TRIAL_BLOCK
    assert 0 < middle.errors < max_errors and middle.trials == trials
    z = _standard_normals(seed, 0, trials, spec.n)
    assert sigma_for(energy, grid[-1]) ** 2 * (z * z).sum(axis=1).max() < dec.radius**2
    assert last.errors == 0 and last.trials == trials
    assert [len(y) for y in dec.inputs][-1] < 700  # the short block's call


def test_interleaved_sweeps_equal_the_sweeps_run_alone():
    # a sweep keeps no state outside its call: a second sweep run from inside
    # the first one's decoder calls changes neither
    cube, e8 = builtin_spec("desk8-cube"), builtin_spec("desk8-e8")
    outer_kwargs = dict(trials=_TRIAL_BLOCK + 900, seed=5, max_errors=50,
                        energy=average_energy(e8))
    inner_kwargs = dict(trials=2 * _TRIAL_BLOCK + 300, seed=8, max_errors=30,
                        energy=average_energy(cube))
    outer_grid, inner_grid = [12.5, 13.5, 14.5], [13.0, 14.0]
    inner_runs = []

    class Interleaving(MultistageDecoder):
        def lattice_points(self, ys):
            inner_runs.append(wer_sweep(cube, inner_grid, **inner_kwargs))
            return super().lattice_points(ys)

    outer = wer_sweep(e8, outer_grid, decoder=Interleaving(e8), **outer_kwargs)
    assert len(inner_runs) == 2
    assert outer == wer_sweep(e8, outer_grid, **outer_kwargs)
    assert all(run == wer_sweep(cube, inner_grid, **inner_kwargs) for run in inner_runs)
    assert all(p.errors > 0 for p in outer + inner_runs[0])


def test_csv_format():
    spec = builtin_spec("pair2")
    points = wer_sweep(spec, [3.0], trials=500, seed=0)
    text = wer_points_to_csv(points, header_lines=["spec = pair2", "seed = 0"])
    lines = text.strip().split("\n")
    assert lines[0] == "# spec = pair2"
    assert lines[1] == "# seed = 0"
    assert lines[2] == "es_n0_db,wer,errors,trials,ci_low,ci_high"
    assert len(lines) == 4
    assert lines[3].startswith("3,")


def test_db_interpolation_is_log_linear():
    from vorlat.simulate import WerPoint

    def pt(db, wer):
        return WerPoint(db, wer, int(wer * 100000), 100000, 0.0, 1.0)

    points = [pt(1.0, 1e-2), pt(2.0, 1e-4)]
    assert interpolate_db_at_wer(points, 1e-3) == pytest.approx(1.5)
    shifted = [pt(1.6, 1e-2), pt(2.6, 1e-4)]
    assert wer_gap_db(shifted, points, 1e-3) == pytest.approx(0.6)
    with pytest.raises(ValueError, match="does not bracket"):
        interpolate_db_at_wer(points, 1e-6)


def test_complexity_bench_smoke():
    result = complexity_bench(bench_spec_for_dim(8), trials=64, repeats=3)
    assert isinstance(result, BenchResult)
    assert result.dim == 8
    assert result.outputs_match
    assert result.baseline_ns > 0
    assert result.split_encode_ns >= result.code_encode_ns > 0
    assert result.fold_ns > 0


@pytest.mark.parametrize("call, message", [
    (lambda: second_moment_mc(make_quantizer(standard_lattice("E8_int")), 100.5),
     "samples must be an integer"),
    (lambda: second_moment_mc(make_quantizer(standard_lattice("E8_int")), 0),
     "samples must be positive"),
    (lambda: sampled_energy(builtin_spec("desk8-e8"), 100.5), "samples must be an integer"),
    (lambda: sampled_energy(builtin_spec("desk8-e8"), "100"), "samples must be an integer"),
    (lambda: complexity_bench(builtin_spec("desk8-e8"), trials=2.5), "trials must be an integer"),
    (lambda: complexity_bench(builtin_spec("desk8-e8"), trials=0), "trials must be positive"),
    (lambda: complexity_bench(builtin_spec("desk8-e8"), repeats=3.0),
     "repeats must be an integer"),
    (lambda: complexity_bench(builtin_spec("desk8-e8"), repeats=-1), "repeats must be positive"),
], ids=["mc-half", "mc-zero", "energy-half", "energy-str", "bench-trials-half",
        "bench-trials-zero", "bench-repeats-float", "bench-repeats-negative"])
def test_monte_carlo_and_bench_counts_are_refused_by_name(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_monte_carlo_counts_accept_numpy_integers():
    q = make_quantizer(standard_lattice("E8_int"))
    assert second_moment_mc(q, np.int64(300), seed=2) == second_moment_mc(q, 300, seed=2)
    spec = builtin_spec("desk8-e8")
    assert sampled_energy(spec, np.int32(300)) == sampled_energy(spec, 300)


def test_bench_spec_family_structure():
    spec = bench_spec_for_dim(32)
    assert spec.n == 32
    assert spec.rate() == pytest.approx(2.0)
    with pytest.raises(ValueError, match="multiples of 8"):
        bench_spec_for_dim(12)


def test_bench_outputs_match_across_dims():
    for n in (8, 16):
        result = complexity_bench(bench_spec_for_dim(n), trials=32, repeats=3)
        assert result.outputs_match
