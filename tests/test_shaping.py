"""Constellation construction, indexing, and spec files."""

import functools
import math
import re
import tracemalloc

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from vorlat.codes import (
    BUILTIN_CHAINS,
    CodeChain,
    LinearCode,
    builtin_chain,
    make_rep_spc_chain,
    nested_basis,
    verify_carry_closure,
)
from vorlat.intmat import hnf_from_spanning
from vorlat.lattice import Lattice, quotient_order, standard_lattice
from vorlat.quantize import fold_batch, make_quantizer
from vorlat.shaping import (
    BUILTIN_SPECS,
    VoronoiCodeSpec,
    builtin_spec,
    construction_d_lattice,
    get_spec,
    load_spec,
)
from vorlat.simulate import bench_spec_for_dim, random_ordinals

from oracles import (
    box_coset_representatives,
    contains_point,
    enumerate_constellation_oracle,
    index_reference,
    representative_reference,
)

# hand-checked: the 8 coding-lattice points inside the Voronoi region of 4Z^2
# for the two-symbol repetition system (ties resolved toward smaller points)
PAIR2_POINTS = {
    (-2, -2), (-2, 0), (-1, -1), (-1, 1), (0, -2), (0, 0), (1, -1), (1, 1),
}


def test_construction_d_volumes_and_diagonals():
    lat2 = construction_d_lattice(builtin_chain("rep2"))
    assert lat2.diag() == (1, 2)
    assert lat2.volume == 2

    lat8 = construction_d_lattice(builtin_chain("rep8-spc8"))
    assert lat8.volume == 256
    assert lat8.diag() == (1, 2, 2, 2, 2, 2, 2, 4)

    lat_ham = construction_d_lattice(builtin_chain("rep8-ham8-spc8"))
    assert lat_ham.volume == 4096

    lat24 = construction_d_lattice(builtin_chain("rep24-spc24"))
    assert lat24.volume == 2**24


def _assert_matches_generic_hnf(chain):
    """Same triangular generator as the generic spanning-set reduction."""
    rows, levels, _ = nested_basis(chain)
    cols = [[v * chain.q**lvl for v in row] for row, lvl in zip(rows, levels)]
    qa = chain.q**chain.a
    for m in range(chain.n):
        e = [0] * chain.n
        e[m] = qa
        cols.append(e)
    reference = hnf_from_spanning(cols)
    built = construction_d_lattice(chain)
    assert built.triangular_generator.tolist() == reference.tolist()


def _prefix_chain(q, rows, dims):
    """Chain whose level-i code is spanned by the first dims[i] rows."""
    return CodeChain([LinearCode(rows[:k], q) for k in dims])


@st.composite
def nested_chains(draw):
    """Random nested chains: q in {2, 3, 5}, 1..3 levels, length 2..8."""
    q = draw(st.sampled_from([2, 3, 5]))
    a = draw(st.integers(1, 3))
    n = draw(st.integers(2, 8))
    rows = []
    for row in draw(hnp.arrays(np.int64, (n, n), elements=st.integers(0, q - 1))).tolist():
        try:
            LinearCode(rows + [row], q)
        except ValueError:  # dependent on the rows kept so far
            continue
        rows.append(row)
    assume(rows)
    dims = sorted(draw(st.lists(st.integers(1, len(rows)), min_size=a, max_size=a)))
    return _prefix_chain(q, rows, dims)


def test_construction_d_matches_generic_hnf():
    for name in BUILTIN_CHAINS:
        _assert_matches_generic_hnf(builtin_chain(name))
    # 2^20 < q^a < 2^31 (the int64 sweep), then q^a >= 2^31 (Python ints),
    # up to moduli that do not fit int64 at all
    rows = [[1, 1, 1, 1, 1, 1], [0, 1, 2, 0, 1, 2], [0, 0, 1, 1, 2, 2], [0, 0, 0, 1, 0, 1]]
    for q, a in ((2, 25), (3, 13), (2, 31), (3, 20), (5, 14), (2, 64), (3, 41)):
        dims = [1 + 3 * i // a for i in range(a)]  # 1 to 3 rows, nested
        _assert_matches_generic_hnf(_prefix_chain(q, [[v % q for v in r] for r in rows], dims))


@settings(max_examples=150, deadline=None)
@given(chain=nested_chains())
def test_construction_d_matches_generic_hnf_on_random_chains(chain):
    _assert_matches_generic_hnf(chain)


def _carries_close(chain):
    try:
        verify_carry_closure(chain)
    except ValueError:
        return False
    return True


@settings(max_examples=100, deadline=None)
@given(chain=nested_chains(), base=st.sampled_from(["Zn", "Dn"]), alpha=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
# a q = 3 level below a box of power-of-two radices
@example(chain=_prefix_chain(3, [[1, 2]], [1]), base="Zn", alpha=2, seed=0)
def test_codec_is_a_bijection_on_random_specs(chain, base, alpha, seed):
    """Single-level chains of any q, and q = 2 chains whose carries close."""
    assume(chain.a == 1 or (chain.q == 2 and _carries_close(chain)))
    spec = VoronoiCodeSpec(chain, standard_lattice(f"{base}({chain.n})"), alpha=alpha)
    assert spec.message_count == quotient_order(spec.coding, spec.shaping)
    ords = np.random.default_rng(seed).integers(0, spec.message_count, 64, dtype=np.int64)
    assert np.array_equal(spec.representative_batch(ords), representative_reference(spec, ords))
    assert np.array_equal(spec.index_batch(spec.encode_batch(ords)), ords)
    if spec.message_count <= 2**12:
        points = spec.enumerate_constellation()
        assert len(np.unique(points, axis=0)) == spec.message_count


def test_construction_d_contains_scaled_codewords():
    chain = builtin_chain("rep8-spc8")
    lat = construction_d_lattice(chain)
    rng = np.random.default_rng(7)
    for _ in range(20):
        parts = np.zeros(8, dtype=np.int64)
        for level, code in enumerate(chain.codes):
            msg = rng.integers(0, 2, code.k)
            parts += 2**level * code.encode_batch([msg])[0]
        parts += 4 * rng.integers(-3, 4, 8)
        assert contains_point(lat, parts)


def test_pair2_basic_facts():
    spec = builtin_spec("pair2")
    assert spec.message_count == 8
    assert spec.rate() == pytest.approx(1.5)
    assert spec.s_box == (2, 2)
    pts = spec.enumerate_constellation()
    assert {tuple(map(int, p)) for p in pts} == PAIR2_POINTS
    assert len({tuple(p) for p in pts.tolist()}) == 8


def test_pair2_matches_brute_force_oracle():
    spec = builtin_spec("pair2")
    oracle = enumerate_constellation_oracle(spec)
    image = {tuple(map(int, p)) for p in spec.enumerate_constellation()}
    assert image == oracle


def test_pair2_index_inverts_encode():
    spec = builtin_spec("pair2")
    ords = spec.all_ordinals()
    pts = spec.encode_batch(ords)
    assert np.array_equal(spec.index_batch(pts), ords)
    # float input with tiny perturbation is accepted
    assert np.array_equal(spec.index_batch(pts + 1e-12), ords)


def test_representatives_fill_the_box():
    spec = builtin_spec("pair2")
    reps = spec.representative_batch(spec.all_ordinals())
    hi = spec.qa * np.array(spec.s_box) + spec._offset_np
    assert reps.min() >= 0
    assert np.all(reps.max(axis=0) < hi)
    assert len({tuple(r) for r in reps.tolist()}) == spec.message_count


def test_general_shaping_sublattice_cosets():
    """Indexing works for any nested pair, not only scaled copies."""
    coding = standard_lattice("Zn(2)")
    shaping = Lattice([[1, 0], [1, 2]])  # even-coordinate-sum sublattice of Z^2
    assert quotient_order(coding, shaping) == 2
    reps = box_coset_representatives(coding, shaping)
    assert reps == [(0, 0), (0, 1)]
    folded = fold_batch(make_quantizer(shaping), np.array(reps, dtype=np.int64))
    assert {tuple(map(int, p)) for p in folded} == {(0, 0), (1, 0)}


def test_desk8_e8_counts_and_rate():
    spec = builtin_spec("desk8-e8")
    assert spec.message_count == 65536
    assert spec.rate_terms() == pytest.approx((1.0, 1.0))
    assert spec.rate() == pytest.approx(2.0)


def test_desk8_e8_round_trip_subset():
    spec = builtin_spec("desk8-e8")
    rng = np.random.default_rng(21)
    ords = rng.integers(0, spec.message_count, 512, dtype=np.int64)
    pts = spec.encode_batch(ords)
    assert np.array_equal(spec.index_batch(pts), ords)
    # one message at a time, as README shows it: a batch of one
    for o, p in zip(ords[:8], pts):
        point = spec.encode_batch([o])[0]
        assert np.array_equal(point, p)
        assert spec.index_batch(point[None]).tolist() == [o]


def test_stock_spec_rates():
    expected = {
        "pair2": (1.0, 0.5),
        "desk8-e8": (1.0, 1.0),
        "desk8-cube": (1.0, 1.0),
        "desk8-ham": (1.0, 1.5),
        "leech24": (1.5, 1.0),
    }
    for name in BUILTIN_SPECS:
        spec = builtin_spec(name)
        assert spec.rate_terms() == pytest.approx(expected[name])
        # the identity behind the terms, to full double precision
        assert sum(spec.rate_terms()) == pytest.approx(
            math.log2(spec.message_count) / spec.n, abs=1e-12
        )


def test_leech24_message_count():
    spec = builtin_spec("leech24")
    assert spec.message_count == 2**60
    assert spec.rate() == pytest.approx(2.5)


def test_index_rejects_foreign_points():
    spec = builtin_spec("pair2")
    with pytest.raises(ValueError, match="non-integer input"):
        spec.index_batch(np.array([[0.4, 0.0]]))
    with pytest.raises(ValueError, match="leave the code"):
        spec.index_batch(np.array([[1, 0]]))
    desk = builtin_spec("desk8-e8")
    for points in (np.zeros((2, 9), np.int64), np.zeros((2, 7)), np.zeros(8, np.int64)):
        with pytest.raises(ValueError, match="points must be rows of length 8"):
            desk.index_batch(points)


def test_offset_translates_the_constellation():
    plain = builtin_spec("pair2")
    spec = VoronoiCodeSpec(
        builtin_chain("rep2"), standard_lattice("Zn(2)"), alpha=2, offset=(1, 1)
    )
    assert spec.message_count == plain.message_count
    ords = spec.all_ordinals()
    pts = spec.encode_batch(ords)
    assert np.array_equal(spec.index_batch(pts), ords)
    # every point is congruent to the offset modulo the coding lattice
    for p in pts:
        assert contains_point(spec.coding, p - np.array([1, 1]))
    assert {tuple(map(int, p)) for p in pts} == enumerate_constellation_oracle(spec)


def test_offset_length_checked():
    with pytest.raises(ValueError, match="offset length"):
        VoronoiCodeSpec(
            builtin_chain("rep2"), standard_lattice("Zn(2)"), alpha=2, offset=(1,)
        )


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError, match="does not match shaping dimension"):
        VoronoiCodeSpec(builtin_chain("rep8-spc8"), standard_lattice("Zn(4)"))


def test_carry_closure_enforced_for_multilevel_chains():
    inner = LinearCode([[1, 1, 0, 0], [0, 1, 1, 0]])
    chain = CodeChain([inner, inner])
    with pytest.raises(ValueError, match="carry words from level 0"):
        VoronoiCodeSpec(chain, standard_lattice("Zn(4)"), alpha=2)


def test_copies_build_block_systems():
    spec = VoronoiCodeSpec(
        make_rep_spc_chain(16), standard_lattice("E8_int"), copies=2
    )
    assert spec.n == 16
    assert spec.message_count == 65536**2
    assert spec.rate() == pytest.approx(2.0)
    rng = np.random.default_rng(5)
    ords = rng.integers(0, 1 << 30, 64, dtype=np.int64)
    assert np.array_equal(spec.index_batch(spec.encode_batch(ords)), ords)


def test_enumeration_guard():
    spec = builtin_spec("leech24")
    with pytest.raises(ValueError, match="more than the enumeration bound"):
        spec.all_ordinals()


def test_builtin_spec_unknown_name():
    with pytest.raises(ValueError, match="unknown constellation"):
        builtin_spec("desk9")


def test_spec_file_round_trip(tmp_path):
    path = tmp_path / "toy.vspec"
    path.write_text(
        "# comment line\n"
        "chain = rep8-spc8\n"
        "base = E8_int\n"
        "name = mine\n"
    )
    spec = load_spec(path)
    assert spec.name == "mine"
    assert spec.message_count == 65536
    stock = builtin_spec("desk8-e8")
    assert np.array_equal(
        spec.encode_batch(range(100)), stock.encode_batch(range(100))
    )


def test_spec_file_with_file_references(tmp_path):
    (tmp_path / "c.chain").write_text("2 1 2\n2\n1 0\n0 1\n")
    (tmp_path / "b.mat").write_text("2 2\n1 0\n0 1\n")
    (tmp_path / "sys.vspec").write_text("chain = c.chain\nbase = b.mat\n")
    spec = load_spec(tmp_path / "sys.vspec")
    # trivial full code: constellation is Z^2 inside the Voronoi region of 2Z^2
    assert spec.message_count == 4
    pts = {tuple(map(int, p)) for p in spec.enumerate_constellation()}
    assert pts == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_spec_file_errors(tmp_path):
    cases = [
        ("chain rep2\n", "expected key = value"),
        ("chain = rep2\nchain = rep2\n", "duplicate key"),
        ("chain = rep2\nbase = Zn\\(2\\)\nwhat = 1\n", "unknown keys"),
        ("base = Zn\\(2\\)\n", "missing required key 'chain'"),
        ("chain = rep2\nbase = Zn\\(2\\)\nalpha = x\n", "alpha must be an integer"),
        ("chain = rep2\nbase = Zn\\(2\\)\ncopies = 0\n", "copies must be positive"),
        ("chain = nope\nbase = Zn\\(2\\)\n", "neither stock nor a readable file"),
        ("chain = rep2\nbase = nope.mat\n", "neither stock nor a readable file"),
    ]
    for i, (text, message) in enumerate(cases):
        path = tmp_path / f"bad{i}.vspec"
        path.write_text(text.replace("\\(", "(").replace("\\)", ")"))
        with pytest.raises(ValueError, match=message):
            load_spec(path)


def test_get_spec_stock_and_path(tmp_path):
    assert get_spec("pair2").message_count == 8
    path = tmp_path / "x.vspec"
    path.write_text("chain = rep2\nbase = Zn(2)\nalpha = 2\n")
    assert get_spec(str(path)).message_count == 8
    with pytest.raises(ValueError, match="not a stock constellation"):
        get_spec("missing-system")


@functools.cache
def _stock_spec(name):
    return builtin_spec(name)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_same_message_matches_index_equality(data):
    spec = _stock_spec(data.draw(st.sampled_from(
        ["pair2", "desk8-cube", "desk8-e8", "desk8-ham", "leech24"])))
    rows = data.draw(st.integers(1, 5))
    ordinal_rows = st.lists(st.integers(0, spec.message_count - 1),
                            min_size=rows, max_size=rows)
    ords = np.array(data.draw(ordinal_rows), dtype=np.int64)
    x = spec.encode_batch(ords)
    coeffs = data.draw(hnp.arrays(np.int64, (rows, spec.n), elements=st.integers(-3, 3)))
    kind = data.draw(st.sampled_from(["shaping shift", "other point", "coding shift"]))
    if kind == "shaping shift":
        p = x + coeffs @ spec.shaping.triangular_generator.to_int64().T
    elif kind == "other point":
        keep = data.draw(hnp.arrays(np.bool_, rows))
        p = spec.encode_batch(np.where(keep, ords, np.array(data.draw(ordinal_rows))))
    else:
        p = x + coeffs @ spec.coding.triangular_generator.to_int64().T
    same = spec.same_message(p, x)
    assert np.array_equal(same, spec.index_batch(p) == spec.index_batch(x))
    if kind == "shaping shift":
        assert same.all()


# ---------------------------------------------------------------------------
# the ordinal path against the digit-by-digit reference loops


@pytest.mark.parametrize("name", BUILTIN_SPECS)
def test_encode_and_index_match_digit_loop_references(name):
    spec = _stock_spec(name)
    m = spec.message_count
    rng = np.random.default_rng(17)
    ords = np.concatenate([[0, m - 1], rng.integers(0, m, 5000, dtype=np.int64)])
    reps = spec.representative_batch(ords)
    assert np.array_equal(reps, representative_reference(spec, ords))
    pts = spec.encode_batch(ords)
    assert np.array_equal(pts, fold_batch(spec._quantizer, reps))
    back = spec.index_batch(pts)
    assert np.array_equal(back, index_reference(spec, pts))
    assert np.array_equal(back, ords)
    # ordinals outside [0, M) or not integers are refused, not wrapped
    for bad in (-1, m, m + 5, -m - 3):
        with pytest.raises(ValueError, match=f"message ordinal {bad} outside"):
            spec.encode_batch(np.append(ords[:3], bad))
    with pytest.raises(ValueError, match="message ordinal 9223372036854775808 outside"):
        spec.representative_batch(np.array([0, 2**63], dtype=np.uint64))
    with pytest.raises(ValueError, match="must be integers"):
        spec.representative_batch([0.0, 1.7])


_ORDINAL_PATH_SPECS = (
    *BUILTIN_SPECS,
    "desk8-e8+offset",
    # a box of 8^4 values, split by powers of two at places 3^j
    "q3-box-split",
    # two small units that a split level keeps apart
    "rep10-spc10-d10",
    # no small unit: a one-row table holds the offset
    "f2^9-over-2z9+offset",
)


@functools.cache
def _ordinal_path_spec(name):
    if name == "desk8-e8+offset":
        return VoronoiCodeSpec(builtin_chain("rep8-spc8"), standard_lattice("E8_int"),
                               offset=(3, -1, 0, 7, -2, 0, 1, -5))
    if name == "q3-box-split":
        return VoronoiCodeSpec(_prefix_chain(3, [[1, 1, 1, 1]], [1]),
                               standard_lattice("Zn(4)"), alpha=8)
    if name == "rep10-spc10-d10":
        return VoronoiCodeSpec(make_rep_spc_chain(10), standard_lattice("Dn(10)"))
    if name == "f2^9-over-2z9+offset":
        return VoronoiCodeSpec(_prefix_chain(2, np.eye(9, dtype=int).tolist(), [9]),
                               standard_lattice("Zn(9)"), alpha=2, offset=range(-4, 5))
    return _stock_spec(name)


@pytest.mark.parametrize("name", _ORDINAL_PATH_SPECS)
def test_ordinal_path_matches_the_digit_peeling_reference(name):
    spec = _ordinal_path_spec(name)
    m = spec.message_count
    rng = np.random.default_rng(23)
    picks = rng.integers(0, m, 2 * 4097, dtype=np.int64)
    picks[:2] = [0, m - 1]
    for ords in (picks[:0], picks[:1], picks[1:2], picks[:4097], picks[::2]):
        reps = spec.representative_batch(ords)
        assert reps.shape == (len(ords), spec.n) and reps.dtype == np.int64
        assert reps.flags.c_contiguous
        assert np.array_equal(reps, representative_reference(spec, ords))
        pts = spec.encode_batch(ords)
        back = spec.index_batch(pts)
        assert np.array_equal(back, index_reference(spec, pts))
        assert np.array_equal(back, ords)
    lookups, _ = spec._encode_plan
    assert all(len(table) <= 256 for table, *_ in lookups)


@pytest.mark.parametrize("name, encoder_calls", [
    ("pair2", 0), ("desk8-e8", 0), ("desk8-cube", 0), ("desk8-ham", 0), ("leech24", 1),
])
def test_small_code_levels_encode_by_lookup(name, encoder_calls, monkeypatch):
    """Once the tables are built, only levels past the table size call their code."""
    spec = _stock_spec(name)
    ords = np.array([0, 1, spec.message_count - 1], dtype=np.int64)
    spec.encode_batch(ords)
    calls = []
    original = LinearCode.encode_batch

    def counted(code, messages):
        calls.append(code)
        return original(code, messages)

    monkeypatch.setattr(LinearCode, "encode_batch", counted)
    spec.encode_batch(ords)
    assert len(calls) == encoder_calls
    assert all(code.k == 23 for code in calls)  # leech24's spc24 level


@pytest.mark.parametrize("ordinals", [np.zeros((2, 3), np.int64), np.int64(5)])
def test_ordinal_arrays_that_are_not_1d_are_refused(ordinals):
    spec = _stock_spec("desk8-e8")
    with pytest.raises(ValueError, match=re.escape(f"1-d array, got shape {ordinals.shape}")):
        spec.encode_batch(ordinals)
    empty = spec.encode_batch(np.zeros(0, np.int64))
    assert empty.shape == (0, 8) and empty.dtype == np.int64


@functools.cache
def _desk8_spec(base, copies, alpha, offset):
    return VoronoiCodeSpec(builtin_chain("rep8-spc8"), standard_lattice(base),
                           alpha=alpha, copies=copies, offset=offset)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_digit_table_matches_references_on_random_specs(data):
    base, copies = data.draw(st.sampled_from([("E8_int", 1), ("Dn(4)", 2), ("Zn(2)", 4)]))
    alpha = data.draw(st.integers(1, 32))
    offset = tuple(data.draw(st.lists(st.integers(-5, 5), min_size=8, max_size=8)))
    spec = _desk8_spec(base, copies, alpha, offset)
    m = spec.message_count
    assert m <= 2**56
    ords = np.array(data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=6))
                    + [0, m - 1], dtype=np.int64)
    reps = spec.representative_batch(ords)
    assert np.array_equal(reps, representative_reference(spec, ords))
    pts = spec.encode_batch(ords)
    back = spec.index_batch(pts)
    assert np.array_equal(back, index_reference(spec, pts))
    assert np.array_equal(back, ords)


@pytest.mark.parametrize("alpha, log2_m", [(64, 64), (2**40, 336)])
def test_specs_past_the_int64_ordinal_limit_are_refused(alpha, log2_m):
    spec = VoronoiCodeSpec(builtin_chain("rep8-spc8"), standard_lattice("E8_int"),
                           alpha=alpha)
    assert spec.message_count == 2**log2_m
    assert spec.rate() == pytest.approx(log2_m / 8)
    limit = "int64 ordinal limit 2\\^63"
    with pytest.raises(ValueError, match=limit):
        spec.encode_batch(np.zeros(1, dtype=np.int64))
    with pytest.raises(ValueError, match=limit):
        spec.index_batch(np.zeros((1, 8), dtype=np.int64))
    with pytest.raises(ValueError, match=limit):
        random_ordinals(spec, 4, seed=0)
    # same_message forms no ordinal, so it still works past the limit
    x = np.zeros((1, 8), dtype=np.int64)
    shaping_row = spec.shaping.triangular_generator.to_int64()[:, [3]].T
    coding_row = spec.coding.triangular_generator.to_int64()[:, [3]].T
    assert spec.same_message(x + shaping_row, x).tolist() == [True]
    assert spec.same_message(x + coding_row, x).tolist() == [False]


def test_specs_whose_representatives_reach_2_to_the_52_are_refused():
    """The fold rounds float64 copies of the representatives: at offset
    2^53 + 1 half of desk8-e8's index round trips failed silently."""
    chain, e8 = builtin_chain("rep8-spc8"), standard_lattice("E8_int")
    # desk8-e8 coordinates span [offset_j, offset_j + 15]
    for offset in ([2**53 + 1] * 8, [2**52 - 15] * 8, [-(2**52)] * 8):
        with pytest.raises(ValueError, match="float64 fold limit 2\\^52"):
            VoronoiCodeSpec(chain, e8, offset=offset)
    for offset in ([2**52 - 16] * 8, [1 - 2**52] * 8):
        spec = VoronoiCodeSpec(chain, e8, offset=offset)
        ords = random_ordinals(spec, 4096, seed=5)
        assert np.array_equal(spec.index_batch(spec.encode_batch(ords)), ords)


def test_stock_and_bench_specs_are_inside_the_float_fold_limit():
    for name in BUILTIN_SPECS:
        builtin_spec(name)
    for n in (8, 16, 32, 64, 128, 256, 512):
        bench_spec_for_dim(n)


def _peak_bytes(call):
    """tracemalloc peak of one call."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_desk8_e8_encode_memory_is_three_batch_arrays_plus_one_block():
    """The representative, its float64 quotient by alpha and the output are
    the only (rows, n) arrays: the quantizers and the fold write into the
    array they return, and the E8 kernel works in one block's buffers."""
    spec = builtin_spec("desk8-e8")
    ords = random_ordinals(spec, 4096, seed=6)
    spec.encode_batch(ords)  # builds the lookup tables
    peak = _peak_bytes(lambda: spec.encode_batch(ords))
    assert peak < 3 * ords.size * 8 * 8 + (384 << 10)


def test_leech24_representative_memory_is_the_output_plus_one_temporary():
    spec = builtin_spec("leech24")
    ords = random_ordinals(spec, 4096, seed=6)
    spec.representative_batch(ords)  # builds the lookup table
    peak = _peak_bytes(lambda: spec.representative_batch(ords))
    assert peak < 2 * ords.size * 24 * 8


def test_unit_layout_with_a_level_wider_than_int64():
    """`_units` keeps its place values in Python integers past 2^63; only the
    int64 digit tables are refused there."""
    spec = VoronoiCodeSpec(make_rep_spc_chain(66), standard_lattice("Zn(66)"))
    assert spec.chain.dims() == (1, 65)
    m = spec.message_count
    assert m == 2**66
    (places0, radices0, *_), (places1, radices1, *_), (box_places, box_radices, *_) = spec._units
    assert (places0, radices0) == ([1], [2])
    assert (places1, radices1) == ([2**j for j in range(65, 0, -1)], [2] * 65)
    assert box_radices == [1] * 66 and set(box_places) == {m}
    # the last ordinal's digits are each radix less one
    assert sum(p * (r - 1) for places, radices, *_ in spec._units
               for p, r in zip(places, radices)) == m - 1
    with pytest.raises(ValueError, match="int64 ordinal limit 2\\^63"):
        spec._radix


@pytest.mark.parametrize("name", BUILTIN_SPECS)
def test_unit_layout_agrees_with_the_digit_table(name):
    """The int64 split and join of each unit read the Python-int layout of
    `_units`: digit d of ordinal o is o // places[d] % radices[d]."""
    spec = _stock_spec(name)
    m = spec.message_count
    rng = np.random.default_rng(19)
    ords = np.concatenate([[0, 1, m - 1], rng.integers(0, m, 200, dtype=np.int64)])
    blocks = [radix.split(ords) for radix in spec._radix]
    for i, ordinal in enumerate(ords.tolist()):
        assert [[ordinal // p % r for p, r in zip(places, radices)]
                for places, radices, *_ in spec._units] == [b[i].tolist() for b in blocks]
    assert np.array_equal(sum(r.join(b) for r, b in zip(spec._radix, blocks)), ords)


@pytest.mark.parametrize("rows", [
    [[2**70] * 8],
    [[-(2**63) - 1] + [0] * 7],
    np.full((1, 8), 2**63, dtype=np.uint64),
    np.full((1, 8), 1e19),
    np.full((1, 8), -1e19),
], ids=["python-int", "below-int64", "uint64", "float", "negative-float"])
def test_index_and_same_message_refuse_entries_outside_int64(rows):
    """They used to raise OverflowError, or wrap a uint64 2^63 to -2^63."""
    spec = builtin_spec("desk8-e8")
    zero = np.zeros((1, 8), dtype=np.int64)
    limit = r"int64 range \[-2\^63, 2\^63\)"
    with pytest.raises(ValueError, match=limit):
        spec.index_batch(rows)
    with pytest.raises(ValueError, match=limit):
        spec.same_message(rows, zero)
    with pytest.raises(ValueError, match=limit):
        spec.same_message(zero, rows)


def test_index_and_same_message_read_integer_rows_of_any_width():
    spec = builtin_spec("desk8-e8")
    ords = random_ordinals(spec, 64, seed=8)
    pts = spec.encode_batch(ords)
    for rows in (pts.astype(np.int8), pts.astype(np.float32), pts.tolist(),
                 np.array(pts.tolist(), dtype=object)):
        assert np.array_equal(spec.index_batch(rows), ords)
        assert spec.same_message(rows, pts).all()
    assert spec.same_message(np.zeros((2, 8), np.uint64), np.zeros((2, 8), np.int8)).all()
    with pytest.raises(ValueError, match="non-integer input"):
        spec.same_message(pts + 0.5, pts)
    with pytest.raises(ValueError, match="rows of length 8"):
        spec.same_message(pts[:, :7], pts[:, :7])
