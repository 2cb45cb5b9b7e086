"""Acceptance gate: seven system-level checks with pinned tolerances.

Each test records one [PASS]/[FAIL] line (replayed in the terminal summary)
and then asserts. Tolerances are fixed here on purpose; loosening them is a
spec change, not a test fix.
"""

import math

import numpy as np

from vorlat import cli
from vorlat.lattice import Lattice, quotient_order, standard_lattice
from vorlat.quantize import (
    E8FastQuantizer,
    EnumerationQuantizer,
    fold_batch,
    make_quantizer,
)
from vorlat.shaping import BUILTIN_SPECS, builtin_spec
from vorlat.simulate import bench_family, second_moment_mc, wer_gap_db, wer_sweep

from oracles import box_coset_representatives, enumerate_constellation_oracle


def _cli_gain(capsys, lattice: str, samples: int, seed: int = 0):
    code = cli.main([
        "shaping-gain", "--lattice", lattice,
        "--samples", str(samples), "--seed", str(seed),
    ])
    assert code == 0
    data = capsys.readouterr().out.strip().split("\n")[-1].split(",")
    return float(data[2]), float(data[3])


def test_criterion_1_shaping_gain_constants(capsys, criterion_report):
    e8_gain, e8_err = _cli_gain(capsys, "E8_int", 1_000_000)
    leech_gain, leech_err = _cli_gain(capsys, "Leech_int", 100_000)
    cube = second_moment_mc(make_quantizer(standard_lattice("Zn(8)")), 100_000)
    ok = (
        abs(e8_gain - 0.65) <= 0.02
        and abs(leech_gain - 1.03) <= 0.05
        and leech_gain > e8_gain > abs(cube.gain_db())
        and abs(cube.gain_db()) < 0.02
    )
    criterion_report(
        "criterion 1 shaping-gain constants",
        ok,
        f"E8 {e8_gain:.4f}+-{e8_err:.4f} dB (want 0.65+-0.02), "
        f"Leech {leech_gain:.4f}+-{leech_err:.4f} dB (want 1.03+-0.05), "
        f"cube {cube.gain_db():+.4f} dB",
    )


def test_criterion_2_rate_bookkeeping(criterion_report):
    # the count comes from the lattice quotient, not from the spec's own
    # closed-form message_count, so the formula is checked independently
    worst = 0.0
    for name in BUILTIN_SPECS:
        spec = builtin_spec(name)
        m = quotient_order(spec.coding, spec.shaping)
        gap = abs(sum(spec.rate_terms()) - math.log2(m) / spec.n)
        worst = max(worst, gap)
    leech_term = builtin_spec("leech24").rate_terms()[0]
    ok = worst <= 1e-12 and leech_term == 1.5
    criterion_report(
        "criterion 2 rate bookkeeping",
        ok,
        f"max |rate formula - log2(quotient order)/n| = {worst:.2e} over {len(BUILTIN_SPECS)} "
        f"stocked specs (bound 1e-12); 24-dim shaping term = {leech_term} "
        f"(want exactly 1.5 bits/dim)",
    )


def test_criterion_3_representative_completeness(criterion_report):
    spec = builtin_spec("pair2")
    image = {tuple(map(int, p)) for p in spec.enumerate_constellation()}
    oracle = enumerate_constellation_oracle(spec)
    pair_ok = image == oracle and len(image) == spec.message_count == 8

    coding = standard_lattice("Zn(2)")
    shaping = Lattice([[1, 0], [1, 2]])
    m = quotient_order(coding, shaping)
    reps = box_coset_representatives(coding, shaping)
    quant = make_quantizer(shaping)
    folded = {tuple(map(int, p)) for p in fold_batch(quant, np.array(reps))}
    grid = np.array(
        [(i, j) for i in range(-4, 5) for j in range(-4, 5)], dtype=np.int64
    )
    brute = {
        tuple(map(int, p))
        for p, f in zip(grid, fold_batch(quant, grid))
        if np.array_equal(p, f)
    }
    general_ok = folded == brute and len(reps) == m == 2

    ok = pair_ok and general_ok
    criterion_report(
        "criterion 3 representative completeness",
        ok,
        f"2-dim repetition system: fold image == brute force, {len(image)}/8 "
        f"points; general sublattice pair: {len(reps)}/{m} cosets, fold image "
        f"== brute force",
    )


def test_criterion_4_encode_index_bijectivity(capsys, criterion_report):
    spec = builtin_spec("desk8-e8")
    ordinals = spec.all_ordinals()
    points = spec.encode_batch(ordinals)
    distinct = len(np.unique(points, axis=0))
    matches = int((spec.index_batch(points) == ordinals).sum())
    code = cli.main(["roundtrip", "--spec", "desk8-e8"])
    out = capsys.readouterr().out.strip()
    ok = (
        distinct == spec.message_count == 65536
        and matches == 65536
        and code == 0
        and out == "65536/65536 ok"
    )
    criterion_report(
        "criterion 4 encode/index bijectivity",
        ok,
        f"{distinct}/65536 distinct points, {matches}/65536 index round trips, "
        f"cli reported {out!r}",
    )


def test_criterion_5_fast_quantizer_equivalence(criterion_report):
    lat = standard_lattice("E8_int")
    fast = E8FastQuantizer(lat)
    enum = EnumerationQuantizer(lat)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-8.0, 8.0, (10_000, 8))
    fast_pts = fast.quantize_batch(pts)
    enum_pts = enum.quantize_batch(pts)
    d_fast = ((pts - fast_pts) ** 2).sum(axis=1)
    d_enum = ((pts - enum_pts) ** 2).sum(axis=1)
    worst = float(np.abs(d_fast - d_enum).max())
    differ = np.any(fast_pts != enum_pts, axis=1)
    # a differing point is legitimate only as a tie: equal distances
    tie_ok = bool(np.all(np.abs(d_fast[differ] - d_enum[differ]) <= 1e-9))
    ok = worst <= 1e-9 and tie_ok
    criterion_report(
        "criterion 5 fast-quantizer equivalence",
        ok,
        f"10000 points in [-8,8]^8: max |d_fast - d_enum| = {worst:.2e} "
        f"(bound 1e-9), {int(differ.sum())} point mismatches, all ties",
    )


def test_criterion_6_desk_wer_shaping_gap(criterion_report):
    grid = [13.0, 13.5, 14.0, 14.5, 15.0]
    seed = 2026
    cube = wer_sweep(
        builtin_spec("desk8-cube"), grid, trials=200_000, seed=seed, max_errors=400
    )
    e8 = wer_sweep(
        builtin_spec("desk8-e8"), grid, trials=200_000, seed=seed, max_errors=400
    )
    gap = wer_gap_db(cube, e8, target_wer=1e-3)
    ok = 0.4 <= gap <= 0.8
    criterion_report(
        "criterion 6 desk WER shaping gap",
        ok,
        f"paired multistage sweeps at rate 2.0 bits/dim: cube vs E8 gap at "
        f"WER 1e-3 = {gap:.3f} dB (band [0.4, 0.8])",
    )


def test_criterion_7_encode_complexity(criterion_report):
    results = bench_family(trials=256, repeats=25, seed=0)
    per_dim = [r.baseline_ns / r.dim for r in results]
    monotone = all(a < b for a, b in zip(per_dim, per_dim[1:]))
    growth = results[-1].baseline_ns / results[0].baseline_ns
    superlinear = growth > results[-1].dim / results[0].dim
    shares = [r.code_encode_ns / r.split_encode_ns for r in results]
    tracks = all(s > 0.5 for s in shares)
    outputs = all(r.outputs_match for r in results)
    ok = monotone and superlinear and tracks and outputs
    criterion_report(
        "criterion 7 encode complexity",
        ok,
        f"dense-multiply ns/dim {per_dim[0]:.1f} -> {per_dim[-1]:.1f} over "
        f"n=8..512 (monotone={monotone}, total growth {growth:.0f}x), "
        f"code-encode share of the non-fold path {min(shares):.2f}..{max(shares):.2f} "
        f"(all > 0.5), outputs identical={outputs}",
    )
