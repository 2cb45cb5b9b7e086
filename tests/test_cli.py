"""End-to-end checks of the command line interface."""

import tracemalloc

import pytest

from vorlat import cli
from vorlat.shaping import VoronoiCodeSpec


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_roundtrip_small_system(capsys):
    code, out, err = run(capsys, "roundtrip", "--spec", "pair2")
    assert code == 0
    assert out.strip() == "8/8 ok"
    assert err == ""


def test_roundtrip_full_desk_system(capsys):
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "roundtrip", "--spec", "desk8-e8")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert out.strip() == "65536/65536 ok"
    assert peak < 8 << 20  # blocks of points, not all 65536 at once


def test_roundtrip_large_system_needs_sampling(capsys):
    code, out, err = run(capsys, "roundtrip", "--spec", "leech24")
    assert code == 1
    assert "pass --trials" in err

    code, out, err = run(capsys, "roundtrip", "--spec", "leech24",
                         "--trials", "200", "--seed", "3")
    assert code == 0
    assert out.strip() == "200/200 ok"


def test_roundtrip_mismatch_exits_two(capsys, monkeypatch):
    original = VoronoiCodeSpec.index_batch

    def corrupted(self, points):
        ords = original(self, points)
        ords[0] ^= 1
        return ords

    monkeypatch.setattr(VoronoiCodeSpec, "index_batch", corrupted)
    code, out, err = run(capsys, "roundtrip", "--spec", "pair2")
    assert code == 2
    assert "7/8 ok" in err


def test_shaping_gain_csv(capsys):
    code, out, err = run(capsys, "shaping-gain", "--lattice", "E8_int",
                         "--samples", "5000", "--seed", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "# lattice = E8_int"
    assert lines[3] == "nsm,nsm_stderr,gain_db,gain_stderr_db"
    gain = float(lines[4].split(",")[2])
    assert 0.3 < gain < 1.0
    code2, out2, _ = run(capsys, "shaping-gain", "--lattice", "E8_int",
                         "--samples", "5000", "--seed", "2")
    assert out2 == out


def test_wer_csv_to_file(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code, out, err = run(capsys, "wer", "--spec", "pair2",
                         "--sweep", "2:6:2", "--trials", "2000",
                         "--seed", "5", "--out", str(out_file))
    assert code == 0
    assert out == ""
    text = out_file.read_text()
    lines = text.strip().split("\n")
    assert "# spec = pair2" in lines
    assert "# seed = 5" in lines
    assert any("sigma^2 = Es/" in ln for ln in lines)
    assert "es_n0_db,wer,errors,trials,ci_low,ci_high" in lines
    data = [ln for ln in lines if not ln.startswith("#")][1:]
    assert len(data) == 3
    assert [ln.split(",")[0] for ln in data] == ["2", "4", "6"]
    # byte-identical on rerun with the same seed
    out_file2 = tmp_path / "sweep2.csv"
    run(capsys, "wer", "--spec", "pair2", "--sweep", "2:6:2",
        "--trials", "2000", "--seed", "5", "--out", str(out_file2))
    assert out_file2.read_text() == text


@pytest.mark.parametrize("argv, work", [
    (["shaping-gain", "--lattice", "E8_int", "--samples", "10"], "second_moment_mc"),
    (["wer", "--spec", "pair2", "--sweep", "2:2:1", "--trials", "10"], "wer_sweep"),
])
def test_out_in_a_missing_directory_is_refused_before_any_work(tmp_path, capsys,
                                                              monkeypatch, argv, work):
    def unreachable(*args, **kwargs):
        raise AssertionError(f"{work} ran before --out was checked")

    monkeypatch.setattr(cli, work, unreachable)
    path = tmp_path / "missing" / "x.csv"
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"vorlat {argv[0]}: cannot write {path}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_out_that_cannot_be_written_is_reported_in_one_line(tmp_path, capsys):
    code, out, err = run(capsys, "shaping-gain", "--lattice", "E8_int", "--samples", "10",
                         "--out", str(tmp_path))  # a directory, not a file
    assert code == 1
    assert out == ""
    assert err.startswith(f"vorlat shaping-gain: cannot write {tmp_path}: ")
    assert err.count("\n") == 1


def test_wer_exhaustive_mode(capsys):
    code, out, _ = run(capsys, "wer", "--spec", "pair2", "--sweep", "4:4:1",
                       "--trials", "500", "--mode", "exhaustive_ml")
    assert code == 0
    assert out.count("\n") == 9  # 7 header lines, column row, one data row


def test_wer_fractional_step(capsys):
    code, out, _ = run(capsys, "wer", "--spec", "pair2",
                       "--sweep", "13:14:0.5", "--trials", "200")
    assert code == 0
    data = [ln for ln in out.strip().split("\n") if not ln.startswith("#")][1:]
    assert [ln.split(",")[0] for ln in data] == ["13", "13.5", "14"]


def test_empty_sweep_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["wer", "--spec", "pair2", "--sweep", "5:3:1", "--trials", "10"])
    assert info.value.code == 1
    assert "sweep is empty" in capsys.readouterr().err


def test_malformed_sweep_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["wer", "--spec", "pair2", "--sweep", "abc", "--trials", "10"])
    assert info.value.code == 1


@pytest.mark.parametrize("sweep", ["nan:1:0.5", "1:nan:0.5", "1:2:nan", "1:inf:1",
                                   "-inf:2:1", "1:2:inf"])
def test_non_finite_sweep_is_a_usage_error(capsys, sweep):
    # unchecked, nan:1:0.5 and 1:nan:0.5 print an empty table, 1:2:nan runs
    # one point, and 1:inf:1 and -inf:2:1 never end
    with pytest.raises(SystemExit) as info:
        cli.main(["wer", "--spec", "pair2", f"--sweep={sweep}", "--trials", "10"])
    assert info.value.code == 1
    assert "sweep values must be finite" in capsys.readouterr().err


def test_enumerate_toy_spec_file(tmp_path, capsys):
    (tmp_path / "c.chain").write_text("2 1 2\n2\n1 0\n0 1\n")
    (tmp_path / "sys.vspec").write_text("chain = c.chain\nbase = Zn(2)\n")
    code, out, err = run(capsys, "enumerate", "--spec", str(tmp_path / "sys.vspec"))
    assert code == 0
    lines = out.strip().split("\n")
    assert "# points = 4" in lines
    points = {tuple(int(v) for v in ln.split()) for ln in lines if not ln.startswith("#")}
    # round-half-up boundary convention of the Zn quantizer
    assert points == {(0, 0), (0, -1), (-1, 0), (-1, -1)}


def test_enumerate_refuses_oversized_constellations(capsys):
    code, out, err = run(capsys, "enumerate", "--spec", "leech24")
    assert code == 1
    assert "more than the enumeration bound" in err
    assert out == ""


def test_corrupted_chain_file_names_the_violation(tmp_path, capsys):
    (tmp_path / "bad.chain").write_text(
        "2 2 4\n1\n1 1 1 0\n2\n1 0 0 1\n0 1 0 1\n"
    )
    (tmp_path / "bad.vspec").write_text("chain = bad.chain\nbase = Zn(4)\n")
    code, out, err = run(capsys, "roundtrip", "--spec", str(tmp_path / "bad.vspec"))
    assert code == 1
    assert "level 0 code is not contained in level 1 code" in err


def test_unknown_spec_name(capsys):
    code, out, err = run(capsys, "roundtrip", "--spec", "desk9")
    assert code == 1
    assert "not a stock constellation" in err


def test_bench_csv(capsys):
    code, out, _ = run(capsys, "bench", "--dims", "8,16",
                       "--trials", "32", "--repeats", "3")
    assert code == 0
    lines = out.strip().split("\n")
    assert "dim,baseline_ns,split_encode_ns,code_encode_ns,fold_ns,outputs_match" in lines
    assert ("# split_encode_ns times the per-unit share step that also builds the lookup "
            "tables; specs under 2^63 messages read their small units from those tables"
            in lines)
    data = [ln for ln in lines if not ln.startswith("#")][1:]
    assert [ln.split(",")[0] for ln in data] == ["8", "16"]
    assert all(ln.endswith(",1") for ln in data)


def test_bench_rejects_bad_dimensions(capsys):
    code, out, err = run(capsys, "bench", "--dims", "12", "--trials", "8")
    assert code == 1
    assert "multiples of 8" in err


@pytest.mark.parametrize("argv, name", [
    (("shaping-gain", "--lattice", "E8_int", "--samples", "0"), "samples"),
    (("shaping-gain", "--lattice", "E8_int", "--samples", "-3"), "samples"),
    (("bench", "--dims", "8", "--trials", "0"), "trials"),
    (("bench", "--dims", "8", "--repeats", "0"), "repeats"),
    (("wer", "--spec", "pair2", "--sweep", "5:6:1", "--max-errors", "0"), "max_errors"),
    (("roundtrip", "--spec", "pair2", "--trials", "0"), "trials"),
    (("roundtrip", "--spec", "pair2", "--trials", "-3"), "trials"),
])
def test_bad_counts_are_refused_by_name(capsys, argv, name):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"vorlat {argv[0]}: {name} must be positive\n"


def test_enumerate_to_file(tmp_path, capsys):
    out_file = tmp_path / "points.txt"
    code, out, _ = run(capsys, "enumerate", "--spec", "pair2",
                       "--out", str(out_file))
    assert code == 0
    assert out == ""
    body = out_file.read_text().strip().split("\n")
    assert len([ln for ln in body if not ln.startswith("#")]) == 8


def _outcome(capsys, argv):
    """(exit code, stdout, stderr) of one call, usage errors included."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reused_parser_matches_fresh_parsers(tmp_path, capsys):
    out_file = tmp_path / "gain.csv"
    calls = [
        ("wer", "--spec", "pair2", "--sweep", "5:3:1"),
        ("shaping-gain", "--lattice", "E8_int", "--samples", "64", "--out", str(out_file)),
        ("shaping-gain", "--lattice", "E8_int", "--samples", "64"),
        ("wer", "--spec", "pair2", "--sweep", "13:14:0.5", "--trials", "200"),
    ]
    cli._parser.cache_clear()
    reused = [_outcome(capsys, argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(_outcome(capsys, argv))
    assert reused == fresh
    assert reused[0][0] == 1 and "sweep is empty" in reused[0][2]
    # --out of the first gain call does not carry over to the second
    assert reused[1][1] == ""
    assert reused[2][1] == out_file.read_text() != ""
