"""Benchmark of the vorlat package, run from the root of a checkout.

    python3 perfbench/run.py --workload desk8-gap --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

`--trace 0` prints the end-to-end metrics of BENCHMARK.json, `--trace 1` the
per-layer metrics of a traced run. The last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}; the lines before it
repeat every metric by name with its unit, plus a run manifest. Results and
spans are also written to .perfbench-out/. `--workload all` runs each workload
in its own interpreter. The package is imported from ./src only; without it the
command exits 2 and prints no result. A failed correctness check exits 3.
"""

import os
import time

_T0 = time.perf_counter()
# Pin BLAS/OpenMP pools before numpy loads; the set-up children inherit this.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

from tracer import NullTracer, Tracer, layer_metrics, setup_metrics, uncovered_ns  # noqa: E402
from workloads import REF_KERNEL_NS, WORKLOADS, Checks, reference_kernel_ns  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 170
MODULES = ("shaping", "simulate", "quantize", "codes", "lattice", "cli")


class NoPackage(Exception):
    """Another copy of vorlat was imported than the one in ./src."""


def load_vorlat():
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("vorlat")
    if Path(pkg.__file__).resolve() != (SRC / "vorlat" / "__init__.py").resolve():
        raise NoPackage(f"imported vorlat from {pkg.__file__}, not from {SRC}")
    mods = {name: importlib.import_module(f"vorlat.{name}") for name in MODULES}
    return SimpleNamespace(vorlat=pkg, **mods)


def metric_table():
    """(end-to-end, per-layer) lists of (name, unit) from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ([(d["name"], d["unit"]) for d in spec["end_to_end"]],
            [(d["name"], d["unit"]) for d in spec["per_layer"]])


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "vorlat").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def manifest(m, args, workload):
    import numpy as np

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError):
        blas = "unknown"
    return {
        "vorlat_version": m.vorlat.__version__, "git_commit": _git_commit(),
        "src_sha256_16": _src_digest(), "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "specs": list(workload.specs),
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "blas_threads": int(BLAS_THREADS), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "cpu": _cpu_model(),
    }


# ---------------------------------------------------------------------------
# set-up in fresh interpreters


def setup_child(args, m):
    """Body of one set-up child: import, build the workload, report timings."""
    import_s = time.perf_counter() - _T0
    workload = WORKLOADS[args.workload](args.tiny)
    tr = Tracer() if args.trace else NullTracer()
    if args.trace:
        with tr.patched(m):
            workload.setup(m)
        split = setup_metrics(tr.spans)
    else:
        workload.setup(m)
        split = {}
    print(json.dumps({"proc.import_s": import_s, **split}))
    return 0


def measure_setup(args, repeats):
    """Median wall time of `repeats` set-ups, each in a fresh interpreter and
    scaled to reference speed by the kernel timed just before it, the raw
    median, and the median of each traced split."""
    walls, scaled, splits = [], [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-child",
           "--workload", args.workload, "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
    for _ in range(repeats):
        kernel_ns = reference_kernel_ns()
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
        walls.append(time.perf_counter() - t0)
        scaled.append(walls[-1] * REF_KERNEL_NS[4096] / statistics.median(kernel_ns))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        splits.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    split = {k: statistics.median(s[k] for s in splits) for k in splits[0]}
    return statistics.median(scaled), statistics.median(walls), split


def memory_child(args, m):
    """Body of the memory child: set up, run one untimed round, report peak memory."""
    workload = WORKLOADS[args.workload](args.tiny)
    workload.setup(m)
    checks = Checks()
    workload.exercise(m, args.seed, checks, NullTracer())
    print(json.dumps({"peak_rss_mb": peak_rss_mb(), "attempted": checks.attempted,
                      "failed": checks.failed, "notes": checks.notes}))
    return 0


def measure_memory(args, checks):
    """Peak resident memory of a fresh interpreter that sets up and runs one
    untimed round; its correctness checks join `checks`."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--memory-child",
           "--workload", args.workload, "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"memory child failed: {proc.stderr.strip()}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    checks.attempted += out["attempted"]
    checks.failed += out["failed"]
    checks.notes += [f"memory pass: {note}" for note in out["notes"]]
    return out["peak_rss_mb"]


# ---------------------------------------------------------------------------
# one workload


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _described(raw, checks, setup_raw_s):
    """The workload's own measurements, as (name, value, unit) lines."""
    lines = [("setup_raw_s", setup_raw_s, "s")]
    lines += [(k, *v) for k, v in raw.items() if isinstance(v, tuple)]
    lines.append(("failed_frac", checks.failed / max(checks.attempted, 1), "ratio"))
    return lines


def run_workload(args, m):
    e2e_table, layer_table = metric_table()
    workload = WORKLOADS[args.workload](args.tiny)
    checks = Checks()
    repeats = 1 if args.tiny else SETUP_REPEATS
    setup_s, setup_raw_s, setup_split = measure_setup(args, repeats)
    workload.setup(m)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        counts = workload.trace_counts
        t0 = time.perf_counter_ns()
        workload.run(m, args.seed, None, counts, checks, NullTracer())
        untraced = time.perf_counter_ns() - t0
        tr = Tracer()
        with tr.patched(m):
            start = time.perf_counter_ns()
            raw = workload.run(m, args.seed, None, counts, checks, tr)
            end = time.perf_counter_ns()
        tr.dump(OUT_DIR / f"{stem}-spans.json")
        metrics = {**layer_metrics(tr.spans, raw["sweep_counts"]), **setup_split,
                   "trace.overhead_frac": (end - start) / untraced - 1.0,
                   "trace.uncovered_frac": uncovered_ns(tr.spans, start, end) / (end - start),
                   "proc.cpu_per_wall": cpu_seconds() / (time.perf_counter() - _T0),
                   "proc.failed_frac": checks.failed / max(checks.attempted, 1),
                   "proc.speed_scale": raw["speed_scale"][0]}
        table = layer_table
    else:
        rss_mb = measure_memory(args, checks)
        raw = workload.run(m, args.seed, args.seconds, None, checks, NullTracer())
        metrics = {"setup_s": setup_s, **workload.e2e(raw), "peak_rss_mb": rss_mb}
        table = e2e_table
    man = manifest(m, args, workload)
    print("manifest " + json.dumps(man))
    for name, value, unit in _described(raw, checks, setup_raw_s):
        print(f"{workload.name} {name} {value:.6g} {unit}")
    for note in checks.notes:
        print(f"{workload.name} FAILED {note}")
    result = {"correct": checks.failed == 0, "attempted": checks.attempted,
              "failed": checks.failed,
              "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                          for name, unit in table}}
    for name, entry in result["metrics"].items():
        print(f"{workload.name} {name} {entry['value']:.6g} {entry['unit']}")
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(
        {"manifest": man, "result": result, "raw": raw, "failures": checks.notes},
        indent=1, default=float), encoding="utf-8")
    print(json.dumps(result))
    return 0 if result["correct"] else 3


def run_all(args):
    """Each workload in its own interpreter; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 3) or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        status = max(status, proc.returncode)
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(merged))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest sizes, for the smoke test")
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--memory-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "vorlat" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print("perfbench: run from the root of a vorlat checkout (needs src/vorlat and "
              "BENCHMARK.json)", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    try:
        m = load_vorlat()
        if args.setup_child:
            return setup_child(args, m)
        return memory_child(args, m) if args.memory_child else run_workload(args, m)
    except NoPackage as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
