"""The three benchmark workloads: set-up, measured phases and correctness checks.

Every input the library sees (message ordinals, channel noise, Monte Carlo
seeds) is drawn here from the workload seed. A run is a few rounds; each round
runs the workload's fixed-size headline job once, then every timed phase for
its share of the round. Interleaving the phases this way lets each of them
sample the whole run, because on a shared machine the CPU speed drifts by tens
of percent over seconds. Timed phases stop after a share of `seconds`
(untraced runs) or after a fixed count of steps (the untraced and traced
passes of a traced run, whose counts then repeat exactly).

All calls go through module attributes (`m.shaping.builtin_spec`, ...) so the
tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import time

import numpy as np

# Criterion 1 constants (dB) and the half unit of their last quoted digit.
E8_GAIN_DB, LEECH_GAIN_DB, CONSTANT_HALF_UNIT = 0.65, 1.03, 0.005
# A gain estimate passes when it lies within this many of its own standard
# errors, plus the half unit, of its constant.
GAIN_Z = 4.0
# Criterion 6 band for the cube-vs-E8 gap at WER 1e-3.
GAP_BAND_DB = (0.4, 0.8)
ROUNDS = 8
STORED_BATCHES = 16  # encoded batches kept as decode inputs
# Median repetition time of `reference_kernel_ns` on the reference machine
# (README), by the kernel's row count.
REF_KERNEL_NS = {1: 13_600.0, 4096: 460_000.0, 98304: 16_810_000.0}
# The kernel is timed after each block of calls for this share of the
# block's time, in at most MAX_KERNEL_REPS repetitions, and for about
# CALIBRATE_NS before a phase. Readings up to SPAN_NS either side of a block
# scale it.
KERNEL_SHARE = 0.1
MAX_KERNEL_REPS = 41
CALIBRATE_NS = 10_000_000
SPAN_NS = 1_000_000_000


class Checks:
    """Correctness tally: every checked operation is attempted; mismatches fail."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def record(self, what, ok, total=1):
        ok, total = int(ok), int(total)
        self.attempted += total
        self.failed += total - ok
        if ok != total:
            self.notes.append(f"{what}: {total - ok}/{total} failed")

    def guard(self, what, fn, total=1):
        """Run fn(); an exception counts `total` failed operations."""
        try:
            return fn()
        except Exception as exc:  # noqa: BLE001 - any raise is a failed operation
            self.record(f"{what} raised {type(exc).__name__}: {exc}", 0, total)
            return None


def steps(seconds=None, count=None):
    """Step indices until `count` steps ran, or until `seconds` elapsed (one at least)."""
    start = time.perf_counter()
    i = 0
    while (i < count) if count is not None else (i == 0 or time.perf_counter() - start < seconds):
        yield i
        i += 1


def timed(fn, *args):
    t0 = time.perf_counter_ns()
    out = fn(*args)
    return out, time.perf_counter_ns() - t0


def reference_kernel_ns(reps=21, rows=4096):
    """Per-repetition wall times of a fixed numpy kernel, the machine-speed reference.

    The kernel is this benchmark's own code, shaped like the package's
    typical inner step: round (rows, 8) rows to D8 and score the result.
    One row weighs numpy's per-call overhead, 4096 rows array work within
    the core's cache, 98304 rows array work beyond it.
    """
    y = np.random.default_rng(0).uniform(-8.0, 8.0, (rows, 8))
    times = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        f = np.floor(y + 0.5)
        err = y - f
        odd = np.nonzero(f.sum(axis=1) % 2.0 != 0.0)[0]
        k = np.argmax(np.abs(err[odd]), axis=1)
        f[odd, k] += np.where(err[odd, k] > 0, 1.0, -1.0)
        ((y - f) ** 2).sum(axis=1).argmin()
        times.append(time.perf_counter_ns() - t0)
    return times


def kernel_reading(samples, rows, reps):
    """Time the reference kernel of `rows` rows and keep (start, rows, median)."""
    start = time.perf_counter_ns()
    median = float(np.median(reference_kernel_ns(reps, rows)))
    samples.setdefault("kernel", []).append((start, rows, median))
    return median


def calibrate(samples, rows):
    """Time the kernel for about CALIBRATE_NS before a phase's first block of calls."""
    if samples.get("untimed"):
        return
    kernel_reading(samples, rows, max(1, round(CALIBRATE_NS / REF_KERNEL_NS[rows])))


def block(samples, rows, start_ns, **times):
    """Keep a block of calls that started at `start_ns`: key -> call times.

    Then time the kernel of `rows` rows, the size of the calls' own arrays,
    for about KERNEL_SHARE of the block's time, so that every block has
    readings of the machine's speed right around it.
    """
    if samples.get("untimed"):
        return
    end = time.perf_counter_ns()
    for key, block_ns in times.items():
        samples.setdefault("blocks", []).append((key, rows, start_ns, end, block_ns))
    guess = next(r[2] for r in reversed(samples["kernel"]) if r[1] == rows)
    reps = round(KERNEL_SHARE * (end - start_ns) / guess)
    kernel_reading(samples, rows, int(min(MAX_KERNEL_REPS, max(1, reps))))


def scale_blocks(samples):
    """key -> (call times scaled to reference speed, raw call times).

    On a shared machine the CPU speed drifts by tens of percent within
    seconds, and numpy's per-call overhead, its in-cache array work and its
    larger-than-cache array work drift apart. So each block is scaled by
    REF_KERNEL_NS over the median of the readings of its own kernel size taken
    from SPAN_NS before the block's start to SPAN_NS after its end.
    """
    readings = samples["kernel"]
    out = {}
    for key, rows, start, end, block_ns in samples["blocks"]:
        near = [med for t, r, med in readings
                if r == rows and start - SPAN_NS <= t <= end + SPAN_NS]
        scale = REF_KERNEL_NS[rows] / float(np.median(near))
        scaled, raw = out.setdefault(key, ([], []))
        scaled.extend(scale * t for t in block_ns)
        raw.extend(block_ns)
    return out


def speed_scale(samples, rows):
    """Run-wide factor of the `rows`-row kernel, for the run manifest."""
    return REF_KERNEL_NS[rows] / float(np.median([m for _, r, m in samples["kernel"] if r == rows]))


# Summaries take one (scaled, raw) entry of `scale_blocks` and map a name to
# (value, unit).


def rate_stats(name, unit, items, times):
    """Items per second at the median and 90th-percentile call time, and raw median."""
    t = np.asarray(times[0], dtype=np.float64)
    return {f"{name}_p50": (items * 1e9 / np.percentile(t, 50), unit),
            f"{name}_p90": (items * 1e9 / np.percentile(t, 90), unit),
            f"{name}_raw_p50": (items * 1e9 / np.median(times[1]), unit),
            f"{name}_calls": (len(t), "count")}


def job_stats(name, times):
    """Wall time of the per-round headline job: median over rounds, and raw median."""
    return {name: (float(np.median(times[0])) / 1e9, "s"),
            f"{name}_raw": (float(np.median(times[1])) / 1e9, "s")}


def latency_stats(name, times):
    """Percentiles of single-call latency, and the raw median."""
    t = np.asarray(times[0], dtype=np.float64) / 1e3
    return {f"{name}_us_p{q}": (np.percentile(t, q), "us") for q in (50, 90, 99)} | {
        f"{name}_us_raw_p50": (np.median(times[1]) / 1e3, "us"),
        f"{name}_calls": (len(t), "count")}


class Workload:
    """A named workload. `run` takes either `seconds` (the time budget of its
    timed phases, split by `shares`) or `counts` (a fixed number of steps per
    phase and round, used by traced runs)."""

    name = ""
    specs = ()
    shares = {}
    trace_counts = {}

    def run(self, m, seed, seconds, counts, checks, tr):
        samples = {}
        rounds = 1 if counts else ROUNDS
        for r in range(rounds):
            budget = {k: ({"count": counts[k]} if counts else
                          {"seconds": seconds * share / rounds})
                      for k, share in self.shares.items()}
            with tr.span("bench.round"):
                self.round(m, seed, r, budget, samples, checks, tr)
        return {**self.summary(samples, scale_blocks(samples)),
                "speed_scale": (speed_scale(samples, self.rows), "ratio")}

    def exercise(self, m, seed, checks, tr):
        """One round at the traced step counts, neither timed nor scaled.

        The reference kernel's own arrays would count in the process's peak
        resident memory, so peak memory is taken from this pass instead.
        """
        budget = {k: {"count": n} for k, n in self.trace_counts.items()}
        self.round(m, seed, 0, budget, {"untimed": True}, checks, tr)


# ---------------------------------------------------------------------------
# the two link workloads: WER sweep, codec, decode, single messages


class LinkWorkload(Workload):
    shares = {"codec": 0.4, "decode": 0.3, "single": 0.3}
    # Rows of the reference kernel that scales each kind of call (see README):
    # the sweep, batch calls, and blocks of `single_block` single-message
    # calls. Step counts of the "single" phase count blocks.
    sweep_rows, rows, single_rows = 98304, 4096, 1
    single_block = 50

    def round(self, m, seed, r, budget, samples, checks, tr):
        spec = self.link_spec
        rng = np.random.default_rng([seed, r])
        with tr.span("bench.sweep"):
            calibrate(samples, self.sweep_rows)
            t0 = time.perf_counter_ns()
            sweeps, ns = timed(self.sweep, m, seed, checks, samples)
            block(samples, self.sweep_rows, t0, sweep=[ns])
        samples["sweep_counts"] = {
            "trials": sum(p.trials for s in sweeps for p in s),
            "budget": self.trials * sum(len(s) for s in sweeps),
            "errors": sum(p.errors for s in sweeps for p in s)}
        sent = []
        with tr.span("bench.codec"):
            calibrate(samples, self.rows)
            for _ in steps(**budget["codec"]):
                with tr.span("bench.inputs"):
                    ords = rng.integers(0, spec.message_count, self.batch, dtype=np.int64)
                t0 = time.perf_counter_ns()
                pts, enc = timed(spec.encode_batch, ords)
                back, idx = timed(spec.index_batch, pts)
                block(samples, self.rows, t0, encode=[enc], index=[idx])
                with tr.span("bench.check"):
                    checks.record("index_batch(encode_batch(o)) == o", (back == ords).sum(),
                                  len(ords))
                if len(sent) < STORED_BATCHES:
                    sent.append(pts)
        decoder = self.decoders[spec.name]
        sigma = m.simulate.sigma_for(self.energy[spec.name], self.decode_db)
        with tr.span("bench.decode"):
            calibrate(samples, self.rows)
            for i in steps(**budget["decode"]):
                x = sent[i % len(sent)]
                with tr.span("bench.inputs"):
                    y = x + rng.normal(0.0, sigma, x.shape)
                t0 = time.perf_counter_ns()
                got, ns = timed(decoder.decode_batch, y)
                block(samples, self.rows, t0, decode=[ns])
                samples["decode_errors"] = samples.get("decode_errors", 0) + int(
                    np.any(got != x, axis=1).sum())
                samples["decode_msgs"] = samples.get("decode_msgs", 0) + len(x)
                if i == 0:
                    clean = decoder.decode_batch(x.astype(np.float64))
                    with tr.span("bench.check"):
                        checks.record("noiseless decode == sent",
                                      np.all(clean == x, axis=1).sum(), len(x))
        ords, pts = [], []
        with tr.span("bench.single"):
            calibrate(samples, self.single_rows)
            for _ in steps(**budget["single"]):
                times, t0 = [], time.perf_counter_ns()
                for _ in range(self.single_block):
                    with tr.span("bench.inputs"):
                        o = rng.integers(0, spec.message_count, 1, dtype=np.int64)
                    p, ns = timed(spec.encode_batch, o)
                    times.append(ns)
                    ords.append(o[0])
                    pts.append(p[0])
                block(samples, self.single_rows, t0, encode1=times)
            back = spec.index_batch(np.array(pts))
            with tr.span("bench.check"):
                checks.record("single-message round trip", (back == np.array(ords)).sum(),
                              len(ords))

    def summary(self, s, t):
        out = {**job_stats("sweep_s", t["sweep"]), "sweep_counts": s["sweep_counts"],
               "decode_wer": (s["decode_errors"] / s["decode_msgs"], "ratio"),
               **s.get("info", {})}
        for name in ("encode", "index", "decode"):
            out.update(rate_stats(f"{name}_msg_s", "msg/s", self.batch, t[name]))
        out.update(latency_stats("encode1", t["encode1"]))
        return out

    def e2e(self, raw):
        keys = {"result_s": "sweep_s", "batch_per_s": "encode_msg_s_p50",
                "single_us_p50": "encode1_us_p50", "single_us_p99": "encode1_us_p99"}
        return {k: raw[v][0] for k, v in keys.items()}


class Desk8Gap(LinkWorkload):
    name = "desk8-gap"
    specs = ("desk8-cube", "desk8-e8")
    grid = (13.0, 13.5, 14.0, 14.5, 15.0)
    decode_db = 14.0
    batch = 4096
    trace_counts = {"codec": 24, "decode": 24, "single": 40}

    def __init__(self, tiny=False):
        self.trials = 8192 if tiny else 30_000
        self.max_errors = 60
        if tiny:
            self.trace_counts = {"codec": 2, "decode": 2, "single": 1}

    def setup(self, m):
        self.spec = {n: m.shaping.builtin_spec(n) for n in self.specs}
        self.decoders = {n: m.simulate.MultistageDecoder(s) for n, s in self.spec.items()}
        self.energy = {n: m.simulate.average_energy(s) for n, s in self.spec.items()}
        self.link_spec = self.spec["desk8-e8"]

    def sweep(self, m, seed, checks, samples):
        sweeps = [m.simulate.wer_sweep(self.spec[n], self.grid, trials=self.trials, seed=seed,
                                       max_errors=self.max_errors, energy=self.energy[n],
                                       decoder=self.decoders[n])
                  for n in self.specs]
        gap = checks.guard("wer_gap_db", lambda: m.simulate.wer_gap_db(*sweeps, 1e-3))
        if gap is not None:
            samples["info"] = {"gap_db": (gap, "dB")}
            checks.record(f"cube-vs-E8 gap {gap:.3f} dB in {GAP_BAND_DB}",
                          GAP_BAND_DB[0] <= gap <= GAP_BAND_DB[1])
        return sweeps


class Leech24Link(LinkWorkload):
    name = "leech24-link"
    specs = ("leech24",)
    grid = (15.0, 16.0, 17.0)
    decode_db = 16.0
    batch = 64
    energy_samples = 256  # sampled_energy sample count (seed 0), part of set-up
    # The Leech quantizer's temporaries outgrow the core's cache.
    sweep_rows, rows, single_rows = 98304, 98304, 98304
    single_block = 32
    trace_counts = {"codec": 4, "decode": 4, "single": 8}

    def __init__(self, tiny=False):
        self.trials = 16 if tiny else 64
        self.max_errors = 100
        if tiny:
            self.energy_samples = 16
            self.trace_counts = {"codec": 1, "decode": 1, "single": 1}

    def setup(self, m):
        spec = m.shaping.builtin_spec("leech24")
        self.spec = {"leech24": spec}
        self.decoders = {"leech24": m.simulate.MultistageDecoder(spec)}
        energy, _ = m.simulate.sampled_energy(spec, self.energy_samples, 0)
        self.energy = {"leech24": energy}
        self.link_spec = spec

    def sweep(self, m, seed, checks, samples):
        return [m.simulate.wer_sweep(self.link_spec, self.grid, trials=self.trials, seed=seed,
                                     max_errors=self.max_errors, energy=self.energy["leech24"],
                                     decoder=self.decoders["leech24"])]


# ---------------------------------------------------------------------------
# Monte Carlo second moments through the command line


class ShapingMC(Workload):
    name = "shaping-mc"
    shares = {"batch": 0.6, "single": 0.4}
    batch_samples = 64  # Leech samples per timed CLI call
    # Kernel rows for the gain estimates, the Leech calls and blocks of
    # `single_block` one-sample calls, as on the link workloads.
    sweep_rows, rows, single_rows = 98304, 98304, 4096
    single_block = 10
    trace_counts = {"batch": 4, "single": 20}

    def __init__(self, tiny=False):
        self.samples = {"E8_int": 20_000 if tiny else 500_000,
                        "Leech_int": 64 if tiny else 256}
        self.specs = tuple(self.samples)
        if tiny:
            self.batch_samples = 16
            self.trace_counts = {"batch": 1, "single": 1}

    def setup(self, m):
        self.quantizers = [m.quantize.make_quantizer(m.lattice.standard_lattice(name))
                           for name in self.samples]

    @staticmethod
    def gain(m, lattice, samples, seed):
        """(gain_db, gain_stderr_db) parsed from the CLI's CSV output."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = m.cli.main(["shaping-gain", "--lattice", lattice,
                               "--samples", str(samples), "--seed", str(seed)])
        if code != 0:
            raise RuntimeError(f"shaping-gain exited {code}")
        fields = buf.getvalue().strip().split("\n")[-1].split(",")
        return float(fields[2]), float(fields[3])

    def round(self, m, seed, r, budget, samples, checks, tr):
        with tr.span("bench.estimates"):
            calibrate(samples, self.sweep_rows)
            t0 = time.perf_counter_ns()
            times = {}
            for lattice, const in (("E8_int", E8_GAIN_DB), ("Leech_int", LEECH_GAIN_DB)):
                n = self.samples[lattice]
                got, ns = timed(checks.guard, lattice, lambda: self.gain(m, lattice, n, seed))
                times[lattice] = [ns]
                if got is not None:
                    width = GAIN_Z * got[1] + CONSTANT_HALF_UNIT
                    samples[f"{lattice}_gain_db"] = got[0]
                    checks.record(f"{lattice} gain {got[0]:.4f} within {width:.4f} of {const}",
                                  abs(got[0] - const) <= width)
            block(samples, self.sweep_rows, t0, estimates=[time.perf_counter_ns() - t0],
                  **times)
        with tr.span("bench.batch"):
            calibrate(samples, self.rows)
            for i in steps(**budget["batch"]):
                t0 = time.perf_counter_ns()
                got, ns = timed(checks.guard, "Leech_int batch", lambda: self.gain(
                    m, "Leech_int", self.batch_samples, seed * 1000 + r * 100 + i + 1))
                block(samples, self.rows, t0, batch=[ns])
                checks.record("Leech_int batch estimate is finite",
                              got is not None and np.isfinite(got[0]))
        with tr.span("bench.single"):
            calibrate(samples, self.single_rows)
            for i in steps(**budget["single"]):
                times, t0 = [], time.perf_counter_ns()
                for j in range(self.single_block):
                    got, ns = timed(checks.guard, "E8_int single", lambda: self.gain(
                        m, "E8_int", 1, seed + i * self.single_block + j))
                    times.append(ns)
                    checks.record("E8_int single estimate is finite",
                                  got is not None and np.isfinite(got[0]))
                block(samples, self.single_rows, t0, cli1=times)

    def summary(self, s, t):
        out = {**job_stats("estimates_s", t["estimates"]),
               "sweep_counts": {"trials": 0, "budget": 0, "errors": 0}}
        for lattice in self.samples:
            name = f"mc_{lattice[:-4].lower()}_samples_s"
            out.update(rate_stats(name, "samples/s", self.samples[lattice], t[lattice]))
            out[f"{lattice}_gain_db"] = (s.get(f"{lattice}_gain_db", float("nan")), "dB")
        out.update(rate_stats("mc_leech_batch_samples_s", "samples/s", self.batch_samples,
                              t["batch"]))
        out.update(latency_stats("cli1", t["cli1"]))
        return out

    def e2e(self, raw):
        keys = {"result_s": "estimates_s", "batch_per_s": "mc_leech_batch_samples_s_p50",
                "single_us_p50": "cli1_us_p50", "single_us_p99": "cli1_us_p99"}
        return {k: raw[v][0] for k, v in keys.items()}


WORKLOADS = {w.name: w for w in (Desk8Gap, Leech24Link, ShapingMC)}
