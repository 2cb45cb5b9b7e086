"""Span tracer that wraps vorlat's public functions from outside the package.

`Tracer.patched` replaces module attributes and class methods with thin
wrappers that append one span per call, `[name, start_ns, end_ns, parent,
items]`, to an in-memory list; every original is restored on exit. A span's
self time is its duration minus the durations of its direct children.
`layer_metrics` turns one traced pass into the per-layer metrics named in
BENCHMARK.json.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

NAME, START, END, PARENT, ITEMS = range(5)

LEAF_QUANTIZERS = ("zn", "dn", "e8_fast", "leech_fast", "enum")
WRAPPER_QUANTIZERS = ("scaled", "direct_sum")


def _rows(pos):
    """Items of a call: rows of the point array at `pos` (1 for a single vector)."""

    def count(args, kwargs):
        shape = getattr(args[pos], "shape", None)
        return int(shape[0]) if shape is not None and len(shape) > 1 else 1

    return count


def _len(pos):
    """Items of a call: length of the ordinal list at `pos`."""
    return lambda args, kwargs: len(args[pos])


def _arg(pos, key):
    return lambda args, kwargs: int(kwargs[key] if key in kwargs else args[pos])


class NullTracer:
    """Stand-in used by untraced runs: spans cost one call and record nothing."""

    def span(self, name, items=0):
        return nullcontext()


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def _open(self, name, items):
        rec = [name, 0, 0, self._stack[-1] if self._stack else -1, items]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter_ns()
        return rec

    def _close(self, rec):
        rec[END] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name, items=0):
        rec = self._open(name, items)
        try:
            yield rec
        finally:
            self._close(rec)

    def _wrap(self, name, fn, items):
        def traced(*args, **kwargs):
            rec = self._open(name, items(args, kwargs) if items else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def patched(self, vorlat_modules):
        """Wrap every traced entry point of vorlat for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, items in _targets(vorlat_modules):
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, items))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "items"],
                       "spans": self.spans}, fh)


def _targets(m):
    """(owner, attribute, span name, items) for every wrapped entry point.

    Module-level names are wrapped where they are looked up, so the fold that
    `shaping` imports and the fold that `simulate` imports get their own spans.
    """
    shaping, simulate, quantize, codes, lattice, cli = (
        m.shaping, m.simulate, m.quantize, m.codes, m.lattice, m.cli)
    spec_cls, dec_cls = shaping.VoronoiCodeSpec, simulate.MultistageDecoder
    out = [
        # set-up
        (shaping, "builtin_spec", "shaping.spec_build", None),
        (shaping, "make_quantizer", "quantize.make_quantizer", None),
        (quantize, "make_quantizer", "quantize.make_quantizer", None),
        (cli, "make_quantizer", "quantize.make_quantizer", None),
        (dec_cls, "__init__", "simulate.decoder_build", None),
        (simulate, "average_energy", "simulate.energy", None),
        (simulate, "sampled_energy", "simulate.energy", None),
        (lattice, "standard_lattice", "lattice.build", None),
        (shaping, "standard_lattice", "lattice.build", None),
        (cli, "standard_lattice", "lattice.build", None),
        (shaping, "direct_sum", "lattice.build", None),
        (shaping, "is_sublattice", "lattice.build", None),
        (shaping, "quotient_order", "lattice.build", None),
        # encode
        (simulate, "random_ordinals", "simulate.ordinals", _arg(1, "count")),
        (spec_cls, "encode_batch", "shaping.encode", _len(1)),
        (spec_cls, "representative_batch", "shaping.representative", _len(1)),
        (codes.LinearCode, "encode_batch", "codes.encode", _rows(1)),
        (shaping, "fold_batch", "quantize.fold", _rows(1)),
        # index
        (spec_cls, "index_batch", "shaping.index", _rows(1)),
        (shaping, "fold_mod_parallelotope_batch", "quantize.parallelotope", _rows(1)),
        # channel and decode
        (simulate, "transmit", "simulate.transmit", _rows(0)),
        (dec_cls, "decode_batch", "simulate.decode", _rows(1)),
        (simulate, "fold_batch", "simulate.decode_fold", _rows(1)),
        (simulate, "wer_sweep", "simulate.sweep", None),
        # quantizers, Monte Carlo and the command line
        (cli, "second_moment_mc", "quantize.mc", _arg(1, "samples")),
        (cli, "main", "cli.main", None),
    ]
    for cls, label in ((quantize.ZnQuantizer, "zn"), (quantize.DnQuantizer, "dn"),
                       (quantize.E8FastQuantizer, "e8_fast"),
                       (quantize.LeechFastQuantizer, "leech_fast"),
                       (quantize.EnumerationQuantizer, "enum"),
                       (quantize.ScaledQuantizer, "scaled"),
                       (quantize.DirectSumQuantizer, "direct_sum")):
        out.append((cls, "quantize_batch", f"quantize.{label}", _rows(1)))
    return out


def _aggregate(spans):
    """Per-span duration and self time, then totals by name and by (name, parent name)."""
    dur = [s[END] - s[START] for s in spans]
    child = [0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]
    by = defaultdict(lambda: {"incl": 0, "self": 0, "items": 0, "calls": 0})
    for i, s in enumerate(spans):
        parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else ""
        for key in (s[NAME], (s[NAME], parent)):
            agg = by[key]
            agg["incl"] += dur[i]
            agg["self"] += dur[i] - child[i]
            agg["items"] += s[ITEMS]
            agg["calls"] += 1
    return by


def _per(num, den):
    return num / den if den else 0.0


def setup_metrics(spans):
    """Set-up split of one traced set-up, in seconds."""
    by = _aggregate(spans)

    def top(name):  # time of outermost calls only, so recursion is counted once
        return sum(s[END] - s[START] for s in spans
                   if s[NAME] == name and (s[PARENT] < 0 or spans[s[PARENT]][NAME] != name))

    return {
        "shaping.spec_build_s": by["shaping.spec_build"]["self"] / 1e9,
        "quantize.make_quantizer_s": top("quantize.make_quantizer") / 1e9,
        "simulate.decoder_build_s": by["simulate.decoder_build"]["incl"] / 1e9,
        "simulate.energy_s": by["simulate.energy"]["incl"] / 1e9,
        "lattice.setup_s": top("lattice.build") / 1e9,
    }


def layer_metrics(spans, sweep_counts):
    """Per-layer metrics of one traced pass (times in ns per message or point)."""
    by = _aggregate(spans)
    g = lambda name, field="self": by[name][field]  # noqa: E731
    enc_msgs = g("shaping.encode", "items")
    dec_msgs = g("simulate.decode", "items")
    idx_msgs = g("shaping.index", "items")
    rep_msgs = g("shaping.representative", "items")
    quant = {f"quantize.{q}" for q in LEAF_QUANTIZERS + WRAPPER_QUANTIZERS}
    entry = [s for s in spans if s[NAME] in quant
             and (s[PARENT] < 0 or spans[s[PARENT]][NAME] not in quant)]
    wrapper_rows = sum(s[ITEMS] for s in entry
                       if s[NAME].split(".", 1)[1] in WRAPPER_QUANTIZERS)
    leaf_points = sum(g(f"quantize.{q}", "items") for q in LEAF_QUANTIZERS)
    in_sweep_encoded = sum(
        s[ITEMS] for s in spans if s[NAME] == "shaping.encode"
        and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "simulate.sweep")
    out = {
        "simulate.ordinals_ns_per_msg": _per(g("simulate.ordinals"),
                                             g("simulate.ordinals", "items")),
        "shaping.representative_ns_per_msg": _per(g("shaping.representative"), rep_msgs),
        "codes.encode_ns_per_msg": _per(by[("codes.encode", "shaping.representative")]["self"],
                                        rep_msgs),
        "quantize.fold_ns_per_msg": _per(g("quantize.fold", "incl"), enc_msgs),
        "shaping.encode_self_ns_per_msg": _per(g("shaping.encode"), enc_msgs),
        "shaping.index_ns_per_msg": _per(
            g("shaping.index", "incl") - g("quantize.parallelotope", "incl"), idx_msgs),
        "quantize.parallelotope_ns_per_msg": _per(g("quantize.parallelotope", "incl"), idx_msgs),
        "simulate.transmit_ns_per_msg": _per(g("simulate.transmit", "incl"),
                                             g("simulate.transmit", "items")),
        "simulate.decode_ns_per_msg": _per(g("simulate.decode", "incl"), dec_msgs),
        "simulate.decode_fold_ns_per_msg": _per(g("simulate.decode_fold", "incl"), dec_msgs),
        "simulate.decode_ml_ns_per_msg": _per(g("simulate.decode"), dec_msgs),
        "quantize.calls": len(entry),
        "quantize.points_per_msg": _per(leaf_points, enc_msgs + dec_msgs),
        "quantize.wrapper_self_ns_per_pt": _per(
            sum(g(f"quantize.{q}") for q in WRAPPER_QUANTIZERS), wrapper_rows),
        "quantize.mc_draw_ns_per_sample": _per(g("quantize.mc"), g("quantize.mc", "items")),
        "quantize.enum_fallback_calls": g("quantize.enum", "calls"),
        "cli.self_s": g("cli.main") / 1e9,
        "simulate.sweep_trials": sweep_counts["trials"],
        "simulate.sweep_trial_budget": sweep_counts["budget"],
        "simulate.sweep_useful_frac": _per(sweep_counts["trials"], sweep_counts["budget"]),
        "simulate.sweep_encoded_per_trial": _per(in_sweep_encoded, sweep_counts["trials"]),
        "simulate.sweep_errors": sweep_counts["errors"],
    }
    for q in ("leech_fast", "e8_fast", "zn"):
        out[f"quantize.{q}.self_ns_per_pt"] = _per(g(f"quantize.{q}"),
                                                   g(f"quantize.{q}", "items"))
    return out


def uncovered_ns(spans, start_ns, end_ns):
    """Wall time inside [start_ns, end_ns] that no top-level span covers."""
    covered = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
    return (end_ns - start_ns) - covered
