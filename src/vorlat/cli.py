"""Command line front end.

Exit codes: 0 on success, 1 for usage errors and refused requests
(oversized enumerations, malformed spec files, an --out that cannot be
written), 2 when a roundtrip consistency check finds a mismatch.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from .intmat import _integer
from .lattice import standard_lattice
from .quantize import make_quantizer
from .shaping import _ENCODE_BLOCK, _ENUM_LIMIT, BUILTIN_SPECS, get_spec
from .simulate import (
    DECODE_MODES,
    SIGMA_FORMULA,
    average_energy,
    bench_family,
    bench_to_csv,
    make_decoder,
    random_ordinals,
    second_moment_mc,
    wer_points_to_csv,
    wer_sweep,
)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; this project reserves 2 for data
    mismatches, so usage problems exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _sweep_values(text: str) -> list:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("sweep must look like start:stop:step")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("sweep values must be numbers") from exc
    if not all(map(math.isfinite, (start, stop, step))):
        raise argparse.ArgumentTypeError("sweep values must be finite")
    if step <= 0:
        raise argparse.ArgumentTypeError("sweep step must be positive")
    if start > stop:
        raise argparse.ArgumentTypeError("sweep is empty (start > stop)")
    values = []
    v = start
    while v <= stop + 1e-9:
        values.append(round(v, 10))
        v += step
    return values


def _dim_list(text: str) -> list:
    try:
        dims = [int(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError("dims must be a comma list of integers") from exc
    if not dims:
        raise argparse.ArgumentTypeError("dims list is empty")
    return dims


def _check_out(out_path) -> None:
    """Refuse, before any work, an --out whose directory does not exist."""
    folder = os.path.dirname(out_path) or "."
    if not os.path.isdir(folder):
        raise ValueError(f"cannot write {out_path}: no directory {folder}")


def _emit(text: str, out_path) -> None:
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {out_path}: {exc.strerror or exc}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vorlat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_round = sub.add_parser("roundtrip", help="encode/index consistency check")
    p_round.add_argument("--spec", required=True,
                         help=f"stock name ({', '.join(BUILTIN_SPECS)}) or spec file")
    p_round.add_argument("--trials", type=int, default=None,
                         help="random messages to test (default: exhaustive when small)")
    p_round.add_argument("--seed", type=int, default=0)

    p_gain = sub.add_parser("shaping-gain", help="Monte Carlo second-moment gain")
    p_gain.add_argument("--lattice", required=True,
                        help="stock lattice name, e.g. E8_int or Leech_int")
    p_gain.add_argument("--samples", type=int, default=100000)
    p_gain.add_argument("--seed", type=int, default=0)
    p_gain.add_argument("--out", default=None)

    p_wer = sub.add_parser("wer", help="word error rate sweep over Es/N0")
    p_wer.add_argument("--spec", required=True)
    p_wer.add_argument("--sweep", required=True, type=_sweep_values,
                       metavar="START:STOP:STEP", help="Es/N0 grid in dB")
    p_wer.add_argument("--trials", type=int, default=100000)
    p_wer.add_argument("--seed", type=int, default=0)
    p_wer.add_argument("--mode", choices=tuple(DECODE_MODES), default="multistage")
    p_wer.add_argument("--max-errors", type=int, default=200,
                       help="stop a grid point early after this many errors")
    p_wer.add_argument("--out", default=None)

    p_enum = sub.add_parser("enumerate", help="list every constellation point")
    p_enum.add_argument("--spec", required=True)
    p_enum.add_argument("--out", default=None)

    p_bench = sub.add_parser("bench", help="encoding cost versus a dense multiply")
    p_bench.add_argument("--dims", type=_dim_list, default=(8, 16, 32, 64, 128, 256, 512),
                         metavar="N1,N2,...", help="block dimensions, multiples of 8")
    p_bench.add_argument("--trials", type=int, default=256)
    p_bench.add_argument("--repeats", type=int, default=9)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", default=None)

    return parser


def _cmd_roundtrip(args) -> int:
    spec = get_spec(args.spec)
    if args.trials is None:
        if spec.message_count > _ENUM_LIMIT:
            print(
                f"constellation has {spec.message_count} points; pass --trials "
                f"to check a random sample",
                file=sys.stderr,
            )
            return 1
        ordinals = spec.all_ordinals()
    else:
        ordinals = random_ordinals(spec, _integer("trials", args.trials, 1), args.seed)
    # Blocks of _ENCODE_BLOCK keep memory at a block's size. No separate
    # distinctness pass is needed: two ordinals that share a point cannot
    # both index back to themselves, so an exhaustive round trip also shows
    # that the points are distinct.
    ok = 0
    for lo in range(0, len(ordinals), _ENCODE_BLOCK):
        block = ordinals[lo : lo + _ENCODE_BLOCK]
        ok += int((spec.index_batch(spec.encode_batch(block)) == block).sum())
    total = len(ordinals)
    if ok != total:
        print(f"{ok}/{total} ok", file=sys.stderr)
        return 2
    print(f"{ok}/{total} ok")
    return 0


def _cmd_shaping_gain(args) -> int:
    lattice = standard_lattice(args.lattice)
    est = second_moment_mc(make_quantizer(lattice), args.samples, seed=args.seed)
    lines = [
        f"# lattice = {args.lattice}",
        f"# samples = {args.samples}",
        f"# seed = {args.seed}",
        "nsm,nsm_stderr,gain_db,gain_stderr_db",
        f"{est.nsm:.8g},{est.stderr:.8g},{est.gain_db():.6g},{est.gain_stderr_db():.6g}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_wer(args) -> int:
    spec = get_spec(args.spec)
    energy = average_energy(spec)
    points = wer_sweep(
        spec,
        args.sweep,
        trials=args.trials,
        seed=args.seed,
        max_errors=args.max_errors,
        energy=energy,
        decoder=make_decoder(spec, args.mode),
    )
    header = [
        f"spec = {args.spec}",
        f"mode = {args.mode}",
        f"trials = {args.trials}",
        f"seed = {args.seed}",
        f"max_errors = {args.max_errors}",
        f"energy_per_dim = {energy:.8g}",
        SIGMA_FORMULA,
    ]
    _emit(wer_points_to_csv(points, header_lines=header), args.out)
    return 0


def _cmd_enumerate(args) -> int:
    spec = get_spec(args.spec)
    points = spec.enumerate_constellation()  # refuses oversized constellations
    lines = [
        f"# spec = {args.spec}",
        f"# points = {spec.message_count}",
        f"# rate_bits_per_dim = {spec.rate():.8g}",
    ]
    lines.extend(" ".join(str(int(v)) for v in p) for p in points)
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_bench(args) -> int:
    results = bench_family(
        dims=args.dims, trials=args.trials, repeats=args.repeats, seed=args.seed
    )
    header = [
        f"trials = {args.trials}",
        f"repeats = {args.repeats}",
        f"seed = {args.seed}",
        "times are median ns per encoded message",
        "split_encode_ns times the per-unit share step that also builds the "
        "lookup tables; specs under 2^63 messages read their small units from "
        "those tables",
    ]
    _emit(bench_to_csv(results, header_lines=header), args.out)
    if not all(r.outputs_match for r in results):
        print("benchmark outputs diverged between encode paths", file=sys.stderr)
        return 2
    return 0


_COMMANDS = {
    "roundtrip": _cmd_roundtrip,
    "shaping-gain": _cmd_shaping_gain,
    "wer": _cmd_wer,
    "enumerate": _cmd_enumerate,
    "bench": _cmd_bench,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused: building it costs
    more than a small command's own work. Each parse returns a fresh
    namespace, so no value carries over between calls."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if getattr(args, "out", None):
            _check_out(args.out)
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"vorlat {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
