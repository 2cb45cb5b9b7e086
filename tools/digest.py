"""Print sha256 digests of vorlat's encode, quantize, Monte Carlo and sweep outputs.

Two trees that print the same lines encode, index, quantize, estimate and
decode identically on these inputs. The output is four sections, each a
header "== <section> <sha256 of the section's lines>" and then its lines:

- encode: per stock spec, the ordinals are 4096 draws of the tool's own
  np.random.default_rng(2026), not of the package's streams (so a change of
  those streams cannot move a digest), followed by 0 and M - 1. Lines digest
  the representatives, the encoded points and their indices; the per-unit
  digits of the first 256 ordinals (all 8 of pair2) as one flat int row per
  ordinal (code symbols level by level, then s) and the sum of the units'
  joins of those digits; and, for the small specs, the whole constellation.
- quantize: the quantizers of Zn(8), Dn(8), E8_int and Leech_int, and the
  shaping quantizer of every stock spec, each on 4096 fixed rows of five
  kinds: uniform in [-16, 16), draws as second_moment_mc makes them
  (uniform in the fundamental parallelotope), and quarter-, half- and
  whole-integer grids from integers in [-32, 32]. A line digests, for one
  quantizer and one kind, the outputs of separate calls on the first 1, 31,
  32, 33 and 4096 rows, so batches on both sides of an internal block
  boundary are covered. The shaping quantizers of the stock specs, and
  Leech_int's, also get int64 rows, as encode and decode fold them: "int64"
  entries in [-64, 64], and "int64-big" entries in [-2^18, 2^18], on both
  sides of the float32 bounds of their scales. Their lines digest calls on
  the first 1, 31, 32, 33, 63, 64, 65, 511, 512, 513, 1023, 1024, 1025 and
  4096 rows: both Leech block sizes, 32 float64 and 64 float32 rows, and
  both E8 block sizes, 512 float64 and 1024 float32 rows.
- mc: second_moment_mc of Zn(8), Dn(8), E8_int and Leech_int at seeds 1 and
  91 on 1, 4095, 4096, 4097 and 20 000 samples, so estimates end inside, at
  and just past the 4096-sample block boundary, and a partial last block
  follows full ones; and sampled_energy of the leech24 spec on 512 samples
  at the same seeds.
- sweep: wer_sweep of every stock spec with its multistage decoder (pair2
  also with the exhaustive one) at seeds 1 and 91 on a short grid where
  every point sees errors. Small specs run 2 * 4096 + 700 trials, so the
  last trial block is partial, with a max_errors that stops some points
  after different blocks; leech24 runs 300 trials with the energy of 512
  samples. desk8-cube and desk8-e8 also run the criterion-6 grid,
  13:15:0.5 dB with 30 000 trials and max_errors 60, as the desk8-gap
  benchmark workload does. Lines show each point's errors and trials.

An array line hashes the shape and int64 bytes of each of its arrays; an
estimate or WerPoint line hashes the repr of its field tuple. The encode,
quantize and sweep lines hash integer folds, points and decisions, which
are exact on every host (see quantize._F32_BOUNDS), and read the same under
every OpenBLAS kernel (OPENBLAS_CORETYPE Prescott, Haswell, SkylakeX). The
mc lines do not: their draws are BLAS products, and a Leech one-sample
estimate moved in its last bit with the kernel, so they hash every float
rounded to 10 significant digits. Values that agree to about 1e-10 relative
print the same line, unless one lies that close to a rounding boundary of
its 10th digit: floats that differ by r relative meet one with a
probability of about r * 1e9 each.

tests/golden_digests.txt is this tool's stdout, and Tier-1 compares the two
section by section (tests/test_digests.py). A change that moves lines on
purpose refreshes the file and says in CHANGES.md which lines moved and why:

    python tools/digest.py > tests/golden_digests.txt

imports vorlat from the src/ directory next to this script.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from vorlat.lattice import standard_lattice  # noqa: E402
from vorlat.quantize import make_quantizer  # noqa: E402
from vorlat.shaping import BUILTIN_SPECS, builtin_spec  # noqa: E402
from vorlat.simulate import (  # noqa: E402
    average_energy,
    make_decoder,
    sampled_energy,
    second_moment_mc,
    wer_sweep,
)

LATTICES = ("Zn(8)", "Dn(8)", "E8_int", "Leech_int")
SEEDS = (1, 91)

ENUMERATED = ("pair2", "desk8-e8", "desk8-cube")
MESSAGE_ORDINALS = 256
# The digit rows and their joins keep the labels of the per-message calls
# they replaced, so every printed line compares with digests of older trees.
DIGITS_LABEL, JOINED_LABEL = ("_from_".join(pair) for pair in (("message", "ordinal"),
                                                                ("ordinal", "message")))

SIZES = (1, 31, 32, 33, 4096)
KINDS = ("uniform", "mc-draws", "quarter", "half", "integer")
INT_SIZES = (1, 31, 32, 33, 63, 64, 65, 511, 512, 513, 1023, 1024, 1025, 4096)
INT_KINDS = {"int64": 64, "int64-big": 1 << 18}  # kind -> largest |entry|

SAMPLES = (1, 4095, 4096, 4097, 20_000)
MC_DIGITS = 10

TRIALS = 2 * 4096 + 700
# spec, decoder mode, Es/N0 grid (dB), max_errors, trials
CASES = (
    ("pair2", "multistage", (-5.0, 11.0, 12.0, 13.0), 30, TRIALS),
    ("pair2", "exhaustive_ml", (10.0, 11.0, 12.0), 30, TRIALS),
    ("desk8-cube", "multistage", (13.0, 14.0, 15.0), 25, TRIALS),
    ("desk8-e8", "multistage", (13.0, 13.5, 14.0), 25, TRIALS),
    ("desk8-cube", "multistage", (13.0, 13.5, 14.0, 14.5, 15.0), 60, 30_000),
    ("desk8-e8", "multistage", (13.0, 13.5, 14.0, 14.5, 15.0), 60, 30_000),
    ("desk8-ham", "multistage", (17.0, 18.0, 19.0), 200, TRIALS),
    ("leech24", "multistage", (13.0, 15.0, 16.0), 200, 300),
)


def arrays_digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.int64)
        h.update(repr(a.shape).encode() + a.tobytes())
    return h.hexdigest()


def fields_digest(fields) -> str:
    return hashlib.sha256(repr(tuple(fields)).encode()).hexdigest()


def encode_lines():
    for name in BUILTIN_SPECS:
        spec = builtin_spec(name)
        draws = np.random.default_rng(2026).integers(0, spec.message_count, 4096,
                                                     dtype=np.int64)
        ords = np.concatenate([draws, [0, spec.message_count - 1]])
        points = spec.encode_batch(ords)
        outputs = {
            "representative_batch": spec.representative_batch(ords),
            "encode_batch": points,
            "index_batch(encode_batch)": spec.index_batch(points),
        }
        first = np.arange(min(MESSAGE_ORDINALS, spec.message_count))
        digits = [r.split(first) for r in spec._radix]
        outputs[DIGITS_LABEL] = np.hstack(digits)
        outputs[JOINED_LABEL] = sum(r.join(d) for r, d in zip(spec._radix, digits))
        if name in ENUMERATED:
            outputs["enumerate_constellation"] = spec.enumerate_constellation()
        for what, out in outputs.items():
            yield f"{name:10s} {what:26s} {arrays_digest([out])}"


def _rows(kind: str, lattice, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    shape = (SIZES[-1], lattice.dim)
    if kind == "uniform":
        return rng.uniform(-16.0, 16.0, shape)
    if kind == "mc-draws":
        return rng.random(shape) @ lattice.float_triangular().T
    ints = rng.integers(-32, 33, shape)
    return {"quarter": ints * 0.25, "half": ints + 0.5, "integer": ints * 1.0}[kind]


def quantize_lines():
    quantizers = [(name, standard_lattice(name)) for name in LATTICES]
    quantizers += [(name, builtin_spec(name).shaping) for name in BUILTIN_SPECS]
    for name, lattice in quantizers:
        q = make_quantizer(lattice)
        for seed, kind in enumerate(KINDS, start=2026):
            ys = _rows(kind, lattice, seed)
            outputs = (q.quantize_batch(ys[:m]) for m in SIZES)
            yield f"{name:10s} {kind:9s} {arrays_digest(outputs)}"
    int_quantizers = [(name, builtin_spec(name)._quantizer) for name in BUILTIN_SPECS]
    int_quantizers.append(("Leech_int", make_quantizer(standard_lattice("Leech_int"))))
    for name, q in int_quantizers:
        for seed, (kind, top) in enumerate(INT_KINDS.items(), start=2031):
            rng = np.random.default_rng(seed)
            rs = rng.integers(-top, top + 1, (INT_SIZES[-1], q.lattice.dim), dtype=np.int64)
            outputs = (q.quantize_batch(rs[:m]) for m in INT_SIZES)
            yield f"{name:10s} {kind:9s} {arrays_digest(outputs)}"


def _rounded(fields):
    return (float(f"{x:.{MC_DIGITS - 1}e}") if isinstance(x, float) else x for x in fields)


def mc_lines():
    for name in LATTICES:
        q = make_quantizer(standard_lattice(name))
        for seed in SEEDS:
            for samples in SAMPLES:
                est = second_moment_mc(q, samples, seed=seed)
                yield (f"{name:9s} seed {seed:2d} {samples:6d} "
                       f"{fields_digest(_rounded(dataclasses.astuple(est)))}")
    spec = builtin_spec("leech24")
    for seed in SEEDS:
        energy = sampled_energy(spec, 512, seed)
        yield f"leech24 energy seed {seed:2d} 512 {fields_digest(_rounded(energy))}"


def sweep_lines():
    for name, mode, grid, max_errors, trials in CASES:
        spec = builtin_spec(name)
        energy = sampled_energy(spec, 512)[0] if name == "leech24" else average_energy(spec)
        decoder = make_decoder(spec, mode)
        for seed in SEEDS:
            points = wer_sweep(spec, grid, trials=trials, seed=seed, max_errors=max_errors,
                               energy=energy, decoder=decoder)
            for p in points:
                yield (f"{name:10s} {mode:13s} seed {seed:2d} {p.es_n0_db:5.1f} dB "
                       f"{p.errors:4d}/{p.trials:5d} {fields_digest(dataclasses.astuple(p))}")


SECTIONS = {"encode": encode_lines, "quantize": quantize_lines, "mc": mc_lines,
            "sweep": sweep_lines}


def main() -> None:
    for section, lines in SECTIONS.items():
        body = "".join(f"{line}\n" for line in lines())
        print(f"== {section} {hashlib.sha256(body.encode()).hexdigest()}")
        print(body, end="")


if __name__ == "__main__":
    main()
