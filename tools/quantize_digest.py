"""Print sha256 digests of quantize_batch outputs on continuous, grid and integer inputs.

Two trees that print the same lines quantize these inputs identically. The
quantizers are those of Zn(8), Dn(8), E8_int and Leech_int, and the shaping
quantizer of every stock spec. Each gets 4096 fixed rows of five kinds:
uniform in [-16, 16), draws as second_moment_mc makes them (uniform in the
fundamental parallelotope), and quarter-, half- and whole-integer grids
from integers in [-32, 32]. A line digests, for one quantizer and one kind,
the int64 outputs of separate calls on the first 1, 31, 32, 33 and 4096
rows, so batches on both sides of an internal block boundary are covered.

The shaping quantizers of the stock specs also get int64 rows, as encode
and decode fold them: "int64" entries in [-64, 64], and "int64-big"
entries in [-2^18, 2^18], on both sides of the float32 bounds of their
scales. Their lines digest calls on the first 1, 31, 32, 33, 511, 512,
513, 1023, 1024, 1025 and 4096 rows: both E8 block sizes, 512 float64 and
1024 float32 rows.

    python tools/quantize_digest.py

imports vorlat from the src/ directory next to this script.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from vorlat.lattice import standard_lattice  # noqa: E402
from vorlat.quantize import make_quantizer  # noqa: E402
from vorlat.shaping import BUILTIN_SPECS, builtin_spec  # noqa: E402

LATTICES = ("Zn(8)", "Dn(8)", "E8_int", "Leech_int")
SIZES = (1, 31, 32, 33, 4096)
KINDS = ("uniform", "mc-draws", "quarter", "half", "integer")
INT_SIZES = (1, 31, 32, 33, 511, 512, 513, 1023, 1024, 1025, 4096)
INT_KINDS = {"int64": 64, "int64-big": 1 << 18}  # kind -> largest |entry|


def inputs(kind: str, lattice, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    shape = (SIZES[-1], lattice.dim)
    if kind == "uniform":
        return rng.uniform(-16.0, 16.0, shape)
    if kind == "mc-draws":
        return rng.random(shape) @ lattice.float_triangular().T
    ints = rng.integers(-32, 33, shape)
    return {"quarter": ints * 0.25, "half": ints + 0.5, "integer": ints * 1.0}[kind]


def int_inputs(top: int, lattice, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(-top, top + 1, (INT_SIZES[-1], lattice.dim), dtype=np.int64)


def digest(outputs) -> str:
    h = hashlib.sha256()
    for a in outputs:
        a = np.ascontiguousarray(a, dtype=np.int64)
        h.update(repr(a.shape).encode() + a.tobytes())
    return h.hexdigest()


def main() -> None:
    quantizers = [(name, standard_lattice(name)) for name in LATTICES]
    quantizers += [(name, builtin_spec(name).shaping) for name in BUILTIN_SPECS]
    for name, lattice in quantizers:
        q = make_quantizer(lattice)
        for seed, kind in enumerate(KINDS, start=2026):
            ys = inputs(kind, lattice, seed)
            print(f"{name:10s} {kind:9s} {digest(q.quantize_batch(ys[:m]) for m in SIZES)}")
    for name in BUILTIN_SPECS:
        q = builtin_spec(name)._quantizer
        for seed, (kind, top) in enumerate(INT_KINDS.items(), start=2031):
            rs = int_inputs(top, q.lattice, seed)
            print(f"{name:10s} {kind:9s} {digest(q.quantize_batch(rs[:m]) for m in INT_SIZES)}")


if __name__ == "__main__":
    main()
