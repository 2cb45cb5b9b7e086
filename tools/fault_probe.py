"""Print the minor page faults and the tracemalloc peak of one call of four
encode, decode and Monte Carlo entry points.

Each probe runs in a fresh interpreter, so one probe's heap does not shape
another's. A probe makes its inputs, calls the entry point once to build any
cached state, then reports the `getrusage` minor faults per call averaged
over CALLS calls and the `tracemalloc` peak of one more call (memory
allocated during the call, inputs and cached state not counted). The probes:

- encode: 4096-row desk8-e8 `VoronoiCodeSpec.encode_batch`
- representative: 4096-row leech24 `VoronoiCodeSpec.representative_batch`
- lattice_points: 4096-row desk8-e8 `MultistageDecoder.lattice_points` on
  encoded points plus Gaussian noise of sigma 0.5
- second_moment_mc: 16 384-sample E8_int `second_moment_mc`

Fault counts move by a few tens with the interpreter's heap layout, which
the lengths of the tree's path and of the environment change, so compare
two trees from directories whose paths have the same length. The
tracemalloc peaks do not move.

    python tools/fault_probe.py

imports vorlat from the src/ directory next to this script.
"""

from __future__ import annotations

import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from vorlat.lattice import standard_lattice  # noqa: E402
from vorlat.quantize import make_quantizer  # noqa: E402
from vorlat.shaping import builtin_spec  # noqa: E402
from vorlat.simulate import MultistageDecoder, random_ordinals, second_moment_mc  # noqa: E402

ROWS = 4096
MC_SAMPLES = 16_384
CALLS = 50


def _encode():
    spec = builtin_spec("desk8-e8")
    ords = random_ordinals(spec, ROWS, seed=1)
    return (lambda: spec.encode_batch(ords)), f"desk8-e8 encode_batch, {ROWS} rows"


def _representative():
    spec = builtin_spec("leech24")
    ords = random_ordinals(spec, ROWS, seed=1)
    return (lambda: spec.representative_batch(ords),
            f"leech24 representative_batch, {ROWS} rows")


def _lattice_points():
    spec = builtin_spec("desk8-e8")
    points = spec.encode_batch(random_ordinals(spec, ROWS, seed=1))
    noisy = points + np.random.default_rng(1).normal(0.0, 0.5, points.shape)
    decoder = MultistageDecoder(spec)
    return (lambda: decoder.lattice_points(noisy),
            f"desk8-e8 MultistageDecoder.lattice_points, {ROWS} rows")


def _second_moment_mc():
    q = make_quantizer(standard_lattice("E8_int"))
    return (lambda: second_moment_mc(q, MC_SAMPLES, seed=1),
            f"E8_int second_moment_mc, {MC_SAMPLES} samples")


PROBES = {"encode": _encode, "representative": _representative,
          "lattice_points": _lattice_points, "second_moment_mc": _second_moment_mc}


def probe(name: str) -> str:
    call, label = PROBES[name]()
    call()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(CALLS):
        call()
    faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / CALLS
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return f"{label}: {faults:.1f} minor faults/call, tracemalloc peak {peak / 1024:.1f} KiB"


def main() -> None:
    if len(sys.argv) == 3 and sys.argv[1] == "--probe":
        print(probe(sys.argv[2]))
        return
    for name in PROBES:
        subprocess.run([sys.executable, __file__, "--probe", name], check=True)


if __name__ == "__main__":
    main()
