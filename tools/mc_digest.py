"""Print sha256 digests of Monte Carlo second moments and sampled energies.

Two trees that print the same lines draw and score the same samples. Each of
Zn(8), Dn(8), E8_int and Leech_int runs second_moment_mc at seeds 1 and 91
on 1, 4095, 4096, 4097 and 20 000 samples, so estimates end inside, at and
just past the 4096-sample block boundary, and a partial last block follows
full ones. sampled_energy of the leech24 spec runs on 512 samples at the
same seeds. A line digests one estimate as the repr of its field tuple.

    python tools/mc_digest.py

imports vorlat from the src/ directory next to this script.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from vorlat.lattice import standard_lattice  # noqa: E402
from vorlat.quantize import make_quantizer  # noqa: E402
from vorlat.shaping import builtin_spec  # noqa: E402
from vorlat.simulate import sampled_energy, second_moment_mc  # noqa: E402

LATTICES = ("Zn(8)", "Dn(8)", "E8_int", "Leech_int")
SAMPLES = (1, 4095, 4096, 4097, 20_000)
SEEDS = (1, 91)


def digest(fields) -> str:
    return hashlib.sha256(repr(fields).encode()).hexdigest()


def main() -> None:
    for name in LATTICES:
        q = make_quantizer(standard_lattice(name))
        for seed in SEEDS:
            for samples in SAMPLES:
                est = second_moment_mc(q, samples, seed=seed)
                print(f"{name:9s} seed {seed:2d} {samples:6d} "
                      f"{digest(dataclasses.astuple(est))}")
    spec = builtin_spec("leech24")
    for seed in SEEDS:
        print(f"leech24 energy seed {seed:2d} 512 {digest(sampled_energy(spec, 512, seed))}")


if __name__ == "__main__":
    main()
