"""Print sha256 digests of the WER points of short sweeps on every stock constellation.

Two trees that print the same lines draw, screen, decode and count the same
trials. Each stock spec runs wer_sweep with its multistage decoder (pair2
also with the exhaustive one) at seeds 1 and 91 on a short grid where
every point sees errors. Small specs run 2 * 4096 + 700 trials, so the last
trial block is partial, with a max_errors that stops some points after
different blocks; leech24 runs 300 trials with the energy of 512 samples.
desk8-cube and desk8-e8 also run the criterion-6 grid, 13:15:0.5 dB with
30 000 trials and max_errors 60, as the desk8-gap benchmark workload does.
A line digests one WerPoint as the repr of its field tuple and shows its
errors and trials.

    python tools/sweep_digest.py

imports vorlat from the src/ directory next to this script.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from vorlat.shaping import builtin_spec  # noqa: E402
from vorlat.simulate import (  # noqa: E402
    average_energy,
    make_decoder,
    sampled_energy,
    wer_sweep,
)

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
SEEDS = (1, 91)


def main() -> None:
    for name, mode, grid, max_errors, trials in CASES:
        spec = builtin_spec(name)
        energy = sampled_energy(spec, 512)[0] if name == "leech24" else average_energy(spec)
        decoder = make_decoder(spec, mode)
        for seed in SEEDS:
            points = wer_sweep(spec, grid, trials=trials, seed=seed, max_errors=max_errors,
                               energy=energy, decoder=decoder)
            for p in points:
                fields = repr(dataclasses.astuple(p)).encode()
                print(f"{name:10s} {mode:13s} seed {seed:2d} {p.es_n0_db:5.1f} dB "
                      f"{p.errors:4d}/{p.trials:5d} {hashlib.sha256(fields).hexdigest()}")


if __name__ == "__main__":
    main()
