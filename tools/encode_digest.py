"""Print sha256 digests of the encoder's outputs on every stock constellation.

Two trees that print the same lines encode, fold and index identically on
these inputs. Per spec, the ordinals are 4096 draws of the tool's own
np.random.default_rng(2026), not of the package's streams (so a change of
those streams cannot move a digest), followed by 0 and M - 1; each digest
covers the int64 output's shape and bytes. The small specs also digest the
whole constellation.
The per-unit digits are digested on the first 256 ordinals (all 8 of
pair2): each ordinal's digit splits as one flat int row (code symbols level
by level, then s), and the sum of the units' joins of those digits.

    python tools/encode_digest.py

imports vorlat from the src/ directory next to this script.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from vorlat.shaping import BUILTIN_SPECS, builtin_spec  # noqa: E402

ENUMERATED = ("pair2", "desk8-e8", "desk8-cube")
MESSAGE_ORDINALS = 256
# The digit rows and their joins keep the labels of the per-message calls
# they replaced, so every printed line compares with digests of older trees.
DIGITS_LABEL, JOINED_LABEL = ("_from_".join(pair) for pair in (("message", "ordinal"),
                                                                ("ordinal", "message")))


def digest(a: np.ndarray) -> str:
    a = np.ascontiguousarray(a, dtype=np.int64)
    return hashlib.sha256(repr(a.shape).encode() + a.tobytes()).hexdigest()


def main() -> None:
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
            print(f"{name:10s} {what:26s} {digest(out)}")


if __name__ == "__main__":
    main()
