"""Binary (24,12) extended Golay code, built rather than transcribed.

The length-23 perfect Golay code is cyclic, generated by either degree-11
factor of (x^23+1)/(x+1) over GF(2). We recover such a factor by direct
search (1024 candidates), append an overall parity bit, and cache the
4096-word codebook. Downstream uses: the scaled Leech lattice generator and
its quantizer, which splits the codebook into the 128 classes of 32 words
that a sextet of tetrads defines and scores only the words of its best
classes.
"""

from __future__ import annotations

import functools

import numpy as np


def _poly_divides(g: int, f: int) -> bool:
    """Carry-less polynomial division test over GF(2), bit i = coeff of x^i."""
    dg = g.bit_length() - 1
    while f.bit_length() - 1 >= dg and f:
        f ^= g << (f.bit_length() - 1 - dg)
    return f == 0


def _golay23_generator_poly() -> int:
    x23_1 = (1 << 23) | 1
    for low in range(1 << 10):
        g = (1 << 11) | (low << 1) | 1
        if _poly_divides(g, x23_1):
            return g
    raise AssertionError("no degree-11 factor of x^23+1 found")


@functools.cache
def generator_matrix() -> np.ndarray:
    """12x24 generator of the extended Golay code (uint8, not systematic),
    built on the first call; every call returns the same read-only array."""
    g = _golay23_generator_poly()
    coeffs = [(g >> i) & 1 for i in range(12)]
    rows = []
    for shift in range(12):
        row = [0] * 23
        for i, c in enumerate(coeffs):
            row[shift + i] = c
        rows.append(row)
    gen = np.array(rows, dtype=np.uint8)
    parity = (gen.sum(axis=1) % 2).astype(np.uint8)
    gen = np.concatenate([gen, parity[:, None]], axis=1)
    gen.setflags(write=False)
    return gen


@functools.cache
def codewords() -> np.ndarray:
    """All 4096 codewords as a (4096, 24) uint8 array, row 0 the zero word,
    built on the first call; every call returns the same read-only array.

    Row j is the xor of the generator rows picked by the set bits of j, so
    row j equals row (j & 63) xor row (j & ~63). The Leech quantizer's tie
    rule follows this row order.
    """
    table = np.zeros((1, 24), dtype=np.uint8)
    for row in generator_matrix():
        table = np.concatenate([table, table ^ row], axis=0)
    w = table.sum(axis=1)
    if table.shape != (4096, 24) or w[w > 0].min() != 8:
        raise AssertionError("Golay construction failed self-check")
    table.setflags(write=False)
    return table
