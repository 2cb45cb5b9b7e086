"""Voronoi constellations: multilevel coding lattice, shaping lattice, and the
box-indexed bijection between messages and constellation points.

A constellation is the set of coding-lattice points inside the Voronoi region
of the shaping lattice. Messages are tuples (one symbol block per code level
plus a shaping vector s drawn from an integer box); the representative
x = sum_i q^i c_i + q^a s of a message lives in a hyperrectangle, and folding
it modulo the shaping lattice gives the transmitted point. Indexing inverts
that without any search: peel the base-q digits level by level, then reduce
the leftover integer vector back into the box.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os

import numpy as np

from .codes import (
    CodeChain,
    _MixedRadix,
    builtin_chain,
    load_chain,
    nested_basis,
    verify_carry_closure,
)
from .intmat import IntMatrix, _integer
# is_sublattice and quotient_order are not called here (the nesting holds by
# construction); perfbench/tracer.py wraps them as attributes of this module.
from .lattice import (  # noqa: F401
    Lattice,
    direct_sum,
    is_sublattice,
    load_lattice,
    quotient_order,
    standard_lattice,
)
from .quantize import (
    _FLOAT_LIMIT,
    fold_batch,
    fold_mod_parallelotope_batch,
    make_quantizer,
)

_ENUM_LIMIT = 1 << 20
_ENCODE_BLOCK = 4096  # rows per encode call when enumerating the constellation
_INT64_ORDINALS = 1 << 63  # message counts from here on do not fit int64 ordinals
_LOOKUP_ROWS = 256  # most rows of one representative lookup table
# Rows per digit split and code encode of a large unit: each block's digits,
# reduced symbols and codewords stay near 96 KiB, so a 4096-row leech24
# representative holds the output plus about a third of its size (1057 KiB
# tracemalloc peak against 3073 KiB unsplit) and runs 1.7x faster in cache.
_SPLIT_ROWS = 512


def construction_d_lattice(chain: CodeChain) -> Lattice:
    """Coding lattice sum_i q^i C_i + q^a Z^n from a chain of nested codes.

    The generator columns are q^level * b for each nested-basis row b plus
    q^a * e_m for the non-pivot positions m. Each row b vanishes before its
    pivot, where it is 1, so these columns are already lower triangular with
    diagonal q^level or q^a. Reducing them to Hermite form can stay modulo
    q^a because q^a Z^n is inside the lattice, so every intermediate value
    stays below (q^a)^2: int64 holds the sweep for q^a < 2^31, and larger
    moduli run it on Python integers.
    """
    q, a, n = chain.q, chain.a, chain.n
    rows, levels, pivots = nested_basis(chain)
    qa = q**a
    dtype = np.int64 if qa < 1 << 31 else object
    m = np.zeros((n, n), dtype=dtype)
    for row, level, piv in zip(rows, levels, pivots):
        m[:, piv] = np.array(row, dtype=dtype) * q**level
    for i in set(range(n)) - set(pivots):
        m[i, i] = qa
    for i in range(1, n):
        qf = m[i, :i] // m[i, i]  # the sweep never changes the diagonal
        if np.any(qf):
            m[i:, :i] -= np.outer(m[i:, i], qf)
            m[i + 1 :, :i] %= qa
    triangular = IntMatrix(m.tolist())
    return Lattice(triangular, _triangular=triangular, name=f"multilevel({chain!r})")


def _share(unit, digits) -> np.ndarray:
    """A VoronoiCodeSpec._units entry's share of representatives from its
    digits, as a new array: a code level's share is its codewords times
    q^level, scaled in place, the box's s times q^a.
    """
    code, scale = unit[2:]
    if code is None:
        return digits * scale
    share = code.encode_batch(digits)
    share *= scale
    return share


def _int64_rows(points, n: int) -> np.ndarray:
    """points as int64 rows of length n, without a copy when they already
    are. Float entries must be integers to 1e-9; entries outside the int64
    range [-2^63, 2^63) are refused with a ValueError, never wrapped."""
    x = np.asarray(points)
    if x.ndim != 2 or x.shape[1] != n:
        raise ValueError(f"points must be rows of length {n}")
    if x.dtype == np.int64:
        return x
    if x.dtype.kind == "f":
        xi = np.rint(x)
        if not np.all(np.abs(x - xi) < 1e-9):
            raise ValueError("not a lattice point: non-integer input")
        x = xi
    elif x.dtype.kind not in "biuO":  # O: Python integers too wide for int64
        raise ValueError(f"points must be integers, got dtype {x.dtype}")
    if x.size and (x.min() < -(1 << 63) or x.max() >= 1 << 63):
        raise ValueError("point entries must lie in the int64 range [-2^63, 2^63)")
    return x.astype(np.int64)


def _check_int64_ordinals(message_count: int) -> None:
    """Refuse a message count whose ordinals do not all fit int64."""
    if message_count >= _INT64_ORDINALS:
        raise ValueError(
            f"message count 2^{math.log2(message_count):.2f} is not below the "
            f"int64 ordinal limit 2^63"
        )


class VoronoiCodeSpec:
    """A Voronoi constellation built from a code chain and a shaping base.

    The shaping lattice is q^a * (direct sum of `copies` blocks of
    alpha * base), nested in the coding lattice by construction; its
    quotient by the coding lattice enumerates exactly message_count points.
    `offset` translates every representative before folding; its entries,
    alpha and copies must be integers (alpha and copies positive). A spec
    whose box representatives can reach 2^52 in magnitude is refused: the
    fold rounds them as float64.
    """

    def __init__(self, chain: CodeChain, base: Lattice, *, alpha: int = 1,
                 copies: int = 1, offset=None, name: str | None = None):
        alpha = _integer("alpha", alpha, 1)
        copies = _integer("copies", copies, 1)
        if chain.a > 1:
            # multilevel carries must stay inside the chain; proven for q = 2
            verify_carry_closure(chain)
        n = chain.n
        if base.dim * copies != n:
            raise ValueError(
                f"chain length {n} does not match shaping dimension "
                f"{base.dim} x {copies} copies"
            )
        self.chain = chain
        self.base = base
        self.alpha = alpha
        self.copies = copies
        self.name = name
        self.q = chain.q
        self.a = chain.a
        self.n = n
        self.qa = chain.q**chain.a
        self.coding = construction_d_lattice(chain)
        self.shaping_prime = direct_sum(base, copies, alpha)
        self.shaping = self.shaping_prime.scaled(self.qa)
        self.s_box = self.shaping_prime.diag()
        if offset is None:
            offset = (0,) * n
        self.offset = tuple(_integer("offset entry", v) for v in offset)
        if len(self.offset) != n:
            raise ValueError("offset length does not match dimension")
        # Coordinate j of a box representative lies in [offset_j, offset_j +
        # q^a d_j - 1]. The fold quantizes float64 copies of it (float32 only
        # far below this, where that is exact), so past 2^52 rounding would
        # move points silently.
        reach = max(max(abs(v), abs(v + self.qa * d - 1))
                    for v, d in zip(self.offset, self.s_box))
        if reach >= _FLOAT_LIMIT:
            raise ValueError(
                f"box representatives reach {reach} in magnitude, not below the "
                f"float64 fold limit 2^52"
            )
        # q^a L' is inside q^a Z^n (L' is an integer lattice), which is inside
        # the coding lattice, so M = |Z^n / L'| * |coding / q^a Z^n|.
        self.message_count = self.shaping_prime.volume * self.q ** sum(chain.dims())
        self._quantizer = make_quantizer(self.shaping)
        self._offset_np = np.array(self.offset, dtype=np.int64)

    @functools.cached_property
    def _units(self) -> tuple:
        """(places, radices, code, scale) of each unit of an ordinal.

        The units are the code levels, then the box: level 0's symbols are
        the least significant digits of an ordinal, then each higher
        level's, then s with s_{n-1} below s_0. Within a unit the most
        significant digit comes first. A unit's share of a representative
        is code.encode_batch(digits) * q^level, or s * q^a for the box,
        whose code is None. Python integers, so the layout holds past the
        int64 ordinal limit.
        """
        blocks = [([self.q] * code.k, code, self.q**level)
                  for level, code in enumerate(self.chain.codes)]
        blocks.append(([int(d) for d in self.s_box], None, self.qa))
        units, place = [], 1
        for radices, code, scale in blocks:
            places = itertools.accumulate(reversed(radices[1:]), operator.mul, initial=place)
            units.append((list(places)[::-1], radices, code, scale))
            place *= math.prod(radices)
        return tuple(units)

    @functools.cached_property
    def _radix(self) -> tuple:
        """One int64 _MixedRadix per unit; refused past the int64 ordinal limit."""
        _check_int64_ordinals(self.message_count)
        return tuple(_MixedRadix(places, radices) for places, radices, *_ in self._units)

    @functools.cached_property
    def _encode_plan(self) -> tuple:
        """(lookups, splits): the steps that sum to a representative.

        Adjacent units whose value counts multiply to at most _LOOKUP_ROWS
        share a table whose row j is their combined share of x for the
        ordinal j * place, place being the place value of their lowest
        digit; the offset is folded into the first table. A lookup is
        (table, div, mod, shift): the row is (o >> div) & mod when shift is
        set, else o // div % mod. A larger unit is a split (unit, radix):
        its digits are split from the ordinal and go through _share. With
        no small unit, a one-row table holds the offset, so every encode
        starts from a lookup.
        """
        groups = []  # [place of the lowest digit, value count, [(unit, radix), ...]]
        for unit, radix in zip(self._units, self._radix):
            count = math.prod(unit[1])
            if groups and groups[-1][1] * count <= _LOOKUP_ROWS:
                groups[-1][1] *= count
                groups[-1][2].append((unit, radix))
            else:
                groups.append([unit[0][-1], count, [(unit, radix)]])
        lookups, splits = [], []
        for place, count, members in groups:
            if count > _LOOKUP_ROWS:
                splits.extend(members)
                continue
            ordinals = np.arange(count, dtype=np.int64) * place
            table = np.ascontiguousarray(
                sum(_share(unit, radix.split(ordinals)) for unit, radix in members))
            if not lookups:
                table += self._offset_np
            shift = place & (place - 1) == 0 and count & (count - 1) == 0
            lookups.append((table, place.bit_length() - 1, count - 1, True) if shift
                           else (table, place, count, False))
        if not lookups:
            lookups.append((self._offset_np[None], 0, 0, True))
        return tuple(lookups), tuple(splits)

    @functools.cached_property
    def _shaping_prime_t(self) -> np.ndarray:
        """int64 triangular generator of L' (OverflowError if it does not fit)."""
        return self.shaping_prime.triangular_generator.to_int64()

    # -- rate ---------------------------------------------------------------

    def rate_terms(self) -> tuple:
        """(bits per dimension from shaping, bits per dimension from coding)."""
        base_bits = math.log2(self.base.volume) / self.base.dim
        shaping_term = math.log2(self.alpha) + base_bits
        coding_term = sum(self.chain.dims()) / self.n * math.log2(self.q)
        return shaping_term, coding_term

    def rate(self) -> float:
        """Bits per dimension; equals log2(message_count)/n to 1e-12."""
        return sum(self.rate_terms())

    # -- message bookkeeping --------------------------------------------------

    def all_ordinals(self) -> np.ndarray:
        if self.message_count > _ENUM_LIMIT:
            raise ValueError(
                f"constellation has {self.message_count} points, "
                f"more than the enumeration bound {_ENUM_LIMIT}"
            )
        return np.arange(self.message_count, dtype=np.int64)

    # -- encoding -------------------------------------------------------------

    def representative_batch(self, ordinals) -> np.ndarray:
        """Box representatives x = sum q^i c_i + q^a s + offset, unfolded.

        Built straight from each int64 ordinal by the steps of _encode_plan:
        one table lookup per group of small units (code levels and box),
        then a digit split and code encode for each larger unit, taken
        _SPLIT_ROWS rows at a time. Every share is added into the first
        lookup's rows. The rows are C-ordered int64. Ordinals must form a
        1-d integer array within [0, message_count); anything else is
        refused with a ValueError.
        """
        given = np.asarray(ordinals)
        if given.ndim != 1:
            raise ValueError(f"message ordinals must be a 1-d array, got shape {given.shape}")
        if given.dtype.kind not in "iu":
            raise ValueError(f"message ordinals must be integers, got dtype {given.dtype}")
        o = given.astype(np.int64, copy=False)
        # one unsigned max: a negative int64 reads as at least 2^63 > message_count
        if o.size and o.view(np.uint64).max() >= self.message_count:
            bad = given[(given < 0) | (given >= self.message_count)]
            raise ValueError(f"message ordinal {bad[0]} outside [0, {self.message_count})")
        lookups, splits = self._encode_plan
        (table, div, mod, shift), *rest = lookups
        x = table.take((o >> div) & mod if shift else o // div % mod, axis=0)
        for table, div, mod, shift in rest:
            x += table.take((o >> div) & mod if shift else o // div % mod, axis=0)
        for unit, radix in splits:
            for lo in range(0, len(o), _SPLIT_ROWS):
                x[lo : lo + _SPLIT_ROWS] += _share(unit, radix.split(o[lo : lo + _SPLIT_ROWS]))
        return x

    def encode_batch(self, ordinals) -> np.ndarray:
        """Constellation points for message ordinals (int64 rows)."""
        return fold_batch(self._quantizer, self.representative_batch(ordinals))

    # -- indexing ---------------------------------------------------------------

    def index_batch(self, points) -> np.ndarray:
        """Message ordinals of coding-lattice points (inverse of encode).

        The ordinal is the sum of each unit's join: a level's pivot symbols,
        then the remainder folded into the box of L'.
        """
        radix = self._radix
        t = _int64_rows(points, self.n) - self._offset_np
        ordinals = np.zeros(len(t), dtype=np.int64)
        for code, level_radix in zip(self.chain.codes, radix):
            high = t // self.q
            level = t - self.q * high
            if not code._holds(level):
                raise ValueError(
                    "not a constellation point: level digits leave the code"
                )
            ordinals += level_radix.join(level[:, code._pivots])
            t = high
        ordinals += radix[-1].join(fold_mod_parallelotope_batch(self._shaping_prime_t, t))
        return ordinals

    def same_message(self, p, x) -> np.ndarray:
        """Per row, whether coding-lattice points p and x carry one message.

        Messages are cosets of the shaping lattice q^a * L', so this tests
        p - x in q^a * L' without folding either point: the difference must
        be divisible by q^a (rows that are not skip the second test), and
        the quotient must reduce to zero in the digit box of L'. Rows are
        read as by `index_batch`.
        """
        diff = _int64_rows(p, self.n) - _int64_rows(x, self.n)
        quot = diff // self.qa
        same = ~np.any(diff - self.qa * quot, axis=1)
        if same.any():
            box = fold_mod_parallelotope_batch(self._shaping_prime_t, quot[same])
            same[same] = ~np.any(box, axis=1)
        return same

    # -- enumeration ------------------------------------------------------------

    def enumerate_constellation(self) -> np.ndarray:
        """Every constellation point, ordered by message ordinal.

        The points are encoded _ENCODE_BLOCK ordinals at a time into one
        output array, so the fold's temporaries stay the size of a block.
        """
        ordinals = self.all_ordinals()
        out = np.empty((len(ordinals), self.n), dtype=np.int64)
        for lo in range(0, len(ordinals), _ENCODE_BLOCK):
            out[lo : lo + _ENCODE_BLOCK] = self.encode_batch(ordinals[lo : lo + _ENCODE_BLOCK])
        return out

    def __repr__(self):
        label = self.name or f"{self.chain!r}+{self.base!r}"
        return f"VoronoiCodeSpec({label}, M={self.message_count})"


# ---------------------------------------------------------------------------
# stock constellations and spec files


# stock constellation name -> the key = value pairs of its spec file (see
# `load_spec`); a new stock spec is one entry here
_STOCK_SPECS = {
    "pair2": {"chain": "rep2", "base": "Zn(2)", "alpha": "2"},
    "desk8-e8": {"chain": "rep8-spc8", "base": "E8_int"},
    "desk8-cube": {"chain": "rep8-spc8", "base": "Zn(8)", "alpha": "2"},
    "desk8-ham": {"chain": "rep8-ham8-spc8", "base": "Zn(8)", "alpha": "2"},
    "leech24": {"chain": "rep24-spc24", "base": "Leech_int"},
}
BUILTIN_SPECS = tuple(_STOCK_SPECS)


def builtin_spec(name: str) -> VoronoiCodeSpec:
    """Stock constellation by name: its `_STOCK_SPECS` spec file values,
    built as `load_spec` builds a file's, with the name as its label."""
    if not isinstance(name, str) or name not in _STOCK_SPECS:
        raise ValueError(f"unknown constellation {name!r}")
    return _spec_from_values({**_STOCK_SPECS[name], "name": name}, "")


def load_spec(path) -> VoronoiCodeSpec:
    """Read a key = value spec file describing a constellation.

    Keys: chain (stock chain name or chain file path), base (stock lattice
    name or matrix file path), alpha, copies (positive integers, default 1).
    Relative paths resolve against the spec file's directory.
    """
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ValueError(f"spec file line {line_no}: expected key = value")
            key, _, value = body.partition("=")
            key, value = key.strip(), value.strip()
            if key in values:
                raise ValueError(f"spec file line {line_no}: duplicate key {key!r}")
            values[key] = value
    return _spec_from_values(values, os.path.dirname(os.path.abspath(path)))


def _spec_from_values(values: dict, base_dir: str) -> VoronoiCodeSpec:
    """The constellation of a spec file's key = value pairs, its relative
    paths resolved against base_dir."""
    unknown = set(values) - {"chain", "base", "alpha", "copies", "name"}
    if unknown:
        raise ValueError(f"spec file: unknown keys {sorted(unknown)}")
    for required in ("chain", "base"):
        if required not in values:
            raise ValueError(f"spec file: missing required key {required!r}")
    chain = _stock_or_file(values["chain"], base_dir, builtin_chain, load_chain,
                           "spec file: chain {!r} is neither stock nor a readable file")
    base = _stock_or_file(values["base"], base_dir, standard_lattice, load_lattice,
                          "spec file: base {!r} is neither stock nor a readable file")
    alpha = _int_value(values.get("alpha", "1"), "alpha")
    copies = _int_value(values.get("copies", "1"), "copies")
    return VoronoiCodeSpec(
        chain, base, alpha=alpha, copies=copies, name=values.get("name")
    )


def _int_value(text: str, key: str) -> int:
    """A spec file's integer value; VoronoiCodeSpec checks its range."""
    try:
        return int(text)
    except ValueError as exc:
        raise ValueError(f"spec file: {key} must be an integer") from exc


def _stock_or_file(value, base_dir: str, stock, load, refusal: str):
    """stock(value) for a stock name, else load(path) for a readable regular
    file (relative to base_dir unless absolute); anything else, directories
    and unreadable files among them, is refused with a ValueError whose
    message is refusal.format(value)."""
    try:
        return stock(value)
    except ValueError:
        pass
    if isinstance(value, (str, os.PathLike)):
        path = os.path.join(base_dir, value)  # an absolute value drops base_dir
        if os.path.isfile(path):
            try:
                return load(path)
            except OSError as exc:
                raise ValueError(f"{refusal.format(value)} ({exc.strerror or exc})") from None
    raise ValueError(refusal.format(value))


def get_spec(name_or_path: str) -> VoronoiCodeSpec:
    """Stock constellation by name, or a spec file by path (a str or a
    path-like object) that names a readable regular file."""
    return _stock_or_file(name_or_path, "", builtin_spec, load_spec,
                          "{!r} is not a stock constellation or a readable spec file; "
                          f"stock names: {', '.join(BUILTIN_SPECS)}")
