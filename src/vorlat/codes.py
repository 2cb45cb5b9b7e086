"""Linear codes over prime fields and the nesting chains built from them.

Codes are stored in reduced row echelon form, so encoding is systematic: the
message symbols appear verbatim at the pivot positions of the generator and
only the remaining n-k parity symbols are computed. Chains of nested codes
feed the multilevel lattice construction in the shaping module; the carry
closure check here is what guarantees that construction yields a lattice.
"""

from __future__ import annotations

import numpy as np

from .intmat import _integer

_CODEWORD_TABLE_LIMIT = 1 << 20


def is_prime(q: int) -> bool:
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


def _mod_inverse(value: int, q: int) -> int:
    return pow(int(value) % q, q - 2, q)


def _rref_mod(rows: list[list[int]], q: int) -> tuple[list[tuple[int, ...]], list[int]]:
    """Reduced row echelon form over F_q; returns (rows, pivot columns)."""
    work = [[v % q for v in row] for row in rows]
    n = len(work[0])
    pivots: list[int] = []
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = _mod_inverse(work[rank][col], q)
        work[rank] = [(v * inv) % q for v in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                c = work[r][col]
                work[r] = [(a - c * b) % q for a, b in zip(work[r], work[rank])]
        pivots.append(col)
        rank += 1
    if rank < len(work):
        raise ValueError("generator rows are linearly dependent")
    return [tuple(r) for r in work], pivots


class _MixedRadix:
    """Place values and radices of some or all of the digits of int64 ordinals.

    Digit d of an ordinal is ordinal // places[d] % radices[d]. Over all of
    an ordinal's digits each place value is the product of the radices of
    the less significant digits, and the ordinal is sum_d places[d] *
    digit[d]; a split may also take only some digits, such as one code
    level's. `split` takes every digit in one broadcast: floor division by
    the place value, then reduction by the radix, so over all digits
    ordinals outside [0, prod(radices)) wrap modulo it. When every place
    value and every radix is a power of two the division is a shift and the
    reduction a mask. Both must be checked: a split over some digits can
    have power-of-two radices at places that are not powers of two. int64
    division by an array of divisors costs about ten times a shift per
    element; the general path alone made 4096-row desk8-e8 representatives
    1.5x slower.
    """

    __slots__ = ("places", "_div", "_mod", "_pow2")

    def __init__(self, places, radices):
        places = [int(p) for p in places]
        radices = [int(r) for r in radices]
        self.places = np.array(places, dtype=np.int64)
        self._pow2 = all(v & (v - 1) == 0 for v in places + radices)
        if self._pow2:
            div = [p.bit_length() - 1 for p in places]
            mod = [r - 1 for r in radices]
        else:
            div, mod = places, radices
        self._div = np.array(div, dtype=np.int64)[:, None]
        self._mod = np.array(mod, dtype=np.int64)[:, None]

    def split(self, ordinals) -> np.ndarray:
        """(rows, digits) table of the digits of each ordinal.

        The table is the transpose of a (digits, rows) array, so each
        broadcast runs along the rows.
        """
        o = np.asarray(ordinals, dtype=np.int64)
        if self._pow2:
            d = o >> self._div
            d &= self._mod
        else:
            d = o // self._div
            d %= self._mod
        return d.T

    def join(self, digits) -> np.ndarray:
        """Ordinals from a (rows, digits) table: one dot with the place values."""
        return digits @ self.places


class LinearCode:
    """A [n, k] linear code over F_q (q prime) in systematic form."""

    __slots__ = ("q", "n", "k", "rows", "pivots", "_gen", "_pivots", "_nonpivots",
                 "_parity")

    def __init__(self, generator_rows, q: int = 2):
        q = _integer("q", q)
        if not is_prime(q):
            raise ValueError("q must be prime")
        rows = [[_integer("generator entry", v) for v in r] for r in generator_rows]
        if not rows or not rows[0]:
            raise ValueError("empty generator")
        if any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("generator rows have unequal length")
        self.q = q
        self.n = len(rows[0])
        self.rows, piv = _rref_mod(rows, q)
        self.k = len(self.rows)
        self.pivots = tuple(piv)
        self._gen = np.array(self.rows, dtype=np.int64)
        self._pivots = np.array(piv, dtype=np.int64)
        self._nonpivots = np.array(
            [j for j in range(self.n) if j not in set(piv)], dtype=np.int64
        )
        self._parity = self._gen[:, self._nonpivots]

    def encode_batch(self, messages: np.ndarray) -> np.ndarray:
        """Systematic encoding: k pivot symbols copied, n-k parities computed."""
        m = np.asarray(messages, dtype=np.int64) % self.q
        if m.ndim != 2 or m.shape[1] != self.k:
            raise ValueError(f"messages must have {self.k} symbols")
        out = np.empty((m.shape[0], self.n), dtype=np.int64)
        out[:, self._pivots] = m
        if len(self._nonpivots):
            out[:, self._nonpivots] = (m @ self._parity) % self.q
        return out

    def _holds(self, words) -> bool:
        """Whether every row of `words` is a codeword: its pivot symbols re-encode to it.

        Symbols are read as given, so a row with a symbol outside [0, q) is
        not a codeword.
        """
        w = np.asarray(words, dtype=np.int64)
        return np.array_equal(self.encode_batch(w[:, self._pivots]), w)

    def parity_check(self) -> np.ndarray:
        """(n-k) x n matrix H with H c = 0 exactly for codewords c."""
        h = np.zeros((self.n - self.k, self.n), dtype=np.int64)
        h[:, self._nonpivots] = np.eye(self.n - self.k, dtype=np.int64)
        h[:, self._pivots] = (-self._parity.T) % self.q
        return h

    def codewords(self) -> np.ndarray:
        """All q^k codewords, ordered by message ordinal: word j encodes the
        base-q digits of j, most significant symbol first."""
        count = self.q**self.k
        if count > _CODEWORD_TABLE_LIMIT:
            raise ValueError("code too large to tabulate")
        places = [self.q**j for j in range(self.k - 1, -1, -1)]
        return self.encode_batch(_MixedRadix(places, [self.q] * self.k).split(np.arange(count)))

    def __repr__(self):
        return f"LinearCode(n={self.n}, k={self.k}, q={self.q})"


class CodeChain:
    """Nested codes C_0 within C_1 within ... over a common F_q."""

    __slots__ = ("codes", "q", "n")

    def __init__(self, codes):
        codes = tuple(codes)
        if not codes:
            raise ValueError("empty chain")
        q, n = codes[0].q, codes[0].n
        for i, c in enumerate(codes):
            if c.q != q:
                raise ValueError("chain codes use different fields")
            if c.n != n:
                raise ValueError("chain codes have different lengths")
            if i and c.k < codes[i - 1].k:
                raise ValueError(
                    f"level {i - 1} code is not contained in level {i} code"
                )
        for i in range(len(codes) - 1):
            if not codes[i + 1]._holds(codes[i]._gen):
                raise ValueError(
                    f"level {i} code is not contained in level {i + 1} code"
                )
        self.codes = codes
        self.q = q
        self.n = n

    @property
    def a(self) -> int:
        return len(self.codes)

    def dims(self) -> tuple:
        return tuple(c.k for c in self.codes)

    def __repr__(self):
        ks = ",".join(str(c.k) for c in self.codes)
        return f"CodeChain(q={self.q}, n={self.n}, k=[{ks}])"


def nested_basis(chain: CodeChain) -> tuple[list, list, list]:
    """Basis rows of the top code whose prefixes span every lower code.

    Returns (rows, levels, pivots): rows[j] is an F_q row vector, levels[j]
    is the first chain level whose code contains it, and pivots[j] is its
    leading position. The first k_i rows span chain.codes[i]. New rows are
    only reduced against rows from the same or lower levels, so each row
    stays inside its own level's code.
    """
    q = chain.q
    rows: list[np.ndarray] = []
    levels: list[int] = []
    pivots: list[int] = []
    for level, code in enumerate(chain.codes):
        for gen in code.rows:
            r = np.array(gen, dtype=np.int64)
            for b, p in zip(rows, pivots):
                if r[p]:
                    r = (r - int(r[p]) * b) % q
            nz = np.nonzero(r)[0]
            if not len(nz):
                continue
            piv = int(nz[0])
            rows.append((r * _mod_inverse(r[piv], q)) % q)
            levels.append(level)
            pivots.append(piv)
        if len(rows) != code.k:
            raise AssertionError("nested basis extension lost rank")
    return [tuple(int(v) for v in r) for r in rows], levels, pivots


def verify_carry_closure(chain: CodeChain) -> None:
    """Check that carries between adjacent levels stay inside the chain.

    Adding two points with level-i components c and c' produces the binary
    carry word c AND c' one level up; the multilevel construction is closed
    under addition exactly when every such carry lands in the next code.
    AND distributes over XOR, so checking generator pairs is complete. Each
    generator u is checked against all k generators v as one (k, n) batch of
    words u AND v: a single (k*k, n) batch would need 1 GiB at k = 511,
    n = 512.
    """
    if chain.q != 2:
        raise ValueError("carry closure check requires q = 2")
    for i in range(chain.a - 1):
        gens = chain.codes[i]._gen
        if not all(chain.codes[i + 1]._holds(u & gens) for u in gens):
            raise ValueError(
                f"carry words from level {i} leave the level {i + 1} code"
            )


# ---------------------------------------------------------------------------
# stock codes and chains


def repetition_code(n: int, q: int = 2) -> LinearCode:
    return LinearCode([[1] * n], q)


def single_parity_check_code(n: int, q: int = 2) -> LinearCode:
    rows = []
    for i in range(n - 1):
        row = [0] * n
        row[i] = 1
        row[n - 1] = q - 1
        rows.append(row)
    return LinearCode(rows, q)


def extended_hamming8() -> LinearCode:
    """The [8,4] extended Hamming code (first-order Reed-Muller of length 8)."""
    return LinearCode(
        [
            [1, 1, 1, 1, 1, 1, 1, 1],
            [0, 1, 0, 1, 0, 1, 0, 1],
            [0, 0, 1, 1, 0, 0, 1, 1],
            [0, 0, 0, 0, 1, 1, 1, 1],
        ],
        q=2,
    )


def make_rep_spc_chain(n: int) -> CodeChain:
    """Repetition code nested in the single parity check code of length n."""
    if n < 2 or n % 2:
        raise ValueError("rep/spc chain needs even n >= 2")
    return CodeChain([repetition_code(n), single_parity_check_code(n)])


def builtin_chain(name: str) -> CodeChain:
    if name == "rep2":
        return CodeChain([repetition_code(2)])
    if name == "rep8-spc8":
        return make_rep_spc_chain(8)
    if name == "rep8-ham8-spc8":
        return CodeChain(
            [repetition_code(8), extended_hamming8(), single_parity_check_code(8)]
        )
    if name == "rep24-spc24":
        return make_rep_spc_chain(24)
    raise ValueError(f"unknown chain {name!r}")


BUILTIN_CHAINS = ("rep2", "rep8-spc8", "rep8-ham8-spc8", "rep24-spc24")


# ---------------------------------------------------------------------------
# chain text files: header "q a n", then per level "k" and k generator rows


def parse_chain_text(text: str) -> CodeChain:
    tokens: list[str] = []
    for line in text.splitlines():
        body = line.split("#", 1)[0].strip()
        if body:
            tokens.extend(body.split())
    if len(tokens) < 3:
        raise ValueError("chain file: missing 'q a n' header")
    try:
        q, a, n = (int(t) for t in tokens[:3])
    except ValueError as exc:
        raise ValueError("chain file: bad 'q a n' header") from exc
    if not is_prime(q):
        raise ValueError("chain file: q must be prime")
    if a < 1 or n < 1:
        raise ValueError("chain file: a and n must be positive")
    pos = 3
    codes = []
    for level in range(a):
        if pos >= len(tokens):
            raise ValueError(f"chain file: missing dimension for level {level}")
        try:
            k = int(tokens[pos])
        except ValueError as exc:
            raise ValueError(f"chain file: bad dimension for level {level}") from exc
        pos += 1
        need = k * n
        vals = tokens[pos : pos + need]
        if len(vals) != need:
            raise ValueError(
                f"chain file: level {level}: expected {need} symbols, got {len(vals)}"
            )
        try:
            nums = [int(v) for v in vals]
        except ValueError as exc:
            raise ValueError(f"chain file: level {level}: non-integer symbol") from exc
        if any(v < 0 or v >= q for v in nums):
            raise ValueError(f"chain file: level {level}: symbol out of range")
        pos += need
        codes.append(LinearCode([nums[i * n : (i + 1) * n] for i in range(k)], q))
    if pos != len(tokens):
        raise ValueError("chain file: trailing data after last level")
    return CodeChain(codes)


def load_chain(path) -> CodeChain:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_chain_text(fh.read())

