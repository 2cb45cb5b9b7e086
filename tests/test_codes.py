"""Tests for linear codes, nesting chains, and exhaustive ML decoding."""

import itertools

import numpy as np
import pytest

from vorlat.codes import (
    BUILTIN_CHAINS,
    _MixedRadix,
    _reduce,
    CodeChain,
    LinearCode,
    builtin_chain,
    extended_hamming8,
    load_chain,
    make_rep_spc_chain,
    nested_basis,
    parse_chain_text,
    repetition_code,
    single_parity_check_code,
    verify_carry_closure,
)

from oracles import ml_decode, ordinal_symbols, symbols_to_ordinal


# ---------------------------------------------------------------------------
# single codes


def test_repetition_code_basics():
    c = repetition_code(8)
    assert (c.n, c.k, c.q) == (8, 1, 2)
    assert c.pivots == (0,)
    assert c.encode_batch([[1], [0]]).tolist() == [[1] * 8, [0] * 8]
    assert c._holds([[1] * 8, [0] * 8])
    assert not c._holds([[1, 0, 1, 0, 1, 0, 1, 0]])


def test_single_parity_check_code():
    c = single_parity_check_code(8)
    assert (c.n, c.k) == (8, 7)
    words = c.codewords()
    assert len(words) == 128
    assert np.all(words.sum(axis=1) % 2 == 0)
    # distinct codewords, systematic on the first seven positions
    assert len({tuple(w) for w in words.tolist()}) == 128
    msg = [1, 0, 1, 1, 0, 0, 1]
    assert c.encode_batch([msg])[0, :7].tolist() == msg


def test_extended_hamming8_weight_distribution():
    c = extended_hamming8()
    assert (c.n, c.k) == (8, 4)
    weights = np.bincount(c.codewords().sum(axis=1), minlength=9)
    assert weights.tolist() == [1, 0, 0, 0, 14, 0, 0, 0, 1]


def test_ternary_code_systematic_form():
    c = LinearCode([[1, 1, 2], [0, 1, 1]], q=3)
    assert c.rows == [(1, 0, 1), (0, 1, 1)]
    assert c.pivots == (0, 1)
    assert c.encode_batch([[2, 1]]).tolist() == [[2, 1, 0]]
    assert c._holds([[2, 1, 0], [1, 1, 2]])
    # symbols are read as given: one outside [0, q) leaves the code
    assert not c._holds([[5, 4, 3]])
    assert not c._holds([[2, 1, 0], [1, 1, 1]])


def test_encode_batch_matches_scalar_and_brute_force():
    c = single_parity_check_code(6)
    msgs = ordinal_symbols(np.arange(2**5), 5, 2)
    batch = c.encode_batch(msgs)
    for m, w in zip(msgs, batch):
        assert c.encode_batch(m[None, :]).tolist() == [w.tolist()]
        # independent check: last symbol makes the total vanish mod 2
        assert (int(m.sum()) + int(w[-1])) % 2 == 0
        assert w[:5].tolist() == m.tolist()


def test_membership_rejects_non_codewords():
    c = extended_hamming8()
    words = c.codewords()
    assert c._holds(words)
    # one flipped symbol in any single row takes the batch out of the code
    for j in range(c.n):
        bad = words.copy()
        bad[7, j] ^= 1
        assert not c._holds(bad)


def test_generator_validation():
    with pytest.raises(ValueError, match="dependent"):
        LinearCode([[1, 1, 0], [1, 1, 0]], q=2)
    with pytest.raises(ValueError, match="prime"):
        LinearCode([[1, 0]], q=4)
    with pytest.raises(ValueError, match="unequal"):
        LinearCode([[1, 0], [1]], q=2)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_reduce_is_the_int64_remainder(q):
    a = np.concatenate([np.arange(-40, 41), [-(2**63), 2**63 - 1, -(2**62) - 1, 2**62 + 1]])
    got = _reduce(a.astype(np.int64), q)
    assert got.dtype == np.int64
    assert np.array_equal(got, a % q)
    assert got.tolist() == [int(v) % q for v in a]


def test_fields_past_int64_products_are_refused_before_the_primality_test():
    """(q - 1)^2 must stay below 2^63. 3037000493 is the largest prime that
    passes, 3037000507 the next prime, and 2^61 - 1 a prime that trial
    division would take minutes to confirm."""
    assert LinearCode([[1, 1]], q=3037000493).q == 3037000493
    for q in (3037000507, 2**61 - 1):
        with pytest.raises(ValueError, match=f"q = {q} is too large"):
            LinearCode([[1, 1]], q=q)
        with pytest.raises(ValueError, match=f"chain file: q = {q} is too large"):
            parse_chain_text(f"{q} 1 2\n1\n1 1\n")


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_parity_sums_past_int64_are_refused(k):
    """Over q = 2^31 - 1 a code of dimension k is built when k (q - 1)^2 is
    below 2^63 (k <= 2) and then encodes as Python integers do; past it the
    int64 parity sums would wrap, and the code is refused naming q."""
    q = 2**31 - 1
    rows = [[int(i == j) for j in range(k)] + [q - 1] for i in range(k)]
    if k * (q - 1) ** 2 >= 1 << 63:
        with pytest.raises(ValueError, match=f"q = {q} is too large"):
            LinearCode(rows, q)
        return
    code = LinearCode(rows, q)
    rng = np.random.default_rng(k)
    messages = np.vstack([np.full(k, q - 1), rng.integers(q - 64, q, (64, k)),
                          rng.integers(0, q, (64, k))])
    want = [[sum(m * r[j] for m, r in zip(map(int, msg), rows)) % q for j in range(k + 1)]
            for msg in messages]
    assert code.encode_batch(messages).tolist() == want


def test_parity_check_annihilates_exactly_the_code():
    for c in (single_parity_check_code(8), extended_hamming8(),
              LinearCode([[1, 1, 2], [0, 1, 1]], q=3)):
        h = c.parity_check()
        assert h.shape == (c.n - c.k, c.n)
        words = c.codewords()
        assert np.all((words @ h.T) % c.q == 0)
        table = {tuple(w) for w in words.tolist()}
        for trial in itertools.product(range(c.q), repeat=c.n):
            in_code = tuple(trial) in table
            syndrome_zero = bool(np.all((np.array(trial) @ h.T) % c.q == 0))
            assert in_code == syndrome_zero


# ---------------------------------------------------------------------------
# exhaustive ML decoding


def _ml_oracle(code, costs):
    """Independent argmin over the full codeword table with lex tie-break."""
    best = None
    best_score = None
    for word in sorted(tuple(w) for w in code.codewords().tolist()):
        score = sum(costs[j][v] for j, v in enumerate(word))
        if best is None or score < best_score - 1e-12:
            best, best_score = word, score
    return best, best_score


def test_ml_decode_matches_brute_force():
    rng = np.random.default_rng(17)
    for code in (single_parity_check_code(8), extended_hamming8(),
                 LinearCode([[1, 1, 2], [0, 1, 1]], q=3)):
        for _ in range(30):
            costs = rng.uniform(0, 1, size=(code.n, code.q))
            got = tuple(ml_decode(code, costs).tolist())
            want, want_score = _ml_oracle(code, costs)
            got_score = sum(costs[j][v] for j, v in enumerate(got))
            assert abs(got_score - want_score) < 1e-9
            assert got == want


def test_ml_decode_tie_prefers_lexicographically_smallest():
    c = single_parity_check_code(4)
    costs = np.zeros((4, 2))  # every codeword costs the same
    assert ml_decode(c, costs).tolist() == [0, 0, 0, 0]


def test_ml_decode_from_symbol_likelihoods():
    # costs as 1 - P(symbol): confident bits win, the flaky bit is repaired
    c = repetition_code(4)
    p_one = np.array([0.9, 0.9, 0.1, 0.9])
    costs = np.column_stack([1.0 - (1.0 - p_one), 1.0 - p_one])
    assert ml_decode(c, costs).tolist() == [1, 1, 1, 1]


def test_ml_decode_validates_cost_shape():
    with pytest.raises(ValueError, match="shape"):
        ml_decode(repetition_code(4), np.zeros((4, 3)))


# ---------------------------------------------------------------------------
# chains and nested bases


def test_chain_validation_messages():
    with pytest.raises(ValueError, match="level 0 code is not contained in level 1"):
        CodeChain([single_parity_check_code(8), repetition_code(8)])
    with pytest.raises(ValueError, match="level 0 code is not contained in level 1"):
        CodeChain([LinearCode([[1, 0]], 2), LinearCode([[0, 1]], 2)])
    # only the second generator row of the lower code leaves the upper code
    with pytest.raises(ValueError, match="level 0 code is not contained in level 1"):
        CodeChain([LinearCode([[1, 1, 0, 0], [0, 0, 1, 1]], 2),
                   LinearCode([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]], 2)])
    with pytest.raises(ValueError, match="different lengths"):
        CodeChain([repetition_code(4), single_parity_check_code(6)])
    with pytest.raises(ValueError, match="different fields"):
        CodeChain([LinearCode([[1, 1]], 2), LinearCode([[1, 0], [0, 1]], 3)])


def test_builtin_chains_are_nested():
    for name in BUILTIN_CHAINS:
        chain = builtin_chain(name)
        assert chain.a == len(chain.dims())
        ks = chain.dims()
        assert all(ks[i] < ks[i + 1] for i in range(len(ks) - 1))
    assert builtin_chain("rep8-ham8-spc8").dims() == (1, 4, 7)
    with pytest.raises(ValueError, match="unknown chain"):
        builtin_chain("rep9")


def _span(rows, q):
    """All F_q combinations of the given rows, as a set of tuples."""
    out = set()
    for coeffs in itertools.product(range(q), repeat=len(rows)):
        w = [0] * len(rows[0])
        for c, r in zip(coeffs, rows):
            w = [(a + c * b) % q for a, b in zip(w, r)]
        out.add(tuple(w))
    return out


def test_nested_basis_prefixes_span_each_level():
    for name in ("rep8-spc8", "rep8-ham8-spc8"):
        chain = builtin_chain(name)
        rows, levels, pivots = nested_basis(chain)
        assert len(rows) == chain.codes[-1].k
        assert levels == sorted(levels)
        assert len(set(pivots)) == len(pivots)
        for i, code in enumerate(chain.codes):
            prefix = rows[: code.k]
            assert all(levels[j] <= i for j in range(code.k))
            assert _span(prefix, chain.q) == {tuple(w) for w in code.codewords().tolist()}


def test_nested_basis_rows_zero_at_earlier_pivots():
    chain = builtin_chain("rep8-ham8-spc8")
    rows, _, pivots = nested_basis(chain)
    for j, row in enumerate(rows):
        assert row[pivots[j]] == 1
        for earlier in pivots[:j]:
            assert row[earlier] == 0


def test_carry_closure_of_builtin_chains():
    for name in BUILTIN_CHAINS:
        verify_carry_closure(builtin_chain(name))


def test_carry_closure_failure_detected():
    # both generators and their sum are codewords, but the AND carry is not
    c0 = LinearCode([[1, 1, 0, 0], [0, 1, 1, 0]], q=2)
    chain = CodeChain([c0, c0])
    with pytest.raises(ValueError, match="carry words from level 0"):
        verify_carry_closure(chain)


def test_carry_closure_requires_binary():
    chain = CodeChain([LinearCode([[1, 1, 2], [0, 1, 1]], q=3)])
    verify_carry_closure(CodeChain([repetition_code(4)]))  # single level: fine
    with pytest.raises(ValueError, match="q = 2"):
        verify_carry_closure(CodeChain([chain.codes[0], chain.codes[0]]))


def test_make_rep_spc_chain_validation():
    with pytest.raises(ValueError, match="even"):
        make_rep_spc_chain(7)
    chain = make_rep_spc_chain(16)
    assert chain.dims() == (1, 15)


# ---------------------------------------------------------------------------
# ordinals


@pytest.mark.parametrize("code", [
    LinearCode([[1, 1, 2, 0], [0, 1, 1, 1], [0, 0, 1, 2]], q=3),
    LinearCode([[1, 0, 1, 1, 0], [0, 1, 0, 1, 1]]),
    LinearCode([[0, 1, 1, 0], [1, 0, 0, 1]], q=5),
], ids=["ternary", "binary", "quinary-unsorted-rows"])
def test_codewords_are_ordered_by_message_ordinal(code):
    """Word j carries the base-q digits of j, most significant symbol first,
    at the pivot positions."""
    words = code.codewords()
    assert words.shape == (code.q**code.k, code.n)
    assert np.array_equal(words, code.encode_batch(ordinal_symbols(np.arange(len(words)),
                                                                   code.k, code.q)))
    for j, w in enumerate(words):
        assert symbols_to_ordinal(w[list(code.pivots)], code.q) == j
    assert ordinal_symbols([5], 3, 2).tolist() == [[1, 0, 1]]


@pytest.mark.parametrize("radices", [[2, 4, 1, 8, 2], [3, 2, 5, 1, 4]])
def test_mixed_radix_split_and_join(radices):
    places = [1]
    for r in radices[:-1]:
        places.append(places[-1] * r)
    table = _MixedRadix(places, radices)
    total = places[-1] * radices[-1]
    ords = np.arange(-3, total + 3)
    digits = table.split(ords)
    for o, row in zip(ords.tolist(), digits.tolist()):
        rem = o % total
        for place, r, d in zip(places, radices, row):
            assert d == rem // place % r
    assert np.array_equal(table.join(digits), ords % total)


def test_mixed_radix_split_over_some_digits():
    """Power-of-two radices at places that are not powers of two."""
    table = _MixedRadix([6, 3], [2, 2])
    assert table.split([6, 9]).tolist() == [[1, 0], [1, 1]]
    ords = np.arange(24)
    assert np.array_equal(table.split(ords), np.stack([ords // 6 % 2, ords // 3 % 2], 1))


# ---------------------------------------------------------------------------
# chain files


def test_chain_file_round_trip(tmp_path):
    chain = builtin_chain("rep8-ham8-spc8")
    path = tmp_path / "chain.txt"
    path.write_text("""# three binary levels
2 3 8
1
1 1 1 1 1 1 1 1
4
1 1 1 1 1 1 1 1
0 1 0 1 0 1 0 1
0 0 1 1 0 0 1 1
0 0 0 0 1 1 1 1
7
1 0 0 0 0 0 0 1
0 1 0 0 0 0 0 1
0 0 1 0 0 0 0 1
0 0 0 1 0 0 0 1
0 0 0 0 1 0 0 1
0 0 0 0 0 1 0 1
0 0 0 0 0 0 1 1
""")
    loaded = load_chain(path)
    assert loaded.q == 2 and loaded.a == 3 and loaded.n == 8
    for got, want in zip(loaded.codes, chain.codes):
        assert got.rows == want.rows


def test_chain_file_errors():
    with pytest.raises(ValueError, match="missing 'q a n'"):
        parse_chain_text("# nothing\n")
    with pytest.raises(ValueError, match="bad 'q a n'"):
        parse_chain_text("two 1 4\n1\n1 1 1 1\n")
    with pytest.raises(ValueError, match="q must be prime"):
        parse_chain_text("6 1 4\n1\n1 1 1 1\n")
    with pytest.raises(ValueError, match="level 0: expected 8 symbols, got 7"):
        parse_chain_text("2 1 8\n1\n1 1 1 1 1 1 1\n")
    with pytest.raises(ValueError, match="symbol out of range"):
        parse_chain_text("2 1 4\n1\n1 2 1 1\n")
    with pytest.raises(ValueError, match="trailing data"):
        parse_chain_text("2 1 4\n1\n1 1 1 1\n0\n")
    with pytest.raises(ValueError, match="missing dimension for level 1"):
        parse_chain_text("2 2 4\n1\n1 1 1 1\n")


def test_chain_file_inclusion_violation_is_named():
    text = "2 2 4\n1\n1 1 1 0\n2\n1 0 0 1\n0 1 0 1\n"
    with pytest.raises(ValueError, match="level 0 code is not contained in level 1"):
        parse_chain_text(text)

