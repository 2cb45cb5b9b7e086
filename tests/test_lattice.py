"""Tests for the lattice zoo, containment checks, and matrix file I/O."""

import random

import numpy as np
import pytest

from vorlat.intmat import IntMatrix
from vorlat.lattice import (
    Lattice,
    direct_sum,
    is_sublattice,
    load_lattice,
    log2_volume,
    parse_matrix_text,
    quotient_order,
    standard_lattice,
)

from oracles import contains_point, count_residues_brute, frac_det


# ---------------------------------------------------------------------------
# zoo construction facts


def test_zn_basics():
    l = standard_lattice("Zn(4)")
    assert l.dim == 4
    assert l.volume == 1
    assert l.diag() == (1, 1, 1, 1)
    assert contains_point(l, [3, -7, 0, 12])


def test_dn_volume_and_parity():
    for n in (2, 3, 4, 8):
        l = standard_lattice(f"Dn({n})")
        assert l.volume == 2
        # every basis column has even coordinate sum, hence so does every point
        for j in range(l.dim):
            assert sum(l.generator.column(j)) % 2 == 0
    l = standard_lattice("Dn(4)")
    assert contains_point(l, [1, 1, 0, 0])
    assert contains_point(l, [2, 0, 0, 0])
    assert not contains_point(l, [1, 0, 0, 0])


def test_e8_int_volume_and_membership():
    l = standard_lattice("E8_int")
    assert l.dim == 8
    assert l.volume == 256
    assert log2_volume(l) == 8.0
    assert contains_point(l, [1] * 8)
    assert contains_point(l, [2, 2, 0, 0, 0, 0, 0, 0])
    assert contains_point(l, [-2, 2, 0, 0, 0, 0, 0, 0])
    assert not contains_point(l, [1, 0, 0, 0, 0, 0, 0, 0])
    assert not contains_point(l, [2, 0, 0, 0, 0, 0, 0, 0])


def test_e8_int_norms_are_multiples_of_four():
    l = standard_lattice("E8_int")
    rng = random.Random(7)
    gen = l.generator.tolist()
    for _ in range(200):
        coeffs = [rng.randint(-3, 3) for _ in range(8)]
        point = [sum(gen[i][j] * coeffs[j] for j in range(8)) for i in range(8)]
        norm = sum(x * x for x in point)
        assert norm % 4 == 0
        if any(coeffs):
            assert norm >= 8


def test_leech_int_volume_and_membership():
    l = standard_lattice("Leech_int")
    assert l.dim == 24
    assert l.volume == 2**36
    assert log2_volume(l) == 36.0
    v = [0] * 24
    v[0] = 4
    assert not contains_point(l, v)
    v[1] = 4
    assert contains_point(l, v)
    glue = [-3] + [1] * 23
    assert contains_point(l, glue)


def test_leech_int_gram_parities():
    # norms divisible by 16 and pairwise products by 8; nonzero norms >= 32
    l = standard_lattice("Leech_int")
    gen = l.generator.tolist()
    rng = random.Random(11)
    pts = []
    for _ in range(60):
        coeffs = [rng.randint(-2, 2) for _ in range(24)]
        pts.append([sum(gen[i][j] * coeffs[j] for j in range(24)) for i in range(24)])
    for p in pts:
        norm = sum(x * x for x in p)
        assert norm % 16 == 0
        if norm:
            assert norm >= 32
    for p, other in zip(pts[:20], pts[20:40]):
        inner = sum(a * b for a, b in zip(p, other))
        assert inner % 8 == 0


def test_standard_lattice_rejects_unknown_names():
    with pytest.raises(ValueError):
        standard_lattice("A2")
    with pytest.raises(ValueError):
        standard_lattice("Dn(1)")
    with pytest.raises(ValueError):
        standard_lattice("Zn(0)")


# ---------------------------------------------------------------------------
# constructors and derived lattices


def test_degenerate_generator_rejected():
    with pytest.raises(ValueError, match="degenerate"):
        Lattice(IntMatrix([[1, 0], [2, 0]]))


def test_volume_matches_fraction_determinant():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(1, 4)
        while True:
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            if frac_det(rows) != 0:
                break
        lat = Lattice(IntMatrix(rows))
        assert lat.volume == abs(frac_det(rows))


def test_scaled_lattice():
    base = standard_lattice("Dn(4)")
    s = base.scaled(3)
    assert s.volume == 3**4 * 2
    assert contains_point(s, [3, 3, 0, 0])
    assert not contains_point(s, [1, 1, 0, 0])
    with pytest.raises(ValueError):
        base.scaled(0)


def test_direct_sum_shape_and_volume():
    e8 = standard_lattice("E8_int")
    big = direct_sum(e8, copies=16, alpha=4)
    assert big.dim == 128
    assert big.volume == (4**8 * 256) ** 16
    point = ([4] * 8) + [0] * 120
    assert contains_point(big, point)
    assert not contains_point(big, [4] + [0] * 127)


def test_direct_sum_single_copy_identity_alpha():
    e8 = standard_lattice("E8_int")
    same = direct_sum(e8, copies=1, alpha=1)
    assert same.dim == 8
    assert same.volume == 256
    assert contains_point(same, [1] * 8)


# ---------------------------------------------------------------------------
# containment and quotient counting


def test_is_sublattice_examples():
    z8 = standard_lattice("Zn(8)")
    e8 = standard_lattice("E8_int")
    assert is_sublattice(e8, z8)
    assert not is_sublattice(z8, e8)
    assert is_sublattice(e8.scaled(8), z8.scaled(4))
    assert not is_sublattice(z8.scaled(4), e8.scaled(8))


def test_is_sublattice_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        is_sublattice(standard_lattice("Zn(2)"), standard_lattice("Zn(3)"))


def test_is_sublattice_randomized():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 4)
        while True:
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            if frac_det(rows) != 0:
                break
        sup = Lattice(IntMatrix(rows))
        assert is_sublattice(sup, sup)
        # multiply the basis by a random integer matrix: always a sublattice
        while True:
            m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            if frac_det(m) != 0:
                break
        product = [[sum(a * b for a, b in zip(row, col)) for col in zip(*m)] for row in rows]
        sub = Lattice(IntMatrix(product))
        assert is_sublattice(sub, sup)
        if abs(frac_det(m)) > 1:
            assert not is_sublattice(sup, sub)


def test_is_sublattice_bigint_fallback():
    # entries far beyond int64 stay exact on Python integers
    big = 2**70
    sup = Lattice(IntMatrix([[big, 0], [0, big]]))
    sub = Lattice(IntMatrix([[3 * big, 0], [big, 2 * big]]))
    assert is_sublattice(sub, sup)
    assert not is_sublattice(sup, sub)


def test_quotient_order_worked_example():
    z2 = standard_lattice("Zn(2)")
    shaping = Lattice(IntMatrix([[1, 0], [1, 2]]))
    assert quotient_order(z2, shaping) == 2


def test_quotient_order_desk_instance():
    e8 = standard_lattice("E8_int")
    coding = Lattice(e8.generator, name="coding")
    # index of 4*E8 inside E8 is 4^8
    assert quotient_order(coding, e8.scaled(4)) == 4**8


def test_quotient_order_requires_containment():
    z2 = standard_lattice("Zn(2)")
    with pytest.raises(ValueError, match="not a sublattice"):
        quotient_order(z2.scaled(2), z2)


def test_quotient_order_matches_brute_force_residues():
    rng = random.Random(9)
    for _ in range(12):
        n = rng.randint(1, 3)
        while True:
            rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            d = frac_det(rows)
            if d != 0 and abs(d) <= 8:
                break
        shaping = Lattice(IntMatrix(rows))
        zn = standard_lattice(f"Zn({n})")
        box = max(shaping.diag()) + 1
        assert quotient_order(zn, shaping) == count_residues_brute(rows, box)


# ---------------------------------------------------------------------------
# matrix text files


def test_matrix_text_round_trip(tmp_path):
    lat = standard_lattice("E8_int")
    path = tmp_path / "e8.mat"
    path.write_text("""# integer E8, determinant 256
8 8
 4 -2  0  0  0  0  0  1
 0  2 -2  0  0  0  0  1
 0  0  2 -2  0  0  0  1
 0  0  0  2 -2  0  0  1
 0  0  0  0  2 -2  0  1
 0  0  0  0  0  2 -2  1
 0  0  0  0  0  0  2  1
 0  0  0  0  0  0  0  1
""")
    loaded = load_lattice(path)
    assert loaded.generator.tolist() == lat.generator.tolist()
    assert loaded.volume == 256


def test_matrix_text_parses_comments_and_whitespace():
    text = "# a comment\n2 2\n\n1 0  # trailing note\n1 2\n"
    m = parse_matrix_text(text)
    assert m.tolist() == [[1, 0], [1, 2]]


def test_matrix_text_errors():
    with pytest.raises(ValueError, match="size header"):
        parse_matrix_text("# nothing here\n")
    with pytest.raises(ValueError, match="size header"):
        parse_matrix_text("two two\n1 0\n0 1\n")
    with pytest.raises(ValueError, match="expected 4 entries, got 3"):
        parse_matrix_text("2 2\n1 0\n1\n")
    with pytest.raises(ValueError, match="non-integer"):
        parse_matrix_text("2 2\n1 0\n1 x\n")


# ---------------------------------------------------------------------------
# log2 volumes


def test_log2_volume_values():
    assert log2_volume(standard_lattice("Zn(6)")) == 0.0
    assert log2_volume(standard_lattice("Dn(4)")) == 1.0
    assert log2_volume(standard_lattice("E8_int")) == 8.0
    assert log2_volume(standard_lattice("Zn(2)").scaled(2)) == 2.0
    tri = log2_volume(Lattice(IntMatrix([[3, 0], [0, 3]])))
    assert abs(tri - 2 * np.log2(3)) < 1e-12
