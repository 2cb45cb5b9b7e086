import random

import pytest

from vorlat.intmat import (
    IntMatrix,
    hnf_from_spanning,
    hnf_lower_triangular,
    integer_solve_lower_triangular,
)

from oracles import (
    all_integer,
    frac_det,
    frac_solve,
    solve_lower_triangular_exact,
    spans_same_lattice,
)


def rand_matrix(rng, n, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


def test_constructor_rejects_bad_shapes():
    with pytest.raises(ValueError):
        IntMatrix([])
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])


def test_basic_algebra():
    a = IntMatrix([[1, 2], [3, 4]])
    assert a.transpose().tolist() == [[1, 3], [2, 4]]
    assert a.scale(3).tolist() == [[3, 6], [9, 12]]
    assert a.matvec([1, 1]) == (3, 7)
    assert IntMatrix.identity(3).tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_block_diagonal():
    a = IntMatrix([[1, 2], [3, 4]])
    m = IntMatrix.block_diagonal([a, IntMatrix([[7]])])
    assert m.tolist() == [[1, 2, 0], [3, 4, 0], [0, 0, 7]]


def test_hnf_worked_example():
    # columns (1,3) and (2,4) reduce to columns (1,1) and (0,2)
    out = hnf_lower_triangular(IntMatrix([[1, 2], [3, 4]]))
    assert out.tolist() == [[1, 0], [1, 2]]


def test_hnf_fixed_points():
    eye = IntMatrix.identity(8)
    assert hnf_lower_triangular(eye) is eye
    d = IntMatrix([[2, 0], [0, 2]])
    assert hnf_lower_triangular(d).tolist() == [[2, 0], [0, 2]]


def test_hnf_rejects_singular():
    with pytest.raises(ValueError, match="degenerate"):
        hnf_lower_triangular(IntMatrix([[1, 2], [2, 4]]))


def test_hnf_shape_and_span_randomized():
    rng = random.Random(5)
    done = 0
    while done < 40:
        n = rng.randint(1, 5)
        m = rand_matrix(rng, n)
        if frac_det(m) == 0:
            continue
        done += 1
        g = IntMatrix(m)
        l = hnf_lower_triangular(g)
        # lower triangular, positive diagonal, reduced off-diagonals
        for i in range(n):
            assert l[i, i] > 0
            for j in range(i + 1, n):
                assert l[i, j] == 0
            for j in range(i):
                assert 0 <= l[i, j] < l[i, i]
        # same lattice, and the column transform is unimodular
        assert spans_same_lattice(m, l.tolist())
        u = frac_solve(m, l.tolist())
        assert all_integer(u)
        assert abs(frac_det([[int(v) for v in row] for row in u])) == 1


def test_hnf_from_spanning_redundant_columns():
    # four spanning vectors of the even-coordinate-sum plane lattice
    cols = [[2, 0], [0, 2], [1, 1], [3, 1]]
    l = hnf_from_spanning(cols)
    assert l.tolist() == [[1, 0], [1, 2]]


def test_hnf_from_spanning_matches_square_hnf():
    rng = random.Random(3)
    done = 0
    while done < 25:
        n = rng.randint(2, 4)
        m = rand_matrix(rng, n)
        if frac_det(m) == 0:
            continue
        done += 1
        g = IntMatrix(m)
        base = hnf_lower_triangular(g)
        cols = [list(g.column(j)) for j in range(n)]
        # duplicate a couple of columns and add an integer combination
        cols.append(list(g.column(0)))
        cols.append([a + b for a, b in zip(g.column(0), g.column(n - 1))])
        assert hnf_from_spanning(cols) == base


def test_integer_solve_lower_triangular():
    l = IntMatrix([[2, 0], [1, 3]])
    # 2x = 4; x=2 ; 1*2 + 3y = 8 -> y = 2
    sol = integer_solve_lower_triangular(l, IntMatrix([[4], [8]]))
    assert sol.tolist() == [[2], [2]]
    assert integer_solve_lower_triangular(l, IntMatrix([[3], [0]])) is None
    assert integer_solve_lower_triangular(l, IntMatrix([[4], [7]])) is None


def test_integer_solve_matches_fraction_oracle():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 4)
        l = [[rng.randint(-5, 5) if j < i else 0 for j in range(n)] for i in range(n)]
        for i in range(n):
            l[i][i] = rng.choice([1, 2, 3, -2])
        rhs = [[rng.randint(-20, 20)] for _ in range(n)]
        got = integer_solve_lower_triangular(IntMatrix(l), IntMatrix(rhs))
        ref = frac_solve(l, rhs)
        if got is None:
            assert ref is None or not all_integer(ref)
        else:
            assert ref is not None and all_integer(ref)
            assert got.tolist() == [[int(v) for v in row] for row in ref]


def test_fraction_solver_wrapper():
    l = IntMatrix([[2, 0], [1, 3]])
    sol = solve_lower_triangular_exact(l, IntMatrix([[1], [1]]))
    assert sol[0][0] * 2 == 1
    assert sol[1][0] == (1 - sol[0][0]) / 3
