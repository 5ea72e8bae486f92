import math
from fractions import Fraction as F

import pytest

from msbc import normalform, system
from msbc.linalg import (LinalgError, Matrix, eigen, family_rate, nullspace,
                         row_reduce, solve)
from msbc.normalform import ConstructionRefused
from msbc.series import (ReversionError, SeriesVector, Space, TruncatedSeries,
                         solve_implicit_system)


def test_inverse_exact():
    m = Matrix([[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 3, 1], [0, 0, 1, 1]])
    inv = m.inverse()
    assert m * inv == Matrix.identity(4)
    assert inv * m == Matrix.identity(4)


def test_inverse_singular_raises():
    with pytest.raises(LinalgError):
        Matrix([[1, 2], [2, 4]]).inverse()


def test_charpoly():
    m = Matrix([[F(1, 2), 1], [0, 3]])
    # (x - 1/2)(x - 3) = x^2 - 7/2 x + 3/2
    assert m.charpoly() == [F(1), F(-7, 2), F(3, 2)]


def test_family_rate_is_exact_for_a_rational_square():
    # x^2 (x - 2/3)(x + 2/3) = x^4 - 4/9 x^2
    assert family_rate(system.build_original().linear) == F(2, 3)
    # x^2 (x^2 - 2/3): the pair +-sqrt(2/3) is not rational
    mu = family_rate(Matrix([[0, 0, 1, 0], [0, 0, 0, 1], [F(1, 3), F(-1, 3), 0, 0],
                             [F(-1, 3), F(1, 3), 0, 0]]))
    assert isinstance(mu, float) and mu == math.sqrt(2 / 3)


_OUTSIDE_THE_FAMILY = {
    "3x3": [[0, 0, 0], [0, 0, 1], [0, 0, 0]],
    # x^3 (x - 1): a nonzero x^3 coefficient
    "cubic term": [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
    # x (x + 2)(x - 1)^2 = x^4 - 3x^2 + 2x: a nonzero x coefficient
    "linear term": [[-2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]],
    # x^2 (x^2 + 1): a complex pair
    "complex pair": [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
}


@pytest.mark.parametrize("case", sorted(_OUTSIDE_THE_FAMILY))
def test_spectrum_outside_the_family_is_refused(case):
    mat = Matrix(_OUTSIDE_THE_FAMILY[case])
    with pytest.raises(LinalgError, match="outside the -mu, 0, 0, mu family"):
        eigen(mat)
    if mat.n == 4:
        original = system.build_original()
        bent = system.SpatialSystem(mat, original.coupling, original.nonlinear, "bent")
        with pytest.raises(ConstructionRefused,
                           match="^spectrum outside the handled family"):
            normalform.construct(bent, order=3)
        with pytest.raises(ConstructionRefused,
                           match="collapsed spectrum outside the handled family"):
            normalform.construct_at_unity(bent, order=3)


def test_coordinate_map_refuses_an_irrational_rate(monkeypatch):
    # exchange 1 gives the rates +-sqrt(7)/3: a named refusal, not the
    # TypeError of a float entry in an exact Matrix
    monkeypatch.setattr(system, "EXCHANGE", F(1))
    with pytest.raises(LinalgError, match="needs rational fast rates"):
        system.coordinate_map()


def test_nullspace():
    m = Matrix([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    basis = nullspace(m)
    assert len(basis) == 1
    v = basis[0]
    assert all(sum(row[j] * v[j] for j in range(3)) == 0 for row in m.rows)
    # one vector per free column, 1 there and minus the reduced column at
    # the pivots
    assert basis == [[F(1), F(-2), F(1)]]
    assert nullspace(Matrix([[0, 1, 2, 0], [0, 0, 0, 1]])) == [
        [F(1), F(0), F(0), F(0)], [F(0), F(-2), F(1), F(0)]]


def test_row_reduce_takes_first_nonzero_pivot():
    rows = [[0, 2, 4, 2], [0, 1, 2, 1], [3, 0, 3, 6]]
    a, pivots = row_reduce(rows, 3)
    assert pivots == [0, 1]
    assert a == [[1, 0, 1, 2], [0, 1, 2, 1], [0, 0, 0, 0]]
    assert all(isinstance(v, F) for row in a[:2] for v in row)
    # the carried column never takes a pivot
    a, pivots = row_reduce([[0, 1], [0, 0]], 1)
    assert pivots == [] and a == [[0, 1], [0, 0]]
    assert rows[0] == [0, 2, 4, 2]  # the input is left as it was


def test_solve_free_unknowns_are_zero():
    x, consistent = solve([[1, 1, 0], [0, 0, 1]], [F(3), F(5)], 3)
    assert consistent
    assert x == [F(3), F(0), F(5)]


def test_solve_inconsistent_rows_left_unsatisfied():
    # x0 + x1 = 1 and 2 x0 + 2 x1 = 4 contradict each other: the pivot row
    # is met, the other row stays unsatisfied, the free unknown stays 0
    rows, rhs = [[1, 1], [2, 2]], [F(1), F(4)]
    x, consistent = solve(rows, rhs, 2)
    assert not consistent
    assert x == [F(1), F(0)]
    assert [sum(r * v for r, v in zip(row, x)) for row in rows] == [F(1), F(2)]


def test_singular_reversion_jacobian_raises():
    # the reversion inverts its origin Jacobian through Matrix.inverse
    sp = Space(("u", "v", "y1", "y2"), 2)
    u, v = TruncatedSeries.variable(sp, "u"), TruncatedSeries.variable(sp, "v")
    eqs = SeriesVector([u + v, 2 * u + 2 * v])
    with pytest.raises(ReversionError):
        solve_implicit_system(eqs, ["u", "v"], ["y1", "y2"])


def test_eigen_exact_on_embedding():
    e = eigen(system.build_embedding("A").linear)
    assert [(v, m) for v, m in e.values] == [(F(-2, 3), 1), (F(0), 2), (F(2, 3), 1)]
    assert e.diagonalizable


def test_eigen_defective_original():
    e = eigen(system.build_original().linear)
    assert not e.diagonalizable
    vals = e.eigenvalues
    assert vals == [F(-2, 3), F(0), F(0), F(2, 3)]


def test_eigen_irrational_pair():
    e = eigen(system.build_embedding("B").linear)
    assert e.diagonalizable
    fast = [v for v, m in e.values if v != 0]
    assert len(fast) == 2
    assert abs(float(fast[0]) + (2.0 / 3.0) ** 0.5) < 1e-12
    assert abs(float(fast[1]) - (2.0 / 3.0) ** 0.5) < 1e-12
