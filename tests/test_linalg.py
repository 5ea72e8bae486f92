from fractions import Fraction as F

import pytest

from msbc import system
from msbc.linalg import (LinalgError, Matrix, eigen, nullspace,
                         rational_roots, row_reduce, solve)
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


def test_rational_roots_with_deflation():
    # x^2 (x - 2/3)(x + 2/3) = x^4 - 4/9 x^2
    roots, rem = rational_roots([F(1), F(0), F(-4, 9), F(0), F(0)])
    assert sorted(roots) == [F(-2, 3), F(0), F(0), F(2, 3)]
    assert len(rem) == 1


def test_rational_roots_irrational_remainder():
    # x^2 (x^2 - 2/3): the pair +-sqrt(2/3) is not rational
    roots, rem = rational_roots([F(1), F(0), F(-2, 3), F(0), F(0)])
    assert roots == [F(0), F(0)]
    assert rem == [F(1), F(0), F(-2, 3)]


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


def test_eigen_generalized_step_skipped_when_inconsistent():
    # zero of multiplicity 3 with eigenvectors e0, e1 and A e2 = e1: the
    # Jordan step is solved for the first eigenvector e0, which is not in
    # the range of A, so no generalised direction is reported
    e = eigen(Matrix([[0, 0, 0], [0, 0, 1], [0, 0, 0]]))
    assert not e.diagonalizable
    assert e.vectors == [[[F(1), F(0), F(0)], [F(0), F(1), F(0)]]]
    assert e.generalized == []


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
