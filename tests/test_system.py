import dataclasses
from fractions import Fraction as F

import numpy as np
import pytest

from msbc import normalform, system
from msbc.linalg import Matrix, eigen


def test_original_matrix_entries():
    s = system.build_original()
    assert s.linear[2, 0] == F(1, 6)        # row 3, column 1
    assert s.linear[2, 1] == F(-1, 6)
    assert s.linear[2, 2] == F(1, 3)
    assert s.linear[3, 3] == F(-1, 3)
    assert s.linear[0, 2] == 1


def test_original_nonlinearity_vanishes_at_origin():
    s = system.build_original()
    for comp in s.nonlinear:
        assert comp.constant_term() == 0
        assert comp.evaluate((0, 0, 0, 0)) == 0
    # shapes: -a^2/2 and +b^2/2 in the derivative rows, over (a, b, a', b')
    assert s.nonlinear.space.names == ("a", "b", "ap", "bp")
    assert s.nonlinear[2].coefficient((2, 0, 0, 0)) == F(-1, 2)
    assert s.nonlinear[3].coefficient((0, 2, 0, 0)) == F(1, 2)
    assert s.coupling == Matrix([[0] * 4] * 4)


def test_original_eigenvalues_numeric():
    # characteristic-polynomial roots: the defective zero pair stays exact
    coeffs = [float(c) for c in system.build_original().linear.charpoly()]
    roots = sorted(np.roots(coeffs).real)
    expect = sorted([-2.0 / 3.0, 0.0, 0.0, 2.0 / 3.0])
    assert max(abs(r - e) for r, e in zip(roots, expect)) <= 1e-10
    # the direct dense eigensolver splits the defective pair at ~sqrt(eps)
    vals = sorted(np.linalg.eigvals(system.build_original().linear.to_float()).real)
    assert max(abs(r - e) for r, e in zip(vals, expect)) <= 1e-7


@pytest.mark.parametrize("variant", ["A", "B"])
def test_embedding_reduces_exactly_at_parameter_one(variant):
    emb = system.build_embedding(variant)
    orig = system.build_original()
    red = dataclasses.replace(emb, linear=emb.linear + emb.coupling,
                              coupling=orig.coupling)
    assert red.linear == orig.linear
    assert list(red.nonlinear) == list(orig.nonlinear)
    # so the parameter-1 normal form built from the collapsed embedding is
    # the one built from the original system, down to term order and reprs
    for order in (2, 3, 4):
        got = normalform.construct_at_unity(red, order)
        want = normalform.construct_at_unity(orig, order)
        for vec_got, vec_want in zip(got[:2], want[:2]):
            for comp_got, comp_want in zip(vec_got, vec_want):
                assert list(comp_got.terms.items()) == list(comp_want.terms.items())
                assert [repr(c) for c in comp_got.terms.values()] == \
                    [repr(c) for c in comp_want.terms.values()]
        assert got[2:] == want[2:] and repr(got[2:]) == repr(want[2:])


def test_unknown_embedding_variant_is_rejected():
    for variant in ("C", "a", ""):
        with pytest.raises(ValueError, match="variant must be 'A' or 'B'"):
            system.build_embedding(variant)


def test_embedding_a_eigenstructure():
    A = system.build_embedding("A").linear
    es = eigen(A)
    assert es.diagonalizable
    assert es.generalized == []
    assert es.eigenvalues == [F(-2, 3), F(0), F(0), F(2, 3)]
    assert max(es.residuals(A)) <= 1e-12
    # unstable eigenvector parallel to (-3/2, 3/2, 0, 1)
    vec = es.eigenvectors[es.eigenvalues.index(F(2, 3))]
    ref = [F(-3, 2), F(3, 2), F(0), F(1)]
    ratios = {F(v) / r for v, r in zip(vec, ref) if r != 0}
    assert len(ratios) == 1
    assert all(v == 0 for v, r in zip(vec, ref) if r == 0)


def test_eigenstructure_residual_bound_all_systems():
    for s in (system.build_original(), system.build_embedding("A"),
              system.build_embedding("B")):
        es = eigen(s.linear)
        assert max(es.residuals(s.linear)) <= 1e-12


def test_original_generalized_direction():
    A = system.build_original().linear
    es = eigen(A)
    assert not es.diagonalizable
    # the defective zero repeats its one eigenvector in the flat list
    assert es.eigenvectors[1] == es.eigenvectors[2]
    (lam, w), = es.generalized
    assert lam == 0
    v = es.eigenvectors[1]
    assert [sum(A[i, j] * w[j] for j in range(4)) for i in range(4)] == v


def test_coordinate_map_inverse_exact():
    cm = system.coordinate_map()
    assert cm * cm.inverse() == Matrix.identity(4)


def test_coordinate_map_rows():
    cm = system.coordinate_map()
    assert cm.rows[0] == [F(1, 2), F(1, 2), F(0), F(0)]
    assert cm.rows[1] == [F(0), F(0), F(1, 2), F(1, 2)]
    assert cm.rows[2] == [F(3, 8), F(-3, 8), F(-3, 8), F(9, 8)]
    assert cm.rows[3] == [F(3, 8), F(-3, 8), F(9, 8), F(-3, 8)]


def test_map_rows_are_left_eigenvectors_of_embedding_a(monkeypatch):
    # rows 3-4 are the left eigenvectors of build_original's linear part for
    # -mu and mu, each scaled so that l·r = 1 for the fast right eigenvector r
    # with unit stream difference a - b; embedding A (w = X/V) shares them.
    # Checked at the reference exchange 1/2 and at 4/3 and 4
    for exchange, rate in ((F(1, 2), F(2, 3)), (F(4, 3), F(1)), (F(4), F(5, 3))):
        monkeypatch.setattr(system, "EXCHANGE", exchange)
        cm = system.coordinate_map()
        linear = system.build_original().linear
        right, left = eigen(linear), eigen(Matrix([list(col) for col in zip(*linear.rows)]))
        assert right.eigenvalues == left.eigenvalues == [-rate, 0, 0, rate]
        A = system.build_embedding("A").linear
        for i, lam in ((2, -rate), (3, rate)):
            (r,), = (basis for (v, _), basis in zip(right.values, right.vectors) if v == lam)
            (l,), = (basis for (v, _), basis in zip(left.values, left.vectors) if v == lam)
            r = [x / (r[0] - r[1]) for x in r]
            l = [x / sum(p * q for p, q in zip(l, r)) for x in l]
            assert cm.rows[i] == l
            assert [sum(l[k] * A[k, j] for k in range(4)) for j in range(4)] == \
                [lam * x for x in l]


def test_embedding_a_rates_do_not_depend_on_the_parameter(monkeypatch):
    # with w = X/V the family's rates D^2 lambda^2 = V^2 + 4DX - 2DVw
    # + 2D eps (Vw - X) lose their eps term, so A's series terminate
    for exchange in (F(1, 2), F(4, 3), F(4)):
        monkeypatch.setattr(system, "EXCHANGE", exchange)
        emb = system.build_embedding("A")
        N = emb.coupling
        polys = {tuple((emb.linear + N.scaled(eps)).charpoly()) for eps in (0, F(1, 3), 1)}
        assert polys == {(1, 0, -(1 + 6 * exchange) / 9, 0, 0)}


def test_effective_diffusion_is_the_slow_rate_of_the_linear_pair(monkeypatch):
    # a mode exp(i k x) of the linear microscale pair grows at the
    # eigenvalues of its symbol, the slow one
    # sigma(k) = -D k^2 - X + sqrt(X^2 - V^2 k^2); -sigma(k)/k^2 tends to
    # D_eff as k -> 0, with an O(k^2) remainder
    D, V = system.DIFFUSION, system.ADVECTION
    for exchange in (F(1, 2), F(4, 3), F(4)):
        monkeypatch.setattr(system, "EXCHANGE", exchange)
        X, d_eff = float(exchange), float(system.macro_model()[0])
        for k in (1e-2, 1e-3):
            symbol = np.array([[-D * k * k - 1j * V * k - X, X],
                               [X, -D * k * k + 1j * V * k - X]])
            sigma = max(np.linalg.eigvals(symbol), key=lambda z: z.real)
            assert sigma.real == pytest.approx(
                -D * k * k - X + np.sqrt(X * X - V * V * k * k), rel=1e-8)
            assert abs(sigma.imag) < 1e-12
            assert -sigma.real / (k * k) == pytest.approx(d_eff, rel=k * k)


def test_slow_columns_of_inverse_map():
    # the slow directions of the inverse match the transform's slow columns
    inv = system.coordinate_map().inverse()
    assert [row[0] for row in inv.rows] == [F(1), F(1), F(0), F(0)]
    assert [row[1] for row in inv.rows] == [F(-1), F(1), F(1), F(1)]


def test_embedding_eps_linear_matrix():
    emb = system.build_embedding("A")
    N = emb.coupling
    assert N.rows[0] == [F(0), F(0), F(0), F(1)]
    assert N.rows[1] == [F(0), F(0), F(1), F(0)]
    assert emb.linear + N == system.build_original().linear
