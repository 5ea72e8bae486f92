import ctypes
import dataclasses
import math
import os
import re
import sys
from fractions import Fraction as F

import numpy as np
import pytest
import scipy.integrate
from scipy import sparse
from scipy.linalg import lapack

from msbc import boundary, cli, normalform, solvers, system
from msbc.boundary import BoundaryData
from msbc.series import Space, TruncatedSeries
from msbc.solvers import Grid1D, MacroState, SolveConfig, SolverError

from conftest import reference_data


def zero_data():
    return BoundaryData()


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid1D(L=30.0, n=4)
    with pytest.raises(ValueError):
        Grid1D(L=-1.0, n=32)
    for L in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            Grid1D(L=L, n=32)
    g = Grid1D(L=30.0, n=600)
    assert g.dx == pytest.approx(0.05)
    assert len(g.nodes()) == 601


def test_config_validation():
    g = Grid1D(L=30.0, n=16)
    with pytest.raises(ValueError):
        SolveConfig(grid=g, t_end=-1.0, data=zero_data())
    with pytest.raises(ValueError):
        SolveConfig(grid=g, t_end=1.0, data=zero_data(), rtol=0.0)
    with pytest.raises(ValueError):
        SolveConfig(grid=g, t_end=1.0, data=zero_data(), snapshots=(2.0,))
    for bad in ({"t_end": math.inf}, {"t_end": math.nan}, {"rtol": math.nan},
                {"atol": math.inf}, {"snapshots": (math.nan,)},
                {"snapshots": (0.5, math.nan)}, {"snapshots": (math.inf,)}):
        with pytest.raises(ValueError, match="finite"):
            SolveConfig(grid=g, data=zero_data(), **{"t_end": 1.0, **bad})
    # solve_ivp rejects any t_eval beyond t_end, however close
    with pytest.raises(ValueError, match=r"\[0, t_end\]"):
        SolveConfig(grid=g, t_end=1.0, data=zero_data(), snapshots=(1.0 + 5e-13,))
    # solve_ivp needs strictly increasing t_eval: a repeated time is named here
    for snaps in ((0.5, 0.5, 1.0), (1.0, 0.25, 1.0)):
        with pytest.raises(ValueError, match=r"snapshot time %r is repeated" % snaps[0]):
            SolveConfig(grid=g, t_end=1.0, data=zero_data(), snapshots=snaps)
    assert SolveConfig(grid=g, t_end=1.0, data=zero_data(),
                       snapshots=(1.0, 0.5)).snapshots == (0.5, 1.0)


def test_config_rejects_unknown_bc_mode():
    # a mistyped mode must not fall through to the Robin closure
    g = Grid1D(L=30.0, n=16)
    for mode in ("dirichlet-heuristic", "robin-derived", "robin-linearised"):
        assert SolveConfig(grid=g, t_end=1.0, data=zero_data(), bc_mode=mode).bc_mode == mode
    for mode in ("robin", "robin-linearized", "Dirichlet-heuristic", ""):
        with pytest.raises(ValueError, match="bc_mode"):
            SolveConfig(grid=g, t_end=1.0, data=zero_data(), bc_mode=mode)


def test_micro_zero_data_stays_zero():
    cfg = SolveConfig(grid=Grid1D(L=30.0, n=32), t_end=5.0, data=zero_data(),
                      snapshots=(2.5, 5.0))
    traj = solvers.solve_microscale(cfg)
    for st in traj.states:
        assert np.all(st.a == 0.0)
        assert np.all(st.b == 0.0)


def test_macro_zero_data_stays_zero():
    cfg = SolveConfig(grid=Grid1D(L=30.0, n=32), t_end=5.0, data=zero_data())
    traj = solvers.solve_macroscale(cfg)
    assert np.all(traj.states[-1].C == 0.0)


def _steady_linear_reference(grid, a0, b0, aL, bL):
    """Direct dense solve of the steady linearised pair on the same grid."""
    n, dx = grid.n, grid.dx
    m = n - 1
    A = np.zeros((2 * m, 2 * m))
    rhs = np.zeros(2 * m)
    c_adv = 1.0 / (2.0 * dx)
    c_dif = 3.0 / (dx * dx)
    for i in range(m):
        # stream a: 0.5(b - a) - a_x + 3 a_xx = 0
        A[i, i] += -0.5 - 2.0 * c_dif
        A[i, m + i] += 0.5
        if i > 0:
            A[i, i - 1] += c_adv + c_dif
        else:
            rhs[i] -= (c_adv + c_dif) * a0
        if i < m - 1:
            A[i, i + 1] += -c_adv + c_dif
        else:
            rhs[i] -= (-c_adv + c_dif) * aL
        # stream b: 0.5(a - b) + b_x + 3 b_xx = 0
        j = m + i
        A[j, j] += -0.5 - 2.0 * c_dif
        A[j, i] += 0.5
        if i > 0:
            A[j, j - 1] += -c_adv + c_dif
        else:
            rhs[j] -= (-c_adv + c_dif) * b0
        if i < m - 1:
            A[j, j + 1] += c_adv + c_dif
        else:
            rhs[j] -= (c_adv + c_dif) * bL
    sol = np.linalg.solve(A, rhs)
    return sol[:m], sol[m:]


def test_linearised_steady_state_matches_direct_solve(monkeypatch):
    monkeypatch.setattr(system, "REACTION", 0)
    grid = Grid1D(L=30.0, n=512)
    data = BoundaryData(a0=0.2, b0=0.0, aL=0.0, bL=0.2)
    cfg = SolveConfig(grid=grid, t_end=600.0, data=data, snapshots=(600.0,),
                      rtol=1e-10, atol=1e-12)
    traj = solvers.solve_microscale(cfg)
    st = traj.states[-1]
    ref_a, ref_b = _steady_linear_reference(grid, 0.2, 0.0, 0.0, 0.2)
    err = max(np.max(np.abs(st.a[1:-1] - ref_a)), np.max(np.abs(st.b[1:-1] - ref_b)))
    assert err <= 1e-6


def test_micro_self_convergence_order():
    data = reference_data()
    sols = {}
    for n in (64, 128, 256):
        cfg = SolveConfig(grid=Grid1D(L=30.0, n=n), t_end=3.0, data=data,
                          snapshots=(3.0,), rtol=1e-10, atol=1e-11)
        sols[n] = solvers.solve_microscale(cfg).states[-1]
    xs = Grid1D(L=30.0, n=64).nodes()
    mask = (xs >= 5.0) & (xs <= 25.0)

    def err(n, stride_ref):
        a = sols[n].a[:: n // 64]
        ref = sols[256].a[:: 256 // 64]
        return np.max(np.abs((a - ref)[mask]))

    e1 = err(64, 4)
    e2 = err(128, 2)
    order = math.log2(e1 / e2)
    assert order >= 1.9


def test_macro_manufactured_solution_order():
    L, amp = 30.0, 0.1
    kx = math.pi / L

    def exact(x, t):
        return amp * np.sin(kx * x) * math.exp(-t / 10.0)

    def source(x, t):
        C = exact(x, t)
        Cx = amp * kx * np.cos(kx * x) * math.exp(-t / 10.0)
        return (-C / 10.0) - (0.5 * C ** 3 - 2.0 * C * Cx - 4.0 * kx * kx * C)

    errs = []
    for n in (32, 64, 128):
        grid = Grid1D(L=L, n=n)
        cfg = SolveConfig(grid=grid, t_end=1.0, data=zero_data(),
                          snapshots=(1.0,), rtol=1e-10, atol=1e-12)
        traj = solvers.solve_macroscale(cfg, initial=exact(grid.nodes(), 0.0),
                                        source=source)
        xs = grid.nodes()
        errs.append(np.max(np.abs(traj.states[-1].C - exact(xs, 1.0))))
    o1 = math.log2(errs[0] / errs[1])
    o2 = math.log2(errs[1] / errs[2])
    assert o1 >= 1.9
    assert o2 >= 1.9


def test_exchange_only_conserves_total(monkeypatch):
    for term in ("REACTION", "ADVECTION", "DIFFUSION"):
        monkeypatch.setattr(system, term, 0)
    grid = Grid1D(L=30.0, n=64)
    xs = grid.nodes()
    a0 = np.exp(-((xs - 12.0) / 3.0) ** 2)
    b0 = 0.25 * np.exp(-((xs - 18.0) / 4.0) ** 2)
    a0[0] = a0[-1] = b0[0] = b0[-1] = 0.0
    cfg = SolveConfig(grid=grid, t_end=5.0, data=zero_data(), snapshots=(5.0,),
                      rtol=1e-10, atol=1e-12)
    traj = solvers.solve_microscale(cfg, initial=(a0, b0))
    st = traj.states[-1]
    before = np.sum((a0 + b0)) * grid.dx
    after = np.sum((st.a + st.b)) * grid.dx
    assert abs(after - before) <= 1e-8 * max(1.0, abs(before))


def test_solvers_reject_bad_initial_values_before_integrating(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("integrated a bad initial state")

    monkeypatch.setattr(solvers, "solve_ivp", no_solve)
    cfg = SolveConfig(grid=Grid1D(L=30.0, n=16), t_end=1.0, data=zero_data())
    good = np.zeros(17)
    nan = good.copy()
    nan[5] = math.nan
    for bad in (np.zeros(3), nan):
        with pytest.raises(ValueError, match="17 finite nodal values"):
            solvers.solve_macroscale(cfg, initial=bad)
        for pair in ((bad, good), (good, bad)):
            with pytest.raises(ValueError, match="17 finite nodal values"):
                solvers.solve_microscale(cfg, initial=pair)


def test_integrator_rejects_a_bad_initial_state_or_band():
    def f(t, y):
        return -y

    for y0, rows, what in ((np.ones((2, 3)), 1, "1-dimensional"),
                           (np.array([1.0, math.nan]), 1, "finite"),
                           (np.ones(4), 3, r"band Jacobian has shape \(3, 4\)")):
        with pytest.raises(ValueError, match=what):
            solvers.solve_ivp(f, (0.0, 1.0), y0, t_eval=[1.0], rtol=1e-6, atol=1e-6,
                              jac=lambda t, y: -np.ones((rows, y.size)))


def test_integrator_rejects_a_span_before_evaluating_anything():
    # a reversed or empty span, or a time of t_eval outside it, once ended
    # with status -1 or returned too few or extrapolated states
    def never(t, y):
        raise AssertionError("evaluated on a bad span")

    for span, t_eval, what in (((1.0, 0.0), [0.5], "run forward"),
                               ((1.0, 1.0), [1.0], "run forward"),
                               ((0.0, math.nan), [0.5], "run forward"),
                               ((0.0, 1.0), [0.5, 1.0, 2.0], "not within `t_span`"),
                               ((0.0, 1.0), [-1.0, 0.5], "not within `t_span`"),
                               ((0.0, 1.0), [math.nan], "not within `t_span`")):
        with pytest.raises(ValueError, match=what):
            solvers.solve_ivp(never, span, np.ones(4), t_eval=t_eval, rtol=1e-6,
                              atol=1e-6, jac=never)


def _band_diagonals(J, kl, ku):
    """The diagonals of a matrix in LAPACK band storage (row ku + i - j holds
    entry (i, j)), with their offsets."""
    n = J.shape[1]
    offsets = range(-kl, ku + 1)
    return [J[ku - k, max(k, 0):n + min(k, 0)] for k in offsets], offsets


def _band_to_dense(J, kl, ku):
    return sum(np.diag(d, k) for d, k in zip(*_band_diagonals(J, kl, ku)))


def _band_to_csc(J, kl, ku):
    diagonals, offsets = _band_diagonals(J, kl, ku)
    return sparse.diags_array(diagonals, offsets=offsets, format="csc")


def _assert_jacobian_matches(J, rhs, t, y, h=1e-6):
    """An analytic (5, m) band Jacobian at (t, y) against a central
    difference of the same right-hand side, to a relative 1e-6."""
    J = _band_to_dense(J, 2, 2)
    fd = np.empty_like(J)
    for k in range(len(y)):
        e = np.zeros_like(y)
        e[k] = h
        fd[:, k] = (rhs(t, y + e) - rhs(t, y - e)) / (2.0 * h)
    np.testing.assert_allclose(J, fd, rtol=1e-6, atol=1e-8 * np.max(np.abs(fd)))


def _profile(m, seed):
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 1.0, m)
    return 0.15 * np.sin(3.0 * x) + 0.05 + 0.01 * rng.standard_normal(m)


TERMS = ("reaction", "advection", "diffusion", "exchange")


def _drop(monkeypatch, off):
    """Set the model number of term ``off`` to 0, if any; the terms kept."""
    if off is not None:
        monkeypatch.setattr(system, off.upper(), 0)
    return {k: k != off for k in TERMS}


@pytest.mark.parametrize("off", (None,) + TERMS)
def test_micro_jacobian_matches_central_difference(monkeypatch, off):
    _drop(monkeypatch, off)
    cfg = SolveConfig(grid=Grid1D(L=30.0, n=32), t_end=1.0, data=reference_data())
    rhs, jac = solvers._micro_system(cfg)
    y = np.empty(62)
    y[0::2], y[1::2] = _profile(31, 1), -_profile(31, 2)
    _assert_jacobian_matches(jac(2.0, y), rhs, 2.0, y)


@pytest.mark.parametrize("off", (None,) + TERMS)
def test_micro_rhs_matches_the_finite_difference_formulas(monkeypatch, off):
    """The band-times-y right-hand side against the central differences
    written out on the nodal fields."""
    on = _drop(monkeypatch, off)
    data = BoundaryData(a0=0.3, b0=-0.2, aL=0.1, bL=0.25)
    cfg = SolveConfig(grid=Grid1D(L=30.0, n=32), t_end=1.0, data=data)
    rhs, _ = solvers._micro_system(cfg)
    y = np.empty(62)
    y[0::2], y[1::2] = _profile(31, 4), -_profile(31, 5)
    a = np.concatenate(([0.3], y[0::2], [0.1]))
    b = np.concatenate(([-0.2], y[1::2], [0.25]))
    ai, bi, dx = a[1:-1], b[1:-1], cfg.grid.dx
    da = (on["exchange"] * 0.5 * (bi - ai) + on["reaction"] * 0.5 * ai * ai
          - on["advection"] * (a[2:] - a[:-2]) / (2.0 * dx)
          + on["diffusion"] * 3.0 * (a[2:] - 2.0 * ai + a[:-2]) / dx ** 2)
    db = (on["exchange"] * 0.5 * (ai - bi) - on["reaction"] * 0.5 * bi * bi
          + on["advection"] * (b[2:] - b[:-2]) / (2.0 * dx)
          + on["diffusion"] * 3.0 * (b[2:] - 2.0 * bi + b[:-2]) / dx ** 2)
    expected = np.empty(62)
    expected[0::2], expected[1::2] = da, db
    # terms of order one, summed in another order: a few units of float rounding
    np.testing.assert_allclose(rhs(2.0, y), expected, rtol=0, atol=1e-14)


def test_micro_rhs_is_the_derived_model_in_solver_units():
    # on quadratic profiles the central differences are exact, so the steady
    # microscale rows divided by the diffusion 3 must equal u'' minus
    # build_original's rows for u'' at the fields divided by FIELD_SCALE,
    # times FIELD_SCALE: any drift of the scale or of a model term shows
    S = system.FIELD_SCALE
    grid = Grid1D(L=2.0, n=16)
    x = grid.nodes()
    a = 0.3 + 0.2 * x - 0.15 * x * x
    b = -0.1 + 0.25 * x + 0.05 * x * x
    ax, axx = 0.2 - 0.3 * x, -0.3
    bx, bxx = 0.25 + 0.1 * x, 0.1
    data = BoundaryData(a0=a[0], b0=b[0], aL=a[-1], bL=b[-1])
    rhs, _ = solvers._micro_system(SolveConfig(grid=grid, t_end=1.0, data=data))
    y = np.empty(30)
    y[0::2], y[1::2] = a[1:-1], b[1:-1]
    steady = rhs(0.0, y) / 3.0
    model = system.build_original()
    for row, uxx, got in ((2, axx, steady[0::2]), (3, bxx, steady[1::2])):
        for k in range(1, 16):
            state = [F(v) / S for v in (a[k], b[k], ax[k], bx[k])]
            u_xx = sum(model.linear[row, j] * state[j] for j in range(4)) \
                + model.nonlinear[row].evaluate(state)
            assert got[k - 1] == pytest.approx(uxx - S * float(u_xx), abs=1e-13)


def _slow_part(series, weight):
    """``series`` over (s1..s4) at s3 = s4 = 0 as {(i, j): c} for c s1^i s2^j,
    truncated at weighted degree ``weight`` with s2 counting 2."""
    return {(e[0], e[1]): c for e, c in series.terms.items()
            if e[2] == e[3] == 0 and e[0] + 2 * e[1] <= weight}


def _in_solver_units(poly, C, Cx):
    """The field ``poly`` of the derivation's (s1, s2) at the solver fields
    (C, Cx), which are FIELD_SCALE times those variables."""
    S = system.FIELD_SCALE
    return S * sum(float(c) * (C / S) ** i * (Cx / S) ** j for (i, j), c in poly.items())


def _quadratic_profile():
    grid = Grid1D(L=2.0, n=16)
    x = grid.nodes()
    return grid, 0.3 + 0.2 * x - 0.15 * x * x, 0.2 - 0.3 * x, -0.3


# G2, the shear's (alpha, beta) and D_eff at exchange 1/2 (the reference),
# 4/3 and 4
MODELS = {F(1, 2): ({(1, 1): F(3, 2), (3, 0): F(-9, 8)}, (F(-1), F(3, 2)), F(4)),
          F(4, 3): ({(1, 1): F(2, 3), (3, 0): F(-1, 2)}, (F(-3, 8), F(9, 16)), F(27, 8)),
          F(4): ({(1, 1): F(6, 25), (3, 0): F(-9, 50)}, (F(-1, 8), F(3, 16)), F(25, 8))}


def _models(monkeypatch):
    """Each model of ``MODELS`` in turn, with its pins and its parameter-1
    transform and evolution."""
    for exchange, pins in MODELS.items():
        monkeypatch.setattr(system, "EXCHANGE", exchange)
        yield pins, normalform.construct_at_unity(system.build_original(), order=3)


def test_macro_rhs_is_the_derived_slow_flow_in_solver_units(monkeypatch):
    # C_t = D_eff (Cxx - G2(C, Cx)) with G2 the derived ds2/dx truncated at
    # weighted degree 3; on a quadratic profile the central differences are
    # exact, so any drift of G2 or of the scale shows
    grid, C, Cx, Cxx = _quadratic_profile()
    mean = BoundaryData(a0=C[0], b0=C[0], aL=C[-1], bL=C[-1])
    for (flow, _, d_eff), (_, G, _, _) in _models(monkeypatch):
        g2 = _slow_part(G[1], 3)
        assert g2 == flow and system.macro_model()[:2] == (d_eff, flow)
        rhs, _, _ = solvers._macro_system(SolveConfig(grid=grid, t_end=1.0, data=mean),
                                          *boundary.dirichlet_heuristic(mean), None)
        want = float(d_eff) * (Cxx - _in_solver_units(g2, C, Cx))
        assert np.allclose(rhs(0.0, C[1:-1]), want[1:-1], rtol=0.0, atol=1e-13)


def test_reconstruction_is_the_derived_slow_manifold_in_solver_units(monkeypatch):
    # the streams are the derived transform at s3 = s4 = 0, truncated at
    # weighted degree 2: a = s1 + alpha s2 + beta s1^2 (at the reference
    # s1 - s2 + 3/2 s1^2) and b mirrored
    grid, C, Cx, _ = _quadratic_profile()
    for (_, (alpha, beta), _), (T, _, _, _) in _models(monkeypatch):
        a, b = (_slow_part(T[k], 2) for k in (0, 1))
        assert a == {(1, 0): 1, (0, 1): alpha, (2, 0): beta}
        st = solvers.reconstruct_micro(MacroState(C=C, t=0.0), grid)
        for got, want in ((st.a, a), (st.b, b)):
            assert np.allclose(got[1:-1], _in_solver_units(want, C, Cx)[1:-1],
                               rtol=0.0, atol=1e-14)


def test_solver_units_do_not_depend_on_the_field_scale(monkeypatch):
    # the field scale only renames the derivation's variables: the solvers
    # read it at call time, so the macro model and the reconstruction in
    # solver units stay the same when it changes
    grid, C, _, _ = _quadratic_profile()
    mean = BoundaryData(a0=C[0], b0=C[0], aL=C[-1], bL=C[-1])
    cfg = SolveConfig(grid=grid, t_end=1.0, data=mean)
    seen = []
    for scale in (3, 6):
        monkeypatch.setattr(system, "FIELD_SCALE", scale)
        rhs, _, _ = solvers._macro_system(cfg, *boundary.dirichlet_heuristic(mean), None)
        st = solvers.reconstruct_micro(MacroState(C=C, t=0.0), grid)
        seen.append(np.concatenate((rhs(0.0, C[1:-1]), st.a, st.b)))
    assert np.allclose(*seen, rtol=0.0, atol=1e-14)


def _macro(mode, bcs, source=None):
    cfg = SolveConfig(grid=Grid1D(L=30.0, n=32), t_end=1.0, data=reference_data(),
                      bc_mode=mode)
    return cfg, solvers._macro_system(cfg, *bcs, source)


def test_macro_dirichlet_jacobian_with_source():
    _, (rhs, jac, _) = _macro("dirichlet-heuristic",
                              boundary.dirichlet_heuristic(reference_data()),
                              source=lambda x, t: 0.1 * np.sin(x) * (1.0 + t))
    y = _profile(31, 3)
    _assert_jacobian_matches(jac(2.0, y), rhs, 2.0, y)


def test_macro_robin_jacobian_and_explicit_end_values(derivation):
    # the end values solve the relation outright with the one-sided gradient
    # of the three interior values nearest each end, which puts entries two
    # places off the diagonal in the end rows
    bcs = derivation["bc_left"], derivation["bc_right"]
    cfg, (rhs, jac, field) = _macro("robin-derived", bcs)
    t, y, dx = 2.0, _profile(31, 4), cfg.grid.dx
    J = jac(t, y)
    _assert_jacobian_matches(J, rhs, t, y)
    assert J[0, 2] != 0.0 and J[4, -3] != 0.0
    C, ends = field(t, y)
    (cxl, _), (cxr, _) = ends
    assert np.array_equal(C[1:-1], y)
    assert cxl == (-5.0 * y[0] + 8.0 * y[1] - 3.0 * y[2]) / (2.0 * dx)
    assert cxr == (5.0 * y[-1] - 8.0 * y[-2] + 3.0 * y[-3]) / (2.0 * dx)
    assert abs(bcs[0].residual(C[0], cxl, t)) <= 1e-15
    assert abs(bcs[1].residual(C[-1], cxr, t)) <= 1e-15
    # pure functions of (t, y): no evaluation leaves a trace on the next
    C2, ends2 = field(t, y)
    assert np.array_equal(C2, C) and ends2 == ends
    assert np.array_equal(rhs(t, y), rhs(t, y)) and np.array_equal(jac(t, y), J)


def test_macro_robin_closure_reads_each_data_pair_once(derivation):
    reads = []

    def logged(fn, tag):
        def read(t):
            reads.append(tag)
            return fn(t)
        return read

    bcs = [dataclasses.replace(bc, data=tuple(logged(f, (bc.side, i))
                                              for i, f in enumerate(bc.data)))
           for bc in (derivation["bc_left"], derivation["bc_right"])]
    _, (rhs, _, _) = _macro("robin-derived", bcs)
    rhs(2.0, _profile(31, 7))
    assert reads == [("left", 0), ("left", 1), ("right", 0), ("right", 1)]


def test_macro_linearised_robin_jacobian(derivation):
    bcs = derivation["bc_left"].linearized(), derivation["bc_right"].linearized()
    assert bcs[0].Q == 0 and bcs[1].Q == 0
    _, (rhs, jac, _) = _macro("robin-linearised", bcs)
    y = _profile(31, 6)
    _assert_jacobian_matches(jac(2.0, y), rhs, 2.0, y)


def test_linearised_mode_linearises_the_derived_pair(derivation):
    cfg = SolveConfig(grid=Grid1D(L=30.0, n=64), t_end=7.0, data=derivation["data"],
                      snapshots=(3.5, 7.0), bc_mode="robin-linearised")
    bcs = derivation["bc_left"], derivation["bc_right"]
    derived = solvers.solve_macroscale(cfg, *bcs)
    linear = solvers.solve_macroscale(cfg, *(bc.linearized() for bc in bcs))
    assert len(derived.states) == len(linear.states) == 2
    for got, want in zip(derived.states, linear.states):
        assert got.t == want.t and np.array_equal(got.C, want.C)


def test_macro_robin_snapshot_violating_its_relation_is_an_error(monkeypatch):
    # conditions C - Cx^2 = 0 and C + Cx^2 = 0, or in dirichlet mode the
    # data mean, whose closure reads an R off by 1e-6: the end values then
    # miss the relation by that much, and the snapshot check must refuse the
    # state in every mode
    sp = Space(("Cx", "a0", "b0"), 2)
    quiet = (lambda t: 0.0, lambda t: 0.0)
    bcs = [boundary.RobinBC(TruncatedSeries(sp, {(2, 0, 0): F(q)}), side=side, data=quiet)
           for q, side in ((1, "left"), (-1, "right"))]
    coefficients_at = boundary.RobinBC.coefficients_at
    monkeypatch.setattr(boundary.RobinBC, "coefficients_at",
                        lambda bc, t: (coefficients_at(bc, t)[0] + 1e-6,
                                       *coefficients_at(bc, t)[1:]))
    for mode in ("robin-derived", "dirichlet-heuristic"):
        cfg = SolveConfig(grid=Grid1D(L=30.0, n=32), t_end=1.0, data=zero_data(),
                          bc_mode=mode)
        with pytest.raises(SolverError, match=r"^boundary relation unsatisfied at t=1 on the "
                                              r"left end \(residual 1\.000e-06\)"):
            solvers.solve_macroscale(cfg, *bcs)


def _sweep_config(derivation, mode, n=300):
    cfg = SolveConfig(grid=Grid1D(L=30.0, n=n), t_end=21.0, data=derivation["data"],
                      snapshots=(7.0, 14.0, 21.0), bc_mode=mode)
    bcs = derivation["bc_left"], derivation["bc_right"]
    if mode == "robin-linearised":
        bcs = bcs[0].linearized(), bcs[1].linearized()
    return cfg, (() if mode == "dirichlet-heuristic" else bcs)


class _BandOracleBDF(scipy.integrate.BDF):
    """scipy's stock BDF with its Newton matrix ``I - c J`` held as the band
    ``jac(t, y)`` returns (``band = (kl, ku)``, the solvers' (2, 2) unless
    given) and factored by the same LAPACK routines as the solvers' own
    integrator, which must reproduce its every step."""

    def __init__(self, fun, t0, y0, t_bound, jac, band=(2, 2), **options):
        m = len(y0)
        # a constant sparse placeholder takes BDF's sparse branch, so it
        # never allocates a dense m x m identity, and leaves njev at 0
        super().__init__(fun, t0, y0, t_bound, jac=sparse.csc_array((m, m)),
                         **options)
        self.kl, self.ku = band

        def band_jac(t, y):
            self.njev += 1
            return jac(t, y)

        self.jac = band_jac
        self.J = band_jac(self.t, self.y)
        self.I = np.zeros((self.kl + self.ku + 1, m))
        self.I[self.ku] = 1.0
        self.lu = self._factor
        self.solve_lu = self._solve

    def _factor(self, A):
        self.nlu += 1
        ab = np.zeros((2 * self.kl + self.ku + 1, A.shape[1]), order="F")
        ab[self.kl:] = A
        *lu, info = lapack.dgbtrf(ab, self.kl, self.ku, overwrite_ab=1)
        assert info == 0
        return lu

    def _solve(self, lu, b):
        x, info = lapack.dgbtrs(lu[0], self.kl, self.ku, b, lu[1], overwrite_b=1)
        assert info == 0
        return x


def _fields(traj):
    return [(st.t, st.a, st.b) if traj.kind == "micro" else (st.t, st.C)
            for st in traj.states]


@pytest.mark.parametrize("mode", ("dirichlet-heuristic", "robin-derived",
                                  "robin-linearised", "micro"))
def test_band_solve_matches_sparse_lu_oracle(derivation, monkeypatch, mode):
    # two oracles on the same right-hand side and band Jacobian: scipy's BDF
    # with the band factor must match the solvers' integrator bit for bit;
    # scipy's BDF on the same diagonals as a csc matrix, so SuperLU factors
    # the Newton matrix, may differ only in the rounding of the solves
    cfg, bcs = _sweep_config(derivation, "dirichlet-heuristic" if mode == "micro"
                             else mode)
    counts = []
    ours = solvers.solve_ivp

    def recorded(kind):
        def ivp(fun, span, y0, *, jac, **kwargs):
            if kind == "ours":
                sol = ours(fun, span, y0, jac=jac, **kwargs)
            elif kind == "band":
                sol = scipy.integrate.solve_ivp(fun, span, y0, method=_BandOracleBDF,
                                                jac=jac, **kwargs)
            else:
                sol = scipy.integrate.solve_ivp(
                    fun, span, y0, method="BDF", **kwargs,
                    jac=lambda t, y: _band_to_csc(jac(t, y), 2, 2))
            counts.append((sol.nfev, sol.njev, sol.nlu))
            return sol
        return ivp

    def solve(kind):
        monkeypatch.setattr(solvers, "solve_ivp", recorded(kind))
        if mode == "micro":
            return _fields(solvers.solve_microscale(cfg))
        return _fields(solvers.solve_macroscale(cfg, *bcs))

    new, band, csc = solve("ours"), solve("band"), solve("csc")
    assert counts[0] == counts[1] == counts[2]
    assert [f[0] for f in new] == [f[0] for f in band] == [f[0] for f in csc] \
        == [7.0, 14.0, 21.0]
    for ours_f, band_f, csc_f in zip(new, band, csc):
        for x, bx, cx in zip(ours_f[1:], band_f[1:], csc_f[1:]):
            assert np.array_equal(x, bx)
            np.testing.assert_allclose(x, cx, rtol=1e-10, atol=0.0)


def test_both_solves_factor_their_bands(derivation, monkeypatch):
    shapes, seen = [], []
    factor, ivp = solvers._BandBDF._factor, solvers.solve_ivp

    def recorded_factor(self, A):
        shapes.append(A.shape)
        return factor(self, A)

    def recorded_ivp(*args, **kwargs):
        shapes.clear()
        sol = ivp(*args, **kwargs)
        seen.append((sol.nlu, len(shapes), set(shapes)))
        return sol

    monkeypatch.setattr(solvers._BandBDF, "_factor", recorded_factor)
    monkeypatch.setattr(solvers, "solve_ivp", recorded_ivp)
    cfg, bcs = _sweep_config(derivation, "robin-derived", n=64)
    solvers.solve_macroscale(cfg, *bcs)
    solvers.solve_microscale(cfg)
    (macro_lu, macro_n, macro_shapes), (micro_lu, micro_n, micro_shapes) = seen
    assert macro_lu == macro_n > 0 and macro_shapes == {(5, 63)}
    assert micro_lu == micro_n > 0 and micro_shapes == {(5, 126)}


def _band_solver(m=8):
    """The band BDF on dy/dt = -y, whose (5, m) Jacobian band is -I."""
    J = np.zeros((5, m))
    J[2] = -1.0
    return solvers._BandBDF(lambda t, y: -y, 0.0, np.ones(m), 1.0, 1e-3, 1e-6,
                            jac=lambda t, y: J)


def _on_each_lapack_source(monkeypatch, tmp_path, check):
    """``check()`` on each LAPACK source of the solvers: the OpenBLAS bundled
    with numpy, where there is one, then scipy's cython_lapack, which the
    loader falls back to when its directory holds no bundled library.
    Returns the results by source."""
    results = {}
    for libdir in (solvers._NUMPY_LIBS, str(tmp_path)):
        monkeypatch.setattr(solvers, "_NUMPY_LIBS", libdir)
        monkeypatch.setattr(solvers, "_LAPACK", solvers._load_lapack())
        results[solvers._LAPACK.source] = check()
    assert "cython_lapack" in results
    return results


def test_band_factor_solves_the_pentadiagonal_system(monkeypatch, tmp_path):
    # a random band system factored and solved on each LAPACK source: the
    # solution must be the same bits from both
    rng = np.random.default_rng(9)
    A = rng.standard_normal((5, 8))
    b = rng.standard_normal(8)

    def solve():
        solver = _band_solver()
        x = solver._solve(solver._factor(A.copy()), b.copy())
        np.testing.assert_allclose(_band_to_dense(A, 2, 2) @ x, b, rtol=1e-12, atol=1e-12)
        assert solver.nlu == 1
        return x

    first, *rest = _on_each_lapack_source(monkeypatch, tmp_path, solve).values()
    for x in rest:
        assert np.array_equal(x, first)


def test_band_factor_rejects_a_singular_pentadiagonal_band(monkeypatch, tmp_path):
    # the microscale Newton matrix: a SolverError, so the command exits 2
    A = np.zeros((5, 8))
    A[2] = 1.0
    A[2, 3] = 0.0                   # column 3 is zero: exactly singular

    def factor():
        with pytest.raises(SolverError) as err:
            _band_solver()._factor(A.copy())
        return str(err.value)

    messages = _on_each_lapack_source(monkeypatch, tmp_path, factor).values()
    assert set(messages) == {"singular Newton matrix at t=0 (dgbtrf info 4)"}


def test_numpy_wheels_supply_the_lapack():
    # a Linux wheel of numpy bundles a 64-bit-integer scipy-openblas in
    # numpy.libs: the solvers must then take their LAPACK from it, not scipy
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    if not (sys.platform.startswith("linux") and blas.get("name") == "scipy-openblas"
            and "USE64BITINT" in blas.get("openblas configuration", "")
            and os.path.isdir(solvers._NUMPY_LIBS)):
        pytest.skip("numpy here is not a Linux wheel with a bundled scipy-openblas64")
    assert (solvers._LAPACK.source, solvers._LAPACK.int_type) == ("openblas", ctypes.c_int64)


def test_lapack_loader_falls_back_when_a_symbol_is_missing(monkeypatch):
    if solvers._LAPACK.source != "openblas":
        pytest.skip("numpy bundles no OpenBLAS with the two band routines here")
    monkeypatch.setattr(solvers, "_OPENBLAS_SYMBOL", "no_such_symbol_%s")
    lapack = solvers._load_lapack()
    assert (lapack.source, lapack.int_type) == ("cython_lapack", ctypes.c_int)


def test_integrator_starts_from_zeroed_differences():
    # the first step reads D[2] before writing it: garbage there raised
    # spurious RuntimeWarnings on stderr, so D starts zeroed, as in scipy
    solver = _band_solver()
    assert solver.D.shape == (8, 8) and not solver.D[2:].any()


def test_band_factor_rejects_arrays_of_the_wrong_shape():
    # the routines get raw pointers, so the sizes are checked first
    solver = _band_solver()
    with pytest.raises(ValueError, match=r"band has shape \(5, 7\)"):
        solver._factor(np.ones((5, 7)))
    A = np.ones((5, 8))
    A[2] = 6.0                      # diagonally dominant
    lu = solver._factor(A)
    with pytest.raises(ValueError, match=r"shape \(7,\) into shape \(8,\)"):
        solver._solve(lu, np.ones(7))


def test_robin_boundary_residual_after_steps(reference_run, derivation):
    # enforced internally after every snapshot; recheck here directly: the
    # derived pair in solver units, with the closure's one-sided gradient
    dx = reference_run["grid"].dx
    bcl, bcr = (derivation[k].rescaled(system.FIELD_SCALE) for k in ("bc_left", "bc_right"))
    for st in reference_run["robin"].states:
        C = st.C
        cxl = (-5.0 * C[1] + 8.0 * C[2] - 3.0 * C[3]) / (2.0 * dx)
        cxr = (5.0 * C[-2] - 8.0 * C[-3] + 3.0 * C[-4]) / (2.0 * dx)
        assert abs(bcl.residual(C[0], cxl, st.t)) <= 1e-9
        assert abs(bcr.residual(C[-1], cxr, st.t)) <= 1e-9


def test_dirichlet_end_values_are_the_data_means(reference_run, derivation):
    # the heuristic relation C = u/2 + v/2 evaluates to the same float as
    # the mean of the data pair, at every snapshot and both ends
    data = derivation["data"]
    for st in reference_run["dirichlet"].states:
        assert st.C[0] == 0.5 * (data.a0(st.t) + data.b0(st.t))
        assert st.C[-1] == 0.5 * (data.aL(st.t) + data.bL(st.t))


def test_macro_robin_fields_do_not_depend_on_the_snapshot_set(derivation):
    # the closure keeps no history, so the steps, and with them the fields,
    # cannot depend on where the snapshots interrupt the run
    bcs = derivation["bc_left"], derivation["bc_right"]
    fields = []
    for snaps in ((21.0,), (7.0, 14.0, 21.0)):
        cfg = SolveConfig(grid=Grid1D(L=30.0, n=600), t_end=21.0, data=derivation["data"],
                          snapshots=snaps, bc_mode="robin-derived")
        fields.append(solvers.solve_macroscale(cfg, *bcs).at(21.0).C)
    assert np.array_equal(fields[0], fields[1])


def test_macro_robin_solves_on_every_sweep_grid(derivation, monkeypatch):
    # each Robin solve of the refinement sweep succeeds with at most twice
    # the right-hand sides and factorisations of the Dirichlet solve on the
    # same grid
    counts, ivp = [], solvers.solve_ivp

    def counted(*args, **kwargs):
        sol = ivp(*args, **kwargs)
        counts.append((sol.nfev, sol.nlu, sol.njev))
        return sol

    monkeypatch.setattr(solvers, "solve_ivp", counted)
    for n in (300, 600, 1200):
        counts.clear()
        for mode in ("dirichlet-heuristic", "robin-derived"):
            cfg, bcs = _sweep_config(derivation, mode, n=n)
            assert [st.t for st in solvers.solve_macroscale(cfg, *bcs).states] \
                == [7.0, 14.0, 21.0]
        (nfev_d, nlu_d, _), (nfev_r, nlu_r, njev_r) = counts
        assert nfev_r <= 2 * nfev_d and nlu_r <= 2 * nlu_d, (n, counts)
        # the Dirichlet Jacobian never goes stale (njev 1): the Robin one is
        # refreshed only a few times
        assert njev_r <= 5, (n, counts)


def test_integrator_blowup_reports_diagnostics():
    # the failure comes before the only snapshot: the message names the
    # integrator's own last time, not the last snapshot reached
    data = BoundaryData(a0=4.0, b0=4.0, aL=4.0, bL=4.0)
    cfg = SolveConfig(grid=Grid1D(L=30.0, n=16), t_end=5.0, data=data)
    with pytest.raises(SolverError, match=r"^macroscale integration failed at t=(\S+): "
                                          r"Required step size") as err:
        solvers.solve_macroscale(cfg)
    assert 0.5 < float(re.match(r".* at t=(\S+):", str(err.value)).group(1)) < 0.6


def test_reconstruct_zero_and_constant():
    grid = Grid1D(L=30.0, n=32)
    zero = solvers.reconstruct_micro(MacroState(C=np.zeros(33), t=0.0), grid)
    assert np.all(zero.a == 0.0) and np.all(zero.b == 0.0)
    c = 0.3
    st = solvers.reconstruct_micro(MacroState(C=np.full(33, c), t=0.0), grid)
    assert np.allclose(st.a, c + c * c / 2.0, atol=1e-14)
    assert np.allclose(st.b, c - c * c / 2.0, atol=1e-14)


def test_reconstruct_linear_profile():
    grid = Grid1D(L=30.0, n=256)
    alpha = 0.01
    xs = grid.nodes()
    st = solvers.reconstruct_micro(MacroState(C=alpha * xs, t=0.0), grid)
    expect = alpha * xs + (alpha * xs) ** 2 / 2.0 - alpha
    assert np.max(np.abs(st.a[1:-1] - expect[1:-1])) <= 1e-10


def test_interior_error_zero_when_identical():
    grid = Grid1D(L=30.0, n=64)
    # dyadic constant keeps every float operation exact
    C = np.full(65, 0.25)
    micro = solvers.reconstruct_micro(MacroState(C=C, t=1.0), grid)
    metrics = solvers.interior_error(micro, MacroState(C=C, t=1.0), grid)
    assert metrics.Linf_mean == 0.0
    assert metrics.L2_mean == 0.0
    assert metrics.Linf_fields == 0.0


def test_interior_error_dual_path(reference_run):
    grid = reference_run["grid"]
    ms = reference_run["micro"].at(21.0)
    st = reference_run["dirichlet"].at(21.0)
    metrics = solvers.interior_error(ms, st, grid)
    xs = grid.nodes()
    mask = (xs >= 5.0) & (xs <= 25.0)
    diff = np.abs(st.C[mask] - ms.mean()[mask])
    # sort-based maximum against the vectorised maximum
    assert metrics.Linf_mean == pytest.approx(np.sort(diff)[-1], abs=0.0)
    acc = 0.0
    for d in diff:
        acc += d * d
    assert metrics.L2_mean == pytest.approx(math.sqrt(grid.dx * acc), rel=1e-12)


def test_interior_error_empty_window(reference_run):
    grid = reference_run["grid"]
    ms = reference_run["micro"].at(21.0)
    st = reference_run["dirichlet"].at(21.0)
    with pytest.raises(ValueError):
        solvers.interior_error(ms, st, grid, window=(40.0, 50.0))
    with pytest.raises(ValueError):
        solvers.interior_error(ms, reference_run["dirichlet"].at(7.0), grid)


def test_derived_bc_beats_dirichlet_everywhere(reference_run):
    grid = reference_run["grid"]
    for t in reference_run["snapshots"]:
        ms = reference_run["micro"].at(t)
        ed = solvers.interior_error(ms, reference_run["dirichlet"].at(t), grid)
        er = solvers.interior_error(ms, reference_run["robin"].at(t), grid)
        assert er.Linf_mean < ed.Linf_mean
        assert er.L2_mean < ed.L2_mean
        assert er.Linf_fields < ed.Linf_fields


def test_boundary_layers_confined_to_ends(reference_run):
    grid = reference_run["grid"]
    st = reference_run["micro"].at(21.0)
    xs = grid.nodes()
    gap = np.abs(st.a - st.b)
    interior_median = float(np.median(gap[(xs >= 5.0) & (xs <= 25.0)]))
    assert gap[xs <= 2.0].max() > interior_median
    assert gap[xs >= 28.0].max() > interior_median


def test_trajectory_csv_rows(reference_run, tmp_path):
    paths = cli._write_csvs(reference_run["dirichlet"], "ref", "macro-dirichlet",
                            str(tmp_path))
    assert len(paths) == len(reference_run["snapshots"])
    ts = set()
    for path in paths:
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "t,x,field,value"
        rows = [line.split(",") for line in lines[1:]]
        assert {r[2] for r in rows} == {"C"}
        assert len({r[0] for r in rows}) == 1
        ts.add(float(rows[0][0]))
    assert ts == set(reference_run["snapshots"])
