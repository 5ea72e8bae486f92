"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts.
Numeric bounds are pinned here; the figure-comparison ratio bound carries
both the specified 0.5 factor and the tighter regression bound frozen from
the first oracle run of this implementation (observed 0.0790 at the final
snapshot, tightened to 1.25x observed = 0.099).  With the explicit Robin
closure and the derived pair imposed in solver units the ratio reads
0.0726; the bound is unchanged.
"""

import os
import time
from fractions import Fraction as F

import pytest

from msbc import boundary, cli, normalform, solvers, system
from msbc.series import TruncatedSeries

from conftest import reference_data
from test_normalform import (EVOLUTION_REFERENCE, TRANSFORM_REFERENCE,
                             against_printed, coef)
import test_solvers

FROZEN_RATIO_BOUND = 0.099  # 1.25 x the first observed ratio 0.0790; observed 0.0726 now


def _ok(n, text):
    print("CRITERION %d PASS: %s" % (n, text))


def test_criterion_1_transform_coefficients(tmp_path, at_unity):
    t0 = time.time()
    rc = cli.main(["derive", "--order", "3", "--out", str(tmp_path)])
    elapsed = time.time() - t0
    assert rc == 0
    assert elapsed < 10.0, "derive took %.1fs" % elapsed
    unity = at_unity[0]
    checked = 0
    for name, table in TRANSFORM_REFERENCE.items():
        comp = unity[("a", "b", "ap", "bp").index(name)]
        for mono, printed in table.items():
            got = coef(comp, **dict(mono))
            assert against_printed(got, printed), (name, mono, got, printed)
            checked += 1
    _ok(1, "all %d printed transform coefficients reproduced; derive ran in "
        "%.1fs" % (checked, elapsed))


def test_criterion_2_evolution_and_bc_coefficients(at_unity, derivation):
    unity = at_unity[1]
    for j, table in enumerate(EVOLUTION_REFERENCE):
        for mono, printed in table.items():
            assert against_printed(coef(unity[j], **dict(mono)), printed)
    rev = derivation["reverted"]
    from test_boundary import REVERTED_S1, REVERTED_S3
    for mono, printed in REVERTED_S1.items():
        assert against_printed(coef(rev.s1_series, **dict(mono)), printed)
    for mono, printed in REVERTED_S3.items():
        assert against_printed(coef(rev.s3_series, **dict(mono)), printed)
    bc = derivation["bc_left"]
    assert against_printed(coef(bc.P), "0.5")
    assert against_printed(coef(bc.P, b0=1), "-2.8")
    assert against_printed(coef(bc.P, a0=1), "3.7")
    assert bc.Q == 3
    for mono, printed in ((dict(b0=1), "0.25"), (dict(b0=2), "-0.29"),
                          (dict(a0=1), "0.75"), (dict(a0=1, b0=1), "-0.63"),
                          (dict(a0=2), "0.18")):
        assert against_printed(coef(bc.R, **mono), printed)
    lin = bc.linearized()
    assert coef(lin.P) == F(1, 2)
    assert coef(lin.R, b0=1) == F(1, 4)
    assert coef(lin.R, a0=1) == F(3, 4)
    # specialisations at the scenario data, final plateau value
    assert against_printed(bc.P.evaluate((F(2, 10), F(0))) - F(1, 2), "0.75")
    assert against_printed(
        bc.R.evaluate((F(2, 10), F(0))) - coef(bc.R, a0=1) * F(2, 10), "0.007")
    bcr = derivation["bc_right"]
    assert bcr.Q == -3
    assert against_printed(bcr.P.evaluate((F(0), F(2, 10))) + F(1, 2), "0.75")
    assert against_printed(
        bcr.R.evaluate((F(0), F(2, 10))) - coef(bcr.R, bL=1) * F(2, 10), "-0.007")
    _ok(2, "evolution, reverted relation, general/linearised/specialised "
        "boundary conditions all reproduce the printed values")


def test_criterion_3_embedding_cross_validation(constructed, at_unity):
    transform, evolution, _ = constructed
    cc = normalform.cross_validate_embeddings(transform, evolution, at_unity[:2])
    assert cc.identical
    assert cc.max_discrepancy <= 1e-12
    _ok(3, "both embeddings give the same separated form at parameter 1 "
        "(max coefficient discrepancy %.2e)" % cc.max_discrepancy)


def test_criterion_4_conjugacy(constructed, at_unity):
    transform, evolution, _ = constructed
    emb = system.build_embedding("A")
    resid = normalform.verify_conjugacy(transform, evolution, emb)
    assert all(c.is_zero() for c in resid)
    resid = normalform.verify_conjugacy(at_unity[0], at_unity[1],
                                        system.build_original())
    assert all(c.is_zero() for c in resid)
    # numeric dual integration at |s| = 0.01 over one unit of space
    from test_normalform import test_numeric_dual_integration
    test_numeric_dual_integration(at_unity)
    _ok(4, "conjugacy residual vanishes identically; dual numeric "
        "integration agrees to 1e-6")


def test_criterion_5_figure_comparison():
    t0 = time.time()
    transform = normalform.construct_at_unity(system.build_original(), order=3)[0]
    data = reference_data()
    _, _, bcl, bcr = boundary.derive_boundary_conditions(transform, data)
    grid = solvers.Grid1D(L=30.0, n=600)

    def cfg(mode):
        return solvers.SolveConfig(grid=grid, t_end=21.0, data=data,
                                   snapshots=(21.0,), bc_mode=mode,
                                   rtol=1e-8, atol=1e-8)

    micro = solvers.solve_microscale(cfg("dirichlet-heuristic"))
    macro_d = solvers.solve_macroscale(cfg("dirichlet-heuristic"))
    macro_r = solvers.solve_macroscale(cfg("robin-derived"), bcl, bcr)
    elapsed = time.time() - t0
    ms = micro.at(21.0)
    ed = solvers.interior_error(ms, macro_d.at(21.0), grid)
    er = solvers.interior_error(ms, macro_r.at(21.0), grid)
    ratio = er.Linf_mean / ed.Linf_mean
    assert elapsed < 120.0, "comparison took %.1fs" % elapsed
    assert er.Linf_mean < ed.Linf_mean
    assert ratio <= 0.5
    assert ratio <= FROZEN_RATIO_BOUND
    _ok(5, "interior error with the derived condition is %.4f of the "
        "heuristic one (bounds 0.5 and %.3f; %.0fs)"
        % (ratio, FROZEN_RATIO_BOUND, elapsed))


def test_criterion_6_solver_verification(monkeypatch):
    test_solvers.test_micro_self_convergence_order()
    test_solvers.test_macro_manufactured_solution_order()
    test_solvers.test_linearised_steady_state_matches_direct_solve(monkeypatch)
    _ok(6, "both solvers converge at order >= 1.9 and the linearised steady "
        "state matches the direct boundary-value solve to 1e-6")


def test_criterion_7_structural_invariants(constructed, at_unity, derivation):
    transform, _, _ = constructed
    unity_T, unity_G, leftovers, _ = at_unity
    for j in (0, 1):
        assert all(e[2] == 0 and e[3] == 0 for e in unity_G[j].terms)
    assert all(e[2] >= 1 for e in unity_G[2].terms)
    assert all(e[3] >= 1 for e in unity_G[3].terms)
    assert leftovers == []
    for vec in (transform.series, unity_T):
        sp = vec.space
        assert (vec[0] + vec[1]).at_zero("s3", "s4") == \
            2 * TruncatedSeries.variable(sp, "s1")
        assert (vec[2] + vec[3]).at_zero("s3", "s4") == \
            2 * TruncatedSeries.variable(sp, "s2")
    # boundary round trip is exact to the truncation order
    con, rev = derivation["constraint"], derivation["reverted"]
    sp = rev.s1_series.space
    rename = {n: n for n in ("s1_0", "s2_0", "s3_0")}
    for value_var, series in (("a0", con.a0_series), ("b0", con.b0_series)):
        back = series.map_vars(sp, rename).substitute(
            {"s1_0": rev.s1_series, "s3_0": rev.s3_series})
        assert (back - TruncatedSeries.variable(sp, value_var)).is_zero()
    _ok(7, "isochron form, fast-variable divisibility, slow-manifold "
        "parametrisation and boundary round trip all hold exactly")


REFERENCE_SCENARIO = """\
[scenario]
name = reference
L = 30
n = 600
t_end = 21
snapshots = 7, 14, 21
rtol = 1e-8
atol = 1e-8
order = 3

[boundary]
a0 = 0.2 * tanhsq
b0 = 0
aL = 0
bL = 0.2 * tanhsq
"""


def test_criterion_8_determinism(tmp_path):
    d1, d2 = tmp_path / "d1", tmp_path / "d2"
    assert cli.main(["derive", "--order", "3", "--out", str(d1)]) == 0
    assert cli.main(["derive", "--order", "3", "--out", str(d2)]) == 0
    for name in sorted(os.listdir(d1)):
        with open(d1 / name, "rb") as f1, open(d2 / name, "rb") as f2:
            assert f1.read() == f2.read(), name
    scen = tmp_path / "reference.cfg"
    scen.write_text(REFERENCE_SCENARIO)
    c1, c2 = tmp_path / "c1", tmp_path / "c2"
    assert cli.main(["compare", "--scenario", str(scen), "--out", str(c1)]) == 0
    assert cli.main(["compare", "--scenario", str(scen), "--out", str(c2)]) == 0
    names = sorted(os.listdir(c1))
    assert names == sorted(os.listdir(c2))
    for name in names:
        with open(c1 / name, "rb") as f1, open(c2 / name, "rb") as f2:
            assert f1.read() == f2.read(), name
    _ok(8, "derive and compare are byte-identical across reruns "
        "(%d files checked)" % (len(os.listdir(d1)) + len(names)))
