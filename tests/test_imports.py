"""The derivation is exact algebra and must not pay for the solver stack:
``msbc derive`` never imports ``msbc.solvers``, while the scenario commands
load it as soon as they parse a scenario.  The solvers call LAPACK in the
OpenBLAS that numpy bundles, so with that library present no command loads
any scipy module; without it they load ``scipy.linalg`` for its LAPACK, and
still never ``scipy.integrate`` or ``scipy.sparse``."""

import json
import os
import subprocess
import sys

import pytest

import msbc
from msbc import solvers

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOLVER_STACK = ("msbc.solvers",)
NEVER_LOADED = ("scipy.integrate", "scipy.sparse")
SOLVER_NAMES = ("Grid1D", "SolveConfig", "SolverError", "interior_error",
                "reconstruct_micro", "solve_macroscale", "solve_microscale")

PRELUDE = """\
import contextlib, io, json, sys
import msbc
from msbc import cli

def stack():
    return [m for m in %r if m in sys.modules]

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
""" % (SOLVER_STACK,)


def _assert_scipy_use(source, loaded):
    """The scipy modules a process loaded, given the LAPACK source its
    solvers reported: none with numpy's bundled OpenBLAS; with the
    cython_lapack fallback, ``scipy.linalg`` and never ``NEVER_LOADED``."""
    if source == "openblas":
        assert loaded == []
    else:
        assert source == "cython_lapack"
        assert "scipy.linalg.cython_lapack" in loaded
        assert not set(NEVER_LOADED) & set(loaded)


def _python(*args):
    """Run a fresh interpreter at the repository root with ``src`` first on
    its path."""
    src = os.path.join(ROOT, "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


def _run(body):
    """Run PRELUDE + ``body`` in a fresh interpreter; returns the JSON value
    of its last line of output."""
    proc = _python("-c", PRELUDE + body)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_derive_never_loads_the_solver_stack(tmp_path):
    code, after_derive, after_parse, source, scipy = _run("""
code = cli.main(["derive", "--order", "2", "--out", %r])
after_derive = stack() + scipy_loaded()
cli.parse_scenario("scenarios/reference.cfg")
print(json.dumps([code, after_derive, stack(), sys.modules["msbc.solvers"]._LAPACK.source,
                  scipy_loaded()]))
""" % str(tmp_path))
    assert code == 0
    assert after_derive == []
    # parsing a scenario builds a Grid1D: that is where the cost lands
    assert after_parse == list(SOLVER_STACK)
    _assert_scipy_use(source, scipy)


def test_simulate_never_loads_scipy_integrate_or_sparse(tmp_path):
    scenario = tmp_path / "small.cfg"
    scenario.write_text("[scenario]\nname = small\nL = 30\nn = 32\nt_end = 2\n"
                        "snapshots = 2\norder = 3\n\n[boundary]\na0 = 0.2 * tanhsq\n"
                        "b0 = 0\naL = 0\nbL = 0.2 * tanhsq\n")
    codes, loaded, source, scipy = _run("""
codes = [cli.main(["simulate", "--scenario", %r, "--mode", mode, "--out", %r])
         for mode in ("micro", "macro-robin")]
print(json.dumps([codes, stack(), sys.modules["msbc.solvers"]._LAPACK.source,
                  scipy_loaded()]))
""" % (str(scenario), str(tmp_path / "out")))
    assert codes == [0, 0]
    assert loaded == list(SOLVER_STACK)
    _assert_scipy_use(source, scipy)
    assert source == solvers._LAPACK.source


def test_failed_cross_check_exits_2_without_the_solver_stack(tmp_path):
    code, err, loaded = _run("""
err = io.StringIO()
with contextlib.redirect_stderr(err):
    code = cli.main(["derive", "--order", "3", "--eps-order", "0", "--out", %r])
print(json.dumps([code, err.getvalue(), stack()]))
""" % str(tmp_path))
    assert code == 2
    assert "discrepancy 5.654e+00" in err
    assert loaded == []


def test_solver_names_resolve_lazily_to_the_solvers_module():
    for name in SOLVER_NAMES:
        assert getattr(msbc, name) is getattr(solvers, name)
    from msbc import Grid1D
    assert Grid1D is solvers.Grid1D
    with pytest.raises(AttributeError, match="no_such_name"):
        msbc.no_such_name


def test_python_dash_m_runs_the_command_without_solvers():
    proc = _python("-X", "importtime", "-m", "msbc", "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: msbc")
    imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert "msbc.cli" in imported
    assert "msbc.solvers" not in imported
