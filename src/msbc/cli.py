"""Command-line pipeline: derive the boundary conditions, run simulations,
and compare the macroscale closures against the microscale reference.

Verbs:
  derive   --order N --out DIR
  simulate --scenario FILE --mode {micro|macro-dirichlet|macro-robin|macro-robin-linear} --out DIR
  compare  --scenario FILE --out DIR [--window LO HI]

Only the scenario commands (``simulate``, ``compare``, and anything that calls
``parse_scenario``) import ``msbc.solvers``, which takes its LAPACK from
numpy's bundled OpenBLAS (from scipy where numpy bundles none); ``derive`` is
exact algebra and never loads the solver stack.

Scenario files are flat ``key = value`` text with bracketed section headers;
see ``parse_scenario``.  Every command writes deterministic output: rerunning
with identical inputs produces byte-identical files.  Exit codes: 0 success,
1 validation failure, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import __version__, boundary, normalform, system
from .boundary import BoundaryData, SolverError

MODES = ("micro", "macro-dirichlet", "macro-robin", "macro-robin-linear")
_MODE_BC = {
    "macro-dirichlet": "dirichlet-heuristic",
    "macro-robin": "robin-derived",
    "macro-robin-linear": "robin-linearised",
}


_SCENARIO_KEYS = {
    "scenario": ("name", "l", "n", "t_end", "snapshots", "rtol", "atol", "order"),
    "boundary": ("a0", "b0", "al", "bl"),
}


class ScenarioError(ValueError):
    pass


def _tanhsq(t):
    th = math.tanh(t)
    return th * th


def _parse_boundary_value(text):
    """``<number>``, ``tanhsq`` or ``<number> * tanhsq``."""
    text = text.strip()
    if "*" in text:
        lhs, rhs = (part.strip() for part in text.split("*", 1))
        if rhs != "tanhsq":
            raise ScenarioError("unsupported boundary expression %r" % text)
        amp = float(lhs)
        if not math.isfinite(amp):
            raise ScenarioError("boundary amplitude must be finite, got %r" % lhs)
        fn = lambda t, _a=amp: _a * _tanhsq(t)
        fn.describe = "%s*tanhsq" % repr(amp)
        return fn
    if text == "tanhsq":
        fn = lambda t: _tanhsq(t)
        fn.describe = "tanhsq"
        return fn
    return float(text)


class Scenario:
    """Parsed scenario configuration."""

    def __init__(self, name, grid, t_end, snapshots, data, rtol, atol, order):
        self.name = name
        self.grid = grid
        self.t_end = t_end
        self.snapshots = snapshots
        self.data = data
        self.rtol = rtol
        self.atol = atol
        self.order = order

    def config(self, bc_mode="dirichlet-heuristic"):
        from .solvers import SolveConfig

        return SolveConfig(grid=self.grid, t_end=self.t_end, data=self.data,
                           snapshots=self.snapshots, bc_mode=bc_mode,
                           rtol=self.rtol, atol=self.atol)

    def echo(self):
        lines = [
            "[scenario]",
            "name = %s" % self.name,
            "L = %s" % repr(self.grid.L),
            "n = %d" % self.grid.n,
            "t_end = %s" % repr(self.t_end),
            "snapshots = %s" % ", ".join(repr(s) for s in self.snapshots),
            "rtol = %s" % repr(self.rtol),
            "atol = %s" % repr(self.atol),
            "order = %d" % self.order,
            "[boundary]",
            self.data.describe(),
        ]
        return "\n".join(lines) + "\n"


def parse_scenario(path):
    """Read a scenario file: only the sections and keys of ``_SCENARIO_KEYS``
    (case-insensitive), each key at most once."""
    from . import solvers

    sections = {}
    current = None
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                where = "%s:%d" % (path, lineno)
                if line.startswith("[") and line.endswith("]"):
                    current = line[1:-1].strip().lower()
                    if current not in _SCENARIO_KEYS:
                        raise ScenarioError("%s: unknown section [%s]" % (where, current))
                    sections.setdefault(current, {})
                    continue
                if "=" not in line or current is None:
                    raise ScenarioError("%s: expected 'key = value' inside a "
                                        "section" % where)
                key, val = (part.strip() for part in line.split("=", 1))
                key = key.lower()
                if key not in _SCENARIO_KEYS[current]:
                    raise ScenarioError("%s: unknown key %r in [%s]" % (where, key, current))
                if key in sections[current]:
                    raise ScenarioError("%s: key %r repeated in [%s]" % (where, key, current))
                sections[current][key] = val
    except OSError as ex:
        raise ScenarioError("cannot read scenario file: %s" % ex) from None

    sc = sections.get("scenario", {})
    bd = sections.get("boundary", {})
    try:
        name = sc.get("name", os.path.splitext(os.path.basename(path))[0])
        if name in ("", ".", "..") or os.path.basename(name) != name:
            raise ValueError("name %r must be a plain file name" % name)
        grid = solvers.Grid1D(L=float(sc.get("l", 30.0)), n=int(sc.get("n", 600)))
        t_end = float(sc.get("t_end", 21.0))
        snaps = tuple(float(s) for s in sc.get("snapshots", repr(t_end)).split(","))
        rtol = float(sc.get("rtol", 1e-8))
        atol = float(sc.get("atol", 1e-8))
        order = int(sc.get("order", 3))
        normalform.check_order(order)
        data = BoundaryData(
            a0=_parse_boundary_value(bd.get("a0", "0")),
            b0=_parse_boundary_value(bd.get("b0", "0")),
            aL=_parse_boundary_value(bd.get("al", "0")),
            bL=_parse_boundary_value(bd.get("bl", "0")),
        )
        # the solver's own checks (finite t_end and tolerances, snapshot
        # times in [0, t_end]), so a bad number exits 1 before any
        # construction or solve
        cfg = solvers.SolveConfig(grid=grid, t_end=t_end, data=data,
                                  snapshots=snaps, rtol=rtol, atol=atol)
        # output files are named by "%g" of the time; two equal labels
        # would write one file over the other
        for prev, s in zip(cfg.snapshots, cfg.snapshots[1:]):
            if "%g" % prev == "%g" % s:
                raise ValueError("snapshot times %r and %r share the file label t%g"
                                 % (prev, s, s))
    except (ValueError, TypeError) as ex:
        raise ScenarioError("bad scenario %s: %s" % (path, ex)) from None
    return Scenario(name, grid, t_end, cfg.snapshots, data, rtol, atol, order)


class Derivation:
    """The parameter-1 normal form of the unembedded system and the boundary
    conditions derived from it; reused by the simulation commands so the
    boundary conditions always flow from the live pipeline."""

    def __init__(self, order=3, data=None):
        self.order = order
        unity = normalform.construct_at_unity(system.build_original(), order)
        self.transform, self.evolution, self.leftovers, self.retained = unity
        self.eigen = unity.eigen
        (self.constraint, self.reverted,
         self.bc_left, self.bc_right) = boundary.derive_boundary_conditions(
            self.transform, data or BoundaryData())


def _cross_validate(deriv):
    """Build embedding A's graded view and check the derivation against both
    embeddings; returns (A's resonance report, the cross-check)."""
    transform, evolution, report = normalform.construct(
        system.build_embedding("A"), order=deriv.order)
    cross = normalform.cross_validate_embeddings(
        transform, evolution, (deriv.transform, deriv.evolution))
    return report, cross


def _cross_failure(cross):
    """What fails an embedding cross-check, as ``derive`` and ``compare`` both
    name it: the discrepancy, and the resummation tail at B's last cap."""
    return ("embedding cross-validation failed: discrepancy %.3e, resummation tail "
            "estimate %.3e, at resummation cap %d"
            % (cross.max_discrepancy, cross.tail_estimate, cross.eps_order))


def _series_block(series_vector, labels):
    lines = []
    for label, comp in zip(labels, series_vector):
        lines.append("%s = %s" % (label, comp.pretty(sig=2)))
    return lines


def derivation_report(deriv: Derivation, report, cross):
    es_orig = deriv.eigen
    lines = []
    push = lines.append
    push("macroscale boundary-condition derivation report")
    push("=" * 48)
    push("truncation order: %d    embedding resummation cap: %d"
         % (deriv.order, cross.eps_order))
    push("")
    push("[linear analysis]")
    push("unembedded matrix eigenvalues: %s"
         % ", ".join(str(v) for v in es_orig.eigenvalues))
    push("diagonalisable: %s" % es_orig.diagonalizable)
    for lam, vec in es_orig.generalized:
        push("generalised direction at eigenvalue %s: (%s)"
             % (lam, ", ".join(str(v) for v in vec)))
    push("note: the stable/unstable spatial rates are +-%s by direct"
         % es_orig.eigenvalues[-1])
    push("computation of the characteristic polynomial; any larger quoted")
    push("rate for this linearisation does not match this matrix.")
    push("")
    push("[coordinate transform at parameter 1]  (2 s.f.; exact values in "
         "transform_eps1.txt)")
    lines.extend(_series_block(deriv.transform, ("a ", "b ", "a'", "b'")))
    push("")
    push("[evolution at parameter 1]")
    lines.extend(_series_block(deriv.evolution,
                               ("ds1/dx", "ds2/dx", "ds3/dx", "ds4/dx")))
    push("")
    push("[separated structure]")
    push("graded resonant terms kept: %d, removed into the transform: %d"
         % (len(report.kept()), len(report.removed())))
    push("slow-equation fast-variable terms at parameter 1: %s"
         % (deriv.leftovers or "none"))
    push("fast-equation cross terms retained at parameter 1 (cubic, divisible "
         "by the own variable): %s"
         % (", ".join("G%d %s %s" % (c, m, v) for c, m, v in deriv.retained)
            or "none"))
    push("the mean-field amplitude is identified with s1 on the slow manifold")
    push("(they differ off the manifold, where s1 parametrises the fibre).")
    push("")
    push("[boundary constraint at x=0]")
    push("a0 = %s" % deriv.constraint.a0_series.pretty(sig=2))
    push("b0 = %s" % deriv.constraint.b0_series.pretty(sig=2))
    push("")
    push("[reverted boundary relation]")
    push("s1_0 = %s" % deriv.reverted.s1_series.pretty(sig=2))
    push("s3_0 = %s" % deriv.reverted.s3_series.pretty(sig=2))
    push("")
    push("[robin boundary conditions]  (C - P*Cx - Q*Cx^2 = R)")
    push(deriv.bc_left.serialize())
    push(deriv.bc_right.serialize())
    push("linearised: %s" % deriv.bc_left.linearized().serialize())
    push("")
    push("[embedding cross-validation]")
    push("max coefficient discrepancy: %.6e" % cross.max_discrepancy)
    push("resummation agreement gap:   %.6e" % cross.resummation_gap)
    push("resummation tail estimate: %.6e" % cross.tail_estimate)
    push("tolerance: %.1e    verdict: %s"
         % (cross.tolerance, "PASS" if cross.identical else "FAIL"))
    push("")
    push("tool version: %s" % __version__)
    return "\n".join(lines) + "\n"


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def cmd_derive(order, out_dir):
    normalform.check_order(order)
    os.makedirs(out_dir, exist_ok=True)
    deriv = Derivation(order=order)
    report, cross = _cross_validate(deriv)

    _write(os.path.join(out_dir, "derivation_report.txt"),
           derivation_report(deriv, report, cross))
    _write(os.path.join(out_dir, "resonance_table.txt"), report.to_text())
    con, rev = deriv.constraint, deriv.reverted
    series_files = {
        "transform_eps1.txt": [("component " + label, comp) for label, comp
                               in zip(("a", "b", "ap", "bp"), deriv.transform)],
        "evolution_eps1.txt": [("component ds%d/dx" % (j + 1), comp)
                               for j, comp in enumerate(deriv.evolution)],
        "boundary_constraint.txt": [("a0", con.a0_series), ("b0", con.b0_series)],
        "reverted_boundary.txt": [("s1_0", rev.s1_series), ("s3_0", rev.s3_series)],
    }
    for name, blocks in series_files.items():
        # one block per series: its label line, then its terms
        lines = [line for label, series in blocks for line in (label, *series.to_lines())]
        _write(os.path.join(out_dir, name), "\n".join(lines) + "\n")
    _write(os.path.join(out_dir, "robin_bc.txt"),
           deriv.bc_left.serialize() + "\n" + deriv.bc_right.serialize() + "\n"
           + "linearised " + deriv.bc_left.linearized().serialize() + "\n")
    if not cross.identical:
        raise SolverError(_cross_failure(cross))
    return 0


def _fmt(v):
    return "%.12g" % v


def _write_csvs(traj, scenario_name, mode, out_dir):
    paths = []
    xs = traj.grid.nodes()
    for st in traj.states:
        fname = "%s_%s_t%g.csv" % (scenario_name, mode, st.t)
        path = os.path.join(out_dir, fname)
        rows = ["t,x,field,value"]
        if traj.kind == "micro":
            fields = (("a", st.a), ("b", st.b))
        else:
            fields = (("C", st.C),)
        for name, arr in fields:
            for x, v in zip(xs, arr):
                rows.append("%s,%s,%s,%s" % (_fmt(st.t), _fmt(x), name, _fmt(v)))
        _write(path, "\n".join(rows) + "\n")
        paths.append(path)
    return paths


def _run_mode(scenario, mode, deriv=None):
    from . import solvers

    if mode == "micro":
        return solvers.solve_microscale(scenario.config())
    bc_mode = _MODE_BC[mode]
    cfg = scenario.config(bc_mode)
    if bc_mode == "dirichlet-heuristic":
        return solvers.solve_macroscale(cfg)
    if deriv is None:
        deriv = Derivation(order=scenario.order, data=scenario.data)
    return solvers.solve_macroscale(cfg, deriv.bc_left, deriv.bc_right)


def _manifest(scenario, mode):
    return ("run manifest\n============\nmode = %s\ntool version = %s\n\n%s"
            % (mode, __version__, scenario.echo()))


def cmd_simulate(scenario_file, mode, out_dir):
    if mode not in MODES:
        raise ScenarioError("unknown mode %r" % mode)
    scenario = parse_scenario(scenario_file)
    os.makedirs(out_dir, exist_ok=True)
    traj = _run_mode(scenario, mode)
    _write_csvs(traj, scenario.name, mode, out_dir)
    _write(os.path.join(out_dir, "%s_%s_manifest.txt" % (scenario.name, mode)),
           _manifest(scenario, mode))
    return 0


def cmd_compare(scenario_file, out_dir, window=None):
    from . import solvers

    scenario = parse_scenario(scenario_file)
    window = solvers.DEFAULT_WINDOW if window is None else tuple(window)
    try:
        solvers.interior_mask(scenario.grid, window)
    except ValueError as ex:
        raise ScenarioError(str(ex)) from None
    os.makedirs(out_dir, exist_ok=True)
    deriv = Derivation(order=scenario.order, data=scenario.data)
    _, cross = _cross_validate(deriv)

    micro = _run_mode(scenario, "micro")
    runs = {}
    for mode in ("macro-dirichlet", "macro-robin", "macro-robin-linear"):
        runs[mode] = _run_mode(scenario, mode, deriv)
    grid = scenario.grid

    amp = max(abs(scenario.data.a0(scenario.t_end)), abs(scenario.data.b0(scenario.t_end)),
              abs(scenario.data.aL(scenario.t_end)), abs(scenario.data.bL(scenario.t_end)))
    lines = []
    push = lines.append
    push("interior-error comparison over window [%g, %g]" % window)
    push("scenario: %s    grid n=%d    rtol=%g atol=%g"
         % (scenario.name, grid.n, scenario.rtol, scenario.atol))
    push("derivation: order %d, embedding cross-check %s (discrepancy %.3e, "
         "resummation tail estimate %.3e)"
         % (scenario.order, "PASS" if cross.identical else "FAIL",
            cross.max_discrepancy, cross.tail_estimate))
    if amp > 0.2 + 1e-12:
        push("warning: boundary amplitude %.3g exceeds the validated range 0.2"
             % amp)
    push("")
    header = "%8s %20s %14s %14s %14s" % ("t", "mode", "Linf_mean", "L2_mean",
                                          "Linf_fields")
    push(header)
    for t in scenario.snapshots:
        ms = micro.at(t)
        metrics = {}
        for mode, traj in runs.items():
            em = solvers.interior_error(ms, traj.at(t), grid, window)
            metrics[mode] = em
            push("%8g %20s %14.6e %14.6e %14.6e"
                 % (t, mode, em.Linf_mean, em.L2_mean, em.Linf_fields))
        dir_inf = metrics["macro-dirichlet"].Linf_mean
        if dir_inf == 0.0:
            push("%8g %20s %14s" % (t, "ratio robin/dirichlet", "n/a"))
        else:
            r = metrics["macro-robin"].Linf_mean / dir_inf
            push("%8g %20s %14.6f" % (t, "ratio robin/dirichlet", r))
    push("")
    push("tool version: %s" % __version__)
    _write(os.path.join(out_dir, "%s_comparison.txt" % scenario.name),
           "\n".join(lines) + "\n")

    xs = grid.nodes()
    overlay_files = []
    for t in scenario.snapshots:
        ms = micro.at(t)
        cols = [xs, ms.a, ms.b, ms.mean(),
                runs["macro-dirichlet"].at(t).C,
                runs["macro-robin"].at(t).C,
                runs["macro-robin-linear"].at(t).C]
        rows = ["# x a b mean C_dirichlet C_robin C_robin_linear"]
        for k in range(len(xs)):
            rows.append(" ".join(_fmt(col[k]) for col in cols))
        fname = "%s_t%g_overlay.dat" % (scenario.name, t)
        _write(os.path.join(out_dir, fname), "\n".join(rows) + "\n")
        overlay_files.append(fname)

    gp = ["set key outside", "set xlabel 'x'", "set ylabel 'temperature'"]
    for fname, t in zip(overlay_files, scenario.snapshots):
        gp.append("set title 'snapshot t=%g'" % t)
        gp.append("plot '%s' u 1:2 w l t 'a', '%s' u 1:3 w l t 'b', "
                  "'%s' u 1:5 w l dt 2 t 'mean, dirichlet', "
                  "'%s' u 1:6 w l dt 4 t 'mean, derived robin'"
                  % (fname, fname, fname, fname))
        gp.append("pause -1")
    _write(os.path.join(out_dir, "%s_plots.gp" % scenario.name), "\n".join(gp) + "\n")

    for mode, traj in runs.items():
        _write_csvs(traj, scenario.name, mode, out_dir)
    _write_csvs(micro, scenario.name, "micro", out_dir)
    if not cross.identical:
        raise SolverError(_cross_failure(cross))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="msbc",
        description="derive and verify macroscale boundary conditions for the "
                    "two-stream exchanger")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive", help="run the derivation pipeline")
    p.add_argument("--order", type=int, default=3)
    p.add_argument("--out", required=True)

    p = sub.add_parser("simulate", help="run one solver on a scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--mode", required=True, choices=MODES)
    p.add_argument("--out", required=True)

    p = sub.add_parser("compare", help="micro vs macro closures")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--window", type=float, nargs=2)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return 0 if ex.code in (0, None) else 1
    try:
        if args.command == "derive":
            return cmd_derive(args.order, args.out)
        if args.command == "simulate":
            return cmd_simulate(args.scenario, args.mode, args.out)
        if args.command == "compare":
            return cmd_compare(args.scenario, args.out, args.window)
    except (ScenarioError, ValueError, OSError) as ex:
        print("error: %s" % ex, file=sys.stderr)
        return 1
    except SolverError as ex:
        print("numerical failure: %s" % ex, file=sys.stderr)
        return 2
    return 1


if __name__ == "__main__":
    sys.exit(main())
