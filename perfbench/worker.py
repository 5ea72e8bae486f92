"""One benchmark op in a fresh interpreter.

Run from the root of an msbc checkout with ``src`` on ``PYTHONPATH``:

    python3 perfbench/worker.py --workload derive-o3 --index 0 --out DIR

The worker imports msbc, does the workload's set-up, reports the
``time.perf_counter`` reading at which it was ready, runs the op once (timed
around the op only), checks the op's outputs and prints one JSON object as
its last line of standard output.  With ``--trace 1`` the msbc layers are
wrapped by ``tracing.install`` after set-up, and the spans are written to
``--trace-file`` once the op has ended.  ``--score`` runs, instead of an op,
the untimed check that scores the derived Robin condition at the reference
grid.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import random
import resource
import shutil
import sys
import time

import tracing

SCENARIO = os.path.join("scenarios", "reference.cfg")
GOLDEN_DIR = os.path.join("tests", "golden")
GOLDEN_FILES = ("robin_bc.txt", "transform_eps1.txt", "derivation_report.txt")
SWEEP_RATIO_BOUND = 0.5       # the paper's claim: robin at most half the dirichlet error
BC_MODES = {
    "macro-dirichlet": "dirichlet-heuristic",
    "macro-robin": "robin-derived",
    "macro-robin-linear": "robin-linearised",
}


def failure(op, kind, reason):
    """``kind`` is "error" when msbc reported the failure itself and "wrong"
    when a check of the benchmark found an output to be incorrect."""
    return {"op": op, "kind": kind, "reason": reason}


def sweep_plan(seed, ns=tracing.SOLVE_N, modes=tracing.SOLVE_MODES):
    """The solves of one sweep, in an order drawn from ``seed``."""
    plan = [(n, mode) for n in ns for mode in modes]
    random.Random(seed).shuffle(plan)
    return plan


def solve(scenario, deriv, mode, n):
    from msbc import solvers

    grid = solvers.Grid1D(L=scenario.grid.L, n=n)
    if mode == "micro":
        return solvers.solve_microscale(dataclasses.replace(scenario.config(), grid=grid))
    cfg = dataclasses.replace(scenario.config(BC_MODES[mode]), grid=grid)
    if mode == "macro-dirichlet":
        return solvers.solve_macroscale(cfg)
    bcl, bcr = deriv.bc_left, deriv.bc_right
    if mode == "macro-robin-linear":
        bcl, bcr = bcl.linearized(), bcr.linearized()
    return solvers.solve_macroscale(cfg, bcl, bcr)


def sweep(scenario, deriv, plan):
    """Run every solve of ``plan``, then score each macro run against the
    micro run at the same n.  Returns (Linf_mean errors by (n, mode) and
    snapshot, failures)."""
    from msbc import solvers

    runs, failures = {}, []
    for n, mode in plan:
        try:
            runs[n, mode] = solve(scenario, deriv, mode, n)
        except Exception as ex:  # a failed solve is recorded; the sweep goes on
            failures.append(failure("%s n=%d" % (mode, n), "error",
                                    "%s: %s" % (type(ex).__name__, ex)))
    errors = {}
    for (n, mode), traj in runs.items():
        micro = runs.get((n, "micro"))
        if mode == "micro" or micro is None:
            continue
        errors[n, mode] = {t: solvers.interior_error(micro.at(t), traj.at(t), traj.grid).Linf_mean
                           for t in scenario.snapshots}
    return errors, failures


def sweep_gates(plan, errors, failures, t_end):
    """Every macro run must be scored with finite errors, and at every n the
    derived condition must beat the heuristic one at ``t_end``.  Returns
    (failures added, robin/dirichlet ratio by n)."""
    failed = {f["op"] for f in failures}
    out, ratios = [], {}
    for n, mode in plan:
        op = "%s n=%d" % (mode, n)
        if mode == "micro" or op in failed:
            continue
        if (n, mode) not in errors:
            out.append(failure(op, "error", "no micro run at n=%d to score against" % n))
        elif not all(math.isfinite(v) for v in errors[n, mode].values()):
            out.append(failure(op, "wrong", "non-finite interior error"))
        elif mode == "macro-robin":
            base = errors.get((n, "macro-dirichlet"), {}).get(t_end)
            if not base:
                out.append(failure(op, "error", "no dirichlet run at n=%d to compare" % n))
                continue
            ratios[n] = errors[n, mode][t_end] / base
            if not ratios[n] < SWEEP_RATIO_BOUND:
                out.append(failure(op, "wrong", "robin/dirichlet ratio %.6f at t=%g is not "
                                   "below %g" % (ratios[n], t_end, SWEEP_RATIO_BOUND)))
    return out, ratios


def tree_bytes(path):
    """Total size of the files under path."""
    return sum(os.path.getsize(os.path.join(dirpath, name))
               for dirpath, _, filenames in os.walk(path) for name in filenames)


class Derive:
    """``msbc derive --order 3`` into a fresh directory, checked byte for
    byte against the frozen golden artefacts."""

    ops = 1

    def __init__(self, args):
        from msbc import cli

        self.cli, self.out = cli, args.out

    def run(self):
        return self.cli.main(["derive", "--order", "3", "--out", self.out])

    def check(self, code):
        fails = []
        if code != 0:
            fails.append(failure("derive", "error", "exit code %d" % code))
        for name in GOLDEN_FILES:
            try:
                with open(os.path.join(self.out, name), "rb") as fh:
                    got = fh.read()
            except OSError:
                got = None
            with open(os.path.join(GOLDEN_DIR, name), "rb") as fh:
                if got != fh.read():
                    fails.append(failure("derive", "wrong", "%s differs from %s"
                                         % (name, GOLDEN_DIR)))
        return fails, {"bytes_written": tree_bytes(self.out)}


class Sweep:
    """Every solver mode at every n of the refinement study, in seed order."""

    ops = len(tracing.SOLVE_N) * len(tracing.SOLVE_MODES)

    def __init__(self, args, ns=tracing.SOLVE_N, modes=tracing.SOLVE_MODES):
        from msbc import cli

        self.scenario = cli.parse_scenario(SCENARIO)
        self.deriv = cli.Derivation(order=self.scenario.order, data=self.scenario.data)
        self.plan = sweep_plan(args.seed, ns, modes)
        self.ops = len(self.plan)

    def run(self):
        return sweep(self.scenario, self.deriv, self.plan)

    def check(self, outcome):
        errors, fails = outcome
        added, ratios = sweep_gates(self.plan, errors, fails, self.scenario.t_end)
        return fails + added, {"robin_ratio": ratios.get(self.scenario.grid.n),
                               "ratios": {str(n): r for n, r in sorted(ratios.items())}}


class Score(Sweep):
    """The derived condition scored at the reference grid: the robin_ratio
    of a workload whose op runs no solver."""

    def __init__(self, args):
        from msbc import cli

        n = cli.parse_scenario(SCENARIO).grid.n
        super().__init__(args, ns=(n,), modes=("micro", "macro-dirichlet", "macro-robin"))


WORKLOADS = {"derive-o3": Derive, "simulate-sweep": Sweep}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file")
    parser.add_argument("--score", action="store_true")
    args = parser.parse_args(argv)

    import msbc  # noqa: F401  (set-up includes the package import)
    import numpy
    import scipy

    work = Score(args) if args.score else WORKLOADS[args.workload](args)
    ready = time.perf_counter()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(op_id=args.index)
        tracing.install(tracer)
    start = time.perf_counter()
    outcome = work.run()
    end = time.perf_counter()
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
    try:
        fails, extra = work.check(outcome)
    finally:
        shutil.rmtree(args.out, ignore_errors=True)
    result = {
        "ready": ready, "op_s": end - start, "attempted": work.ops,
        "failures": fails, "maxrss_kb": maxrss_kb,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    result.update(extra)
    if tracer is not None:
        layers = tracing.layer_metrics(tracer.spans, start, end)
        layers["cli.bytes_written"] = extra.get("bytes_written", 0)
        result["layers"] = layers
        if args.trace_file:
            tracer.write(args.trace_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
