"""msbc benchmark: time msbc ops end to end, or trace them layer by layer.

Run from the root of an msbc checkout:

    python3 perfbench/run.py --workload derive-o3 --seed 1 --seconds 60 --trace 0

Every op runs in a fresh interpreter (``worker.py``), one process at a time,
with BLAS threads pinned to 1, so each op pays what a user's command pays
and nothing one op memoises can reach the next.  New ops start until the
next one would end after ``--seconds``; at least three run.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` traced and untraced ops alternate and
the JSON object holds the per-layer metrics.  The lines before it give the
same figures for people, with provenance and every failure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import tracing
from worker import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
MIN_PROCESSES = 3
RUN_LIMIT_S = 170       # the whole run, set-up and checks included, stays below this
BLAS_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1"}
END_TO_END = {
    "op_mean_s": "s", "setup_s": "s",
    "ok_frac": "frac", "peak_rss_mb": "MB", "robin_ratio": "1",
}
REQUIRED = (os.path.join("src", "msbc", "__init__.py"),
            os.path.join("scenarios", "reference.cfg"),
            os.path.join("tests", "golden", "robin_bc.txt"))


class BenchError(RuntimeError):
    pass


def tail(samples):
    """The highest percentile with at least ten samples beyond it, never
    below the median.  Returns (value, percentile, samples beyond).

    With k samples the rule picks the (k-10)-th smallest; for k <= 22 that
    is not above the median, so the order statistic at the median (the
    upper one of the middle pair for even k) is reported.
    """
    xs = sorted(samples)
    k = len(xs)
    i = max(k - 11, k // 2)
    return xs[i], 100.0 * (i + 1) / k, k - 1 - i


def worker_env(root):
    env = dict(os.environ)
    env.update(BLAS_PIN)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def spawn(workload, seed, index, traced, out_base, deadline, score=False):
    """Run one worker; returns its result, with set-up and process wall time."""
    out = os.path.join(out_base, "op%d" % index)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--index", str(index), "--out", out,
           "--trace", "1" if traced else "0"]
    if traced:
        cmd += ["--trace-file", os.path.join(out_base, "trace-op%d.jsonl.gz" % index)]
    if score:
        cmd.append("--score")
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=worker_env(os.getcwd()), stdout=subprocess.PIPE,
                              text=True, timeout=max(5.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        return {"crashed": "timed out", "traced": traced, "wall_s": time.perf_counter() - spawned}
    wall = time.perf_counter() - spawned
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict):
        return {"crashed": "exit code %d, no result" % proc.returncode, "traced": traced,
                "wall_s": wall}
    result.update(setup_s=result["ready"] - spawned, wall_s=wall, traced=traced)
    return result


def summarize(workload, results):
    """Counts of one run: attempted and failed ops, and whether every output
    checked was correct.  A crashed worker fails all of its ops."""
    per_process = WORKLOADS[workload].ops
    attempted = failed = 0
    correct = True
    failures = []
    for k, res in enumerate(results):
        if "crashed" in res:
            attempted += per_process
            failed += per_process
            correct = False
            failures.append({"op": "process %d" % k, "kind": "crash", "reason": res["crashed"]})
            continue
        fails = res["failures"]
        attempted += res["attempted"]
        failed += len({f["op"] for f in fails})
        correct = correct and not any(f["kind"] == "wrong" for f in fails)
        failures += [dict(f, process=k) for f in fails]
    return {"attempted": attempted, "failed": failed, "correct": correct,
            "failures": failures}


def end_to_end(results, counts, ratio):
    """The end-to-end metrics, with notes for people.  The note on
    ``op_mean_s`` gives the median and tail op times, which stay out of the
    result line: on a shared host they spread more from run to run than the
    mean does (README.md, Steadiness)."""
    ok = [r for r in results if "crashed" not in r and not r["traced"]]
    if not ok:
        raise BenchError("no op process produced a result")
    ops = [r["op_s"] for r in ok]
    value, pct, beyond = tail(ops)
    metrics = {
        "op_mean_s": statistics.fmean(ops),
        "setup_s": statistics.median(r["setup_s"] for r in ok),
        "ok_frac": 1.0 - counts["failed"] / counts["attempted"],
        "peak_rss_mb": max(r["maxrss_kb"] for r in ok) / 1024.0,
        "robin_ratio": ratio,
    }
    notes = {"op_mean_s": "mean of %d ops; op_p50_s %.6g s, op_tail_s %.6g s = p%.1f, "
                          "%d beyond" % (len(ops), statistics.median(ops), value, pct, beyond),
             "ok_frac": "failed_frac %.6f = %d failed of %d attempted"
                        % (counts["failed"] / counts["attempted"], counts["failed"],
                           counts["attempted"])}
    return metrics, notes


def per_layer(results):
    """Means over the traced ops, so the layer self times and the
    unattributed remainder still add up to ``trace.op_s``."""
    traced = [r["layers"] for r in results if r["traced"] and "layers" in r]
    untraced = [r["op_s"] for r in results if not r["traced"] and "op_s" in r]
    if not traced or not untraced:
        raise BenchError("a traced run needs traced and untraced ops")
    metrics = {name: statistics.fmean(t[name] for t in traced)
               for name in tracing.metric_names()}
    metrics["trace.overhead_s"] = (statistics.median(t["trace.op_s"] for t in traced)
                                   - statistics.median(untraced))
    return metrics, {}


def run(workload, seed, seconds, traced):
    root = os.getcwd()
    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(root, p))]
    if missing:
        raise BenchError("not an msbc checkout, missing: %s" % ", ".join(missing))
    out_base = os.path.join(root, OUT_DIR, "%s-seed%d" % (workload, seed))
    shutil.rmtree(out_base, ignore_errors=True)
    os.makedirs(out_base)
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    results, walls = [], []
    while len(results) < MIN_PROCESSES or (
            time.perf_counter() - start + statistics.median(walls) <= seconds):
        k = len(results)
        res = spawn(workload, seed, k, traced and k % 2 == 1, out_base, deadline)
        results.append(res)
        walls.append(res["wall_s"])
        if res.get("crashed") == "timed out":
            break
    counts = summarize(workload, results)
    if traced:
        metrics, notes = per_layer(results)
    else:
        ratio_source = results
        if workload == "derive-o3":
            check = spawn(workload, seed, len(results), False, out_base, deadline, score=True)
            counts["correct"] = counts["correct"] and "crashed" not in check \
                and not check["failures"]
            counts["failures"] += [dict(f, process="score") for f in check.get("failures", [])]
            ratio_source = [check]
        ratios = [r["robin_ratio"] for r in ratio_source if r.get("robin_ratio") is not None]
        if not ratios:
            raise BenchError("no op produced a robin/dirichlet ratio")
        metrics, notes = end_to_end(results, counts, statistics.median(ratios))
    return results, counts, metrics, notes


def report(workload, seed, traced, results, counts, metrics, notes):
    first = next((r for r in results if "versions" in r), {"versions": {}})
    versions = " ".join("%s %s" % kv for kv in sorted(first["versions"].items()))
    print("workload %s  seed %d  trace %d  processes %d  %s  nproc %d  %s"
          % (workload, seed, traced, len(results), versions, os.cpu_count() or 0,
             " ".join("%s=%s" % kv for kv in sorted(BLAS_PIN.items()))))
    for name, value in metrics.items():
        unit = END_TO_END.get(name) or tracing.metric_unit(name)
        note = notes.get(name)
        print("  %-40s %.6g %s%s" % (name, value, unit, "  (%s)" % note if note else ""))
    for traced_ops in (False, True):
        ops = [r for r in results if "op_s" in r and r["traced"] == traced_ops]
        if ops:
            print("  %s op_s: %s  setup_s: %s" % (
                "traced" if traced_ops else "untraced",
                " ".join("%.3f" % r["op_s"] for r in ops),
                " ".join("%.3f" % r["setup_s"] for r in ops)))
    for res in results:
        if "ratios" in res:
            print("  robin/dirichlet ratio by n: %s" % ", ".join(
                "n=%s %.6f" % kv for kv in res["ratios"].items()))
            break
    for f in counts["failures"]:
        print("  failure [%s] process %s, %s: %s" % (f["kind"], f.get("process", "-"),
                                                     f["op"], f["reason"]))
    units = {name: END_TO_END.get(name) or tracing.metric_unit(name) for name in metrics}
    print(json.dumps({
        "correct": counts["correct"], "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as ex:
        print("perfbench: %s" % ex, file=sys.stderr)
        return 2
    report(args.workload, args.seed, args.trace, *outcome)
    return 0


if __name__ == "__main__":
    sys.exit(main())
