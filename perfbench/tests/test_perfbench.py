"""Fast checks of the benchmark's own logic on synthetic data.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import os
import types

import pytest

import run
import tracing
import worker

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def spans_from(rows):
    """rows: (name, start, end, parent index or None)."""
    return [tracing.Span(name, lo, hi, parent) for name, lo, hi, parent in rows]


def test_self_time_subtracts_nested_children():
    spans = spans_from([
        ("cli.main", 0.0, 10.0, None),
        ("normalform.construct", 1.0, 4.0, 0),
        ("linalg.eigen", 2.0, 3.0, 1),
        ("series.substitute", 5.0, 9.0, 0),
        ("solvers.interior_error", 10.5, 11.0, None),
    ])
    own, unattributed = tracing.self_times(spans, 0.0, 12.0)
    assert own == pytest.approx([3.0, 2.0, 1.0, 4.0, 0.5])
    assert unattributed == pytest.approx(1.5)


def test_self_time_counts_overlapping_children_once():
    spans = spans_from([
        ("solvers.solve", 0.0, 10.0, None),
        ("boundary.closure", 1.0, 5.0, 0),
        ("boundary.closure", 3.0, 7.0, 0),
        ("boundary.closure", 9.0, 12.0, 0),   # clipped to the parent
    ])
    own, unattributed = tracing.self_times(spans, 0.0, 10.0)
    assert own[0] == pytest.approx(10.0 - 6.0 - 1.0)
    assert unattributed == pytest.approx(0.0)


def test_layer_self_times_and_remainder_add_up_to_the_op():
    spans = spans_from([
        ("cli.main", 0.5, 10.0, None),
        ("normalform.construct", 1.0, 4.0, 0),
        ("linalg.eigen", 2.0, 3.0, 1),
        ("series.substitute", 5.0, 9.0, 0),
        ("series.substitute", 6.0, 7.0, 3),
    ])
    spans[1].attrs.update(variant="A", terms=7, kept=2, removed=5)
    m = tracing.layer_metrics(spans, 0.0, 11.0)
    layers = sum(m["%s.self_s" % layer] for layer in tracing.LAYERS)
    assert layers + m["trace.unattributed_s"] == pytest.approx(m["trace.op_s"])
    assert m["trace.unattributed_s"] == pytest.approx(1.5)
    assert m["series.substitute_s"] == pytest.approx(4.0)   # outermost span only
    assert m["series.substitute_calls"] == 2
    assert m["normalform.construct_A_s"] == pytest.approx(3.0)
    assert m["normalform.construct_A_calls"] == 1
    assert m["normalform.self_s"] == pytest.approx(2.0)
    assert m["solvers.micro.n600.wall_s"] == 0
    assert set(m) == set(tracing.metric_names())


def test_wrap_passes_through_and_records_nesting_and_errors():
    ns = types.SimpleNamespace()
    ns.inner = lambda x, scale=1: x * scale
    ns.outer = lambda x: ns.inner(x, scale=3) + 1

    def boom():
        raise KeyError("k")

    ns.boom = boom
    originals = (ns.inner, ns.outer, ns.boom)
    tracer = tracing.Tracer(op_id=4)
    tracer.wrap(ns, "inner", "series.inner")
    tracer.wrap(ns, "outer", "cli.outer",
                note=lambda attrs, args, kwargs, result: attrs.update(arg=args[0], result=result))
    tracer.wrap(ns, "boom", "cli.boom")
    assert ns.outer(2) == 7
    with pytest.raises(KeyError):
        ns.boom()
    spans = tracer.spans
    assert [s.name for s in spans] == ["cli.outer", "series.inner", "cli.boom"]
    assert [s.parent for s in spans] == [None, 0, None]
    assert all(s.op == 4 and s.start <= s.end for s in spans)
    assert spans[0].attrs == {"arg": 2, "result": 7}
    assert spans[2].attrs["error"].startswith("KeyError")
    tracer.uninstall()
    assert (ns.inner, ns.outer, ns.boom) == originals


@pytest.mark.parametrize("k, index, beyond", [(1, 0, 0), (4, 2, 1), (9, 4, 4),
                                              (22, 11, 10), (30, 19, 10), (100, 89, 10)])
def test_tail_percentile_rule(k, index, beyond):
    samples = [float(i) for i in reversed(range(k))]
    value, pct, n_beyond = run.tail(samples)
    assert value == index
    assert n_beyond == beyond
    assert pct == pytest.approx(100.0 * (index + 1) / k)


def test_end_to_end_reports_the_mean_and_notes_median_and_tail():
    results = [{"op_s": op, "setup_s": 0.5, "maxrss_kb": 2048 * (i + 1), "traced": False}
               for i, op in enumerate([1.0, 2.0, 6.0])]
    results.append({"crashed": "timed out", "traced": False, "wall_s": 9.0})
    counts = {"attempted": 4, "failed": 1}
    metrics, notes = run.end_to_end(results, counts, 0.08)
    assert set(metrics) == set(run.END_TO_END)
    assert metrics["op_mean_s"] == pytest.approx(3.0)
    assert metrics["ok_frac"] == pytest.approx(0.75)
    assert metrics["peak_rss_mb"] == pytest.approx(6.0)
    assert notes["op_mean_s"] == ("mean of 3 ops; op_p50_s 2 s, op_tail_s 2 s = p66.7, "
                                  "1 beyond")


def sweep_result(fails=()):
    return {"attempted": 12, "failures": list(fails), "traced": False}


def test_failed_frac_counts_errors_wrong_outputs_and_crashes():
    known = worker.failure("macro-robin n=1200", "error", "SolverError: residual")
    results = [sweep_result([known]), sweep_result([known]), sweep_result([known])]
    counts = run.summarize("simulate-sweep", results)
    assert (counts["attempted"], counts["failed"], counts["correct"]) == (36, 3, True)

    injected = worker.failure("macro-robin n=600", "wrong", "ratio 0.7 not below 0.5")
    results[1]["failures"].append(injected)
    results.append({"crashed": "exit code 1", "traced": False, "wall_s": 1.0})
    counts = run.summarize("simulate-sweep", results)
    assert (counts["attempted"], counts["failed"], counts["correct"]) == (48, 16, False)


def test_sweep_gates_score_every_macro_run():
    plan = worker.sweep_plan(0)
    assert sorted(plan) == sorted((n, m) for n in tracing.SOLVE_N for m in tracing.SOLVE_MODES)
    assert worker.sweep_plan(0) == plan and worker.sweep_plan(1) != plan
    errors = {(n, m): {21.0: 0.1} for n in tracing.SOLVE_N for m in worker.BC_MODES}
    errors[600, "macro-robin"] = {21.0: 0.008}
    errors[300, "macro-robin"] = {21.0: 0.07}          # ratio 0.7: injected failure
    errors[300, "macro-robin-linear"] = {21.0: float("nan")}
    del errors[1200, "macro-robin"]
    known = [worker.failure("macro-robin n=1200", "error", "SolverError")]
    added, ratios = worker.sweep_gates(plan, errors, known, 21.0)
    assert ratios == pytest.approx({300: 0.7, 600: 0.08})
    assert sorted((f["op"], f["kind"]) for f in added) == [
        ("macro-robin n=300", "wrong"), ("macro-robin-linear n=300", "wrong")]


def test_missing_checkout_exits_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "derive-o3", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_benchmark_json_lists_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert {w["name"] for w in doc["workloads"]} == set(worker.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in doc["per_layer"]] == tracing.metric_names()
    assert all(m["unit"] == tracing.metric_unit(m["name"]) for m in doc["per_layer"])
