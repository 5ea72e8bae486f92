import math
import os
import re
from fractions import Fraction as F

import pytest

from msbc import cli, linalg, normalform, solvers, system
from msbc.series import Space, TruncatedSeries


SMALL_SCENARIO = """\
[scenario]
name = small
L = 30
n = 64
t_end = 4
snapshots = 2, 4
rtol = 1e-7
atol = 1e-7
order = 3

[boundary]
a0 = 0.2 * tanhsq
b0 = 0
aL = 0
bL = 0.2 * tanhsq
"""

ZERO_SCENARIO = """\
[scenario]
name = quiet
L = 30
n = 64
t_end = 2
snapshots = 2

[boundary]
a0 = 0
b0 = 0
aL = 0
bL = 0
"""


@pytest.fixture()
def small_scenario(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_SCENARIO)
    return str(path)


@pytest.fixture(scope="module")
def derive_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("derive")
    assert cli.main(["derive", "--order", "3", "--out", str(out)]) == 0
    return out


def read(path):
    with open(path) as fh:
        return fh.read()


def _series_from_block(text, header, space):
    lines = []
    grab = False
    for line in text.splitlines():
        if line.startswith("component"):
            grab = line == header
            continue
        if grab:
            lines.append(line)
    return TruncatedSeries.from_lines(space, lines)


def test_derive_outputs(derive_out):
    files = sorted(os.listdir(derive_out))
    assert files == ["boundary_constraint.txt", "derivation_report.txt",
                     "evolution_eps1.txt", "resonance_table.txt",
                     "reverted_boundary.txt", "robin_bc.txt",
                     "transform_eps1.txt"]
    report = read(derive_out / "derivation_report.txt")
    assert "verdict: PASS" in report
    assert "ds1/dx = s2" in report


def test_derive_evolution_values(derive_out):
    sp = Space(("s1", "s2", "s3", "s4"), 3)
    g3 = _series_from_block(read(derive_out / "evolution_eps1.txt"),
                            "component ds3/dx", sp)
    from test_normalform import against_printed
    assert against_printed(g3.coefficient((0, 0, 1, 0)), "-0.67")
    assert against_printed(g3.coefficient((1, 0, 1, 0)), "-0.75")
    assert against_printed(g3.coefficient((0, 1, 1, 0)), "-0.94")


def test_derive_order_two_linear_robin(tmp_path):
    out = tmp_path / "d2"
    assert cli.main(["derive", "--order", "2", "--out", str(out)]) == 0
    robin = read(out / "robin_bc.txt")
    assert "linearised left P(a0,b0)= 1/2 Q= 0 R(a0,b0)= 1/4*b0 + 3/4*a0" in robin


def test_derive_is_deterministic(derive_out, tmp_path):
    out2 = tmp_path / "again"
    assert cli.main(["derive", "--order", "3", "--out", str(out2)]) == 0
    for name in os.listdir(derive_out):
        assert read(derive_out / name) == read(out2 / name), name


def test_derive_builds_each_embedding_once(tmp_path, monkeypatch, small_scenario):
    # the system label of every graded (exact A, dense B) and every
    # parameter-1 construction
    calls = {"construct": [], "construct_dense": [], "construct_at_unity": []}
    for name, labels in calls.items():
        def counted(system, *args, _real=getattr(normalform, name), _labels=labels,
                    **kwargs):
            _labels.append(system.label)
            return _real(system, *args, **kwargs)
        monkeypatch.setattr(normalform, name, counted)

    def run(*argv):
        for labels in calls.values():
            labels.clear()
        assert cli.main(list(argv) + ["--out", str(tmp_path / argv[0])]) == 0
        return calls["construct"], calls["construct_dense"], calls["construct_at_unity"]

    built = (["embedding-A"], ["embedding-B"], ["original"])
    assert run("derive", "--order", "3") == built
    assert run("compare", "--scenario", small_scenario) == built
    assert run("simulate", "--scenario", small_scenario,
               "--mode", "macro-robin") == ([], [], ["original"])


def test_derive_decomposes_each_matrix_once(tmp_path, monkeypatch):
    # embeddings A and B and the unembedded matrix, each once: the report
    # prints the decomposition the parameter-1 construction already made,
    # and the coordinate map makes none.  Counted where every decomposition
    # is built, so no import of ``eigen`` by name can hide one; the three
    # matrices' decompositions differ, so a repeat shows as a duplicate
    built = []
    real = linalg.Eigen.__init__

    def counted(self, *args):
        built.append(repr(args))
        real(self, *args)

    monkeypatch.setattr(linalg.Eigen, "__init__", counted)
    assert cli.main(["derive", "--order", "3", "--out", str(tmp_path / "d")]) == 0
    assert len(built) == 3
    assert len(set(built)) == 3


@pytest.mark.parametrize("exchange", (F(4), F(4, 3)))
def test_derive_runs_on_a_second_model(tmp_path, monkeypatch, exchange):
    # the map rows and embedding A's weight follow the coefficients: rates
    # +-5/3 (embedding B on the float lane) and +-1 (both exact)
    monkeypatch.setattr(system, "EXCHANGE", exchange)
    assert cli.main(["derive", "--order", "3", "--out", str(tmp_path / "d")]) == 0
    assert "stable/unstable spatial rates are +-%s" % linalg.family_rate(
        system.build_original().linear) in read(tmp_path / "d" / "derivation_report.txt")


def test_compare_on_a_second_model_keeps_the_derived_closure_ahead(tmp_path, monkeypatch):
    # at exchange 4 the macro model must be the one the Robin pair was
    # derived for: with the reference model's D_eff, G2 and shear the ratio
    # reads 1.85, with the derived ones 0.0196
    monkeypatch.setattr(system, "EXCHANGE", F(4))
    scen = tmp_path / "exchange4.cfg"
    scen.write_text("[scenario]\nn = 120\nt_end = 21\n\n"
                    "[boundary]\na0 = 0.2 * tanhsq\nbL = 0.2 * tanhsq\n")
    out = tmp_path / "cmp"
    assert cli.main(["compare", "--scenario", str(scen), "--out", str(out)]) == 0
    ratios = [float(m.group(1)) for m in re.finditer(
        r"ratio robin/dirichlet\s+([\d.e+-]+)", read(out / "exchange4_comparison.txt"))]
    assert len(ratios) == 1 and ratios[0] < 0.5


def test_derive_refuses_an_irrational_collapsed_spectrum(tmp_path, monkeypatch, capsys):
    # exchange 1 gives the rates +-sqrt(7)/3, which the exact parameter-1
    # view cannot hold
    monkeypatch.setattr(system, "EXCHANGE", F(1))
    assert cli.main(["derive", "--order", "3", "--out", str(tmp_path / "d")]) == 1
    assert "collapsed spectrum outside the handled family" in capsys.readouterr().err


def test_derive_rejects_low_order(tmp_path):
    assert cli.main(["derive", "--order", "1", "--out", str(tmp_path / "x")]) == 1
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("args", (["--order", "8"], ["--eps-order", "-1"]))
def test_derive_rejects_bad_orders_before_any_work(tmp_path, monkeypatch, args):
    def forbidden(*a, **kw):
        raise AssertionError("no construction may start on a bad order")

    monkeypatch.setattr(normalform, "construct_at_unity", forbidden)
    out = tmp_path / "x"
    assert cli.main(["derive"] + args + ["--out", str(out)]) == 1
    assert not out.exists()


def test_simulate_micro_csv(small_scenario, tmp_path):
    out = tmp_path / "sim"
    assert cli.main(["simulate", "--scenario", small_scenario,
                     "--mode", "micro", "--out", str(out)]) == 0
    csv = read(out / "small_micro_t4.csv")
    lines = csv.strip().splitlines()
    assert lines[0] == "t,x,field,value"
    fields = {ln.split(",")[2] for ln in lines[1:]}
    assert fields == {"a", "b"}
    xs = sorted({float(ln.split(",")[1]) for ln in lines[1:]})
    assert xs[0] == 0.0 and xs[-1] == 30.0
    manifest = read(out / "small_micro_manifest.txt")
    assert "mode = micro" in manifest and "0.2*tanhsq" in manifest


def test_simulate_zero_data_all_zero(tmp_path):
    scen = tmp_path / "quiet.cfg"
    scen.write_text(ZERO_SCENARIO)
    out = tmp_path / "simz"
    assert cli.main(["simulate", "--scenario", str(scen),
                     "--mode", "macro-dirichlet", "--out", str(out)]) == 0
    csv = read(out / "quiet_macro-dirichlet_t2.csv")
    values = {ln.rsplit(",", 1)[1] for ln in csv.strip().splitlines()[1:]}
    assert values == {"0"}


def test_simulate_deterministic(small_scenario, tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    for out in (out1, out2):
        assert cli.main(["simulate", "--scenario", small_scenario,
                         "--mode", "macro-robin", "--out", str(out)]) == 0
    for name in os.listdir(out1):
        assert read(out1 / name) == read(out2 / name)


def test_compare_report(small_scenario, tmp_path):
    out = tmp_path / "cmp"
    assert cli.main(["compare", "--scenario", small_scenario,
                     "--out", str(out)]) == 0
    report = read(out / "small_comparison.txt")
    assert "window [5, 25]" in report
    # internal consistency: the quoted ratio equals the metric quotient
    metrics = {}
    for line in report.splitlines():
        m = re.match(r"\s*(\S+)\s+(macro-\S+)\s+([\d.e+-]+)", line)
        if m:
            metrics[(float(m.group(1)), m.group(2))] = float(m.group(3))
        m = re.match(r"\s*(\S+)\s+ratio robin/dirichlet\s+([\d.e+-]+)", line)
        if m:
            t = float(m.group(1))
            ratio = float(m.group(2))
            quotient = metrics[(t, "macro-robin")] / metrics[(t, "macro-dirichlet")]
            assert ratio == pytest.approx(quotient, rel=1e-5)
    overlay = read(out / "small_t4_overlay.dat")
    assert overlay.startswith("# x a b mean C_dirichlet C_robin C_robin_linear")
    assert os.path.exists(out / "small_plots.gp")


def test_compare_degenerate_reports_na(tmp_path):
    scen = tmp_path / "quiet.cfg"
    scen.write_text(ZERO_SCENARIO)
    out = tmp_path / "cmpz"
    assert cli.main(["compare", "--scenario", str(scen), "--out", str(out)]) == 0
    report = read(out / "quiet_comparison.txt")
    assert "n/a" in report


def test_compare_custom_window(small_scenario, tmp_path):
    out = tmp_path / "cmpw"
    assert cli.main(["compare", "--scenario", small_scenario, "--out", str(out),
                     "--window", "8", "20"]) == 0
    assert "window [8, 20]" in read(out / "small_comparison.txt")


@pytest.mark.parametrize("window", [("25", "5"), ("10", "10"), ("nan", "25"),
                                    ("5", "inf"), ("40", "50"), ("10", "10.1")])
def test_compare_rejects_bad_window_before_any_work(small_scenario, tmp_path,
                                                     monkeypatch, capsys, window):
    def must_not_run(*args, **kwargs):
        pytest.fail("compare did work before validating --window")

    monkeypatch.setattr(normalform, "construct_at_unity", must_not_run)
    monkeypatch.setattr(solvers, "solve_microscale", must_not_run)
    monkeypatch.setattr(solvers, "solve_macroscale", must_not_run)
    out = tmp_path / "cmpbad"
    assert cli.main(["compare", "--scenario", small_scenario, "--out", str(out),
                     "--window", *window]) == 1
    assert "interior window" in capsys.readouterr().err
    assert not out.exists()


def test_exit_code_validation_failure(tmp_path):
    missing = str(tmp_path / "nope.cfg")
    assert cli.main(["simulate", "--scenario", missing, "--mode", "micro",
                     "--out", str(tmp_path / "o")]) == 1
    bad = tmp_path / "bad.cfg"
    bad.write_text("[scenario]\nname = broken\nn = -3\n")
    assert cli.main(["simulate", "--scenario", str(bad), "--mode", "micro",
                     "--out", str(tmp_path / "o2")]) == 1
    assert cli.main(["simulate", "--scenario", str(bad), "--mode", "bogus",
                     "--out", str(tmp_path / "o3")]) == 1


def test_exit_code_numerical_failure(tmp_path):
    scen = tmp_path / "blow.cfg"
    scen.write_text("""\
[scenario]
name = blow
L = 30
n = 16
t_end = 5
snapshots = 5

[boundary]
a0 = 4
b0 = 4
aL = 4
bL = 4
""")
    code = cli.main(["simulate", "--scenario", str(scen),
                     "--mode", "macro-dirichlet", "--out", str(tmp_path / "ob")])
    assert code == 2


def test_seed_tolerance_override(tmp_path, monkeypatch):
    monkeypatch.setattr(normalform, "CROSS_TOLERANCE", 1e-30)
    code = cli.main(["derive", "--order", "3", "--out", str(tmp_path / "strict")])
    assert code == 2
    monkeypatch.setattr(normalform, "CROSS_TOLERANCE", 1e-6)
    assert cli.main(["derive", "--order", "3",
                     "--out", str(tmp_path / "loose")]) == 0


def test_derive_fails_when_the_resummation_tail_exceeds_the_tolerance(tmp_path, capsys):
    out = tmp_path / "short"
    assert cli.main(["derive", "--order", "3", "--eps-order", "20", "--out", str(out)]) == 2
    assert re.search(r"discrepancy \d\.\d{3}e[-+]\d\d, resummation tail estimate "
                     r"\d\.\d{3}e[-+]\d\d", capsys.readouterr().err)
    tail = re.search(r"resummation tail estimate: (\S+)",
                     read(out / "derivation_report.txt")).group(1)
    assert float(tail) > 1e-12


@pytest.mark.parametrize("bad", (float("nan"), float("inf")))
def test_derive_fails_on_a_non_finite_coefficient_of_b(tmp_path, monkeypatch, capsys, bad):
    # component 1 of s4^2 at parameter degree 5: a non-finite entry there
    # makes its Wynn value NaN, which a max() fold would skip
    real = normalform.construct_dense

    def poisoned(*args, **kwargs):
        T, G = real(*args, **kwargs)
        T[2][0, 0, 5] = bad
        return T, G

    monkeypatch.setattr(normalform, "construct_dense", poisoned)
    out = tmp_path / "poisoned"
    assert cli.main(["derive", "--order", "3", "--out", str(out)]) == 2
    assert "embedding cross-validation failed: discrepancy nan" in capsys.readouterr().err
    assert "FAIL" in read(out / "derivation_report.txt")


def test_compare_names_the_resummation_tail(tmp_path, monkeypatch, capsys):
    # at order 2 the discrepancy reads 3.6e-15 and the tail 9.0e-14: a
    # tolerance between them fails the check on the tail alone, and compare
    # must say so in its report and its exit message, as derive does
    monkeypatch.setattr(normalform, "CROSS_TOLERANCE", 1e-14)
    scenario = tmp_path / "small.cfg"
    scenario.write_text(SMALL_SCENARIO.replace("order = 3", "order = 2"))
    out = tmp_path / "cmp"
    assert cli.main(["compare", "--scenario", str(scenario), "--out", str(out)]) == 2
    figures = r"discrepancy 3\.553e-15, resummation tail estimate 9\.037e-14"
    assert re.search(r"embedding cross-check FAIL \(%s\)" % figures,
                     read(out / "small_comparison.txt"))
    assert re.search(r"numerical failure: embedding cross-validation failed: %s" % figures,
                     capsys.readouterr().err)


@pytest.mark.parametrize("command", ("derive", "compare"))
@pytest.mark.parametrize("value", ("inf", "nan", "-1"))
def test_seed_tolerance_must_be_finite_and_nonnegative(tmp_path, monkeypatch, small_scenario,
                                                       command, value):
    # the cross-check's bound is the constant normalform.CROSS_TOLERANCE, a
    # finite number >= 0: an environment variable MSBC_SEED_TOLERANCE, even
    # one that is no bound at all, changes neither the exit nor any file written
    assert math.isfinite(normalform.CROSS_TOLERANCE) and normalform.CROSS_TOLERANCE >= 0
    args = ["--order", "2"] if command == "derive" else ["--scenario", small_scenario]
    plain, out = tmp_path / "plain", tmp_path / "out"
    assert cli.main([command] + args + ["--out", str(plain)]) == 0
    monkeypatch.setenv("MSBC_SEED_TOLERANCE", value)
    assert cli.main([command] + args + ["--out", str(out)]) == 0
    names = sorted(p.name for p in plain.iterdir())
    assert names and sorted(p.name for p in out.iterdir()) == names
    for name in names:
        assert (out / name).read_bytes() == (plain / name).read_bytes(), name


def test_scenario_keeps_its_snapshots_in_time_order(tmp_path):
    scen = tmp_path / "late.cfg"
    scen.write_text("[scenario]\nname = late\nn = 16\nt_end = 2\nsnapshots = 2, 1\n"
                    "order = 2\n")
    assert cli.parse_scenario(str(scen)).snapshots == (1.0, 2.0)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--scenario", str(scen), "--mode", "macro-dirichlet",
                     "--out", str(out)]) == 0
    assert "snapshots = 1.0, 2.0\n" in read(out / "late_macro-dirichlet_manifest.txt")
    assert cli.main(["compare", "--scenario", str(scen), "--out", str(out)]) == 0
    rows = [float(line.split()[0]) for line in read(out / "late_comparison.txt").splitlines()
            if "ratio robin/dirichlet" in line]
    assert rows == [1.0, 2.0]
    titles = [line for line in read(out / "late_plots.gp").splitlines()
              if line.startswith("set title")]
    assert titles == ["set title 'snapshot t=1'", "set title 'snapshot t=2'"]


def test_scenario_parse_errors(tmp_path):
    f = tmp_path / "nosect.cfg"
    f.write_text("a0 = 1\n")
    with pytest.raises(cli.ScenarioError):
        cli.parse_scenario(str(f))
    f2 = tmp_path / "badexpr.cfg"
    f2.write_text("[boundary]\na0 = 2 * sinsq\n")
    with pytest.raises(cli.ScenarioError):
        cli.parse_scenario(str(f2))
    f3 = tmp_path / "latesnap.cfg"
    f3.write_text("[scenario]\nt_end = 2\nsnapshots = 5\n")
    with pytest.raises(cli.ScenarioError):
        cli.parse_scenario(str(f3))
    for amp in ("nan", "inf", "-inf"):
        f4 = tmp_path / "amp.cfg"
        f4.write_text("[boundary]\na0 = %s * tanhsq\n" % amp)
        with pytest.raises(cli.ScenarioError, match="finite"):
            cli.parse_scenario(str(f4))
    for line in ("L = inf", "L = nan", "t_end = inf", "t_end = nan", "rtol = nan",
                 "atol = inf", "snapshots = nan", "snapshots = 7, nan",
                 "snapshots = inf"):
        f5 = tmp_path / "nonfinite.cfg"
        f5.write_text("[scenario]\n%s\n" % line)
        with pytest.raises(cli.ScenarioError, match="finite"):
            cli.parse_scenario(str(f5))
    for order in (1, 8):
        f6 = tmp_path / "order.cfg"
        f6.write_text("[scenario]\norder = %d\n" % order)
        with pytest.raises(cli.ScenarioError, match="order"):
            cli.parse_scenario(str(f6))
    f7 = tmp_path / "labels.cfg"
    f7.write_text("[scenario]\nt_end = 2\nsnapshots = 1, 1.0000001, 2\n")
    with pytest.raises(cli.ScenarioError, match="1.0 and 1.0000001 share the file label t1"):
        cli.parse_scenario(str(f7))
    for text, message in (("[scenario]\nsnapshot = 1\n", "unknown key 'snapshot'"),
                          ("[boundry]\na0 = 0.2\n", r"unknown section \[boundry\]"),
                          ("[scenario]\nn = 16\nN = 32\n", "key 'n' repeated"),
                          ("[boundary]\na0 = 0\n[boundary]\na0 = 1\n", "key 'a0' repeated"),
                          ("[scenario]\nname =\n", "name ''"),
                          ("[scenario]\nname = .\n", "name '.'"),
                          ("[scenario]\nname = ..\n", r"name '\.\.'")):
        f8 = tmp_path / "keys.cfg"
        f8.write_text(text)
        with pytest.raises(cli.ScenarioError, match=message):
            cli.parse_scenario(str(f8))


@pytest.mark.parametrize("line", ("L = inf", "L = nan", "t_end = inf", "rtol = nan",
                                  "snapshots = nan", "snapshots = 7, nan"))
def test_simulate_rejects_nonfinite_numbers_before_any_work(tmp_path, monkeypatch, line):
    def forbidden(*args, **kwargs):
        raise AssertionError("no solve may start on a bad scenario")

    monkeypatch.setattr(solvers, "solve_macroscale", forbidden)
    scen = tmp_path / "bad.cfg"
    scen.write_text("[scenario]\nt_end = 21\n%s\n" % line)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--scenario", str(scen), "--mode", "macro-dirichlet",
                     "--out", str(out)]) == 1
    assert not out.exists()


def test_simulate_rejects_a_repeated_snapshot_before_any_work(tmp_path, monkeypatch,
                                                              capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("no derivation may start on a bad scenario")

    monkeypatch.setattr(normalform, "construct_at_unity", forbidden)
    scen = tmp_path / "twice.cfg"
    scen.write_text("[scenario]\nt_end = 21\nsnapshots = 7, 7, 21\n")
    out = tmp_path / "out"
    assert cli.main(["simulate", "--scenario", str(scen), "--mode", "macro-robin",
                     "--out", str(out)]) == 1
    assert "snapshot time 7.0 is repeated" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", (["simulate", "--mode", "micro"],
                                     ["simulate", "--mode", "macro-robin"],
                                     ["compare"]))
@pytest.mark.parametrize("line", ("snapshots = 1, 1.0000001, 2", "order = 1",
                                  "order = 9"))
def test_scenario_rejected_before_any_output(tmp_path, command, line):
    scen = tmp_path / "bad.cfg"
    scen.write_text("[scenario]\nn = 16\nt_end = 2\n%s\n" % line)
    out = tmp_path / "out"
    assert cli.main(command + ["--scenario", str(scen), "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("name", ("../escaped", "sub/x"))
def test_scenario_name_cannot_leave_the_output_directory(tmp_path, capsys, name):
    runs = tmp_path / "runs"
    runs.mkdir()
    scen = runs / "bad.cfg"
    scen.write_text("[scenario]\nname = %s\nn = 16\nt_end = 2\n" % name)
    out = runs / "out"
    assert cli.main(["simulate", "--mode", "micro", "--scenario", str(scen),
                     "--out", str(out)]) == 1
    assert "must be a plain file name" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["bad.cfg", "runs"]


def test_output_errors_exit_1_without_a_traceback(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert cli.main(["derive", "--order", "2", "--out", str(taken)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_compare_flags_unvalidated_amplitude(tmp_path):
    scen = tmp_path / "big.cfg"
    scen.write_text("""\
[scenario]
name = big
L = 30
n = 64
t_end = 2
snapshots = 2

[boundary]
a0 = 0.3 * tanhsq
b0 = 0
aL = 0
bL = 0.3 * tanhsq
""")
    out = tmp_path / "cmpbig"
    assert cli.main(["compare", "--scenario", str(scen), "--out", str(out)]) == 0
    report = read(out / "big_comparison.txt")
    assert "warning" in report and "0.2" in report
