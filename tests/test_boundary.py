import dataclasses
import hashlib
import math
import operator
import random
from fractions import Fraction as F

import pytest

from msbc import boundary, normalform, system
from msbc.boundary import BoundaryData
from msbc.series import ReversionError, TruncatedSeries

from conftest import tanhsq
from test_normalform import against_printed, coef


def test_restriction_matches_transform_with_growing_mode_off(at_unity):
    unity = at_unity[0]
    con = boundary.centre_stable_restriction(unity)
    rename = dict(zip(("s1", "s2", "s3"), ("s1_0", "s2_0", "s3_0")))
    for series, comp in ((con.a0_series, unity[0]), (con.b0_series, unity[1])):
        expected = comp.at_zero("s4").map_vars(series.space, rename)
        assert series == expected


def test_restriction_reference_coefficients(derivation):
    con = derivation["constraint"]
    assert against_printed(coef(con.a0_series, s2_0=2), "6")
    assert against_printed(coef(con.a0_series, s1_0=1, s3_0=1), "-1.1")
    assert against_printed(coef(con.b0_series, s3_0=1), "-0.75")
    assert con.a0_series.constant_term() == 0
    assert con.b0_series.constant_term() == 0
    # origin maps to origin
    assert con.a0_series.evaluate((0, 0, 0)) == 0
    assert con.b0_series.evaluate((0, 0, 0)) == 0


REVERTED_S1 = {
    (("b0", 1),): "0.25", (("b0", 2),): "-0.29", (("a0", 1),): "0.75",
    (("a0", 1), ("b0", 1)): "-0.63", (("a0", 2),): "0.18",
    (("s2_0", 1),): "0.5", (("s2_0", 1), ("b0", 1)): "-2.8",
    (("s2_0", 1), ("a0", 1)): "3.7", (("s2_0", 2),): "3",
}
REVERTED_S3 = {
    (("b0", 1),): "-1", (("b0", 2),): "-0.19", (("a0", 1),): "1",
    (("a0", 1), ("b0", 1)): "-2.3", (("a0", 2),): "-0.56",
    (("s2_0", 1),): "2", (("s2_0", 1), ("b0", 1)): "-4.6",
    (("s2_0", 1), ("a0", 1)): "3.8", (("s2_0", 2),): "-5.2",
}


def test_reverted_reference_coefficients(derivation):
    rev = derivation["reverted"]
    for mono, printed in REVERTED_S1.items():
        got = coef(rev.s1_series, **dict(mono))
        assert against_printed(got, printed), ("s1", mono, got, printed)
    for mono, printed in REVERTED_S3.items():
        got = coef(rev.s3_series, **dict(mono))
        assert against_printed(got, printed), ("s3", mono, got, printed)


def test_reverted_trivial_origin(derivation):
    rev = derivation["reverted"]
    zero = (0,) * 5
    assert rev.s1_series.evaluate(zero) == 0
    assert rev.s3_series.evaluate(zero) == 0


def test_reverted_round_trip(derivation):
    con, rev = derivation["constraint"], derivation["reverted"]
    sp = rev.s1_series.space
    rename = dict(zip(("s1_0", "s2_0", "s3_0"), ("s1_0", "s2_0", "s3_0")))
    for value_var, series in (("a0", con.a0_series), ("b0", con.b0_series)):
        eq = series.map_vars(sp, rename)
        back = eq.substitute({"s1_0": rev.s1_series, "s3_0": rev.s3_series})
        resid = back - TruncatedSeries.variable(sp, value_var)
        assert resid.is_zero()


# sha256 over the reverted s1_0 and s3_0 series at orders 2-7, terms in
# stored (insertion) order: RobinBC compiles its float closure in that order,
# so a change to the reversion must keep the order as well as every
# coefficient.
REVERTED_SHA256 = (
    "58b2daa8f1a28856b714ddc030b2429ed9aa0b5f1433df135a7bbaf7a3f31de2")


def test_reverted_series_bit_identical_at_orders_two_to_seven():
    h = hashlib.sha256()
    for order in range(2, 8):
        transform = normalform.construct_at_unity(system.build_original(), order)[0]
        rev = boundary.revert_boundary(boundary.centre_stable_restriction(transform))
        for series in (rev.s1_series, rev.s3_series):
            h.update(repr(list(series.terms.items())).encode())
            h.update(b"\n")
    assert h.hexdigest() == REVERTED_SHA256


def test_reversion_failure_propagates():
    sp = boundary.Space(("s1_0", "s3_0", "s2_0", "a0", "b0"), 3)
    s1 = TruncatedSeries.variable(sp, "s1_0")
    s3 = TruncatedSeries.variable(sp, "s3_0")
    degenerate = boundary.BoundaryConstraint(
        a0_series=s1 + s3, b0_series=2 * s1 + 2 * s3 + s1 * s3)
    with pytest.raises(ReversionError):
        boundary.revert_boundary(degenerate)


def test_left_bc_general_coefficients(derivation):
    bc = derivation["bc_left"]
    assert bc.side == "left"
    assert against_printed(coef(bc.P), "0.5")
    assert against_printed(coef(bc.P, b0=1), "-2.8")
    assert against_printed(coef(bc.P, a0=1), "3.7")
    assert bc.Q == 3
    assert against_printed(coef(bc.R, b0=1), "0.25")
    assert against_printed(coef(bc.R, b0=2), "-0.29")
    assert against_printed(coef(bc.R, a0=1), "0.75")
    assert against_printed(coef(bc.R, a0=1, b0=1), "-0.63")
    assert against_printed(coef(bc.R, a0=2), "0.18")


@pytest.mark.parametrize("side, names", [("left", ("Cx", "a0", "b0")),
                                         ("right", ("Cx", "aL", "bL"))])
def test_relation_is_the_reverted_slow_amplitude_to_total_degree_two(derivation, side,
                                                                     names):
    # R quadratic in the data (5 terms), P linear (3), Q constant (1): every
    # term of the reverted s1 up to total degree 2 in (s2_0, a0, b0)
    bc = derivation["bc_" + side]
    assert bc.relation.space.names == names and bc.relation.space.order == 2
    assert sorted(bc.relation.terms) == [(0, 0, 1), (0, 0, 2), (0, 1, 0), (0, 1, 1),
                                         (0, 2, 0), (1, 0, 0), (1, 0, 1), (1, 1, 0),
                                         (2, 0, 0)]
    assert (len(bc.R.terms), len(bc.P.terms), abs(bc.Q)) == (5, 3, 3)
    left = derivation["bc_left"].relation
    for (q, i, j), c in left.terms.items():
        assert c == coef(derivation["reverted"].s1_series, s2_0=q, a0=i, b0=j)


def test_left_bc_scenario_specialisation(derivation):
    # inflow 0.2 f on one stream only: quoted condition
    #   C - (0.75 f + 0.5) Cx - 3 Cx^2 = 0.15 f + 0.007 f^2, here at f = 1
    bc = derivation["bc_left"]
    P = bc.P.evaluate((F(2, 10), F(0)))
    R = bc.R.evaluate((F(2, 10), F(0)))
    assert against_printed(P - F(1, 2), "0.75")
    linear_R = coef(bc.R, a0=1) * F(2, 10)
    assert against_printed(linear_R, "0.15")
    assert against_printed(R - linear_R, "0.007")


def test_left_bc_homogeneous_data():
    sp = boundary.Space(("Cx", "a0", "b0"), 2)
    bc = boundary.RobinBC(
        TruncatedSeries(sp, {(1, 0, 0): F(1, 2), (2, 0, 0): F(3)}), side="left",
        data=(lambda t: 0.0, lambda t: 0.0))
    assert bc.residual(0.0, 0.0, 0.0) == 0.0
    # C - 0.5 Cx - 3 Cx^2 = 0 with zero data
    assert bc.residual(0.5 * 0.1 + 3 * 0.01, 0.1, 0.0) == pytest.approx(0.0)


def test_linearised_bc_is_exact(derivation):
    lin = derivation["bc_left"].linearized()
    assert coef(lin.P) == F(1, 2)
    assert lin.Q == 0
    assert coef(lin.R, b0=1) == F(1, 4)
    assert coef(lin.R, a0=1) == F(3, 4)
    assert coef(lin.R, a0=2) == 0 and coef(lin.R, a0=1, b0=1) == 0


def test_right_bc_reference(derivation):
    # with data (0, 0.2 f):  C - (0.75 f - 0.5) Cx + 3 Cx^2 = 0.15 f - 0.007 f^2
    bc = derivation["bc_right"]
    assert bc.side == "right"
    assert bc.Q == -3
    P = bc.P.evaluate((F(0), F(2, 10)))
    R = bc.R.evaluate((F(0), F(2, 10)))
    assert against_printed(P + F(1, 2), "0.75")
    linear_R = coef(bc.R, bL=1) * F(2, 10)
    assert against_printed(linear_R, "0.15")
    assert against_printed(R - linear_R, "-0.007")


def test_right_bc_mirrors_left_for_swapped_data(derivation):
    left, right = derivation["bc_left"], derivation["bc_right"]
    # aL = -b0, bL = -a0 makes the right condition the exact mirror
    for (da, db), c in left.P.terms.items():
        assert right.P.coefficient((db, da)) == -c * (-1) ** (da + db)
    for (da, db), c in left.R.terms.items():
        assert right.R.coefficient((db, da)) == -c * (-1) ** (da + db)
    assert right.Q == -left.Q


def _mirror(terms):
    """S(Cx, u, v) -> -S(Cx, -v, -u), term by term."""
    return {(q, j, i): -c * (-1) ** (i + j) for (q, i, j), c in terms.items()}


def test_reflection_is_an_involution(derivation):
    left, once = boundary.robin_pair(derivation["bc_left"].relation, BoundaryData())
    assert once.relation.terms == _mirror(left.relation.terms)
    assert _mirror(once.relation.terms) == left.relation.terms
    # the heuristic closure is the data mean at both ends, by the same mirror
    left, right = boundary.dirichlet_heuristic(BoundaryData())
    assert right.relation.space.names == ("Cx", "aL", "bL")
    assert right.relation.terms == _mirror(left.relation.terms)
    assert right.relation.terms == {(0, 1, 0): F(1, 2), (0, 0, 1): F(1, 2)}


def test_residual_exact_pair_and_reference_point(derivation):
    bc = derivation["bc_left"]
    t = 50.0  # tanh^2 has saturated: f = 1
    R1 = bc.R_at(t)
    assert bc.residual(R1, 0.0, t) == pytest.approx(0.0, abs=1e-15)
    assert abs(R1 - 0.157) < 5e-4
    P1 = bc.P_at(t)
    C = R1 + P1 * 0.02 + 3 * 0.02 ** 2
    assert bc.residual(C, 0.02, t) == pytest.approx(0.0, abs=1e-15)


def test_residual_matches_direct_formula(derivation):
    bc = derivation["bc_left"]
    rng = random.Random(3)
    for _ in range(25):
        C = rng.uniform(-0.5, 0.5)
        Cx = rng.uniform(-0.2, 0.2)
        t = rng.uniform(0.0, 10.0)
        direct = C - bc.P_at(t) * Cx - float(bc.Q) * Cx ** 2 - bc.R_at(t)
        assert bc.residual(C, Cx, t) == pytest.approx(direct, abs=1e-15)


@pytest.mark.parametrize("side", ["left", "right"])
def test_rescaled_pair_is_the_condition_on_scaled_fields(derivation, side):
    # C - P(a, b) Cx - Q Cx^2 - R(a, b) times k is the rescaled condition at
    # (k C, k Cx, k a, k b), exactly; the linear coefficients do not move
    bc = derivation["bc_" + side]
    rng = random.Random(11)

    def exact_residual(bc, C, Cx, pt):
        return C - bc.P.evaluate(pt) * Cx - bc.Q * Cx * Cx - bc.R.evaluate(pt)

    for k in (3, F(1, 2)):
        scaled = bc.rescaled(k)
        assert scaled.Q == bc.Q / k and scaled.side == bc.side and scaled.data == bc.data
        for _ in range(20):
            C, Cx, a, b = (F(rng.randint(-50, 50), rng.randint(1, 40)) for _ in range(4))
            assert exact_residual(scaled, k * C, k * Cx, (k * a, k * b)) \
                == k * exact_residual(bc, C, Cx, (a, b))
    lin, scaled_lin = bc.linearized(), bc.linearized().rescaled(3)
    assert scaled_lin.P.terms == lin.P.terms and scaled_lin.R.terms == lin.R.terms


def _closure_points(ramp_slot):
    """Data points for the closure: zero, the reference ramp 0.2 tanh^2(t) on
    one stream, and random pairs over several magnitudes."""
    rng = random.Random(7)
    pts = [(0.0, 0.0)]
    for k in range(2001):
        f = 0.2 * tanhsq(21.0 * k / 2000)
        pts.append((f, 0.0) if ramp_slot == 0 else (0.0, f))
    for _ in range(8000):
        scale = 10.0 ** rng.randint(-6, 1)
        pts.append((rng.uniform(-scale, scale), rng.uniform(-scale, scale)))
    return pts


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("linear", [False, True])
def test_compiled_closure_bit_identical_to_exact(derivation, side, linear):
    bc = derivation["bc_" + side]
    if linear:
        bc = bc.linearized()
    # the closure reads its data at "t"; a pair read back as itself probes
    # the compiled P_at/R_at at any data point
    probe = dataclasses.replace(bc, data=(operator.itemgetter(0), operator.itemgetter(1)))
    for pt in _closure_points(0 if side == "left" else 1):
        R, P, Q = probe.coefficients_at(pt)
        for fast, exact in ((R, bc.R.evaluate(pt)), (P, bc.P.evaluate(pt)),
                            (Q, bc.Q)):
            assert fast == float(exact) and repr(fast) == repr(float(exact)), pt


def _counting_data(reads):
    """A data pair that logs each read: a ramp on one stream, a slope on
    the other."""
    def slot(i, fn):
        def read(t):
            reads.append(i)
            return fn(t)
        return read
    return slot(0, lambda t: 0.2 * tanhsq(t)), slot(1, lambda t: 0.05 * t)


@pytest.mark.parametrize("side", ["left", "right"])
def test_coefficients_at_reads_data_once(derivation, side):
    reads = []
    bc = dataclasses.replace(derivation["bc_" + side], data=_counting_data(reads))
    for t in (0.0, 0.7, 3.0, 21.0):
        reads.clear()
        R, P, Q = bc.coefficients_at(t)
        assert reads == [0, 1]
        assert repr(P) == repr(bc.P_at(t)) and repr(R) == repr(bc.R_at(t))
        assert repr(Q) == repr(float(bc.Q))


def test_boundary_data_descriptions():
    fn = lambda t: 0.2 * math.tanh(t) ** 2
    fn.describe = "0.2*tanhsq"
    data = BoundaryData(a0=fn, b0=0.0, aL=0.0, bL=0.2)
    text = data.describe()
    assert "0.2*tanhsq" in text and "0.0" in text and "0.2" in text


def test_boundary_data_rejects_nonfinite():
    with pytest.raises(ValueError):
        BoundaryData(a0=float("inf"))
    with pytest.raises(ValueError):
        BoundaryData(bL=float("nan"))
