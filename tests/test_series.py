import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msbc.series import (ReversionError, SeriesError, SeriesVector, Space,
                         TruncatedSeries, solve_implicit_system)


SP3 = Space(("x", "y", "z"), 3)
NF = Space(("s1", "s2", "s3", "s4", "eps"), 3, grading="eps", grading_order=3)


def var(name, space=SP3):
    return TruncatedSeries.variable(space, name)


def rand_series(rng, space=SP3, max_terms=6, scale=4):
    terms = {}
    names = space.names
    for _ in range(rng.randrange(max_terms + 1)):
        e = [0] * len(names)
        budget = space.order
        for i in range(len(names)):
            e[i] = rng.randrange(budget + 1)
            budget -= e[i]
        terms[tuple(e)] = F(rng.randrange(-scale, scale + 1), rng.randrange(1, 5))
    return TruncatedSeries(space, terms)


def rand_point(rng, space=SP3):
    return [F(rng.randrange(-3, 4), rng.randrange(4, 9)) for _ in space.names]


def test_additive_identity():
    p = rand_series(random.Random(0))
    assert p + TruncatedSeries.zero(SP3) == p
    assert p + 0 == p


def test_equality_with_a_scalar_compares_every_term():
    x = var("x")
    assert not x == 0 and not 0 == x and not 2 * x == 0
    assert x != 0 and 2 * x != 2 and 1 + x != 1
    assert TruncatedSeries.zero(SP3) == 0 and 0 == TruncatedSeries.zero(SP3)
    assert TruncatedSeries.constant(SP3, F(3, 2)) == F(3, 2)
    assert TruncatedSeries.constant(SP3, 2) == 2.0
    assert TruncatedSeries.constant(SP3, 2) != 0
    # anything but a number is unequal, not coerced or refused
    half = TruncatedSeries.constant(SP3, F(1, 2))
    for other in (None, "abc", "1/2", [F(1, 2)], object()):
        assert not half == other and half != other
        assert not other == half and other != half


def test_cancellation_gives_empty_term_map():
    x = var("x")
    out = x + (-x)
    assert out.terms == {}
    assert out.is_zero()


def test_binomial_expansion():
    x, y = var("x"), var("y")
    p = (x + y) * (x + y)
    assert p.coefficient((2, 0, 0)) == 1
    assert p.coefficient((1, 1, 0)) == 2
    assert p.coefficient((0, 2, 0)) == 1
    assert len(p.terms) == 3


def test_multiplicative_identity():
    p = rand_series(random.Random(1))
    one = TruncatedSeries.constant(SP3, 1)
    assert p * one == p


def test_truncation_forces_empty_product():
    x = var("x")
    sq = x * x
    assert (sq * sq).is_zero()


def test_zero_coefficients_never_stored():
    p = TruncatedSeries(SP3, {(1, 0, 0): F(1), (0, 1, 0): F(0)})
    assert (0, 1, 0) not in p.terms
    q = p - var("x")
    assert q.terms == {}
    # a repeated exponent tuple in a term list cancels
    r = TruncatedSeries(SP3, [((0, 0, 1), F(1, 3)), ((1, 0, 0), 2), ((0, 0, 1), F(-1, 3))])
    assert r.terms == {(1, 0, 0): F(2)}
    # grading powers of one state monomial that cancel at grading 1
    g = TruncatedSeries(NF, {(1, 0, 0, 0, 0): F(1, 4), (1, 0, 0, 0, 2): F(-1, 4),
                             (0, 1, 0, 0, 1): F(3, 2)})
    assert g.grading_at_one().terms == {(0, 1, 0, 0, 0): F(3, 2)}


def test_float_coefficients_are_refused():
    with pytest.raises(TypeError, match="unsupported coefficient type: float"):
        TruncatedSeries(SP3, {(1, 0, 0): 0.5})
    with pytest.raises(TypeError, match="unsupported coefficient type: float"):
        TruncatedSeries.constant(SP3, 0.5)


def test_mismatched_variable_sets_error():
    other = Space(("u", "v", "w"), 3)
    with pytest.raises(SeriesError):
        rand_series(random.Random(2)) + rand_series(random.Random(3), other)
    with pytest.raises(SeriesError):
        rand_series(random.Random(2)) * rand_series(random.Random(3), other)


def test_result_order_is_min_of_operands():
    lo = Space(("x", "y", "z"), 2)
    p = TruncatedSeries(SP3, {(1, 1, 0): F(1), (2, 1, 0): F(1)})
    q = TruncatedSeries(lo, {(1, 0, 0): F(1)})
    out = p + q
    assert out.space.order == 2
    assert (2, 1, 0) not in out.terms


@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_eval_respects_addition(seed_p, seed_q):
    p = rand_series(random.Random(seed_p))
    q = rand_series(random.Random(seed_q))
    rng = random.Random(seed_p ^ seed_q)
    for _ in range(5):
        v = rand_point(rng)
        assert (p + q).evaluate(v) == p.evaluate(v) + q.evaluate(v)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_eval_respects_product_within_order(seed):
    # degrees constrained so the product is untruncated
    rng = random.Random(seed)
    p = TruncatedSeries(SP3, {(1, 0, 0): F(rng.randrange(-3, 4)),
                              (0, 1, 0): F(rng.randrange(-3, 4))})
    q = TruncatedSeries(SP3, {(0, 0, 1): F(rng.randrange(-3, 4)),
                              (1, 1, 0): F(rng.randrange(-3, 4))})
    for _ in range(5):
        v = rand_point(rng)
        assert (p * q).evaluate(v) == p.evaluate(v) * q.evaluate(v)


@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_ring_axioms(sa, sb, sc):
    p = rand_series(random.Random(sa))
    q = rand_series(random.Random(sb))
    r = rand_series(random.Random(sc))
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert (p * q) * r == p * (q * r)


def test_substitute_identity_bindings():
    p = rand_series(random.Random(7))
    out = p.substitute({"x": var("x"), "y": var("y")})
    assert out == p


def test_grading_at_one_parameter_collapse():
    s1 = TruncatedSeries.variable(NF, "s1")
    p = s1 + TruncatedSeries.variable(NF, "eps") * TruncatedSeries.variable(NF, "s2")
    out = p.grading_at_one()
    assert out.coefficient((1, 0, 0, 0, 0)) == 1
    assert out.coefficient((0, 1, 0, 0, 0)) == 1
    assert len(out.terms) == 2


def test_grading_at_one_sums_per_state_monomial_and_drops_zeros():
    p = TruncatedSeries(NF, {(1, 0, 0, 0, 0): F(1, 2), (1, 0, 0, 0, 2): F(1, 3),
                             (0, 1, 0, 0, 1): F(2), (0, 1, 0, 0, 3): F(-2),
                             (0, 0, 1, 0, 1): F(5)})
    out = p.grading_at_one()
    assert list(out.terms.items()) == [((1, 0, 0, 0, 0), F(5, 6)),
                                       ((0, 0, 1, 0, 0), F(5))]
    assert out.space == NF
    with pytest.raises(SeriesError):
        rand_series(random.Random(1)).grading_at_one()  # no grading variable


def test_substitute_rejects_nonzero_constant_replacement():
    p = rand_series(random.Random(8))
    bad = var("x") + 1
    with pytest.raises(SeriesError):
        p.substitute({"x": bad})
    with pytest.raises(SeriesError):
        p.substitute({"x": F(1, 2)})  # replacements must be series


def test_composition_associativity_by_evaluation():
    rng = random.Random(9)
    p = rand_series(rng)
    f = var("x") * var("y") + var("z")
    g = var("x") + var("x") * var("x")
    pf = p.substitute({"z": f})
    pfg = pf.substitute({"x": g})
    fg = f.substitute({"x": g})
    p_fg = p.substitute({"z": fg, "x": g})
    for _ in range(20):
        v = [F(rng.randrange(-2, 3), rng.randrange(8, 16)) for _ in range(3)]
        assert pfg.evaluate(v) == p_fg.evaluate(v)


def test_evaluate_zero_series():
    assert TruncatedSeries.zero(SP3).evaluate((1, 2, 3)) == 0


def test_evaluate_at_float_points_gives_floats():
    # exact coefficients at float points (``RobinBC.residual``): the point's
    # floats are read as they are, by both evaluation paths
    p = TruncatedSeries(SP3, {(0, 0, 0): F(3), (1, 0, 0): F(1, 3), (0, 2, 0): F(-2, 7),
                              (1, 1, 1): F(5, 2)})
    for point, value in (((0.1, -0.25, 1.5), 2.9217261904761904),
                         ({"x": 0.1, "z": 1.5}, 3.033333333333333),
                         ((1, 0.5, F(1, 3)), 3.6785714285714284)):
        for got in (p.evaluate(point), p.evaluate_horner(point)):
            assert type(got) is float and got == value


def test_evaluate_linear_transform_row():
    sp = Space(("s1", "s2", "s3", "s4", "eps"), 3, grading="eps")
    p = TruncatedSeries(sp, {
        (1, 0, 0, 0, 0): F(1), (0, 1, 0, 0, 0): F(-1),
        (0, 0, 1, 0, 0): F(1, 4), (0, 0, 0, 1, 0): F(3, 4)})
    assert p.evaluate((1, 0, 0, 0, 1)) == 1


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_horner_matches_naive(seed):
    rng = random.Random(seed)
    p = rand_series(rng)
    v = rand_point(rng)
    assert p.evaluate(v) == p.evaluate_horner(v)


def test_serialization_round_trip_and_canonical_order():
    p = rand_series(random.Random(11)) + var("y")
    lines = p.to_lines()
    assert lines == sorted(lines, key=lambda s: tuple(int(v) for v in s.split()[1:]))
    q = TruncatedSeries.from_lines(SP3, lines)
    assert q == p


def test_derivative():
    x, y = var("x"), var("y")
    p = x * x * y + y
    d = p.derivative("x")
    assert d.coefficient((1, 1, 0)) == 2
    assert d.coefficient((0, 1, 0)) == 0


# --- implicit-system reversion -------------------------------------------

REV = Space(("u", "v", "p", "yu", "yv"), 3)


def test_linear_reversion_equals_inverse_matrix():
    u, v = var("u", REV), var("v", REV)
    eqs = SeriesVector([2 * u + v, u + v])
    sol = solve_implicit_system(eqs, ["u", "v"], ["p", "yu", "yv"])
    # inverse of [[2,1],[1,1]] is [[1,-1],[-1,2]]
    yu, yv = var("yu", REV), var("yv", REV)
    assert sol[0] == yu - yv
    assert sol[1] == -1 * yu + 2 * yv


def test_reversion_round_trip_with_quadratic_terms():
    u, v, p = var("u", REV), var("v", REV), var("p", REV)
    eqs = SeriesVector([u + 2 * v + p + u * u - v * p,
                        u - v + 3 * p * p + u * v])
    sol = solve_implicit_system(eqs, ["u", "v"], ["p", "yu", "yv"])
    back = [eq.substitute({"u": sol[0], "v": sol[1]}) for eq in eqs]
    for name, b in zip(("yu", "yv"), back):
        assert b == var(name, REV)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_reversion_residual_exceeds_order(seed):
    rng = random.Random(seed)
    while True:
        J = [[F(rng.randrange(-3, 4)) for _ in range(2)] for _ in range(2)]
        if J[0][0] * J[1][1] - J[0][1] * J[1][0] != 0:
            break
    u, v, p = var("u", REV), var("v", REV), var("p", REV)
    quads = [u * u, u * v, v * v, u * p, v * p, p * p]
    eqs = []
    for i in range(2):
        e = J[i][0] * u + J[i][1] * v
        for q in quads:
            e = e + F(rng.randrange(-2, 3), rng.randrange(1, 3)) * q
        eqs.append(e)
    sol = solve_implicit_system(SeriesVector(eqs), ["u", "v"], ["p", "yu", "yv"])
    for name, eq in zip(("yu", "yv"), eqs):
        back = eq.substitute({"u": sol[0], "v": sol[1]})
        resid = back - var(name, REV)
        assert resid.is_zero()  # all representable terms cancel


def test_reversion_rejects_singular_jacobian():
    u, v = var("u", REV), var("v", REV)
    eqs = SeriesVector([u + v, 2 * u + 2 * v + u * v])
    with pytest.raises(ReversionError):
        solve_implicit_system(eqs, ["u", "v"], ["p", "yu", "yv"])

