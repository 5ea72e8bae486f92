"""Macroscale boundary conditions from the separated coordinate transform.

Pipeline: restrict the transform to the centre-stable manifold (no growing
mode), impose the microscale Dirichlet values at the boundary, revert the
resulting series for the slow amplitudes, and read off a nonlinear Robin
relation between the mean field and its gradient.  The left boundary is
derived directly; the right boundary follows from the reflection symmetry of
the exchanger (swap the two streams with a sign flip and reverse space).

All series here carry exact rational coefficients; boundary data enter only
when a condition is evaluated numerically, so one derivation serves every
scenario, with time-dependent data handled quasi-statically.  A condition
is in the derivation's variables; ``RobinBC.rescaled`` carries it into the
solvers' units (``msbc.system.FIELD_SCALE``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .series import (ReversionError, SeriesVector, Space, TruncatedSeries,
                     solve_implicit_system)

BOUNDARY_VARS = ("s1_0", "s2_0", "s3_0")
REVERT_VARS = ("s1_0", "s3_0", "s2_0", "a0", "b0")
DATA_VARS = ("a0", "b0")


class SolverError(RuntimeError):
    """A numerical failure (exit code 2).  Defined here, not in ``solvers``,
    because ``msbc derive`` raises it and never loads ``msbc.solvers``."""


@dataclass(frozen=True)
class BoundaryConstraint:
    """Microscale boundary values as series in the boundary coordinates
    (slow amplitude, slow gradient, decaying amplitude) with the growing
    coordinate suppressed."""

    a0_series: TruncatedSeries
    b0_series: TruncatedSeries


@dataclass(frozen=True)
class RevertedBoundary:
    """Slow amplitude and decaying amplitude at the boundary, as series in
    the gradient and the imposed Dirichlet values."""

    s1_series: TruncatedSeries
    s3_series: TruncatedSeries


class BoundaryData:
    """Dirichlet values at the two ends; constants or functions of time."""

    def __init__(self, a0=0.0, b0=0.0, aL=0.0, bL=0.0):
        self.a0, self._a0 = self._wrap(a0)
        self.b0, self._b0 = self._wrap(b0)
        self.aL, self._aL = self._wrap(aL)
        self.bL, self._bL = self._wrap(bL)

    @staticmethod
    def _wrap(v):
        if callable(v):
            return v, getattr(v, "describe", repr(v))
        fv = float(v)
        if not math.isfinite(fv):
            raise ValueError("boundary data must be finite, got %r" % v)
        return (lambda t, _c=fv: _c), repr(fv)

    def describe(self):
        return "a0=%s b0=%s aL=%s bL=%s" % (self._a0, self._b0, self._aL, self._bL)


def centre_stable_restriction(transform):
    """First two components of the parameter-1 transform (the series vector
    ``normalform.construct_at_unity`` returns), growing mode set to zero,
    relabelled to boundary values."""
    target = Space(BOUNDARY_VARS, transform.space.order)
    rename = {"s1": "s1_0", "s2": "s2_0", "s3": "s3_0"}
    comps = []
    for i in (0, 1):
        comps.append(transform[i].at_zero("s4").map_vars(target, rename))
    return BoundaryConstraint(a0_series=comps[0], b0_series=comps[1])


def revert_boundary(constraint):
    """Solve the boundary constraint for the slow and decaying amplitudes in
    terms of the gradient and the imposed Dirichlet values."""
    order = constraint.a0_series.space.order
    sp = Space(REVERT_VARS, order)
    rename = {"s1_0": "s1_0", "s2_0": "s2_0", "s3_0": "s3_0"}
    eqs = SeriesVector([
        constraint.a0_series.map_vars(sp, rename),
        constraint.b0_series.map_vars(sp, rename),
    ])
    sol = solve_implicit_system(eqs, unknowns=["s1_0", "s3_0"],
                                knowns=["s2_0", "a0", "b0"])
    return RevertedBoundary(s1_series=sol[0], s3_series=sol[1])


def _float_terms(poly):
    """Terms ``(float(c), i, j)`` of a polynomial in the two data values, in
    its stored term order."""
    return tuple((float(c), i, j) for (i, j), c in poly.terms.items())


def _evaluate_float(terms, u, v):
    """Sum of ``c·u**i·v**j`` in term order: at float data the same float as
    ``float(poly.evaluate((u, v)))``, since a Fraction coefficient times a
    float already rounds to ``float(c)`` times it (a Horner form would
    round differently)."""
    total = 0.0
    for c, i, j in terms:
        total += c * u ** i * v ** j
    return float(total)


@dataclass(frozen=True)
class RobinBC:
    """Coefficients of C - P·Cx - Q·Cx^2 = R at one boundary.

    P and R are polynomials in the local Dirichlet data; Q is a constant.
    ``data`` supplies the (possibly time-dependent) values the polynomials
    are evaluated at when the condition is used numerically.
    """

    P: TruncatedSeries
    Q: Fraction
    R: TruncatedSeries
    side: str
    data: tuple = None  # pair of callables for this side's Dirichlet values

    def __post_init__(self):
        # the solvers evaluate P and R at every right-hand side: compile once
        object.__setattr__(self, "_P_float", _float_terms(self.P))
        object.__setattr__(self, "_R_float", _float_terms(self.R))

    def P_at(self, t):
        return _evaluate_float(self._P_float, self.data[0](t), self.data[1](t))

    def R_at(self, t):
        return _evaluate_float(self._R_float, self.data[0](t), self.data[1](t))

    def coefficients_at(self, t):
        """(P(t), R(t)) from one read of the data pair: the same floats as
        ``P_at`` and ``R_at``."""
        u, v = self.data[0](t), self.data[1](t)
        return _evaluate_float(self._P_float, u, v), _evaluate_float(self._R_float, u, v)

    def residual(self, C, Cx, t):
        """C - P(t)·Cx - Q·Cx^2 - R(t); zero when the condition holds."""
        return C - self.P_at(t) * Cx - float(self.Q) * Cx * Cx - self.R_at(t)

    def rescaled(self, k):
        """The condition on fields ``k`` times these variables, C - P(a/k,
        b/k)·Cx - (Q/k)·Cx^2 = k·R(a/k, b/k): each coefficient of P and R of
        total data degree d gains the factor k^-d and k^(1-d)."""
        def scale(poly, power):
            return TruncatedSeries(poly.space, {e: c * Fraction(k) ** (power - sum(e))
                                                for e, c in poly.terms.items()})
        return RobinBC(P=scale(self.P, 0), Q=self.Q / k, R=scale(self.R, 1),
                       side=self.side, data=self.data)

    def linearized(self):
        """Drop every quadratic term: the classic linear Robin condition."""
        sp = self.P.space
        zero = (0,) * len(sp.names)
        P = TruncatedSeries(sp, {zero: self.P.coefficient(zero)})
        R = TruncatedSeries(sp, {e: c for e, c in self.R.terms.items() if sum(e) <= 1})
        return RobinBC(P=P, Q=Fraction(0), R=R, side=self.side, data=self.data)

    def serialize(self):
        names = self.P.space.names
        return "%s P(%s)= %s Q= %s R(%s)= %s" % (
            self.side, ",".join(names), self.P.pretty(),
            self.Q, ",".join(names), self.R.pretty())


def _data_polynomials(reverted):
    """Split the reverted slow amplitude by gradient power into the Robin
    coefficients, truncated at the quadratic order the derivation is valid
    to: R quadratic in the data, P linear, Q constant."""
    sp2 = Space(DATA_VARS, 2)
    i_s2 = reverted.s1_series.space.index("s2_0")
    i_a0 = reverted.s1_series.space.index("a0")
    i_b0 = reverted.s1_series.space.index("b0")
    Rterms, Pterms = {}, {}
    Q = Fraction(0)
    for e, c in reverted.s1_series.terms.items():
        if any(e[i] for i in range(len(e)) if i not in (i_s2, i_a0, i_b0)):
            raise ReversionError("reverted series still contains an unknown")
        da, db, q = e[i_a0], e[i_b0], e[i_s2]
        if q == 0 and da + db <= 2:
            Rterms[(da, db)] = c
        elif q == 1 and da + db <= 1:
            Pterms[(da, db)] = c
        elif q == 2 and da + db == 0:
            Q = c
    return TruncatedSeries(sp2, Pterms), Q, TruncatedSeries(sp2, Rterms)


def assemble_left_bc(reverted, data: BoundaryData):
    """Robin condition at the left end: substitute the mean field for the
    slow amplitude and its gradient for the slow gradient, moving the
    gradient-dependent terms to the left side."""
    P, Q, R = _data_polynomials(reverted)
    return RobinBC(P=P, Q=Q, R=R, side="left", data=(data.a0, data.b0))


def _reflect(poly, names=("aL", "bL")):
    """p(a0, b0) -> p(-v2, -v1) over the renamed variable pair."""
    out = {}
    for (da, db), c in poly.terms.items():
        out[(db, da)] = c * (-1) ** (da + db)
    return TruncatedSeries(Space(names, poly.space.order), out)


def assemble_right_bc(reverted, data: BoundaryData):
    """Robin condition at the right end, by the stream-swap reflection: build
    the left condition for data (-bL, -aL), then map back through the sign
    flips of the field and of the spatial direction."""
    P, Q, R = _data_polynomials(reverted)
    return RobinBC(P=-1 * _reflect(P), Q=-Q, R=-1 * _reflect(R),
                   side="right", data=(data.aL, data.bL))


def derive_boundary_conditions(transform, data: BoundaryData):
    """Full chain from the parameter-1 transform to both Robin conditions."""
    constraint = centre_stable_restriction(transform)
    reverted = revert_boundary(constraint)
    return (constraint, reverted,
            assemble_left_bc(reverted, data), assemble_right_bc(reverted, data))
