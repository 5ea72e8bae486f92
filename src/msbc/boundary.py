"""Macroscale boundary conditions from the separated coordinate transform.

Pipeline: restrict the transform to the centre-stable manifold (no growing
mode), impose the microscale Dirichlet values at the boundary, revert the
resulting series for the slow amplitudes, and read off the nonlinear Robin
relation C = S(Cx, a0, b0): the mean field as one polynomial in its
gradient and the Dirichlet data, truncated at total degree 2.  The left
boundary is derived directly; ``robin_pair`` gives the right one by the
reflection symmetry of the exchanger (swap the two streams with a sign flip
and reverse space), -S(Cx, -bL, -aL).  The naive closure, the data mean
C = (a0 + b0)/2, is the degree-1 relation of ``dirichlet_heuristic``.

All series here carry exact rational coefficients; boundary data enter only
when a condition is evaluated numerically, so one derivation serves every
scenario, with time-dependent data handled quasi-statically.  A relation
is in the derivation's variables; ``RobinBC.rescaled`` carries it into the
solvers' units by the one rule ``msbc.system.solver_units``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .series import (ReversionError, SeriesVector, Space, TruncatedSeries,
                     solve_implicit_system)
from .system import solver_units

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


def _evaluate_float(terms, u, v):
    """Sum of ``c·u**i·v**j`` over compiled terms ``(float(c), i, j)`` in
    term order: at float data the same float as the exact polynomial's
    ``evaluate``, since a Fraction coefficient times a float already rounds
    to ``float(c)`` times it (a Horner form would round differently)."""
    total = 0.0
    for c, i, j in terms:
        total += c * u ** i * v ** j
    return float(total)


@dataclass(frozen=True)
class RobinBC:
    """The Robin condition C = S(Cx, u, v) at one boundary.

    ``relation`` is S, exact over ("Cx", u, v) with (u, v) this side's
    Dirichlet data, (a0, b0) or (aL, bL), truncated at total degree 2 (1 if
    linearised or heuristic).  By the power of Cx it reads C - P·Cx - Q·Cx^2
    = R with R quadratic in the data, P linear and Q constant; ``R``, ``P``
    and ``Q`` are read-only views of those coefficients.  ``data`` supplies
    the (possibly time-dependent) values the relation is evaluated at when
    the condition is used numerically.
    """

    relation: TruncatedSeries
    side: str
    data: tuple = None  # pair of callables for this side's Dirichlet values

    def __post_init__(self):
        # the solvers evaluate the closure at every right-hand side: compile
        # the float terms of R, P and Q once, in stored term order
        closure = ([], [], [])
        for (q, i, j), c in self.relation.terms.items():
            closure[q].append((float(c), i, j))
        object.__setattr__(self, "_closure", tuple(map(tuple, closure)))

    def _data_part(self, q):
        sp = self.relation.space
        return TruncatedSeries(Space(sp.names[1:], sp.order),
                               {e[1:]: c for e, c in self.relation.terms.items() if e[0] == q})

    @property
    def R(self):
        return self._data_part(0)

    @property
    def P(self):
        return self._data_part(1)

    @property
    def Q(self):
        return self.relation.coefficient((2, 0, 0))

    def coefficients_at(self, t):
        """(R(t), P(t), Q(t)) from one read of the data pair, each the same
        float as its exact view evaluated there."""
        u, v = self.data[0](t), self.data[1](t)
        R, P, Q = self._closure
        return _evaluate_float(R, u, v), _evaluate_float(P, u, v), _evaluate_float(Q, u, v)

    def P_at(self, t):
        return self.coefficients_at(t)[1]

    def R_at(self, t):
        return self.coefficients_at(t)[0]

    def residual(self, C, Cx, t):
        """C - S(Cx, u(t), v(t)), evaluated from the exact relation rather
        than the compiled closure; zero when the condition holds."""
        return C - self.relation.evaluate((Cx, self.data[0](t), self.data[1](t)))

    def rescaled(self, k):
        """The condition on fields ``k`` times these variables, by the
        hand-over rule ``system.solver_units``."""
        return RobinBC(TruncatedSeries(self.relation.space, solver_units(self.relation.terms, k)),
                       self.side, self.data)

    def linearized(self):
        """The relation truncated at total degree 1: the classic linear
        Robin condition."""
        return RobinBC(TruncatedSeries(Space(self.relation.space.names, 1), self.relation.terms),
                       self.side, self.data)

    def serialize(self):
        names = ",".join(self.relation.space.names[1:])
        return "%s P(%s)= %s Q= %s R(%s)= %s" % (
            self.side, names, self.P.pretty(), self.Q, names, self.R.pretty())


def _left_relation(reverted):
    """The reverted slow amplitude as the left relation C = S(Cx, a0, b0):
    the mean field for the slow amplitude and its gradient for the slow
    gradient, truncated at the total degree 2 the derivation is valid to."""
    s1 = reverted.s1_series
    keep = [s1.space.index(name) for name in ("s2_0",) + DATA_VARS]
    terms = {}
    for e, c in s1.terms.items():
        if any(k for i, k in enumerate(e) if i not in keep):
            raise ReversionError("reverted series still contains an unknown")
        terms[tuple(e[i] for i in keep)] = c
    return TruncatedSeries(Space(("Cx",) + DATA_VARS, 2), terms)


def robin_pair(left, data: BoundaryData):
    """The (left, right) Robin conditions of the left relation S(Cx, a0, b0).
    The right one follows by the stream-swap reflection: the left relation
    for data (-bL, -aL), mapped back through the sign flips of the field and
    of the spatial direction, is -S(Cx, -bL, -aL), taken term by term in
    stored order."""
    mirror = {(q, j, i): -c * (-1) ** (i + j) for (q, i, j), c in left.terms.items()}
    return (RobinBC(left, "left", (data.a0, data.b0)),
            RobinBC(TruncatedSeries(Space(("Cx", "aL", "bL"), left.space.order), mirror),
                    "right", (data.aL, data.bL)))


def dirichlet_heuristic(data: BoundaryData):
    """The naive closure as a relation pair: the end value is the data mean,
    C = a0/2 + b0/2, of degree 1 with no Cx term, so that solver units
    leave it as it is; the mirror gives aL/2 + bL/2 at the right end."""
    half = Fraction(1, 2)
    mean = TruncatedSeries(Space(("Cx",) + DATA_VARS, 1), {(0, 1, 0): half, (0, 0, 1): half})
    return robin_pair(mean, data)


def derive_boundary_conditions(transform, data: BoundaryData):
    """Full chain from the parameter-1 transform to both Robin conditions."""
    constraint = centre_stable_restriction(transform)
    reverted = revert_boundary(constraint)
    return (constraint, reverted, *robin_pair(_left_relation(reverted), data))
