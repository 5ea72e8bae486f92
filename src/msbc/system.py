"""First-order spatial form of the steady heat-exchanger equations.

With the time derivative treated as negligible, the two-field steady problem
becomes a four-state system in the position variable: state (a, b, a', b').
The unembedded system has a defective zero eigenvalue (one eigenvector, one
generalised), so two one-parameter embeddings are provided whose linear parts
are diagonalisable; at parameter value 1 each reduces exactly to the original
system.  The coordinate map fixes how the slow pair (mean field and its
gradient) and the stable/unstable directions are parametrised.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import Matrix
from .series import SeriesVector, Space, TruncatedSeries

STATE_VARS = ("a", "b", "ap", "bp", "eps")


def state_space(order=2, grading_order=1):
    return Space(STATE_VARS, order, grading="eps", grading_order=grading_order)


def _poly(space, terms):
    return TruncatedSeries(space, terms)


@dataclass(frozen=True)
class SpatialSystem:
    """Linear matrix plus polynomial perturbation for d/dx (a,b,a',b')."""

    linear: Matrix
    nonlinear: SeriesVector
    label: str = ""

    def eps_linear_matrix(self):
        """Matrix of the perturbation terms linear in the state and in the
        embedding parameter."""
        sp = self.nonlinear.space
        rows = []
        for comp in self.nonlinear:
            row = []
            for j in range(4):
                e = [0, 0, 0, 0, 1]
                e[j] = 1
                row.append(comp.coefficient(tuple(e)))
            rows.append(row)
        return Matrix(rows)

    def state_quadratic(self):
        """The parameter-free part of the perturbation (the true
        nonlinearity)."""
        return SeriesVector([c.at_zero("eps") for c in self.nonlinear])

    def reduced_at_eps1(self):
        """Collapse the embedding at parameter 1: linear part plus the
        parameter-linear matrix, with the bare nonlinearity retained."""
        return SpatialSystem(self.linear + self.eps_linear_matrix(),
                             self.state_quadratic(),
                             label=self.label + "@eps=1" if self.label else "@eps=1")


def build_original():
    """The unembedded spatial system."""
    sp = state_space()
    linear = Matrix([
        [0, 0, 1, 0],
        [0, 0, 0, 1],
        [Fraction(1, 6), Fraction(-1, 6), Fraction(1, 3), 0],
        [Fraction(-1, 6), Fraction(1, 6), 0, Fraction(-1, 3)],
    ])
    zero = TruncatedSeries.zero(sp)
    nonlinear = SeriesVector([
        zero,
        zero,
        _poly(sp, {(2, 0, 0, 0, 0): Fraction(-1, 2)}),
        _poly(sp, {(0, 2, 0, 0, 0): Fraction(1, 2)}),
    ])
    return SpatialSystem(linear, nonlinear, label="original")


def build_embedding(variant):
    """One-parameter embedding family with diagonalisable linear part.

    Variant "A" perturbs the cross-derivative couplings with weight 1/2 in
    the derivative rows; variant "B" uses weight 1/6 and a different base
    matrix.  Both reduce exactly to the original system at parameter 1.
    """
    sp = state_space()
    if variant == "A":
        linear = Matrix([
            [0, 0, 1, -1],
            [0, 0, -1, 1],
            [Fraction(1, 6), Fraction(-1, 6), Fraction(-1, 6), Fraction(1, 2)],
            [Fraction(-1, 6), Fraction(1, 6), Fraction(-1, 2), Fraction(1, 6)],
        ])
        w = Fraction(1, 2)
    elif variant == "B":
        linear = Matrix([
            [0, 0, 1, -1],
            [0, 0, -1, 1],
            [Fraction(1, 6), Fraction(-1, 6), Fraction(1, 6), Fraction(1, 6)],
            [Fraction(-1, 6), Fraction(1, 6), Fraction(-1, 6), Fraction(-1, 6)],
        ])
        w = Fraction(1, 6)
    else:
        raise ValueError("variant must be 'A' or 'B'")
    nonlinear = SeriesVector([
        _poly(sp, {(0, 0, 0, 1, 1): 1}),
        _poly(sp, {(0, 0, 1, 0, 1): 1}),
        _poly(sp, {(2, 0, 0, 0, 0): Fraction(-1, 2), (0, 0, 1, 0, 1): w, (0, 0, 0, 1, 1): -w}),
        _poly(sp, {(0, 2, 0, 0, 0): Fraction(1, 2), (0, 0, 1, 0, 1): w, (0, 0, 0, 1, 1): -w}),
    ])
    return SpatialSystem(linear, nonlinear, label="embedding-%s" % variant)


def coordinate_map():
    """Linear map from the state (a, b, a', b') to (s1, s2, s3, s4).

    s1 is the mean field, s2 its spatial gradient; s3 and s4 parametrise the
    stable and unstable directions.  Rows 3 and 4 are left eigenvectors of
    the embedded linear matrices for the decaying and growing rates.
    """
    return Matrix([
        [Fraction(1, 2), Fraction(1, 2), 0, 0],
        [0, 0, Fraction(1, 2), Fraction(1, 2)],
        [Fraction(3, 8), Fraction(-3, 8), Fraction(-3, 8), Fraction(9, 8)],
        [Fraction(3, 8), Fraction(-3, 8), Fraction(9, 8), Fraction(-3, 8)],
    ])
