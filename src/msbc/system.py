"""The two-stream model, described once, and the first-order spatial form
of its steady equations.  D, V, X, K and ``FIELD_SCALE`` are typed; the
macroscale model's D_eff, G2 and shear are derived from them.

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
from functools import lru_cache

from .linalg import LinalgError, Matrix, family_rate, simple_eigenvector
from .series import SeriesVector, Space, TruncatedSeries

# The microscale model in solver units, D, V, X and K of
#   a_t = D a_xx - V a_x + X (b - a) + K a^2   (b mirrored: + V b_x, - K b^2).
DIFFUSION, ADVECTION, EXCHANGE, REACTION = 3, 1, Fraction(1, 2), Fraction(1, 2)
# The derivation's variables are the solver fields over FIELD_SCALE, which
# makes the quadratic coefficient of the steady rows over D, K FIELD_SCALE/D,
# 1/2.  ``solver_units`` carries results across.
FIELD_SCALE = 3


def _steady_rates():
    """X/D, V/D and K FIELD_SCALE/D: the steady rows' coefficients over D."""
    return tuple(Fraction(c, DIFFUSION) for c in (EXCHANGE, ADVECTION, REACTION * FIELD_SCALE))


def macro_model():
    """The macroscale model C_t = D_eff (C_xx - G2(C, C_x)) as the exact
    (D_eff, G2, shear): G2 = ds2/dx and the shear a - s1 at s3 = s4 = 0 as
    {(i, j): c} for c s1^i s2^j in the derivation's variables.  D_eff =
    D + V^2/(2X) is the slow rate of the linear time-dependent pair.  With
    x, v, k of ``_steady_rates`` and s, d = (a + b)/2, (a - b)/2 the steady
    rows read s'' = v d' - 2k s d and d'' = 2x d + v s' - k (s^2 + d^2), so
    the shear's leading slow manifold is d = alpha s2 + beta s1^2, and s''
    gives G2, exact at weighted degree 3 (s2 counting 2)."""
    x, v, k = _steady_rates()
    alpha, beta = -v / (2 * x), k / (2 * x)
    slow = 1 - v * alpha
    g2 = {(1, 1): (2 * v * beta - 2 * k * alpha) / slow, (3, 0): -2 * k * beta / slow}
    return DIFFUSION + Fraction(ADVECTION) ** 2 / (2 * EXCHANGE), g2, {(0, 1): alpha, (2, 0): beta}


def solver_units(poly, k):
    """A polynomial given as ``{exponents: c}`` in the derivation's
    variables, as exact coefficients in fields ``k`` times those variables:
    a term of total degree d gains k^(1-d).  The one hand-over rule, for G2
    and the shear in (s1, s2) -> (C, C_x) and for a Robin relation in
    (C_x, data pair)."""
    return {e: c * Fraction(k) ** (1 - sum(e)) for e, c in poly.items()}


@dataclass(frozen=True)
class SpatialSystem:
    """d/dx (a, b, a', b') = (linear + eps coupling) u + nonlinear(u).

    ``coupling`` is the matrix the embedding parameter eps multiplies (zero
    for the unembedded system); ``nonlinear`` is the state-quadratic series
    over (a, b, ap, bp), with no parameter."""

    linear: Matrix
    coupling: Matrix
    nonlinear: SeriesVector
    label: str


def build_original():
    """The unembedded spatial system: the steady microscale rows divided by
    the diffusion, in the derivation's variables (the solver fields over
    ``FIELD_SCALE``), with a zero coupling."""
    sp = Space(("a", "b", "ap", "bp"), 2)
    x, v, k = _steady_rates()
    linear = Matrix([[0, 0, 1, 0], [0, 0, 0, 1], [x, -x, v, 0], [-x, x, 0, -v]])
    zero = TruncatedSeries.zero(sp)
    nonlinear = SeriesVector([zero, zero, TruncatedSeries(sp, {(2, 0, 0, 0): -k}),
                              TruncatedSeries(sp, {(0, 2, 0, 0): k})])
    return SpatialSystem(linear, Matrix([[0] * 4] * 4), nonlinear, "original")


def build_embedding(variant):
    """One-parameter embedding family with diagonalisable linear part: the
    original system plus (eps - 1) E_w, where the coupling E_w has rows
    (0, 0, 0, 1), (0, 0, 1, 0), (0, 0, w, -w) and (0, 0, w, -w); the linear
    part is the original's less E_w and the nonlinearity is the original's,
    so both variants reduce exactly to the original at parameter 1.  The
    family's rates satisfy
    D^2 lambda^2 = V^2 + 4DX - 2DVw + 2D eps (Vw - X).  "A" takes w = X/V,
    the one weight whose rates do not depend on eps.  "B" takes w = 1/6,
    typed: no rule of D, V, X and K picks one independent, eps-dependent
    check, and the goldens' resummation of B was built on this one.
    """
    if variant == "A":
        w = Fraction(EXCHANGE) / ADVECTION
    elif variant == "B":
        w = Fraction(1, 6)
    else:
        raise ValueError("variant must be 'A' or 'B'")
    coupling = Matrix([[0, 0, 0, 1], [0, 0, 1, 0], [0, 0, w, -w], [0, 0, w, -w]])
    original = build_original()
    return SpatialSystem(original.linear - coupling, coupling, original.nonlinear,
                         "embedding-%s" % variant)


def coordinate_map():
    """Linear map from the state (a, b, a', b') to (s1, s2, s3, s4).

    s1 is the mean field, s2 its spatial gradient; s3 and s4 parametrise the
    stable and unstable directions.  Rows 3 and 4 are the left eigenvectors
    of ``build_original().linear`` for the decaying and growing rates -mu
    and mu (``linalg.family_rate``), each normalised so that l·r = 1 for the
    fast right eigenvector r with unit stream difference a - b = 1.
    Embedding A's matrix (w = X/V) shares them, B's (w = 1/6) does not.
    They are computed once per model; an irrational mu raises LinalgError.
    """
    half = Fraction(1, 2)
    return Matrix([[half, half, 0, 0], [0, 0, half, half],
                   *_fast_rows(tuple(map(tuple, build_original().linear.rows)))])


@lru_cache(maxsize=None)
def _fast_rows(linear):
    """Map rows 3-4 for the linear part given as a tuple of rows."""
    mat, transpose = Matrix(linear), Matrix(list(zip(*linear)))
    mu = family_rate(mat)
    if not isinstance(mu, Fraction):
        raise LinalgError("the coordinate map needs rational fast rates, got +-%r" % mu)
    rows = []
    for lam in (-mu, mu):
        (r,), (l,) = simple_eigenvector(mat, lam), simple_eigenvector(transpose, lam)
        # l·r = 1 once r is scaled to a - b = 1
        scale = sum(p * q for p, q in zip(l, r)) / (r[0] - r[1])
        rows.append(tuple(x / scale for x in l))
    return tuple(rows)
