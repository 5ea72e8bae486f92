"""Order-by-order separation of slow, stable and unstable spatial modes.

A near-identity coordinate change u = T(s) and reduced evolution
ds/dx = G(s) with DT(s)·G(s) = F(T(s)) up to the truncation caps are built
in two views: ``construct`` builds the graded view of an embedding, whose
linear part is diagonalisable with eigenvalues {0, 0, -mu, +mu}, and
``construct_at_unity`` builds the parameter-1 view of the unembedded system.

The graded view expands in the embedding parameter, treated as an extra
zero-eigenvalue variable with its own cap.  Residual monomials with nonzero
divisor m·lambda - lambda_j (an exact integer-multiple test) are removed into
T; zero-divisor monomials stay in G and are recorded in the resonance
report.  Resonant transform coefficients are fixed by one normalisation:
each separated coordinate is exactly what its coordinate-map row reads off
the transform (so the slow manifold keeps the mean field and its gradient as
parameters), and all other kernel coefficients are zero.  With this
normalisation the resonant sector mixing both fast variables retains formal
cross terms; they are surfaced in the report, and their parameter series do
not resum.

The parameter-1 view resolves that sector.  At parameter value 1 every
embedding collapses to the same unembedded system, whose zero eigenvalue is
defective; in the collapse-aligned basis the linear part is the exact Jordan
form diag-plus-nilpotent, and the extra nilpotent direction makes the cross
terms removable.  ``construct_at_unity`` builds this normal form directly
from the unembedded system: through cubic order the slow equations involve
slow variables only and each fast equation is divisible by its own variable
(beyond cubic order a few resonant obstructions are genuine; they are kept
and surfaced, never dropped).  It is the object the boundary-condition
derivation consumes.  The graded views of the embeddings only verify it, on
the separated sector, in ``cross_validate_embeddings``: embedding A's
parameter series terminate and sum exactly onto it, and embedding B's,
which do not, are resummed by Wynn's epsilon-algorithm on their partial
sums to the cap, with the change over the last few parameter degrees as
the estimate of what the cap leaves out.  B's base rates are irrational, so
``construct``, which is exact only, refuses it; its graded view comes from
``construct_dense``: the same construction in floats, one state degree at
a time, with every coefficient held on a dense parameter axis, so products
of lower degrees are truncated convolutions and the same-degree couplings
a recurrence in the parameter degree.  Its sums run in one fixed order on
elementwise operations only (no matrix product, no pairwise reduction):
the report prints B's float discrepancy and tail, and those digits must
not depend on the CPU that computes them.

Both views run on one construction kernel.  ``_homological_residual``
assembles each degree's residual from the slices below it (the parameter
shift only in the graded view), and ``_in_normal_coords`` projects it onto
the separated coordinates.  The parameter-1 view's knob influence is the same
residual of the unit kernel slot alone (the residual is linear in the slice
one degree down).  ``_pinned`` and ``_pin`` hold the normalisation for all
three constructions, ``_lift`` maps solved coefficients back to the state
and ``_assemble`` turns the slices into series.  All three take their
linear set-up from ``_frame``: one ``linalg.eigen`` call, the map-aligned
columns, their inverse and map-row content, the quadratic terms and the
coupling, exact, or in floats for an irrational spectrum, which only
``construct_dense`` accepts.  The parameter-1 view solves its coupled kernel
slots with ``linalg.solve``.

A slice (one component's terms of one degree) is a dict while a step still
writes it, and is frozen once it is finished: packed into a list of
``(key, num, sdeg, edeg)`` terms over one denominator ``den`` (the lcm of
the dict's denominators) that replaces the dict.  So the products multiply
and add ints: each degree's residual is accumulated as integer numerators
over one denominator and projected in ints, and only the projected values,
which the solve, the normalisation and the series read, are Fractions.
Products read the packed terms directly, and the derivative of a stored
transform slice is built once per variable, at its first use, and reused at
every later degree.  In the graded view a slice is finished when it is
stored.  In the parameter-1 view the knob step of degree d writes into the
transform slice of degree d-1 after the degree-d residual has read it, so
that slice is frozen again after the write; the packing the residual read is
dropped.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import linalg
from .series import SeriesVector, Space, TruncatedSeries, accumulate
from .system import SpatialSystem, coordinate_map

NF_VARS = ("s1", "s2", "s3", "s4", "eps")
NF_STATE = ("s1", "s2", "s3", "s4")
DEFAULT_EPS_ORDER = 36
CROSS_TOLERANCE = 1e-12  # the embedding cross-check's bound, read at call time
WYNN_WIDTH = 11  # partial sums per Wynn table: the epsilon_10 column
TAIL_STEP = 4    # parameter degrees dropped for the tail estimate
_EIGEN_PATTERN = (0, 0, -1, 1)  # integer multiples of mu per component


class ConstructionRefused(ValueError):
    """The linear part cannot be handled (not diagonalisable, or the
    spectrum is not the slow/stable/unstable family)."""


# ---------------------------------------------------------------------------
# packed-exponent slice arithmetic (construction internals)
#
# A slice is a dict {packed key: coef} while a step writes it and a frozen
# ``_Slice`` of numerators over one denominator once it is finished (see the
# module docstring).  Products read frozen slices; a transient dict, such as
# a knob's unit slice, is packed where it is used.

_SHIFTS = (0, 4, 8, 12, 16)


def _encode(e):
    key = e[0] | (e[1] << 4) | (e[2] << 8) | (e[3] << 12)
    if len(e) > 4:
        key |= e[4] << 16
    return key


def _decode5(key):
    return (key & 15, (key >> 4) & 15, (key >> 8) & 15, (key >> 12) & 15, key >> 16)


def _decode4(key):
    return (key & 15, (key >> 4) & 15, (key >> 8) & 15, (key >> 12) & 15)


class _Slice(list):
    """A frozen slice: (key, num, sdeg, edeg) terms in insertion order over
    the one denominator ``den``, the largest state and parameter degrees, and
    the derivative per state variable, built on first use."""

    __slots__ = ("den", "smax", "emax", "derivs")

    def __init__(self, den, terms):
        super().__init__(terms)
        self.den = den
        self.smax = max((t[2] for t in self), default=0)
        self.emax = max((t[3] for t in self), default=0)
        self.derivs = None


def _over_lcm(coefs):
    """``(nums, den)``: the coefficients as numerators over the lcm of their
    denominators."""
    den = math.lcm(*(c.denominator for c in coefs))
    return [c.numerator * (den // c.denominator) for c in coefs], den


def _pack(d):
    """Freeze the dict slice ``d``."""
    nums, den = _over_lcm(d.values())
    return _Slice(den, [(k, n,
                         (k & 15) + ((k >> 4) & 15) + ((k >> 8) & 15) + ((k >> 12) & 15),
                         k >> 16) for k, n in zip(d, nums)])


def _freeze(slices):
    return [_pack(d) for d in slices]


def _mul_slice(p1, p2, order, eps_order, out, scale=1):
    """Accumulate scale·p1·p2 into the dict ``out``, dropping products
    beyond the caps.  Numerators only: the caller's ``scale`` puts the
    product over the denominator of ``out``.

    Exponents stay below 8 (``order`` <= 7), so packed keys add without carry
    and a product is admissible exactly when ``k2`` fits the budget that
    ``k1`` leaves.  The larger operand is used whole when its largest degrees
    fit that budget, and is otherwise filtered once per budget, keeping its
    order: the pairs are visited in the nested-loop order, so the insertion
    order of ``out`` does not change.
    """
    if not p1 or not p2:
        return
    if len(p1) > len(p2):
        p1, p2 = p2, p1
    smax2, emax2 = p2.smax, p2.emax
    admissible = {}
    for k1, c1, s1, e1 in p1:
        smax, emax = order - s1, eps_order - e1
        if smax2 <= smax and emax2 <= emax:
            row = p2
        else:
            row = admissible.get((smax, emax))
            if row is None:
                row = admissible[smax, emax] = [t for t in p2
                                                if t[2] <= smax and t[3] <= emax]
        c1s = c1 * scale if scale != 1 else c1
        for k2, c2, _, _ in row:
            accumulate(out, k1 + k2, c1s * c2)


def _shift_eps(p, eps_order, out, scale=1):
    for k, c, _, e in p:
        if e < eps_order:
            accumulate(out, k + (1 << 16), c * scale)


def _derivative(p, j):
    """d/ds_j of the frozen slice ``p`` (j in 0..3), built once per slice."""
    if p.derivs is None:
        p.derivs = [None] * 4
    dp = p.derivs[j]
    if dp is None:
        sh = _SHIFTS[j]
        unit = 1 << sh
        # at exponent 1 share the coefficient: c * 1 would store a copy
        dp = p.derivs[j] = _Slice(p.den, [(k - unit, c if m == 1 else c * m, s - 1, e)
                                          for k, c, s, e in p if (m := (k >> sh) & 15)])
    return dp


def _linear_slices(t1, mu):
    """Degree-1 slices of T (the aligned columns) and of G (the rates)."""
    lam = [n * mu for n in _EIGEN_PATTERN]
    units = [1 << _SHIFTS[j] for j in range(4)]
    T1 = [{units[j]: t1[i][j] for j in range(4) if t1[i][j] != 0} for i in range(4)]
    G1 = [({units[i]: lam[i]} if lam[i] != 0 else {}) for i in range(4)]
    return T1, G1


def _homological_residual(T, G, quad, N, d, order, eps_order):
    """Degree-d part of F(T) - DT·G from the slices below degree d, as
    ``(R, L)``: integer numerators over the one denominator L.

    Per state component: the quadratic products, then the parameter shift
    of T[d-1] by the matrix ``N`` (when given), then the -DT·G terms.  L is
    the lcm of each product's denominator d1·d2·(scale denominator), so each
    product is accumulated with the integer scale that puts it over L.  Every
    slice of ``T`` and ``G`` is frozen; the derivative of a T slice is built
    at its first use and reused at every later degree.
    """
    products = []  # (component, p1, p2 or None for the shift, scale)
    for c in range(4):
        for (i, j, coef) in quad[c]:
            for e in range(1, d):
                Ti, Tj = T.get(e), T.get(d - e)
                if Ti and Tj:
                    products.append((c, Ti[i], Tj[j], coef))
    below = T.get(d - 1) if N is not None else None
    if below:
        for c in range(4):
            for k in range(4):
                if N[c][k] != 0 and below[k]:
                    products.append((c, below[k], None, N[c][k]))
    for e in range(2, d):
        Te, Gk = T.get(e), G.get(d + 1 - e)
        if not Te or not Gk:
            continue
        for c in range(4):
            for j in range(4):
                if Gk[j]:
                    products.append((c, _derivative(Te[c], j), Gk[j], -1))
    dens = [p1.den * (p2.den if p2 is not None else 1) * scale.denominator
            for _, p1, p2, scale in products]
    L = math.lcm(*dens)
    R = [{} for _ in range(4)]
    for (c, p1, p2, scale), q in zip(products, dens):
        if p2 is None:
            _shift_eps(p1, eps_order, R[c], scale.numerator * (L // q))
        else:
            _mul_slice(p1, p2, order, eps_order, R[c], scale.numerator * (L // q))
    return R, L


def _pinned(m3, m4):
    """The components pinned at a monomial with fast exponents m3, m4: the
    slow pair at a slow monomial, and s3's (s4's) component at s3 (s4) times
    a power of s3·s4 and a slow monomial, where that component is resonant."""
    if m3 == m4 == 0:
        return (0, 1)
    return {1: (2,), -1: (3,)}.get(m3 - m4, ())


def _pin(psi, key, content, comps):
    """The one normalisation: each separated coordinate is exactly what its
    map row reads off the transform.  At ``key`` set each component i in
    ``comps`` to v = -sum over j != i of content[i][j]·psi_j, skipping zero
    entries of ``content`` (which has a unit diagonal).  A zero v leaves
    psi_i as it is, so a unit content row pins nothing."""
    for i in comps:
        v = -sum(w * psi[j][key] for j, w in enumerate(content[i])
                 if j != i and w != 0 and key in psi[j])
        if v != 0:
            psi[i][key] = v


def _lift(t1, psi, Td):
    """Accumulate the state-space image t1·psi into the slices ``Td``."""
    for i in range(4):
        for j in range(4):
            if t1[i][j] != 0 and psi[j]:
                for key, c in psi[j].items():
                    accumulate(Td[i], key, t1[i][j] * c)
    return Td


def _assemble(slices, space, decode):
    comps = []
    for c in range(4):
        terms = {}
        for slc in slices.values():
            for key, coef, _, _ in slc[c]:
                terms[decode(key)] = Fraction(coef, slc[c].den)
        comps.append(TruncatedSeries(space, terms))
    return SeriesVector(comps)


def _projector(t1inv):
    """``t1inv`` as numerator rows over one denominator D, for
    ``_in_normal_coords``."""
    nums, D = _over_lcm([x for row in t1inv for x in row])
    return [nums[4 * i:4 * i + 4] for i in range(4)], D


def _in_normal_coords(R, L, proj):
    """Rows of t1inv·R, one per monomial key, in first-seen key order, from
    the residual numerators over L and the ``_projector`` numerators over D:
    summed as numerators and returned as values over D·L."""
    t1inv, D = proj
    rows = {}
    for c in range(4):
        for key, v in R[c].items():
            row = rows.setdefault(key, [0] * 4)
            for i in range(4):
                if t1inv[i][c] != 0:
                    row[i] = row[i] + t1inv[i][c] * v
    den = D * L
    return {key: [Fraction(x, den) for x in row] for key, row in rows.items()}


def _dot(row, vec):
    return sum(r * v for r, v in zip(row, vec))


# ---------------------------------------------------------------------------


@dataclass(slots=True)
class ResonanceEntry:
    component: int          # 1-based normal-form component
    monomial: tuple          # exponents over NF_VARS
    divisor: Fraction        # m·lambda - lambda_j
    disposition: str         # "kept-in-G" | "removed-into-T"


@dataclass
class ResonanceReport:
    """Homological bookkeeping of a graded construction: one entry per
    processed monomial with a nonzero residual coefficient."""

    entries: list = field(default_factory=list)

    def kept(self):
        return [e for e in self.entries if e.disposition == "kept-in-G"]

    def removed(self):
        return [e for e in self.entries if e.disposition == "removed-into-T"]

    def sorted_entries(self):
        return sorted(self.entries,
                      key=lambda e: (sum(e.monomial), e.component, e.monomial))

    def to_text(self):
        lines = ["component  monomial (s1 s2 s3 s4 eps)  divisor  disposition"]
        for e in self.sorted_entries():
            lines.append("%9d  %-26s  %-7s  %s" % (
                e.component, " ".join(map(str, e.monomial)), str(e.divisor),
                e.disposition))
        return "\n".join(lines) + "\n"


@dataclass
class GradedSeries:
    """One half of a graded construction, expanded over (s1..s4, eps): the
    coordinate transform (the physical fields in the separated coordinates)
    or the reduced evolution ds_j/dx."""

    series: SeriesVector
    order: int
    eps_order: int


def _frame(system: SpatialSystem, collapsed):
    """The linear set-up of either view: ``(eig, mu, t1, t1inv, content,
    quad, N)``, from one ``linalg.eigen`` call on a -mu, 0, 0, mu spectrum
    (any other is refused).  ``t1``'s columns are the slow pair dual to map
    rows 1-2 over the zero eigenvectors (``collapsed``: the eigenvector and
    its Jordan step), then the fast eigenvectors normalised by rows 3-4.
    ``content[i][j]`` is map row i read off column j (rows · t1): a unit
    diagonal by construction, and its slow 2x2 block the identity (checked).

    A rational mu keeps every entry an exact Fraction.  An irrational pair
    (embedding B) comes from ``linalg.eigen`` as floats, so the frame goes
    float: kernel and map rows through ``float()``, ``t1`` scaled by 1.0 and
    inverted by numpy.  Only ``construct_dense`` reads that frame: the
    collapsed view solves and checks its Jordan form exactly, and
    ``construct`` builds term by term in exact arithmetic, so both refuse it.
    """
    refusal = ("collapsed " if collapsed else "") + "spectrum outside the handled family"
    try:
        eig = linalg.eigen(system.linear)
    except linalg.LinalgError:
        raise ConstructionRefused(refusal) from None
    mu = eig.eigenvalues[-1]
    exact = isinstance(mu, Fraction)
    if collapsed and not exact:
        raise ConstructionRefused(refusal)
    (minus,), zero, (plus,) = eig.vectors
    # the collapsed view needs the zero's Jordan step, the graded view none
    step = dict(eig.generalized).get(0)
    if collapsed != (step is not None):
        raise ConstructionRefused(
            "collapsed zero eigenvalue has no Jordan step" if collapsed else
            "linear part has a generalised eigenvector; embed the system first")
    span = [zero[0], step] if collapsed else zero

    rows = coordinate_map().rows
    if not exact:
        span = [[float(x) for x in v] for v in span]
        rows = [[float(x) for x in r] for r in rows]
    cols = _slow_columns(span, rows) + [_fast_column(minus, rows[2]),
                                        _fast_column(plus, rows[3])]
    one = Fraction(1) if exact else 1.0
    t1 = [[cols[j][i] * one for j in range(4)] for i in range(4)]
    if exact:
        t1inv = linalg.Matrix(t1).inverse().rows
    else:
        t1inv = [list(map(float, r)) for r in np.linalg.inv(np.array(t1, dtype=float))]

    content = [[sum(r[c] * t1[c][j] for c in range(4)) for j in range(4)] for r in rows]
    if [r[:2] for r in content[:2]] != [[1, 0], [0, 1]]:
        raise ConstructionRefused("slow columns not aligned with the mean/gradient rows")
    quad, N = _perturbation_shape(system, one)
    if collapsed and any(x != 0 for row in N for x in row):
        raise ConstructionRefused("system still carries the embedding parameter")
    return eig, mu, t1, t1inv, content, quad, N


def _slow_columns(span, rows):
    """The two combinations of the vectors ``span`` dual to coordinate-map
    rows 1 and 2: row i · column j is 1 for i = j and 0 otherwise."""
    a11, a12 = _dot(rows[0], span[0]), _dot(rows[0], span[1])
    a21, a22 = _dot(rows[1], span[0]), _dot(rows[1], span[1])
    det = a11 * a22 - a12 * a21
    if det == 0:
        raise ConstructionRefused("slow eigenvectors degenerate under the map")
    cols = []
    for rhs in ((1, 0), (0, 1)):
        g1 = (a22 * rhs[0] - a12 * rhs[1]) / det
        g2 = (-a21 * rhs[0] + a11 * rhs[1]) / det
        cols.append([g1 * span[0][i] + g2 * span[1][i] for i in range(4)])
    return cols


def _fast_column(vector, row):
    """The fast eigenvector, normalised against its map row (3 or 4)."""
    scale = _dot(row, vector)
    if scale == 0:
        raise ConstructionRefused("fast eigenvector orthogonal to its map row")
    return [x / scale for x in vector]


def _perturbation_shape(system, one):
    """``quad``, per component the state-quadratic terms (i, j, coef) of the
    nonlinearity, and ``N``, the coupling; any other monomial is outside
    this family."""
    quad = [[] for _ in range(4)]
    for c, comp in enumerate(system.nonlinear):
        for e, coef in comp.terms.items():
            if sum(e) != 2:
                raise ConstructionRefused("unsupported perturbation monomial %r" % (e,))
            i, j = [k for k in range(4) for _ in range(e[k])]
            quad[c].append((i, j, coef * one))
    return quad, [[x * one for x in row] for row in system.coupling.rows]


def check_order(order):
    """Reject an order the packed construction cannot build (ValueError)."""
    if order < 2:
        raise ValueError("order must be at least 2")
    if order > 7:
        raise ValueError("order above 7 would overflow the packed exponents")


def check_eps_order(eps_order):
    """Reject a negative parameter-degree cap (ValueError); None is the default."""
    if eps_order is not None and eps_order < 0:
        raise ValueError("eps order must be non-negative")


def construct(system: SpatialSystem, order=3, eps_order=None):
    """Graded view of an embedding, exact, term by term: build (transform,
    evolution, ResonanceReport), the first two as ``GradedSeries``.  An
    irrational spectrum (embedding B at the reference model) is refused;
    ``construct_dense`` builds it in floats."""
    check_order(order)
    check_eps_order(eps_order)
    if eps_order is None:
        eps_order = DEFAULT_EPS_ORDER
    _, mu, t1, t1inv, content, quad, N = _frame(system, collapsed=False)
    if not isinstance(mu, Fraction):
        raise ConstructionRefused("irrational spectrum: the term-by-term construction "
                                  "is exact; construct_dense builds it in floats")
    proj = _projector(t1inv)

    T1, G1 = _linear_slices(t1, mu)
    T, G = {1: _freeze(T1)}, {1: _freeze(G1)}

    report = ResonanceReport()
    max_total = order + eps_order
    top = 1

    d = 2
    while d <= max_total and d <= 2 * top + 1:
        R, L = _homological_residual(T, G, quad, N, d, order, eps_order)
        keys = set()
        for c in range(4):
            keys.update(R[c])
        if keys:
            psi = [{} for _ in range(4)]
            g = [{} for _ in range(4)]
            rows = _in_normal_coords(R, L, proj)
            for key in keys:
                rvals = rows[key]
                m3, m4 = (key >> 8) & 15, (key >> 12) & 15
                mono = _decode5(key)
                for i in range(4):
                    r = rvals[i]
                    if r == 0:
                        continue
                    kint = (m4 - m3) - _EIGEN_PATTERN[i]
                    if kint == 0:
                        g[i][key] = r
                        report.entries.append(ResonanceEntry(
                            i + 1, mono, 0 * mu, "kept-in-G"))
                    else:
                        psi[i][key] = r / (kint * mu)
                        report.entries.append(ResonanceEntry(
                            i + 1, mono, kint * mu, "removed-into-T"))
                _pin(psi, key, content, _pinned(m3, m4))
            Td = _lift(t1, psi, [{} for _ in range(4)])
            if any(Td):
                T[d] = _freeze(Td)
                top = max(top, d)
            if any(g):
                G[d] = _freeze(g)
                top = max(top, d)
        d += 1
    # nothing reads the derivatives again: drop them before the series are
    # built, so that they do not add to the construction's peak memory
    for Td in T.values():
        for p in Td:
            p.derivs = None

    space = Space(NF_VARS, order, grading="eps", grading_order=eps_order)
    transform = GradedSeries(_assemble(T, space, _decode5), order, eps_order)
    evolution = GradedSeries(_assemble(G, space, _decode5), order, eps_order)
    return transform, evolution, report


# ---------------------------------------------------------------------------
# the graded view on a dense parameter axis (float)
#
# A state degree s holds T and G as float arrays of shape (M_s * 4, K + 1):
# row m * 4 + c is component c of the m-th monomial of ``_monomials(s)``,
# column e the parameter degree.  A bilinear term is a list of pairs
# (rx, ry, ro, w): it adds w·X[rx, a]·Y[ry, b] into R[ro, a + b].
#
# The float sums must not depend on the CPU, so only elementwise ufuncs,
# ``np.add.at`` and ``cumsum`` touch them, in one fixed order: the weight
# multiplies X first; a full convolution sums over a in increasing order;
# ``np.add.at`` adds the pairs of one term in list order.  Each residual
# entry R(s, e) receives, in this order: the quadratic products
# T(sa)·T(s - sa) for sa = 1..s-1, the products DT(sa)·G(s + 1 - sa) for
# sa = 2..s-1, then, as the recurrence in e solves the columns e' < e in
# increasing order, each column's N shift, DT(s, e')·G(1, ·) and
# DT(1, ·)·G(s, e').  No matrix product or pairwise sum is used.


@functools.lru_cache(maxsize=None)
def _monomials(s):
    """The degree-s state monomials in lexicographic order, and their index."""
    mons = [m for m in itertools.product(range(s + 1), repeat=4) if sum(m) == s]
    return mons, {m: i for i, m in enumerate(mons)}


def _pairs(terms):
    rx, ry, ro, w = zip(*terms) if terms else ((), (), (), ())
    return (np.array(rx, dtype=np.intp), np.array(ry, dtype=np.intp),
            np.array(ro, dtype=np.intp), np.array(w, dtype=float))


def _quad_pairs(quad, sa, sb):
    """The products coef·T_i(sa)·T_j(sb) of each quadratic term (i, j, coef)
    of component c."""
    (A, _), (B, _), (_, out) = _monomials(sa), _monomials(sb), _monomials(sa + sb)
    return _pairs([(ia * 4 + i, ib * 4 + j,
                    out[tuple(x + y for x, y in zip(ma, mb))] * 4 + c, coef)
                   for c in range(4) for i, j, coef in quad[c]
                   for ia, ma in enumerate(A) for ib, mb in enumerate(B)])


@functools.lru_cache(maxsize=None)
def _lie_pairs(sa, sb):
    """The products -DT(sa)·G(sb): d/ds_j of T_c's monomial times G_j's."""
    (A, _), (B, _), (_, out) = _monomials(sa), _monomials(sb), _monomials(sa + sb - 1)
    terms = []
    for ia, ma in enumerate(A):
        for j in range(4):
            if ma[j]:
                for ib, mb in enumerate(B):
                    io = out[tuple(x + y - (k == j) for k, (x, y) in enumerate(zip(ma, mb)))]
                    terms.extend((ia * 4 + c, ib * 4 + j, io * 4 + c, -ma[j])
                                 for c in range(4))
    return _pairs(terms)


def _live(pairs, X=None, Y=None):
    """The pairs whose rows of X and of Y (those given) are not identically
    zero: the others add only zeros."""
    rx, ry, ro, w = pairs
    keep = np.ones(len(rx), dtype=bool)
    if X is not None:
        keep &= X[rx].any(axis=1)
    if Y is not None:
        keep &= Y[ry].any(axis=1)
    return rx[keep], ry[keep], ro[keep], w[keep]


def _convolve_into(R, pairs, X, Y):
    """R[ro, a + b] += w·X[rx, a]·Y[ry, b] over every a + b within the cap."""
    rx, ry, ro, w = _live(pairs, X, Y)
    x, y = w[:, None] * X[rx], Y[ry]
    z = np.zeros(x.shape)
    n = x.shape[1]
    for a in range(n):
        z[:, a:] += x[:, a:a + 1] * y[:, :n - a]
    np.add.at(R, ro, z)


def _push_into(R, pairs, X, xcols, Y, ycols, e):
    """R[ro, e + k] += w·X[rx, xcols][k]·Y[ry, ycols][k] for k = 1, 2, ...:
    a slice of a same-degree coupling, one of the two column slices a
    single column."""
    rx, ry, ro, w = pairs
    block = (w[:, None] * X[rx, xcols]) * Y[ry, ycols]
    np.add.at(R, (ro[:, None], np.arange(e + 1, e + 1 + block.shape[1])), block)


def _times(mat, v):
    """v·mat^T for rows v (M, 4): out[:, i] = sum over c of mat[i, c]·v[:, c],
    summed in increasing c."""
    out = v[:, :1] * mat[:, 0]
    for c in range(1, 4):
        out = out + v[:, c:c + 1] * mat[:, c]
    return out


def construct_dense(system: SpatialSystem, order=3, eps_order=None):
    """Graded view of an embedding in floats on a dense parameter axis:
    ``(T, G)``, each ``{s: array (M_s, 4, K + 1)}`` over the monomials of
    ``_monomials(s)``, components and parameter degrees 0..K.

    The same coefficients as ``construct``, built state degree by state
    degree; the one graded construction that takes an irrational spectrum
    (embedding B's), which ``construct``, exact only, refuses.  Products of
    lower state degrees are truncated convolutions along the parameter axis;
    the same-degree couplings, N·T(s, e-1), DT(s)·G(1, >= 1) and
    DT(1, >= 1)·G(s), run as a recurrence in e (at s = 1 the last two are
    one term, DT(1, >= 1)·G(1, >= 1)).  Each (s, e) column is solved, pinned
    and lifted as ``construct`` does it, on the frame of ``_frame``.  The
    accumulation order is fixed (see the section comment), so the floats do
    not depend on the CPU.
    """
    check_order(order)
    check_eps_order(eps_order)
    K = DEFAULT_EPS_ORDER if eps_order is None else eps_order
    _, mu, t1, t1inv, content, quad, N = _frame(system, collapsed=False)
    content = [[float(x) for x in r] for r in content]
    t1, t1inv = np.array(t1, dtype=float), np.array(t1inv, dtype=float)
    quad = [[(i, j, float(coef)) for i, j, coef in q] for q in quad]
    mu = float(mu)
    lam = [n * mu for n in _EIGEN_PATTERN]

    T, G = {}, {}
    for s in range(1, order + 1):
        mons = _monomials(s)[0]
        M = len(mons)
        T[s] = Ts = np.zeros((M * 4, K + 1))
        G[s] = Gs = np.zeros((M * 4, K + 1))
        R = np.zeros((M * 4, K + 1))
        for sa in range(1, s):
            _convolve_into(R, _quad_pairs(quad, sa, s - sa), T[sa], T[s - sa])
        for sa in range(2, s):
            _convolve_into(R, _lie_pairs(sa, s + 1 - sa), T[sa], G[s + 1 - sa])
        nrx, _, nro, nw = _pairs([(m * 4 + k, 0, m * 4 + c, N[c][k]) for m in range(M)
                                  for c in range(4) for k in range(4) if N[c][k] != 0])
        lie_s1, lie_1s = _lie_pairs(s, 1), _lie_pairs(1, s)
        if s > 1:
            # T(1) and G(1) are final: drop the pairs their zero rows kill
            lie_s1, lie_1s = _live(lie_s1, Y=G[1][:, 1:]), _live(lie_1s, X=T[1][:, 1:])

        # per monomial: the divisors k·mu, the kept (resonant) slots and,
        # per component, the monomials where ``_pinned`` pins it
        kint = np.array([[(m[3] - m[2]) - p for p in _EIGEN_PATTERN] for m in mons])
        kept = kint == 0
        div = np.where(kept, 1.0, kint * mu)
        pins = [np.array([i in _pinned(m[2], m[3]) for m in mons]) for i in range(4)]

        for e in range(K + 1):
            if s == 1 and e == 0:
                for j in range(4):
                    m = _monomials(1)[1][tuple(int(k == j) for k in range(4))]
                    Ts[m * 4:m * 4 + 4, 0] = t1[:, j]
                    Gs[m * 4 + j, 0] = lam[j]
            else:
                nc = _times(t1inv, R[:, e].reshape(M, 4))
                psi = np.where(kept, 0.0, nc / div)
                g = np.where(kept, nc, 0.0)
                for i, at in enumerate(pins):  # ``_pin``, one component at a time
                    psi[at, i] = -sum(w * psi[at, j] for j, w in enumerate(content[i])
                                      if j != i and w != 0)
                Ts[:, e] = _times(t1, psi).ravel()
                Gs[:, e] = g.ravel()
            if e == K:
                break
            np.add.at(R[:, e + 1], nro, nw * Ts[nrx, e])
            col = slice(e, e + 1)
            if s > 1:
                rest = slice(1, K - e + 1)
                _push_into(R, lie_s1, Ts, col, G[1], rest, e)
                _push_into(R, lie_1s, T[1], rest, Gs, col, e)
            elif e >= 1:
                # DT(1, a)·G(1, b) over a, b >= 1, each pair once, when its
                # later column e is solved: b = 1..e, then a = 1..e-1
                _push_into(R, lie_s1, Ts, col, Gs, slice(1, min(e, K - e) + 1), e)
                _push_into(R, lie_s1, Ts, slice(1, min(e - 1, K - e) + 1), Gs, col, e)
    return ({s: a.reshape(-1, 4, K + 1) for s, a in T.items()},
            {s: a.reshape(-1, 4, K + 1) for s, a in G.items()})


class UnityNormalForm(tuple):
    """The 4-tuple ``(T, G, leftovers, retained)`` that ``construct_at_unity``
    returns; ``eigen`` is the decomposition of the unembedded matrix it was
    built from."""

    def __new__(cls, parts, eigen):
        self = super().__new__(cls, parts)
        self.eigen = eigen
        return self


def construct_at_unity(system: SpatialSystem, order=3):
    """Parameter-1 view: the separated normal form of the unembedded system
    (every embedding collapsed at parameter 1), exact rationals.

    Returns ``(T, G, leftovers, retained)`` as a ``UnityNormalForm``: the
    transform and the evolution as series vectors over (s1..s4), then the
    resonant terms the kernel freedom could not remove, as
    ``(component, monomial, value)`` triples:
    ``leftovers`` in a slow component (they break the separated form),
    ``retained`` in a fast one (still divisible by its own variable).
    ``leftovers`` is empty through cubic order; genuine obstructions appear
    from quartic order on.

    The unembedded linear part has a defective zero eigenvalue; in the
    aligned basis it is the Jordan matrix with unit nilpotent entry from
    the gradient direction into the mean.  The nilpotent both couples the
    per-monomial homological equations (a short ladder in the slow
    exponents) and supplies the freedom that removes every resonant term
    outside the separated form.  Kernel coefficients not consumed by that
    removal stay zero; cross-coefficients one degree down are adjusted when
    a removal needs them (their influence enters through the quadratic
    interaction).
    """
    check_order(order)
    eig, mu, t1, t1inv, content, quad, _ = _frame(system, collapsed=True)
    # the slow pair over the kernel and the Jordan step has A·c2 = h·c1
    # (h = 1 in this family): A in this basis is diag(0,0,-mu,mu) plus the
    # (1,2) nilpotent entry
    nil = (linalg.Matrix(t1inv) * system.linear * linalg.Matrix(t1)).rows
    expected = [[0, nil[0][1], 0, 0], [0, 0, 0, 0], [0, 0, -mu, 0], [0, 0, 0, mu]]
    if nil != expected or nil[0][1] == 0:
        raise ConstructionRefused("collapsed linear part is not in Jordan-aligned form")
    h = nil[0][1]
    proj = _projector(t1inv)

    T1, G1 = _linear_slices(t1, mu)
    G1[0][1 << _SHIFTS[1]] = h  # d s1/dx = s2 at linear order
    T, G = {1: _freeze(T1)}, {1: _freeze(G1)}
    # T[d-1] stays open through degree d: the knob step writes into it after
    # the degree-d residual has read it.  ``last`` holds its dicts; it is
    # frozen again after a write, and the earlier packing is dropped.
    last = T1

    def resonance_class(i, m3, m4):
        # -1 removable, 0 resonant, 1 resonant and mixing both fast variables
        if m4 - m3 != _EIGEN_PATTERN[i]:
            return -1
        return 1 if min(m3, m4) >= 1 else 0

    def cross_kernel_slots(d):
        return sorted((i, _encode(m)) for m in _monomials(d)[0] for i in range(4)
                      if resonance_class(i, m[2], m[3]) == 1)

    def knob_influence(j, key, d):
        phi = [_pack({key: t1[c][j]} if t1[c][j] != 0 else {}) for c in range(4)]
        R, L = _homological_residual({1: T[1], d - 1: phi}, G, quad, None, d, order, 0)
        return _in_normal_coords(R, L, proj)

    leftovers = []
    retained = []
    pending = []
    for d in range(2, order + 1):
        rvec = _in_normal_coords(*_homological_residual(T, G, quad, None, d, order, 0),
                                 proj)

        def rget(i, key):
            row = rvec.get(key)
            return row[i] if row else Fraction(0)

        def net_residual(i, key):
            # the residual less the ladder and mixing entries already fixed
            # at this degree
            r = rget(i, key)
            if (key >> 4) & 15:
                r -= h * ((key & 15) + 1) * psi[i].get(key + 1 - 16, Fraction(0))
            if i == 0:
                r += h * psi[1].get(key, Fraction(0))
            return r

        # stage A: zero every resonant residual outside the separated form,
        # using same-degree cross transform terms (nilpotent couplings) and
        # the cross kernel slots of the previous degree
        cross_now = cross_kernel_slots(d)
        unknowns = [("psi", i, key) for (i, key) in cross_now]
        unknowns += [("knob", i, key) for (i, key) in pending]
        influences = {(i, key): knob_influence(i, key, d) for (i, key) in pending}
        # every cross-class slot at this degree is a row of the solve, so a
        # kernel assignment can never silently unbalance a quiet slot
        targets = sorted(cross_now, key=lambda t: (t[1], t[0]))
        psi = [{} for _ in range(4)]
        wrote = False
        if targets and unknowns:
            # residual_after = r + sum(knob dr) - L(psi) at every target, so
            # solve  L(psi) - sum(knob dr) = r  with unused unknowns zero.
            rows, rhs = [], []
            for (i, key) in targets:
                m1 = key & 15
                m2 = (key >> 4) & 15
                row = []
                for kind, uj, ukey in unknowns:
                    coef = Fraction(0)
                    if kind == "psi":
                        # nilpotent ladder: s2 d/ds1 acting on the slot
                        if uj == i and m2 >= 1 and ukey == key + 1 - 16:
                            coef += h * (m1 + 1)
                        # mixing of the generalised pair into the mean row
                        if i == 0 and uj == 1 and ukey == key:
                            coef += -h
                    else:
                        coef -= influences[(uj, ukey)].get(key, (0, 0, 0, 0))[i]
                    row.append(coef)
                rows.append(row)
                rhs.append(rget(i, key))
            # inconsistent rows stay unsatisfied; stage B keeps their residual
            x, _ = linalg.solve(rows, rhs, len(unknowns))
            for (kind, uj, ukey), xv in zip(unknowns, x):
                if xv == 0:
                    continue
                if kind == "psi":
                    # stage B's correction formulas consume these values
                    psi[uj][ukey] = xv
                else:
                    for c in range(4):
                        if t1[c][uj] != 0:
                            accumulate(last[c], ukey, t1[c][uj] * xv)
                    wrote = True
                    for key2, drow in influences[(uj, ukey)].items():
                        row = rvec.setdefault(key2, [Fraction(0)] * 4)
                        for i in range(4):
                            row[i] = row[i] + xv * drow[i]

        # stage B: triangular sweep over the remaining slots, in increasing
        # gradient exponent so the ladder partner is already known; within a
        # monomial the generalised component precedes the mean component.
        # Keys touched only through corrections from assigned kernel slots
        # join the sweep alongside the residual-bearing ones.
        touched = set(rvec)
        for i in range(4):
            for key in psi[i]:
                if key & 15:
                    touched.add(key - 1 + 16)
        touched.update(psi[1])
        order_keys = sorted(touched, key=lambda k: ((k >> 4) & 15, k))
        g = [{} for _ in range(4)]
        for key in order_keys:
            m3, m4 = (key >> 8) & 15, (key >> 12) & 15
            for i in (1, 0, 2, 3):
                cls = resonance_class(i, m3, m4)
                r = net_residual(i, key)
                if cls == -1:
                    div = ((m4 - m3) - _EIGEN_PATTERN[i]) * mu
                    if r != 0:
                        psi[i][key] = r / div
                elif cls == 0:
                    if i >= 2:
                        if r != 0:
                            g[i][key] = r
                    # slow components handled after the fast pinning below
                else:
                    if r != 0:
                        # resonant content the kernel freedom could not reach;
                        # in a fast component it is still divisible by the
                        # component's own variable, so only slow-component
                        # occurrences break the separated structure
                        g[i][key] = r
                        if i <= 1:
                            leftovers.append((i + 1, _decode4(key), r))
                        else:
                            retained.append((i + 1, _decode4(key), r))
            _pin(psi, key, content, _pinned(m3, m4))
        # slow-component resonant content, after pinning corrections
        for key in order_keys:
            if (key >> 8) & 15 or (key >> 12) & 15:
                continue
            for i in (1, 0):
                r = net_residual(i, key)
                if r != 0:
                    g[i][key] = r
        if wrote:
            T[d - 1] = _freeze(last)
        last = _lift(t1, psi, [{} for _ in range(4)])
        if any(last):
            T[d] = _freeze(last)
        if any(g):
            G[d] = _freeze(g)
        # only true kernel slots may be deferred: a slot with a nonzero
        # nilpotent image would disturb this degree if assigned later
        pending = [(i, key) for (i, key) in cross_now
                   if key not in psi[i] and (key & 15) == 0 and i != 1]

    space = Space(NF_STATE, order)
    return UnityNormalForm((_assemble(T, space, _decode4),
                            _assemble(G, space, _decode4), leftovers, retained), eig)


def verify_conjugacy(transform, evolution, system):
    """Recompute DT·G - (linear + eps coupling)·T - F(T) directly on the
    public series operations.

    Works for either the graded pair against an embedding, or the
    parameter-1 pair against the unembedded system (whose zero coupling
    needs no eps variable).  Independent of the sliced construction loop;
    every representable term must vanish.
    """
    Tv, Gv = (v.series if isinstance(v, GradedSeries) else v
              for v in (transform, evolution))
    space = Tv.space
    bindings = dict(zip(system.nonlinear.space.names, Tv))
    resid = []
    for c in range(4):
        total = TruncatedSeries.zero(space)
        for j, name in enumerate(NF_STATE):
            total = total + Tv[c].derivative(name) * Gv[j]
        lin = TruncatedSeries.zero(space)
        for k in range(4):
            coef = system.linear[c, k]
            if coef != 0:
                lin = lin + Tv[k] * coef
            coef = system.coupling[c, k]
            if coef != 0:
                lin = lin + TruncatedSeries.variable(space, "eps") * Tv[k] * coef
        resid.append(total - lin - system.nonlinear[c].substitute(bindings))
    return SeriesVector(resid)


def _separated_sector(series):
    """Terms not mixing both fast variables: the sector every downstream
    consumer reads, and the one whose parameter series resum."""
    out = {}
    for e, c in series.terms.items():
        if min(e[2], e[3]) == 0:
            out[e[:4]] = c
    return out


def wynn_epsilon(sums):
    """Wynn's epsilon-algorithm on the last ``WYNN_WIDTH`` partial sums.

    Returns the deepest even column's last entry: with the full width the
    epsilon_10 column, the [5/5] Pade value of the series.  A zero
    difference anywhere in the table (a sequence that has stopped moving,
    in the partial sums or in a converged column) returns the last entry of
    the deepest even column reached, so a terminated series gives its last
    partial sum; fewer than 3 sums give the last one.
    """
    if len(sums) < 3:
        return sums[-1]
    col = list(sums[-WYNN_WIDTH:])
    older = [0] * (len(col) + 1)
    best = col[-1]
    for k in range(1, 2 * ((len(col) - 1) // 2) + 1):
        nxt = []
        for i in range(len(col) - 1):
            diff = col[i + 1] - col[i]
            if diff == 0:
                return best
            nxt.append(older[i + 1] + 1 / diff)
        older, col = col, nxt
        if k % 2 == 0:
            best = col[-1]
    return best


@dataclass
class CrossCheck:
    """Agreement of the two embedding families at parameter value 1.

    ``max_discrepancy`` compares the resummed separated sectors of the two
    graded constructions coefficientwise; ``resummation_gap`` compares the
    resummation of embedding A against the parameter-1 construction;
    ``tail_estimate`` is the largest change of embedding B's Wynn value when
    its last ``TAIL_STEP`` parameter degrees are dropped (infinite when the
    cap is below ``TAIL_STEP``).  The check passes when all three are within
    ``tolerance``, the ``CROSS_TOLERANCE`` it was made with.
    """

    identical: bool
    max_discrepancy: float
    resummation_gap: float
    tail_estimate: float
    order: int
    eps_order: int
    tolerance: float

    def __bool__(self):
        return self.identical


def _worse(worst, value):
    """The larger of two discrepancies, where NaN is the worst: ``max`` keeps
    a number over a NaN that follows it, and would let a non-finite Wynn
    value of B pass."""
    return value if math.isnan(value) or value > worst else worst


def cross_validate_embeddings(transform, evolution, direct):
    """Check the parameter-1 normal form against both embedding families.

    ``transform`` and ``evolution`` are the caller's graded construction of
    embedding A; ``direct`` is the (transform, evolution) pair that
    ``construct_at_unity`` built at the same order.  Only embedding B's
    graded view is built here, at A's ``order`` and ``eps_order`` (K), by
    ``construct_dense``: in floats on a dense parameter axis, at every
    model, rational or not.  Its accumulation order is fixed and uses no
    matrix product or pairwise sum, so the report's float lines are the
    same on every CPU.

    A's parameter series terminate (at degree 10 at order 3), so A is
    resummed exactly by ``TruncatedSeries.grading_at_one``: each state
    monomial's coefficients are summed over the parameter powers in stored
    term order, and sums that cancel to zero are dropped.  B's series do
    not terminate; each separated-sector monomial of B is resummed by
    ``wynn_epsilon`` on its partial sums over parameter degree 0..K (a
    ``cumsum`` along its row).  The separated sectors are compared
    coefficientwise with each other, and A with the parameter-1 pair as
    Fractions, so the gap is exact before it is rounded to a float.  The
    tail estimate reads B's convergence from the same build: the largest
    change of B's Wynn value between the partial sums to K and to
    K - ``TAIL_STEP``.  A non-finite Wynn value makes the discrepancy and
    the tail NaN or infinite, and so fails the check against ``CROSS_TOLERANCE``.
    """
    from .system import build_embedding

    order, eps_order = transform.order, transform.eps_order
    dense = construct_dense(build_embedding("B"), order=order, eps_order=eps_order)
    worst = 0.0
    gap = 0.0
    tail = 0.0 if eps_order >= TAIL_STEP else math.inf
    for a, b, unit in zip((transform, evolution), dense, direct):
        for c, (ca, cu) in enumerate(zip(a.series, unit)):
            da = _separated_sector(ca.grading_at_one())
            db = {}
            for s, coefs in b.items():
                mons = _monomials(s)[0]
                for m, row in zip(mons, np.cumsum(coefs[:, c, :], axis=1).tolist()):
                    if min(m[2], m[3]) == 0:
                        db[m] = wynn_epsilon(row)
                        if eps_order >= TAIL_STEP:
                            tail = _worse(tail, abs(db[m] - wynn_epsilon(row[:-TAIL_STEP])))
            for key in set(da) | set(db):
                worst = _worse(worst, abs(float(da.get(key, 0)) - float(db.get(key, 0))))
            du = _separated_sector(cu)
            for key in set(da) | set(du):
                gap = _worse(gap, float(abs(da.get(key, 0) - du.get(key, 0))))
    tolerance = CROSS_TOLERANCE
    passed = worst <= tolerance and gap <= tolerance and tail <= tolerance
    return CrossCheck(passed, worst, gap, tail, order, eps_order, tolerance)
