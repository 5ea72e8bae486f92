"""Order-by-order separation of slow, stable and unstable spatial modes.

A near-identity coordinate change u = T(s) and reduced evolution
ds/dx = G(s) with DT(s)·G(s) = F(T(s)) up to the truncation caps are built
in two views: ``construct`` builds the graded view of an embedding, whose
linear part is diagonalisable with eigenvalues {0, 0, -mu, +mu}, and
``construct_at_unity`` builds the parameter-1 view of the unembedded system.

The graded view expands in the embedding parameter, treated as an extra
zero-eigenvalue variable with its own cap.  Residual monomials with nonzero
divisor m·lambda - lambda_j (an exact integer-multiple test, valid even when
mu is irrational) are removed into T; zero-divisor monomials stay in G and
are recorded in the resonance report.  Resonant transform coefficients are
fixed minimally: slow monomials of the two slow components are pinned so the
slow manifold keeps the mean field and its gradient as parameters, and all
other kernel coefficients are zero.  With this normalisation the resonant
sector mixing both fast variables retains formal cross terms; they are
surfaced in the report, and their parameter series do not resum.

The parameter-1 view resolves that sector.  At parameter value 1 every
embedding collapses to the same unembedded system, whose zero eigenvalue is
defective; in the collapse-aligned basis the linear part is the exact Jordan
form diag-plus-nilpotent, and the extra nilpotent direction makes the cross
terms removable.  ``construct_at_unity`` builds this normal form directly
from the unembedded system: through cubic order the slow equations involve
slow variables only and each fast equation is divisible by its own variable
(beyond cubic order a few resonant obstructions are genuine; they are kept
and surfaced, never dropped).  It is the object the boundary-condition
derivation consumes.  The graded views of the embeddings only verify it: on
the separated sector each resums exactly onto it, which
``cross_validate_embeddings`` checks.

Both views run on one construction kernel.  ``_homological_residual``
assembles each degree's residual from the slices below it (the parameter
shift only in the graded view), and ``_in_normal_coords`` projects it onto
the separated coordinates.  The parameter-1 view's knob influence is the same
residual of the unit kernel slot alone (the residual is linear in the slice
one degree down).  ``_pin_slow`` holds the slow-manifold parametrisation,
``_lift`` maps solved coefficients back to the state and ``_assemble`` turns
the slices into series.  The parameter-1 view takes its kernel, Jordan step
and fast eigenvectors from one ``linalg.eigen`` call on the unembedded
matrix, and solves its coupled kernel slots with ``linalg.solve``.

A slice (one component's terms of one degree) is a dict while a step still
writes it, and is frozen once it is finished: packed into a list of
``(key, coef, sdeg, edeg)`` terms that replaces the dict.  Products read the
packed terms directly, and the derivative of a stored transform slice is
built once per variable, at its first use, and reused at every later
degree.  In the graded view a slice is finished when it is stored.  In the
parameter-1 view the knob step of degree d writes into the transform slice
of degree d-1 after the degree-d residual has read it, so that slice is
frozen again after the write; the packing the residual read is dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import linalg
from .series import SeriesVector, Space, TruncatedSeries, accumulate
from .system import SpatialSystem, coordinate_map

NF_VARS = ("s1", "s2", "s3", "s4", "eps")
NF_STATE = ("s1", "s2", "s3", "s4")
DEFAULT_EPS_ORDER = 48
_EIGEN_PATTERN = (0, 0, -1, 1)  # integer multiples of mu per component


class ConstructionRefused(ValueError):
    """The linear part cannot be handled (not diagonalisable, or the
    spectrum is not the slow/stable/unstable family)."""


# ---------------------------------------------------------------------------
# packed-exponent slice arithmetic (construction internals)
#
# A slice is a dict {packed key: coef} while a step writes it and a frozen
# ``_Slice`` once it is finished (see the module docstring).  Products read
# frozen slices; a transient dict, such as a knob's unit slice, is packed
# where it is used.

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
    """A frozen slice: (key, coef, sdeg, edeg) terms in insertion order, the
    largest state and parameter degrees, and the derivative per state
    variable, built on first use."""

    __slots__ = ("smax", "emax", "derivs")

    def __init__(self, terms):
        super().__init__(terms)
        self.smax = max((t[2] for t in self), default=0)
        self.emax = max((t[3] for t in self), default=0)
        self.derivs = None


def _pack(d):
    """Freeze the dict slice ``d``."""
    return _Slice([(k, c,
                    (k & 15) + ((k >> 4) & 15) + ((k >> 8) & 15) + ((k >> 12) & 15),
                    k >> 16) for k, c in d.items()])


def _freeze(slices):
    return [_pack(d) for d in slices]


def _mul_slice(p1, p2, order, eps_order, out, scale=1):
    """Accumulate scale·p1·p2 into the dict ``out``, dropping products
    beyond the caps.

    Exponents stay below 8 (``order`` <= 7), so packed keys add without carry
    and a product is admissible exactly when ``k2`` fits the budget that
    ``k1`` leaves.  The larger operand is used whole when its largest degrees
    fit that budget, and is otherwise filtered once per budget, keeping its
    order: the pairs are visited in the nested-loop order, so float sums and
    the insertion order of ``out`` do not change.
    """
    if not p1 or not p2:
        return
    if len(p1) > len(p2):
        p1, p2 = p2, p1
    smax2, emax2 = p2.smax, p2.emax
    admissible = {}
    get = out.get
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
        # series.accumulate inlined: calling it here slows embedding B by ~20%
        for k2, c2, _, _ in row:
            c = c1s * c2
            if c == 0:
                continue
            k = k1 + k2
            cur = get(k)
            if cur is None:
                out[k] = c
            else:
                cur = cur + c
                if cur == 0:
                    del out[k]
                else:
                    out[k] = cur


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
        dp = p.derivs[j] = _Slice([(k - unit, c if m == 1 else c * m, s - 1, e)
                                   for k, c, s, e in p if (m := (k >> sh) & 15)])
    return dp


def _linear_slices(t1, lam):
    """Degree-1 slices of T (the aligned columns) and of G (the rates)."""
    units = [1 << _SHIFTS[j] for j in range(4)]
    T1 = [{units[j]: t1[i][j] for j in range(4) if t1[i][j] != 0} for i in range(4)]
    G1 = [({units[i]: lam[i]} if lam[i] != 0 else {}) for i in range(4)]
    return T1, G1


def _homological_residual(T, G, quad, N, d, order, eps_order):
    """Degree-d part of F(T) - DT·G from the slices below degree d.

    Per state component: the quadratic products, then the parameter shift
    of T[d-1] by the matrix ``N`` (when given), then the -DT·G terms.  Every
    slice of ``T`` and ``G`` is frozen; the derivative of a T slice is built
    at its first use and reused at every later degree.
    """
    R = [{} for _ in range(4)]
    for c in range(4):
        for (i, j, coef) in quad[c]:
            for e in range(1, d):
                Ti, Tj = T.get(e), T.get(d - e)
                if Ti and Tj:
                    _mul_slice(Ti[i], Tj[j], order, eps_order, R[c], coef)
    prev = T.get(d - 1) if N is not None else None
    if prev:
        for c in range(4):
            for k in range(4):
                if N[c][k] != 0 and prev[k]:
                    _shift_eps(prev[k], eps_order, R[c], N[c][k])
    for e in range(2, d):
        Te, Gk = T.get(e), G.get(d + 1 - e)
        if not Te or not Gk:
            continue
        for c in range(4):
            for j in range(4):
                if Gk[j]:
                    _mul_slice(_derivative(Te[c], j), Gk[j], order, eps_order,
                               R[c], -1)
    return R


def _pin_slow(psi, key, alpha, beta):
    """Keep the slow-manifold parametrisation exactly mean/gradient: set the
    slow components of ``psi`` at a slow ``key`` against its fast content."""
    p2, p3 = psi[2].get(key, 0), psi[3].get(key, 0)
    for i, w in ((0, alpha), (1, beta)):
        v = -(w[2] * p2 + w[3] * p3) / 2
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
                terms[decode(key)] = coef
        comps.append(TruncatedSeries(space, terms))
    return SeriesVector(comps)


def _in_normal_coords(R, t1inv):
    """Rows of t1inv·R, one per monomial key, in first-seen key order."""
    rows = {}
    for c in range(4):
        for key, v in R[c].items():
            row = rows.setdefault(key, [Fraction(0)] * 4)
            for i in range(4):
                if t1inv[i][c] != 0:
                    row[i] = row[i] + t1inv[i][c] * v
    return rows


def _dot(row, vec):
    return sum(r * v for r, v in zip(row, vec))


# ---------------------------------------------------------------------------


@dataclass(slots=True)
class ResonanceEntry:
    component: int          # 1-based normal-form component
    monomial: tuple          # exponents over NF_VARS
    divisor: object          # m·lambda - lambda_j (exact when mu is rational)
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


def _aligned_eigenbasis(system: SpatialSystem, cmap):
    """Columns (slow1, slow2, stable, unstable) with the slow pair pinned by
    coordinate-map rows 1-2 and the fast columns normalised by rows 3-4.

    Returns (columns, mu, exact) where ``exact`` says whether the lane is
    rational.
    """
    eig = linalg.eigen(system.linear)
    if not eig.diagonalizable:
        raise ConstructionRefused(
            "linear part has a generalised eigenvector; embed the system first")
    by_val = dict()
    for (lam, mult), basis in zip(eig.values, eig.vectors):
        by_val[lam if isinstance(lam, Fraction) else float(lam)] = (mult, basis)
    zero = next((v for v in by_val if v == 0), None)
    if zero is None or by_val[zero][0] != 2:
        raise ConstructionRefused("expected a double zero eigenvalue")
    fast = sorted((v for v in by_val if v != 0), key=float)
    if len(fast) != 2 or float(fast[0]) != -float(fast[1]):
        raise ConstructionRefused("expected a symmetric stable/unstable pair")
    mu = fast[1]
    exact = isinstance(mu, Fraction)

    kernel = by_val[zero][1]
    if len(kernel) != 2:
        raise ConstructionRefused("zero eigenspace is not two-dimensional")
    if not exact:
        kernel = [[float(x) for x in v] for v in kernel]

    rows = cmap.rows if exact else [[float(x) for x in r] for r in cmap.rows]
    # slow columns: combinations of the kernel with rows 1,2 of the map
    a11, a12 = _dot(rows[0], kernel[0]), _dot(rows[0], kernel[1])
    a21, a22 = _dot(rows[1], kernel[0]), _dot(rows[1], kernel[1])
    det = a11 * a22 - a12 * a21
    if det == 0:
        raise ConstructionRefused("slow eigenvectors degenerate under the map")
    cols = []
    for rhs in ((1, 0), (0, 1)):
        g1 = (a22 * rhs[0] - a12 * rhs[1]) / det
        g2 = (-a21 * rhs[0] + a11 * rhs[1]) / det
        cols.append([g1 * kernel[0][i] + g2 * kernel[1][i] for i in range(4)])
    cols.append(_fast_column(by_val[fast[0]][1], rows[2]))
    cols.append(_fast_column(by_val[fast[1]][1], rows[3]))
    return cols, mu, exact


def _fast_column(basis, row):
    """The simple fast eigenvector, normalised against its map row (3 or 4)."""
    if len(basis) != 1:
        raise ConstructionRefused("fast eigenspaces must be simple")
    scale = _dot(row, basis[0])
    if scale == 0:
        raise ConstructionRefused("fast eigenvector orthogonal to its map row")
    return [x / scale for x in basis[0]]


def _perturbation_shape(system, one):
    """Split the perturbation into state-quadratic terms and the
    parameter-linear matrix; anything else is outside this family."""
    quad = [[] for _ in range(4)]
    N = [[0] * 4 for _ in range(4)]
    has_eps = False
    for c, comp in enumerate(system.nonlinear):
        for e, coef in comp.terms.items():
            if e[4] == 0 and sum(e[:4]) == 2:
                idx = [k for k in range(4) for _ in range(e[k])]
                quad[c].append((idx[0], idx[1], coef * one))
            elif e[4] == 1 and sum(e[:4]) == 1:
                N[c][next(k for k in range(4) if e[k])] += coef * one
                has_eps = True
            else:
                raise ConstructionRefused("unsupported perturbation monomial %r" % (e,))
    return quad, N, has_eps


def check_order(order):
    """Reject an order the packed construction cannot build (ValueError)."""
    if order < 2:
        raise ValueError("order must be at least 2")
    if order > 7:
        raise ValueError("order above 7 would overflow the packed exponents")


def construct(system: SpatialSystem, order=3, eps_order=None):
    """Graded view of an embedding: build (transform, evolution,
    ResonanceReport), the first two as ``GradedSeries``."""
    check_order(order)
    cmap = coordinate_map()
    if eps_order is None:
        eps_order = DEFAULT_EPS_ORDER
    cols, mu, exact = _aligned_eigenbasis(system, cmap)

    one = Fraction(1) if exact else 1.0
    t1 = [[cols[j][i] * one for j in range(4)] for i in range(4)]  # rows: state
    if exact:
        t1inv = linalg.Matrix(t1).inverse().rows
    else:
        t1inv = [list(map(float, r)) for r in np.linalg.inv(np.array(t1, dtype=float))]

    alpha = [t1[0][j] + t1[1][j] for j in range(4)]
    beta = [t1[2][j] + t1[3][j] for j in range(4)]
    if alpha[0] != 2 or alpha[1] != 0 or beta[0] != 0 or beta[1] != 2:
        raise ConstructionRefused("slow columns not aligned with the mean/gradient rows")
    # map-row content of each column, for keeping the fast columns aligned
    # with rows 3 and 4 at every parameter order (automatic when those rows
    # are left eigenvectors of the base matrix, as for one embedding family)
    row3 = [sum((cmap.rows[2][c] * one) * t1[c][j] for c in range(4)) for j in range(4)]
    row4 = [sum((cmap.rows[3][c] * one) * t1[c][j] for c in range(4)) for j in range(4)]

    quad, N, _ = _perturbation_shape(system, one)
    lam = [n * mu for n in _EIGEN_PATTERN]

    T1, G1 = _linear_slices(t1, lam)
    T, G = {1: _freeze(T1)}, {1: _freeze(G1)}

    report = ResonanceReport()
    max_total = order + eps_order
    top = 1

    d = 2
    while d <= max_total and d <= 2 * top + 1:
        R = _homological_residual(T, G, quad, N, d, order, eps_order)
        keys = set()
        for c in range(4):
            keys.update(R[c])
        if keys:
            psi = [{} for _ in range(4)]
            g = [{} for _ in range(4)]
            rows = _in_normal_coords(R, t1inv)
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
                if m3 == 0 and m4 == 0:
                    _pin_slow(psi, key, alpha, beta)
                elif m3 - m4 == 1:
                    # resonant dressing of the stable direction: hold the
                    # map-row-3 content of the transform at exactly s3
                    v = -sum(row3[j] * psi[j].get(key, 0) for j in (0, 1, 3))
                    if v != 0:
                        psi[2][key] = v
                elif m4 - m3 == 1:
                    v = -sum(row4[j] * psi[j].get(key, 0) for j in (0, 1, 2))
                    if v != 0:
                        psi[3][key] = v
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
    cmap = coordinate_map()
    A = system.linear
    eig = linalg.eigen(A)
    mu = Fraction(2, 3)
    if eig.eigenvalues != [-mu, 0, 0, mu]:
        raise ConstructionRefused("collapsed spectrum outside the handled family")
    by_val = dict(zip((lam for lam, _ in eig.values), eig.vectors))

    kernel = by_val[0]
    if len(kernel) != 1:
        raise ConstructionRefused("collapsed zero eigenspace must be a single line")
    c1 = kernel[0]
    s = _dot(cmap.rows[0], c1)
    if s == 0:
        raise ConstructionRefused("slow eigenvector orthogonal to the mean row")
    c1 = [x / s for x in c1]
    # the Jordan step solves A·w = kernel[0], so w/s solves A·c2 = c1
    c2 = dict(eig.generalized).get(0)
    if c2 is None:
        raise ConstructionRefused("no generalised slow direction")
    c2 = [x / s for x in c2]
    # normalise the generalised column against map rows 1 and 2
    #   c2 -> c2 + t*c1 with row1·c2 = 0, then scale pair so row2·c2 = 1
    t = -_dot(cmap.rows[0], c2) / _dot(cmap.rows[0], c1)
    c2 = [x + t * y for x, y in zip(c2, c1)]
    s2 = _dot(cmap.rows[1], c2)
    if s2 == 0:
        raise ConstructionRefused("generalised direction orthogonal to the gradient row")
    c2 = [x / s2 for x in c2]
    c1 = [x * s2 for x in c1]  # keeps A·c2 = c1 with a unit nilpotent entry
    s1 = _dot(cmap.rows[0], c1)
    c1 = [x / s1 for x in c1]
    c2 = [x / s1 for x in c2]
    cols = [c1, c2, _fast_column(by_val[-mu], cmap.rows[2]),
            _fast_column(by_val[mu], cmap.rows[3])]
    t1 = [[cols[j][i] for j in range(4)] for i in range(4)]
    t1m = linalg.Matrix(t1)
    t1inv_m = t1m.inverse()
    t1inv = t1inv_m.rows
    # A in this basis: diag(0,0,-mu,mu) plus the (1,2) nilpotent entry
    nil = (t1inv_m * A * t1m).rows
    expected = [[0, nil[0][1], 0, 0], [0, 0, 0, 0], [0, 0, -mu, 0], [0, 0, 0, mu]]
    if nil != expected or nil[0][1] == 0:
        raise ConstructionRefused("collapsed linear part is not in Jordan-aligned form")
    h = nil[0][1]

    alpha = [t1[0][j] + t1[1][j] for j in range(4)]
    beta = [t1[2][j] + t1[3][j] for j in range(4)]
    quad, N, has_eps = _perturbation_shape(system, Fraction(1))
    if has_eps:
        raise ConstructionRefused("system still carries the embedding parameter")

    T1, G1 = _linear_slices(t1, [n * mu for n in _EIGEN_PATTERN])
    G1[0][1 << _SHIFTS[1]] = h  # d s1/dx = s2 at linear order
    T, G = {1: _freeze(T1)}, {1: _freeze(G1)}
    # T[d-1] stays open through degree d: the knob step writes into it after
    # the degree-d residual has read it.  ``last`` holds its dicts; it is
    # frozen again after a write, and the earlier packing is dropped.
    last = T1

    def resonance_class(i, m3, m4):
        if (m4 - m3) != _EIGEN_PATTERN[i]:
            return -1
        if i <= 1:
            return 1 if (m3 or m4) else 0
        if i == 2:
            return 1 if m4 else 0
        return 1 if m3 else 0

    def cross_kernel_slots(d):
        slots = []
        for m3 in range(order + 1):
            for m4 in range(order + 1):
                comps = [i for i in range(4) if resonance_class(i, m3, m4) == 1]
                if not comps:
                    continue
                for m1 in range(order + 1):
                    m2 = d - m1 - m3 - m4
                    if m2 < 0 or m1 + m2 + m3 + m4 > order:
                        continue
                    key = _encode((m1, m2, m3, m4))
                    for i in comps:
                        slots.append((i, key))
        slots.sort()
        return slots

    def knob_influence(j, key, d):
        phi = [_pack({key: t1[c][j]} if t1[c][j] != 0 else {}) for c in range(4)]
        R = _homological_residual({1: T[1], d - 1: phi}, G, quad, None, d, order, 0)
        return _in_normal_coords(R, t1inv)

    leftovers = []
    retained = []
    pending = []
    for d in range(2, order + 1):
        rvec = _in_normal_coords(_homological_residual(T, G, quad, None, d, order, 0),
                                 t1inv)

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
            if m3 == 0 and m4 == 0:
                _pin_slow(psi, key, alpha, beta)
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


def _state_bindings(system, Tvec):
    """Compose the system's perturbation with the transform components."""
    space = Tvec.space
    bindings = {name: Tvec[i] for i, name in enumerate(("a", "b", "ap", "bp"))}
    comps = []
    for comp in system.nonlinear:
        if "eps" in space.names:
            comps.append(comp.substitute(bindings))
        else:
            st4 = Space(("a", "b", "ap", "bp"), space.order)
            mapped = comp.map_vars(st4, {"a": "a", "b": "b", "ap": "ap", "bp": "bp"})
            comps.append(mapped.substitute(bindings))
    return comps


def verify_conjugacy(transform, evolution, system):
    """Recompute DT·G - F(T) directly on the public series operations.

    Works for either the graded pair against an embedding, or the
    parameter-1 pair against the collapsed system.  Independent of the
    sliced construction loop; every representable term must vanish.
    """
    Tv, Gv = (v.series if isinstance(v, GradedSeries) else v
              for v in (transform, evolution))
    space = Tv.space
    fT = _state_bindings(system, Tv)
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
        resid.append(total - lin - fT[c])
    return SeriesVector(resid)


def _separated_sector(series):
    """Terms not mixing both fast variables: the sector every downstream
    consumer reads, and the one whose parameter series resum."""
    out = {}
    for e, c in series.terms.items():
        if min(e[2], e[3]) == 0:
            out[e[:4]] = c
    return out


@dataclass
class CrossCheck:
    """Agreement of the two embedding families at parameter value 1.

    ``max_discrepancy`` compares the resummed separated sectors of the two
    graded constructions coefficientwise; ``resummation_gap`` compares the
    resummation of embedding A against the parameter-1 construction.
    """

    identical: bool
    max_discrepancy: float
    resummation_gap: float
    order: int
    eps_order: int
    tolerance: float

    def __bool__(self):
        return self.identical


def cross_validate_embeddings(transform, evolution, direct, tolerance=1e-12):
    """Check the parameter-1 normal form against both embedding families.

    ``transform`` and ``evolution`` are the caller's graded construction of
    embedding A; ``direct`` is the (transform, evolution) pair that
    ``construct_at_unity`` built at the same order.  Only embedding B's
    graded view is built here, at A's ``order`` and ``eps_order``.  Both
    graded views are resummed at parameter value 1 by
    ``TruncatedSeries.grading_at_one``: each state monomial's coefficients
    are summed over the parameter powers in stored term order, and sums
    that cancel to zero are dropped.  The separated sectors of the resummed
    series are then compared coefficientwise with each other and with the
    parameter-1 pair.
    """
    from .system import build_embedding

    order, eps_order = transform.order, transform.eps_order
    tB, gB, _ = construct(build_embedding("B"), order=order, eps_order=eps_order)
    worst = 0.0
    gap = 0.0
    for a, b, unit in zip((transform, evolution), (tB, gB), direct):
        va = a.series.map(TruncatedSeries.grading_at_one)
        vb = b.series.map(TruncatedSeries.grading_at_one)
        for ca, cb, cu in zip(va, vb, unit):
            da, db = _separated_sector(ca), _separated_sector(cb)
            for key in set(da) | set(db):
                worst = max(worst, abs(float(da.get(key, 0)) - float(db.get(key, 0))))
            for key in set(da) | {e for e in cu.terms if min(e[2], e[3]) == 0}:
                gap = max(gap, abs(float(da.get(key, 0)) - float(cu.terms.get(key, 0))))
    return CrossCheck(worst <= tolerance and gap <= tolerance,
                      worst, gap, order, eps_order, tolerance)
