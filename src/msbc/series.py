"""Truncated multivariate power series with exact rational coefficients.

All symbolic work in the derivation pipeline happens on these series.  A
series is a dictionary mapping exponent tuples to coefficients, truncated so
that no stored monomial exceeds the caps of the owning :class:`Space`.
Coefficients are :class:`fractions.Fraction`, and a float coefficient is
refused.  Floats reach a series only as the points that
:meth:`TruncatedSeries.evaluate` and :meth:`TruncatedSeries.evaluate_horner`
read (``RobinBC.residual``), where they give a float value.

A monomial is an exponent tuple aligned with ``space.names``.  The canonical
term order is lexicographic on exponent tuples, which keeps serialised
artefacts byte-stable.  Zero coefficients are never stored: every sum of
terms, ``normalform._mul_slice``'s products included, goes through
:func:`accumulate`, which skips a zero addend and deletes a key whose sum
cancels to zero.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .linalg import LinalgError, Matrix


class SeriesError(ValueError):
    """Structural misuse of a series operation (mismatched variables, ...)."""


class ReversionError(SeriesError):
    """Implicit-system reversion impossible: singular origin Jacobian."""


def coerce_coeff(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError("unsupported coefficient type: %s" % type(value).__name__)


def accumulate(terms, key, c):
    """Add ``c`` into ``terms[key]``: skip a zero addend, and delete the key
    when the sum cancels to zero."""
    if c == 0:
        return
    cur = terms.get(key)
    if cur is None:
        terms[key] = c
    else:
        cur = cur + c
        if cur == 0:
            del terms[key]
        else:
            terms[key] = cur


class Space:
    """Variable set plus truncation caps shared by compatible series.

    ``order`` caps the total degree over the counted variables.  ``grading``
    optionally names one variable excluded from that count and capped
    separately by ``grading_order``; the derivation uses this for the
    embedding parameter, whose powers are resummed rather than traded off
    against state degrees.
    """

    __slots__ = ("names", "order", "grading", "grading_order", "gidx")

    def __init__(self, names, order, grading=None, grading_order=None):
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise SeriesError("duplicate variable names: %r" % (self.names,))
        if order < 0:
            raise SeriesError("negative truncation order")
        self.order = int(order)
        self.grading = grading
        if grading is None:
            self.gidx = None
            self.grading_order = None
        else:
            if grading not in self.names:
                raise SeriesError("grading variable %r not in %r" % (grading, self.names))
            self.gidx = self.names.index(grading)
            self.grading_order = self.order if grading_order is None else int(grading_order)
            if self.grading_order < 0:
                raise SeriesError("negative grading order")

    def index(self, name):
        try:
            return self.names.index(name)
        except ValueError:
            raise SeriesError("unknown variable %r" % name) from None

    def degree(self, expts):
        """Counted degree of an exponent tuple (grading variable excluded)."""
        d = sum(expts)
        if self.gidx is not None:
            d -= expts[self.gidx]
        return d

    def admits(self, expts):
        if self.gidx is not None and expts[self.gidx] > self.grading_order:
            return False
        return self.degree(expts) <= self.order

    def same_vars(self, other):
        return self.names == other.names and self.grading == other.grading

    def meet(self, other):
        """Combined truncation for binary operations: caps are minima."""
        if not self.same_vars(other):
            raise SeriesError("mismatched variable sets: %r vs %r" % (self.names, other.names))
        if self.order <= other.order and (
            self.gidx is None or self.grading_order <= other.grading_order
        ):
            return self
        if other.order <= self.order and (
            self.gidx is None or other.grading_order <= self.grading_order
        ):
            return other
        g = None if self.gidx is None else min(self.grading_order, other.grading_order)
        return Space(self.names, min(self.order, other.order), self.grading, g)

    def __eq__(self, other):
        return (
            isinstance(other, Space)
            and self.names == other.names
            and self.order == other.order
            and self.grading == other.grading
            and self.grading_order == other.grading_order
        )

    def __repr__(self):
        extra = ""
        if self.grading is not None:
            extra = ", grading=%r<=%d" % (self.grading, self.grading_order)
        return "Space(%s, order=%d%s)" % (",".join(self.names), self.order, extra)


class TruncatedSeries:
    """Polynomial truncated per its space; zero coefficients never stored."""

    __slots__ = ("space", "terms")

    def __init__(self, space, terms=()):
        self.space = space
        nvars = len(space.names)
        data = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for expts, c in items:
            e = tuple(int(v) for v in expts)
            if len(e) != nvars or any(v < 0 for v in e):
                raise SeriesError("bad exponent tuple %r" % (e,))
            if space.admits(e):
                accumulate(data, e, coerce_coeff(c))
        self.terms = data

    @classmethod
    def _raw(cls, space, terms):
        out = object.__new__(cls)
        out.space = space
        out.terms = terms
        return out

    @classmethod
    def zero(cls, space):
        return cls._raw(space, {})

    @classmethod
    def constant(cls, space, value):
        value = coerce_coeff(value)
        if value == 0:
            return cls.zero(space)
        return cls._raw(space, {(0,) * len(space.names): value})

    @classmethod
    def variable(cls, space, name):
        i = space.index(name)
        e = tuple(1 if j == i else 0 for j in range(len(space.names)))
        if not space.admits(e):
            raise SeriesError("space cannot hold variable %r" % name)
        return cls._raw(space, {e: Fraction(1)})

    def is_zero(self):
        return not self.terms

    def coefficient(self, expts):
        return self.terms.get(tuple(expts), Fraction(0))

    def constant_term(self):
        return self.terms.get((0,) * len(self.space.names), Fraction(0))

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries.constant(self.space, other)
        sp = self.space.meet(other.space)
        out = dict(self.terms) if sp is self.space else {
            e: c for e, c in self.terms.items() if sp.admits(e)
        }
        for e, c in other.terms.items():
            if sp.admits(e):
                accumulate(out, e, c)
        return TruncatedSeries._raw(sp, out)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries._raw(self.space, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries.constant(self.space, other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            c = coerce_coeff(other)
            if c == 0:
                return TruncatedSeries.zero(self.space)
            return TruncatedSeries._raw(self.space, {e: v * c for e, v in self.terms.items()})
        sp = self.space.meet(other.space)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        admits = sp.admits
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                if admits(e):
                    accumulate(out, e, c1 * c2)
        return TruncatedSeries._raw(sp, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, float)):
            return self.terms == ({(0,) * len(self.space.names): other} if other != 0 else {})
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.space.same_vars(other.space) and self.terms == other.terms

    def at_zero(self, *names):
        """Restrict by setting the named variables to zero."""
        idx = [self.space.index(n) for n in names]
        out = {e: c for e, c in self.terms.items() if all(e[i] == 0 for i in idx)}
        return TruncatedSeries._raw(self.space, out)

    def grading_at_one(self):
        """Set the grading variable to 1: each state monomial's coefficients
        are summed over the grading powers in stored term order, and a sum
        that cancels to zero is dropped.  The result keeps this space,
        grading exponent 0."""
        gi = self.space.gidx
        if gi is None:
            raise SeriesError("space has no grading variable")
        out = {}
        for e, c in self.terms.items():
            accumulate(out, e[:gi] + (0,) + e[gi + 1:], c)
        return TruncatedSeries._raw(self.space, out)

    def derivative(self, name):
        i = self.space.index(name)
        out = {}
        for e, c in self.terms.items():
            k = e[i]
            if not k:
                continue
            e2 = e[:i] + (k - 1,) + e[i + 1:]
            out[e2] = c * k
        return TruncatedSeries._raw(self.space, out)

    def substitute(self, bindings):
        """Compose: replace variables with series.

        Replacement series must share one target space and have zero constant
        term, so the truncation-order bookkeeping stays valid.
        """
        target = None
        repls = {}
        for name, repl in bindings.items():
            i = self.space.index(name)
            if not isinstance(repl, TruncatedSeries):
                raise SeriesError("replacement for %r is not a series" % name)
            if target is None:
                target = repl.space
            elif not target.same_vars(repl.space):
                raise SeriesError("replacement series live in different spaces")
            if repl.constant_term() != 0:
                raise SeriesError(
                    "replacement for %r has a nonzero constant term" % name)
            repls[i] = repl
        if target is None:
            target = self.space
        for i, name in enumerate(self.space.names):
            if i not in repls:
                repls[i] = TruncatedSeries.variable(target, name)
        pows = {}

        def power(i, k):
            memo = pows.setdefault(i, {0: TruncatedSeries.constant(target, 1)})
            if k not in memo:
                top = max(memo)
                cur = memo[top]
                base = repls[i]
                for j in range(top + 1, k + 1):
                    cur = cur * base
                    memo[j] = cur
            return memo[k]

        total = TruncatedSeries.zero(target)
        for e, c in self.terms.items():
            term = TruncatedSeries.constant(target, c)
            for i, k in enumerate(e):
                if k:
                    term = term * power(i, k)
            total = total + term
        return total

    def map_vars(self, target, rename):
        """Carry terms into ``target`` renaming variables per ``rename``.

        Variables absent from ``rename`` must not occur in any stored term;
        a term the target cannot admit is a structural error.
        """
        src_idx = {self.space.index(old): target.index(new) for old, new in rename.items()}
        out = {}
        width = len(target.names)
        for e, c in self.terms.items():
            e2 = [0] * width
            for i, k in enumerate(e):
                if not k:
                    continue
                if i not in src_idx:
                    raise SeriesError(
                        "variable %r occurs but is not renamed" % self.space.names[i])
                e2[src_idx[i]] = k
            e2 = tuple(e2)
            if not target.admits(e2):
                raise SeriesError("term %r does not fit the target space" % (e2,))
            out[e2] = c
        return TruncatedSeries._raw(target, out)

    def _point(self, point):
        """The point's coordinates: exact, or floats as they are."""
        names = self.space.names
        if isinstance(point, Mapping):
            point = [point.get(n, 0) for n in names]
        vals = [v if isinstance(v, float) else coerce_coeff(v) for v in point]
        if len(vals) != len(names):
            raise SeriesError("point has %d entries for %d variables" % (len(vals), len(names)))
        return vals

    def evaluate(self, point):
        """Exact polynomial evaluation of the stored terms."""
        vals = self._point(point)
        total = Fraction(0)
        for e, c in self.terms.items():
            term = c
            for v, k in zip(vals, e):
                if k:
                    term = term * v ** k
            total = total + term
        return total

    def evaluate_horner(self, point):
        """Evaluation by nested single-variable Horner factoring.

        Independent code path from :meth:`evaluate`; the two are compared in
        the dual-path tests.
        """
        vals = self._point(point)
        nvars = len(vals)

        def rec(items, vi):
            if vi == nvars:
                total = Fraction(0)
                for _, c in items:
                    total = total + c
                return total
            groups = {}
            for e, c in items:
                groups.setdefault(e[vi], []).append((e, c))
            acc = Fraction(0)
            for k in range(max(groups), -1, -1):
                acc = acc * vals[vi]
                if k in groups:
                    acc = acc + rec(groups[k], vi + 1)
            return acc

        if not self.terms:
            return Fraction(0)
        return rec(list(self.terms.items()), 0)

    def sorted_terms(self):
        return sorted(self.terms.items())

    def to_lines(self):
        """Serialise: one term per line, ``num/den e1 e2 ...``, in canonical
        (lexicographic) term order."""
        lines = []
        for e, c in self.sorted_terms():
            lines.append("%d/%d %s" % (c.numerator, c.denominator, " ".join(map(str, e))))
        return lines

    @classmethod
    def from_lines(cls, space, lines):
        terms = {}
        for line in lines:
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            num, den = parts[0].split("/")
            e = tuple(int(v) for v in parts[1:])
            terms[e] = Fraction(int(num), int(den))
        return cls(space, terms)

    def pretty(self, sig=None):
        """Human-readable form, canonical order; ``sig`` rounds coefficients
        to that many significant figures for display."""
        if not self.terms:
            return "0"
        bits = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                n if k == 1 else "%s^%d" % (n, k)
                for n, k in zip(self.space.names, e) if k
            )
            if sig is not None:
                cs = "%.*g" % (sig, float(c))
            else:
                cs = str(c)
            if mono:
                if cs == "1":
                    text = mono
                elif cs == "-1":
                    text = "-" + mono
                else:
                    text = "%s*%s" % (cs, mono)
            else:
                text = cs
            if bits and not text.startswith("-"):
                bits.append("+ " + text)
            elif bits:
                bits.append("- " + text[1:])
            else:
                bits.append(text)
        return " ".join(bits)

    def __repr__(self):
        body = self.pretty()
        if len(body) > 120:
            body = body[:117] + "..."
        return "<series %s>" % body


class SeriesVector:
    """Ordered components sharing one variable set and truncation."""

    __slots__ = ("components",)

    def __init__(self, components):
        comps = list(components)
        if not comps:
            raise SeriesError("empty series vector")
        sp = comps[0].space
        for c in comps[1:]:
            if not (sp.same_vars(c.space) and sp.order == c.space.order
                    and sp.grading_order == c.space.grading_order):
                raise SeriesError("series vector components disagree on space")
        self.components = comps

    @property
    def space(self):
        return self.components[0].space

    def __len__(self):
        return len(self.components)

    def __iter__(self):
        return iter(self.components)

    def __getitem__(self, i):
        return self.components[i]

    def __eq__(self, other):
        return isinstance(other, SeriesVector) and self.components == other.components

    def __repr__(self):
        return "SeriesVector(%r)" % (self.components,)


def solve_implicit_system(equations, unknowns, knowns):
    """Revert a truncated series system.

    ``equations[i]`` is a series over one shared space expressing a known
    quantity in terms of the unknowns and the remaining knowns; its value is
    the i-th of the last ``len(equations)`` names in ``knowns``.  Returns
    one series per unknown, in the knowns, such that back-substitution
    reproduces the value variables up to truncation.  The block linear in
    the unknowns must be exact and invertible.
    """
    eqs = list(equations)
    sp = eqs[0].space
    m = len(eqs)
    if len(unknowns) != m:
        raise SeriesError("need as many unknowns as equations")
    if len(knowns) < m:
        raise SeriesError("knowns must include one value variable per equation")
    values = list(knowns)[-m:]
    uidx = [sp.index(u) for u in unknowns]
    width = len(sp.names)

    def unit(i):
        return tuple(1 if j == i else 0 for j in range(width))

    for eq in eqs:
        if eq.constant_term() != 0:
            raise ReversionError("equations must vanish at the origin")
    # Linear-in-unknown block and the remainder of each equation.
    J = Matrix([[eq.coefficient(unit(j)) for j in uidx] for eq in eqs])
    try:
        Jinv = J.inverse().rows
    except LinalgError:
        raise ReversionError("singular Jacobian at the origin") from None
    rest = []
    for eq in eqs:
        terms = dict(eq.terms)
        for j in uidx:
            terms.pop(unit(j), None)
        rest.append(TruncatedSeries._raw(sp, terms))

    y = [TruncatedSeries.variable(sp, v) for v in values]
    guesses = [TruncatedSeries.zero(sp) for _ in range(m)]
    for _ in range(max(sp.order, 1)):
        resid = []
        for i in range(m):
            bound = rest[i].substitute({unknowns[k]: guesses[k] for k in range(m)})
            resid.append(y[i] - bound)
        new = []
        for i in range(m):
            acc = TruncatedSeries.zero(sp)
            for k in range(m):
                acc = acc + resid[k] * Jinv[i][k]
            new.append(acc)
        if new == guesses:
            break
        guesses = new
    for g in guesses:
        for e in g.terms:
            if any(e[j] for j in uidx):
                raise ReversionError("reversion failed to eliminate the unknowns")
    return SeriesVector(guesses)
