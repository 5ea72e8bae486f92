"""Exact dense linear algebra for the small matrices of the spatial systems.

Everything here works over :class:`fractions.Fraction`.  One elimination,
``row_reduce`` (exact reduced row echelon form, first nonzero pivot), serves
every solve in the package: ``Matrix.inverse``, ``nullspace``, ``solve`` (one
particular solution with free unknowns 0) and the generalised directions of
``eigen``.  Eigenvalues are found by factoring the characteristic polynomial
exactly: rational roots via the rational-root theorem with deflation, and a
leftover quadratic factor is surfaced as an irrational pair (returned as
floats, with eigenvectors from an SVD).  The derivation keeps exact
arithmetic wherever the spectrum is rational.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm, sqrt

import numpy as np


class LinalgError(ValueError):
    pass


def _frac(v):
    if isinstance(v, Fraction):
        return v
    if isinstance(v, (int, str)):
        return Fraction(v)
    raise TypeError("matrix entries must be exact rationals")


class Matrix:
    """Dense rational matrix with exact arithmetic."""

    __slots__ = ("rows", "n", "m")

    def __init__(self, rows):
        self.rows = [[_frac(v) for v in row] for row in rows]
        self.n = len(self.rows)
        self.m = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.m for r in self.rows):
            raise LinalgError("ragged matrix")

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __add__(self, other):
        if self.n != other.n or self.m != other.m:
            raise LinalgError("shape mismatch")
        return Matrix([[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other):
        if self.n != other.n or self.m != other.m:
            raise LinalgError("shape mismatch")
        return Matrix([[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)])

    def scaled(self, c):
        c = _frac(c)
        return Matrix([[v * c for v in row] for row in self.rows])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.m != other.n:
                raise LinalgError("shape mismatch")
            return Matrix([
                [sum((self.rows[i][k] * other.rows[k][j] for k in range(self.m)), Fraction(0))
                 for j in range(other.m)]
                for i in range(self.n)
            ])
        return self.scaled(other)

    def trace(self):
        return sum((self.rows[i][i] for i in range(self.n)), Fraction(0))

    def inverse(self):
        if self.n != self.m:
            raise LinalgError("not square")
        n = self.n
        a, pivots = row_reduce(
            [list(row) + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
             for i, row in enumerate(self.rows)], n)
        if len(pivots) < n:
            raise LinalgError("singular matrix")
        return Matrix([row[n:] for row in a])

    def charpoly(self):
        """Monic characteristic polynomial coefficients [1, c1, ..., cn]
        (Faddeev-LeVerrier)."""
        if self.n != self.m:
            raise LinalgError("not square")
        n = self.n
        coeffs = [Fraction(1)]
        M = Matrix.identity(n)
        for k in range(1, n + 1):
            M = self * M
            ck = -M.trace() / k
            coeffs.append(ck)
            M = M + Matrix.identity(n).scaled(ck)
        return coeffs

    def to_float(self):
        return np.array([[float(v) for v in row] for row in self.rows], dtype=float)

    def __repr__(self):
        return "Matrix(%s)" % "; ".join(
            ", ".join(str(v) for v in row) for row in self.rows)


def row_reduce(rows, ncols):
    """Reduced row echelon form of exact ``rows``, pivoting in the first
    ``ncols`` columns only; the columns after them are carried along.

    Each column takes the first nonzero entry at or below the current row as
    its pivot.  Returns the reduced rows and the pivot columns.
    """
    a = [list(row) for row in rows]
    pivots = []
    for col in range(ncols):
        row = len(pivots)
        if row == len(a):
            break
        piv = next((r for r in range(row, len(a)) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = Fraction(1) / a[row][col]
        a[row] = [v * inv for v in a[row]]
        for r in range(len(a)):
            if r != row and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[row])]
        pivots.append(col)
    return a, pivots


def solve(rows, rhs, nunk):
    """One exact solution of rows·x = rhs in ``nunk`` unknowns.

    Unknowns that no pivot pins are 0.  Returns ``(x, consistent)``; when
    the system is inconsistent, x leaves the contradicting rows unsatisfied.
    """
    a, pivots = row_reduce([list(row) + [b] for row, b in zip(rows, rhs)], nunk)
    x = [Fraction(0)] * nunk
    for r, col in enumerate(pivots):
        x[col] = a[r][nunk]
    return x, all(row[nunk] == 0 for row in a[len(pivots):])


def nullspace(mat):
    """Exact basis of the kernel, via reduced row echelon form."""
    a, pivots = row_reduce(mat.rows, mat.m)
    basis = []
    for fc in range(mat.m):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * mat.m
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -a[r][fc]
        basis.append(vec)
    return basis


def _divisors(n):
    n = abs(n)
    if n == 0:
        return [1]
    out = set()
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            out.add(d)
            out.add(n // d)
    return sorted(out)


def _poly_eval(coeffs, x):
    acc = Fraction(0)
    for c in coeffs:
        acc = acc * x + c
    return acc


def _deflate(coeffs, root):
    out = [coeffs[0]]
    for c in coeffs[1:-1]:
        out.append(c + out[-1] * root)
    return out


def rational_roots(coeffs):
    """All rational roots (with multiplicity) of a rational-coefficient
    polynomial, plus the deflated remainder polynomial."""
    coeffs = [_frac(c) for c in coeffs]
    den = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    roots = []
    while len(ints) > 1:
        if ints[-1] == 0:
            roots.append(Fraction(0))
            ints = ints[:-1]
            continue
        cands = [Fraction(s * p, q)
                 for p in _divisors(ints[-1]) for q in _divisors(ints[0]) for s in (1, -1)]
        hit = next((c for c in cands if _poly_eval([Fraction(v) for v in ints], c) == 0), None)
        if hit is None:
            break
        roots.append(hit)
        fracs = _deflate([Fraction(v) for v in ints], hit)
        den2 = lcm(*(c.denominator for c in fracs))
        ints = [int(c * den2) for c in fracs]
    remainder = [Fraction(v) for v in ints]
    if remainder and remainder[0] not in (0, 1):
        lead = remainder[0]
        remainder = [c / lead for c in remainder]
    return roots, remainder


class Eigen:
    """Eigen-decomposition summary of a small rational matrix.

    ``values`` pairs each eigenvalue with its algebraic multiplicity;
    rational eigenvalues stay exact, an irrational pair from a leftover
    quadratic factor comes back as floats.  ``vectors[i]`` lists a basis of
    the corresponding eigenspace (exact for rational eigenvalues).

    ``eigenvalues`` and ``eigenvectors`` are the flat lists, one entry per
    algebraic multiplicity.  For a defective eigenvalue the vector list
    repeats the available eigenvectors, so every (value, vector) pair
    satisfies A v = lambda v; ``generalized`` holds one Jordan chain step
    (lambda, w) with (A - lambda) w = v for the first eigenvector v.
    """

    def __init__(self, values, vectors, diagonalizable, generalized):
        self.values = values
        self.vectors = vectors
        self.diagonalizable = diagonalizable
        self.generalized = generalized
        self.eigenvalues, self.eigenvectors = [], []
        for (lam, mult), basis in zip(values, vectors):
            for k in range(mult):
                self.eigenvalues.append(lam)
                self.eigenvectors.append(basis[min(k, len(basis) - 1)])

    def residuals(self, mat):
        """max |A v - lambda v| for each flat (value, vector) pair."""
        out = []
        A = mat.to_float()
        for lam, vec in zip(self.eigenvalues, self.eigenvectors):
            v = [float(x) for x in vec]
            Av = A.dot(v)
            out.append(max(abs(Av[i] - float(lam) * v[i]) for i in range(len(v))))
        return out


def eigen(mat):
    if mat.n != mat.m:
        raise LinalgError("not square")
    coeffs = mat.charpoly()
    roots, remainder = rational_roots(coeffs)
    values = []
    for r in sorted(set(roots), key=float):
        values.append((r, roots.count(r)))
    if len(remainder) > 1:
        if len(remainder) != 3:
            raise LinalgError("irrational factor of degree %d unsupported"
                              % (len(remainder) - 1))
        a, b, c = remainder
        disc = b * b - 4 * a * c
        if disc < 0:
            raise LinalgError("complex eigenvalues unsupported for this family")
        sq = sqrt(float(disc))
        for lam in sorted(((-float(b) - sq) / (2 * float(a)),
                           (-float(b) + sq) / (2 * float(a)))):
            values.append((lam, 1))
        values.sort(key=lambda p: float(p[0]))
    vectors = []
    generalized = []
    geo = 0
    for lam, mult in values:
        if isinstance(lam, Fraction):
            shifted = mat - Matrix.identity(mat.n).scaled(lam)
            basis = nullspace(shifted)
            if len(basis) < mult:
                # one Jordan chain step is enough for this family
                w, consistent = solve(shifted.rows, basis[0], mat.n)
                if consistent:
                    generalized.append((lam, w))
        else:
            A = mat.to_float() - lam * np.eye(mat.n)
            _, s, vt = np.linalg.svd(A)
            tol = max(A.shape) * np.finfo(float).eps * (s[0] if len(s) else 1.0)
            basis = [vt[i] for i in range(len(s)) if s[i] <= max(tol, 1e-10)]
            if not basis:
                basis = [vt[-1]]
            basis = [list(map(float, v)) for v in basis]
        vectors.append(basis)
        geo += len(basis)
    return Eigen(values, vectors, geo == mat.n, generalized)
