"""Exact dense linear algebra for the small matrices of the spatial systems.

Everything here works over :class:`fractions.Fraction`.  One elimination,
``row_reduce`` (exact reduced row echelon form, first nonzero pivot), serves
every solve in the package: ``Matrix.inverse``, ``nullspace``, ``solve`` (one
particular solution with free unknowns 0) and the generalised directions of
``eigen``.  Every spatial system of the model has eigenvalues -mu, 0, 0, mu,
and ``family_rate`` is the one spectrum rule: it reads mu off the exact
characteristic polynomial and refuses any other matrix.  mu stays exact
when it is rational; otherwise it and its eigenvectors (from an SVD) are
floats.  The derivation keeps exact arithmetic wherever the spectrum is
rational.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, sqrt

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
        if self.m != other.n:
            raise LinalgError("shape mismatch")
        cols = list(zip(*other.rows))
        # the spatial matrices are half zeros: skip the zero products
        return Matrix([[sum((a * b for a, b in zip(row, col) if a and b), Fraction(0))
                        for col in cols] for row in self.rows])

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


def family_rate(mat):
    """The rate mu > 0 of a matrix with eigenvalues -mu, 0, 0, mu, the one
    spectral family the derivation handles: its characteristic polynomial
    is [1, 0, c2, 0, 0] with c2 < 0, and mu^2 = -c2.  mu is an exact
    Fraction when mu^2 is a rational square, a float otherwise.  Any other
    matrix raises LinalgError.
    """
    coeffs = mat.charpoly()
    if len(coeffs) != 5 or coeffs[1] or coeffs[3] or coeffs[4] or coeffs[2] >= 0:
        raise LinalgError("spectrum outside the -mu, 0, 0, mu family")
    sq = -coeffs[2]
    num, den = isqrt(sq.numerator), isqrt(sq.denominator)
    if num * num == sq.numerator and den * den == sq.denominator:
        return Fraction(num, den)
    return sqrt(float(sq))


class Eigen:
    """Eigen-decomposition of a matrix in the -mu, 0, 0, mu family.

    ``values`` pairs each eigenvalue with its algebraic multiplicity,
    [(-mu, 1), (0, 2), (mu, 1)], and ``vectors[i]`` lists a basis of the
    corresponding eigenspace; an irrational mu and its vectors are floats.

    ``eigenvalues`` and ``eigenvectors`` are the flat lists, one entry per
    algebraic multiplicity.  A defective zero repeats its one eigenvector,
    so every (value, vector) pair satisfies A v = lambda v, and
    ``generalized`` holds its Jordan chain step (0, w) with A w = v.
    """

    def __init__(self, mu, vectors, generalized):
        self.values = [(-mu, 1), (Fraction(0), 2), (mu, 1)]
        self.vectors = vectors
        self.diagonalizable = not generalized
        self.generalized = generalized
        minus, zero, plus = vectors
        self.eigenvalues = [-mu, Fraction(0), Fraction(0), mu]
        self.eigenvectors = [minus[0], zero[0], zero[-1], plus[0]]

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
    """The ``Eigen`` of a matrix in the -mu, 0, 0, mu family (mu from
    ``family_rate``; LinalgError for any other matrix)."""
    mu = family_rate(mat)
    zero = nullspace(mat)
    # only the zero can be defective, as one 2x2 Jordan block: its one
    # eigenvector is then always in the range of the matrix
    step = [] if len(zero) == 2 else [(Fraction(0), solve(mat.rows, zero[0], mat.n)[0])]
    return Eigen(mu, [simple_eigenvector(mat, -mu), zero, simple_eigenvector(mat, mu)], step)


def simple_eigenvector(mat, lam):
    """[v] for a simple eigenvalue lam: exact when lam is rational, else the
    right singular vector of the smallest singular value of A - lam."""
    if isinstance(lam, Fraction):
        return nullspace(mat - Matrix.identity(mat.n).scaled(lam))
    return [list(map(float, np.linalg.svd(mat.to_float() - lam * np.eye(mat.n))[2][-1]))]
