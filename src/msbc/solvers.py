"""Method-of-lines solvers for the microscale pair and the macroscale mean,
the two models that ``msbc.system`` describes, in its solver units.

The microscale pair has Dirichlet values at both ends.  Each macroscale
closure that ``SolveConfig.bc_mode`` picks is a relation pair C = S(Cx, u, v)
imposed in solver units (``msbc.system.FIELD_SCALE``): the heuristic data
mean, the derived nonlinear Robin condition, or its linearisation.

Spatial derivatives are second-order central differences; time integration
uses a variable-order implicit (BDF) scheme with the analytic banded
Jacobian of the discrete right-hand side, whose constant part is also the
microscale difference operator.  The closure takes the end gradient from
the three interior values nearest the end with the second-order one-sided
stencil (Fornberg, Math. Comp. 51, 1988), Cx(0) = (-5 C1 + 8 C2 - 3 C3) /
(2 dx), mirrored at the right end, so the relation gives the end value
explicitly: C0 = R + P Cx + Q Cx^2.  Right-hand side and Jacobian are pure
functions of (t, y).

Both solves run on ``solve_ivp``, a variable-order NDF/BDF integrator
(Shampine & Reichelt, SIAM J. Sci. Comput. 18, 1997; Byrne & Hindmarsh,
ACM TOMS 1, 1975) transcribed from scipy's BDF for forward integration with
a band Jacobian.  The band has one shape, fixed by the module and taken as
no parameter: with kl = ku = 2 sub- and super-diagonals (``_KL``, ``_KU``),
LAPACK band storage puts entry (i, j) in row ``2 + i - j`` of a (5, m)
array, and the corner entries that fall outside the matrix are unused.  The
Newton matrix ``I - c J`` is kept in the same storage, factored by
``dgbtrf`` with partial pivoting, O(m) work per factorisation, and solved by
``dgbtrs``; a zero pivot raises ``SolverError``.

Both Jacobians fill that band.  The macroscale one is tridiagonal but for
its end rows, which see their end value's dependence on the three interior
values nearest that end.  In the microscale pair each stream is tridiagonal
and the exchange couples a_i with b_i.  Stored stream after stream, that
coupling would sit m places off the diagonal; the unknowns are therefore
interleaved as (a_1, b_1, a_2, b_2, ...), which brings it next to the
diagonal and each stream's neighbours two places off it.

The two LAPACK routines are called through ``ctypes``.  They come from the
OpenBLAS that numpy's wheels bundle in ``numpy.libs``, which exports them as
``scipy_<routine>_64_`` with 64-bit integer arguments, so the solvers import
no scipy.  Where that library or one of its symbols is missing (conda, MKL
or distro builds of numpy), they come from ``scipy.linalg.cython_lapack``,
whose routines take 32-bit integers in the same argument order.
"""

from __future__ import annotations

import ctypes
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import system
from .boundary import BoundaryData, SolverError, dirichlet_heuristic  # noqa: F401

DEFAULT_WINDOW = (5.0, 25.0)
_KL = _KU = 2                      # the sub- and super-diagonals of every band
_END_STENCIL = (-5.0, 8.0, -3.0)   # 2 dx times the left end gradient, on C_1, C_2, C_3

_NUMPY_LIBS = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
_OPENBLAS_PREFIX = "libscipy_openblas64_"
_OPENBLAS_SYMBOL = "scipy_%s_64_"
_ROUTINES = ("dgbtrf", "dgbtrs")
# the solve takes ``trans`` as a character, whose length a Fortran routine
# receives as a trailing hidden argument (the C routines of cython_lapack
# take no such argument and never read it)
_TRANS = ctypes.byref(ctypes.c_char(b"N"))
_TRANS_LEN = ctypes.c_size_t(1)


@dataclass(frozen=True)
class _Lapack:
    source: str               # "openblas" | "cython_lapack"
    int_type: type            # the ctypes type of every integer argument
    dgbtrf: object
    dgbtrs: object


def _load_lapack():
    """The two band routines as ctypes functions, from the OpenBLAS in
    ``_NUMPY_LIBS`` when it exports all of them, else from scipy's
    ``cython_lapack``."""
    addresses = None
    names = (sorted(f for f in os.listdir(_NUMPY_LIBS) if f.startswith(_OPENBLAS_PREFIX))
             if os.path.isdir(_NUMPY_LIBS) else [])
    if names:
        try:
            lib = ctypes.CDLL(os.path.join(_NUMPY_LIBS, names[0]))
            addresses = [ctypes.cast(getattr(lib, _OPENBLAS_SYMBOL % r), ctypes.c_void_p).value
                         for r in _ROUTINES]
            source, int_type = "openblas", ctypes.c_int64
        except (OSError, AttributeError):
            addresses = None
    if addresses is None:
        from scipy.linalg import cython_lapack
        capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
            ("PyCapsule_GetName", ctypes.pythonapi))
        capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object,
                                            ctypes.c_char_p)(
            ("PyCapsule_GetPointer", ctypes.pythonapi))
        capsules = [cython_lapack.__pyx_capi__[r] for r in _ROUTINES]
        addresses = [capsule_pointer(c, capsule_name(c)) for c in capsules]
        source, int_type = "cython_lapack", ctypes.c_int
    # no argtypes: every argument is passed as a ready ctypes object, which
    # costs less per call than converting Python ints through argtypes
    return _Lapack(source, int_type, *(ctypes.CFUNCTYPE(None)(a) for a in addresses))


_LAPACK = _load_lapack()


def _ref(a):
    """A ctypes reference to the array ``a``, which must be writable and
    C-contiguous (``ctypes`` raises otherwise)."""
    return ctypes.byref(ctypes.c_char.from_buffer(a))


@dataclass(frozen=True)
class Grid1D:
    L: float
    n: int

    def __post_init__(self):
        if self.n < 8:
            raise ValueError("grid needs at least 8 intervals")
        if not (math.isfinite(self.L) and self.L > 0):
            raise ValueError("domain length must be finite and positive")

    @property
    def dx(self):
        return self.L / self.n

    def nodes(self):
        return np.linspace(0.0, self.L, self.n + 1)


@dataclass
class MicroState:
    a: np.ndarray
    b: np.ndarray
    t: float

    def mean(self):
        return 0.5 * (self.a + self.b)


@dataclass
class MacroState:
    C: np.ndarray
    t: float


@dataclass
class SolveConfig:
    grid: Grid1D
    t_end: float
    data: BoundaryData
    snapshots: tuple = ()
    bc_mode: str = "dirichlet-heuristic"
    rtol: float = 1e-8
    atol: float = 1e-8

    def __post_init__(self):
        if self.bc_mode not in ("dirichlet-heuristic", "robin-derived", "robin-linearised"):
            raise ValueError("unknown bc_mode %r" % self.bc_mode)
        if not (math.isfinite(self.t_end) and self.t_end > 0):
            raise ValueError("t_end must be finite and positive")
        if not all(math.isfinite(v) and v > 0 for v in (self.rtol, self.atol)):
            raise ValueError("tolerances must be finite and positive")
        snaps = tuple(float(s) for s in (self.snapshots or (self.t_end,)))
        if not all(math.isfinite(s) and 0 <= s <= self.t_end for s in snaps):
            raise ValueError("snapshot times must be finite and lie in [0, t_end]")
        snaps = tuple(sorted(snaps))
        for prev, s in zip(snaps, snaps[1:]):
            if s == prev:
                raise ValueError("snapshot time %r is repeated" % s)
        self.snapshots = snaps


@dataclass
class FieldTrajectory:
    kind: str                 # "micro" | "macro"
    grid: Grid1D
    states: list = field(default_factory=list)

    def at(self, t):
        for st in self.states:
            if abs(st.t - t) <= 1e-9 * max(1.0, abs(t)):
                return st
        raise KeyError("no snapshot at t=%r" % t)


_MAX_ORDER = 5
_NEWTON_MAXITER = 4
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10
_EPS = np.finfo(float).eps
# the NDF coefficients kappa of Shampine & Reichelt, Table 1
_KAPPA = np.array([0, -0.1850, -1 / 9, -0.0823, -0.0415, 0])
_GAMMA = np.hstack((0, np.cumsum(1 / np.arange(1, _MAX_ORDER + 1))))
_ALPHA = (1 - _KAPPA) * _GAMMA
_ERROR_CONST = _KAPPA * _GAMMA + 1 / np.arange(1, _MAX_ORDER + 2)


def _rms(x):
    return math.sqrt(x.dot(x)) / x.size ** 0.5


def _compute_R(order, factor):
    """The matrix that rescales the difference array for a step changed by
    ``factor``."""
    I = np.arange(1, order + 1)[:, None]
    J = np.arange(1, order + 1)
    M = np.zeros((order + 1, order + 1))
    M[1:, 1:] = (I - 1 - factor * J) / I
    M[0] = 1
    return np.cumprod(M, axis=0)


def _change_D(D, order, factor):
    """Rescale the difference array ``D`` in place for a step changed by
    ``factor``."""
    RU = _compute_R(order, factor).dot(_compute_R(order, 1))
    D[:order + 1] = np.dot(RU.T, D[:order + 1])


def _initial_step(fun, t0, y0, t_bound, f0, rtol, atol):
    """The first step size of Hairer, Norsett & Wanner (Sec. II.4) for an
    error of order 2."""
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = fun(t0 + h0, y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 2)
    return min(100 * h0, h1, interval_length)


class _BandBDF:
    """Variable-order NDF/BDF integrator, forward in time, whose ``jac(t, y)``
    returns the Jacobian as a (5, m) band, kl = ku = 2 (see the module
    docstring).  The stepping is scipy's BDF (1.17) operation for operation,
    so steps, counters and interpolants are scipy's on the same problem.  A
    zero pivot or a failed band solve raises ``SolverError`` naming t.
    """

    def __init__(self, fun, t0, y0, t_bound, rtol, atol, jac):
        self.t, self.t_bound = t0, t_bound
        self.nfev = self.njev = self.nlu = 0

        def counted_fun(t, y):
            self.nfev += 1
            return fun(t, y)

        def counted_jac(t, y):
            self.njev += 1
            return jac(t, y)

        self.fun, self.jac = counted_fun, counted_jac
        n = y0.size
        self.rtol, self.atol = max(rtol, 100 * _EPS), atol   # scipy's floor on rtol
        f = self.fun(t0, y0)
        self.h_abs = _initial_step(self.fun, t0, y0, t_bound, f, self.rtol, atol)
        self.newton_tol = max(10 * _EPS / rtol, min(0.03, rtol ** 0.5))
        self.J = self.jac(t0, y0)
        if self.J.shape != (_KL + _KU + 1, n):
            raise ValueError("band Jacobian has shape %r, expected %r"
                             % (self.J.shape, (_KL + _KU + 1, n)))
        self.I = np.zeros_like(self.J)
        self.I[_KU] = 1.0
        # zeros, as in scipy: the first step's D[3] = d - D[2] reads row 2 unset
        self.D = np.zeros((_MAX_ORDER + 3, n))
        self.D[0] = y0
        self.D[1] = f * self.h_abs
        self.order = 1
        self.n_equal_steps = 0
        self.LU = None

        # the integer arguments of every LAPACK call, in the loader's type,
        # and references to them: order, one right-hand side, kl, ku, the
        # leading dimension of dgbtrf's band, and info
        self.lapack = _LAPACK
        self.n = n
        int_type = self.lapack.int_type
        self._ints = (int_type * 6)(n, 1, _KL, _KU, 2 * _KL + _KU + 1, 0)
        self._n, self._one, self._kl, self._ku, self._ldab, self._info = (
            ctypes.byref(self._ints, k * ctypes.sizeof(int_type)) for k in range(6))
        self._ipiv_type = int_type * n
        # the band solve works in place on this right-hand side, so that one
        # reference to it serves every solve
        self._rhs = np.zeros(n)
        self._rhs_args = (_ref(self._rhs), self._n, self._info, _TRANS_LEN)

    def _factor(self, A):
        """LU factors of the band matrix ``A``: ``dgbtrf`` factors a copy
        with its ``_KL`` extra rows for fill-in.  Returns the arrays that hold
        the factors with the arguments of the band solve."""
        self.nlu += 1
        n = self.n
        if A.shape != (_KL + _KU + 1, n):
            raise ValueError("band has shape %r, expected %r"
                             % (A.shape, (_KL + _KU + 1, n)))
        ipiv = self._ipiv_type()
        ab = np.zeros((2 * _KL + _KU + 1, n), order="F")
        ab[_KL:] = A
        # the transpose of the Fortran-ordered ab is C-contiguous;
        # (ab, ldab, ipiv) is a run of both dgbtrf's and dgbtrs's arguments
        lu = (_ref(ab.T), self._ldab, ctypes.byref(ipiv))
        self.lapack.dgbtrf(self._n, self._n, self._kl, self._ku, *lu, self._info)
        info = self._ints[5]
        if info != 0:
            raise SolverError("singular Newton matrix at t=%.4g (dgbtrf info %d)"
                              % (self.t, info))
        return (ab, ipiv), (_TRANS, self._n, self._kl, self._ku, self._one, *lu,
                            *self._rhs_args)

    def _solve(self, lu, b):
        """The solution of the factored system for the right-hand side ``b``,
        in an array of the integrator's that the next solve overwrites."""
        x = self._rhs
        x[...] = b
        self.lapack.dgbtrs(*lu[1])
        info = self._ints[5]
        if info != 0:
            raise SolverError("Newton solve failed at t=%.4g (dgbtrs info %d)"
                              % (self.t, info))
        return x

    def _newton(self, t_new, y_predict, c, psi, LU, scale):
        """The simplified Newton iteration of one implicit step; returns
        (converged, iterations, y, d) with d the correction to y_predict."""
        d = 0
        y = y_predict.copy()
        dy_norm_old = None
        converged = False
        for k in range(_NEWTON_MAXITER):
            f = self.fun(t_new, y)
            if not np.isfinite(f).all():
                break
            dy = self._solve(LU, c * f - psi - d)
            dy_norm = _rms(dy / scale)
            rate = None if dy_norm_old is None else dy_norm / dy_norm_old
            if (rate is not None and (rate >= 1 or rate ** (_NEWTON_MAXITER - k)
                                      / (1 - rate) * dy_norm > self.newton_tol)):
                break
            y += dy
            d += dy
            if (dy_norm == 0 or rate is not None
                    and rate / (1 - rate) * dy_norm < self.newton_tol):
                converged = True
                break
            dy_norm_old = dy_norm
        return converged, k + 1, y, d

    def step(self):
        """Take one accepted step, then choose the next order and step size.
        Returns None, or the failure message when the step size falls below
        the spacing of floats at t."""
        t = self.t
        D = self.D
        min_step = 10 * np.abs(math.nextafter(t, math.inf) - t)
        if self.h_abs < min_step:
            h_abs = min_step
            _change_D(D, self.order, min_step / self.h_abs)
            self.n_equal_steps = 0
        else:
            h_abs = self.h_abs
        order = self.order
        J = self.J
        LU = self.LU
        current_jac = False

        step_accepted = False
        while not step_accepted:
            if h_abs < min_step:
                return "Required step size is less than spacing between numbers."
            t_new = t + h_abs
            if t_new > self.t_bound:
                t_new = self.t_bound
                _change_D(D, order, (t_new - t) / h_abs)
                self.n_equal_steps = 0
                LU = None
            h_abs = t_new - t

            y_predict = np.sum(D[:order + 1], axis=0)
            scale = self.atol + self.rtol * np.abs(y_predict)
            psi = np.dot(D[1: order + 1].T, _GAMMA[1: order + 1]) / _ALPHA[order]

            converged = False
            c = h_abs / _ALPHA[order]
            while not converged:
                if LU is None:
                    LU = self._factor(self.I - c * J)
                converged, n_iter, y_new, d = self._newton(t_new, y_predict, c, psi,
                                                           LU, scale)
                if not converged:
                    if current_jac:
                        break
                    J = self.jac(t_new, y_predict)
                    LU = None
                    current_jac = True

            if not converged:
                factor = 0.5
                h_abs *= factor
                _change_D(D, order, factor)
                self.n_equal_steps = 0
                LU = None
                continue

            safety = 0.9 * (2 * _NEWTON_MAXITER + 1) / (2 * _NEWTON_MAXITER + n_iter)
            scale = self.atol + self.rtol * np.abs(y_new)
            error_norm = _rms(_ERROR_CONST[order] * d / scale)
            if error_norm > 1:
                factor = max(_MIN_FACTOR, safety * error_norm ** (-1 / (order + 1)))
                h_abs *= factor
                _change_D(D, order, factor)
                self.n_equal_steps = 0
                # the Newton iteration converged, so the factors stay
            else:
                step_accepted = True

        self.n_equal_steps += 1
        self.t = t_new
        self.h_abs = h_abs
        self.J = J
        self.LU = LU

        # D held the differences of the previous interpolant and
        # d = D^{order+1} y_new; D^{j+1} y_n = D^j y_n - D^j y_{n-1}
        D[order + 2] = d - D[order + 1]
        D[order + 1] = d
        for i in reversed(range(order + 1)):
            D[i] += D[i + 1]

        if self.n_equal_steps < order + 1:
            return None

        if order > 1:
            error_m_norm = _rms(_ERROR_CONST[order - 1] * D[order] / scale)
        else:
            error_m_norm = np.inf
        if order < _MAX_ORDER:
            error_p_norm = _rms(_ERROR_CONST[order + 1] * D[order + 2] / scale)
        else:
            error_p_norm = np.inf

        error_norms = np.array([error_m_norm, error_norm, error_p_norm])
        with np.errstate(divide="ignore"):
            factors = error_norms ** (-1 / np.arange(order, order + 3))

        order += np.argmax(factors) - 1
        self.order = order
        factor = min(_MAX_FACTOR, safety * np.max(factors))
        self.h_abs *= factor
        _change_D(D, order, factor)
        self.n_equal_steps = 0
        self.LU = None
        return None

    def interpolate(self, ts):
        """The solution at the times ``ts`` (1-D) within the last step, one
        column per time, from the backward differences of the current order."""
        h = self.h_abs
        order = self.order
        t_shift = self.t - h * np.arange(order)
        denom = h * (1 + np.arange(order))
        p = np.cumprod((ts - t_shift[:, None]) / denom[:, None], axis=0)
        y = np.dot(self.D[1:order + 1].T, p)
        y += self.D[0, :, None]
        return y


@dataclass
class IvpResult:
    t: np.ndarray             # the times of t_eval reached
    y: np.ndarray             # the states at those times, one column each
    t_last: float             # the integrator's last accepted time
    nfev: int
    njev: int
    nlu: int
    status: int               # 0 reached the end, -1 a step failed
    message: str


def solve_ivp(fun, t_span, y0, *, t_eval, rtol, atol, jac):
    """Integrate ``dy/dt = fun(t, y)`` over ``t_span = (t0, tf)``, t0 < tf,
    with the band BDF and return the states at the times ``t_eval`` in
    [t0, tf].

    ``jac(t, y)`` returns the Jacobian as a (5, m) LAPACK band, kl = ku = 2.
    Raises ``ValueError``, before ``fun`` is first called, on t0 >= tf, on a
    ``y0`` that is not 1-D and finite, on ``t_eval`` not strictly increasing
    or on a time of ``t_eval`` outside [t0, tf]; a failed step ends the run
    with ``status`` -1.
    """
    t0, tf = map(float, t_span)
    if not t0 < tf:
        raise ValueError("`t_span` must run forward: t0 < tf.")
    y0 = np.asarray(y0, dtype=float)
    if y0.ndim != 1:
        raise ValueError("`y0` must be 1-dimensional.")
    if not np.isfinite(y0).all():
        raise ValueError("All components of the initial state `y0` must be finite.")
    t_eval = np.asarray(t_eval, dtype=float)
    if np.any(np.diff(t_eval) <= 0):
        raise ValueError("Values in `t_eval` are not properly sorted.")
    if not np.all((t0 <= t_eval) & (t_eval <= tf)):
        raise ValueError("Values in `t_eval` are not within `t_span`.")

    solver = _BandBDF(fun, t0, y0, tf, rtol, atol, jac)
    ts, ys = [], []
    reached = 0
    status = None
    message = "The solver successfully reached the end of the integration interval."
    while status is None:
        failure = solver.step()
        if failure is not None:
            status, message = -1, failure
            break
        if solver.t >= tf:
            status = 0
        upto = np.searchsorted(t_eval, solver.t, side="right")
        if upto > reached:
            ts.append(t_eval[reached:upto])
            ys.append(solver.interpolate(t_eval[reached:upto]))
            reached = upto
    return IvpResult(t=np.hstack(ts) if ts else np.empty(0),
                     y=np.hstack(ys) if ys else np.empty((y0.size, 0)),
                     t_last=solver.t, nfev=solver.nfev, njev=solver.njev, nlu=solver.nlu,
                     status=status, message=message)


def _integrate(scale, cfg: SolveConfig, rhs, jac, y0):
    """``solve_ivp`` from y0 at t = 0 to the snapshot times of ``cfg``; a
    failed step raises ``SolverError`` naming the ``scale`` and the last
    time the integrator reached."""
    sol = solve_ivp(rhs, (0.0, cfg.t_end), y0, t_eval=list(cfg.snapshots),
                    rtol=cfg.rtol, atol=cfg.atol, jac=jac)
    if sol.status < 0:
        raise SolverError("%s integration failed at t=%.4g: %s"
                          % (scale, sol.t_last, sol.message))
    return sol


def _micro_system(cfg: SolveConfig):
    """Right-hand side and analytic Jacobian of the two-stream system over
    the interior unknowns interleaved as y = (a_1, b_1, a_2, b_2, ...,
    a_{n-1}, b_{n-1}).

    ``jac`` returns the (5, 2m) band of LAPACK order (see the module
    docstring): each stream's neighbours sit two places off the diagonal,
    the exchange between a_i and b_i one place off, and the reaction on the
    diagonal.  ``rhs`` is the constant band times y plus the Dirichlet
    values the end unknowns see and the reaction, so the two cannot disagree.
    """
    grid, data = cfg.grid, cfg.data
    n, dx = grid.n, grid.dx
    m = n - 1
    inv2dx = 1.0 / (2.0 * dx)
    invdx2 = 1.0 / (dx * dx)

    # a advects forward and b backward; row 2 + i - j holds entry (i, j)
    adv = system.ADVECTION * inv2dx
    dif = system.DIFFUSION * invdx2
    ex = float(system.EXCHANGE)
    k = float(system.REACTION)
    band = np.zeros((5, 2 * m))
    band[0, 2::2] = dif - adv           # d(da_i)/d(a_{i+1})
    band[0, 3::2] = dif + adv           # d(db_i)/d(b_{i+1})
    band[1, 1::2] = ex                  # d(da_i)/d(b_i)
    band[2] = -ex - 2.0 * dif
    band[3, 0::2] = ex                  # d(db_i)/d(a_i)
    band[4, 0:-2:2] = dif + adv         # d(da_i)/d(a_{i-1})
    band[4, 1:-2:2] = dif - adv         # d(db_i)/d(b_{i-1})
    sign = np.tile([1.0, -1.0], m)

    def rhs(t, y):
        dy = band[2] * y
        dy[:-1] += band[1, 1:] * y[1:]
        dy[:-2] += band[0, 2:] * y[2:]
        dy[1:] += band[3, :-1] * y[:-1]
        dy[2:] += band[4, :-2] * y[:-2]
        # the end unknowns see the Dirichlet values through their outer neighbours
        dy[0] += (dif + adv) * data.a0(t)
        dy[1] += (dif - adv) * data.b0(t)
        dy[-2] += (dif - adv) * data.aL(t)
        dy[-1] += (dif + adv) * data.bL(t)
        dy += k * sign * y * y
        return dy

    def jac(t, y):
        J = band.copy()
        J[2] += 2.0 * k * sign * y
        return J

    return rhs, jac


def _nodal(initial, n):
    """``initial`` as a float array of n + 1 finite nodal values."""
    v = np.asarray(initial, dtype=float)
    if v.shape != (n + 1,) or not np.isfinite(v).all():
        raise ValueError("initial values must be %d finite nodal values" % (n + 1))
    return v


def solve_microscale(cfg: SolveConfig, *, initial=None):
    """Integrate the two-stream system with the coefficients D, V, X and K
    of ``msbc.system``; Dirichlet values imposed strongly.

    ``initial`` optionally gives (a, b) nodal arrays at t = 0 (defaults to
    rest).  A model number set to 0 drops its term: K = 0 gives the
    linearised system, D = V = K = 0 the pointwise-conserving pair.
    """
    grid, data = cfg.grid, cfg.data
    n = grid.n
    m = n - 1
    y0 = np.zeros(2 * m)
    if initial is not None:
        a0v, b0v = initial
        y0[0::2] = _nodal(a0v, n)[1:n]
        y0[1::2] = _nodal(b0v, n)[1:n]
    rhs, jac = _micro_system(cfg)
    sol = _integrate("microscale", cfg, rhs, jac, y0)

    traj = FieldTrajectory(kind="micro", grid=grid)
    for k, t in enumerate(sol.t):
        a = np.concatenate(([data.a0(t)], sol.y[0::2, k], [data.aL(t)]))
        b = np.concatenate(([data.b0(t)], sol.y[1::2, k], [data.bL(t)]))
        traj.states.append(MicroState(a=a, b=b, t=float(t)))
    return traj


def _end_gradient(c1, c2, c3, dx):
    """The gradient at an end from the three interior values nearest it, by
    the second-order one-sided stencil: the left end's gradient, and the
    negative of the right end's."""
    l1, l2, l3 = _END_STENCIL
    return (l1 * c1 + l2 * c2 + l3 * c3) / (2.0 * dx)


def _macro_system(cfg: SolveConfig, bc_left, bc_right, source):
    """Right-hand side, analytic Jacobian and closed nodal field of the mean
    model over the interior unknowns y = (C_1..C_{n-1}), each a pure function
    of (t, y): C_t = D_eff (C_xx - G2(C, C_x)) with D_eff and G2 derived by
    ``system.macro_model`` from D, V, X and K, G2 in solver units.

    Returns ``(rhs, jac, field)`` for the relation pair in solver units.
    ``field(t, y)`` closes both ends once: it returns the nodal field C, whose
    end values are R + P Cx + Q Cx^2 with the one-sided gradient of
    ``_end_gradient``, and per end the pair (Cx, dC_end/dCx).  ``rhs`` and
    ``jac`` read C from it.  ``jac`` returns the (5, m) band of LAPACK order
    (see the module docstring): tridiagonal but for the end rows, which see
    their end value, and so the three interior values nearest it, through
    their outer neighbour.
    """
    grid = cfg.grid
    n, dx = grid.n, grid.dx
    m = n - 1
    inv2dx = 1.0 / (2.0 * dx)
    invdx2 = 1.0 / (dx * dx)
    xs = grid.nodes()[1:n]
    stencil = np.array(_END_STENCIL) * inv2dx   # d(left Cx)/d(C_1, C_2, C_3)
    # C_t = D_eff (Cxx - G2) = cubic C^3 + transport C Cx + D_eff Cxx
    d_eff, g2, _ = system.macro_model()
    d_eff, g2 = float(d_eff), system.solver_units(g2, system.FIELD_SCALE)
    cubic, transport = -d_eff * float(g2[3, 0]), -d_eff * float(g2[1, 1])

    def field(t, y):
        C = np.empty(n + 1)
        C[1:n] = y
        ends = []
        for end, bc, cx in ((0, bc_left, _end_gradient(y[0], y[1], y[2], dx)),
                            (n, bc_right, -_end_gradient(y[-1], y[-2], y[-3], dx))):
            R, P, Q = bc.coefficients_at(t)
            C[end] = R + P * cx + Q * cx * cx
            ends.append((cx, P + 2.0 * Q * cx))
        return C, ends

    def rhs(t, y):
        C, _ = field(t, y)
        Ci, Cx = C[1:n], (C[2:] - C[:-2]) * inv2dx
        Cxx = (C[2:] - 2.0 * Ci + C[:-2]) * invdx2
        dC = cubic * Ci ** 3 + transport * Ci * Cx + d_eff * Cxx
        if source is not None:
            dC = dC + source(xs, t)
        return dC

    def jac(t, y):
        C, ((_, dl), (_, dr)) = field(t, y)
        Ci, Cx = C[1:n], (C[2:] - C[:-2]) * inv2dx
        J = np.zeros((5, m))
        up, diag, lo = J[1, 1:], J[2], J[3, :-1]
        # the transport term's central gradient is (C_{i+1} - C_{i-1}) / (2 dx)
        half = transport / 2.0
        diag[:] = 3.0 * cubic * Ci * Ci + transport * Cx - 2.0 * d_eff * invdx2
        up[:] = d_eff * invdx2 + half * Ci[:-1] / dx    # d(dC_i)/d(C_{i+1})
        lo[:] = d_eff * invdx2 - half * Ci[1:] / dx     # d(dC_i)/d(C_{i-1})
        # the end rows see the end values through their outer neighbours
        J[[2, 1, 0], [0, 1, 2]] += (d_eff * invdx2 - half * Ci[0] / dx) * dl * stencil
        J[[2, 3, 4], [m - 1, m - 2, m - 3]] -= (d_eff * invdx2 + half * Ci[-1] / dx) * dr * stencil
        return J

    return rhs, jac, field


def solve_macroscale(cfg: SolveConfig, bc_left=None, bc_right=None, *,
                     initial=None, source=None):
    """Integrate the mean-field model with the configured boundary closure.

    The mode resolves here to one relation pair: dirichlet mode takes
    ``dirichlet_heuristic(cfg.data)`` and ignores any pair passed; the robin
    modes take the derived pair ``bc_left``/``bc_right``, in the derivation's
    variables, and ``robin-linearised`` its ``linearized()`` forms.  The
    pair is imposed in solver units (``msbc.system.FIELD_SCALE``), and every
    snapshot must satisfy it to 1e-9: the check reads the snapshot's nodal
    field and one-sided end gradients off the closure's ``field``.
    ``source`` is an optional manufactured forcing f(x, t).
    """
    grid = cfg.grid
    n = grid.n
    if cfg.bc_mode == "dirichlet-heuristic":
        bc_left, bc_right = dirichlet_heuristic(cfg.data)
    elif bc_left is None or bc_right is None:
        raise ValueError("robin modes need both boundary conditions")
    elif cfg.bc_mode == "robin-linearised":
        bc_left, bc_right = bc_left.linearized(), bc_right.linearized()
    bc_left, bc_right = (bc.rescaled(system.FIELD_SCALE) for bc in (bc_left, bc_right))
    rhs, jac, field = _macro_system(cfg, bc_left, bc_right, source)

    y0 = np.zeros(n - 1) if initial is None else _nodal(initial, n)[1:n]
    sol = _integrate("macroscale", cfg, rhs, jac, y0)

    traj = FieldTrajectory(kind="macro", grid=grid)
    for k, t in enumerate(sol.t):
        t = float(t)
        C, ends = field(t, sol.y[:, k])
        for bc, cv, (cx, _) in zip((bc_left, bc_right), (C[0], C[n]), ends):
            res = abs(bc.residual(cv, cx, t))
            if res > 1e-9:
                raise SolverError("boundary relation unsatisfied at t=%.4g on the %s end "
                                  "(residual %.3e)" % (t, bc.side, res))
        traj.states.append(MacroState(C=C, t=t))
    return traj


def reconstruct_micro(state: MacroState, grid: Grid1D):
    """Predicted stream temperatures from the mean field: the mean plus and
    minus the shear, the slow manifold of ``system.macro_model`` in solver
    units."""
    C = state.C
    dx = grid.dx
    Cx = np.empty_like(C)
    Cx[1:-1] = (C[2:] - C[:-2]) / (2.0 * dx)
    Cx[0] = (-3.0 * C[0] + 4.0 * C[1] - C[2]) / (2.0 * dx)
    Cx[-1] = (3.0 * C[-1] - 4.0 * C[-2] + C[-3]) / (2.0 * dx)
    h = system.solver_units(system.macro_model()[2], system.FIELD_SCALE)
    shear = float(h[2, 0]) * C * C + float(h[0, 1]) * Cx
    return MicroState(a=C + shear, b=C - shear, t=state.t)


@dataclass(frozen=True)
class ErrorMetrics:
    Linf_mean: float
    L2_mean: float
    Linf_fields: float


def interior_mask(grid: Grid1D, window):
    """The grid nodes inside ``window`` = (lo, hi); raises ValueError unless
    lo < hi are finite and the window holds at least one node."""
    lo, hi = window
    xs = grid.nodes()
    mask = (xs >= lo) & (xs <= hi)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi and mask.any()):
        raise ValueError("interior window %r must be finite with lo < hi and hold "
                         "a grid node" % (window,))
    return mask


def interior_error(micro: MicroState, macro: MacroState, grid: Grid1D,
                   window=DEFAULT_WINDOW):
    """Interior disagreement between the macroscale solution and the
    microscale reference, over the window where the mean model is valid."""
    if abs(micro.t - macro.t) > 1e-9 * max(1.0, abs(micro.t)):
        raise ValueError("states are at different times")
    mask = interior_mask(grid, window)
    mean = micro.mean()
    diff = macro.C[mask] - mean[mask]
    linf = float(np.max(np.abs(diff)))
    l2 = float(np.sqrt(grid.dx * np.sum(diff * diff)))
    rec = reconstruct_micro(macro, grid)
    linf_fields = max(float(np.max(np.abs(rec.a[mask] - micro.a[mask]))),
                      float(np.max(np.abs(rec.b[mask] - micro.b[mask]))))
    return ErrorMetrics(Linf_mean=linf, L2_mean=l2, Linf_fields=linf_fields)
