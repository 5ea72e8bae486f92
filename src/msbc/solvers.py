"""Method-of-lines solvers for the microscale pair and the macroscale mean.

The microscale system evolves the two stream temperatures with exchange,
quadratic reaction, counter-advection and lateral diffusion, under Dirichlet
values at both ends.  The macroscale model evolves the mean temperature with
an effective cubic reaction, nonlinear advection and enhanced diffusion;
its boundary closure is pluggable: heuristic Dirichlet values, the derived
nonlinear Robin condition, or its linearisation.

Spatial derivatives are second-order central differences; time integration
uses a variable-order implicit (BDF) scheme with the analytic banded
Jacobian of the discrete right-hand side.  Robin closures solve the boundary
relation for the end value at every right-hand-side evaluation, differencing
the gradient with a second-order one-sided stencil: the relation is then
quadratic in the end value, so the root is taken in closed form, keeping the
branch nearest the previous end value (which tracks the branch connected to
the linear condition) and falling back to the vertex of the quadratic when a
trial state has no real root.  The Jacobian's end rows carry the end value's
derivative, found by differentiating the quadratic implicitly.

The macroscale Jacobian is tridiagonal (the end values depend only on the
two interior values nearest their end, which adds to the end rows' diagonal
and off-diagonal), so it is held as three diagonals in LAPACK band order:
rows upper, main, lower, each of length m, with ``J[0, 0]`` and
``J[2, m - 1]`` unused.  ``_TridiagonalBDF`` runs scipy's BDF unchanged but
for its Newton matrix ``I - c J``, which it keeps in the same storage and
factors with LAPACK's ``dgttrf`` (Gaussian elimination with partial
pivoting) and solves with ``dgttrs``: O(m) work per factorisation instead of
assembling a sparse matrix and calling SuperLU.  A zero pivot raises
``SolverError``.  The microscale Jacobian couples the two streams at offset
+-m, outside any narrow band, and its solve needs only about 30
factorisations, so it stays on scipy's sparse LU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.integrate import BDF, solve_ivp
from scipy.linalg import lapack

from .boundary import BoundaryData, RobinBC, SolverError  # noqa: F401

DEFAULT_WINDOW = (5.0, 25.0)


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
        self.snapshots = tuple(sorted(snaps))


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


def _micro_system(cfg: SolveConfig, reaction, advection, diffusion, exchange):
    """Right-hand side and analytic Jacobian of the two-stream system over
    the interior unknowns y = (a_1..a_{n-1}, b_1..b_{n-1}).

    The Jacobian has tridiagonal stream blocks (reaction on the diagonal,
    advection and diffusion beside it) coupled by the exchange on the
    diagonals of the off-diagonal blocks.
    """
    grid, data = cfg.grid, cfg.data
    n, dx = grid.n, grid.dx
    m = n - 1
    inv2dx = 1.0 / (2.0 * dx)
    invdx2 = 1.0 / (dx * dx)

    def rhs(t, y):
        a = np.empty(n + 1)
        b = np.empty(n + 1)
        a[1:n] = y[:m]
        b[1:n] = y[m:]
        a[0], b[0] = data.a0(t), data.b0(t)
        a[n], b[n] = data.aL(t), data.bL(t)
        ai, bi = a[1:n], b[1:n]
        da = np.zeros(m)
        db = np.zeros(m)
        if exchange:
            da += 0.5 * (bi - ai)
            db += 0.5 * (ai - bi)
        if reaction:
            da += 0.5 * ai * ai
            db -= 0.5 * bi * bi
        if advection:
            da -= (a[2:] - a[:-2]) * inv2dx
            db += (b[2:] - b[:-2]) * inv2dx
        if diffusion:
            da += 3.0 * (a[2:] - 2.0 * ai + a[:-2]) * invdx2
            db += 3.0 * (b[2:] - 2.0 * bi + b[:-2]) * invdx2
        return np.concatenate([da, db])

    # neighbours within a stream (a advects forward, b backward); the two
    # stream blocks do not touch across the junction at index m
    adv = inv2dx if advection else 0.0
    dif = 3.0 * invdx2 if diffusion else 0.0
    up = np.concatenate([np.full(m - 1, dif - adv), [0.0], np.full(m - 1, dif + adv)])
    lo = np.concatenate([np.full(m - 1, dif + adv), [0.0], np.full(m - 1, dif - adv)])
    diag0 = np.full(2 * m, (-0.5 if exchange else 0.0) - 2.0 * dif)
    ex = np.full(m, 0.5 if exchange else 0.0)
    sign = np.concatenate([np.ones(m), -np.ones(m)])

    def jac(t, y):
        diag = diag0 + sign * y if reaction else diag0
        return sparse.diags_array([ex, lo, diag, up, ex], offsets=(-m, -1, 0, 1, m),
                                  format="csc")

    return rhs, jac


def solve_microscale(cfg: SolveConfig, *, initial=None,
                     reaction=True, advection=True, diffusion=True,
                     exchange=True):
    """Integrate the two-stream system; Dirichlet values imposed strongly.

    ``initial`` optionally gives (a, b) nodal arrays at t = 0 (defaults to
    rest).  The term switches exist for verification runs: dropping the
    reaction gives the linearised system, dropping everything but the
    exchange gives the pointwise-conserving pair.
    """
    grid, data = cfg.grid, cfg.data
    n = grid.n
    m = n - 1
    rhs, jac = _micro_system(cfg, reaction, advection, diffusion, exchange)

    if initial is None:
        y0 = np.zeros(2 * m)
    else:
        a0v, b0v = initial
        y0 = np.concatenate([np.asarray(a0v, dtype=float)[1:n],
                             np.asarray(b0v, dtype=float)[1:n]])

    sol = solve_ivp(rhs, (0.0, cfg.t_end), y0, method="BDF",
                    t_eval=list(cfg.snapshots), rtol=cfg.rtol, atol=cfg.atol,
                    jac=jac)
    if not sol.success:
        reached = sol.t[-1] if len(sol.t) else 0.0
        raise SolverError("microscale integration failed at t=%.4g: %s"
                          % (reached, sol.message))

    traj = FieldTrajectory(kind="micro", grid=grid)
    for k, t in enumerate(sol.t):
        a = np.empty(n + 1)
        b = np.empty(n + 1)
        a[1:n] = sol.y[:m, k]
        b[1:n] = sol.y[m:, k]
        a[0], b[0] = data.a0(t), data.b0(t)
        a[n], b[n] = data.aL(t), data.bL(t)
        traj.states.append(MicroState(a=a, b=b, t=float(t)))
    return traj


def _boundary_root(bc: RobinBC, t, c1, c2, dx, side, start):
    """Solve the Robin relation for the end value, gradient one-sided.

    Left:  Cx = (-3 C0 + 4 C1 - C2) / (2 dx);  right: mirrored sign.
    The relation is quadratic in the end value, so the root is taken in
    closed form; of the two branches the one nearer the previous accepted
    value is kept, which tracks the branch continuously connected to the
    linear condition (the transient can bring the branches close together,
    where an iterative solve would grind on the near-double root).

    Returns the end value and its derivatives in ``c1`` and ``c2``, from the
    implicit derivative of the chosen root of the quadratic.
    """
    P, R = bc.coefficients_at(t)
    Q = float(bc.Q)
    sgn = -1.0 if side == "left" else 1.0
    alpha = sgn * 3.0 / (2.0 * dx)          # d(Cx)/d(C0)
    cx0 = sgn * (c2 - 4.0 * c1) / (2.0 * dx)  # Cx at C0 = 0
    # in the gradient variable u:  alpha Q u^2 + (alpha P - 1) u + cx0 + alpha R = 0
    A = alpha * Q
    B = alpha * P - 1.0
    Cc = cx0 + alpha * R
    u_prev = cx0 + alpha * start
    if A == 0.0:
        if B == 0.0:
            raise SolverError("degenerate %s boundary relation at t=%.4g" % (side, t))
        u = -Cc / B
        du = -1.0 / B
    else:
        disc = B * B - 4.0 * A * Cc
        if disc < 0.0:
            # trial states during implicit steps can cross the tangency of
            # the two branches; the vertex minimises the relation's residual
            # and keeps the right-hand side defined (accepted snapshots are
            # still required to satisfy the relation, checked by the caller)
            u = -B / (2.0 * A)
            du = 0.0                          # the vertex does not move with cx0
        else:
            sq = disc ** 0.5
            q = -0.5 * (B + (sq if B >= 0.0 else -sq))
            if q != 0.0:
                roots = (q / A, Cc / q)
            else:
                roots = ((-B + sq) / (2.0 * A), (-B - sq) / (2.0 * A))
            u = min(roots, key=lambda r: abs(r - u_prev))
            slope = 2.0 * A * u + B
            # a double root has no finite slope: treat it as the vertex
            du = -1.0 / slope if slope != 0.0 else 0.0
    dc0 = (du - 1.0) / alpha                  # d(C0)/d(cx0)
    dcx = sgn / (2.0 * dx)                    # d(cx0)/d(c2); d(cx0)/d(c1) = -4 dcx
    return (u - cx0) / alpha, -4.0 * dcx * dc0, dcx * dc0


def _macro_system(cfg: SolveConfig, bc_left, bc_right, source):
    """Right-hand side, analytic Jacobian and end-value closure of the mean
    model over the interior unknowns y = (C_1..C_{n-1}).

    Returns ``(rhs, jac, closures, prev)``.  ``closures(t, y)`` gives the two
    end values and records them in ``prev``, the previous end values each
    Robin root is chosen against; ``jac`` reads ``prev`` but never writes it.
    The Jacobian is tridiagonal: the Robin end values depend on the first two
    interior values at their end, which only adds to the end rows.  ``jac``
    returns it as a (3, m) band: rows upper, main, lower (see the module
    docstring).
    """
    grid, data = cfg.grid, cfg.data
    n, dx = grid.n, grid.dx
    m = n - 1
    robin = cfg.bc_mode != "dirichlet-heuristic"
    inv2dx = 1.0 / (2.0 * dx)
    invdx2 = 1.0 / (dx * dx)
    xs = grid.nodes()[1:n]
    prev = {"left": 0.0, "right": 0.0}

    def ends(t, y):
        """Each end value with its derivatives in the two interior values
        nearest that end."""
        if not robin:
            return ((0.5 * (data.a0(t) + data.b0(t)), 0.0, 0.0),
                    (0.5 * (data.aL(t) + data.bL(t)), 0.0, 0.0))
        return (_boundary_root(bc_left, t, y[0], y[1], dx, "left", prev["left"]),
                _boundary_root(bc_right, t, y[m - 1], y[m - 2], dx, "right",
                               prev["right"]))

    def closures(t, y):
        (c0, _, _), (cn, _, _) = ends(t, y)
        if robin:
            prev["left"], prev["right"] = c0, cn
        return c0, cn

    def rhs(t, y):
        C = np.empty(n + 1)
        C[1:n] = y
        C[0], C[n] = closures(t, y)
        Ci = C[1:n]
        Cx = (C[2:] - C[:-2]) * inv2dx
        Cxx = (C[2:] - 2.0 * Ci + C[:-2]) * invdx2
        dC = 0.5 * Ci ** 3 - 2.0 * Ci * Cx + 4.0 * Cxx
        if source is not None:
            dC = dC + source(xs, t)
        return dC

    def jac(t, y):
        (c0, dl1, dl2), (cn, dr1, dr2) = ends(t, y)
        C = np.empty(n + 1)
        C[1:n] = y
        C[0], C[n] = c0, cn
        Ci = C[1:n]
        Cx = (C[2:] - C[:-2]) * inv2dx
        J = np.zeros((3, m))
        up, diag, lo = J[0, 1:], J[1], J[2, :-1]
        diag[:] = 1.5 * Ci * Ci - 2.0 * Cx - 8.0 * invdx2
        up[:] = 4.0 * invdx2 - Ci[:-1] / dx    # d(dC_i)/d(C_{i+1})
        lo[:] = 4.0 * invdx2 + Ci[1:] / dx     # d(dC_i)/d(C_{i-1})
        # the end rows see the end values through their outer neighbours
        k0 = 4.0 * invdx2 + Ci[0] / dx
        kn = 4.0 * invdx2 - Ci[-1] / dx
        diag[0] += k0 * dl1
        up[0] += k0 * dl2
        diag[-1] += kn * dr1
        lo[-1] += kn * dr2
        return J

    return rhs, jac, closures, prev


class _TridiagonalBDF(BDF):
    """scipy's BDF with a tridiagonal Jacobian: ``jac(t, y)`` returns the
    (3, m) band, and the Newton matrix ``I - c J`` is factored by LAPACK's
    ``dgttrf`` and solved by ``dgttrs`` in the same storage."""

    def __init__(self, fun, t0, y0, t_bound, jac, **options):
        m = len(y0)
        # a constant sparse placeholder takes BDF's sparse branch, so it
        # never allocates a dense m x m identity, and leaves njev at 0
        super().__init__(fun, t0, y0, t_bound, jac=sparse.csc_array((m, m)),
                         **options)

        def band_jac(t, y):
            self.njev += 1
            return jac(t, y)

        self.jac = band_jac
        self.J = band_jac(self.t, self.y)
        self.I = np.zeros((3, m))
        self.I[1] = 1.0
        self.lu = self._factor
        self.solve_lu = self._solve

    def _factor(self, A):
        self.nlu += 1
        *lu, info = lapack.dgttrf(A[2, :-1], A[1], A[0, 1:], overwrite_dl=1,
                                  overwrite_d=1, overwrite_du=1)
        if info != 0:
            raise SolverError("singular Newton matrix at t=%.4g (dgttrf info %d)"
                              % (self.t, info))
        return lu

    def _solve(self, lu, b):
        x, info = lapack.dgttrs(*lu, b, overwrite_b=1)
        if info != 0:
            raise SolverError("Newton solve failed at t=%.4g (dgttrs info %d)"
                              % (self.t, info))
        return x


def solve_macroscale(cfg: SolveConfig, bc_left=None, bc_right=None, *,
                     initial=None, source=None):
    """Integrate the mean-field model with the configured boundary closure.

    ``bc_left``/``bc_right`` are RobinBC objects for the robin modes and
    ignored in dirichlet mode, where the end values are the data means.
    ``source`` is an optional manufactured forcing f(x, t) used by the
    verification tests.
    """
    grid = cfg.grid
    n, dx = grid.n, grid.dx
    robin = cfg.bc_mode != "dirichlet-heuristic"
    if robin and (bc_left is None or bc_right is None):
        raise ValueError("robin modes need both boundary conditions")
    rhs, jac, closures, _ = _macro_system(cfg, bc_left, bc_right, source)

    y0 = np.zeros(n - 1) if initial is None else np.asarray(initial, dtype=float)[1:n]

    sol = solve_ivp(rhs, (0.0, cfg.t_end), y0, method=_TridiagonalBDF,
                    t_eval=list(cfg.snapshots), rtol=cfg.rtol, atol=cfg.atol,
                    jac=jac)
    if not sol.success:
        reached = sol.t[-1] if len(sol.t) else 0.0
        raise SolverError("macroscale integration failed at t=%.4g: %s"
                          % (reached, sol.message))

    traj = FieldTrajectory(kind="macro", grid=grid)
    for k, t in enumerate(sol.t):
        y = sol.y[:, k]
        C = np.empty(n + 1)
        C[1:n] = y
        C[0], C[n] = closures(float(t), y)
        if robin:
            cxl = (-3.0 * C[0] + 4.0 * C[1] - C[2]) / (2.0 * dx)
            cxr = (3.0 * C[n] - 4.0 * C[n - 1] + C[n - 2]) / (2.0 * dx)
            for bc, cv, cx in ((bc_left, C[0], cxl), (bc_right, C[n], cxr)):
                res = abs(bc.residual(cv, cx, float(t)))
                if res > 1e-9:
                    raise SolverError(
                        "boundary relation unsatisfied at t=%.4g on the %s end "
                        "(residual %.3e)" % (t, bc.side, res))
        traj.states.append(MacroState(C=C, t=float(t)))
    return traj


def reconstruct_micro(state: MacroState, grid: Grid1D):
    """Predicted stream temperatures from the mean field: the mean plus and
    minus the shear correction (half the squared mean minus the gradient)."""
    C = state.C
    dx = grid.dx
    Cx = np.empty_like(C)
    Cx[1:-1] = (C[2:] - C[:-2]) / (2.0 * dx)
    Cx[0] = (-3.0 * C[0] + 4.0 * C[1] - C[2]) / (2.0 * dx)
    Cx[-1] = (3.0 * C[-1] - 4.0 * C[-2] + C[-3]) / (2.0 * dx)
    shear = 0.5 * C * C - Cx
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
