"""Linear parabolic marches and heat kernel reference tools.

Both PDE marches are implicit by default. The value-side equation
-w_t - Lap w = c w is stepped backward from t = T; the density-side equation
mu_t = Lap mu - div(b mu) is stepped forward in flux form with exponentially
fitted faces, which makes every step conserve the trapezoid mass exactly and
keeps the iteration matrix an M-matrix, hence mu >= 0 unconditionally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgtsv

from .discretization import (
    Grid,
    SpaceTimeField,
    _flux_divergence_axis,
    _level_blocks,
    face_transport_coefficients,
    second_difference,
)
from .errors import (
    KernelNormDivergenceError,
    PositivityError,
    SchemeViolationError,
    SolverError,
)

SCHEMES = ("implicit_euler", "crank_nicolson")


def _check_scheme(scheme: str) -> None:
    if scheme not in SCHEMES:
        raise ValueError(f"unknown time scheme {scheme!r}, expected one of {SCHEMES}")


# ---------------------------------------------------------------------------
# line-sweep tridiagonal kernel
#
# A march on a grid of nx**dim nodes keeps each time level as a
# (nx**(dim-1), nx) array: one row per line along the last axis. A sweep
# along grid axis a works on the view swapped so that axis a is last
# (array axis a - dim), which is a line layout of shape (lines, n).


def solve_banded(ab: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve every tridiagonal line of one time level in one LAPACK call.

    rhs has shape (lines, n), one line per row. ab has shape (3, lines, n)
    and holds each line's matrix in the (1, 1) layout of
    scipy.linalg.solve_banded, with the unused ends ab[0, :, 0] and
    ab[2, :, -1] zero. The lines are stacked end to end into a single system
    whose couplings between lines are those zeros, and dgtsv eliminates each
    block exactly as it would alone, so the result equals a per-line
    solve_banded loop bit for bit. dgtsv overwrites ab.
    """
    du, d, dl = ab.reshape(3, -1)
    _, _, _, x, info = dgtsv(dl[:-1], d, du[1:], rhs.ravel(), 1, 1, 1, 0)
    if info > 0:
        raise LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gtsv")
    return x.reshape(rhs.shape)


def _sweep(ab: np.ndarray, cur: np.ndarray, axis: int) -> np.ndarray:
    """Solve the lines of cur along array axis (negative) with bands ab."""
    return solve_banded(ab, cur.swapaxes(axis, -1)).swapaxes(axis, -1)


# ---------------------------------------------------------------------------
# backward heat equation with zeroth order coefficient


def _diffusion_off_diagonals(ab: np.ndarray, r: float) -> None:
    """Off-diagonal bands of I - r*dx^2*Lap with ghost-node Neumann rows."""
    ab[0, ..., 0] = 0.0
    ab[0, ..., 1:] = -r
    ab[0, ..., 1] = -2.0 * r  # reflected ghost at the left boundary
    ab[2, ..., :-1] = -r
    ab[2, ..., -2] = -2.0 * r
    ab[2, ..., -1] = 0.0


def solve_backward_heat(
    terminal: np.ndarray,
    coefficient: np.ndarray,
    grid: Grid,
    scheme: str = "implicit_euler",
) -> SpaceTimeField:
    """March -w_t - Lap w = c(x,t) w backward from w(T) = terminal.

    coefficient has shape (nt+1, n_nodes); the step onto time level j uses
    the coefficient slice at level j. No-flux boundaries. The result is
    strictly positive whenever the terminal slice is; a sign crossing raises
    PositivityError, which signals that dt is too large for the coefficient.

    In 2D each step is Lie split into line sweeps: the axis-0 sweep carries
    the zeroth order coefficient, the axis-1 sweep is pure diffusion, and
    each sweep is an M-matrix solve. The bands are built for a block of
    time levels at a time, so each step is only its solves.
    """
    _check_scheme(scheme)
    w_T = np.asarray(terminal, dtype=float)
    c = np.asarray(coefficient, dtype=float)
    if c.shape != (grid.nt + 1, grid.n_nodes):
        raise ValueError(f"coefficient shape {c.shape} != {(grid.nt + 1, grid.n_nodes)}")
    if w_T.shape != (grid.n_nodes,):
        raise ValueError("terminal slice does not match the grid")
    dt = grid.dt
    limit = 1.0 if scheme == "implicit_euler" else 2.0
    if dt * float(c.max(initial=0.0)) >= limit:
        raise SolverError(
            "dt * max(c) >= %g: time step too large for the coefficient" % limit
        )

    half = scheme == "crank_nicolson"
    theta = 0.5 if half else 1.0
    r = theta * dt / grid.dx**2
    shape = (grid.nx ** (grid.dim - 1), grid.nx)
    first = -grid.dim  # the axis-0 sweep, which carries the coefficient
    diffusion = np.empty((3,) + shape)  # every other sweep, the same at every level
    diffusion[1] = 1.0 + 2.0 * r
    _diffusion_off_diagonals(diffusion, r)
    c = c.reshape((grid.nt + 1,) + shape)
    w = np.empty((grid.nt + 1, grid.n_nodes))
    w[-1] = w_T
    for lo, hi in reversed(list(_level_blocks(grid.nt, grid.n_nodes))):
        bands = np.empty((3, hi - lo) + shape)
        np.multiply(theta * dt, c[lo:hi].swapaxes(first, -1), out=bands[1])
        np.subtract(1.0 + 2.0 * r, bands[1], out=bands[1])
        _diffusion_off_diagonals(bands, r)
        for j in range(hi - 1, lo - 1, -1):
            cur = w[j + 1].reshape(shape)
            if half:
                cur = cur + r * second_difference(cur, first) + 0.5 * dt * c[j + 1] * cur
            cur = _sweep(bands[:, j - lo], cur, first)
            for axis in range(first + 1, 0):
                if half:
                    cur = cur + r * second_difference(cur, axis)
                cur = _sweep(diffusion.copy(), cur, axis)
            w[j] = cur.ravel()
            _check_positive(w[j], j)
    return SpaceTimeField(w, grid)


def _check_positive(slice_: np.ndarray, level: int) -> None:
    m = float(slice_.min())
    if not m > 0.0:
        raise PositivityError(f"value field lost positivity at time level {level} (min {m:.3e})")


# ---------------------------------------------------------------------------
# forward Fokker-Planck march


def _fp_bands(b_lines: np.ndarray, grid: Grid, dt: float) -> np.ndarray:
    """Bands of I + dt*L for every line of b_lines, shape (3, *b_lines.shape).

    L is the fitted flux divergence along the last axis of b_lines, which
    holds node drifts of shape (..., lines, n).
    """
    dx = grid.dx
    A, B = face_transport_coefficients(0.5 * (b_lines[..., 1:] + b_lines[..., :-1]) * dx)
    scale = dt / (grid.axis_weights * dx)
    ab = np.empty((3,) + b_lines.shape)
    upper, diag, lower = ab
    np.multiply(scale[:-1], A, out=diag[..., :-1])
    diag[..., :-1] += 1.0
    diag[..., -1] = 1.0
    diag[..., 1:] += scale[1:] * B
    upper[..., 0] = 0.0
    np.multiply(-scale[:-1], B, out=upper[..., 1:])
    np.multiply(-scale[1:], A, out=lower[..., :-1])
    lower[..., -1] = 0.0
    return ab


def solve_fokker_planck(
    initial: np.ndarray,
    drift: np.ndarray,
    grid: Grid,
    scheme: str = "implicit_euler",
) -> SpaceTimeField:
    """March mu_t = Lap mu - div(b mu) forward from mu(0) = initial.

    drift has shape (nt+1, dim, n_nodes); the step onto level n uses the
    drift at level n (the implicit side). Zero-flux boundaries: each step
    preserves the trapezoid mass to roundoff. Densities stay nonnegative for
    the default scheme; anything below -1e-12 raises SchemeViolationError and
    smaller undershoots are clamped to zero.

    In 2D each step is Lie split into an axis-0 then an axis-1 line sweep;
    each sweep conserves the weighted line mass, so the tensor trapezoid
    mass telescopes exactly. The bands are built for a block of time levels
    at a time, so each step is only its solves.
    """
    _check_scheme(scheme)
    mu0 = np.asarray(initial, dtype=float)
    b = np.asarray(drift, dtype=float)
    if b.shape != (grid.nt + 1, grid.dim, grid.n_nodes):
        raise ValueError(
            f"drift shape {b.shape} != {(grid.nt + 1, grid.dim, grid.n_nodes)}"
        )
    if mu0.shape != (grid.n_nodes,):
        raise ValueError("initial slice does not match the grid")
    if float(mu0.min()) < 0.0:
        raise ValueError("initial density must be nonnegative")

    half = scheme == "crank_nicolson"
    dt = 0.5 * grid.dt if half else grid.dt
    shape = (grid.nx ** (grid.dim - 1), grid.nx)
    axes = range(-grid.dim, 0)  # grid axis a is array axis a - dim
    b = b.reshape((grid.nt + 1, grid.dim) + shape)
    mu = np.empty((grid.nt + 1, grid.n_nodes))
    mu[0] = mu0
    for lo, hi in _level_blocks(grid.nt, grid.n_nodes):
        # bands of the steps onto levels lo+1 .. hi, one array per sweep axis
        bands = [_fp_bands(b[lo + 1 : hi + 1, a].swapaxes(ax, -1), grid, dt)
                 for a, ax in enumerate(axes)]
        for n in range(lo + 1, hi + 1):
            cur = mu[n - 1].reshape(shape)
            for a, ax in enumerate(axes):
                if half:
                    flux = _flux_divergence_axis(b[n - 1, a], cur, grid, ax, diffusion=True)
                    cur = cur - dt * flux
                cur = _sweep(bands[a][:, n - 1 - lo], cur, ax)
            mu[n] = cur.ravel()
            low = float(mu[n].min())
            if low < -1e-12:
                raise SchemeViolationError(
                    f"density undershoot {low:.3e} at time level {n}"
                )
            if low < 0.0:
                np.clip(mu[n], 0.0, None, out=mu[n])
    return SpaceTimeField(mu, grid)


# ---------------------------------------------------------------------------
# heat kernel tools


def heat_kernel_convolve(initial: np.ndarray, t: float, grid: Grid) -> np.ndarray:
    """Convolve a node field with the heat kernel at time t > 0.

    The sampled kernel matrix is column normalized against the quadrature
    weights, so the discrete mass is preserved to machine precision.
    """
    if not t > 0:
        raise ValueError(f"kernel time must be positive, got {t}")
    f = np.asarray(initial, dtype=float)
    x = grid.axis
    K = np.exp(-((x[:, None] - x[None, :]) ** 2) / (4.0 * t))
    K /= grid.axis_weights @ K  # unit discrete mass per column
    w = grid.axis_weights
    if grid.dim == 1:
        return K @ (w * f)
    g = f.reshape(grid.nx, grid.nx)
    tmp = K @ (w[:, None] * g)
    return ((w * tmp) @ K.T).ravel()


@dataclass(frozen=True)
class HeatKernelQuery:
    """Space-time norm query for the heat kernel or its gradient."""

    dim: int
    exponent: float
    t: float
    kind: str = "kernel"

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if not self.exponent >= 1.0:
            raise ValueError(f"exponent must be >= 1, got {self.exponent}")
        if not self.t > 0:
            raise ValueError(f"t must be positive, got {self.t}")
        if self.kind not in ("kernel", "gradient"):
            raise ValueError(f"kind must be 'kernel' or 'gradient', got {self.kind!r}")


@dataclass(frozen=True)
class KernelNormResult:
    value: float
    fitted_exponent: float
    analytic_exponent: float


def analytic_kernel_exponent(dim: int, exponent: float, kind: str = "kernel") -> float:
    """Growth exponent in t of the space-time norm on R^dim x (0, t)."""
    n, q = float(dim), float(exponent)
    if kind == "kernel":
        return n / (2.0 * q) - n / 2.0 + 1.0 / q
    return n / (2.0 * q) - (n + 1.0) / 2.0 + 1.0 / q


def _radial_norm_power(s: np.ndarray, query: HeatKernelQuery) -> np.ndarray:
    """Spatial L^q norm to the q-th power at each time in s, by quadrature."""
    n, q = query.dim, query.exponent
    surface = 2.0 if n == 1 else 2.0 * np.pi
    nodes, gl_w = np.polynomial.legendre.leggauss(160)
    cutoff = 9.0 * np.sqrt(4.0 * s / q)
    rho = 0.5 * cutoff[:, None] * (nodes[None, :] + 1.0)
    wq = 0.5 * cutoff[:, None] * gl_w[None, :]
    s_ = s[:, None]
    prefactor = (4.0 * np.pi * s_) ** (-0.5 * n * q)
    core = np.exp(-q * rho**2 / (4.0 * s_))
    if query.kind == "gradient":
        core = core * (rho / (2.0 * s_)) ** q
    vals = prefactor * core * rho ** (n - 1)
    return surface * np.sum(vals * wq, axis=1)


def _time_integral(tau: float, query: HeatKernelQuery) -> float:
    """Integral over (0, tau) of the spatial norm power, log-mesh trapezoid.

    The integrand is a pure power of s, so the unresolved piece below the
    smallest mesh point is added back by power-law extrapolation from the
    first two mesh values.
    """
    y = np.log(tau) + np.linspace(np.log(1e-8), 0.0, 1200)
    s = np.exp(y)
    g = _radial_norm_power(s, query)
    integral = float(np.trapezoid(g * s, y))
    gamma = -np.log(g[1] / g[0]) / (y[1] - y[0])
    if gamma < 1.0:
        integral += float(g[0] * s[0] / (1.0 - gamma))
    return integral


def heat_kernel_spacetime_norm(query: HeatKernelQuery) -> KernelNormResult:
    """Space-time L^q norm of the heat kernel (or its gradient) on (0, t).

    The time integral is done on a log-spaced mesh and the growth exponent is
    fitted by log-log regression over a decade of horizons. Non-integrable
    queries raise KernelNormDivergenceError carrying the analytic exponent;
    the borderline log-divergent case is flagged as such.
    """
    beta = analytic_kernel_exponent(query.dim, query.exponent, query.kind)
    if beta <= 1e-14:
        raise KernelNormDivergenceError(beta, boundary=abs(beta) <= 1e-14)
    taus = query.t * np.logspace(-1.0, 0.0, 9)
    vals = np.array([_time_integral(tau, query) for tau in taus])
    norms = vals ** (1.0 / query.exponent)
    slope = np.polyfit(np.log(taus), np.log(norms), 1)[0]
    return KernelNormResult(
        value=float(norms[-1]),
        fitted_exponent=float(slope),
        analytic_exponent=float(beta),
    )
