"""Linear parabolic marches and heat kernel reference tools.

Both PDE marches are implicit by default. The value-side equation
-w_t - Lap w = c w is stepped backward from t = T; the density-side equation
mu_t = Lap mu - div(b mu) is stepped forward in flux form with exponentially
fitted faces, which makes every step conserve the trapezoid mass exactly and
keeps the iteration matrix an M-matrix, hence mu >= 0 unconditionally.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain, repeat

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
# along grid axis a works on the level swapped so that axis a is last
# (array axis a - dim), which is a line layout of shape (lines, n). For the
# last axis that layout is the level's own row of the space-time array; for
# the other axis of a 2D grid it is a transposed copy in a scratch buffer.


def solve_banded(dl: np.ndarray, d: np.ndarray, du: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Solve every tridiagonal line of one time level in place, in one LAPACK call.

    x is a contiguous float array holding the right-hand sides of the
    level's lines end to end; it is overwritten by the solution and
    returned. dl, d and du are the sub-, main and super-diagonals of the
    stacked system (sizes x.size - 1, x.size, x.size - 1), with zero
    couplings where one line ends and the next begins, so dgtsv eliminates
    each line exactly as it would alone and the result equals a per-line
    scipy.linalg.solve_banded loop bit for bit. dgtsv overwrites the
    diagonals too.

    When every line has the same matrix, x may instead be an F-contiguous
    (n, nrhs) block, one line per column, with dl, d and du one line's
    bands (sizes n - 1, n, n - 1). dgtsv then forms each elimination factor
    once and applies it to every column, which is again bit for bit a
    per-line solve.
    """
    _, _, _, out, info = dgtsv(dl, d, du, x, 1, 1, 1, 1)
    if info > 0:
        raise LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gtsv")
    if out is not x:
        raise ValueError("right-hand side must be a contiguous float array")
    return x


def _diagonals(ab: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (dl, d, du) diagonals solve_banded takes, as stacks of one row per level.

    ab has shape (3, levels, ...) and holds each line's matrix in the
    (1, 1) layout of scipy.linalg.solve_banded, with the unused ends
    ab[0, ..., 0] and ab[2, ..., -1] zero: those are the couplings between
    stacked lines. The rows are views, so the levels' bands are solved
    where they were built.
    """
    upper, diag, lower = ab.reshape(ab.shape[:2] + (-1,))
    return lower[:, :-1], diag, upper[:, 1:]


def _level_moves(dst, src, x, sweeps, scratch):
    """The moves of a block of time steps, in march order, for _march.

    dst and src hold the levels stepped onto and from, x the layouts in
    which the last sweep solves dst, and sweeps the (dl, d, du) stacks of
    each sweep axis, all with one row per step in march order. In 2D a step
    is two moves: the axis-0 lines are solved in the scratch buffer, whose
    transpose has the level's layout, then the axis-1 lines in the level.
    """
    if len(sweeps) == 1:
        return zip(dst, src, x, *sweeps[0])
    lines = scratch.T
    return chain.from_iterable(zip(
        zip(repeat(lines), src, repeat(scratch.reshape(-1)), *sweeps[0]),
        zip(dst, repeat(lines), x, *sweeps[1]),
    ))


def _march(moves, fill=None) -> None:
    """Make the moves of one block of time levels, one after another.

    A move (dst, src, x, dl, d, du) is one sweep of one time step: fill dst
    from src, then solve the tridiagonal system with bands dl, d, du in
    place in x, which is dst's memory in the layout solve_banded takes.
    Implicit Euler fills by a copy; fill(k, dst, src), when given, forms the
    right-hand side of the block's k-th move instead.
    """
    if fill is None:
        for dst, src, x, dl, d, du in moves:
            dst[...] = src
            solve_banded(dl, d, du, x)
    else:
        for k, (dst, src, x, dl, d, du) in enumerate(moves):
            fill(k, dst, src)
            solve_banded(dl, d, du, x)


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
    each sweep is an M-matrix solve. The bands and the sign check are done
    for a block of time levels at a time. Every line of the diffusion sweep
    has the same matrix, so that sweep solves the level's rows as the
    columns of one multi-right-hand-side call, with its own copy of one
    line's bands. Each step is thus only a copy of the previous level and
    one in-place solve per sweep.
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
    c = c.reshape((grid.nt + 1,) + shape)
    w = np.empty((grid.nt + 1, grid.n_nodes))
    w[-1] = w_T
    rows = w.reshape((grid.nt + 1,) + shape)
    scratch = None
    if grid.dim == 2:
        scratch = np.empty(shape)
        # one line's bands of the pure diffusion sweep
        line = np.empty((3, 1, grid.nx))
        line[1] = 1.0 + 2.0 * r
        _diffusion_off_diagonals(line, r)

    def explicit_half(top: int, k: int, dst: np.ndarray, src: np.ndarray) -> None:
        """Crank-Nicolson right-hand side of move k of the block below level top."""
        j = top - 1 - k // grid.dim  # the level stepped onto
        ax = k % grid.dim - grid.dim  # grid axis a is array axis a - dim
        if ax == first:
            dst[...] = src + r * second_difference(src, ax) + 0.5 * dt * c[j + 1] * src
        else:
            dst[...] = src + r * second_difference(src, ax)

    for lo, hi in reversed(list(_level_blocks(grid.nt, grid.n_nodes))):
        # bands of the coefficient sweep, one set per level
        bands = np.empty((3, hi - lo) + shape)
        np.multiply(theta * dt, c[lo:hi].swapaxes(first, -1), out=bands[1])
        np.subtract(1.0 + 2.0 * r, bands[1], out=bands[1])
        _diffusion_off_diagonals(bands, r)
        sweeps = [[band[::-1] for band in _diagonals(bands)]]
        dst = rows[lo:hi][::-1]
        if grid.dim == 1:
            x = w[lo:hi][::-1]
        else:
            # each level's diffusion sweep gets its own bands, as dgtsv
            # overwrites them, and solves the level's lines as the columns
            # of its transpose
            sweeps.append(_diagonals(np.broadcast_to(line, (3, hi - lo, grid.nx)).copy()))
            x = dst.swapaxes(1, 2)
        moves = _level_moves(dst, rows[lo + 1 : hi + 1][::-1], x, sweeps, scratch)
        _march(moves, partial(explicit_half, hi) if half else None)
        # the spent moves still hold the bands; free them before the next
        # block's are built, so one block's bands are alive at a time
        del bands, sweeps, moves
        _check_positive(w, lo, hi)
    return SpaceTimeField(w, grid)


def _check_positive(w: np.ndarray, lo: int, hi: int) -> None:
    """Raise PositivityError if a level of w[lo:hi] has a non-positive node.

    The march runs downward, so the level named is the highest failing one,
    which a check after every step would have met first. One minimum over
    the block clears it; only a failing block, a NaN included, is searched
    level by level.
    """
    block = w[lo:hi]
    if block.min() > 0.0:
        return
    low = block.min(axis=1)
    bad = np.flatnonzero(~(low > 0.0))
    if bad.size:
        k = bad[-1]
        raise PositivityError(
            f"value field lost positivity at time level {lo + k} (min {low[k]:.3e})"
        )


# ---------------------------------------------------------------------------
# forward Fokker-Planck march


def _fp_bands(b_lines: np.ndarray, grid: Grid, dt: float) -> np.ndarray:
    """Bands of I + dt*L for every line of b_lines, shape (3, *b_lines.shape).

    L is the fitted flux divergence along the last axis of b_lines, which
    holds node drifts of shape (..., lines, n).

    The lines are worked on as one flat run of nodes (a copy only when
    b_lines is a transposed view), so each coefficient is formed by
    whole-array passes instead of one short loop per line. Flat face k lies
    between nodes k and k+1; the faces between stacked lines are zeroed
    before the coefficients are formed, and the line ends, whose scale is
    the half cell's, are fixed up by strided writes. Every entry gets the
    floating-point operations of the per-line formulas: diag = (scale*A + 1)
    + scale*B of the left face, upper = (-scale)*B and lower = (-scale)*A.
    """
    n = b_lines.shape[-1]
    b = b_lines.reshape(-1)
    p = np.empty(b.size)
    np.add(b[1:], b[:-1], out=p[:-1])
    p *= 0.5
    p *= grid.dx
    p[n - 1 :: n] = 0.0  # no face between one line's end and the next line's start
    A, B = face_transport_coefficients(p)
    scale = dt / (grid.axis_weights * grid.dx)
    inner, end = scale[1], scale[0]  # interior cells, and the half cells at the ends
    ab = np.empty((3, b.size))
    upper, diag, lower = ab
    np.multiply(A, -inner, out=lower)
    np.subtract(1.0, lower, out=diag)  # 1 - (-scale*A) is 1 + scale*A, bit for bit
    np.multiply(A[::n], end, out=diag[::n])
    diag[::n] += 1.0
    np.multiply(B[:-1], -inner, out=upper[1:])
    upper[::n] = 0.0
    diag -= upper  # adds scale*B of the left face; line starts have none
    np.multiply(B[n - 2 :: n], end, out=diag[n - 1 :: n])
    diag[n - 1 :: n] += 1.0
    np.multiply(B[::n], -end, out=upper[1::n])
    np.multiply(A[n - 2 :: n], -end, out=lower[n - 2 :: n])
    lower[n - 1 :: n] = 0.0
    return ab.reshape((3,) + b_lines.shape)


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
    mass telescopes exactly. The bands and the undershoot check are done
    for a block of time levels at a time, so each step is only a copy of
    the previous level and one in-place solve per sweep.
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
    b = b.reshape((grid.nt + 1, grid.dim) + shape)
    mu = np.empty((grid.nt + 1, grid.n_nodes))
    mu[0] = mu0
    rows = mu.reshape((grid.nt + 1,) + shape)
    scratch = np.empty(shape) if grid.dim == 2 else None

    def explicit_half(bottom: int, k: int, dst: np.ndarray, src: np.ndarray) -> None:
        """Crank-Nicolson right-hand side of move k of the block above level bottom."""
        n = bottom + 1 + k // grid.dim  # the level stepped onto
        a = k % grid.dim
        flux = _flux_divergence_axis(b[n - 1, a], src, grid, a - grid.dim, diffusion=True)
        dst[...] = src - dt * flux

    for lo, hi in _level_blocks(grid.nt, grid.n_nodes):
        start = lo
        while start < hi:
            # bands of the steps onto levels start+1 .. hi, for every sweep
            # axis (grid axis a is array axis a - dim)
            sweeps = [
                _diagonals(_fp_bands(b[start + 1 : hi + 1, a].swapaxes(a - grid.dim, -1), grid, dt))
                for a in range(grid.dim)
            ]
            levels = slice(start + 1, hi + 1)
            moves = _level_moves(rows[levels], rows[start:hi], mu[levels], sweeps, scratch)
            _march(moves, partial(explicit_half, start) if half else None)
            del sweeps, moves  # one block's bands alive at a time, as in the heat march
            start = _clamp_undershoot(mu, start, hi)
    return SpaceTimeField(mu, grid)


def _clamp_undershoot(mu: np.ndarray, lo: int, hi: int) -> int:
    """Clamp the first level of mu[lo+1 : hi+1] that dips below zero.

    Returns that level, from which the march must re-solve the levels after
    it, or hi when no level dips. An undershoot below -1e-12 raises
    SchemeViolationError instead.
    """
    block = mu[lo + 1 : hi + 1]
    if block.min() >= 0.0:  # a NaN fails this and is searched for level by level
        return hi
    low = block.min(axis=1)
    neg = np.flatnonzero(low < 0.0)
    if not neg.size:
        return hi
    k = neg[0]
    n = lo + 1 + int(k)
    if low[k] < -1e-12:
        raise SchemeViolationError(f"density undershoot {low[k]:.3e} at time level {n}")
    np.clip(mu[n], 0.0, None, out=mu[n])
    return n


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
