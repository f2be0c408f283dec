"""Linear parabolic marches and heat kernel reference tools.

Both PDE marches are implicit by default. The value-side equation
-w_t - Lap w = c w is stepped backward from t = T; its Neumann operator is
self-adjoint in the trapezoid inner product, so the march solves symmetric
positive definite systems in a rescaled variable. The density-side equation
mu_t = Lap mu - div(mu grad phi) is stepped forward in flux form with fitted
faces, which makes every step conserve the trapezoid mass exactly and keeps
the iteration matrix an M-matrix, hence mu >= 0 unconditionally.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain, repeat

import numpy as np

from .discretization import (
    EDGE_SCALE,
    Grid,
    _level_blocks,
    banded_product,
    fitted_bands,
    neumann_off_diagonals,
)
from .errors import PositivityError, SchemeViolationError, SolverError, check_fields

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


def dgtsv(*args):
    """LAPACK's dgtsv, which replaces this loader in the module on its first call.

    Importing scipy.linalg takes about 0.2 s, so the commands that solve no
    tridiagonal system (certify, kernelcheck and every config error) never
    load scipy. Later calls find the LAPACK routine itself under this name.
    """
    _load_lapack()
    return dgtsv(*args)


def dptsv(*args):
    """LAPACK's dptsv, loaded as dgtsv is: the LDL^T solve of a symmetric
    positive definite tridiagonal system, without pivoting."""
    _load_lapack()
    return dptsv(*args)


def _load_lapack() -> None:
    global dgtsv, dptsv
    from scipy.linalg.lapack import dgtsv, dptsv


def solve_banded(
    dl: np.ndarray, d: np.ndarray, du: np.ndarray | None, x: np.ndarray
) -> np.ndarray:
    """Solve every tridiagonal line of one time level in place, in one LAPACK call.

    x is a contiguous float array holding the level's right-hand sides end
    to end; it is overwritten by the solution and returned. dl, d and du
    are the sub-, main and super-diagonals of the stacked system, with zero
    couplings between lines, so LAPACK eliminates each line exactly as
    alone: dgtsv gives the bits of a per-line scipy.linalg.solve_banded
    loop. du=None means a symmetric positive definite system whose
    off-diagonal is dl, solved by dptsv. Both overwrite the diagonals too.
    When every line has the same matrix, x may instead be an F-contiguous
    (n, nrhs) block, one line per column, with one line's bands; each
    elimination factor is then formed once for all columns. A line LAPACK
    refuses (singular, or not positive definite) raises SolverError.
    """
    if du is None:
        _, _, out, info = dptsv(d, dl, x, 1, 1, 1)
    else:
        _, _, _, out, info = dgtsv(dl, d, du, x, 1, 1, 1, 1)
    if info > 0:
        raise SolverError("singular matrix" if du is not None else "matrix not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of the LAPACK solver")
    if out is not x:
        raise ValueError("right-hand side must be a contiguous float array")
    return x


def _diagonals(ab: np.ndarray):
    """The (dl, d, du) diagonals solve_banded takes, as stacks of one row per level.

    ab has shape (3, levels, ...) in the (1, 1) layout, or (2, levels, ...)
    for symmetric systems (banded_product's two-row layout), with zero
    unused ends between stacked lines. A symmetric stack's du is None for
    every level, and its dl is the super-diagonal. The rows are views, so
    the levels' bands are solved where they were built.
    """
    upper, diag, *lower = ab.reshape(ab.shape[:2] + (-1,))
    if not lower:
        return upper[:, 1:], diag, repeat(None)
    return lower[0][:, :-1], diag, upper[:, 1:]


def _level_moves(dst, src, bands, explicit, scratch):
    """The moves of a block of time steps, in march order, for _march.

    dst and src hold the levels stepped onto and from, shape (steps, lines,
    n), bands the unsolved bands of each sweep axis, one row per step, and
    explicit each sweep axis's explicit band rows, one per step: under
    Crank-Nicolson the bands at the level stepped from, under implicit
    Euler None. In 2D a step is two moves: the axis-0 lines are solved in
    the scratch buffer, whose transpose has the level's layout, then the
    axis-1 lines in the level. When the last sweep's bands are one line
    wide, shape (3 or 2, steps, n), every line of the level shares them,
    and that sweep solves the level's lines as the columns of one call.
    """
    sweeps = [_diagonals(ab) for ab in bands]
    x = dst.swapaxes(1, 2) if bands[-1].ndim == 3 else dst.reshape(len(dst), -1)
    if len(bands) == 1:
        return zip(dst, src, explicit[0], x, *sweeps[0])
    flat = repeat(scratch.reshape(-1))
    return chain.from_iterable(zip(
        zip(repeat(scratch), src.swapaxes(1, 2), explicit[0], flat, *sweeps[0]),
        zip(dst, repeat(scratch.T), explicit[1], x, *sweeps[1]),
    ))


def _march(moves) -> None:
    """Make the moves of one block of time levels, one after another.

    A move (dst, src, row, x, dl, d, du) is one sweep of one time step, with
    dst and src read with the sweep axis last: fill dst from src, then solve
    the tridiagonal system with bands dl, d, du in place in x, which is
    dst's memory in the layout solve_banded takes. Implicit Euler (row None)
    fills by a copy. Crank-Nicolson fills (2I - M) src, M the matrix its
    implicit half solves with at the level stepped from, whose bands are row.
    """
    for dst, src, row, x, dl, d, du in moves:
        if row is None:
            dst[...] = src
        else:
            dst[...] = 2.0 * src - banded_product(row, src)
        solve_banded(dl, d, du, x)


def _march_blocks(rows, half, bands_of, check) -> None:
    """March rows forward from level 0, a block of levels at a time.

    rows holds the levels in march order, shape (levels, lines, n), and the
    step onto a level solves with that level's bands. bands_of(first, end)
    returns the unsolved bands of each sweep axis for levels first .. end-1,
    each of shape (3, end - first, ..., n), or (2, ...) for symmetric
    systems. Crank-Nicolson asks for one level more in front, the level a
    block's first step leaves, which only the explicit halves read; LAPACK
    overwrites what it solves, so it gets a copy of the rest. check(start,
    hi) checks levels start+1 .. hi after they are solved and returns the
    level to re-solve from, or hi. One block's bands are alive at a time.
    """
    levels, lines, n = rows.shape
    scratch = np.empty((lines, n))
    for lo, hi in _level_blocks(levels - 1, lines * n):
        start = lo
        while start < hi:
            bands = bands_of(start if half else start + 1, hi + 1)
            explicit = [repeat(None)] * len(bands)
            if half:
                explicit = [ab[:, :-1].swapaxes(0, 1) for ab in bands]
                bands = [ab[:, 1:].copy() for ab in bands]
            _march(_level_moves(rows[start + 1 : hi + 1], rows[start:hi], bands, explicit, scratch))
            del bands, explicit  # before the next block's are built
            start = check(start, hi)


# ---------------------------------------------------------------------------
# backward heat equation with zeroth order coefficient


def solve_backward_heat(
    terminal: np.ndarray,
    coefficient: np.ndarray,
    grid: Grid,
    scheme: str = "implicit_euler",
    out: np.ndarray | None = None,
) -> np.ndarray:
    """March -w_t - Lap w = c(x,t) w backward from w(T) = terminal.

    coefficient has shape (nt+1, n_nodes); the step onto time level j uses
    the coefficient slice at level j. No-flux boundaries. The result is
    strictly positive whenever the terminal slice is; a sign crossing raises
    PositivityError, which signals that dt is too large for the coefficient.
    out, when given, is a C-contiguous float array of shape (nt+1, n_nodes)
    that receives w instead of a new one.

    The march runs forward on w and c reversed in time: march level k is
    time level nt - k. In 2D each step is Lie split into line sweeps: the
    axis-0 sweep carries the zeroth order coefficient, the axis-1 sweep is
    pure diffusion, and each sweep is an M-matrix solve. Each line's matrix
    A is similar to the symmetric S A S^-1 of neumann_off_diagonals' two-row
    layout, positive definite below the step limit, so the march solves for
    y = S w with dptsv and maps back to w once at the end; w(T) is the
    terminal data exactly. Bands and sign checks are done a block of time
    levels at a time. All lines of the diffusion sweep share one matrix, so
    it solves the level's rows as the columns of one call.
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
    c = c.reshape((grid.nt + 1,) + shape)[::-1]
    w = np.empty((grid.nt + 1, grid.n_nodes)) if out is None else out
    w[-1] = w_T
    _scale_edges(w[-1:], grid, np.multiply)

    def bands_of(first, end):
        # the symmetric bands of the axis-0 (coefficient) sweep per level,
        # and in 2D one line's bands of the diffusion sweep per level
        ab = np.empty((2, end - first) + shape)
        np.multiply(theta * dt, c[first:end].swapaxes(-grid.dim, -1), out=ab[1])
        np.subtract(1.0 + 2.0 * r, ab[1], out=ab[1])
        bands = [ab]
        if grid.dim == 2:
            bands.append(np.empty((2, end - first, grid.nx)))
            bands[1][1] = 1.0 + 2.0 * r
        for band in bands:
            neumann_off_diagonals(band, r)
        return bands

    def check(start, hi):
        _check_positive(w, grid.nt - hi, grid.nt - start, grid)
        return hi

    _march_blocks(w[::-1].reshape((grid.nt + 1,) + shape), half, bands_of, check)
    _scale_edges(w[:-1], grid, np.divide)
    w[-1] = w_T
    return w


def _scale_edges(levels: np.ndarray, grid: Grid, op) -> None:
    """Apply S (op np.multiply) or S^-1 (np.divide) in place to levels, shape (k, n_nodes).

    S multiplies the end nodes of every grid line by EDGE_SCALE, one axis
    after the other, so a 2D corner is scaled twice.
    """
    g = levels.reshape((-1,) + (grid.nx,) * grid.dim)
    for a in range(1, grid.dim + 1):
        ends = g[(slice(None),) * a + (slice(None, None, grid.nx - 1),)]
        op(ends, EDGE_SCALE, out=ends)


def _check_positive(y: np.ndarray, lo: int, hi: int, grid: Grid) -> None:
    """Raise PositivityError if a level of y[lo:hi] has a non-positive node.

    y holds the value march's S w, which has w's signs. The march runs
    downward, so the level named is the highest failing one, which a check
    after every step would have met first. One minimum over the block clears
    it; only a failing block, a NaN included, is mapped back to w and
    searched level by level.
    """
    block = y[lo:hi]
    if block.min() > 0.0:
        return
    _scale_edges(block, grid, np.divide)  # the march stops here; report w's values
    low = block.min(axis=1)
    bad = np.flatnonzero(~(low > 0.0))
    if bad.size:
        k = bad[-1]
        raise PositivityError(
            f"value field lost positivity at time level {lo + k} (min {low[k]:.3e})"
        )


# ---------------------------------------------------------------------------
# forward Fokker-Planck march


def solve_fokker_planck(
    initial: np.ndarray,
    phi,
    grid: Grid,
    scheme: str = "implicit_euler",
    out: np.ndarray | None = None,
) -> np.ndarray:
    """March mu_t = Lap mu - div(mu grad phi) forward from mu(0) = initial.

    phi is the drift potential, drift b = grad phi, shape (nt+1, n_nodes);
    the step onto level n uses phi at level n (the implicit side). It is read
    one block of levels at a time, as phi[lo:hi], so it may be an array or
    any object of that shape that forms the levels sliced. Zero-flux
    boundaries: each step preserves the trapezoid mass to roundoff.
    Densities stay nonnegative for the default scheme; anything below -1e-12
    raises SchemeViolationError and smaller undershoots are clamped to zero.
    out, when given, is a C-contiguous float array of shape (nt+1, n_nodes)
    that receives mu instead of a new one.

    In 2D each step is Lie split into an axis-0 then an axis-1 line sweep,
    both with the Peclet numbers of one phi block; each sweep conserves the
    weighted line mass, so the tensor trapezoid mass telescopes exactly.
    Bands and undershoot checks are done a block of time levels at a time.
    The march stays on dgtsv: the weights that would symmetrize its bands
    are exponentials of the running Peclet sum, which overflow once w nears
    the potential's log floor.
    """
    _check_scheme(scheme)
    mu0 = np.asarray(initial, dtype=float)
    if np.shape(phi) != (grid.nt + 1, grid.n_nodes):
        raise ValueError(f"phi shape {np.shape(phi)} != {(grid.nt + 1, grid.n_nodes)}")
    if mu0.shape != (grid.n_nodes,):
        raise ValueError("initial slice does not match the grid")
    if float(mu0.min()) < 0.0:
        raise ValueError("initial density must be nonnegative")

    half = scheme == "crank_nicolson"
    dt = 0.5 * grid.dt if half else grid.dt
    shape = (grid.nx ** (grid.dim - 1), grid.nx)
    mu = np.empty((grid.nt + 1, grid.n_nodes)) if out is None else out
    mu[0] = mu0

    def bands_of(first, end):
        # bands for every sweep axis (grid axis a is array axis a - dim)
        levels = np.asarray(phi[first:end], dtype=float).reshape((end - first,) + shape)
        return [fitted_bands(levels.swapaxes(a - grid.dim, -1), grid, dt) for a in range(grid.dim)]

    rows = mu.reshape((grid.nt + 1,) + shape)
    _march_blocks(rows, half, bands_of, partial(_clamp_undershoot, mu))
    return mu


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


@dataclass(frozen=True)
class HeatKernelQuery:
    """Space-time norm query for the heat kernel or its gradient."""

    dim: int
    exponent: float
    t: float
    kind: str = "kernel"

    RULES = {
        "dim": Grid.RULES["dim"],
        "exponent": lambda q: 1 <= q < np.inf,
        "t": lambda t: 0 < t < np.inf,
        "kind": lambda k: k in ("kernel", "gradient"),
    }

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class KernelNormResult:
    """status is 'fit', 'unresolved', 'boundary' or 'divergent'; value and
    fitted_exponent are None unless it is 'fit'."""

    status: str
    analytic_exponent: float
    value: float | None = None
    fitted_exponent: float | None = None


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
    fitted by log-log regression over a decade of horizons. A non-integrable
    query has status 'divergent', or 'boundary' in the borderline
    log-divergent case; a time integral that over- or underflows (t near
    either end of the floats) is 'unresolved'. Each carries the analytic
    exponent alone.
    """
    beta = analytic_kernel_exponent(query.dim, query.exponent, query.kind)
    if beta <= 1e-14:
        return KernelNormResult("boundary" if abs(beta) <= 1e-14 else "divergent", beta)
    taus = query.t * np.logspace(-1.0, 0.0, 9)
    with np.errstate(all="ignore"):
        vals = np.array([_time_integral(tau, query) for tau in taus])
    if not np.all((vals > 0.0) & (vals < np.inf)):
        return KernelNormResult("unresolved", beta)
    norms = vals ** (1.0 / query.exponent)
    slope = np.polyfit(np.log(taus), np.log(norms), 1)[0]
    return KernelNormResult("fit", beta, value=float(norms[-1]), fitted_exponent=float(slope))
