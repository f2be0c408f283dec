"""Damped fixed-point solver for the coupled system via the value transform.

Writing w = exp(-u/2) turns the quadratic value equation into the linear
backward heat equation -w_t - Lap w = (f(m) - V) w, and the density equation
into a linear drifted march with drift b = 2 grad(w)/w. One fixed-point sweep
maps a density trajectory m to the density mu produced by those two linear
solves; the solver damps that map and iterates until the relative space-time
L1 change is below tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .discretization import (
    Grid,
    _level_blocks,
    flux_divergence,
    gradient,
    integrate_space_time,
    laplacian,
)
from .errors import SolverError, check_fields
from .parabolic import SCHEMES, solve_backward_heat, solve_fokker_planck
from .problem import ProblemFields, ProblemSpec, coupling_mass, sample_on_grid

VERDICT_CONVERGED = "converged"
VERDICT_DIVERGED = "diverged"
VERDICT_MAX_ITERATIONS = "max_iterations"

_LOG_FLOOR = 1e-300

INITIAL_GUESSES = ("heat_flow", "frozen")


@dataclass(frozen=True)
class SolverConfig:
    damping: float = 0.5
    tol: float = 1e-8
    max_iter: int = 200
    d_cap: float = 1e6
    time_scheme: str = "implicit_euler"
    initial_guess: str = "heat_flow"

    RULES = {
        "damping": lambda d: 0 < d <= 1,
        "tol": lambda t: 0 < t < np.inf,
        "max_iter": lambda n: type(n) is int and n >= 1,  # neither a bool nor 2.5
        "d_cap": lambda c: 0 < c < np.inf,
        "time_scheme": lambda s: s in SCHEMES,
        "initial_guess": lambda g: g in INITIAL_GUESSES,
    }

    def __post_init__(self):
        check_fields(self)


@dataclass
class SolveOutcome:
    verdict: str
    iterations: int
    residual_history: list[float]
    d_history: list[float]
    d_final: float
    m: np.ndarray | None = None
    w: np.ndarray | None = None
    resolve_residual: float | None = None
    note: str = ""

    @property
    def converged(self) -> bool:
        return self.verdict == VERDICT_CONVERGED


def hopf_cole(u_values: np.ndarray) -> np.ndarray:
    """Value transform w = exp(-u/2)."""
    return np.exp(-0.5 * np.asarray(u_values, dtype=float))


def inverse_hopf_cole(w_values: np.ndarray) -> np.ndarray:
    """Inverse transform u = -2 log w; w must be strictly positive."""
    w = np.asarray(w_values, dtype=float)
    if not float(w.min()) > 0.0:
        raise ValueError("inverse transform requires strictly positive w")
    u = np.log(w)
    u *= -2.0
    return u


@dataclass(frozen=True)
class _BlockDrift:
    """The node drift b = 2 grad(log w) of a value field, formed for the levels sliced.

    solve_fokker_planck reads its drift one block of levels at a time, so
    the Picard map never holds the whole trajectory's drift.
    """

    w: np.ndarray
    grid: Grid

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.w.shape[0], self.grid.dim, self.grid.n_nodes)

    def __getitem__(self, levels: slice) -> np.ndarray:
        b = gradient(np.log(np.maximum(self.w[levels], _LOG_FLOOR)), self.grid)
        b *= 2.0
        return b


def picard_map(
    m_values: np.ndarray,
    p: ProblemSpec,
    grid: Grid,
    fields: ProblemFields,
    scheme: str = "implicit_euler",
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One sweep of the fixed-point map: density in, (w, new density) out.

    out, when given, is a pair of C-contiguous float arrays of m's shape,
    other than m: w is written into the first and the new density into the
    second, which holds the heat coefficient before it. Otherwise the map
    allocates both.
    """
    m = np.asarray(m_values, dtype=float)
    w_out, mu_out = (None, None) if out is None else out
    # half the source: -w_t - Lap w = ((f - V)/2) w is what w = e^(-u/2)
    # turns the value equation into when the kinetic term is |grad u|^2/2
    c = p.coupling.f(m, out=mu_out)  # the heat coefficient, in the new density's buffer
    c -= fields.v
    c *= 0.5
    w = solve_backward_heat(hopf_cole(fields.u_terminal), c, grid, scheme=scheme, out=w_out)
    del c  # the FP march holds the largest working set; c is not needed there
    mu = solve_fokker_planck(fields.m0, _BlockDrift(w, grid), grid, scheme=scheme, out=mu_out)
    return w, mu


def _damped_update(
    m: np.ndarray, mu: np.ndarray, damping: float, den: float, p: ProblemSpec, grid: Grid
) -> tuple[np.ndarray, float, float, float]:
    """The damped Picard update and its monitors, formed in mu's buffer.

    den is the integral of |m|. Returns m_new = (1 - damping) m + damping mu
    (mu itself), the relative change (integral of |m_new - m|) / den, the
    blow-up monitor D of m_new, and the integral of |m_new|, the next
    update's den. m is overwritten as the integrals' scratch, so solve, the
    only caller, must not read it again. (1 - damping) m is formed a block
    of levels at a time: the update allocates one block, not a trajectory.
    Every value has the bits of the plain expressions.
    """
    mu *= damping
    for lo, hi in _level_blocks(grid.nt + 1, grid.n_nodes):
        mu[lo:hi] += (1.0 - damping) * m[lo:hi]
    np.subtract(mu, m, out=m)
    np.abs(m, out=m)
    res = integrate_space_time(m, grid) / den if den > 0 else np.inf
    d_val = coupling_mass(mu, p.coupling, grid, out=m)
    np.abs(mu, out=m)
    return mu, res, d_val, integrate_space_time(m, grid)


def _initial_trajectory(fields: ProblemFields, grid: Grid, cfg: SolverConfig) -> np.ndarray:
    if cfg.initial_guess == "frozen":
        return np.tile(fields.m0, (grid.nt + 1, 1))
    zero_drift = np.broadcast_to(0.0, (grid.nt + 1, grid.dim, grid.n_nodes))
    return solve_fokker_planck(fields.m0, zero_drift, grid, scheme=cfg.time_scheme)


def solve(
    p: ProblemSpec,
    grid: Grid,
    cfg: SolverConfig | None = None,
    fields: ProblemFields | None = None,
) -> SolveOutcome:
    """Damped fixed-point iteration on the density trajectory.

    Numerical blow-up is a verdict, not an error: the iteration stops with
    verdict 'diverged' when the monitor integral of m^(2 alpha + 1) exceeds
    d_cap, when non-finite values appear, or when a linear march fails: it
    loses positivity (which only happens under blow-up scale coefficients)
    or LAPACK refuses one of its lines. A failed march of the initial guess
    stops with 0 iterations. Every other stop records its verdict, note and
    d_final inside the loop and leaves it by break; the one SolveOutcome is
    built after the loop. The loop owns three trajectories for its whole
    life: the iterate m, the value field w, which each map writes over the
    last map's, and the spent iterate, in which each map forms its heat
    coefficient and then its density, which the update turns into the next
    iterate.
    A converged outcome carries the last iterate m, the last map's w and
    resolve_residual; u is inverse_hopf_cole(w). fields, when given, is the
    problem data already sampled on grid.
    """
    if cfg is None:
        cfg = SolverConfig()
    if abs(grid.horizon - p.horizon) > 1e-12 * max(1.0, p.horizon):
        raise ValueError("grid horizon does not match problem horizon")
    if fields is None:
        fields = sample_on_grid(p, grid)
    try:
        m = _initial_trajectory(fields, grid, cfg)
    except SolverError as exc:
        return SolveOutcome(VERDICT_DIVERGED, 0, [], [], np.inf, note=f"linear march failed: {exc}")
    den = integrate_space_time(np.abs(m), grid)
    w, spent = np.empty_like(m), np.empty_like(m)

    residuals: list[float] = []
    d_history: list[float] = []
    verdict, note = VERDICT_MAX_ITERATIONS, "iteration budget exhausted"
    for it in range(1, cfg.max_iter + 1):
        try:
            w, mu = picard_map(m, p, grid, fields=fields, scheme=cfg.time_scheme, out=(w, spent))
        except SolverError as exc:
            verdict, note, d_final = VERDICT_DIVERGED, f"linear march failed: {exc}", np.inf
            break
        # the update overwrites m and returns the next iterate in mu's buffer
        mu, res, d_final, next_den = _damped_update(m, mu, cfg.damping, den, p, grid)
        residuals.append(res)
        d_history.append(d_final)
        finite = np.isfinite(res) and np.isfinite(d_final)
        if not finite or d_final > cfg.d_cap:
            verdict = VERDICT_DIVERGED
            note = "blow-up monitor exceeded" if finite else "non-finite iterate"
            break
        m, spent, prev_den, den = mu, m, den, next_den
        if res <= cfg.tol:
            verdict, note = VERDICT_CONVERGED, ""
            break

    out = SolveOutcome(verdict, it, residuals, d_history, d_final, note=note)
    if out.converged:
        # the last map's density mu = m_prev + (m - m_prev)/damping gives
        # mu - m = (1 - damping)(mu - m_prev), so the relative L1 distance
        # of mu from m follows from the update's own integrals
        out.resolve_residual = (1.0 - cfg.damping) / cfg.damping * res * prev_den / den
        out.m, out.w = m, w
    return out


def self_consistency_residual(
    u: np.ndarray, m: np.ndarray, p: ProblemSpec, grid: Grid, fields: ProblemFields
) -> tuple[float, float]:
    """Discrete residuals of the original coupled system.

    The value residual applies -d_t - Lap + |grad|^2/2 + f(m) - V to u with
    the scheme's backward time difference; the density residual applies the
    march's implicit step, (m1 - m0)/dt + L m1 with L = flux_divergence for
    the drift -grad u. Both are quadrature-weighted L1 norms over interior
    space-time nodes; on a 1D implicit Euler solve the density residual
    sits near the Picard tolerance. The stencils run over blocks of time
    levels; one np.vecdot per block gives each level's weighted norm (the
    bits of a per-level np.dot), and the norms are added in level order.
    Both residuals of every block are summed, term by term in the order
    written above, in one buffer r.
    """
    dt = grid.dt
    interior = _interior_mask(grid)
    w_int = grid.weights * interior

    hjb_total = 0.0
    fp_total = 0.0
    blocks = list(_level_blocks(grid.nt, grid.n_nodes))
    buffer = np.empty((blocks[0][1] - blocks[0][0], grid.n_nodes))  # the first block is the largest
    for lo, hi in blocks:
        r = buffer[: hi - lo]
        # value residual at levels lo .. hi-1
        u0, u1 = u[lo:hi], u[lo + 1 : hi + 1]
        m0, m1 = m[lo:hi], m[lo + 1 : hi + 1]
        np.subtract(u1, u0, out=r)
        np.negative(r, out=r)
        r /= dt
        r -= laplacian(u0, grid)
        gu = gradient(u0, grid)
        gu *= gu
        kinetic = np.sum(gu, axis=-2)
        del gu
        kinetic *= 0.5
        r += kinetic
        r += p.coupling.f(m0, out=kinetic)  # the added term's buffer now holds f(m0)
        r -= fields.v
        for norm in np.vecdot(np.abs(r, out=r), w_int).tolist():
            hjb_total += norm * dt
        # density residual at levels lo+1 .. hi, driven by -grad u
        np.subtract(m1, m0, out=r)
        r /= dt
        b = gradient(u1, grid)
        np.negative(b, out=b)
        r += flux_divergence(b, m1, grid)
        for norm in np.vecdot(np.abs(r, out=r), w_int).tolist():
            fp_total += norm * dt
    return hjb_total, fp_total


def _interior_mask(grid: Grid) -> np.ndarray:
    mask = np.zeros((grid.nx,) * grid.dim)
    mask[(slice(1, -1),) * grid.dim] = 1.0
    return mask.ravel()
