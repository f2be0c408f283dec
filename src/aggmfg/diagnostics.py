"""Conserved quantities, moment identities, and blow-up certificates.

The certificates are grid-quadrature evaluations of closed-form criteria:
e0 combines the Fisher information of the initial density, the coupling
antiderivative, and the potential gap; a positive e0 under the structural
conditions rules out classical solutions past an explicit horizon.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .discretization import Grid, _level_blocks, gradient, integrate
from .errors import ConfigError
from .problem import (
    ConditionCheck,
    ConditionReport,
    GaussianMixture,
    ProblemFields,
    ProblemSpec,
    check_structural_conditions,
    coupling_mass,
    eval_coupling,
    sample_on_grid,
)


def _values(x) -> np.ndarray:
    return np.asarray(getattr(x, "values", x), dtype=float)


# ---------------------------------------------------------------------------
# conserved energy


@dataclass
class EnergyReport:
    times: np.ndarray
    total: np.ndarray
    cross: np.ndarray
    kinetic: np.ndarray
    coupling: np.ndarray
    potential: np.ndarray

    @property
    def drift(self) -> float:
        return float(np.max(np.abs(self.total - self.total[0])))


def compute_energy(
    u, m, p: ProblemSpec, grid: Grid, fields: ProblemFields | None = None
) -> EnergyReport:
    """Time series of the conserved energy and its four components.

    The integrands are formed over blocks of time levels, and one np.vecdot
    per block and integrand gives each level's quadrature, with the bits of
    integrate on that level.
    """
    uv, mv = _values(u), _values(m)
    if fields is None:
        fields = sample_on_grid(p, grid)
    nt = grid.nt
    cross = np.empty(nt + 1)
    kinetic = np.empty(nt + 1)
    coupling = np.empty(nt + 1)
    potential = np.empty(nt + 1)
    w = grid.weights
    for lo, hi in _level_blocks(nt + 1, grid.n_nodes):
        mb = mv[lo:hi]
        gu = gradient(uv[lo:hi], grid)
        gm = gradient(mb, grid)
        _, F, _ = eval_coupling(p.coupling, np.maximum(mb, 0.0))
        cross[lo:hi] = np.vecdot(np.sum(gu * gm, axis=-2), w)
        kinetic[lo:hi] = 0.5 * np.vecdot(np.sum(gu**2, axis=-2) * mb, w)
        coupling[lo:hi] = np.vecdot(F, w)
        potential[lo:hi] = -np.vecdot(fields.v * mb, w)
    total = cross + kinetic + coupling + potential
    return EnergyReport(
        times=grid.times.copy(),
        total=total,
        cross=cross,
        kinetic=kinetic,
        coupling=coupling,
        potential=potential,
    )


# ---------------------------------------------------------------------------
# second moment identities


@dataclass
class MomentReport:
    times: np.ndarray
    mass: np.ndarray
    tail_mass: np.ndarray
    abs_moment: np.ndarray
    h: np.ndarray
    hprime: np.ndarray      # interior time nodes 1..nt-1
    hsecond: np.ndarray     # interior time nodes 1..nt-1
    rhs_first: np.ndarray
    rhs_second: np.ndarray
    r1: float
    r2: float
    mass_step_drift: float

    @property
    def min_hsecond(self) -> float:
        return float(self.hsecond.min())


def check_moment_identity(
    u,
    m,
    p: ProblemSpec,
    grid: Grid,
    energy: EnergyReport | None = None,
    fields: ProblemFields | None = None,
) -> MomentReport:
    """Compare discrete moment derivatives against their identity right sides.

    The first identity equates dh/dt with 2*dim*mass(0) - 2*int(m grad u . x);
    the second equates d2h/dt2 with 4E + 2*dim*int(f m) - 2(dim+2)*int(F)
    + 4*int(V m) + 2*int(grad V . x m). Residuals r1, r2 are weighted L1
    norms over interior time nodes, derivatives by centered differences.
    Every level's integrals come from one np.vecdot per block and integrand,
    with the bits of integrate on that level.
    """
    uv, mv = _values(u), _values(m)
    if fields is None:
        fields = sample_on_grid(p, grid)
    if energy is None:
        energy = compute_energy(uv, mv, p, grid, fields=fields)
    nt, dt, n = grid.nt, grid.dt, grid.dim
    pts = grid.coordinates
    r_sq = grid.radius_sq
    r_abs = grid.radius
    band = np.max(np.abs(pts), axis=0) >= 0.9 * grid.half_width
    gv_dot_x = np.sum(fields.grad_v * pts, axis=0)
    w = grid.weights

    mass = np.empty(nt + 1)
    tail = np.empty(nt + 1)
    h = np.empty(nt + 1)
    abs_m = np.empty(nt + 1)
    rhs1 = np.empty(nt + 1)
    rhs2 = np.empty(nt + 1)
    for lo, hi in _level_blocks(nt + 1, grid.n_nodes):
        mb = mv[lo:hi]
        mass[lo:hi] = np.vecdot(mb, w)
        tail[lo:hi] = np.vecdot(mb * band, w)
        h[lo:hi] = np.vecdot(mb * r_sq, w)
        abs_m[lo:hi] = np.vecdot(mb * r_abs, w)
        transport = mb * np.sum(gradient(uv[lo:hi], grid) * pts, axis=-2)
        f, F, _ = eval_coupling(p.coupling, np.maximum(mb, 0.0))
        # weak form with test function |x|^2: Lap gives 2N, the drift term
        # -grad u picks up grad |x|^2 = 2x, hence the 2 on the transport
        rhs1[lo:hi] = 2.0 * n * mass[0] - 2.0 * np.vecdot(transport, w)
        rhs2[lo:hi] = (
            4.0 * energy.total[lo:hi]
            + 2.0 * n * np.vecdot(f * mb, w)
            - 2.0 * (n + 2.0) * np.vecdot(F, w)
            + 4.0 * np.vecdot(fields.v * mb, w)
            + 2.0 * np.vecdot(gv_dot_x * mb, w)
        )

    hprime = (h[2:] - h[:-2]) / (2.0 * dt)
    hsecond = (h[2:] - 2.0 * h[1:-1] + h[:-2]) / dt**2
    r1 = float(np.sum(np.abs(hprime - rhs1[1:-1])) * dt)
    r2 = float(np.sum(np.abs(hsecond - rhs2[1:-1])) * dt)
    step_drift = float(np.max(np.abs(np.diff(mass)))) / mass[0] if nt >= 1 else 0.0

    return MomentReport(
        times=grid.times.copy(),
        mass=mass,
        tail_mass=tail,
        abs_moment=abs_m,
        h=h,
        hprime=hprime,
        hsecond=hsecond,
        rhs_first=rhs1,
        rhs_second=rhs2,
        r1=r1,
        r2=r2,
        mass_step_drift=step_drift,
    )


# ---------------------------------------------------------------------------
# blow-up certificates


def compute_e0(p: ProblemSpec, grid: Grid) -> float:
    fisher, coup, pot = e0_terms(p, grid)
    return -0.5 * fisher + coup - pot


def e0_terms(p: ProblemSpec, grid: Grid) -> tuple[float, float, float]:
    """(Fisher information, coupling term, potential gap term) of m0.

    The density gradient is analytic, not a finite difference; the ratio
    |grad m0|^2 / m0 is set to zero wherever m0 underflows.
    """
    pts = grid.coordinates
    raw = p.data.m0.value(pts)
    mass = integrate(raw, grid)
    m0 = raw / mass
    grad = p.data.m0.gradient(pts) / mass
    dens = np.maximum(m0, 1e-300)
    ratio = np.where(m0 > 1e-300, np.sum(grad**2, axis=0) / dens, 0.0)
    fisher = integrate(ratio, grid)
    _, F, _ = eval_coupling(p.coupling, m0)
    coup = integrate(F, grid)
    v = p.potential.value(pts)
    pot = integrate((v - v.min()) * m0, grid)
    return float(fisher), float(coup), float(pot)


def nonexistence_horizon(e0: float, h0: float, dim: int) -> float:
    """Explicit horizon N/(2 e0) + sqrt(h0/(2 e0)) beyond which no classical
    solution exists once the structural conditions hold."""
    if not e0 > 0:
        raise ValueError(f"horizon requires e0 > 0, got {e0}")
    if h0 < 0:
        raise ValueError(f"h0 must be nonnegative, got {h0}")
    return float(dim / (2.0 * e0) + np.sqrt(h0 / (2.0 * e0)))


def planning_horizon(e0: float, h0: float, h_terminal: float) -> float:
    """Horizon sqrt(2 max(h0, hT)/e0) for the prescribed-endpoints problem."""
    if not e0 > 0:
        raise ValueError(f"horizon requires e0 > 0, got {e0}")
    return float(np.sqrt(2.0 * max(h0, h_terminal) / e0))


@dataclass
class Certificate:
    e0: float
    h0: float
    t_star: float | None
    conditions: ConditionReport
    shift: tuple[float, ...] | None = None
    notes: str = ""

    def applies_at(self, horizon: float) -> bool:
        return self.t_star is not None and bool(horizon > self.t_star)

    def as_dict(self) -> dict:
        return {
            "e0": self.e0,
            "h0": self.h0,
            "t_star": self.t_star,
            "shift": list(self.shift) if self.shift is not None else None,
            "conditions": self.conditions.as_dict(),
            "notes": self.notes,
        }


def _shift_feasible(p: ProblemSpec, grid: Grid, y: np.ndarray) -> bool:
    """Translated pointwise conditions at shift y, checked on grid nodes."""
    pts = grid.coordinates + y[:, None]
    v = p.potential.value(pts)
    gv = p.potential.gradient(pts)
    tol_v = 1e-10 * max(1.0, float(np.max(np.abs(v))))
    if float(np.min(2.0 * (v - v.min()) + np.sum(gv * grid.coordinates, axis=0))) < -tol_v:
        return False
    ut = p.data.terminal_cost.value(pts)
    gu = p.data.terminal_cost.gradient(pts)
    tol_u = 1e-10 * max(1.0, float(np.max(np.abs(ut))))
    return float(np.min(np.sum(gu * grid.coordinates, axis=0))) >= -tol_u


def _optimal_shift(p: ProblemSpec, grid: Grid, first: np.ndarray, h0: float):
    """Minimize the shifted second moment h0 - 2 y.first + |y|^2 over the
    feasible shift set: coarse scan on axis nodes, then golden-section per
    coordinate. The objective is quadratic, so local refinement is global."""

    if p.potential.family == "user_table":
        # a table holds values on the grid nodes only; it has no translate
        return None, None

    def moment(y: np.ndarray) -> float:
        return h0 - 2.0 * float(np.dot(y, first)) + float(np.dot(y, y))

    stride = max(1, (grid.nx - 1) // 32)
    candidates = grid.axis[::stride]
    best_y, best_val = None, np.inf
    if p.dim == 1:
        cand_vectors = [np.array([c]) for c in candidates]
    else:
        cand_vectors = [np.array([a, b]) for a in candidates for b in candidates]
    for y in cand_vectors:
        if _shift_feasible(p, grid, y):
            val = moment(y)
            if val < best_val:
                best_y, best_val = y, val
    if best_y is None:
        return None, None

    # golden-section refinement coordinate by coordinate
    gr = 0.5 * (np.sqrt(5.0) - 1.0)
    span = stride * grid.dx
    y = best_y.astype(float).copy()
    for d in range(p.dim):
        lo, hi = y[d] - span, y[d] + span
        for _ in range(40):
            a = hi - gr * (hi - lo)
            b = lo + gr * (hi - lo)
            ya, yb = y.copy(), y.copy()
            ya[d], yb[d] = a, b
            fa = moment(ya) if _shift_feasible(p, grid, ya) else np.inf
            fb = moment(yb) if _shift_feasible(p, grid, yb) else np.inf
            if fa <= fb:
                hi = b
            else:
                lo = a
        y[d] = 0.5 * (lo + hi)
        if not _shift_feasible(p, grid, y):
            y[d] = best_y[d]
    return tuple(float(c) for c in y), moment(y)


def compute_nonexistence_certificate(
    p: ProblemSpec,
    grid: Grid,
    optimize_shift: bool = False,
    fields: ProblemFields | None = None,
) -> Certificate:
    """Certificate for the fixed-terminal-cost problem.

    t_star is reported only when e0 > 0 and the structural conditions hold
    (at the optimized shift when requested: the translation changes neither
    e0 nor the algebraic coupling condition, only the pointwise checks and
    the second moment)."""
    if fields is None:
        fields = sample_on_grid(p, grid)
    conditions = check_structural_conditions(p, grid, fields=fields)
    e0 = compute_e0(p, grid)
    pts = grid.coordinates
    m0 = fields.m0
    h0 = integrate(m0, grid, weight=grid.radius_sq)
    first = np.array([integrate(m0 * pts[d], grid) for d in range(p.dim)])

    shift = None
    notes = ""
    h_used = h0
    cert_ok = conditions.all_hold
    if optimize_shift:
        shift, h_shift = _optimal_shift(p, grid, first, h0)
        if shift is not None and h_shift < h_used:
            h_used = h_shift
            notes = "second moment minimized over feasible shifts"
        elif p.potential.family == "user_table":
            notes = "shift not optimized: a tabulated potential cannot be translated"
        translational_ok = (
            shift is not None
            and conditions.coercive_coupling.holds
            and conditions.unit_mass.holds
        )
        cert_ok = cert_ok or translational_ok

    t_star = None
    if e0 > 0 and cert_ok:
        t_star = nonexistence_horizon(e0, h_used, p.dim)
    return Certificate(
        e0=float(e0),
        h0=float(h_used),
        t_star=t_star,
        conditions=conditions,
        shift=shift,
        notes=notes,
    )


@dataclass
class PlanningCertificate:
    e0: float
    h0: float
    h_terminal: float
    t_hat: float | None
    conditions: dict
    notes: str = ""

    def as_dict(self) -> dict:
        return {
            "e0": self.e0,
            "h0": self.h0,
            "h_terminal": self.h_terminal,
            "t_hat": self.t_hat,
            "conditions": {
                k: {"holds": bool(v.holds), "margin": float(v.margin)}
                for k, v in self.conditions.items()
            },
            "notes": self.notes,
        }


def compute_planning_certificate(
    p: ProblemSpec,
    grid: Grid,
    terminal_density: GaussianMixture,
    fields: ProblemFields | None = None,
) -> PlanningCertificate:
    """Certificate for the prescribed initial and terminal density problem.

    No terminal cost enters here, so the monotone terminal condition is not
    required; both endpoint densities must be unit mass and nonnegative."""
    if fields is None:
        fields = sample_on_grid(p, grid)
    base = check_structural_conditions(p, grid, fields=fields)
    pts = grid.coordinates
    m0 = fields.m0
    rawT = terminal_density.value(pts)
    massT = integrate(rawT, grid)
    if not massT > 0:
        raise ConfigError(
            ["certify.terminal_density"], "terminal density has nonpositive mass on the grid"
        )
    mT = rawT / massT
    h0 = integrate(m0, grid, weight=grid.radius_sq)
    hT = integrate(mT, grid, weight=grid.radius_sq)
    e0 = compute_e0(p, grid)

    conditions = {
        "coercive_coupling": base.coercive_coupling,
        "confining_potential": base.confining_potential,
        "unit_mass_initial": base.unit_mass,
        "unit_mass_terminal": ConditionCheck(
            holds=float(mT.min()) >= 0.0, margin=float(mT.min())
        ),
    }
    ok = all(c.holds for c in conditions.values())
    t_hat = planning_horizon(e0, h0, hT) if (e0 > 0 and ok) else None
    return PlanningCertificate(
        e0=float(e0),
        h0=float(h0),
        h_terminal=float(hT),
        t_hat=t_hat,
        conditions=conditions,
    )


# ---------------------------------------------------------------------------
# a-priori integrability monitor


@dataclass
class AprioriReport:
    d_value: float
    exponent_q: float
    exponent_delta: float
    beta: float
    growth_a: float | None
    notes: str


def compute_apriori(m, p: ProblemSpec, grid: Grid) -> AprioriReport:
    """Space-time integral of m^(2 alpha + 1) plus the exponent bookkeeping.

    The exponents are recorded for reference, not asserted: q is fixed by
    2/q = (alpha+1)/(2 alpha+1), the closure exponent is delta = 4/q in
    (1, 2), beta = alpha*dim/2, and the interpolation growth exponent is
    only defined once beta >= 1. The threshold coupling strength sigma_0
    depends on a non-explicit embedding constant and is not computed;
    sweeps report an empirical threshold instead."""
    mv = _values(m)
    alpha = p.coupling.alpha
    power = 2.0 * alpha + 1.0
    d_value = coupling_mass(mv, p.coupling, grid)
    q = 2.0 * power / (alpha + 1.0)
    delta = 4.0 / q
    beta = alpha * p.dim / 2.0
    if beta >= 1.0:
        theta = (1.0 - 1.0 / beta) * (alpha + 1.0) / alpha
        growth_a = theta
        notes = "interpolation exponents valid (beta >= 1)"
    else:
        growth_a = None
        notes = "beta < 1: interpolation exponents undefined at this alpha and dim"
    return AprioriReport(
        d_value=float(d_value),
        exponent_q=float(q),
        exponent_delta=float(delta),
        beta=float(beta),
        growth_a=growth_a,
        notes=notes,
    )
