"""Model data: coupling law, potential, terminal cost, initial density.

The coupling is the decreasing local cost -sigma*m^alpha entering the value
equation, so f(m) = sigma*m^alpha with antiderivative F. Potentials and
terminal costs are restricted to closed forms with analytic gradients
because the structural checks and the moment identities consume
d/dx V * x pointwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .discretization import Grid, integrate, integrate_space_time
from .errors import ConfigError


@dataclass(frozen=True)
class CouplingSpec:
    """Power-law local coupling f(m) = sigma * m**alpha."""

    sigma: float
    alpha: float

    def __post_init__(self):
        if not (self.sigma >= 0 and np.isfinite(self.sigma)):
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        if not (self.alpha > 0 and np.isfinite(self.alpha)):
            raise ValueError(f"alpha must be > 0, got {self.alpha}")

    def f(self, m: np.ndarray) -> np.ndarray:
        """The law f(m) = sigma * m**alpha at nonnegative densities m, unchecked."""
        return self.sigma * m**self.alpha


def eval_coupling(coupling: CouplingSpec, m: np.ndarray):
    """Return (f(m), F(m), f'(m)) for nonnegative densities m.

    F is the antiderivative sigma*m^(alpha+1)/(alpha+1) with F(0) = 0.
    At m = 0 the derivative is 0 for alpha > 1, sigma for alpha = 1 (the law
    is linear there), and +inf for alpha < 1.
    """
    m = np.asarray(m, dtype=float)
    if np.any(m < 0):
        raise ValueError("coupling evaluated at negative density")
    sigma, alpha = coupling.sigma, coupling.alpha
    f = coupling.f(m)
    F = sigma * m ** (alpha + 1.0) / (alpha + 1.0)
    with np.errstate(divide="ignore"):
        if alpha == 1.0:
            fp = np.full_like(m, sigma)
        else:
            fp = sigma * alpha * m ** (alpha - 1.0)
    return f, F, fp


def coupling_mass(m: np.ndarray, coupling: CouplingSpec, grid: Grid, out=None) -> float:
    """D, the space-time integral of max(m, 0)^(2 alpha + 1): the blow-up monitor.

    m has shape (nt+1, n_nodes). out, when given, is an array of that shape
    that receives the integrand instead of a new one.
    """
    out = np.maximum(m, 0.0, out=out)
    out **= 2.0 * coupling.alpha + 1.0
    return integrate_space_time(out, grid)


def _centered(center: tuple[float, ...], points: np.ndarray) -> np.ndarray:
    """Points minus the center, a short center repeated to the point dimension."""
    c = np.asarray(center, dtype=float)
    if c.size != points.shape[0]:
        c = np.resize(c, points.shape[0])
    return points - c[:, None]


def _gaussian_bump(scale: float, center, width: float, points: np.ndarray,
                   gradient: bool = False) -> np.ndarray:
    """value = scale * exp(-|z|^2 / (2 width^2)) at z = points - center, or,
    with gradient set, its gradient -z / width^2 * value.

    A width whose square overflows gives the flat limit; one too narrow for
    the float range gives inf or NaN, which sample_on_grid rejects. Neither
    warns.
    """
    z = _centered(center, points)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        width2 = np.float64(width) ** 2  # inf, not OverflowError, for a huge width
        value = scale * np.exp(-np.sum(z**2, axis=0) / (2.0 * width2))
        return -z / width2 * value if gradient else value


@dataclass(frozen=True)
class PotentialSpec:
    """Spatial potential V. Families: zero, gaussian_well, cosine_bump, user_table."""

    family: str = "zero"
    amplitude: float = 0.0
    width: float = 1.0
    center: tuple[float, ...] = (0.0,)
    # user_table: values/gradient tabulated on the grid nodes
    table: dict | None = None

    _FAMILIES = ("zero", "gaussian_well", "cosine_bump", "user_table")

    def __post_init__(self):
        if self.family not in self._FAMILIES:
            raise ValueError(f"unknown potential family {self.family!r}")
        if self.family != "zero" and not self.width > 0:
            raise ValueError("potential width must be positive")
        if self.family == "user_table" and self.table is None:
            raise ValueError("user_table potential requires a table")

    def value(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.family == "zero":
            return np.zeros(points.shape[1])
        if self.family == "user_table":
            return np.asarray(self.table["values"], dtype=float)
        if self.family == "gaussian_well":
            return _gaussian_bump(self.amplitude, self.center, self.width, points)
        return self.amplitude * np.prod(self._hann(_centered(self.center, points)), axis=0)

    def gradient(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        dim, n = points.shape
        if self.family == "zero":
            return np.zeros((dim, n))
        if self.family == "user_table":
            return np.asarray(self.table["gradient"], dtype=float).reshape(dim, n)
        if self.family == "gaussian_well":
            return _gaussian_bump(self.amplitude, self.center, self.width, points, gradient=True)
        z = _centered(self.center, points)
        phi = self._hann(z)
        dphi = self._hann_prime(z)
        grad = np.empty((dim, n))
        for d in range(dim):
            others = np.prod(np.delete(phi, d, axis=0), axis=0) if dim > 1 else 1.0
            grad[d] = self.amplitude * dphi[d] * others
        return grad

    def _hann(self, z: np.ndarray) -> np.ndarray:
        # raised-cosine bump on |z| <= width, zero outside, C^1 across the edge
        inside = np.abs(z) <= self.width
        return np.where(inside, 0.5 * (1.0 + np.cos(np.pi * z / self.width)), 0.0)

    def _hann_prime(self, z: np.ndarray) -> np.ndarray:
        inside = np.abs(z) <= self.width
        return np.where(
            inside, -0.5 * np.pi / self.width * np.sin(np.pi * z / self.width), 0.0
        )


@dataclass(frozen=True)
class TerminalCostSpec:
    """Terminal cost u(T). Families: zero, log_quadratic, gaussian."""

    family: str = "zero"
    amplitude: float = 0.0
    width: float = 1.0
    center: tuple[float, ...] = (0.0,)

    _FAMILIES = ("zero", "log_quadratic", "gaussian")

    def __post_init__(self):
        if self.family not in self._FAMILIES:
            raise ValueError(f"unknown terminal cost family {self.family!r}")
        if self.family == "gaussian" and not self.width > 0:
            raise ValueError("terminal cost width must be positive")

    def value(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.family == "zero":
            return np.zeros(points.shape[1])
        if self.family == "log_quadratic":
            r2 = np.sum(points**2, axis=0)
            return self.amplitude * np.log1p(r2)
        return _gaussian_bump(self.amplitude, self.center, self.width, points)

    def gradient(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.family == "zero":
            return np.zeros_like(points)
        if self.family == "log_quadratic":
            r2 = np.sum(points**2, axis=0)
            return 2.0 * self.amplitude * points / (1.0 + r2)
        return _gaussian_bump(self.amplitude, self.center, self.width, points, gradient=True)


@dataclass(frozen=True)
class GaussianMixture:
    """Normalized mixture of isotropic Gaussians."""

    weights: tuple[float, ...]
    means: tuple[tuple[float, ...], ...]
    stds: tuple[float, ...]

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.size == 0 or np.any(w <= 0):
            raise ValueError("mixture weights must be positive")
        if len(self.means) != w.size or len(self.stds) != w.size:
            raise ValueError("mixture weights, means, stds must have equal length")
        if np.any(np.asarray(self.stds, dtype=float) <= 0):
            raise ValueError("mixture stds must be positive")
        object.__setattr__(self, "weights", tuple(float(x) / float(w.sum()) for x in w))
        object.__setattr__(
            self, "means", tuple(tuple(float(c) for c in np.atleast_1d(m)) for m in self.means)
        )
        object.__setattr__(self, "stds", tuple(float(s) for s in self.stds))

    @property
    def dim(self) -> int:
        return len(self.means[0])

    def value(self, points: np.ndarray) -> np.ndarray:
        return self._sum(points, gradient=False)

    def gradient(self, points: np.ndarray) -> np.ndarray:
        return self._sum(points, gradient=True)

    def _sum(self, points: np.ndarray, gradient: bool) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros(points.shape if gradient else points.shape[1])
        for w, c, s in zip(self.weights, self.means, self.stds):
            # a std whose square underflows makes norm inf and the mass NaN,
            # which _unit_mass rejects
            with np.errstate(over="ignore", divide="ignore"):
                norm = (2.0 * np.pi * np.float64(s) ** 2) ** (-0.5 * points.shape[0])
            out += _gaussian_bump(w * norm, c, s, points, gradient)
        return out


@dataclass(frozen=True)
class DataSpec:
    """Initial density and terminal cost."""

    m0: GaussianMixture
    terminal_cost: TerminalCostSpec = field(default_factory=TerminalCostSpec)


@dataclass(frozen=True)
class ProblemSpec:
    dim: int
    horizon: float
    coupling: CouplingSpec
    potential: PotentialSpec
    data: DataSpec

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if not (self.horizon > 0 and np.isfinite(self.horizon)):
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.data.m0.dim != self.dim:
            raise ValueError("initial density dimension does not match problem dim")


@dataclass
class ProblemFields:
    """Problem data sampled on the nodes of one grid, m0 at unit mass."""

    m0: np.ndarray
    grad_m0: np.ndarray
    u_terminal: np.ndarray
    v: np.ndarray
    grad_v: np.ndarray
    grad_u_terminal: np.ndarray


def _unit_mass(values: np.ndarray, grid: Grid, key: str, name: str):
    """(values / mass, mass) for a density sampled on the grid nodes.

    A density with no positive trapezoid mass on the grid is a config error
    at key.
    """
    mass = integrate(values, grid)
    if not mass > 0:
        raise ConfigError([key], f"{name} has nonpositive mass on the grid")
    return values / mass, mass


def sample_on_grid(p: ProblemSpec, grid: Grid) -> ProblemFields:
    """Sample all problem data on grid nodes, with m0 at unit trapezoid mass.

    A value or gradient that is not finite at a node, such as the gradient
    of a Gaussian too narrow for the float range, is a config error at the
    section that holds it.
    """
    if grid.dim != p.dim:
        raise ValueError("grid dimension does not match problem dimension")
    if p.potential.family == "user_table":
        _check_table(p.potential.table, grid)
    pts = grid.coordinates
    m0, mass = _unit_mass(
        p.data.m0.value(pts), grid, "problem.initial_density", "initial density"
    )
    fields = ProblemFields(
        m0=m0,
        grad_m0=p.data.m0.gradient(pts) / mass,
        u_terminal=p.data.terminal_cost.value(pts),
        v=p.potential.value(pts),
        grad_v=p.potential.gradient(pts),
        grad_u_terminal=p.data.terminal_cost.gradient(pts),
    )
    sections = {
        "problem.initial_density": (fields.m0, fields.grad_m0),
        "problem.potential": (fields.v, fields.grad_v),
        "problem.terminal_cost": (fields.u_terminal, fields.grad_u_terminal),
    }
    bad = [key for key, data in sections.items() if not all(np.isfinite(a).all() for a in data)]
    if bad:
        raise ConfigError(
            bad, "values or gradients not finite on the grid nodes: " + ", ".join(bad)
        )
    return fields


def _check_table(table: dict, grid: Grid) -> None:
    """A user_table potential holds finite numbers, one per node (dim per node for the gradient)."""
    sizes = {"values": grid.n_nodes, "gradient": grid.dim * grid.n_nodes}
    bad = []
    for key, size in sizes.items():
        try:
            entries = np.asarray(table[key], dtype=float)
        except (TypeError, ValueError):
            entries = np.array([np.nan])
        if entries.size != size or not np.all(np.isfinite(entries)):
            bad.append(f"problem.potential.table.{key}")
    if bad:
        raise ConfigError(
            bad,
            f"user_table potential needs finite numbers for the {grid.n_nodes} grid nodes: "
            + ", ".join(bad),
        )


@dataclass(frozen=True)
class ConditionCheck:
    holds: bool
    margin: float

    def as_dict(self) -> dict:
        return {"holds": bool(self.holds), "margin": float(self.margin)}


@dataclass(frozen=True)
class ConditionReport:
    """Pointwise structural checks backing the blow-up certificates.

    coercive_coupling: N*f(m)*m - (N+2)*F(m) >= 0, which for the power law
        reduces to the sign of N - (N+2)/(alpha+1) (so alpha >= 2/N).
    confining_potential: 2*(V - inf V) + grad V . x >= 0 on the grid nodes.
    monotone_terminal: grad u(T) . x >= 0 on the grid nodes.
    unit_mass: m0 >= 0 with unit trapezoid mass after renormalization.
    """

    coercive_coupling: ConditionCheck
    confining_potential: ConditionCheck
    monotone_terminal: ConditionCheck
    unit_mass: ConditionCheck

    @property
    def all_hold(self) -> bool:
        return all(check.holds for check in vars(self).values())

    def as_dict(self) -> dict:
        out = {name: check.as_dict() for name, check in vars(self).items()}
        out["all_hold"] = self.all_hold
        return out


def _pointwise_checks(x, v, grad_v, u_terminal, grad_u_terminal):
    """(confining_potential, monotone_terminal) checks of V and u(T) at the nodes x.

    V, u(T) and their gradients may be sampled at translated points; the
    margins always pair them with the untranslated x. Each margin is allowed
    a roundoff tolerance relative to the size of its data.
    """
    tol_v = 1e-10 * max(1.0, float(np.max(np.abs(v))))
    vmin = float(np.min(2.0 * (v - v.min()) + np.sum(grad_v * x, axis=0)))
    tol_u = 1e-10 * max(1.0, float(np.max(np.abs(u_terminal))))
    umin = float(np.min(np.sum(grad_u_terminal * x, axis=0)))
    return (
        ConditionCheck(holds=vmin >= -tol_v, margin=vmin),
        ConditionCheck(holds=umin >= -tol_u, margin=umin),
    )


def check_structural_conditions(
    p: ProblemSpec, grid: Grid, fields: ProblemFields | None = None
) -> ConditionReport:
    if fields is None:
        fields = sample_on_grid(p, grid)
    n = p.dim

    # algebraic margin of the coupling inequality; sign matches alpha - 2/N
    margin_f = n - (n + 2.0) / (p.coupling.alpha + 1.0)
    coercive = ConditionCheck(
        holds=(p.coupling.sigma == 0.0) or margin_f >= 0.0, margin=float(margin_f)
    )
    confining, monotone = _pointwise_checks(
        grid.coordinates, fields.v, fields.grad_v, fields.u_terminal, fields.grad_u_terminal
    )

    mass = integrate(fields.m0, grid)
    m_min = float(fields.m0.min())
    unit = ConditionCheck(holds=abs(mass - 1.0) <= 1e-12 and m_min >= 0.0, margin=m_min)

    return ConditionReport(
        coercive_coupling=coercive,
        confining_potential=confining,
        monotone_terminal=monotone,
        unit_mass=unit,
    )
