"""Model data: coupling law, potential, terminal cost, initial density.

The coupling is the decreasing local cost -sigma*m^alpha entering the value
equation, so f(m) = sigma*m^alpha with antiderivative F. Potentials and
terminal costs are restricted to closed forms with analytic gradients (and
Laplacians for potentials) because the structural checks and the moment
identities consume d/dx V * x and Delta V pointwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .discretization import Grid, integrate
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
    f = sigma * m**alpha
    F = sigma * m ** (alpha + 1.0) / (alpha + 1.0)
    with np.errstate(divide="ignore"):
        if alpha == 1.0:
            fp = np.full_like(m, sigma)
        else:
            fp = sigma * alpha * m ** (alpha - 1.0)
    return f, F, fp


@dataclass(frozen=True)
class PotentialSpec:
    """Spatial potential V. Families: zero, gaussian_well, cosine_bump, user_table."""

    family: str = "zero"
    amplitude: float = 0.0
    width: float = 1.0
    center: tuple[float, ...] = (0.0,)
    # user_table: values/gradient/laplacian tabulated on the grid nodes
    table: dict | None = None

    _FAMILIES = ("zero", "gaussian_well", "cosine_bump", "user_table")

    def __post_init__(self):
        if self.family not in self._FAMILIES:
            raise ValueError(f"unknown potential family {self.family!r}")
        if self.family != "zero" and not self.width > 0:
            raise ValueError("potential width must be positive")
        if self.family == "user_table" and self.table is None:
            raise ValueError("user_table potential requires a table")

    def _centered(self, points: np.ndarray) -> np.ndarray:
        c = np.asarray(self.center, dtype=float)
        if c.size != points.shape[0]:
            c = np.resize(c, points.shape[0])
        return points - c[:, None]

    def value(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.family == "zero":
            return np.zeros(points.shape[1])
        if self.family == "user_table":
            return np.asarray(self.table["values"], dtype=float)
        z = self._centered(points)
        if self.family == "gaussian_well":
            return self.amplitude * np.exp(-np.sum(z**2, axis=0) / (2.0 * self.width**2))
        return self.amplitude * np.prod(self._hann(z), axis=0)

    def gradient(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        dim, n = points.shape
        if self.family == "zero":
            return np.zeros((dim, n))
        if self.family == "user_table":
            return np.asarray(self.table["gradient"], dtype=float).reshape(dim, n)
        z = self._centered(points)
        if self.family == "gaussian_well":
            v = self.value(points)
            return -z / self.width**2 * v
        phi = self._hann(z)
        dphi = self._hann_prime(z)
        grad = np.empty((dim, n))
        for d in range(dim):
            others = np.prod(np.delete(phi, d, axis=0), axis=0) if dim > 1 else 1.0
            grad[d] = self.amplitude * dphi[d] * others
        return grad

    def laplacian(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        dim, n = points.shape
        if self.family == "zero":
            return np.zeros(n)
        if self.family == "user_table":
            return np.asarray(self.table["laplacian"], dtype=float)
        z = self._centered(points)
        if self.family == "gaussian_well":
            v = self.value(points)
            r2 = np.sum(z**2, axis=0)
            return v * (r2 / self.width**4 - dim / self.width**2)
        phi = self._hann(z)
        d2phi = self._hann_second(z)
        lap = np.zeros(n)
        for d in range(dim):
            others = np.prod(np.delete(phi, d, axis=0), axis=0) if dim > 1 else 1.0
            lap += self.amplitude * d2phi[d] * others
        return lap

    def _hann(self, z: np.ndarray) -> np.ndarray:
        # raised-cosine bump on |z| <= width, zero outside, C^1 across the edge
        inside = np.abs(z) <= self.width
        return np.where(inside, 0.5 * (1.0 + np.cos(np.pi * z / self.width)), 0.0)

    def _hann_prime(self, z: np.ndarray) -> np.ndarray:
        inside = np.abs(z) <= self.width
        return np.where(
            inside, -0.5 * np.pi / self.width * np.sin(np.pi * z / self.width), 0.0
        )

    def _hann_second(self, z: np.ndarray) -> np.ndarray:
        inside = np.abs(z) <= self.width
        return np.where(
            inside, -0.5 * (np.pi / self.width) ** 2 * np.cos(np.pi * z / self.width), 0.0
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

    def _centered(self, points: np.ndarray) -> np.ndarray:
        c = np.asarray(self.center, dtype=float)
        if c.size != points.shape[0]:
            c = np.resize(c, points.shape[0])
        return points - c[:, None]

    def value(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.family == "zero":
            return np.zeros(points.shape[1])
        if self.family == "log_quadratic":
            r2 = np.sum(points**2, axis=0)
            return self.amplitude * np.log1p(r2)
        z = self._centered(points)
        return self.amplitude * np.exp(-np.sum(z**2, axis=0) / (2.0 * self.width**2))

    def gradient(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.family == "zero":
            return np.zeros_like(points)
        if self.family == "log_quadratic":
            r2 = np.sum(points**2, axis=0)
            return 2.0 * self.amplitude * points / (1.0 + r2)
        z = self._centered(points)
        v = self.value(points)
        return -z / self.width**2 * v


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
        points = np.atleast_2d(np.asarray(points, dtype=float))
        dim = points.shape[0]
        out = np.zeros(points.shape[1])
        for w, c, s in zip(self.weights, self.means, self.stds):
            z = points - np.asarray(c)[:, None]
            norm = (2.0 * np.pi * s**2) ** (-0.5 * dim)
            out += w * norm * np.exp(-np.sum(z**2, axis=0) / (2.0 * s**2))
        return out

    def gradient(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        dim = points.shape[0]
        out = np.zeros_like(points)
        for w, c, s in zip(self.weights, self.means, self.stds):
            z = points - np.asarray(c)[:, None]
            norm = (2.0 * np.pi * s**2) ** (-0.5 * dim)
            g = w * norm * np.exp(-np.sum(z**2, axis=0) / (2.0 * s**2))
            out += -z / s**2 * g
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
    """Problem data sampled on the nodes of one grid."""

    m0: np.ndarray
    u_terminal: np.ndarray
    v: np.ndarray
    grad_v: np.ndarray
    grad_u_terminal: np.ndarray


def sample_on_grid(p: ProblemSpec, grid: Grid) -> ProblemFields:
    """Sample all problem data on grid nodes, with m0 at unit trapezoid mass."""
    if grid.dim != p.dim:
        raise ValueError("grid dimension does not match problem dimension")
    if p.potential.family == "user_table":
        _check_table(p.potential.table, grid)
    pts = grid.coordinates
    m0 = p.data.m0.value(pts)
    mass = integrate(m0, grid)
    if not mass > 0:
        raise ConfigError(
            ["problem.initial_density"], "initial density has nonpositive mass on the grid"
        )
    m0 = m0 / mass
    return ProblemFields(
        m0=m0,
        u_terminal=p.data.terminal_cost.value(pts),
        v=p.potential.value(pts),
        grad_v=p.potential.gradient(pts),
        grad_u_terminal=p.data.terminal_cost.gradient(pts),
    )


def _check_table(table: dict, grid: Grid) -> None:
    """A user_table potential holds finite numbers, one per node (dim per node for the gradient)."""
    sizes = {"values": grid.n_nodes, "gradient": grid.dim * grid.n_nodes, "laplacian": grid.n_nodes}
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
        return (
            self.coercive_coupling.holds
            and self.confining_potential.holds
            and self.monotone_terminal.holds
            and self.unit_mass.holds
        )

    def as_dict(self) -> dict:
        out = {}
        for name in (
            "coercive_coupling",
            "confining_potential",
            "monotone_terminal",
            "unit_mass",
        ):
            c: ConditionCheck = getattr(self, name)
            out[name] = {"holds": bool(c.holds), "margin": float(c.margin)}
        out["all_hold"] = self.all_hold
        return out


def check_structural_conditions(p: ProblemSpec, grid: Grid) -> ConditionReport:
    fields = sample_on_grid(p, grid)
    pts = grid.coordinates
    n = p.dim

    # algebraic margin of the coupling inequality; sign matches alpha - 2/N
    margin_f = n - (n + 2.0) / (p.coupling.alpha + 1.0)
    coercive = ConditionCheck(
        holds=(p.coupling.sigma == 0.0) or margin_f >= 0.0, margin=float(margin_f)
    )

    tol_v = 1e-10 * max(1.0, float(np.max(np.abs(fields.v)))) if fields.v.size else 0.0
    vmargin = 2.0 * (fields.v - fields.v.min()) + np.sum(fields.grad_v * pts, axis=0)
    vmin = float(vmargin.min())
    confining = ConditionCheck(holds=vmin >= -tol_v, margin=vmin)

    tol_u = 1e-10 * max(1.0, float(np.max(np.abs(fields.u_terminal))))
    umargin = np.sum(fields.grad_u_terminal * pts, axis=0)
    umin = float(umargin.min())
    monotone = ConditionCheck(holds=umin >= -tol_u, margin=umin)

    mass = integrate(fields.m0, grid)
    m_min = float(fields.m0.min())
    unit = ConditionCheck(holds=abs(mass - 1.0) <= 1e-12 and m_min >= 0.0, margin=m_min)

    return ConditionReport(
        coercive_coupling=coercive,
        confining_potential=confining,
        monotone_terminal=monotone,
        unit_mass=unit,
    )
