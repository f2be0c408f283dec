"""Uniform truncated grids and the discrete operators built on them.

Fields live on the nodes of a uniform grid over [-L, L]^dim with an odd
number of nodes per axis, so x = 0 is always a node. Space-time fields are
stored as (nt+1, n_nodes) arrays; in two dimensions the node axis unflattens
C-style to (nx, nx) with axis 0 along x and axis 1 along y.

Quadrature is the trapezoid rule. Its weights are exactly the finite-volume
cell widths (half cells at the boundary nodes), which is what makes the
flux-form updates below conserve the trapezoid mass to roundoff.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid on [-L, L]^dim coupled to a uniform time mesh."""

    dim: int
    half_width: float
    nx: int
    nt: int
    horizon: float

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if self.nx < 3 or self.nx % 2 == 0:
            raise ValueError(f"nx must be odd and >= 3, got {self.nx}")
        if self.nt < 1:
            raise ValueError(f"nt must be >= 1, got {self.nt}")
        if not (self.half_width > 0 and np.isfinite(self.half_width)):
            raise ValueError(f"half_width must be positive, got {self.half_width}")
        if not (self.horizon > 0 and np.isfinite(self.horizon)):
            raise ValueError(f"horizon must be positive, got {self.horizon}")

    @property
    def dx(self) -> float:
        return 2.0 * self.half_width / (self.nx - 1)

    @property
    def dt(self) -> float:
        return self.horizon / self.nt

    @property
    def n_nodes(self) -> int:
        return self.nx**self.dim

    @cached_property
    def axis(self) -> np.ndarray:
        return np.linspace(-self.half_width, self.half_width, self.nx)

    @cached_property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.nt + 1)

    @cached_property
    def axis_weights(self) -> np.ndarray:
        # trapezoid weights = cell widths, half cells at the ends
        w = np.full(self.nx, self.dx)
        w[0] = w[-1] = 0.5 * self.dx
        return w

    @cached_property
    def weights(self) -> np.ndarray:
        """Flattened tensor quadrature weights, shape (n_nodes,)."""
        if self.dim == 1:
            return self.axis_weights.copy()
        return np.outer(self.axis_weights, self.axis_weights).ravel()

    @cached_property
    def time_weights(self) -> np.ndarray:
        """Trapezoid weights of the time levels, shape (nt+1,)."""
        tw = np.full(self.nt + 1, self.dt)
        tw[0] = tw[-1] = 0.5 * self.dt
        return tw

    @cached_property
    def coordinates(self) -> np.ndarray:
        """Node coordinates, shape (dim, n_nodes)."""
        if self.dim == 1:
            return self.axis[None, :].copy()
        xx, yy = np.meshgrid(self.axis, self.axis, indexing="ij")
        return np.stack([xx.ravel(), yy.ravel()])

    @cached_property
    def radius_sq(self) -> np.ndarray:
        return np.sum(self.coordinates**2, axis=0)

    @cached_property
    def radius(self) -> np.ndarray:
        return np.sqrt(self.radius_sq)

    def refined(self, factor: int = 2) -> "Grid":
        """Grid with factor times more cells per axis and time steps."""
        return Grid(
            dim=self.dim,
            half_width=self.half_width,
            nx=factor * (self.nx - 1) + 1,
            nt=factor * self.nt,
            horizon=self.horizon,
        )


@dataclass
class SpaceTimeField:
    """Values on every (time node, space node) pair of a grid."""

    values: np.ndarray
    grid: Grid

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        expected = (self.grid.nt + 1, self.grid.n_nodes)
        if self.values.shape != expected:
            raise ValueError(
                f"field shape {self.values.shape} does not match grid {expected}"
            )


# Time-level blocks hold this many node rows: enough that one set of array
# calls serves 63 to 252 levels of a 1D grid, few enough that the block
# temporaries stay small (building for the whole horizon at once added 5 to
# 20 MB on the benchmark solves, and 65536-row blocks were slower). The
# marches keep one block's bands alive at a time, and the Picard loop drops
# the last map's fields before the next map; both pay for these blocks'
# memory.
_BLOCK_ROWS = 16384
# A block holds at least this many levels, so that a 2D grid whose level
# is a large part of _BLOCK_ROWS (65 x 65 has 4225 nodes, 3 to a block
# otherwise) still shares one set of band builds, views and sign checks
# among several levels. The Picard map frees the heat coefficient before
# the Fokker-Planck march to make room for these blocks.
_MIN_BLOCK_LEVELS = 4


def _level_blocks(levels: int, rows_per_level: int):
    """Consecutive (lo, hi) blocks covering range(levels) in order.

    Each block holds max(_MIN_BLOCK_LEVELS, _BLOCK_ROWS // rows_per_level)
    levels, except the last, which holds what is left.
    """
    step = max(_MIN_BLOCK_LEVELS, _BLOCK_ROWS // rows_per_level)
    for lo in range(0, levels, step):
        yield lo, min(lo + step, levels)


def _values(field) -> np.ndarray:
    return np.asarray(getattr(field, "values", field), dtype=float)


def integrate(field_slice: np.ndarray, grid: Grid, weight: np.ndarray | None = None) -> float:
    """Trapezoid integral of a node field, optionally against a node weight."""
    f = np.asarray(field_slice, dtype=float)
    if weight is not None:
        f = f * weight
    return float(np.dot(grid.weights, f))


def integrate_space_time(values: np.ndarray, grid: Grid) -> float:
    """Trapezoid integral over space and time of a (nt+1, n_nodes) array."""
    spatial = _values(values) @ grid.weights
    return float(np.dot(grid.time_weights, spatial))


def laplacian(field: np.ndarray, grid: Grid) -> np.ndarray:
    """Second-order Laplacian with ghost-node reflection at the boundary.

    The reflected ghost value enforces a homogeneous Neumann condition, so
    constants are annihilated exactly at every node including the boundary.
    field has shape (..., n_nodes), for example one time slice or a block of
    them; the result has the same shape.
    """
    f = np.asarray(field, dtype=float)
    g = f.reshape(f.shape[:-1] + (grid.nx,) * grid.dim)
    out = _laplacian_axis(g, grid.dx, axis=-grid.dim)
    for axis in range(1 - grid.dim, 0):
        out += _laplacian_axis(g, grid.dx, axis)
    return out.reshape(f.shape)


def _laplacian_axis(f: np.ndarray, dx: float, axis: int = 0) -> np.ndarray:
    return second_difference(f, axis) / dx**2


def second_difference(f: np.ndarray, axis: int = 0) -> np.ndarray:
    """dx^2 times the Neumann Laplacian along one axis (ghost-node reflection)."""
    # swapaxes, not moveaxis: the stencils are elementwise, so the order of
    # the other axes is free, and swapaxes costs far less per call
    f = f.swapaxes(axis, 0)
    out = np.empty_like(f)
    out[1:-1] = f[2:] - 2.0 * f[1:-1] + f[:-2]
    out[0] = 2.0 * (f[1] - f[0])
    out[-1] = 2.0 * (f[-2] - f[-1])
    return out.swapaxes(0, axis)


def gradient(field: np.ndarray, grid: Grid) -> np.ndarray:
    """Second-order gradient, one-sided at the boundary.

    field has shape (..., n_nodes), for example one time slice or a whole
    space-time array; the result has shape (..., dim, n_nodes).
    """
    f = np.asarray(field, dtype=float)
    lead = f.shape[:-1]
    g = f.reshape(lead + (grid.nx,) * grid.dim)
    out = np.empty(lead + (grid.dim,) + g.shape[len(lead):])
    for d in range(grid.dim):
        component = out[(slice(None),) * len(lead) + (d,)]
        _gradient_axis(g, grid.dx, len(lead) + d, component)
    return out.reshape(lead + (grid.dim, grid.n_nodes))


def _gradient_axis(f: np.ndarray, dx: float, axis: int, out: np.ndarray) -> None:
    # written in place, so a whole space-time array needs no full-size temporaries
    f = f.swapaxes(axis, 0)
    out = out.swapaxes(axis, 0)
    np.subtract(f[2:], f[:-2], out=out[1:-1])
    out[1:-1] *= 0.5
    out[0] = -1.5 * f[0] + 2.0 * f[1] - 0.5 * f[2]
    out[-1] = 1.5 * f[-1] - 2.0 * f[-2] + 0.5 * f[-3]
    out /= dx


def face_transport_coefficients(peclet: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exponentially fitted face coefficients for drift plus unit diffusion.

    For a face with Peclet number p = b*dx the combined flux times dx is
    A(p)*mu_left - B(p)*mu_right with B(p) = p/(e^p - 1) and A = B + p.
    Both are positive for every real p, A - B = p holds exactly, and
    A(0) = B(0) = 1 recovers plain central diffusion. The scheme is exact on
    the local equilibrium mu_right = mu_left * e^p.
    """
    p = np.asarray(peclet, dtype=float)
    small = np.abs(p) < 1e-8
    # series B = 1 - p/2 + p^2/12 + O(p^4) avoids 0/0; below |p| = 1e-8 the
    # p^2/12 term is under half an ulp of 1 - p/2, so it is left out
    B = np.multiply(p, -0.5, out=np.empty_like(p))
    B += 1.0
    np.divide(p, np.expm1(p), out=B, where=~small)
    A = B + p
    return A, B


def flux_divergence(b: np.ndarray, density: np.ndarray, grid: Grid) -> np.ndarray:
    """Divergence of the fitted advective flux b*mu, flux form, no-flux boundary.

    density has shape (..., n_nodes), for example one time slice or a block
    of them, and b has shape (..., dim, n_nodes); face drifts are the means
    of the adjacent node values. Only the transport part of the fitted flux
    is returned; the unit diffusion that fixes the fitting weights is handled
    by the time steppers. The quadrature-weighted sum of the output
    telescopes to zero exactly.
    """
    b = np.asarray(b, dtype=float)
    mu = np.asarray(density, dtype=float)
    lead = mu.shape[:-1]
    if b.shape != lead + (grid.dim, grid.n_nodes):
        raise ValueError(f"drift shape {b.shape} != {lead + (grid.dim, grid.n_nodes)}")
    space = (grid.nx,) * grid.dim
    bg = b.reshape(lead + (grid.dim,) + space)
    mg = mu.reshape(lead + space)
    out = np.zeros_like(mg)
    for d in range(grid.dim):
        b_d = bg[(slice(None),) * len(lead) + (d,)]
        out += _flux_divergence_axis(b_d, mg, grid, axis=d - grid.dim)
    return out.reshape(mu.shape)


def _flux_divergence_axis(
    b: np.ndarray, mu: np.ndarray, grid: Grid, axis: int = 0, diffusion: bool = False
) -> np.ndarray:
    """Divergence of the fitted flux along one axis, any other axes being lines.

    Only the transport part is returned unless diffusion is set, in which
    case the unit diffusion of the fitted flux is included as well.
    """
    dx = grid.dx
    b = b.swapaxes(axis, 0)
    mu = mu.swapaxes(axis, 0)
    # face drifts are the means of the two adjacent node drifts
    A, B = face_transport_coefficients(0.5 * (b[1:] + b[:-1]) * dx)
    if not diffusion:  # transport-only part of the fitted flux
        A, B = A - 1.0, B - 1.0
    flux = A * mu[:-1] - B * mu[1:]  # times dx
    out = np.zeros_like(mu)
    out[:-1] += flux
    out[1:] -= flux
    w = grid.axis_weights.reshape((-1,) + (1,) * (mu.ndim - 1))
    out /= w * dx
    return out.swapaxes(0, axis)


def write_grid_json(path, grid: Grid) -> None:
    meta = {
        "dim": grid.dim,
        "half_width": grid.half_width,
        "nx": grid.nx,
        "nt": grid.nt,
        "horizon": grid.horizon,
        "dx": grid.dx,
        "dt": grid.dt,
    }
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_field_csv(path, grid: Grid, field_slice: np.ndarray) -> None:
    """One node per row: x,value in 1D and x,y,value in 2D."""
    values = tuple(np.asarray(field_slice, dtype=float).tolist())
    with open(path, "w") as fh:
        fh.write(_row_template(grid) % values)


@lru_cache(maxsize=4)
def _row_template(grid: Grid) -> str:
    """The whole text of a field CSV with a %.17g slot for each node's value.

    Every snapshot of a run is written on the same grid, so the header and
    the "x," or "x,y," coordinate text are formatted once rather than once
    per file.
    """
    header = "x,value\n" if grid.dim == 1 else "x,y,value\n"
    coords = ("".join(f"{x:.17g}," for x in node) for node in grid.coordinates.T.tolist())
    return header + "".join(c + "%.17g\n" for c in coords)


def read_field_csv(path) -> np.ndarray:
    """Read back the value column written by write_field_csv."""
    data = np.genfromtxt(path, delimiter=",", skip_header=1)
    if data.ndim == 1:
        data = data[None, :]
    return data[:, -1].copy()
