"""Uniform truncated grids and the discrete operators built on them.

Fields live on the nodes of a uniform grid over [-L, L]^dim with an odd
number of nodes per axis, so x = 0 is always a node. Space-time fields are
stored as (nt+1, n_nodes) arrays; in two dimensions the node axis unflattens
C-style to (nx, nx) with axis 0 along x and axis 1 along y.

Quadrature is the trapezoid rule. Its weights are exactly the finite-volume
cell widths (half cells at the boundary nodes), which is what makes the
flux-form updates below conserve the trapezoid mass to roundoff.

Each spatial operator is defined once, as tridiagonal bands per grid line in
the (1, 1) layout that the marches solve: the Neumann Laplacian by
neumann_off_diagonals and the fitted flux divergence by fitted_bands.
laplacian and flux_divergence apply those bands with banded_product. The
drift enters as a potential phi, b = grad phi, whose differences give the
face Peclet numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import check_fields


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid on [-L, L]^dim coupled to a uniform time mesh."""

    dim: int
    half_width: float
    nx: int
    nt: int
    horizon: float

    RULES = {
        "dim": lambda d: d in (1, 2),
        "half_width": lambda x: 0 < x < np.inf,
        "nx": lambda n: n >= 3 and n % 2 == 1,
        "nt": lambda n: n >= 1,
        "horizon": lambda t: 0 < t < np.inf,
    }

    def __post_init__(self):
        check_fields(self)
        if not _normal_square(self.dx):
            raise ValueError(f"invalid Grid: half_width={self.half_width!r} and nx={self.nx!r} "
                             "give a spacing whose square is not a normal float")

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
        return np.prod(np.meshgrid(*[self.axis_weights] * self.dim, indexing="ij"), axis=0).ravel()

    @cached_property
    def time_weights(self) -> np.ndarray:
        """Trapezoid weights of the time levels, shape (nt+1,)."""
        tw = np.full(self.nt + 1, self.dt)
        tw[0] = tw[-1] = 0.5 * self.dt
        return tw

    @cached_property
    def coordinates(self) -> np.ndarray:
        """Node coordinates, shape (dim, n_nodes)."""
        return np.reshape(np.meshgrid(*[self.axis] * self.dim, indexing="ij"), (self.dim, -1))

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


def _normal_square(dx: float) -> bool:
    """Whether dx * dx is a normal positive float, as every operator that
    divides by the squared spacing needs: neither 0, subnormal nor inf."""
    return np.finfo(float).smallest_normal <= dx * dx < np.inf


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


def integrate(field_slice: np.ndarray, grid: Grid, weight: np.ndarray | None = None) -> float:
    """Trapezoid integral of a node field, optionally against a node weight."""
    f = np.asarray(field_slice, dtype=float)
    if weight is not None:
        f = f * weight
    return float(np.dot(grid.weights, f))


def integrate_space_time(values: np.ndarray, grid: Grid) -> float:
    """Trapezoid integral over space and time of a (nt+1, n_nodes) array."""
    spatial = np.asarray(values, dtype=float) @ grid.weights
    return float(np.dot(grid.time_weights, spatial))


def banded_product(ab: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The tridiagonal product A x along the last axis of x.

    ab holds A in solve_banded's (1, 1) layout, shape (3, ..., n): ab[1] is
    the diagonal, ab[0, ..., 1:] the super- and ab[2, ..., :-1] the
    sub-diagonal; the unused ends are never read. A symmetric A may come as
    the first two rows alone, shape (2, ..., n), its super-diagonal serving
    as the sub-diagonal too. ab broadcasts against x, so one line's bands
    serve every line of x.
    """
    out = ab[1] * x
    tmp = np.multiply(ab[0, ..., 1:], x[..., 1:])  # one temporary for both off-diagonals
    out[..., :-1] += tmp
    lower = ab[2, ..., :-1] if len(ab) == 3 else ab[0, ..., 1:]
    np.multiply(lower, x[..., :-1], out=tmp)
    out[..., 1:] += tmp
    return out


def _along_axes(field: np.ndarray, grid: Grid, bands_of_axis) -> np.ndarray:
    """Sum over the grid axes of banded_product along each.

    field has shape (..., n_nodes) and the result the same shape.
    bands_of_axis(ax) gives the bands of the lines along array axis ax of
    the unflattened field (grid axis ax + dim), with that axis last.
    """
    f = np.asarray(field, dtype=float)
    g = f.reshape(f.shape[:-1] + (grid.nx,) * grid.dim)
    out = banded_product(bands_of_axis(-1), g)
    for ax in range(-grid.dim, -1):
        out += banded_product(bands_of_axis(ax), g.swapaxes(ax, -1)).swapaxes(ax, -1)
    return out.reshape(f.shape)


EDGE_SCALE = np.sqrt(0.5)


def neumann_off_diagonals(ab: np.ndarray, r: float) -> None:
    """Off-diagonal bands of I - r*dx^2*Lap with ghost-node Neumann rows.

    The reflected ghost node doubles each boundary row's coupling, and the
    unused ends are zeroed, so stacked lines are not coupled. A two-row ab
    (banded_product's symmetric layout) gets instead the off-diagonal of
    S (I - r*dx^2*Lap) S^-1, S the diagonal scaling that multiplies each
    line's end nodes by EDGE_SCALE = 1/sqrt(2): the operator is self-adjoint
    in the trapezoid inner product, so that matrix is symmetric, with
    -sqrt(2)*r next to each end. Its diagonal is the unscaled one.
    """
    ab[0, ..., 0] = 0.0
    ab[0, ..., 1:] = -r
    if len(ab) == 2:
        ab[0, ..., 1] = ab[0, ..., -1] = -2.0 * r * EDGE_SCALE
        return
    ab[0, ..., 1] = -2.0 * r  # reflected ghost at the left boundary
    ab[2, ..., :-1] = -r
    ab[2, ..., -2] = -2.0 * r
    ab[2, ..., -1] = 0.0


def laplacian(field: np.ndarray, grid: Grid) -> np.ndarray:
    """Second-order Laplacian with ghost-node reflection at the boundary.

    The bands of neumann_off_diagonals with diagonal -2/dx^2, applied along
    every axis. The reflection enforces a homogeneous Neumann condition, so
    constants are annihilated exactly at every node. field has shape
    (..., n_nodes), for example one time slice or a block of them.
    """
    ab = np.empty((3, grid.nx))
    ab[1] = -2.0 / grid.dx**2
    neumann_off_diagonals(ab, -1.0 / grid.dx**2)
    return _along_axes(field, grid, lambda ax: ab)


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


def fitted_bands(phi_lines: np.ndarray, grid: Grid, dt: float) -> np.ndarray:
    """Bands of I + dt*L for every line of phi_lines, shape (3, *phi_lines.shape).

    L is the fitted flux divergence along the last axis of phi_lines, which
    holds the drift potential (..., lines, n), drift b = grad phi. A face's
    Peclet number, dx times the mean of gradient's node drifts beside it, is
    phi[j+1] - phi[j] on a line's end faces and (phi[j+1] - phi[j-1] +
    phi[j+2] - phi[j]) / 4 inside. The lines are one flat run of nodes (a
    copy only when phi_lines is a transposed view), so each coefficient
    takes whole-array passes; flat face k lies between nodes k and k+1. The
    faces between stacked lines are zeroed before the coefficients are
    formed, and the line ends, whose scale is the half cell's, are fixed up
    by strided writes. The Peclet numbers are formed in the upper band,
    which is written last. Every entry has the bits of the per-line
    formulas: diag = (scale*A + 1) + scale*B of the left face,
    upper = (-scale)*B and lower = (-scale)*A.
    """
    n = phi_lines.shape[-1]
    phi = phi_lines.reshape(-1)
    ab = np.empty((3, phi.size))
    upper, diag, lower = ab
    p = upper
    np.subtract(phi[2:], phi[:-2], out=lower[1:-1])  # node k's central difference, at k
    np.add(lower[1:-2], lower[2:-1], out=p[1:-2])
    p[1:-2] *= 0.25
    np.subtract(phi[1::n], phi[::n], out=p[::n])
    np.subtract(phi[n - 1 :: n], phi[n - 2 :: n], out=p[n - 2 :: n])
    p[n - 1 :: n] = 0.0  # no face between one line's end and the next line's start
    A, B = face_transport_coefficients(p)
    scale = dt / (grid.axis_weights * grid.dx)
    inner, end = scale[1], scale[0]  # interior cells, and the half cells at the ends
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
    return ab.reshape((3,) + phi_lines.shape)


def flux_divergence(phi: np.ndarray, density: np.ndarray, grid: Grid) -> np.ndarray:
    """The fitted divergence L mu = -Lap mu + div(mu grad phi), no-flux boundary.

    L is the operator whose implicit step (I + dt*L) mu_new = mu_old the
    Fokker-Planck march solves: fitted_bands with dt = 1 and the identity
    taken off the diagonal, applied along each axis. The drift potential
    phi has density's shape (..., n_nodes). The weighted sum of the output
    telescopes to zero up to roundoff; a constant phi gives -Lap mu.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape != np.shape(density):
        raise ValueError(f"phi shape {phi.shape} != {np.shape(density)}")
    pg = phi.reshape(phi.shape[:-1] + (grid.nx,) * grid.dim)

    def fitted(ax):
        ab = fitted_bands(pg.swapaxes(ax, -1), grid, 1.0)
        ab[1] -= 1.0
        return ab

    return _along_axes(density, grid, fitted)


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
