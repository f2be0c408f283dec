import math
import weakref
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded as scipy_solve_banded
from scipy.linalg import solveh_banded

from aggmfg import discretization, parabolic
from aggmfg import (
    GaussianMixture,
    HeatKernelQuery,
    KernelNormDivergenceError,
    PositivityError,
    SchemeViolationError,
    SolverError,
    analytic_kernel_exponent,
    heat_kernel_spacetime_norm,
    solve_backward_heat,
    solve_fokker_planck,
)
from aggmfg.discretization import (
    _BLOCK_ROWS,
    Grid,
    _level_blocks,
    banded_product,
    face_transport_coefficients,
    fitted_bands,
    integrate,
)
from tests.conftest import three_block_levels


def _gaussian(grid, std=1.0, mean=0.0):
    mix = GaussianMixture(weights=(1.0,), means=((mean,) * grid.dim,), stds=(std,))
    return mix.value(grid.coordinates)


def heat_kernel_convolve(initial, t, grid):
    """Reference heat flow of a 1D node field to time t > 0, by the sampled kernel.

    The kernel matrix is column normalized against the quadrature weights,
    so the discrete mass is preserved to machine precision.
    """
    x, w = grid.axis, grid.axis_weights
    K = np.exp(-((x[:, None] - x[None, :]) ** 2) / (4.0 * t))
    K /= w @ K  # unit discrete mass per column
    return K @ (w * initial)


# ---------------------------------------------------------------------------
# backward marches


@pytest.mark.parametrize("scheme,order", [("implicit_euler", 1), ("crank_nicolson", 2)])
def test_backward_heat_constant_coefficient_order(scheme, order):
    # spatially uniform w: Laplacian drops out, exact solution e^{kappa (T - t)}
    kappa = 0.8
    errs = []
    for nt in (40, 80, 160):
        g = Grid(dim=1, half_width=6.0, nx=17, nt=nt, horizon=1.0)
        c = np.full((g.nt + 1, g.n_nodes), kappa)
        w = solve_backward_heat(np.ones(g.n_nodes), c, g, scheme=scheme)
        exact = np.exp(kappa * (1.0 - g.times))
        errs.append(np.abs(w[:, 8] - exact).max())
    slopes = np.diff(np.log(errs)) / np.log(0.5)
    assert slopes.min() > order - 0.15


def test_backward_heat_matches_heat_flow():
    g = Grid(dim=1, half_width=12.0, nx=513, nt=1000, horizon=1.0)
    w0 = _gaussian(g, std=1.0)
    c = np.zeros((g.nt + 1, g.n_nodes))
    w = solve_backward_heat(w0, c, g)
    exact = heat_kernel_convolve(w0, 1.0, g) * integrate(w0, g)
    # the convolve helper renormalizes mass; rescale to compare shapes
    exact *= integrate(w[0], g) / integrate(exact, g)
    assert integrate(np.abs(w[0] - exact), g) < 1e-3


def test_backward_heat_positive_floor():
    # with c = -V and V a bump of height 2, min w >= e^{-T max V} min w_T
    g = Grid(dim=1, half_width=8.0, nx=129, nt=200, horizon=1.0)
    v = 2.0 * np.exp(-(g.axis**2))
    c = np.tile(-v, (g.nt + 1, 1))
    w_T = np.exp(-0.1 * g.axis**2)
    w = solve_backward_heat(w_T, c, g)
    floor = math.exp(-1.0 * 2.0) * w_T.min()
    assert w.min() >= floor * (1.0 - 1e-8)
    assert w.min() > 0.0


def test_backward_heat_rejects_large_dt():
    g = Grid(dim=1, half_width=4.0, nx=9, nt=5, horizon=1.0)
    c = np.full((g.nt + 1, g.n_nodes), 6.0)  # dt * c = 1.2 >= 1
    with pytest.raises(SolverError):
        solve_backward_heat(np.ones(g.n_nodes), c, g)


def test_backward_heat_refuses_a_line_an_ulp_below_the_step_limit():
    # dt * c passes the step-limit check, but dptsv finds the line not
    # positive definite: a SolverError, on which a Picard solve stops
    g = Grid(dim=1, half_width=12.0, nx=257, nt=10, horizon=1.0)
    c = np.full((g.nt + 1, g.n_nodes), (1.0 - 2.0**-53) / g.dt)
    with pytest.raises(SolverError, match="not positive definite"):
        solve_backward_heat(np.ones(g.n_nodes), c, g)


def test_backward_heat_2d_smoke():
    g = Grid(dim=2, half_width=6.0, nx=33, nt=20, horizon=0.5)
    w_T = _gaussian(g, std=1.2)
    c = np.zeros((g.nt + 1, g.n_nodes))
    w = solve_backward_heat(w_T, c, g)
    assert w.min() > 0.0
    assert np.all(np.isfinite(w))


# ---------------------------------------------------------------------------
# forward marches


def test_fokker_planck_mass_per_step(rng):
    g = Grid(dim=1, half_width=10.0, nx=201, nt=50, horizon=0.5)
    mu0 = _gaussian(g)
    b = rng.standard_normal((g.nt + 1, 1, g.n_nodes))
    mu = solve_fokker_planck(mu0, b, g)
    masses = np.array([integrate(mu[n], g) for n in range(g.nt + 1)])
    assert np.abs(np.diff(masses)).max() < 1e-13


def test_fokker_planck_positivity(rng):
    g = Grid(dim=1, half_width=10.0, nx=101, nt=40, horizon=1.0)
    mu0 = _gaussian(g, std=0.5)
    b = 3.0 * rng.standard_normal((g.nt + 1, 1, g.n_nodes))
    mu = solve_fokker_planck(mu0, b, g)
    assert mu.min() >= 0.0


def test_fokker_planck_constant_drift_mean():
    # mu_t = mu_xx - kappa mu_x carries the mean at speed kappa
    kappa = 0.3
    g = Grid(dim=1, half_width=12.0, nx=385, nt=400, horizon=1.0)
    mu0 = _gaussian(g)
    b = np.full((g.nt + 1, 1, g.n_nodes), kappa)
    mu = solve_fokker_planck(mu0, b, g)
    mean_T = integrate(g.axis * mu[-1], g) / integrate(mu[-1], g)
    assert abs(mean_T - kappa * 1.0) < 2e-3


def test_fokker_planck_zero_drift_matches_kernel():
    g = Grid(dim=1, half_width=12.0, nx=257, nt=1500, horizon=0.1)
    mu0 = _gaussian(g, std=1.5)
    b = np.zeros((g.nt + 1, 1, g.n_nodes))
    mu = solve_fokker_planck(mu0, b, g)
    exact = heat_kernel_convolve(mu0, 0.1, g)
    assert np.abs(mu[-1] - exact).max() <= 1e-4


def test_fokker_planck_2d_invariants(rng):
    g = Grid(dim=2, half_width=6.0, nx=33, nt=20, horizon=0.2)
    mu0 = _gaussian(g, std=0.8)
    mu0 /= integrate(mu0, g)
    b = 0.5 * rng.standard_normal((g.nt + 1, 2, g.n_nodes))
    mu = solve_fokker_planck(mu0, b, g)
    masses = np.array([integrate(mu[n], g) for n in range(g.nt + 1)])
    assert np.abs(np.diff(masses)).max() < 1e-13
    assert mu.min() >= 0.0


def test_fokker_planck_rejects_negative_initial():
    g = Grid(dim=1, half_width=4.0, nx=17, nt=4, horizon=0.1)
    mu0 = -np.ones(g.n_nodes)
    b = np.zeros((g.nt + 1, 1, g.n_nodes))
    with pytest.raises(ValueError):
        solve_fokker_planck(mu0, b, g)


# ---------------------------------------------------------------------------
# line-sweep kernel against one scipy solve per line


def _solve_each_line(f, axis, band_of_line):
    """Solve every line of f along axis with its own scipy call.

    Three-row bands are solved by scipy.linalg.solve_banded (dgtsv), two-row
    symmetric bands by scipy.linalg.solveh_banded, which solves a
    tridiagonal system with LAPACK's dptsv.
    """
    out = f.copy()
    lines = np.moveaxis(out, axis, 0)
    for line in np.ndindex(lines.shape[1:]):
        idx = (slice(None),) + line
        ab = band_of_line(idx)
        if len(ab) == 2:
            lines[idx] = solveh_banded(ab, lines[idx], check_finite=False)
        else:
            lines[idx] = scipy_solve_banded((1, 1), ab, lines[idx], check_finite=False)
    return out


def _explicit_each_line(f, axis, band_of_line):
    """(2I - M) f along axis, each line with its own bands M: Crank-Nicolson's explicit half."""
    out = f.copy()
    lines = np.moveaxis(out, axis, 0)
    for line in np.ndindex(lines.shape[1:]):
        idx = (slice(None),) + line
        lines[idx] = 2.0 * lines[idx] - banded_product(band_of_line(idx), lines[idx])
    return out


def _heat_band(nx, r, coefficient=0.0, symmetric=False):
    """(1, 1) bands of A = I - r*dx^2*Lap - coefficient on one line, Neumann ghost rows.

    symmetric: the upper two rows of S A S^-1, which is symmetric for S
    scaling both end nodes by 1/sqrt(2).
    """
    ab = np.zeros((3, nx))
    ab[1] = 1.0 + 2.0 * r
    ab[1] -= coefficient
    ab[0, 1:] = -r
    ab[2, :-1] = -r
    if symmetric:
        ab[0, 1] = ab[0, -1] = -math.sqrt(2.0) * r
        return ab[:2]
    ab[0, 1] = -2.0 * r
    ab[2, -2] = -2.0 * r
    return ab


def _fp_band(b_line, g, dt):
    """(1, 1) bands of I + dt*L on one line, L the fitted flux divergence."""
    A, B = face_transport_coefficients(0.5 * (b_line[1:] + b_line[:-1]) * g.dx)
    scale = dt / (g.axis_weights * g.dx)
    ab = np.zeros((3, g.nx))
    ab[1] = 1.0
    ab[1, :-1] += scale[:-1] * A
    ab[1, 1:] += scale[1:] * B
    ab[0, 1:] = -scale[:-1] * B
    ab[2, :-1] = -scale[1:] * A
    return ab


def _far_field_drift_lines(rng, levels, lines, n):
    """Line-layout drifts (levels, lines, n) that probe every face kind.

    Interior faces are random, a run of faces near each line's start is
    exactly zero and a run near its end is below 1e-8, and each line ends on
    a large value that the next line does not start near. The faces at both
    line ends have zero Peclet number, so only a face between two stacked
    lines would overflow expm1.
    """
    b = rng.standard_normal((levels, lines, n))
    b[..., 2:5] = 0.0
    b[..., -5:-2] = 1e-9 * rng.standard_normal((levels, lines, 3))
    b[..., 0], b[..., 1] = 1e3, -1e3
    b[..., -2], b[..., -1] = -3e3, 3e3
    return b


@pytest.mark.parametrize("dim, axis", [(1, 0), (2, 0), (2, 1)])
def test_fp_bands_match_per_line_bands(dim, axis, rng):
    g = Grid(dim=dim, half_width=6.0, nx=17, nt=4, horizon=0.2)
    lines = g.nx ** (dim - 1)
    # a few levels, and a block of at least _BLOCK_ROWS node rows
    for levels in (4, -(-_BLOCK_ROWS // g.n_nodes)):
        b = _far_field_drift_lines(rng, levels, lines, g.nx)
        if axis == 0 and dim == 2:
            # the axis-0 sweep sees its lines through a transposed view of the level
            b = np.ascontiguousarray(b.swapaxes(-2, -1)).swapaxes(-2, -1)
        with np.errstate(over="raise", invalid="raise"):
            ab = fitted_bands(b, g, g.dt)
        expected = np.empty_like(ab)
        for idx in np.ndindex(b.shape[:-1]):
            expected[(slice(None),) + idx] = _fp_band(b[idx], g, g.dt)
        assert np.array_equal(ab, expected)


def _scale_line_ends(w, g, op):
    """w (levels, n_nodes) with op(node, 1/sqrt(2)) at the end nodes of every line, axis by axis."""
    out = w.reshape((-1,) + (g.nx,) * g.dim).copy()
    for axis in range(1, g.dim + 1):
        lines = np.moveaxis(out, axis, 0)
        lines[[0, -1]] = op(lines[[0, -1]], math.sqrt(0.5))
    return out.reshape(w.shape)


def _per_line_heat(w_T, c, g, scheme, symmetric=True):
    """The value march, one scipy solve per line and step.

    symmetric: march y = S w with the symmetric bands of S A S^-1 and map
    back at the end, S scaling every line's end nodes by 1/sqrt(2), with
    w(T) kept as given; otherwise march w with the bands of A.
    """
    half = scheme == "crank_nicolson"
    theta = 0.5 if half else 1.0
    r = theta * g.dt / g.dx**2
    shape = (g.nx,) * g.dim
    band = partial(_heat_band, g.nx, r, symmetric=symmetric)
    w = np.empty((g.nt + 1, g.n_nodes))
    w[-1] = _scale_line_ends(w_T[None], g, np.multiply) if symmetric else w_T
    for j in range(g.nt - 1, -1, -1):
        cur = w[j + 1].reshape(shape)
        if half:
            ck = theta * g.dt * c[j + 1].reshape(shape)
            cur = _explicit_each_line(cur, 0, lambda idx: band(ck[idx]))
        cj = theta * g.dt * c[j].reshape(shape)
        cur = _solve_each_line(cur, 0, lambda idx: band(cj[idx]))
        if g.dim == 2:
            if half:
                cur = _explicit_each_line(cur, 1, lambda idx: band())
            cur = _solve_each_line(cur, 1, lambda idx: band())
        w[j] = cur.ravel()
    if symmetric:
        w = _scale_line_ends(w, g, np.divide)
        w[-1] = w_T
    return w


def _per_line_fokker_planck(mu0, b, g, scheme):
    half = scheme == "crank_nicolson"
    dt = 0.5 * g.dt if half else g.dt
    shape = (g.nx,) * g.dim
    b = b.reshape((g.nt + 1, g.dim) + shape)
    mu = np.empty((g.nt + 1, g.n_nodes))
    mu[0] = mu0
    for n in range(1, g.nt + 1):
        cur = mu[n - 1].reshape(shape)
        for axis in range(g.dim):
            if half:
                b_old = np.moveaxis(b[n - 1, axis], axis, 0)
                cur = _explicit_each_line(cur, axis, lambda idx: _fp_band(b_old[idx], g, dt))
            b_new = np.moveaxis(b[n, axis], axis, 0)
            cur = _solve_each_line(cur, axis, lambda idx: _fp_band(b_new[idx], g, dt))
        mu[n] = np.maximum(cur.ravel(), 0.0)
    return mu


@pytest.mark.parametrize("scheme", ["implicit_euler", "crank_nicolson"])
@pytest.mark.parametrize("dim", [1, 2])
def test_line_sweep_matches_per_line_solves(dim, scheme, monkeypatch, rng):
    # nt = 6 fits in one block of time levels and the longer march spans
    # three; with a one-row cap every block but the last holds the
    # minimum of 4 levels, as a 65 x 65 level does under the default cap
    cases = [(6, _BLOCK_ROWS, 1), (three_block_levels(17**dim), _BLOCK_ROWS, 3)]
    if dim == 2:
        cases.append((14, 1, 4))
    for nt, block_rows, min_blocks in cases:
        monkeypatch.setattr(discretization, "_BLOCK_ROWS", block_rows)
        g = Grid(dim=dim, half_width=6.0, nx=17, nt=nt, horizon=0.05 * nt)
        blocks = list(_level_blocks(nt, g.n_nodes))
        assert len(blocks) >= min_blocks
        if block_rows == 1:
            assert blocks == [(0, 4), (4, 8), (8, 12), (12, 14)]
        c = 2.0 * rng.standard_normal((g.nt + 1, g.n_nodes))
        w_T = _gaussian(g, std=1.5) + 0.1
        w = solve_backward_heat(w_T, c, g, scheme=scheme)
        assert np.array_equal(w, _per_line_heat(w_T, c, g, scheme))
        # the unscaled march with the nonsymmetric bands solves the same systems
        reference = _per_line_heat(w_T, c, g, scheme, symmetric=False)
        np.testing.assert_allclose(w, reference, rtol=1e-13, atol=0.0)

        b = 0.5 * rng.standard_normal((g.nt + 1, dim, g.n_nodes))
        mu0 = _gaussian(g)
        mu = solve_fokker_planck(mu0, b, g, scheme=scheme)
        assert np.array_equal(mu, _per_line_fokker_planck(mu0, b, g, scheme))


@pytest.mark.parametrize("dim", [1, 2])
def test_marches_hold_one_blocks_bands_at_a_time(dim, monkeypatch, rng):
    # each block hands dim sets of bands to _diagonals in both marches (in
    # 2D heat: the coefficient sweep's and the diffusion sweep's), so when
    # a set is built only the same block's earlier sets may still be alive
    g = Grid(dim=dim, half_width=6.0, nx=17, nt=three_block_levels(17**dim), horizon=1.0)
    assert len(list(_level_blocks(g.nt, g.n_nodes))) == 3
    diagonals = parabolic._diagonals
    built = []
    alive = []

    def recording(ab):
        alive.append(sum(ref() is not None for ref in built))
        # the memory's owner: a view of the bands keeps it alive, not the view
        built.append(weakref.ref(ab if ab.base is None else ab.base))
        return diagonals(ab)

    monkeypatch.setattr(parabolic, "_diagonals", recording)
    solve_backward_heat(_gaussian(g) + 0.1, np.zeros((g.nt + 1, g.n_nodes)), g)
    b = 0.5 * rng.standard_normal((g.nt + 1, dim, g.n_nodes))
    solve_fokker_planck(_gaussian(g), b, g)
    assert alive == [k % dim for k in range(2 * 3 * dim)]


def _kernel_rows_per_march(dim, monkeypatch, rng):
    """Rows of every kernel call made by one heat and one FP march."""
    g = Grid(dim=dim, half_width=6.0, nx=17, nt=5, horizon=0.2)
    kernel = parabolic.solve_banded
    rows = []

    def counting(dl, d, du, x):
        rows.append(x.size)
        return kernel(dl, d, du, x)

    monkeypatch.setattr(parabolic, "solve_banded", counting)
    solve_backward_heat(_gaussian(g) + 0.1, np.zeros((g.nt + 1, g.n_nodes)), g)
    heat = list(rows)
    rows.clear()
    b = rng.standard_normal((g.nt + 1, dim, g.n_nodes))
    solve_fokker_planck(_gaussian(g), b, g)
    return g, heat, rows


def test_1d_marches_solve_each_step_in_one_kernel_call(monkeypatch, rng):
    g, heat, fp = _kernel_rows_per_march(1, monkeypatch, rng)
    assert heat == fp == [g.nx] * g.nt


def test_2d_marches_solve_each_sweep_in_one_kernel_call(monkeypatch, rng):
    g, heat, fp = _kernel_rows_per_march(2, monkeypatch, rng)
    assert heat == fp == [g.n_nodes] * (2 * g.nt)


def _stacked_diagonals(ab):
    """Fresh (dl, d, du) of the lines of ab, shape (3, lines, n) in the (1, 1) layout, end to end."""
    upper, diag, lower = ab.reshape(3, -1)
    return lower[:-1].copy(), diag.copy(), upper[1:].copy()


def test_line_sweep_kernel_solves_in_place(rng):
    ab = rng.random((3, 4, 9))
    ab[1] += 3.0
    ab[0, :, 0] = ab[2, :, -1] = 0.0  # no coupling between the stacked lines
    rhs = rng.standard_normal((4, 9))
    expected = np.stack([scipy_solve_banded((1, 1), ab[:, i], rhs[i]) for i in range(4)])
    x = rhs.ravel().copy()
    assert parabolic.solve_banded(*_stacked_diagonals(ab), x) is x
    assert np.array_equal(x.reshape(4, 9), expected)
    # a strided right-hand side would be solved in a copy, not in place
    with pytest.raises(ValueError, match="contiguous"):
        parabolic.solve_banded(*_stacked_diagonals(ab), np.ones(2 * x.size)[::2])


def test_line_sweep_kernel_solves_many_right_hand_sides_with_one_lines_bands(rng):
    ab = rng.random((3, 9))
    ab[1] += 3.0
    ab[0, 0] = ab[2, -1] = 0.0
    rows = rng.standard_normal((5, 9))
    expected = np.stack([scipy_solve_banded((1, 1), ab, row) for row in rows])
    x = rows.T  # F-contiguous (n, lines): one line per column
    assert x.flags.f_contiguous
    assert parabolic.solve_banded(ab[2, :-1].copy(), ab[1].copy(), ab[0, 1:].copy(), x) is x
    assert np.array_equal(rows, expected)


def _dense(ab_line):
    """The dense matrix of one line's (1, 1) bands."""
    return np.diag(ab_line[1]) + np.diag(ab_line[0, 1:], 1) + np.diag(ab_line[2, :-1], -1)


def _dominant_bands(rng, shape):
    ab = rng.random((3,) + shape)
    ab[1] += 3.0
    ab[0, ..., 0] = ab[2, ..., -1] = 0.0  # no coupling between stacked lines
    return ab


def test_banded_product_inverts_the_kernel_and_matches_dense_products(rng):
    n = 9
    # one 1D line
    ab = _dominant_bands(rng, (n,))
    x = rng.standard_normal(n)
    y = parabolic.solve_banded(ab[2, :-1].copy(), ab[1].copy(), ab[0, 1:].copy(), x.copy())
    assert np.allclose(banded_product(ab, y), x, rtol=1e-14, atol=1e-14)
    assert np.allclose(banded_product(ab, x), _dense(ab) @ x, rtol=1e-14, atol=1e-14)

    # stacked lines of a 2D level, seen through a transposed view as the
    # axis-0 sweep sees them
    ab = _dominant_bands(rng, (n, n))
    level = rng.standard_normal((n, n))
    x = level.T
    assert not x.flags.c_contiguous
    y = x.copy()
    parabolic.solve_banded(*_stacked_diagonals(ab), y.reshape(-1))
    assert np.allclose(banded_product(ab, y), x, rtol=1e-14, atol=1e-14)
    dense = np.stack([_dense(ab[:, i]) @ x[i] for i in range(n)])
    assert np.allclose(banded_product(ab, x), dense, rtol=1e-14, atol=1e-14)

    # one diffusion line broadcast over every line of a level
    line = np.empty((3, 1, n))
    line[1] = 1.0 + 2.0 * 0.7
    discretization.neumann_off_diagonals(line, 0.7)
    rows = rng.standard_normal((5, n))
    y = rows.T.copy(order="F")  # one line per column
    parabolic.solve_banded(line[2, 0, :-1].copy(), line[1, 0].copy(), line[0, 0, 1:].copy(), y)
    assert np.allclose(banded_product(line, y.T), rows, rtol=1e-14, atol=1e-14)
    dense = rows @ _dense(line[:, 0]).T
    assert np.allclose(banded_product(line, rows), dense, rtol=1e-14, atol=1e-14)


def test_line_sweep_kernel_rejects_singular_line():
    ab = np.zeros((3, 2, 5))
    ab[1] = 1.0
    ab[1, 1, 2] = 0.0  # a zero row in the second line only
    with pytest.raises(SolverError, match="singular matrix"):
        parabolic.solve_banded(*_stacked_diagonals(ab), np.ones(10))


def test_line_sweep_kernel_solves_symmetric_lines_with_dptsv(rng):
    # du=None: a symmetric positive definite system whose off-diagonal is dl,
    # solved in place with the bits of one scipy.linalg.solveh_banded call
    # (dptsv) per line, for stacked lines and for one line's bands shared
    # by many right-hand sides
    ab = rng.random((2, 4, 9))
    ab[1] += 3.0
    ab[0, :, 0] = 0.0  # no coupling between the stacked lines
    rhs = rng.standard_normal((4, 9))
    expected = np.stack([solveh_banded(ab[:, i], rhs[i]) for i in range(4)])
    x = rhs.ravel().copy()
    upper, diag = ab.reshape(2, -1)
    assert parabolic.solve_banded(upper[1:].copy(), diag.copy(), None, x) is x
    assert np.array_equal(x.reshape(4, 9), expected)
    assert np.allclose(banded_product(ab, x.reshape(4, 9)), rhs, rtol=1e-14, atol=1e-14)

    line = ab[:, 0]
    rows = rng.standard_normal((5, 9))
    expected = np.stack([solveh_banded(line, row) for row in rows])
    x = rows.T  # F-contiguous (n, lines): one line per column
    assert parabolic.solve_banded(line[0, 1:].copy(), line[1].copy(), None, x) is x
    assert np.array_equal(rows, expected)


def test_symmetric_kernel_rejects_an_indefinite_line_and_a_strided_right_hand_side():
    d, e = np.array([1.0, -1.0, 1.0, 1.0]), np.zeros(3)
    with pytest.raises(SolverError, match="not positive definite"):
        parabolic.solve_banded(e.copy(), d.copy(), None, np.ones(4))
    with pytest.raises(ValueError, match="contiguous"):
        parabolic.solve_banded(e.copy(), np.ones(4), None, np.ones(8)[::2])


def test_symmetric_bands_are_the_rescaled_neumann_bands():
    # S A S^-1, S scaling the end nodes by 1/sqrt(2), has A's diagonal and
    # the symmetric off-diagonal neumann_off_diagonals writes in two rows
    nx, r = 7, 0.3
    full = np.empty((3, nx))
    full[1] = 1.0 + 2.0 * r
    discretization.neumann_off_diagonals(full, r)
    sym = np.empty((2, nx))
    sym[1] = 1.0 + 2.0 * r
    discretization.neumann_off_diagonals(sym, r)
    s = np.ones(nx)
    s[[0, -1]] = math.sqrt(0.5)
    similar = s[:, None] * _dense(full) / s[None, :]
    dense = np.diag(sym[1]) + np.diag(sym[0, 1:], 1) + np.diag(sym[0, 1:], -1)
    assert np.allclose(dense, similar, rtol=1e-15, atol=0.0)


@settings(max_examples=80, deadline=None)
@given(
    dim=st.sampled_from([1, 2]),
    scheme=st.sampled_from(parabolic.SCHEMES),
    nt=st.integers(1, 12),
    dt=st.floats(0.01, 0.8),
    top=st.floats(0.0, 0.999),
    seed=st.integers(0, 2**32 - 1),
)
def test_value_march_stays_positive_below_the_step_limit(dim, scheme, nt, dt, top, seed):
    # below the step limit dt * max(c) < 1 (implicit Euler) or < 2
    # (Crank-Nicolson) every implicit step is an M-matrix solve, and with
    # r = dt / (2 dx^2) <= 0.4 and c not too negative every Crank-Nicolson
    # explicit half is a nonnegative matrix with a positive diagonal, so
    # positive terminal data stays positive at every node
    rng = np.random.default_rng(seed)
    g = Grid(dim=dim, half_width=4.0, nx=9, nt=nt, horizon=nt * dt)  # dx = 1
    half = scheme == "crank_nicolson"
    limit = 2.0 if half else 1.0
    lowest = -0.9 * (1.0 - g.dt / g.dx**2) / 0.5 if half else -4.0  # dt * c, from below
    c = (lowest + (limit * top - lowest) * rng.random((g.nt + 1, g.n_nodes))) / g.dt
    w_T = np.exp(3.0 * rng.standard_normal(g.n_nodes))
    w = solve_backward_heat(w_T, c, g, scheme=scheme)
    assert np.array_equal(w[-1], w_T)
    assert w.min() > 0.0


def _inject_after_kernel(monkeypatch, values):
    """Make kernel call i (counted from 0) write values[i] into node 3 of its solution."""
    kernel = parabolic.solve_banded
    calls = []

    def injecting(dl, d, du, x):
        kernel(dl, d, du, x)
        if len(calls) in values:
            x[3] = values[len(calls)]
        calls.append(x.size)
        return x

    monkeypatch.setattr(parabolic, "solve_banded", injecting)
    return calls


def _one_block_grid():
    g = Grid(dim=1, half_width=6.0, nx=17, nt=20, horizon=0.2)
    assert list(_level_blocks(g.nt, g.n_nodes)) == [(0, g.nt)]
    return g


def test_heat_block_check_names_the_first_level_the_march_reaches(monkeypatch):
    # the march solves levels 19, 18, ..., 0, one call each: call 7 solves
    # level 12 and call 14 level 5, both inside one block of levels
    g = _one_block_grid()
    _inject_after_kernel(monkeypatch, {7: -0.5, 14: -2.0})
    with pytest.raises(PositivityError) as exc:
        solve_backward_heat(_gaussian(g) + 0.1, np.zeros((g.nt + 1, g.n_nodes)), g)
    # what a check after every step would raise: level 12, not the lower,
    # more negative level 5
    assert str(exc.value) == "value field lost positivity at time level 12 (min -5.000e-01)"


def test_heat_block_check_names_a_nan_level(monkeypatch):
    # a NaN passes no comparison, so it fails the block's single minimum and
    # the level-by-level search names the level it appeared at (call 7
    # solves level 12; the levels below inherit the NaN)
    g = _one_block_grid()
    _inject_after_kernel(monkeypatch, {7: np.nan})
    with pytest.raises(PositivityError) as exc:
        solve_backward_heat(_gaussian(g) + 0.1, np.zeros((g.nt + 1, g.n_nodes)), g)
    assert str(exc.value) == "value field lost positivity at time level 12 (min nan)"


def test_fokker_planck_clamps_a_small_undershoot_and_resolves_the_block(monkeypatch, rng):
    g = _one_block_grid()
    b = 0.5 * rng.standard_normal((g.nt + 1, 1, g.n_nodes))
    mu0 = _gaussian(g)
    clean = solve_fokker_planck(mu0, b, g)
    calls = _inject_after_kernel(monkeypatch, {9: -1e-14})  # call 9 solves level 10
    mu = solve_fokker_planck(mu0, b, g)
    assert np.array_equal(mu[:10], clean[:10])
    assert mu[10, 3] == 0.0
    assert len(calls) == g.nt + (g.nt - 10)  # levels 11 .. 20 solved again
    # every later level is what a march of one step at a time gives from the clamped level
    step = Grid(dim=1, half_width=g.half_width, nx=g.nx, nt=1, horizon=g.dt)
    ref = mu[10]
    for n in range(11, g.nt + 1):
        ref = _per_line_fokker_planck(ref, b[n - 1 : n + 1], step, "implicit_euler")[1]
        assert np.array_equal(mu[n], ref)


def test_fokker_planck_2d_clamps_inside_a_block_of_the_minimum_levels(monkeypatch, rng):
    monkeypatch.setattr(discretization, "_BLOCK_ROWS", 1)
    g = Grid(dim=2, half_width=6.0, nx=9, nt=8, horizon=0.2)
    assert list(_level_blocks(g.nt, g.n_nodes)) == [(0, 4), (4, 8)]
    b = 0.5 * rng.standard_normal((g.nt + 1, 2, g.n_nodes))
    mu0 = _gaussian(g)
    clean = solve_fokker_planck(mu0, b, g)
    # two calls per level, axis 0 into scratch and then axis 1 into the
    # level itself: call 3 is the axis-1 solve of level 2
    calls = _inject_after_kernel(monkeypatch, {3: -1e-14})
    mu = solve_fokker_planck(mu0, b, g)
    assert np.array_equal(mu[:2], clean[:2])
    assert mu[2, 3] == 0.0
    assert len(calls) == 2 * g.nt + 2 * 2  # levels 3 and 4 of the first block solved again
    step = Grid(dim=2, half_width=g.half_width, nx=g.nx, nt=1, horizon=g.dt)
    ref = mu[2]
    for n in range(3, g.nt + 1):
        ref = _per_line_fokker_planck(ref, b[n - 1 : n + 1], step, "implicit_euler")[1]
        assert np.array_equal(mu[n], ref)


def test_fokker_planck_deep_undershoot_names_its_level(monkeypatch, rng):
    g = _one_block_grid()
    b = 0.5 * rng.standard_normal((g.nt + 1, 1, g.n_nodes))
    _inject_after_kernel(monkeypatch, {9: -1e-11})
    with pytest.raises(SchemeViolationError, match=r"undershoot -1\.000e-11 at time level 10$"):
        solve_fokker_planck(_gaussian(g), b, g)


def test_fokker_planck_nan_does_not_hide_an_earlier_undershoot(monkeypatch, rng):
    # the block's single minimum is NaN here (call 14 solves level 15), so
    # the level-by-level search still finds the undershoot below it
    g = _one_block_grid()
    b = 0.5 * rng.standard_normal((g.nt + 1, 1, g.n_nodes))
    _inject_after_kernel(monkeypatch, {9: -1e-11, 14: np.nan})
    with pytest.raises(SchemeViolationError, match=r"undershoot -1\.000e-11 at time level 10$"):
        solve_fokker_planck(_gaussian(g), b, g)


@settings(max_examples=200, deadline=None)
@given(levels=st.integers(1, 3000), rows_per_level=st.integers(1, 20000))
def test_level_blocks_cover_levels_in_order(levels, rows_per_level):
    blocks = list(_level_blocks(levels, rows_per_level))
    assert blocks[0][0] == 0 and blocks[-1][1] == levels
    for (lo, hi), (next_lo, _) in zip(blocks, blocks[1:]):
        assert hi == next_lo
    for lo, hi in blocks:
        assert hi > lo
    step = max(4, _BLOCK_ROWS // rows_per_level)
    assert all(hi - lo == step for lo, hi in blocks[:-1])
    assert blocks[-1][1] - blocks[-1][0] <= step


# ---------------------------------------------------------------------------
# heat kernel space-time norms


def test_kernel_norm_exponent_formula():
    assert analytic_kernel_exponent(1, 2.0) == pytest.approx(0.25)
    assert analytic_kernel_exponent(1, 3.0) == pytest.approx(0.0)
    assert analytic_kernel_exponent(2, 3.0) == pytest.approx(-1.0 / 3.0)
    assert analytic_kernel_exponent(1, 1.0, kind="gradient") == pytest.approx(0.5)


def test_kernel_norm_q1_equals_time():
    # unit-mass kernel: the L^1 space-time norm is just the horizon
    res = heat_kernel_spacetime_norm(HeatKernelQuery(dim=1, exponent=1.0, t=0.7))
    assert res.value == pytest.approx(0.7, rel=1e-4)
    assert res.fitted_exponent == pytest.approx(1.0, abs=1e-4)


def test_kernel_norm_integrable_pair():
    res = heat_kernel_spacetime_norm(HeatKernelQuery(dim=1, exponent=2.0, t=1.0))
    assert res.analytic_exponent == pytest.approx(0.25)
    assert res.fitted_exponent == pytest.approx(0.25, abs=1e-3)


def test_kernel_norm_boundary_raises():
    with pytest.raises(KernelNormDivergenceError) as exc:
        heat_kernel_spacetime_norm(HeatKernelQuery(dim=1, exponent=3.0, t=1.0))
    assert exc.value.boundary
    assert exc.value.analytic_exponent == pytest.approx(0.0, abs=1e-12)


def test_kernel_norm_divergent_raises():
    with pytest.raises(KernelNormDivergenceError) as exc:
        heat_kernel_spacetime_norm(HeatKernelQuery(dim=2, exponent=3.0, t=1.0))
    assert not exc.value.boundary
    assert exc.value.analytic_exponent == pytest.approx(-1.0 / 3.0)


def test_gradient_norm_matches_closed_form():
    # | grad G |_{L^1(R x (0,t))} = 2 sqrt(t) / sqrt(pi)
    res = heat_kernel_spacetime_norm(
        HeatKernelQuery(dim=1, exponent=1.0, t=1.0, kind="gradient")
    )
    assert res.value == pytest.approx(2.0 / math.sqrt(math.pi), abs=1e-4)
    assert res.fitted_exponent == pytest.approx(0.5, abs=1e-3)


def test_gradient_norm_fractional_exponent():
    res = heat_kernel_spacetime_norm(
        HeatKernelQuery(dim=1, exponent=1.2, t=1.0, kind="gradient")
    )
    assert res.analytic_exponent == pytest.approx(0.25)
    assert res.fitted_exponent == pytest.approx(0.25, abs=1e-3)


def test_kernel_query_validation():
    with pytest.raises(ValueError):
        HeatKernelQuery(dim=3, exponent=2.0, t=1.0)
    with pytest.raises(ValueError):
        HeatKernelQuery(dim=1, exponent=0.5, t=1.0)
    with pytest.raises(ValueError):
        HeatKernelQuery(dim=1, exponent=2.0, t=-1.0)
    with pytest.raises(ValueError):
        HeatKernelQuery(dim=1, exponent=2.0, t=1.0, kind="hessian")
    with pytest.raises(ValueError):
        HeatKernelQuery(dim=1, exponent=float("inf"), t=1.0)
    with pytest.raises(ValueError):
        HeatKernelQuery(dim=1, exponent=2.0, t=float("inf"))
