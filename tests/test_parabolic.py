import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError
from scipy.linalg import solve_banded as scipy_solve_banded

from aggmfg import parabolic
from aggmfg import (
    GaussianMixture,
    HeatKernelQuery,
    KernelNormDivergenceError,
    SolverError,
    analytic_kernel_exponent,
    heat_kernel_convolve,
    heat_kernel_spacetime_norm,
    solve_backward_heat,
    solve_fokker_planck,
)
from aggmfg.discretization import (
    _BLOCK_ROWS,
    Grid,
    _flux_divergence_axis,
    _level_blocks,
    face_transport_coefficients,
    integrate,
    second_difference,
)


def _gaussian(grid, std=1.0, mean=0.0):
    mix = GaussianMixture(weights=(1.0,), means=((mean,) * grid.dim,), stds=(std,))
    return mix.value(grid.coordinates)


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
        w = solve_backward_heat(np.ones(g.n_nodes), c, g, scheme=scheme).values
        exact = np.exp(kappa * (1.0 - g.times))
        errs.append(np.abs(w[:, 8] - exact).max())
    slopes = np.diff(np.log(errs)) / np.log(0.5)
    assert slopes.min() > order - 0.15


def test_backward_heat_matches_heat_flow():
    g = Grid(dim=1, half_width=12.0, nx=513, nt=1000, horizon=1.0)
    w0 = _gaussian(g, std=1.0)
    c = np.zeros((g.nt + 1, g.n_nodes))
    w = solve_backward_heat(w0, c, g).values
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
    w = solve_backward_heat(w_T, c, g).values
    floor = math.exp(-1.0 * 2.0) * w_T.min()
    assert w.min() >= floor * (1.0 - 1e-8)
    assert w.min() > 0.0


def test_backward_heat_rejects_large_dt():
    g = Grid(dim=1, half_width=4.0, nx=9, nt=5, horizon=1.0)
    c = np.full((g.nt + 1, g.n_nodes), 6.0)  # dt * c = 1.2 >= 1
    with pytest.raises(SolverError):
        solve_backward_heat(np.ones(g.n_nodes), c, g)


def test_backward_heat_2d_smoke():
    g = Grid(dim=2, half_width=6.0, nx=33, nt=20, horizon=0.5)
    w_T = _gaussian(g, std=1.2)
    c = np.zeros((g.nt + 1, g.n_nodes))
    w = solve_backward_heat(w_T, c, g).values
    assert w.min() > 0.0
    assert np.all(np.isfinite(w))


# ---------------------------------------------------------------------------
# forward marches


def test_fokker_planck_mass_per_step(rng):
    g = Grid(dim=1, half_width=10.0, nx=201, nt=50, horizon=0.5)
    mu0 = _gaussian(g)
    b = rng.standard_normal((g.nt + 1, 1, g.n_nodes))
    mu = solve_fokker_planck(mu0, b, g).values
    masses = np.array([integrate(mu[n], g) for n in range(g.nt + 1)])
    assert np.abs(np.diff(masses)).max() < 1e-13


def test_fokker_planck_positivity(rng):
    g = Grid(dim=1, half_width=10.0, nx=101, nt=40, horizon=1.0)
    mu0 = _gaussian(g, std=0.5)
    b = 3.0 * rng.standard_normal((g.nt + 1, 1, g.n_nodes))
    mu = solve_fokker_planck(mu0, b, g).values
    assert mu.min() >= 0.0


def test_fokker_planck_constant_drift_mean():
    # mu_t = mu_xx - kappa mu_x carries the mean at speed kappa
    kappa = 0.3
    g = Grid(dim=1, half_width=12.0, nx=385, nt=400, horizon=1.0)
    mu0 = _gaussian(g)
    b = np.full((g.nt + 1, 1, g.n_nodes), kappa)
    mu = solve_fokker_planck(mu0, b, g).values
    mean_T = integrate(g.axis * mu[-1], g) / integrate(mu[-1], g)
    assert abs(mean_T - kappa * 1.0) < 2e-3


def test_fokker_planck_zero_drift_matches_kernel():
    g = Grid(dim=1, half_width=12.0, nx=257, nt=1500, horizon=0.1)
    mu0 = _gaussian(g, std=1.5)
    b = np.zeros((g.nt + 1, 1, g.n_nodes))
    mu = solve_fokker_planck(mu0, b, g).values
    exact = heat_kernel_convolve(mu0, 0.1, g)
    assert np.abs(mu[-1] - exact).max() <= 1e-4


def test_fokker_planck_2d_invariants(rng):
    g = Grid(dim=2, half_width=6.0, nx=33, nt=20, horizon=0.2)
    mu0 = _gaussian(g, std=0.8)
    mu0 /= integrate(mu0, g)
    b = 0.5 * rng.standard_normal((g.nt + 1, 2, g.n_nodes))
    mu = solve_fokker_planck(mu0, b, g).values
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
    """Solve every line of f along axis with its own scipy.linalg.solve_banded call."""
    out = f.copy()
    lines = np.moveaxis(out, axis, 0)
    for line in np.ndindex(lines.shape[1:]):
        idx = (slice(None),) + line
        lines[idx] = scipy_solve_banded((1, 1), band_of_line(idx), lines[idx], check_finite=False)
    return out


def _heat_band(nx, r, coefficient=0.0):
    """(1, 1) bands of I - r*dx^2*Lap - coefficient on one line, Neumann ghost rows."""
    ab = np.zeros((3, nx))
    ab[1] = 1.0 + 2.0 * r
    ab[1] -= coefficient
    ab[0, 1:] = -r
    ab[2, :-1] = -r
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


def _per_line_heat(w_T, c, g, scheme):
    half = scheme == "crank_nicolson"
    theta = 0.5 if half else 1.0
    r = theta * g.dt / g.dx**2
    shape = (g.nx,) * g.dim
    w = np.empty((g.nt + 1, g.n_nodes))
    w[-1] = w_T
    for j in range(g.nt - 1, -1, -1):
        cur = w[j + 1].reshape(shape)
        if half:
            cur = cur + r * second_difference(cur) + 0.5 * g.dt * c[j + 1].reshape(shape) * cur
        cj = theta * g.dt * c[j].reshape(shape)
        cur = _solve_each_line(cur, 0, lambda idx: _heat_band(g.nx, r, cj[idx]))
        if g.dim == 2:
            if half:
                cur = cur + r * second_difference(cur, 1)
            cur = _solve_each_line(cur, 1, lambda idx: _heat_band(g.nx, r))
        w[j] = cur.ravel()
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
                cur = cur - dt * _flux_divergence_axis(b[n - 1, axis], cur, g, axis, diffusion=True)
            b_new = np.moveaxis(b[n, axis], axis, 0)
            cur = _solve_each_line(cur, axis, lambda idx: _fp_band(b_new[idx], g, dt))
        mu[n] = np.maximum(cur.ravel(), 0.0)
    return mu


@pytest.mark.parametrize("scheme", ["implicit_euler", "crank_nicolson"])
@pytest.mark.parametrize("dim", [1, 2])
def test_line_sweep_matches_per_line_solves(dim, scheme, rng):
    # nt = 6 fits in one block of time levels; the longer march spans several
    for nt, min_blocks in ((6, 1), ({1: 500, 2: 40}[dim], 3)):
        g = Grid(dim=dim, half_width=6.0, nx=17, nt=nt, horizon=0.05 * nt)
        assert len(list(_level_blocks(nt, g.n_nodes))) >= min_blocks
        c = 2.0 * rng.standard_normal((g.nt + 1, g.n_nodes))
        w_T = _gaussian(g, std=1.5) + 0.1
        w = solve_backward_heat(w_T, c, g, scheme=scheme).values
        assert np.array_equal(w, _per_line_heat(w_T, c, g, scheme))

        b = 0.5 * rng.standard_normal((g.nt + 1, dim, g.n_nodes))
        mu0 = _gaussian(g)
        mu = solve_fokker_planck(mu0, b, g, scheme=scheme).values
        assert np.array_equal(mu, _per_line_fokker_planck(mu0, b, g, scheme))


def _kernel_rows_per_march(dim, monkeypatch, rng):
    """Rows of every kernel call made by one heat and one FP march."""
    g = Grid(dim=dim, half_width=6.0, nx=17, nt=5, horizon=0.2)
    kernel = parabolic.solve_banded
    rows = []

    def counting(ab, rhs):
        rows.append(rhs.size)
        return kernel(ab, rhs)

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


def test_line_sweep_kernel_rejects_singular_line():
    ab = np.zeros((3, 2, 5))
    ab[1] = 1.0
    ab[1, 1, 2] = 0.0  # a zero row in the second line only
    with pytest.raises(LinAlgError):
        parabolic.solve_banded(ab, np.ones((2, 5)))


@settings(max_examples=200, deadline=None)
@given(levels=st.integers(1, 3000), rows_per_level=st.integers(1, 20000))
def test_level_blocks_cover_levels_in_order(levels, rows_per_level):
    blocks = list(_level_blocks(levels, rows_per_level))
    assert blocks[0][0] == 0 and blocks[-1][1] == levels
    for (lo, hi), (next_lo, _) in zip(blocks, blocks[1:]):
        assert hi == next_lo
    for lo, hi in blocks:
        assert hi > lo
        assert (hi - lo) * rows_per_level <= _BLOCK_ROWS or hi - lo == 1


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
