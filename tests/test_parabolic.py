import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError
from scipy.linalg import solve_banded as scipy_solve_banded

from aggmfg import discretization, parabolic
from aggmfg import (
    GaussianMixture,
    HeatKernelQuery,
    KernelNormDivergenceError,
    PositivityError,
    SchemeViolationError,
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
from tests.conftest import three_block_levels


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
            ab = parabolic._fp_bands(b, g, g.dt)
        expected = np.empty_like(ab)
        for idx in np.ndindex(b.shape[:-1]):
            expected[(slice(None),) + idx] = _fp_band(b[idx], g, g.dt)
        assert np.array_equal(ab, expected)


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
        w = solve_backward_heat(w_T, c, g, scheme=scheme).values
        assert np.array_equal(w, _per_line_heat(w_T, c, g, scheme))

        b = 0.5 * rng.standard_normal((g.nt + 1, dim, g.n_nodes))
        mu0 = _gaussian(g)
        mu = solve_fokker_planck(mu0, b, g, scheme=scheme).values
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


def test_line_sweep_kernel_rejects_singular_line():
    ab = np.zeros((3, 2, 5))
    ab[1] = 1.0
    ab[1, 1, 2] = 0.0  # a zero row in the second line only
    with pytest.raises(LinAlgError):
        parabolic.solve_banded(*_stacked_diagonals(ab), np.ones(10))


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
    clean = solve_fokker_planck(mu0, b, g).values
    calls = _inject_after_kernel(monkeypatch, {9: -1e-14})  # call 9 solves level 10
    mu = solve_fokker_planck(mu0, b, g).values
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
    clean = solve_fokker_planck(mu0, b, g).values
    # two calls per level, axis 0 into scratch and then axis 1 into the
    # level itself: call 3 is the axis-1 solve of level 2
    calls = _inject_after_kernel(monkeypatch, {3: -1e-14})
    mu = solve_fokker_planck(mu0, b, g).values
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
