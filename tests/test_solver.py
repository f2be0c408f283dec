import weakref

import numpy as np
import pytest

from aggmfg import solver as solver_module
from aggmfg import (
    SolverConfig,
    SpaceTimeField,
    TerminalCostSpec,
    hopf_cole,
    inverse_hopf_cole,
    nonexistence_horizon,
    picard_map,
    self_consistency_residual,
    solve,
    solve_fokker_planck,
)
from aggmfg.diagnostics import compute_e0
from aggmfg.discretization import (
    Grid,
    _level_blocks,
    flux_divergence,
    gradient,
    integrate,
    integrate_space_time,
    laplacian,
)
from aggmfg.parabolic import SCHEMES
from aggmfg.problem import eval_coupling, sample_on_grid
from aggmfg.solver import _interior_mask
from tests.conftest import gaussian_problem, three_block_levels


def test_hopf_cole_roundtrip(rng):
    u = rng.standard_normal((4, 33))
    assert np.allclose(inverse_hopf_cole(hopf_cole(u)), u, atol=1e-12)


def test_inverse_hopf_cole_rejects_nonpositive():
    with pytest.raises(ValueError):
        inverse_hopf_cole(np.array([1.0, 0.0, 2.0]))


def test_picard_map_is_identity_when_decoupled(grid_1d):
    # sigma = 0 severs the feedback: the map output cannot depend on the
    # density that was fed in, so two sweeps agree bitwise
    p = gaussian_problem(sigma=0.0)
    fields = sample_on_grid(p, grid_1d)
    guess = np.tile(fields.m0, (grid_1d.nt + 1, 1))
    w1, mu1 = picard_map(guess, p, grid_1d, fields=fields)
    w2, mu2 = picard_map(mu1.values, p, grid_1d, fields=fields)
    assert np.array_equal(w1.values, w2.values)
    assert np.array_equal(mu1.values, mu2.values)


def test_picard_map_releases_the_heat_coefficient_before_the_density_march(
    grid_2d, monkeypatch
):
    heat, fp = solver_module.solve_backward_heat, solver_module.solve_fokker_planck
    coefficient = []
    alive = []

    def recording_heat(terminal, c, grid, **kwargs):
        coefficient.append(weakref.ref(c))
        return heat(terminal, c, grid, **kwargs)

    def checking_fp(*args, **kwargs):
        alive.append(coefficient[-1]() is not None)
        return fp(*args, **kwargs)

    monkeypatch.setattr(solver_module, "solve_backward_heat", recording_heat)
    monkeypatch.setattr(solver_module, "solve_fokker_planck", checking_fp)
    p = gaussian_problem(sigma=1.0, dim=2, horizon=grid_2d.horizon)
    fields = sample_on_grid(p, grid_2d)
    picard_map(np.tile(fields.m0, (grid_2d.nt + 1, 1)), p, grid_2d, fields=fields)
    assert alive == [False]


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("dim,nx", [(1, 17), (2, 9)])
def test_picard_map_forms_the_drift_one_block_at_a_time(dim, nx, scheme, monkeypatch):
    g = Grid(dim=dim, half_width=4.0, nx=nx, nt=three_block_levels(nx**dim), horizon=1.0)
    blocks = list(_level_blocks(g.nt, g.n_nodes))
    assert len(blocks) == 3
    drift = solver_module._BlockDrift.__getitem__
    formed = []

    def recording(self, levels):
        formed.append(range(*levels.indices(g.nt + 1)))
        return drift(self, levels)

    monkeypatch.setattr(solver_module._BlockDrift, "__getitem__", recording)
    p = gaussian_problem(sigma=1.0, dim=dim)
    fields = sample_on_grid(p, g)
    w, mu = picard_map(np.tile(fields.m0, (g.nt + 1, 1)), p, g, fields=fields, scheme=scheme)
    # every call stays inside one block: its levels, and under
    # Crank-Nicolson also the level the block steps from
    assert all(any(lo <= r.start and r.stop <= hi + 1 for lo, hi in blocks) for r in formed)
    levels = sorted(n for r in formed for n in r)
    if scheme == "implicit_euler":
        assert levels == list(range(1, g.nt + 1))
    else:
        assert len(formed) == len(blocks) and sorted(set(levels)) == list(range(g.nt + 1))
    # the per-block drifts give the march the bits of the whole trajectory's
    whole = drift(solver_module._BlockDrift(w.values, g), slice(None))
    assert np.array_equal(mu.values, solve_fokker_planck(fields.m0, whole, g, scheme=scheme).values)


def test_solve_frees_each_maps_dead_fields(grid_1d, monkeypatch):
    mapping, heat = solver_module.picard_map, solver_module.solve_backward_heat
    residual = solver_module.self_consistency_residual
    maps = []
    alive = []

    def recording_map(*args, **kwargs):
        w, mu = mapping(*args, **kwargs)
        maps.append((weakref.ref(w.values), weakref.ref(mu.values)))
        return w, mu

    def checking_heat(*args, **kwargs):
        if maps:  # the last map's w and mu, as the next map's heat march starts
            alive.append([ref() is not None for ref in maps[-1]])
        return heat(*args, **kwargs)

    def checking_residual(*args, **kwargs):
        # the last map's w becomes the outcome's; its mu is dead
        alive.append([ref() is not None for ref in maps[-1]])
        return residual(*args, **kwargs)

    monkeypatch.setattr(solver_module, "picard_map", recording_map)
    monkeypatch.setattr(solver_module, "solve_backward_heat", checking_heat)
    monkeypatch.setattr(solver_module, "self_consistency_residual", checking_residual)
    out = solve(gaussian_problem(sigma=0.05), grid_1d, SolverConfig(damping=0.5))
    assert out.converged and out.iterations >= 3
    assert alive == [[False, False]] * (out.iterations - 1) + [[True, False]]


def test_solve_decoupled_single_iteration(grid_1d):
    out = solve(gaussian_problem(sigma=0.0), grid_1d, SolverConfig(damping=1.0))
    assert out.converged
    assert out.iterations <= 2
    # feedback severed: the residual is pure roundoff, not discretization
    assert out.residual_history[-1] < 1e-20


def test_solve_decoupled_self_consistency(grid_1d):
    out = solve(gaussian_problem(sigma=0.0), grid_1d, SolverConfig(damping=1.0))
    assert out.resolve_residual <= 1e-10


def _resolve_by_march(out, p, g):
    """|mu - m| / |m| for mu the density march driven by -grad u, re-solved."""
    b = gradient(out.u.values, g)
    np.negative(b, out=b)
    mu = solve_fokker_planck(sample_on_grid(p, g).m0, b, g).values
    m = out.m.values
    return integrate_space_time(np.abs(mu - m), g) / integrate_space_time(np.abs(m), g)


@pytest.mark.parametrize("dim,nx,nt,sigma,damping", [
    (1, 65, 60, 14.0, 0.8),
    (2, 33, 20, 1.0, 0.5),
    (1, 129, 128, 0.05, 1.0),
])
def test_resolve_residual_matches_a_density_re_solve(dim, nx, nt, sigma, damping):
    # the last map's density, marched again from -grad u, is the density
    # the residual is computed from without that march
    g = Grid(dim=dim, half_width=12.0 if dim == 1 else 8.0, nx=nx, nt=nt, horizon=1.0)
    p = gaussian_problem(sigma=sigma, dim=dim)
    out = solve(p, g, SolverConfig(damping=damping, tol=1e-7))
    assert out.converged
    expected = _resolve_by_march(out, p, g)
    if damping == 1.0:
        assert out.resolve_residual == expected == 0.0
    else:
        assert 0.0 < expected <= 1e-6
        assert out.resolve_residual == pytest.approx(expected, rel=1e-9, abs=0.0)


SOLVED = ("u", "m", "w", "hjb_residual", "fp_residual", "resolve_residual")


def _assert_stop(out, verdict, iterations, note, d_final):
    """The outcome of a stop: its verdict, count, note and d_final, and the
    solution fields, which only a converged solve carries."""
    assert (out.verdict, out.iterations, out.note) == (verdict, iterations, note)
    assert len(out.d_history) == len(out.residual_history)
    if np.isnan(d_final):
        assert np.isnan(out.d_final)
    else:
        assert out.d_final == d_final
    assert [getattr(out, name) is None for name in SOLVED] == [not out.converged] * len(SOLVED)


def test_solve_small_coupling_converges(grid_1d):
    out = solve(gaussian_problem(sigma=0.05), grid_1d, SolverConfig(damping=0.5))
    # frozen regression: this configuration has always taken 15 sweeps
    _assert_stop(out, "converged", 15, "", out.d_history[-1])
    assert len(out.d_history) == 15 and out.residual_history[-1] <= 1e-8
    assert out.m.values.min() >= 0.0
    assert out.w.values.min() > 0.0


def test_solve_damping_independent_fixed_point(grid_1d):
    p = gaussian_problem(sigma=0.05)
    full = solve(p, grid_1d, SolverConfig(damping=1.0, tol=1e-10))
    half = solve(p, grid_1d, SolverConfig(damping=0.5, tol=1e-10))
    assert full.converged and half.converged
    gap = integrate(np.abs(full.m.values[-1] - half.m.values[-1]), grid_1d)
    assert gap < 1e-8


def test_solve_residuals_eventually_monotone(grid_1d):
    out = solve(gaussian_problem(sigma=0.05), grid_1d, SolverConfig(damping=0.5))
    tail = out.residual_history[3:]
    assert all(b <= a for a, b in zip(tail, tail[1:]))


def test_solve_initial_guess_policies_agree(grid_1d):
    p = gaussian_problem(sigma=0.05)
    heat = solve(p, grid_1d, SolverConfig(damping=0.5, initial_guess="heat_flow"))
    frozen = solve(p, grid_1d, SolverConfig(damping=0.5, initial_guess="frozen"))
    assert heat.converged and frozen.converged
    gap = integrate(np.abs(heat.m.values[-1] - frozen.m.values[-1]), grid_1d)
    assert gap < 1e-6


def test_solve_pde_residuals_shrink_under_refinement():
    p = gaussian_problem(sigma=0.05)
    res = []
    for nx in (65, 129, 257):
        g = Grid(dim=1, half_width=12.0, nx=nx, nt=nx - 1, horizon=1.0)
        out = solve(p, g, SolverConfig(damping=0.5, tol=1e-10))
        assert out.converged
        res.append(max(out.hjb_residual, out.fp_residual))
    assert res[2] < res[0]
    slope = np.polyfit(np.log([65, 129, 257]), np.log(res), 1)[0]
    assert slope < -0.8


def test_solve_detects_blowup():
    # far past the certified horizon: the coupling mass must run away
    sigma = 49.0
    p = gaussian_problem(sigma=sigma, alpha=2.0, horizon=1.0)
    g = Grid(dim=1, half_width=12.0, nx=129, nt=128, horizon=1.0)
    e0 = compute_e0(p, g)
    t_star = nonexistence_horizon(e0, 1.0, dim=1)
    horizon = 2.0 * t_star
    p2 = gaussian_problem(sigma=sigma, alpha=2.0, horizon=horizon)
    g2 = Grid(dim=1, half_width=12.0, nx=129, nt=max(128, int(128 * horizon)), horizon=horizon)
    out = solve(p2, g2, SolverConfig(damping=0.8, max_iter=150, d_cap=1e6))
    assert not out.converged
    assert out.verdict in ("diverged", "max_iterations")
    if out.verdict == "diverged":
        assert out.d_final > 1e6 or not np.isfinite(out.d_final)


def test_solve_iteration_budget_verdict(grid_1d):
    out = solve(gaussian_problem(sigma=0.05), grid_1d, SolverConfig(damping=0.5, tol=1e-15, max_iter=3))
    _assert_stop(out, "max_iterations", 3, "iteration budget exhausted", out.d_history[-1])
    assert len(out.d_history) == 3


def test_solve_exit_step_limit():
    # the second map's coupling is too stiff for dt: dt * max(c) >= 1
    g = Grid(dim=1, half_width=6.0, nx=17, nt=8, horizon=1.0)
    out = solve(gaussian_problem(sigma=100.0), g, SolverConfig())
    note = "linear march failed: dt * max(c) >= 1: time step too large for the coefficient"
    _assert_stop(out, "diverged", 2, note, np.inf)
    assert len(out.d_history) == 1


def test_solve_exit_positivity_error():
    # Crank-Nicolson's explicit half at dt / dx^2 = 3.6 turns the peak of
    # w = exp(-u(T)/2) under a narrow negative terminal cost negative
    g = Grid(dim=1, half_width=6.0, nx=65, nt=8, horizon=1.0)
    terminal = TerminalCostSpec(family="gaussian", amplitude=-5.0, width=0.05)
    p = gaussian_problem(sigma=0.5, terminal=terminal)
    out = solve(p, g, SolverConfig(time_scheme="crank_nicolson"))
    note = "linear march failed: value field lost positivity at time level 7 (min -2.323e+00)"
    _assert_stop(out, "diverged", 1, note, np.inf)
    assert out.d_history == []


def test_solve_exit_blow_up_monitor():
    g = Grid(dim=1, half_width=6.0, nx=17, nt=8, horizon=1.0)
    out = solve(gaussian_problem(sigma=0.5), g, SolverConfig(d_cap=1e-3))
    _assert_stop(out, "diverged", 1, "blow-up monitor exceeded", out.d_history[-1])
    assert 1e-3 < out.d_final < np.inf


def test_solve_exit_non_finite_iterate(grid_1d, monkeypatch):
    mapping = solver_module.picard_map
    calls = []

    def poisoned_map(*args, **kwargs):
        w, mu = mapping(*args, **kwargs)
        calls.append(None)
        if len(calls) == 2:
            mu.values[3, 40] = np.nan
        return w, mu

    monkeypatch.setattr(solver_module, "picard_map", poisoned_map)
    out = solve(gaussian_problem(sigma=0.05), grid_1d, SolverConfig(damping=0.5))
    _assert_stop(out, "diverged", 2, "non-finite iterate", np.nan)
    assert np.isfinite(out.d_history[0]) and np.isnan(out.residual_history[-1])


def test_solve_horizon_mismatch_raises(grid_1d):
    with pytest.raises(ValueError):
        solve(gaussian_problem(horizon=2.0), grid_1d)


def test_self_consistency_residual_matches_outcome(grid_1d):
    p = gaussian_problem(sigma=0.05)
    out = solve(p, grid_1d, SolverConfig(damping=0.5))
    hjb, fp = self_consistency_residual(out.u, out.m, p, grid_1d)
    assert hjb == out.hjb_residual
    assert fp == out.fp_residual
    assert fp < 1e-6  # damped iterate: the march residual sits near tol


def _per_level_residual(uv, mv, p, g):
    """Both self-consistency residuals, one time level per stencil call."""
    v = sample_on_grid(p, g).v
    w_int = g.weights * _interior_mask(g)
    hjb = fp = 0.0
    for j in range(g.nt):
        gu = gradient(uv[j], g)
        f_j, _, _ = eval_coupling(p.coupling, np.maximum(mv[j], 0.0))
        du = -(uv[j + 1] - uv[j]) / g.dt
        r = du - laplacian(uv[j], g) + 0.5 * np.sum(gu**2, axis=0) + f_j - v
        hjb += float(np.dot(w_int, np.abs(r))) * g.dt
    for j in range(1, g.nt + 1):
        b = -gradient(uv[j], g)
        r = (mv[j] - mv[j - 1]) / g.dt + flux_divergence(b, mv[j], g)
        fp += float(np.dot(w_int, np.abs(r))) * g.dt
    return hjb, fp


@pytest.mark.parametrize("dim,nx", [(1, 17), (2, 9)])
def test_blocked_residual_matches_per_level_loop(dim, nx, rng):
    g = Grid(dim=dim, half_width=4.0, nx=nx, nt=three_block_levels(nx**dim), horizon=1.0)
    assert len(list(_level_blocks(g.nt, g.n_nodes))) >= 3
    p = gaussian_problem(sigma=3.0, dim=dim)
    u = rng.standard_normal((g.nt + 1, g.n_nodes))
    m = rng.random((g.nt + 1, g.n_nodes)) - 0.1  # some negatives, which the coupling clips
    got = self_consistency_residual(SpaceTimeField(u, g), SpaceTimeField(m, g), p, g)
    assert got == _per_level_residual(u, m, p, g)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(damping=0.0)
    with pytest.raises(ValueError):
        SolverConfig(damping=1.5)
    with pytest.raises(ValueError):
        SolverConfig(tol=-1e-8)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)
    with pytest.raises(ValueError):
        SolverConfig(initial_guess="random")


def test_solve_2d_decoupled():
    g = Grid(dim=2, half_width=8.0, nx=65, nt=32, horizon=0.5)
    p = gaussian_problem(sigma=0.0, dim=2, horizon=0.5)
    out = solve(p, g, SolverConfig(damping=1.0))
    assert out.converged
    assert out.iterations <= 2
    masses = [integrate(out.m.values[n], g) for n in range(g.nt + 1)]
    assert np.abs(np.diff(masses)).max() < 1e-13


def test_solve_2d_coupled_with_potential():
    from aggmfg import PotentialSpec

    g = Grid(dim=2, half_width=8.0, nx=49, nt=24, horizon=0.5)
    well = PotentialSpec(family="gaussian_well", amplitude=-1.0, width=1.5, center=(0.0, 0.0))
    p = gaussian_problem(sigma=0.5, dim=2, horizon=0.5, potential=well)
    out = solve(p, g, SolverConfig(damping=0.5))
    assert out.converged
    assert out.m.values.min() >= 0.0
    assert out.w.values.min() > 0.0


@pytest.mark.parametrize("alpha", [0.5, 1.3, 2.0])
def test_damped_update_matches_the_plain_expressions(alpha, rng):
    # the update and its monitors are formed in the fresh density's buffer
    # and must keep the bits of the expressions that allocate (alpha 0.5
    # gives the power 2, which numpy computes as a square)
    g = Grid(dim=1, half_width=6.0, nx=33, nt=12, horizon=0.5)
    p = gaussian_problem(sigma=1.0, alpha=alpha, horizon=0.5)
    m = rng.standard_normal((g.nt + 1, g.n_nodes))  # negative nodes are clipped
    mu = rng.random((g.nt + 1, g.n_nodes))
    den = integrate_space_time(np.abs(m), g)
    m_new, res, d_val, next_den = solver_module._damped_update(m, mu.copy(), 0.8, den, p, g)
    expected = (1.0 - 0.8) * m + 0.8 * mu
    assert np.array_equal(m_new, expected)
    assert res == integrate_space_time(np.abs(expected - m), g) / den
    assert d_val == integrate_space_time(np.maximum(expected, 0.0) ** (2.0 * alpha + 1.0), g)
    assert next_den == integrate_space_time(np.abs(expected), g)
