import tracemalloc
import weakref

import numpy as np
import pytest

from aggmfg import solver as solver_module
from aggmfg import (
    SolverConfig,
    TerminalCostSpec,
    hopf_cole,
    inverse_hopf_cole,
    nonexistence_horizon,
    picard_map,
    self_consistency_residual,
    solve,
    solve_fokker_planck,
)
from aggmfg.diagnostics import compute_e0, e0_terms
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
from aggmfg.problem import sample_on_grid
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
    w2, mu2 = picard_map(mu1, p, grid_1d, fields=fields)
    assert np.array_equal(w1, w2)
    assert np.array_equal(mu1, mu2)


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
def test_picard_map_forms_the_potential_one_block_at_a_time(dim, nx, scheme, monkeypatch):
    g = Grid(dim=dim, half_width=4.0, nx=nx, nt=three_block_levels(nx**dim), horizon=1.0)
    blocks = list(_level_blocks(g.nt, g.n_nodes))
    assert len(blocks) == 3
    potential = solver_module._BlockPotential.__getitem__
    formed = []

    def recording(self, levels):
        formed.append(range(*levels.indices(g.nt + 1)))
        return potential(self, levels)

    monkeypatch.setattr(solver_module._BlockPotential, "__getitem__", recording)
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
    # the per-block potentials give the march the bits of the whole trajectory's
    whole = potential(solver_module._BlockPotential(w), slice(None))
    assert np.array_equal(whole, 2.0 * np.log(w))
    assert np.array_equal(mu, solve_fokker_planck(fields.m0, whole, g, scheme=scheme))


def test_solve_frees_each_maps_dead_fields(grid_1d, monkeypatch):
    # each map's mu lives on as the next iterate; its w and the spent
    # iterate it was fed hold no data the next map reads, so they are the
    # buffers that map writes into: w into the last w, and the heat
    # coefficient (then mu) into the spent iterate
    mapping, heat = solver_module.picard_map, solver_module.solve_backward_heat
    maps = []
    fed = []
    reused = []

    def recording_map(m, *args, **kwargs):
        if maps:  # the last map's mu is this map's iterate
            fed.append(maps[-1][2]() is m)
        w, mu = mapping(m, *args, **kwargs)
        maps.append([weakref.ref(m), weakref.ref(w), weakref.ref(mu)])
        return w, mu

    def checking_heat(terminal, c, grid, **kwargs):
        if maps:  # the last map's m and w, as the next map's heat march starts
            m, w = maps[-1][0](), maps[-1][1]()
            reused.append([c is m, kwargs["out"] is w])
        return heat(terminal, c, grid, **kwargs)

    monkeypatch.setattr(solver_module, "picard_map", recording_map)
    monkeypatch.setattr(solver_module, "solve_backward_heat", checking_heat)
    out = solve(gaussian_problem(sigma=0.05), grid_1d, SolverConfig(damping=0.5))
    assert out.converged and out.iterations >= 3
    assert fed == [True] * (out.iterations - 1)
    assert reused == [[True, True]] * (out.iterations - 1)
    # the last map's w and mu become the outcome's; its m is dead
    assert [ref() is not None for ref in maps[-1]] == [False, True, True]
    assert maps[-1][2]() is out.m
    assert maps[-1][1]() is out.w


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
    phi = -inverse_hopf_cole(out.w)
    mu = solve_fokker_planck(sample_on_grid(p, g).m0, phi, g)
    m = out.m
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


SOLVED = ("m", "w", "resolve_residual")


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
    assert out.m.min() >= 0.0
    assert out.w.min() > 0.0


def test_solve_damping_independent_fixed_point(grid_1d):
    p = gaussian_problem(sigma=0.05)
    full = solve(p, grid_1d, SolverConfig(damping=1.0, tol=1e-10))
    half = solve(p, grid_1d, SolverConfig(damping=0.5, tol=1e-10))
    assert full.converged and half.converged
    gap = integrate(np.abs(full.m[-1] - half.m[-1]), grid_1d)
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
    gap = integrate(np.abs(heat.m[-1] - frozen.m[-1]), grid_1d)
    assert gap < 1e-6


def test_solve_pde_residuals_shrink_under_refinement():
    p = gaussian_problem(sigma=0.05)
    res = []
    for nx in (65, 129, 257):
        g = Grid(dim=1, half_width=12.0, nx=nx, nt=nx - 1, horizon=1.0)
        out = solve(p, g, SolverConfig(damping=0.5, tol=1e-10))
        assert out.converged
        res.append(max(self_consistency_residual(
            inverse_hopf_cole(out.w), out.m, p, g, sample_on_grid(p, g)
        )))
    assert res[2] < res[0]
    slope = np.polyfit(np.log([65, 129, 257]), np.log(res), 1)[0]
    assert slope < -0.8


def test_solve_detects_blowup():
    # far past the certified horizon: the coupling mass must run away
    sigma = 49.0
    p = gaussian_problem(sigma=sigma, alpha=2.0, horizon=1.0)
    g = Grid(dim=1, half_width=12.0, nx=129, nt=128, horizon=1.0)
    e0 = compute_e0(e0_terms(p, g, sample_on_grid(p, g)))
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


def test_solve_exit_lapack_refusal_in_the_initial_guess():
    # at horizon 1e20 the heat-flow guess's density march has a line LAPACK
    # finds singular: the solve stops before its first map
    g = Grid(dim=1, half_width=8.0, nx=33, nt=20, horizon=1e20)
    out = solve(gaussian_problem(sigma=1.0, horizon=1e20), g, SolverConfig())
    _assert_stop(out, "diverged", 0, "linear march failed: singular matrix", np.inf)
    assert out.d_history == []


def test_solve_exit_blow_up_monitor():
    g = Grid(dim=1, half_width=6.0, nx=17, nt=8, horizon=1.0)
    out = solve(gaussian_problem(sigma=0.5), g, SolverConfig(d_cap=1e-3))
    _assert_stop(out, "diverged", 1, "blow-up monitor exceeded", out.d_history[-1])
    assert 1e-3 < out.d_final < np.inf


@pytest.mark.parametrize("poison,residual", [(np.nan, np.nan), (-np.inf, np.inf)])
def test_solve_exit_non_finite_iterate(poison, residual, grid_1d, monkeypatch):
    mapping = solver_module.picard_map
    calls = []

    def poisoned_map(*args, **kwargs):
        w, mu = mapping(*args, **kwargs)
        calls.append(None)
        if len(calls) == 2:
            mu[3, 40] = poison
        return w, mu

    monkeypatch.setattr(solver_module, "picard_map", poisoned_map)
    cfg = SolverConfig(damping=0.5)
    out = solve(gaussian_problem(sigma=0.05), grid_1d, cfg)
    # a NaN node reaches D; a -inf node is clipped out of D, which stays
    # finite and below d_cap, while the relative change is inf
    _assert_stop(out, "diverged", 2, "non-finite iterate", out.d_history[-1])
    assert np.isnan(out.d_final) == np.isnan(poison) and not out.d_final > cfg.d_cap
    assert np.isfinite(out.d_history[0])
    assert np.array_equal(out.residual_history[-1], residual, equal_nan=True)


def test_solve_horizon_mismatch_raises(grid_1d):
    with pytest.raises(ValueError):
        solve(gaussian_problem(horizon=2.0), grid_1d)


def _per_level_residual(uv, mv, p, g):
    """Both self-consistency residuals, one time level per stencil call."""
    v = sample_on_grid(p, g).v
    w_int = g.weights * _interior_mask(g)
    hjb = fp = 0.0
    for j in range(g.nt):
        gu = gradient(uv[j], g)
        f_j = p.coupling.f(mv[j])
        du = -(uv[j + 1] - uv[j]) / g.dt
        r = du - laplacian(uv[j], g) + 0.5 * np.sum(gu**2, axis=0) + f_j - v
        hjb += float(np.dot(w_int, np.abs(r))) * g.dt
    for j in range(1, g.nt + 1):
        r = (mv[j] - mv[j - 1]) / g.dt + flux_divergence(-uv[j], mv[j], g)
        fp += float(np.dot(w_int, np.abs(r))) * g.dt
    return hjb, fp


@pytest.mark.parametrize("dim,nx", [(1, 17), (2, 9)])
def test_blocked_residual_matches_per_level_loop(dim, nx, rng):
    g = Grid(dim=dim, half_width=4.0, nx=nx, nt=three_block_levels(nx**dim), horizon=1.0)
    assert len(list(_level_blocks(g.nt, g.n_nodes))) >= 3
    p = gaussian_problem(sigma=3.0, dim=dim)
    u = rng.standard_normal((g.nt + 1, g.n_nodes))
    m = rng.random((g.nt + 1, g.n_nodes)) - 0.1  # some negatives, which the coupling clips
    got = self_consistency_residual(u, m, p, g, sample_on_grid(p, g))
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
        SolverConfig(max_iter=2.5)
    with pytest.raises(ValueError):
        SolverConfig(time_scheme="rk4")
    with pytest.raises(ValueError):
        SolverConfig(initial_guess="random")
    # an infinite tol once stopped the first iteration as converged
    with pytest.raises(ValueError):
        SolverConfig(tol=float("inf"))
    with pytest.raises(ValueError):
        SolverConfig(d_cap=float("inf"))


def test_solve_2d_decoupled():
    g = Grid(dim=2, half_width=8.0, nx=65, nt=32, horizon=0.5)
    p = gaussian_problem(sigma=0.0, dim=2, horizon=0.5)
    out = solve(p, g, SolverConfig(damping=1.0))
    assert out.converged
    assert out.iterations <= 2
    masses = [integrate(out.m[n], g) for n in range(g.nt + 1)]
    assert np.abs(np.diff(masses)).max() < 1e-13


def test_solve_2d_coupled_with_potential():
    from aggmfg import PotentialSpec

    g = Grid(dim=2, half_width=8.0, nx=49, nt=24, horizon=0.5)
    well = PotentialSpec(family="gaussian_well", amplitude=-1.0, width=1.5, center=(0.0, 0.0))
    p = gaussian_problem(sigma=0.5, dim=2, horizon=0.5, potential=well)
    out = solve(p, g, SolverConfig(damping=0.5))
    assert out.converged
    assert out.m.min() >= 0.0
    assert out.w.min() > 0.0


@pytest.mark.parametrize("alpha", [0.5, 1.3, 2.0])
def test_damped_update_matches_the_plain_expressions(alpha, rng):
    # the update and its monitors are formed in the fresh density's buffer,
    # with the spent iterate as scratch, and must keep the bits of the
    # expressions that allocate (alpha 0.5 gives the power 2, which numpy
    # computes as a square, and alpha 2 the power 5, which D forms by
    # repeated squaring); the (1 - damping) m term is added per block
    g = Grid(dim=1, half_width=6.0, nx=33, nt=three_block_levels(33), horizon=0.5)
    assert len(list(_level_blocks(g.nt + 1, g.n_nodes))) == 3
    p = gaussian_problem(sigma=1.0, alpha=alpha, horizon=0.5)
    m = rng.standard_normal((g.nt + 1, g.n_nodes))  # negative nodes are clipped
    mu = rng.random((g.nt + 1, g.n_nodes))
    den = integrate_space_time(np.abs(m), g)
    m_new, res, d_val, next_den = solver_module._damped_update(m.copy(), mu.copy(), 0.8, den, p, g)
    expected = (1.0 - 0.8) * m + 0.8 * mu
    assert np.array_equal(m_new, expected)
    assert res == integrate_space_time(np.abs(expected - m), g) / den
    clipped = np.maximum(expected, 0.0)
    if alpha == 2.0:
        squared = clipped * clipped
        powered = clipped * (squared * squared)
    else:
        powered = clipped ** (2.0 * alpha + 1.0)
    assert d_val == integrate_space_time(powered, g)
    assert next_den == integrate_space_time(np.abs(expected), g)


def test_damped_update_allocates_less_than_half_a_trajectory(rng):
    # the next iterate is built in mu and the spent iterate is the scratch,
    # so the update's own allocations are one block of levels, not a trajectory
    g = Grid(dim=1, half_width=6.0, nx=257, nt=8 * 64 + 9, horizon=1.0)
    assert len(list(_level_blocks(g.nt + 1, g.n_nodes))) >= 8
    p = gaussian_problem(sigma=1.0, alpha=1.3)
    m = rng.random((g.nt + 1, g.n_nodes))
    mu = rng.random((g.nt + 1, g.n_nodes))
    den = integrate_space_time(np.abs(m), g)
    tracemalloc.start()
    try:
        m_new, *_ = solver_module._damped_update(m, mu, 0.5, den, p, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m_new is mu
    assert peak < 0.5 * mu.nbytes
