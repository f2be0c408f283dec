import math

import numpy as np
import pytest

from aggmfg import (
    GaussianMixture,
    SolverConfig,
    compute_apriori,
    compute_e0,
    compute_energy,
    compute_nonexistence_certificate,
    compute_planning_certificate,
    check_moment_identity,
    e0_terms,
    nonexistence_horizon,
    planning_horizon,
    solve,
)
from aggmfg.discretization import Grid, _level_blocks, gradient, integrate, integrate_space_time
from aggmfg.problem import PotentialSpec, coupling_mass, eval_coupling, sample_on_grid
from tests.conftest import gaussian_problem, three_block_levels


def _e0_closed_form(sigma, std=1.0):
    # 1D Gaussian data, cubic coupling, no potential:
    # e0 = -1/(2 s^2) + sigma/(6 pi sqrt(3) s^2)
    return (-0.5 + sigma / (6.0 * math.pi * math.sqrt(3.0))) / std**2


@pytest.mark.parametrize("sigma", [0.0, 0.05, 5.0, 20.0, 30.0])
def test_e0_closed_form(sigma):
    p = gaussian_problem(sigma=sigma, alpha=2.0)
    g = Grid(dim=1, half_width=12.0, nx=257, nt=4, horizon=1.0)
    assert compute_e0(p, g) == pytest.approx(_e0_closed_form(sigma), abs=1e-6)


def test_e0_terms_dilation_scaling():
    # shrinking the data by 2 scales both the Fisher information and the
    # cubic coupling integral by 4
    g = Grid(dim=1, half_width=12.0, nx=513, nt=4, horizon=1.0)
    f1, c1, v1 = e0_terms(gaussian_problem(sigma=10.0, std=1.0), g)
    f2, c2, v2 = e0_terms(gaussian_problem(sigma=10.0, std=0.5), g)
    assert f2 / f1 == pytest.approx(4.0, rel=1e-8)
    assert c2 / c1 == pytest.approx(4.0, rel=1e-8)
    assert v1 == 0.0 and v2 == 0.0


def test_horizon_formulas():
    assert nonexistence_horizon(0.5, 1.0, dim=1) == pytest.approx(2.0)
    assert nonexistence_horizon(0.5, 0.0, dim=2) == pytest.approx(2.0)
    assert planning_horizon(0.5, 1.0, 1.0) == pytest.approx(2.0)
    assert planning_horizon(0.5, 1.0, 4.0) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        nonexistence_horizon(0.0, 1.0, dim=1)
    with pytest.raises(ValueError):
        planning_horizon(-0.1, 1.0, 1.0)


def test_certificate_subcritical_has_no_horizon():
    p = gaussian_problem(sigma=0.05)
    g = Grid(dim=1, half_width=12.0, nx=257, nt=4, horizon=1.0)
    cert = compute_nonexistence_certificate(p, g)
    assert cert.e0 < 0
    assert cert.t_star is None
    assert not cert.applies_at(100.0)


def test_certificate_supercritical_horizon_value():
    sigma = 20.0
    p = gaussian_problem(sigma=sigma)
    g = Grid(dim=1, half_width=12.0, nx=257, nt=4, horizon=1.0)
    cert = compute_nonexistence_certificate(p, g)
    e0 = _e0_closed_form(sigma)
    assert cert.e0 == pytest.approx(e0, abs=1e-6)
    assert cert.h0 == pytest.approx(1.0, abs=1e-8)
    assert cert.t_star == pytest.approx(1.0 / (2 * e0) + math.sqrt(1.0 / (2 * e0)), abs=1e-4)
    assert cert.applies_at(cert.t_star + 0.1)
    assert not cert.applies_at(cert.t_star - 0.1)


def test_certificate_shift_recovers_center():
    # off-center data with no potential: the optimal translation is the mean
    # and the shifted second moment is the centered variance
    p = gaussian_problem(sigma=20.0, mean=3.0)
    g = Grid(dim=1, half_width=12.0, nx=257, nt=4, horizon=1.0)
    plain = compute_nonexistence_certificate(p, g)
    shifted = compute_nonexistence_certificate(p, g, optimize_shift=True)
    assert plain.h0 == pytest.approx(10.0, abs=1e-6)
    assert shifted.shift is not None
    assert shifted.shift[0] == pytest.approx(3.0, abs=g.dx)
    assert shifted.h0 == pytest.approx(1.0, abs=1e-2)
    assert shifted.t_star < plain.t_star


def test_certificate_does_not_shift_a_tabulated_potential():
    # a user_table holds V on the grid nodes only, so no translate of it can
    # be checked: the certificate keeps the unshifted second moment
    g = Grid(dim=1, half_width=12.0, nx=257, nt=4, horizon=1.0)
    x = g.axis
    table = {
        "values": (0.01 * x**2).tolist(),
        "gradient": (0.02 * x).tolist(),
        "laplacian": [0.02] * g.nx,
    }
    tabulated = PotentialSpec(family="user_table", table=table)
    p = gaussian_problem(sigma=30.0, mean=3.0, potential=tabulated)
    plain = compute_nonexistence_certificate(p, g)
    shifted = compute_nonexistence_certificate(p, g, optimize_shift=True)
    assert plain.t_star is not None
    assert shifted.shift is None
    assert "tabulated potential cannot be translated" in shifted.notes
    assert shifted.h0 == plain.h0
    assert shifted.t_star == plain.t_star


def test_certificate_requires_conditions():
    bump = PotentialSpec(family="gaussian_well", amplitude=1.0, width=1.0, center=(0.0,))
    p = gaussian_problem(sigma=20.0, potential=bump)
    g = Grid(dim=1, half_width=12.0, nx=257, nt=4, horizon=1.0)
    cert = compute_nonexistence_certificate(p, g)
    assert not cert.conditions.confining_potential.holds
    assert cert.t_star is None


def test_planning_certificate():
    p = gaussian_problem(sigma=20.0)
    g = Grid(dim=1, half_width=12.0, nx=257, nt=4, horizon=1.0)
    terminal = GaussianMixture(weights=(1.0,), means=((0.0,),), stds=(2.0,))
    cert = compute_planning_certificate(p, g, terminal)
    e0 = _e0_closed_form(20.0)
    assert cert.h_terminal == pytest.approx(4.0, abs=1e-6)
    assert cert.t_hat == pytest.approx(math.sqrt(2.0 * 4.0 / e0), abs=1e-4)
    # no terminal cost enters the prescribed-endpoints problem
    assert "monotone_terminal" not in cert.conditions
    d = cert.as_dict()
    assert d["t_hat"] == cert.t_hat


def test_apriori_exponent_bookkeeping():
    g1 = Grid(dim=1, half_width=12.0, nx=65, nt=4, horizon=1.0)
    p1 = gaussian_problem(sigma=1.0, alpha=2.0)
    m = np.tile(sample_on_grid(p1, g1).m0, (g1.nt + 1, 1))
    rep = compute_apriori(m, p1, g1)
    assert rep.exponent_q == pytest.approx(10.0 / 3.0)
    assert rep.exponent_delta == pytest.approx(1.2)
    assert rep.beta == pytest.approx(1.0)
    assert rep.growth_a == pytest.approx(0.0)

    g2 = Grid(dim=2, half_width=8.0, nx=33, nt=4, horizon=1.0)
    p2 = gaussian_problem(sigma=1.0, alpha=3.0, dim=2)
    m2 = np.tile(sample_on_grid(p2, g2).m0, (g2.nt + 1, 1))
    rep2 = compute_apriori(m2, p2, g2)
    assert rep2.exponent_q == pytest.approx(3.5)
    assert rep2.exponent_delta == pytest.approx(8.0 / 7.0)
    assert rep2.beta == pytest.approx(3.0)
    assert rep2.growth_a == pytest.approx(8.0 / 9.0)

    p3 = gaussian_problem(sigma=1.0, alpha=1.5)
    m3 = np.tile(sample_on_grid(p3, g1).m0, (g1.nt + 1, 1))
    assert compute_apriori(m3, p3, g1).growth_a is None


def test_apriori_d_is_the_solvers_blow_up_monitor(rng):
    g = Grid(dim=1, half_width=6.0, nx=33, nt=8, horizon=1.0)
    p = gaussian_problem(sigma=1.0, alpha=1.3)
    m = rng.standard_normal((g.nt + 1, g.n_nodes))  # negative nodes are clipped
    d_value = compute_apriori(m, p, g).d_value
    assert d_value == coupling_mass(m, p.coupling, g)
    assert d_value == integrate_space_time(np.maximum(m, 0.0) ** (2.0 * 1.3 + 1.0), g)


def test_energy_reduces_to_coupling_for_flat_value():
    # u = 0 kills the cross and kinetic terms; with V = 0 the only survivor
    # is int F(m), which for Gaussian m and cubic coupling is known exactly
    sigma = 6.0
    p = gaussian_problem(sigma=sigma)
    g = Grid(dim=1, half_width=12.0, nx=513, nt=8, horizon=1.0)
    m = np.tile(sample_on_grid(p, g).m0, (g.nt + 1, 1))
    u = np.zeros_like(m)
    rep = compute_energy(u, m, p, g)
    expected = sigma / (6.0 * math.pi * math.sqrt(3.0))
    assert np.allclose(rep.cross, 0.0) and np.allclose(rep.kinetic, 0.0)
    assert np.allclose(rep.potential, 0.0)
    assert rep.total[0] == pytest.approx(expected, rel=1e-8)
    assert rep.drift == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("dim,nx", [(1, 17), (2, 9)])
def test_blocked_energy_and_moments_match_per_level_loop(dim, nx, rng):
    g = Grid(dim=dim, half_width=4.0, nx=nx, nt=three_block_levels(nx**dim), horizon=1.0)
    assert len(list(_level_blocks(g.nt + 1, g.n_nodes))) >= 3
    bump = PotentialSpec(family="gaussian_well", amplitude=0.5, width=1.0, center=(0.0,) * dim)
    p = gaussian_problem(sigma=3.0, dim=dim, potential=bump)
    u = rng.standard_normal((g.nt + 1, g.n_nodes))
    m = rng.random((g.nt + 1, g.n_nodes))
    fields = sample_on_grid(p, g)
    pts = g.coordinates
    gv_dot_x = np.sum(fields.grad_v * pts, axis=0)
    band = np.max(np.abs(pts), axis=0) >= 0.9 * g.half_width
    n = g.dim

    rep = compute_energy(u, m, p, g)
    moments = check_moment_identity(u, m, p, g, energy=rep)
    for j in range(g.nt + 1):
        assert moments.mass[j] == integrate(m[j], g)
        assert moments.tail_mass[j] == integrate(m[j] * band, g)
        assert moments.h[j] == integrate(m[j], g, weight=g.radius_sq)
        assert moments.abs_moment[j] == integrate(m[j], g, weight=g.radius)
        gu, gm = gradient(u[j], g), gradient(m[j], g)
        f, F, _ = eval_coupling(p.coupling, m[j])
        assert rep.cross[j] == integrate(np.sum(gu * gm, axis=0), g)
        assert rep.kinetic[j] == 0.5 * integrate(np.sum(gu**2, axis=0) * m[j], g)
        assert rep.coupling[j] == integrate(F, g)
        assert rep.potential[j] == -integrate(fields.v * m[j], g)
        transport = integrate(m[j] * np.sum(gu * pts, axis=0), g)
        assert moments.rhs_first[j] == 2.0 * n * moments.mass[0] - 2.0 * transport
        assert moments.rhs_second[j] == (
            4.0 * rep.total[j]
            + 2.0 * n * integrate(f * m[j], g)
            - 2.0 * (n + 2.0) * integrate(F, g)
            + 4.0 * integrate(fields.v * m[j], g)
            + 2.0 * integrate(gv_dot_x * m[j], g)
        )


def test_moment_identities_on_decoupled_solve():
    g = Grid(dim=1, half_width=12.0, nx=257, nt=256, horizon=1.0)
    p = gaussian_problem(sigma=0.0)
    out = solve(p, g, SolverConfig(damping=1.0))
    rep = check_moment_identity(out.u, out.m, p, g)
    assert rep.mass_step_drift < 1e-13
    # pure heat flow: h(t) = h(0) + 2t exactly in the continuum
    assert np.abs(rep.h - (rep.h[0] + 2.0 * rep.times)).max() < 1e-4
    assert rep.r1 < 1e-6
    assert rep.tail_mass.max() < 1e-9


def test_moment_identities_on_coupled_solve():
    g = Grid(dim=1, half_width=12.0, nx=257, nt=256, horizon=1.0)
    p = gaussian_problem(sigma=0.05)
    out = solve(p, g, SolverConfig(damping=0.5, tol=1e-10))
    rep = check_moment_identity(out.u, out.m, p, g)
    assert rep.mass_step_drift < 1e-13
    assert rep.r1 < 1e-3
    assert rep.r2 < 1e-2
    assert rep.min_hsecond > 0.0
