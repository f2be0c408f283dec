import math
import tracemalloc

import numpy as np
import pytest

from aggmfg import (
    CouplingSpec,
    GaussianMixture,
    PotentialSpec,
    TerminalCostSpec,
    check_structural_conditions,
    sample_on_grid,
)
from aggmfg.discretization import Grid, _level_blocks, integrate, integrate_space_time
from aggmfg.problem import coupling_mass
from tests.conftest import gaussian_problem


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.3, 2.0, 3.0])
def test_coupling_law_clips_the_density_itself(alpha, rng):
    c = CouplingSpec(sigma=3.0, alpha=alpha)
    nodes = np.array([-1.0, 0.0, 1.0, 2.0])  # a negative node is read as 0
    law = 3.0 * np.array([0.0, 0.0, 1.0, 2.0**alpha])
    antiderivative = 3.0 / (alpha + 1.0) * np.array([0.0, 0.0, 1.0, 2.0 ** (alpha + 1.0)])
    np.testing.assert_allclose(c.f(nodes), law, rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(c.F(nodes), antiderivative, rtol=1e-15, atol=0.0)
    # on signed densities, the bits of clipping first and then applying the law
    m = rng.standard_normal((5, 33))
    clipped = np.maximum(m, 0.0)
    expected_f = 3.0 * clipped**alpha
    assert np.array_equal(c.f(m), expected_f)
    assert np.array_equal(c.F(m), 3.0 * clipped ** (alpha + 1.0) / (alpha + 1.0))
    out = m.copy()
    assert c.f(out, out=out) is out  # the values written over the density
    assert np.array_equal(out, expected_f)


def test_coupling_mass_clips_negative_nodes(rng):
    g = Grid(dim=1, half_width=6.0, nx=33, nt=8, horizon=1.0)
    c = CouplingSpec(sigma=1.0, alpha=1.3)
    m = rng.standard_normal((g.nt + 1, g.n_nodes))  # negative nodes are clipped
    d_value = integrate_space_time(np.maximum(m, 0.0) ** (2.0 * 1.3 + 1.0), g)
    assert coupling_mass(m, c, g) == d_value
    assert coupling_mass(m, c, g, out=np.empty_like(m)) == d_value  # the solver's form


@pytest.mark.parametrize("alpha,product", [
    (1.0, lambda x: x * (x * x)),
    (2.0, lambda x: x * ((x * x) * (x * x))),
])
def test_coupling_mass_forms_an_integer_power_by_repeated_squaring(alpha, product, rng):
    # 2 alpha + 1 = 3 and 5: exact products a block of levels at a time,
    # within a few ulps of the general pow, and no trajectory-sized scratch
    g = Grid(dim=1, half_width=6.0, nx=257, nt=8 * 64 + 9, horizon=1.0)
    assert len(list(_level_blocks(g.nt + 1, g.n_nodes))) >= 8
    c = CouplingSpec(sigma=1.0, alpha=alpha)
    m = rng.standard_normal((g.nt + 1, g.n_nodes))
    clipped = np.maximum(m, 0.0)
    powered = product(clipped)
    np.testing.assert_allclose(powered, clipped ** (2.0 * alpha + 1.0), rtol=1e-15, atol=0.0)
    out = np.empty_like(m)
    tracemalloc.start()
    try:
        d_value = coupling_mass(m, c, g, out=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(out, powered)
    assert d_value == integrate_space_time(powered, g)
    assert peak < 0.5 * m.nbytes


def test_coupling_spec_validation():
    with pytest.raises(ValueError):
        CouplingSpec(sigma=-1.0, alpha=2.0)
    with pytest.raises(ValueError):
        CouplingSpec(sigma=1.0, alpha=0.0)


def test_mixture_normalizes_weights():
    m = GaussianMixture(weights=(2.0, 2.0), means=((0.0,), (1.0,)), stds=(1.0, 2.0))
    assert sum(m.weights) == pytest.approx(1.0)


def test_mixture_rejects_means_of_unequal_lengths():
    # a second mean's extra coordinate was once dropped without a word
    with pytest.raises(ValueError, match="means"):
        GaussianMixture(weights=(1.0, 1.0), means=((0.0,), (0.0, 3.0)), stds=(1.0, 1.0))


def test_problem_rejects_a_center_longer_than_its_dimension():
    # a 1D well centred at (5, 7) once peaked at the node nearest 5
    well = PotentialSpec(family="gaussian_well", amplitude=1.0, width=1.0, center=(5.0, 7.0))
    with pytest.raises(ValueError, match="center"):
        gaussian_problem(potential=well)
    bump = TerminalCostSpec(family="gaussian", amplitude=1.0, center=(5.0, 7.0))
    with pytest.raises(ValueError, match="center"):
        gaussian_problem(terminal=bump)
    # one entry still serves every axis
    well = PotentialSpec(family="gaussian_well", amplitude=1.0, width=1.0, center=(2.0,))
    g = Grid(dim=2, half_width=4.0, nx=9, nt=1, horizon=1.0)
    v = sample_on_grid(gaussian_problem(dim=2, potential=well), g).v
    assert np.array_equal(g.coordinates[:, np.argmax(v)], [2.0, 2.0])


@pytest.mark.parametrize("family", ["gaussian_well", "cosine_bump"])
def test_spec_evaluated_alone_rejects_a_center_of_the_wrong_length(family):
    # outside a ProblemSpec a 2-entry center on a 1D grid once dropped its
    # second entry, and a 3-entry one on a 2D grid its third
    for dim, center in ((1, (5.0, 7.0)), (2, (5.0, 7.0, 1.0))):
        g = Grid(dim=dim, half_width=8.0, nx=17, nt=1, horizon=1.0)
        spec = PotentialSpec(family=family, amplitude=1.0, width=1.0, center=center)
        for evaluate in (spec.value, spec.gradient):
            with pytest.raises(ValueError, match=f"center has {len(center)} entries but "
                                                 f"the points have {dim} coordinates"):
                evaluate(g.coordinates)
    bump = TerminalCostSpec(family="gaussian", amplitude=1.0, center=(5.0, 7.0))
    with pytest.raises(ValueError, match="center has 2 entries"):
        bump.value(Grid(dim=1, half_width=8.0, nx=17, nt=1, horizon=1.0).coordinates)
    # a one-entry center is broadcast: the bits of that entry on every axis
    g = Grid(dim=2, half_width=8.0, nx=17, nt=1, horizon=1.0)
    one = PotentialSpec(family=family, amplitude=1.0, width=3.0, center=(2.0,))
    both = PotentialSpec(family=family, amplitude=1.0, width=3.0, center=(2.0, 2.0))
    assert np.array_equal(one.value(g.coordinates), both.value(g.coordinates))
    assert np.array_equal(one.gradient(g.coordinates), both.gradient(g.coordinates))


def test_mixture_value_matches_density():
    m = GaussianMixture(weights=(1.0,), means=((0.5,),), stds=(2.0,))
    x = np.array([[0.5, 2.5]])
    vals = m.value(x)
    expected = np.exp(-((x[0] - 0.5) ** 2) / 8.0) / math.sqrt(2 * math.pi * 4.0)
    assert np.allclose(vals, expected)


def test_mixture_gradient_matches_finite_difference():
    m = GaussianMixture(weights=(0.3, 0.7), means=((0.0,), (1.5,)), stds=(1.0, 0.7))
    x = np.linspace(-3, 3, 41)[None, :]
    eps = 1e-6
    fd = (m.value(x + eps) - m.value(x - eps)) / (2 * eps)
    assert np.allclose(m.gradient(x)[0], fd, atol=1e-8)


def test_mixture_2d_unit_mass():
    m = GaussianMixture(weights=(1.0,), means=((0.3, -0.2),), stds=(0.8,))
    g = Grid(dim=2, half_width=8.0, nx=129, nt=1, horizon=1.0)
    assert integrate(m.value(g.coordinates), g) == pytest.approx(1.0, abs=1e-10)


def test_sample_on_grid_renormalizes():
    p = gaussian_problem(std=0.4)
    g = Grid(dim=1, half_width=12.0, nx=65, nt=4, horizon=1.0)
    fields = sample_on_grid(p, g)
    assert integrate(fields.m0, g) == pytest.approx(1.0, abs=1e-14)
    assert fields.m0.min() >= 0.0
    # the gradient is scaled by the same mass as the density
    mass = integrate(p.data.m0.value(g.coordinates), g)
    assert np.allclose(fields.grad_m0 * mass, p.data.m0.gradient(g.coordinates), rtol=1e-13)


def test_potential_families_derivatives():
    for spec in (
        PotentialSpec(family="gaussian_well", amplitude=-2.0, width=1.5, center=(0.3,)),
        PotentialSpec(family="cosine_bump", amplitude=1.0, width=2.0, center=(0.0,)),
    ):
        x = np.linspace(-1.5, 1.6, 37)[None, :]
        eps = 1e-6
        fd_grad = (spec.value(x + eps) - spec.value(x - eps)) / (2 * eps)
        assert np.allclose(spec.gradient(x)[0], fd_grad, atol=1e-7)


def test_cosine_bump_compact_support():
    spec = PotentialSpec(family="cosine_bump", amplitude=3.0, width=1.0, center=(0.0,))
    x = np.array([[-2.0, -1.0, 0.0, 1.0, 2.0]])
    vals = spec.value(x)
    assert vals[0] == 0.0 and vals[-1] == 0.0
    assert vals[2] == pytest.approx(3.0)


def test_zero_potential_and_terminal():
    z = PotentialSpec()
    t = TerminalCostSpec()
    x = np.ones((1, 5))
    assert np.all(z.value(x) == 0.0) and np.all(z.gradient(x) == 0.0)
    assert np.all(t.value(x) == 0.0) and np.all(t.gradient(x) == 0.0)


def test_log_quadratic_terminal_gradient():
    t = TerminalCostSpec(family="log_quadratic", amplitude=0.7)
    x = np.linspace(-2, 2, 21)[None, :]
    eps = 1e-6
    fd = (t.value(x + eps) - t.value(x - eps)) / (2 * eps)
    assert np.allclose(t.gradient(x)[0], fd, atol=1e-8)


@pytest.mark.parametrize("dim,alpha,holds", [
    (1, 2.0, True),    # margin 1 - 3/3 = 0
    (1, 2.5, True),
    (1, 1.9, False),   # below 2/N
    (2, 1.0, True),    # margin 2 - 4/2 = 0
    (2, 0.9, False),
])
def test_coercive_coupling_margin(dim, alpha, holds):
    p = gaussian_problem(sigma=1.0, alpha=alpha, dim=dim, horizon=0.5)
    g = Grid(dim=dim, half_width=6.0, nx=33, nt=4, horizon=0.5)
    report = check_structural_conditions(p, g, sample_on_grid(p, g))
    assert report.coercive_coupling.holds == holds
    expected_margin = dim - (dim + 2.0) / (alpha + 1.0)
    assert report.coercive_coupling.margin == pytest.approx(expected_margin)


def test_coercive_coupling_vacuous_at_sigma_zero():
    p = gaussian_problem(sigma=0.0, alpha=1.0)
    g = Grid(dim=1, half_width=6.0, nx=33, nt=4, horizon=1.0)
    assert check_structural_conditions(p, g, sample_on_grid(p, g)).coercive_coupling.holds


def _conditions(p, g):
    return check_structural_conditions(p, g, sample_on_grid(p, g))


def test_confining_potential_condition():
    well = PotentialSpec(family="gaussian_well", amplitude=-1.0, width=1.0, center=(0.0,))
    bump = PotentialSpec(family="gaussian_well", amplitude=1.0, width=1.0, center=(0.0,))
    g = Grid(dim=1, half_width=12.0, nx=129, nt=4, horizon=1.0)
    assert _conditions(gaussian_problem(potential=well), g).confining_potential.holds
    assert not _conditions(gaussian_problem(potential=bump), g).confining_potential.holds


def test_monotone_terminal_condition():
    grow = TerminalCostSpec(family="log_quadratic", amplitude=0.5)
    shrink = TerminalCostSpec(family="log_quadratic", amplitude=-0.5)
    g = Grid(dim=1, half_width=12.0, nx=129, nt=4, horizon=1.0)
    assert _conditions(gaussian_problem(terminal=grow), g).monotone_terminal.holds
    assert not _conditions(gaussian_problem(terminal=shrink), g).monotone_terminal.holds


def test_condition_report_all_hold():
    g = Grid(dim=1, half_width=12.0, nx=129, nt=4, horizon=1.0)
    report = _conditions(gaussian_problem(), g)
    assert report.all_hold
    assert report.unit_mass.holds
    d = report.as_dict()
    assert d["all_hold"] is True
    assert set(d) >= {"coercive_coupling", "confining_potential", "monotone_terminal", "unit_mass"}
