import math

import numpy as np
import pytest

from aggmfg.discretization import (
    Grid,
    face_transport_coefficients,
    flux_divergence,
    gradient,
    integrate,
    integrate_space_time,
    laplacian,
    write_field_csv,
)


def test_grid_spacing_and_weights():
    g = Grid(dim=1, half_width=12.0, nx=129, nt=100, horizon=1.0)
    assert g.dx == pytest.approx(24.0 / 128)
    assert g.dt == pytest.approx(0.01)
    assert g.axis[0] == -12.0 and g.axis[-1] == 12.0
    # trapezoid weights are finite-volume cell widths: they tile the domain
    assert np.sum(g.axis_weights) == pytest.approx(24.0, abs=1e-12)
    assert g.axis_weights[0] == pytest.approx(g.dx / 2)
    assert g.axis_weights[64] == pytest.approx(g.dx)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(dim=3, half_width=1.0, nx=5, nt=1, horizon=1.0)
    with pytest.raises(ValueError):
        Grid(dim=1, half_width=1.0, nx=4, nt=1, horizon=1.0)
    with pytest.raises(ValueError):
        Grid(dim=1, half_width=1.0, nx=5, nt=0, horizon=1.0)


@pytest.mark.parametrize("refused, kept", [(1e-300, 4e-154), (2e-154, 4e-154),
                                            (1e300, 2e154), (3e154, 2e154)])
def test_grid_refuses_a_spacing_whose_square_is_not_a_normal_float(refused, kept):
    # every operator divides by dx**2: 0, subnormal or inf at refused (nx 5)
    with pytest.raises(ValueError, match="spacing"):
        Grid(dim=1, half_width=refused, nx=5, nt=1, horizon=1.0)
    dx = Grid(dim=1, half_width=kept, nx=5, nt=1, horizon=1.0).dx
    assert np.finfo(float).smallest_normal <= dx**2 < math.inf


def test_refined_grid_nests_nodes():
    g = Grid(dim=1, half_width=6.0, nx=65, nt=32, horizon=1.0)
    r = g.refined(2)
    assert r.nx == 129 and r.nt == 64
    assert np.allclose(r.axis[::2], g.axis)


def test_2d_weights_are_tensor_products():
    g = Grid(dim=2, half_width=4.0, nx=17, nt=4, horizon=1.0)
    assert g.n_nodes == 17 * 17
    assert np.sum(g.weights) == pytest.approx(64.0)
    w = g.weights.reshape(17, 17)
    assert np.allclose(w, np.outer(g.axis_weights, g.axis_weights))


def test_integrate_gaussian_moments():
    g = Grid(dim=1, half_width=12.0, nx=513, nt=1, horizon=1.0)
    x = g.axis
    density = np.exp(-0.5 * x**2) / math.sqrt(2 * math.pi)
    assert integrate(density, g) == pytest.approx(1.0, abs=1e-12)
    assert integrate(density, g, weight=x**2) == pytest.approx(1.0, abs=1e-6)
    # |x| has a kink at the origin, so trapezoid accuracy drops to O(dx^2)
    assert integrate(density, g, weight=np.abs(x)) == pytest.approx(
        math.sqrt(2 / math.pi), abs=5e-4)


def test_integrate_space_time_constant():
    g = Grid(dim=1, half_width=2.0, nx=9, nt=10, horizon=1.0)
    values = np.ones((11, 9))
    assert integrate_space_time(values, g) == pytest.approx(4.0)


def test_time_weights_are_cached_trapezoid_weights():
    g = Grid(dim=1, half_width=2.0, nx=9, nt=10, horizon=1.0)
    expected = np.full(g.nt + 1, g.dt)
    expected[0] = expected[-1] = 0.5 * g.dt
    assert np.array_equal(g.time_weights, expected)
    assert g.time_weights is g.time_weights


def test_laplacian_quadratic_interior_exact():
    g = Grid(dim=1, half_width=12.0, nx=129, nt=1, horizon=1.0)
    out = laplacian(g.axis**2, g)
    assert np.allclose(out[1:-1], 2.0, atol=1e-9)


def test_laplacian_neumann_compatible_convergence():
    # cos(pi x / L) has zero slope at both walls, so the ghost reflection
    # rows see a genuinely even extension and the full array converges
    errs = []
    for nx in (65, 129, 257):
        g = Grid(dim=1, half_width=6.0, nx=nx, nt=1, horizon=1.0)
        k = math.pi / 6.0
        f = np.cos(k * g.axis)
        errs.append(np.max(np.abs(laplacian(f, g) + k**2 * f)))
    slope = np.polyfit(np.log([6.0 / 32, 6.0 / 64, 6.0 / 128]), np.log(errs), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.1)


def test_gradient_polynomial():
    g = Grid(dim=1, half_width=3.0, nx=61, nt=1, horizon=1.0)
    out = gradient(g.axis**2, g)
    assert out.shape == (1, 61)
    # central and one-sided second-order stencils are exact on quadratics
    assert np.allclose(out[0], 2.0 * g.axis, atol=1e-10)


def test_gradient_convergence_sine():
    errs = []
    for nx in (65, 129, 257):
        g = Grid(dim=1, half_width=4.0, nx=nx, nt=1, horizon=1.0)
        f = np.sin(g.axis)
        errs.append(np.max(np.abs(gradient(f, g)[0] - np.cos(g.axis))))
    slope = np.polyfit(np.log([8.0 / (n - 1) for n in (65, 129, 257)]), np.log(errs), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.15)


def test_gradient_2d_separable():
    g = Grid(dim=2, half_width=3.0, nx=33, nt=1, horizon=1.0)
    x, y = g.coordinates
    f = x**2 + 3.0 * y
    out = gradient(f, g)
    assert np.allclose(out[0], 2.0 * x, atol=1e-9)
    assert np.allclose(out[1], 3.0, atol=1e-9)


@pytest.mark.parametrize("dim", [1, 2])
def test_gradient_of_a_stack_matches_each_slice(dim, rng):
    g = Grid(dim=dim, half_width=4.0, nx=9, nt=3, horizon=1.0)
    f = rng.standard_normal((g.nt + 1, g.n_nodes))
    out = gradient(f, g)
    assert out.shape == (g.nt + 1, dim, g.n_nodes)
    assert np.array_equal(out, np.stack([gradient(s, g) for s in f]))


@pytest.mark.parametrize("dim", [1, 2])
def test_laplacian_and_flux_of_a_stack_match_each_slice(dim, rng):
    g = Grid(dim=dim, half_width=4.0, nx=9, nt=3, horizon=1.0)
    f = rng.standard_normal((g.nt + 1, g.n_nodes))
    b = rng.standard_normal((g.nt + 1, dim, g.n_nodes))
    assert np.array_equal(laplacian(f, g), np.stack([laplacian(s, g) for s in f]))
    per_slice = np.stack([flux_divergence(bs, s, g) for bs, s in zip(b, f)])
    assert np.array_equal(flux_divergence(b, f, g), per_slice)


def test_face_transport_coefficients_identities():
    p = np.array([-50.0, -2.0, -1e-8, 0.0, 1e-8, 1.0, 30.0])
    a, b = face_transport_coefficients(p)
    # A - B = p exactly is what makes the flux form conservative
    assert np.allclose(a - b, p, rtol=0, atol=1e-15)
    assert np.all(a >= 0) and np.all(b >= 0)
    a0, b0 = face_transport_coefficients(np.array([0.0]))
    assert a0[0] == 1.0 and b0[0] == 1.0
    # B(-p) = A(p): the Bernoulli weights swap under reversal of the drift
    am, bm = face_transport_coefficients(-p)
    assert np.allclose(bm, a, rtol=1e-12)


def test_face_transport_series_matches_formula_at_crossover():
    # the |p| ~ 1e-8 switch between series and direct evaluation is seamless
    for p in (9.9e-9, 1.01e-8, 5e-8):
        a_lo, b_lo = face_transport_coefficients(np.array([p]))
        direct = p / math.expm1(p)
        assert b_lo[0] == pytest.approx(direct, rel=1e-12)


def test_face_transport_series_is_the_quadratic_series_below_1e8(rng):
    # below |p| = 1e-8 the p^2/12 term of B's series is under half an ulp of
    # 1 - p/2, so leaving it out must change no bit
    edge = 1e-8 - np.spacing(1e-8)
    p = np.concatenate([
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-300, edge, -edge],
        rng.uniform(-1e-8, 1e-8, 100_000),
        rng.choice([-1.0, 1.0], 100_000) * 10.0 ** rng.uniform(-323, -8, 100_000),
    ])
    p = p[np.abs(p) < 1e-8]
    a, b = face_transport_coefficients(p)
    series = 1.0 - 0.5 * p + p * p / 12.0
    assert np.array_equal(b, series)
    assert np.array_equal(a, series + p)


def test_flux_divergence_conserves_weighted_sum(rng):
    for dim, nx in ((1, 129), (2, 17)):
        g = Grid(dim=dim, half_width=5.0, nx=nx, nt=1, horizon=1.0)
        b = rng.standard_normal((dim, g.n_nodes))
        m = rng.random(g.n_nodes) + 0.1
        out = flux_divergence(b, m, g)
        # no-flux walls: the weighted divergence telescopes to zero, up to
        # the roundoff of taking the identity off the fitted diagonal
        assert abs(np.dot(g.weights, out)) < 1e-13 * np.dot(g.weights, np.abs(out))


@pytest.mark.parametrize("dim", [1, 2])
def test_flux_divergence_without_drift_is_minus_the_laplacian(dim):
    g = Grid(dim=dim, half_width=5.0, nx=65 if dim == 1 else 33, nt=1, horizon=1.0)
    m = np.exp(-g.radius_sq)
    out = flux_divergence(np.zeros((dim, g.n_nodes)), m, g)
    lap = laplacian(m, g)
    assert np.allclose(out, -lap, rtol=0.0, atol=1e-13 * np.abs(lap).max())


def test_flux_divergence_matches_analytic_operator():
    # smooth b and m compactly supported away from the walls; the fitted
    # operator is -m'' + (b m)'
    errs = []
    for nx in (129, 257, 513):
        g = Grid(dim=1, half_width=8.0, nx=nx, nt=1, horizon=1.0)
        x = g.axis
        m = np.exp(-x**2)
        b = np.sin(0.5 * x)
        exact = -(4.0 * x**2 - 2.0) * m + 0.5 * np.cos(0.5 * x) * m + b * (-2.0 * x) * m
        out = flux_divergence(b[None, :], m, g)
        errs.append(np.max(np.abs(out - exact)))
    slope = np.polyfit(np.log([16.0 / (n - 1) for n in (129, 257, 513)]), np.log(errs), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.2)


def test_field_csv_roundtrip(tmp_path, rng):
    g = Grid(dim=1, half_width=2.0, nx=17, nt=1, horizon=1.0)
    values = rng.standard_normal(17)
    path = tmp_path / "field.csv"
    write_field_csv(path, g, values)
    back = np.genfromtxt(path, delimiter=",", skip_header=1)[:, -1]
    # 17 significant digits round-trip float64 exactly
    assert np.array_equal(back, values)


def test_field_csv_matches_per_node_formatting(tmp_path, rng):
    # the coordinate text is formatted once per grid; every file must still
    # read exactly as if each row were formatted on its own
    for g in (Grid(dim=1, half_width=2.0, nx=17, nt=1, horizon=1.0),
              Grid(dim=2, half_width=1.5, nx=7, nt=1, horizon=1.0)):
        header = "x,value\n" if g.dim == 1 else "x,y,value\n"
        for _ in range(2):
            values = rng.standard_normal(g.n_nodes)
            path = tmp_path / "field.csv"
            write_field_csv(path, g, values)
            rows = (",".join(f"{c:.17g}" for c in (*node, v)) + "\n"
                    for node, v in zip(g.coordinates.T, values))
            assert path.read_text() == header + "".join(rows)


def test_field_csv_2d_shape(tmp_path):
    g = Grid(dim=2, half_width=1.0, nx=5, nt=1, horizon=1.0)
    values = np.arange(25.0)
    path = tmp_path / "field2d.csv"
    write_field_csv(path, g, values)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,y,value"
    assert len(lines) == 26
