"""Exact stationary solutions as a verification oracle.

u = -a * sum_i cos(pi x_i / L) has zero normal derivative on [-L, L]^dim.
With m = e^-u / Z and V = -Lap u + |grad u|^2 / 2 + sigma m^alpha, the pair
(u, m) solves the finite-horizon system for every sigma, alpha and T: m is
the stationary density of the drift -grad u, u(T) = u and m(0) = m. The
data reach solve as sampled fields, so the discrete solution's distance
from (u, m) is the scheme's error alone. The solution does not change in
time, so in 1D that error is spatial.
"""

import math
from functools import lru_cache

import numpy as np

from aggmfg import SolverConfig, inverse_hopf_cole, self_consistency_residual, solve
from aggmfg.diagnostics import compute_nonexistence_certificate
from aggmfg.discretization import Grid, integrate, integrate_space_time
from aggmfg.problem import ProblemFields
from tests.conftest import gaussian_problem

L, HORIZON = 3.0, 1.0


def _member(dim, nx, nt, a=1.0, sigma=5.0):
    """(problem, grid, fields, m) of the family member on an nx**dim x nt grid,
    alpha = 2/dim; m is the exact density at the nodes, at unit trapezoid mass."""
    grid = Grid(dim=dim, half_width=L, nx=nx, nt=nt, horizon=HORIZON)
    k, alpha = math.pi / L, 2.0 / dim
    kx = k * grid.coordinates
    u = -a * np.cos(kx).sum(axis=0)
    grad_u = a * k * np.sin(kx)
    m = np.exp(-u)
    m /= integrate(m, grid)
    coupling = sigma * m**alpha
    v = -a * k**2 * np.cos(kx).sum(axis=0) + 0.5 * (grad_u**2).sum(axis=0) + coupling
    fields = ProblemFields(
        m0=m,
        grad_m0=-m * grad_u,
        u_terminal=u,
        v=v,
        grad_v=a * k**3 * np.sin(kx) * (1.0 + a * np.cos(kx)) - alpha * coupling * grad_u,
        grad_u_terminal=grad_u,
    )
    # the problem's own data are never sampled: the fields above replace them
    problem = gaussian_problem(sigma=sigma, alpha=alpha, horizon=HORIZON, dim=dim)
    return problem, grid, fields, m


@lru_cache(maxsize=None)
def _solved(dim, nx, nt):
    """(L1 error of m over the horizon, HJB residual, FP residual) of one converged solve."""
    problem, grid, fields, m = _member(dim, nx, nt)
    out = solve(problem, grid, SolverConfig(damping=0.5, tol=1e-12), fields=fields)
    assert out.converged, out.note
    error = integrate_space_time(np.abs(out.m - m), grid) / HORIZON
    u = inverse_hopf_cole(out.w)
    return (error,) + self_consistency_residual(u, out.m, problem, grid, fields)


def _orders(values):
    return [math.log2(coarse / fine) for coarse, fine in zip(values, values[1:])]


def test_1d_density_error_is_second_order_in_space():
    errors = [_solved(1, nx, 64)[0] for nx in (17, 33, 65, 129)]
    assert min(_orders(errors)) >= 1.9, errors
    assert errors[-1] < 1.2e-4  # 1.09e-4 at nx 129


def test_2d_density_error_shrinks_at_near_second_order():
    errors = [_solved(2, nx, 16)[0] for nx in (17, 33)]
    assert _orders(errors)[0] >= 1.7, errors  # 1.81: the splitting error in time shows
    assert errors[-1] < 3.1e-3  # 2.82e-3 at nx 33


def test_self_consistency_residual_shrinks_under_refinement():
    # the 1D value residual is the discretization error, of second order; the
    # density residual of an implicit Euler solve sits near the tolerance
    hjb = [_solved(1, nx, 64)[1] for nx in (17, 33, 65, 129)]
    assert min(_orders(hjb)) >= 1.85, hjb  # 1.89, 1.95 and 1.98
    assert max(_solved(1, nx, 64)[2] for nx in (17, 33, 65, 129)) < 1e-10
    coarse, fine = _solved(2, 17, 16), _solved(2, 33, 16)
    assert fine[1] < coarse[1] and fine[2] < coarse[2]


def test_no_member_is_certified_at_or_below_its_horizon():
    # a solution exists, so a nonexistence horizon T* <= T would be false
    for dim, nx in ((1, 65), (2, 17)):
        for a in (1.0, 3.0):
            for sigma in (5.0, 50.0):
                problem, grid, fields, _ = _member(dim, nx, 4, a=a, sigma=sigma)
                certificate = compute_nonexistence_certificate(problem, grid, fields=fields)
                assert certificate.e0 < 0.0, (dim, a, sigma)
                assert not certificate.applies_at(HORIZON), (dim, a, sigma)
