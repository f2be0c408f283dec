"""End-to-end acceptance checks, one test per numbered criterion.

Run with -s to see the one-line verdict per criterion; each line states
PASS or FAIL with the measured quantities that decided it.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from aggmfg import (
    GaussianMixture,
    HeatKernelQuery,
    KernelNormDivergenceError,
    PotentialSpec,
    SolverConfig,
    TerminalCostSpec,
    analytic_kernel_exponent,
    check_moment_identity,
    compute_e0,
    compute_energy,
    heat_kernel_spacetime_norm,
    hopf_cole,
    nonexistence_horizon,
    planning_horizon,
    sample_on_grid,
    solve,
    solve_fokker_planck,
)
from aggmfg.discretization import Grid, integrate
from aggmfg.runs import run_single, run_sweep
from tests.conftest import gaussian_problem


def _report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# shared expensive runs


@pytest.fixture(scope="module")
def decoupled_run():
    g = Grid(dim=1, half_width=12.0, nx=513, nt=1000, horizon=1.0)
    p = gaussian_problem(sigma=0.0)
    t0 = time.perf_counter()
    out = solve(p, g, SolverConfig(damping=1.0))
    seconds = time.perf_counter() - t0
    return {"grid": g, "problem": p, "out": out, "seconds": seconds}


@pytest.fixture(scope="module")
def refinement_study():
    p = gaussian_problem(sigma=0.05)
    rows = []
    for nx in (129, 257, 513):
        g = Grid(dim=1, half_width=12.0, nx=nx, nt=nx - 1, horizon=1.0)
        out = solve(p, g, SolverConfig(damping=0.5, tol=1e-10))
        assert out.converged, f"refinement solve did not converge at nx={nx}"
        energy = compute_energy(out.u, out.m, p, g)
        moments = check_moment_identity(out.u, out.m, p, g, energy=energy)
        rows.append({"nx": nx, "energy": energy, "moments": moments, "out": out})
    return rows


@pytest.fixture(scope="module")
def potential_run():
    # nonzero potential with a positive part plus a growing terminal cost
    p = gaussian_problem(
        sigma=0.5,
        potential=PotentialSpec(family="cosine_bump", amplitude=2.0, width=2.0, center=(0.0,)),
        terminal=TerminalCostSpec(family="log_quadratic", amplitude=0.5),
    )
    g = Grid(dim=1, half_width=12.0, nx=257, nt=256, horizon=1.0)
    out = solve(p, g, SolverConfig(damping=0.5))
    assert out.converged
    return {"grid": g, "problem": p, "out": out}


@pytest.fixture(scope="module")
def convexity_run():
    p = gaussian_problem(sigma=20.0, horizon=0.2)
    g = Grid(dim=1, half_width=12.0, nx=257, nt=400, horizon=0.2)
    out = solve(p, g, SolverConfig(damping=0.5, tol=1e-9))
    return {"grid": g, "problem": p, "out": out}


@pytest.fixture(scope="module")
def sweep_result(tmp_path_factory):
    cfg = {
        "problem": {
            "dim": 1,
            "alpha": 2.0,
            "initial_density": {"weights": [1.0], "means": [[0.0]], "stds": [1.0]},
        },
        "grid": {"half_width": 12.0},
        "solver": {"damping": 0.8, "tol": 1e-7, "max_iter": 150, "d_cap": 1e6},
        "sweep": {
            "sigma_grid": [0.02, 0.05, 0.5, 2.0, 5.0, 10.0, 14.0, 17.0, 20.0, 23.0, 26.0, 30.0],
            "horizon_grid": np.linspace(1.0, 8.0, 12).tolist(),
            "nx": 65,
            "nt_per_unit": 60,
            "confirm_rounds": 2,
            "workers": 1,
        },
    }
    out_dir = str(tmp_path_factory.mktemp("sweep"))
    t0 = time.perf_counter()
    result = run_sweep(cfg, out_dir=out_dir)
    result["seconds"] = time.perf_counter() - t0
    return result


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_decoupled_sanity(decoupled_run):
    g, out = decoupled_run["grid"], decoupled_run["out"]
    mv = out.m.values
    # exact heat flow from unit-variance Gaussian data: variance 1 + 2t
    l1_max = 0.0
    for j in (0, g.nt // 2, g.nt):
        s2 = 1.0 + 2.0 * g.times[j]
        exact = np.exp(-g.axis**2 / (2.0 * s2)) / math.sqrt(2.0 * math.pi * s2)
        l1_max = max(l1_max, integrate(np.abs(mv[j] - exact), g))
    h = np.array([integrate(mv[j] * g.axis**2, g) for j in range(g.nt + 1)])
    h_dev = np.abs(h - (1.0 + 2.0 * g.times)).max()
    ok = (
        out.converged
        and out.iterations <= 2
        and l1_max < 1e-3
        and h_dev < 1e-3
        and decoupled_run["seconds"] < 5.0
    )
    _report(1, ok, f"{out.iterations} iterations, L1 {l1_max:.2e}, "
                   f"h dev {h_dev:.2e}, {decoupled_run['seconds']:.2f}s")


def test_criterion_2_mass_conservation(decoupled_run, refinement_study,
                                        potential_run, convexity_run, rng):
    drifts = []
    for tag, m, g in (
        ("decoupled", decoupled_run["out"].m.values, decoupled_run["grid"]),
        ("potential", potential_run["out"].m.values, potential_run["grid"]),
        ("convexity", convexity_run["out"].m.values, convexity_run["grid"]),
    ):
        masses = np.array([integrate(m[j], g) for j in range(g.nt + 1)])
        drifts.append(np.abs(np.diff(masses)).max() / masses[0])
    for row in refinement_study:
        drifts.append(row["moments"].mass_step_drift)
    # a raw march under an adversarial drift, both dimensions
    for dim, nx, nt in ((1, 201, 60), (2, 33, 24)):
        g = Grid(dim=dim, half_width=8.0, nx=nx, nt=nt, horizon=0.5)
        mix = GaussianMixture(weights=(1.0,), means=((0.0,) * dim,), stds=(1.0,))
        mu0 = mix.value(g.coordinates)
        b = 2.0 * rng.standard_normal((g.nt + 1, dim, g.n_nodes))
        mu = solve_fokker_planck(mu0, b, g).values
        masses = np.array([integrate(mu[j], g) for j in range(g.nt + 1)])
        drifts.append(np.abs(np.diff(masses)).max() / masses[0])
    worst = max(drifts)
    _report(2, worst <= 1e-13, f"worst relative per-step mass drift {worst:.2e}")


def test_criterion_3_positivity_and_floor(decoupled_run, refinement_study, potential_run):
    min_density = min(
        decoupled_run["out"].m.values.min(),
        potential_run["out"].m.values.min(),
        min(row["out"].m.values.min() for row in refinement_study),
    )
    g, p, out = potential_run["grid"], potential_run["problem"], potential_run["out"]
    fields = sample_on_grid(p, g)
    w_T = hopf_cole(fields.u_terminal)
    floor = math.exp(-g.horizon * float(fields.v.max())) * float(w_T.min()) * (1.0 - 1e-8)
    w_min = float(out.w.values.min())
    ok = min_density >= 0.0 and w_min >= floor
    _report(3, ok, f"min density {min_density:.1e}, min w {w_min:.4f} >= floor {floor:.4f}")


def test_criterion_4_energy_conservation(refinement_study):
    nxs = np.array([row["nx"] for row in refinement_study], dtype=float)
    drifts = np.array([row["energy"].drift for row in refinement_study])
    slope = np.polyfit(np.log(nxs), np.log(drifts), 1)[0]
    ok = slope <= -0.9 and drifts[-1] < 1e-3
    _report(4, ok, f"drifts {drifts[0]:.2e}/{drifts[1]:.2e}/{drifts[2]:.2e}, "
                   f"slope {-slope:.2f}, finest {drifts[-1]:.2e}")


def test_criterion_5_moment_identities(refinement_study):
    nxs = np.array([row["nx"] for row in refinement_study], dtype=float)
    r1 = np.array([row["moments"].r1 for row in refinement_study])
    r2 = np.array([row["moments"].r2 for row in refinement_study])
    s1 = np.polyfit(np.log(nxs), np.log(r1), 1)[0]
    s2 = np.polyfit(np.log(nxs), np.log(r2), 1)[0]
    ok = r1[-1] < 1e-2 and r2[-1] < 1e-2 and s1 <= -0.9 and s2 <= -0.9
    _report(5, ok, f"r1 {r1[-1]:.2e} slope {-s1:.2f}, r2 {r2[-1]:.2e} slope {-s2:.2f}")


def test_criterion_6_certificate_formulas():
    g = Grid(dim=1, half_width=12.0, nx=257, nt=4, horizon=1.0)
    worst = 0.0
    for sigma in (0.0, 5.0, 20.0, 30.0):
        measured = compute_e0(gaussian_problem(sigma=sigma), g)
        closed = -0.5 + sigma / (6.0 * math.pi * math.sqrt(3.0))
        worst = max(worst, abs(measured - closed))
    t_star = nonexistence_horizon(0.5, 1.0, dim=1)
    t_hat = planning_horizon(0.5, 1.0, 1.0)
    ok = worst < 1e-6 and t_star == 2.0 and t_hat == 2.0
    _report(6, ok, f"e0 worst error {worst:.1e}, T_star(1/2,1,1) = {t_star}, "
                   f"T_hat(1/2,1,1) = {t_hat}")


def test_criterion_7_kernel_exponents():
    t0 = time.perf_counter()
    errs = []
    res = heat_kernel_spacetime_norm(HeatKernelQuery(dim=1, exponent=2.0, t=1.0))
    errs.append(abs(res.fitted_exponent - analytic_kernel_exponent(1, 2.0)))
    # the two non-integrable pairs: the typed error must carry the analytic
    # exponent, since there is no finite norm to fit
    for dim, q in ((1, 3.0), (2, 3.0)):
        with pytest.raises(KernelNormDivergenceError) as exc:
            heat_kernel_spacetime_norm(HeatKernelQuery(dim=dim, exponent=q, t=1.0))
        errs.append(abs(exc.value.analytic_exponent - analytic_kernel_exponent(dim, q)))
    seconds = time.perf_counter() - t0
    worst = max(errs)
    ok = worst < 1e-3 and seconds < 10.0
    _report(7, ok, f"worst exponent error {worst:.1e}, {seconds:.2f}s")


@pytest.mark.slow
def test_criterion_8_phase_diagram(sweep_result):
    cells = sweep_result["cells"]
    sigmas = sorted({c["sigma"] for c in cells})
    horizons = sorted({c["horizon"] for c in cells})
    by_key = {(c["sigma"], c["horizon"]): c for c in cells}
    problems = []

    # (a) weak-coupling columns converge at every horizon with D flat in T
    for s in (0.02, 0.05):
        col = [by_key[(s, t)] for t in horizons]
        if not all(c["verdict"] == "converged" for c in col):
            problems.append(f"sigma={s} column not fully converged")
        ds = [c["d_final"] for c in col]
        ratio = max(ds) / min(ds)
        if ratio >= 2.0:
            problems.append(f"sigma={s} D ratio {ratio:.2f} >= 2")

    # (b) the certified region is an up-set in both axes and its edge is the
    # analytic threshold curve
    def certified(c):
        return c["verdict"].startswith("certified")

    for s in sigmas:
        flags = [certified(by_key[(s, t)]) for t in horizons]
        if any(a and not b for a, b in zip(flags, flags[1:])):
            problems.append(f"certified set not increasing in T at sigma={s}")
    for t in horizons:
        flags = [certified(by_key[(s, t)]) for s in sigmas]
        if any(a and not b for a, b in zip(flags, flags[1:])):
            problems.append(f"certified set not increasing in sigma at T={t}")
    for c in cells:
        if c["t_star"] is not None and certified(c) != (c["horizon"] > c["t_star"]):
            problems.append(f"boundary mismatch at ({c['sigma']}, {c['horizon']})")
        if c["t_star"] is None and certified(c):
            problems.append(f"certified without threshold at ({c['sigma']}, {c['horizon']})")

    # (c) everything left of the smallest certified horizon and strictly
    # below the empirical coupling threshold converges
    certified_ts = [c["horizon"] for c in cells if certified(c)]
    t_min = min(certified_ts) if certified_ts else math.inf
    threshold = sweep_result["empirical_sigma_threshold"]
    for c in cells:
        if c["horizon"] < t_min and c["sigma"] < threshold:
            if c["verdict"] != "converged":
                problems.append(f"({c['sigma']}, {c['horizon']}) is {c['verdict']}")

    seconds = sweep_result["seconds"]
    if seconds >= 600.0:
        problems.append(f"sweep took {seconds:.0f}s")
    n_cert = sum(1 for c in cells if certified(c))
    ok = not problems
    detail = (f"{len(cells)} cells in {seconds:.0f}s, {n_cert} certified, "
              f"threshold sigma={threshold}, smallest certified T={t_min:.3f}")
    if problems:
        detail += "; " + "; ".join(problems)
    _report(8, ok, detail)


def test_criterion_9_convexity_bound(convexity_run):
    g, p, out = convexity_run["grid"], convexity_run["problem"], convexity_run["out"]
    e0 = compute_e0(p, g)
    assert e0 > 0
    t_star = nonexistence_horizon(e0, 1.0, dim=1)
    assert g.horizon < t_star
    rep = check_moment_identity(out.u, out.m, p, g)
    bound = 4.0 * e0 * 0.95
    ok = out.converged and rep.min_hsecond >= bound
    _report(9, ok, f"min h'' {rep.min_hsecond:.3f} >= 0.95 * 4 e0 = {bound:.3f} "
                   f"(T {g.horizon} < T_star {t_star:.2f})")


def test_criterion_10_determinism(tmp_path):
    cfg = {
        "problem": {
            "dim": 1,
            "horizon": 1.0,
            "sigma": 0.05,
            "alpha": 2.0,
            "initial_density": {"weights": [1.0], "means": [[0.0]], "stds": [1.0]},
        },
        "grid": {"half_width": 12.0, "nx": 129, "nt": 128},
        "solver": {"damping": 0.5, "tol": 1e-8},
    }
    a = run_single(cfg, out_dir=str(tmp_path / "a"))["out_dir"]
    b = run_single(cfg, out_dir=str(tmp_path / "b"))["out_dir"]
    files = sorted(os.path.join(r, f) for r, _, fs in os.walk(a) for f in fs)
    mismatched = [
        os.path.relpath(p, a)
        for p in files
        if open(p, "rb").read() != open(p.replace(a, b, 1), "rb").read()
    ]
    ok = bool(files) and not mismatched
    detail = f"{len(files)} files bit-identical across two runs"
    if mismatched:
        detail = "mismatch: " + ", ".join(mismatched)
    _report(10, ok, detail)
