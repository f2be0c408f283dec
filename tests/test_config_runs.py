import csv
import json
import math
import os
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from aggmfg import (
    ConfigError,
    Grid,
    SolveOutcome,
    SolverConfig,
    inverse_hopf_cole,
    self_consistency_residual,
)
from aggmfg import diagnostics as diagnostics_module
from aggmfg import problem as problem_module
from aggmfg import runs as runs_module
from aggmfg import solver as solver_module
from aggmfg.cli import main
from aggmfg.config import build_run, load_config
from aggmfg.runs import (
    run_certify,
    run_kernelcheck,
    run_longtime,
    run_single,
    run_sweep,
)


def _solve_cfg(sigma=0.0, nx=65, nt=32, horizon=1.0, dim=1):
    return {
        "problem": {
            "dim": dim,
            "horizon": horizon,
            "sigma": sigma,
            "alpha": 2.0,
            "initial_density": {"weights": [1.0], "means": [[0.0] * dim], "stds": [1.0]},
        },
        "grid": {"half_width": 12.0, "nx": nx, "nt": nt},
        "solver": {"damping": 1.0 if sigma == 0.0 else 0.5, "tol": 1e-8},
        "output": {"label": "t"},
    }


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# config loading and validation


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "nope.json"))


def test_load_config_invalid_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(bad))


def test_build_run_collects_all_bad_keys():
    cfg = _solve_cfg()
    cfg["problem"]["alpha"] = -1.0
    cfg["grid"]["nx"] = 64  # must be odd
    cfg["problem"]["initial_density"]["stds"] = [-1.0]
    with pytest.raises(ConfigError) as exc:
        build_run(cfg)
    keys = exc.value.keys
    assert "problem.alpha" in keys
    assert "grid.nx" in keys
    assert any(k.startswith("problem.initial_density") for k in keys)


@pytest.mark.parametrize("section, family", [
    ("potential", "gaussian_well"), ("terminal_cost", "gaussian"),
])
@pytest.mark.parametrize("center", [["a"], [None], [0.0, 1.0], 0.5])
def test_build_run_rejects_a_bad_center(section, family, center):
    cfg = _solve_cfg()
    cfg["problem"][section] = {"family": family, "amplitude": -1.0, "center": center}
    with pytest.raises(ConfigError) as exc:
        build_run(cfg)
    assert exc.value.keys == [f"problem.{section}.center"]


def test_build_run_solver_defaults():
    cfg = _solve_cfg()
    del cfg["solver"]
    _, _, solver_cfg = build_run(cfg)
    assert solver_cfg.damping == 0.5
    assert solver_cfg.tol == 1e-8
    assert solver_cfg.max_iter == 200
    assert solver_cfg.time_scheme == "implicit_euler"
    assert solver_cfg.initial_guess == "heat_flow"
    assert solver_cfg == SolverConfig()


def test_build_run_valid():
    problem, grid, solver_cfg = build_run(_solve_cfg())
    assert problem.dim == 1
    assert grid.nx == 65
    assert solver_cfg.damping == 1.0


# ---------------------------------------------------------------------------
# single run output layout


def test_run_single_writes_record(tmp_path):
    out = run_single(_solve_cfg(sigma=0.05), out_dir=str(tmp_path / "run"))
    assert out["verdict"] == "converged"
    d = out["out_dir"]
    for rel in (
        "metadata.json",
        "fields/grid.json",
        "reports/residuals.csv",
        "reports/energy.csv",
        "reports/moments.csv",
        "reports/moment_residuals.csv",
    ):
        assert os.path.exists(os.path.join(d, rel)), rel
    snaps = [f for f in os.listdir(os.path.join(d, "fields")) if f.startswith("m_")]
    assert len(snaps) == 5

    meta = json.load(open(os.path.join(d, "metadata.json")))
    assert meta["verdict"] == "converged"
    assert meta["conditions"]["all_hold"] is True
    assert meta["certificate"]["t_star"] is None
    assert meta["moments"]["mass_step_drift"] < 1e-13


def test_run_single_moment_residual_columns_give_r1_r2(tmp_path):
    # each row pairs the centered derivatives of h with the identities' right
    # sides at the same interior time level, so the columns sum to r1 and r2
    cfg = _solve_cfg(sigma=0.05)
    out = run_single(cfg, out_dir=str(tmp_path / "run"))
    meta = json.load(open(os.path.join(out["out_dir"], "metadata.json")))
    rows = _read_csv(os.path.join(out["out_dir"], "reports", "moment_residuals.csv"))
    cols = {name: np.array([float(r[i]) for r in rows[1:]]) for i, name in enumerate(rows[0])}
    nt = cfg["grid"]["nt"]
    dt = 1.0 / nt
    assert np.array_equal(cols["time"], np.linspace(0.0, 1.0, nt + 1)[1:-1])
    r1 = np.sum(np.abs(cols["hprime"] - cols["rhs_first"])) * dt
    r2 = np.sum(np.abs(cols["hsecond"] - cols["rhs_second"])) * dt
    assert r1 == pytest.approx(meta["moments"]["r1"], rel=1e-12)
    assert r2 == pytest.approx(meta["moments"]["r2"], rel=1e-12)


def test_run_single_samples_the_problem_once(tmp_path, monkeypatch):
    sample = problem_module.sample_on_grid
    calls = []

    def counting(p, grid):
        calls.append(grid)
        return sample(p, grid)

    for module in (problem_module, solver_module, diagnostics_module, runs_module):
        monkeypatch.setattr(module, "sample_on_grid", counting)
    out = run_single(_solve_cfg(sigma=0.05), out_dir=str(tmp_path / "run"))
    assert out["verdict"] == "converged"
    assert len(calls) == 1


def test_run_single_apriori_d_is_the_solvers_blow_up_monitor(tmp_path, monkeypatch):
    solve = runs_module.solve
    outcomes = []

    def recording(*args, **kwargs):
        outcomes.append(solve(*args, **kwargs))
        return outcomes[-1]

    monkeypatch.setattr(runs_module, "solve", recording)
    cfg = _solve_cfg(sigma=0.05)
    out = run_single(cfg, out_dir=str(tmp_path / "run"))
    meta = json.load(open(os.path.join(out["out_dir"], "metadata.json")))
    assert meta["verdict"] == "converged"
    assert meta["apriori"]["d_value"] == meta["d_final"]
    # the monitor of the converged trajectory, bit for bit
    problem, grid, _ = build_run(cfg)
    assert meta["d_final"] == problem_module.coupling_mass(outcomes[0].m, problem.coupling, grid)


def test_run_single_records_the_residuals_of_its_solve(tmp_path, monkeypatch):
    solve = runs_module.solve
    outcomes = []

    def recording(*args, **kwargs):
        outcomes.append(solve(*args, **kwargs))
        return outcomes[-1]

    monkeypatch.setattr(runs_module, "solve", recording)
    cfg = _solve_cfg(sigma=0.05)
    out = run_single(cfg, out_dir=str(tmp_path / "run"))
    meta = json.load(open(os.path.join(out["out_dir"], "metadata.json")))
    assert meta["verdict"] == "converged"
    problem, grid, _ = build_run(cfg)
    u = inverse_hopf_cole(outcomes[0].w)
    fields = problem_module.sample_on_grid(problem, grid)
    hjb, fp = self_consistency_residual(u, outcomes[0].m, problem, grid, fields)
    assert meta["consistency"]["hjb_residual"] == hjb
    assert meta["consistency"]["fp_residual"] == fp
    assert fp < 1e-6  # damped iterate: the march residual sits near tol


def test_run_single_decoupled_energy_budget(tmp_path):
    out = run_single(_solve_cfg(sigma=0.0, nx=129, nt=128), out_dir=str(tmp_path / "run"))
    meta = json.load(open(os.path.join(out["out_dir"], "metadata.json")))
    assert meta["iterations"] <= 2
    assert meta["consistency"]["resolve_residual"] == 0.0


def _assert_runs_write_the_same_bytes(cfg, tmp_path):
    """Run cfg twice and compare every file; returns the first run's result."""
    first = run_single(cfg, out_dir=str(tmp_path / "a"))
    a = first["out_dir"]
    b = run_single(cfg, out_dir=str(tmp_path / "b"))["out_dir"]
    names_a = sorted(
        os.path.join(r, f) for r, _, fs in os.walk(a) for f in fs
    )
    assert names_a
    for path_a in names_a:
        path_b = path_a.replace(a, b, 1)
        assert Path(path_a).read_bytes() == Path(path_b).read_bytes(), path_a
    return first


def test_run_single_deterministic(tmp_path):
    _assert_runs_write_the_same_bytes(_solve_cfg(sigma=0.05), tmp_path)


def test_run_single_deterministic_2d(tmp_path):
    cfg = _solve_cfg(sigma=0.05, nx=33, nt=16, dim=2)
    assert _assert_runs_write_the_same_bytes(cfg, tmp_path)["verdict"] == "converged"


# ---------------------------------------------------------------------------
# sweep


def _sweep_cfg():
    return {
        "problem": {
            "dim": 1,
            "alpha": 2.0,
            "initial_density": {"weights": [1.0], "means": [[0.0]], "stds": [1.0]},
        },
        "grid": {"half_width": 12.0},
        "solver": {"damping": 0.8, "tol": 1e-7, "max_iter": 100},
        "sweep": {
            "sigma_grid": [0.0, 0.05],
            "horizon_grid": [0.5, 1.0],
            "nx": 33,
            "nt_per_unit": 16,
        },
    }


def test_run_sweep_small_table(tmp_path):
    out = run_sweep(_sweep_cfg(), out_dir=str(tmp_path / "sweep"))
    assert len(out["cells"]) == 4
    assert all(c["verdict"] == "converged" for c in out["cells"])
    assert out["empirical_sigma_threshold"] == 0.05

    table = _read_csv(os.path.join(out["out_dir"], "table.csv"))
    assert table[0] == ["sigma", "T", "verdict", "T_star", "D_final", "iterations"]
    assert len(table) == 5
    boundary = _read_csv(os.path.join(out["out_dir"], "boundary.csv"))
    assert boundary[0] == ["sigma", "e0", "T_star"]
    assert len(boundary) == 3


def test_run_sweep_parallel_matches_serial(tmp_path):
    tables = []
    for workers in (1, 2):
        cfg = _sweep_cfg()
        cfg["sweep"]["workers"] = workers
        out = run_sweep(cfg, out_dir=str(tmp_path / f"workers{workers}"))
        with open(os.path.join(out["out_dir"], "table.csv"), "rb") as fh:
            tables.append(fh.read())
    assert tables[0] == tables[1]


@pytest.mark.parametrize("applies, converged, levels, verdict", [
    # converged without a certificate: the base run decides
    (False, [True, False, False], [0], "converged"),
    # diverged under a certificate: the base run decides
    (True, [False, True, True], [0], "certified_nonexistent_and_non_convergent"),
    # diverged at every level: divergence is confirmed on every refined grid
    (False, [False, False, False], [0, 1, 2], "non_convergent"),
    # a diverged base run that converges once refined
    (False, [False, True, False], [0, 1], "converged"),
    # converged under a certificate, resolved by divergence at level 1
    (True, [True, False, True], [0, 1], "certified_nonexistent_and_non_convergent"),
    # converged under a certificate at every level: the contradiction stands
    (True, [True, True, True], [0, 1, 2], "certified_nonexistent_but_converged"),
])
def test_sweep_cell_refines_until_the_verdict_agrees_with_the_certificate(
    tmp_path, monkeypatch, applies, converged, levels, verdict
):
    certificate = SimpleNamespace(
        t_star=1.0 if applies else None, e0=1.0, applies_at=lambda horizon: applies
    )
    grids = []

    def scripted(problem, grid, solver_cfg, fields=None):
        level = len(grids)
        grids.append(grid)
        return SolveOutcome(
            verdict="converged" if converged[level] else "diverged",
            iterations=10 + level, residual_history=[], d_history=[], d_final=float(level),
        )

    monkeypatch.setattr(runs_module, "solve", scripted)
    monkeypatch.setattr(runs_module, "compute_nonexistence_certificate",
                        lambda *args, **kwargs: certificate)
    cfg = _sweep_cfg()
    cfg["sweep"].update(sigma_grid=[20.0], horizon_grid=[2.0], confirm_rounds=2)
    (cell,) = run_sweep(cfg, out_dir=str(tmp_path / "sweep"))["cells"]

    assert [r["level"] for r in cell["runs"]] == levels
    assert cell["refine_level"] == levels[-1]
    assert cell["iterations"] == 10 + levels[-1]
    assert cell["verdict"] == verdict
    base = Grid(dim=1, half_width=12.0, nx=33, nt=32, horizon=2.0)
    expected = [(base.refined(2**k).nx, base.refined(2**k).nt) for k in levels]
    assert [(g.nx, g.nt) for g in grids] == expected
    assert [(r["nx"], r["nt"]) for r in cell["runs"]] == expected


def test_run_sweep_caps_the_pool_at_the_cell_count(tmp_path, monkeypatch):
    # a fork pool starts max_workers processes up front; this one only records the size
    import concurrent.futures

    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    cfg = _sweep_cfg()
    cfg["sweep"].update(sigma_grid=[0.05], workers=10**6)
    out = run_sweep(cfg, out_dir=str(tmp_path / "sweep"))
    assert sizes == [2]
    assert [c["verdict"] for c in out["cells"]] == ["converged", "converged"]


def test_run_sweep_reports_config_error_from_workers(tmp_path):
    cfg = _sweep_cfg()
    cfg["problem"]["initial_density"]["means"] = [[100.0]]
    cfg["sweep"]["workers"] = 2
    with pytest.raises(ConfigError) as exc:
        run_sweep(cfg, out_dir=str(tmp_path / "sweep"))
    assert exc.value.keys == ["problem.initial_density"]
    assert "nonpositive mass" in str(exc.value)


def test_run_sweep_rejects_unsorted_grid(tmp_path):
    cfg = {
        "problem": {"initial_density": {"weights": [1.0], "means": [[0.0]], "stds": [1.0]}},
        "sweep": {"sigma_grid": [1.0, 0.5], "horizon_grid": [1.0]},
    }
    with pytest.raises(ConfigError):
        run_sweep(cfg, out_dir=str(tmp_path / "sweep"))


# ---------------------------------------------------------------------------
# long-time series


def test_run_longtime_requires_zero_potential(tmp_path):
    cfg = {
        "problem": {
            "sigma": 0.0,
            "potential": {"family": "gaussian_well", "amplitude": -1.0, "width": 1.0},
            "initial_density": {"weights": [1.0], "means": [[0.0]], "stds": [1.0]},
        },
        "longtime": {"horizons": [1.0, 2.0]},
    }
    with pytest.raises(ConfigError) as exc:
        run_longtime(cfg, out_dir=str(tmp_path / "lt"))
    assert "problem.potential.family" in exc.value.keys


def test_run_longtime_heat_flow_series(tmp_path):
    cfg = {
        "problem": {
            "dim": 1,
            "sigma": 0.0,
            "alpha": 2.0,
            "initial_density": {"weights": [1.0], "means": [[0.0]], "stds": [1.0]},
        },
        "grid": {"half_width": 12.0},
        "solver": {"damping": 1.0},
        "longtime": {"horizons": [1.0, 2.0, 4.0, 8.0], "nx": 129, "nt_per_unit": 100},
    }
    out = run_longtime(cfg, out_dir=str(tmp_path / "lt"))
    rows = out["series"]
    assert [r["verdict"] for r in rows] == ["converged"] * 4

    # heat flow from unit-variance data: D(T) integrates the fifth power of
    # a Gaussian whose variance grows as 1 + 2t
    def d_exact(T):
        return (1.0 / (4.0 * math.pi**2 * math.sqrt(5.0))) * 0.5 * (1.0 - 1.0 / (1.0 + 2.0 * T))

    for r in rows:
        assert r["d_final"] == pytest.approx(d_exact(r["horizon"]), rel=2e-2)
    rescaled = [r["rescaled"] for r in rows]
    assert all(b < a for a, b in zip(rescaled, rescaled[1:]))

    meta = json.load(open(os.path.join(out["out_dir"], "metadata.json")))
    assert meta["d_ratio"] == pytest.approx(rows[-1]["d_final"] / rows[0]["d_final"], rel=1e-12)


# ---------------------------------------------------------------------------
# certify and kernelcheck


def test_run_certify_supercritical(tmp_path):
    cfg = _solve_cfg(sigma=20.0, horizon=8.0, nt=64)
    cfg["certify"] = {
        "optimize_shift": False,
        "terminal_density": {"weights": [1.0], "means": [[0.0]], "stds": [1.0]},
    }
    out = run_certify(cfg, out_dir=str(tmp_path / "cert"))
    cert = out["certificate"]
    e0 = -0.5 + 20.0 / (6.0 * math.pi * math.sqrt(3.0))
    assert cert["e0"] == pytest.approx(e0, abs=1e-6)
    assert cert["t_star"] is not None
    assert out["certificate_applies"] is True  # horizon 8 > t_star ~ 6.55
    assert out["planning"]["t_hat"] == pytest.approx(math.sqrt(2.0 / e0), abs=1e-4)
    payload = json.load(open(os.path.join(out["out_dir"], "certificate.json")))
    assert payload["certificate"]["e0"] == cert["e0"]


def test_run_certify_samples_the_problem_once(tmp_path, monkeypatch):
    sample = problem_module.sample_on_grid
    calls = []

    def counting(p, grid):
        calls.append(grid)
        return sample(p, grid)

    for module in (problem_module, solver_module, diagnostics_module, runs_module):
        monkeypatch.setattr(module, "sample_on_grid", counting)
    cfg = _solve_cfg(sigma=20.0, horizon=8.0, nt=64)
    cfg["certify"] = {
        "optimize_shift": True,
        "terminal_density": {"weights": [1.0], "means": [[0.0]], "stds": [1.0]},
    }
    out = run_certify(cfg, out_dir=str(tmp_path / "cert"))
    assert out["planning"] is not None
    assert len(calls) == 1


def test_run_certify_builds_one_condition_report(tmp_path, monkeypatch):
    check = diagnostics_module.check_structural_conditions
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return check(*args, **kwargs)

    monkeypatch.setattr(diagnostics_module, "check_structural_conditions", counting)
    cfg = _solve_cfg(sigma=20.0, horizon=8.0, nt=64)
    cfg["certify"] = {"terminal_density": {"weights": [1.0], "means": [[0.0]], "stds": [1.0]}}
    out = run_certify(cfg, out_dir=str(tmp_path / "cert"))
    # the planning certificate reads the nonexistence certificate's report
    assert out["planning"]["conditions"]["coercive_coupling"] == out["conditions"]["coercive_coupling"]
    assert len(calls) == 1


def test_run_certify_evaluates_e0_terms_once(tmp_path, monkeypatch):
    terms = diagnostics_module.e0_terms
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return terms(*args, **kwargs)

    for module in (diagnostics_module, runs_module):
        monkeypatch.setattr(module, "e0_terms", counting, raising=False)
    cfg = _solve_cfg(sigma=20.0, horizon=8.0, nt=64)
    cfg["certify"] = {
        "optimize_shift": True,
        "terminal_density": {"weights": [1.0], "means": [[0.0]], "stds": [1.0]},
    }
    out = run_certify(cfg, out_dir=str(tmp_path / "cert"))
    assert len(calls) == 1
    # the report's terms and both certificates' e0 come from that one call
    e0_terms = out["e0_terms"]
    e0 = -0.5 * e0_terms["fisher"] + e0_terms["coupling"] - e0_terms["potential"]
    assert out["certificate"]["e0"] == out["planning"]["e0"] == e0
    assert "terms" not in out["certificate"]


TERMINAL = {"weights": [1.0], "means": [[1.0]], "stds": [1.0]}


@pytest.mark.parametrize("half_width,std,terminal,term", [
    # the unit-mass density is about 1e153 at the nodes: F(m0) overflows
    (8e-154, 1.0, None, "coupling"),
    (8e-154, 1.0, TERMINAL, "coupling"),
    # |grad m0|^2 overflows at the nodes next to a peak of height 1e80
    (1e-79, 1e-80, TERMINAL, "fisher"),
])
def test_cli_certify_refuses_a_non_finite_e0(tmp_path, capsys, half_width, std, terminal, term):
    cfg = _solve_cfg(sigma=5.0, nx=9, nt=4)
    cfg["grid"]["half_width"] = half_width
    cfg["problem"]["initial_density"]["stds"] = [std]
    cfg["certify"] = {"terminal_density": terminal}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["certify", str(cfg_path), "--output", str(tmp_path / "out")]) == 0
    assert "no certificate: e0 is not finite" in capsys.readouterr().out
    payload = json.load(open(tmp_path / "out" / "certificate.json"))
    assert payload["certificate"]["e0"] in ("inf", "-inf")
    assert payload["certificate"]["t_star"] is None
    assert payload["certificate_applies"] is False
    assert payload["certificate"]["notes"].endswith(f"non-finite e0_terms: {term}")
    if terminal is None:
        assert payload["planning"] is None
    else:
        assert payload["planning"]["t_hat"] is None
        assert payload["planning"]["notes"] == payload["certificate"]["notes"]


def test_run_kernelcheck_default_queries(tmp_path):
    out = run_kernelcheck({}, out_dir=str(tmp_path / "kc"))
    by_key = {(r["dim"], r["exponent"], r["kind"]): r for r in out["rows"]}
    assert by_key[(1, 2.0, "kernel")]["status"] == "fit"
    assert by_key[(1, 3.0, "kernel")]["status"] == "boundary"
    assert by_key[(2, 3.0, "kernel")]["status"] == "divergent"
    assert by_key[(1, 1.0, "gradient")]["status"] == "fit"
    assert by_key[(1, 1.2, "gradient")]["status"] == "fit"
    table = _read_csv(os.path.join(out["out_dir"], "exponents.csv"))
    assert len(table) == 6


def _csv_text_rows(path):
    """The rows of a CSV file, after checking that every line ends in CRLF."""
    text = Path(path).read_bytes().decode()
    lines = text.split("\r\n")
    assert lines[-1] == "" and "\n" not in "".join(lines)
    return [line.split(",") for line in lines[:-1]]


def _longtime_cfg():
    cfg = _sweep_cfg()
    cfg["problem"]["sigma"] = 0.0
    cfg["longtime"] = {"horizons": [0.5, 1.0], "nx": 33, "nt_per_unit": 16}
    del cfg["sweep"]
    return cfg


def test_report_csv_format(tmp_path):
    # CRLF line ends, an empty cell for None, integers as integer text and
    # floats that read back to the same value
    out = run_sweep(_sweep_cfg(), out_dir=str(tmp_path / "sweep"))
    rows = _csv_text_rows(os.path.join(out["out_dir"], "table.csv"))
    assert rows[0] == ["sigma", "T", "verdict", "T_star", "D_final", "iterations"]
    assert len(rows) == 1 + len(out["cells"])
    for row, cell in zip(rows[1:], out["cells"]):
        assert float(row[0]) == cell["sigma"]
        assert float(row[1]) == cell["horizon"]
        assert row[2] == cell["verdict"]
        assert cell["t_star"] is None and row[3] == ""
        assert float(row[4]) == cell["d_final"]
        assert row[5] == str(cell["iterations"]) and row[5].isdigit()

    out = run_longtime(_longtime_cfg(), out_dir=str(tmp_path / "lt"))
    rows = _csv_text_rows(os.path.join(out["out_dir"], "series.csv"))
    assert rows[0] == ["T", "verdict", "D_final", "rescaled", "iterations"]
    assert len(rows) == 3
    for row, r in zip(rows[1:], out["series"]):
        assert float(row[0]) == r["horizon"]
        assert row[1] == r["verdict"] == "converged"
        assert float(row[2]) == r["d_final"]
        assert float(row[3]) == r["rescaled"]
        assert row[4] == str(r["iterations"]) and row[4].isdigit()

    queries = [{"dim": 1, "exponent": 2.0}, {"dim": 2, "exponent": 3.0, "t": 0.5}]
    out = run_kernelcheck({"kernel": {"queries": queries}}, out_dir=str(tmp_path / "kc"))
    rows = _csv_text_rows(os.path.join(out["out_dir"], "exponents.csv"))
    assert rows[0] == ["dim", "exponent", "kind", "t", "status",
                       "analytic_exponent", "fitted_exponent", "value"]
    assert [row[0] for row in rows[1:]] == ["1", "2"]
    assert [row[4] for row in rows[1:]] == ["fit", "divergent"]
    fit, divergent = out["rows"]
    for row, r in zip(rows[1:], out["rows"]):
        assert float(row[1]) == r["exponent"]
        assert row[2] == r["kind"] == "kernel"
        assert float(row[3]) == r["t"]
        assert float(row[5]) == r["analytic_exponent"]
    assert float(rows[1][6]) == fit["fitted_exponent"]
    assert float(rows[1][7]) == fit["value"]
    assert divergent["fitted_exponent"] is None and rows[2][6:] == ["", ""]


@pytest.mark.parametrize("command, cfg, changes, keys", [
    ("solve", _solve_cfg(nx=17, nt=8),
     {"problem.sigma": -1.0, "output.snapshots": 1, "output.label": ["a"]},
     ["output.label", "output.snapshots", "problem.sigma"]),
    ("certify", _solve_cfg(nx=17, nt=8),
     {"problem.sigma": -1.0, "certify.optimize_shift": "yes"},
     ["certify.optimize_shift", "problem.sigma"]),
    ("sweep", _sweep_cfg(), {"sweep.nx": 32, "solver.damping": 2.0},
     ["solver.damping", "sweep.nx"]),
    ("longtime", _longtime_cfg(), {"longtime.nx": 32, "solver.damping": 2.0},
     ["longtime.nx", "solver.damping"]),
    ("kernelcheck", {}, {"kernel.queries": [{"dim": 3, "exponent": 2.0}], "output.label": 5},
     ["kernel.queries[0]", "output.label"]),
], ids=["solve", "certify", "sweep", "longtime", "kernelcheck"])
def test_each_command_names_every_bad_key_in_one_error(
    tmp_path, monkeypatch, command, cfg, changes, keys
):
    cfg = json.loads(json.dumps(cfg))
    for path, value in changes.items():
        section, key = path.split(".")
        cfg.setdefault(section, {})[key] = value

    def no_work(*args, **kwargs):
        raise AssertionError("work began before the config error")

    for name in ("sample_on_grid", "solve", "heat_kernel_spacetime_norm"):
        monkeypatch.setattr(runs_module, name, no_work)
    monkeypatch.chdir(tmp_path)
    run = {"solve": run_single, "certify": run_certify, "sweep": run_sweep,
           "longtime": run_longtime, "kernelcheck": run_kernelcheck}[command]
    with pytest.raises(ConfigError) as exc:
        run(cfg)
    assert exc.value.keys == keys
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command", ["solve", "certify", "sweep", "longtime"])
@pytest.mark.parametrize("problem", [[], "x"])
def test_a_problem_section_that_is_not_an_object_is_named_alone(tmp_path, command, problem):
    cfg = {"sweep": _sweep_cfg(), "longtime": _longtime_cfg()}.get(command, _solve_cfg())
    cfg["problem"] = problem
    run = {"solve": run_single, "certify": run_certify, "sweep": run_sweep,
           "longtime": run_longtime}[command]
    with pytest.raises(ConfigError) as exc:
        run(cfg, out_dir=str(tmp_path / "out"))
    assert exc.value.keys == ["problem"]


# ---------------------------------------------------------------------------
# command line


def test_cli_solve_roundtrip(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_solve_cfg(sigma=0.0)))
    code = main(["solve", str(cfg_path), "--output", str(tmp_path / "out")])
    assert code == 0
    assert "verdict: converged" in capsys.readouterr().out


def test_cli_bad_config_exits_two(tmp_path, capsys):
    cfg = _solve_cfg()
    cfg["grid"]["nx"] = 10
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main(["solve", str(cfg_path)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("table", [
    {"values": [0.0] * 3, "gradient": [0.0] * 3, "laplacian": [0.0] * 3},
    {"values": ["x"] * 17, "gradient": [0.0] * 17, "laplacian": [0.0] * 17},
])
def test_cli_user_table_off_grid_exits_two(tmp_path, capsys, table):
    cfg = _solve_cfg(nx=17, nt=8)
    cfg["problem"]["potential"] = {"family": "user_table", "table": table}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main(["solve", str(cfg_path), "--output", str(tmp_path / "out")])
    assert code == 2
    assert "problem.potential.table" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("laplacian", [False, True])
def test_cli_user_table_needs_no_laplacian(tmp_path, capsys, laplacian):
    # no computation reads a potential's Laplacian; a table with one still runs
    table = {"values": [0.0] * 17, "gradient": [0.0] * 17}
    if laplacian:
        table["laplacian"] = [0.0] * 17
    cfg = _solve_cfg(nx=17, nt=8)
    cfg["problem"]["potential"] = {"family": "user_table", "table": table}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["solve", str(cfg_path), "--output", str(tmp_path / "out")]) == 0
    assert "verdict: converged" in capsys.readouterr().out


OFF_GRID = {"weights": [1.0], "means": [[100.0]], "stds": [1.0]}
# a std whose square underflows: the sampled Gaussian has no finite mass
NARROW = {"weights": [1.0], "means": [[0.0]], "stds": [1e-300]}
# a std whose square is subnormal: a finite mass, but a NaN gradient
SPIKE = {"weights": [1.0], "means": [[0.0]], "stds": [1e-160]}
NO_MASS = "nonpositive mass"
NOT_FINITE = "not finite on the grid nodes: problem.initial_density"


@pytest.mark.parametrize("command,density,mixture,message", [
    pytest.param("solve", "problem.initial_density", OFF_GRID, NO_MASS,
                 id="solve-problem.initial_density"),
    pytest.param("certify", "certify.terminal_density", OFF_GRID, NO_MASS,
                 id="certify-certify.terminal_density"),
    pytest.param("solve", "problem.initial_density", NARROW, NO_MASS,
                 id="solve-problem.initial_density-narrow"),
    pytest.param("certify", "certify.terminal_density", NARROW, NO_MASS,
                 id="certify-certify.terminal_density-narrow"),
    pytest.param("solve", "problem.initial_density", SPIKE, NOT_FINITE,
                 id="solve-problem.initial_density-spike"),
    pytest.param("certify", "problem.initial_density", SPIKE, NOT_FINITE,
                 id="certify-problem.initial_density-spike"),
])
def test_cli_density_off_grid_exits_two(tmp_path, capsys, command, density, mixture, message):
    cfg = _solve_cfg(nx=17, nt=8)
    cfg["grid"]["half_width"] = 6.0
    section, key = density.split(".")
    cfg.setdefault(section, {})[key] = mixture
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main([command, str(cfg_path), "--output", str(tmp_path / "out")])
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command,section,key,value", [
    ("sweep", "problem", None, []),
    ("longtime", "problem", None, "x"),
    ("longtime", "output", "directory", 5),
    ("solve", "output", "directory", 5),
    ("solve", "output", "label", ["a"]),
    ("sweep", "output", "label", ["a"]),
    ("sweep", "problem", None, None),
    # a section read as an object is named when it holds anything else
    ("solve", "solver", None, 5),
    ("certify", "certify", None, []),
    ("solve", "output", None, []),
    ("kernelcheck", "kernel", None, []),
    ("solve", "problem", "potential", []),
    ("certify", "problem", "potential", []),
    # a query's dim is compared by type: true and 1.0 are not 1
    ("kernelcheck", "kernel", "queries", [{"dim": True, "exponent": 2.0}]),
    ("kernelcheck", "kernel", "queries", [{"dim": 1, "exponent": 2}, {"dim": 1.0, "exponent": 2}]),
])
def test_cli_bad_section_shape_exits_two_before_any_solve(
    tmp_path, monkeypatch, capsys, command, section, key, value
):
    cfg = _solve_cfg(nx=17, nt=8)
    cfg["problem"].pop("horizon")
    if command == "sweep":
        cfg["sweep"] = {"sigma_grid": [0.0], "horizon_grid": [1.0], "nx": 17, "nt_per_unit": 8}
    elif command == "longtime":
        cfg["longtime"] = {"horizons": [1.0, 2.0], "nx": 17, "nt_per_unit": 8}
    else:
        cfg["problem"]["horizon"] = 1.0
    if key is None:
        cfg[section] = value
    else:
        cfg.setdefault(section, {})[key] = value

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran before the config error")

    monkeypatch.setattr(runs_module, "solve", no_solve)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert main([command, "cfg.json"]) == 2
    name = section if key is None else f"{section}.{key}"
    assert name in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["cfg.json"]


# an integer past the float range: float() of it raises OverflowError
HUGE = 10**400


@pytest.mark.parametrize("command,key,value", [
    pytest.param(command, key, value, id=f"{command}-{key}")
    for command, key, value in [
        ("solve", "problem.sigma", HUGE),  # _Checker.number
        ("solve", "grid.half_width", HUGE),
        ("certify", "problem.horizon", HUGE),
        ("solve", "problem.initial_density.stds", [HUGE]),  # _Checker.number_list
        ("solve", "problem.initial_density.means", [[HUGE]]),  # _mixture_from
        ("certify", "problem.initial_density.means", [HUGE]),
    ]
])
def test_cli_huge_integer_in_a_float_key_exits_two(tmp_path, capsys, command, key, value):
    cfg = _solve_cfg(nx=17, nt=8)
    *parents, last = key.split(".")
    node = cfg
    for part in parents:
        node = node[part]
    node[last] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main([command, str(cfg_path), "--output", str(tmp_path / "out")]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# grids whose (nt+1) x nx**dim trajectory numpy rejects before it allocates
SERIES = {
    "sweep": {"sigma_grid": [0.0], "horizon_grid": [1.0], "nx": 17, "nt_per_unit": 8},
    "longtime": {"horizons": [1.0], "nx": 17, "nt_per_unit": 8},
}


@pytest.mark.parametrize("command,changes,key", [
    ("solve", {"grid": {"nt": 10**30}}, "grid.nt"),  # linspace cannot cast the count
    ("solve", {"grid": {"nt": 2**62}}, "grid.nt"),  # iterator is too large
    ("certify", {"grid": {"nx": 10**30 + 1}}, "grid.nx"),  # maximum allowed size exceeded
    ("sweep", {"sweep": {"nt_per_unit": 1e300}}, "sweep.nt_per_unit"),
    ("longtime", {"longtime": {"nt_per_unit": 1e300}}, "longtime.nt_per_unit"),
    # 1e300 steps per unit over 1e10 units: math.ceil of inf overflows
    ("longtime", {"longtime": {"horizons": [1e10], "nt_per_unit": 1e300}}, "longtime.nt_per_unit"),
], ids=["nt-1e30", "nt-2**62", "nx-1e30", "sweep-steps", "longtime-steps", "longtime-inf-steps"])
def test_cli_grid_too_large_for_numpy_exits_two(tmp_path, capsys, command, changes, key):
    cfg = _solve_cfg(nx=17, nt=8)
    cfg.update({name: dict(section) for name, section in SERIES.items()})
    for section, values in changes.items():
        cfg[section].update(values)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main([command, str(cfg_path), "--output", str(tmp_path / "out")]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_kernelcheck_no_config(tmp_path, capsys):
    code = main(["kernelcheck", "--output", str(tmp_path / "kc")])
    assert code == 0
    out = capsys.readouterr().out
    assert "boundary" in out and "divergent" in out


def test_cli_certify(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_solve_cfg(sigma=20.0, horizon=8.0)))
    code = main(["certify", str(cfg_path), "--output", str(tmp_path / "cert")])
    assert code == 0
    out = capsys.readouterr().out
    assert "T_star" in out
