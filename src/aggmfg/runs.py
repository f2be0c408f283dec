"""Command-level runs: single solve, phase sweep, long-time series,
certificates, and the heat-kernel exponent table.

Every command writes deterministic artifacts: CSV numbers at 17 significant
digits, JSON with sorted keys, and no wall-clock content inside any file
(directory names may carry a timestamp; file bytes never do).
"""

from __future__ import annotations

import copy
import csv
import dataclasses
import json
import math
import os
import time

import numpy as np

from . import config as cfgmod
from .diagnostics import (
    check_moment_identity,
    compute_apriori,
    compute_energy,
    compute_nonexistence_certificate,
    compute_planning_certificate,
)
from .discretization import Grid, write_field_csv
from .errors import ConfigError, KernelNormDivergenceError
from .parabolic import (
    HeatKernelQuery,
    heat_kernel_spacetime_norm,
)
from .problem import sample_on_grid
from .solver import solve

DEFAULT_KERNEL_QUERIES = (
    {"dim": 1, "exponent": 2.0, "t": 1.0, "kind": "kernel"},
    {"dim": 1, "exponent": 3.0, "t": 1.0, "kind": "kernel"},
    {"dim": 2, "exponent": 3.0, "t": 1.0, "kind": "kernel"},
    {"dim": 1, "exponent": 1.0, "t": 1.0, "kind": "gradient"},
    {"dim": 1, "exponent": 1.2, "t": 1.0, "kind": "gradient"},
)


def _g17(x) -> str:
    if x is None:
        return ""
    return format(float(x), ".17g")


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _clean(obj):
    """JSON-safe copy: numpy scalars to python, non-finite floats to text."""
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_clean(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return x if math.isfinite(x) else repr(x)
    return obj


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(_clean(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def prepare_out_dir(cfg: dict, command: str, out_dir=None) -> str:
    """Timestamped directory under output.directory unless one is given.
    A non-string output.directory or output.label is a ConfigError."""
    chk = cfgmod._Checker(cfg)
    root = chk.string("output.directory", "runs")
    label = chk.string("output.label", "")
    chk.raise_if_bad()
    if out_dir is None:
        stem = f"{command}-{label}" if label else command
        stamp = time.strftime("%Y%m%d-%H%M%S")
        candidate = os.path.join(root, f"{stem}-{stamp}")
        k = 1
        out_dir = candidate
        while os.path.exists(out_dir):
            out_dir = f"{candidate}-{k}"
            k += 1
    os.makedirs(out_dir, exist_ok=True)
    return out_dir


def _snapshot_indices(cfg: dict, nt: int) -> list[int]:
    chk = cfgmod._Checker(cfg)
    count = chk.integer("output.snapshots", default=5, minimum=2)
    chk.raise_if_bad()
    return sorted(set(np.linspace(0, nt, min(count, nt + 1)).round().astype(int).tolist()))


def run_single(cfg: dict, out_dir=None) -> dict:
    """Solve one problem and write the full diagnostic record."""
    problem, grid, solver_cfg = cfgmod.build_run(cfg)
    snap = _snapshot_indices(cfg, grid.nt)

    # sampling the data on the grid reports the last config errors, before any
    # output; every later step reads these fields instead of sampling again
    fields = sample_on_grid(problem, grid)
    certificate = compute_nonexistence_certificate(problem, grid, fields=fields)
    out_dir = prepare_out_dir(cfg, "solve", out_dir)
    outcome = solve(problem, grid, solver_cfg, fields=fields)

    reports_dir = os.path.join(out_dir, "reports")
    fields_dir = os.path.join(out_dir, "fields")
    os.makedirs(reports_dir, exist_ok=True)
    os.makedirs(fields_dir, exist_ok=True)

    grid_meta = dict(dataclasses.asdict(grid), dx=grid.dx, dt=grid.dt)
    _write_json(os.path.join(fields_dir, "grid.json"), grid_meta)
    _write_csv(
        os.path.join(reports_dir, "residuals.csv"),
        ["iteration", "residual", "d_value"],
        [
            [str(i + 1), _g17(r), _g17(d)]
            for i, (r, d) in enumerate(zip(outcome.residual_history, outcome.d_history))
        ],
    )

    energy = moments = apriori = None
    if outcome.converged:
        for idx in snap:
            tag = f"{idx:05d}"
            write_field_csv(os.path.join(fields_dir, f"m_{tag}.csv"), grid, outcome.m[idx])
            write_field_csv(os.path.join(fields_dir, f"u_{tag}.csv"), grid, outcome.u[idx])
            write_field_csv(os.path.join(fields_dir, f"w_{tag}.csv"), grid, outcome.w[idx])
        energy = compute_energy(outcome.u, outcome.m, problem, grid, fields=fields)
        moments = check_moment_identity(
            outcome.u, outcome.m, problem, grid, energy=energy, fields=fields
        )
        apriori = compute_apriori(outcome.d_final, problem)
        _write_csv(
            os.path.join(reports_dir, "energy.csv"),
            ["time", "total", "cross", "kinetic", "coupling", "potential"],
            [
                [_g17(energy.times[j]), _g17(energy.total[j]), _g17(energy.cross[j]),
                 _g17(energy.kinetic[j]), _g17(energy.coupling[j]), _g17(energy.potential[j])]
                for j in range(len(energy.times))
            ],
        )
        _write_csv(
            os.path.join(reports_dir, "moments.csv"),
            ["time", "mass", "tail_mass", "abs_moment", "h"],
            [
                [_g17(moments.times[j]), _g17(moments.mass[j]), _g17(moments.tail_mass[j]),
                 _g17(moments.abs_moment[j]), _g17(moments.h[j])]
                for j in range(len(moments.times))
            ],
        )
        _write_csv(
            os.path.join(reports_dir, "moment_residuals.csv"),
            ["time", "hprime", "rhs_first", "hsecond", "rhs_second"],
            [
                [_g17(t), _g17(h1), _g17(r1), _g17(h2), _g17(r2)]
                for t, h1, r1, h2, r2 in zip(
                    moments.times[1:-1], moments.hprime, moments.rhs_first[1:-1],
                    moments.hsecond, moments.rhs_second[1:-1],
                )
            ],
        )

    metadata = {
        "command": "solve",
        "config": cfg,
        "verdict": outcome.verdict,
        "iterations": outcome.iterations,
        "note": outcome.note,
        "residual_final": outcome.residual_history[-1] if outcome.residual_history else None,
        "d_final": outcome.d_final,
        "conditions": certificate.conditions.as_dict(),
        "certificate": certificate.as_dict(),
        "certificate_applies": certificate.applies_at(problem.horizon),
        "consistency": None,
        "energy": None,
        "moments": None,
        "apriori": None,
        "snapshot_indices": snap,
        "snapshot_times": [grid.times[i] for i in snap],
    }
    if outcome.converged:
        metadata["consistency"] = {
            "hjb_residual": outcome.hjb_residual,
            "fp_residual": outcome.fp_residual,
            "resolve_residual": outcome.resolve_residual,
        }
        metadata["energy"] = {
            "initial": energy.total[0],
            "final": energy.total[-1],
            "drift": energy.drift,
        }
        metadata["moments"] = {
            "r1": moments.r1,
            "r2": moments.r2,
            "mass_step_drift": moments.mass_step_drift,
            "tail_mass_max": float(np.max(moments.tail_mass)),
            "min_hsecond": moments.min_hsecond,
        }
        metadata["apriori"] = {
            "d_value": apriori.d_value,
            "exponent_q": apriori.exponent_q,
            "exponent_delta": apriori.exponent_delta,
            "beta": apriori.beta,
            "growth_a": apriori.growth_a,
        }
    _write_json(os.path.join(out_dir, "metadata.json"), metadata)

    return {
        "out_dir": out_dir,
        "verdict": outcome.verdict,
        "iterations": outcome.iterations,
        "d_final": outcome.d_final,
    }


# --- horizon series --------------------------------------------------------

def _horizon_section(chk, section: str, horizons_key: str, nx: int, nt_per_unit: float):
    """Positive ascending horizons and the grid rule (half_width, nx, nt_per_unit)
    of a sweep or long-time section; nx and nt_per_unit are the defaults.
    The problem section, which both commands set keys of, must be an object."""
    if not isinstance(chk.get("problem", {}), dict):
        chk.bad.append("problem")
    horizons = chk.number_list(f"{section}.{horizons_key}", required=True, ascending=True)
    if horizons is not None and any(t <= 0 for t in horizons):
        chk.bad.append(f"{section}.{horizons_key}")
    nx = chk.integer(f"{section}.nx", default=nx, minimum=3)
    if nx is not None and nx % 2 == 0:
        chk.bad.append(f"{section}.nx")
    nt_per_unit = chk.number(f"{section}.nt_per_unit", default=nt_per_unit, strict_min=0.0)
    half_width = chk.number("grid.half_width", default=12.0, strict_min=0.0)
    return horizons, (half_width, nx, nt_per_unit)


def _set_problem(cfg: dict, **values):
    """The ProblemSpec of cfg's problem section with the given keys set, in a copy."""
    cell_cfg = copy.deepcopy(cfg)
    cell_cfg["problem"] = {**(cell_cfg.get("problem") or {}), **values}
    return cfgmod.build_problem(cell_cfg)


def _horizon_grid(dim: int, rule: tuple, horizon: float) -> Grid:
    """The grid of one horizon: nx nodes, nt_per_unit steps per unit time (at least one)."""
    half_width, nx, nt_per_unit = rule
    nt = max(1, math.ceil(nt_per_unit * horizon))
    return Grid(dim=dim, half_width=half_width, nx=nx, nt=nt, horizon=horizon)


# --- phase sweep -----------------------------------------------------------

def _sweep_sections(cfg: dict):
    chk = cfgmod._Checker(cfg)
    sigma_grid = chk.number_list("sweep.sigma_grid", required=True, minimum=0.0, ascending=True)
    horizon_grid, rule = _horizon_section(chk, "sweep", "horizon_grid", 65, 60.0)
    confirm_rounds = chk.integer("sweep.confirm_rounds", default=2, minimum=0)
    workers = chk.integer("sweep.workers", default=1, minimum=1)
    chk.raise_if_bad()
    return sigma_grid, horizon_grid, rule, confirm_rounds, workers


def _sweep_cell(job: dict) -> dict:
    """One (sigma, horizon) cell, including refinement confirmation.

    Level k solves on the base grid refined 2**k times. A run that agrees
    with the certificate (converged where none applies, diverged where one
    does) decides the cell. Otherwise the next level re-solves, so that a
    diverged run is only labeled non-convergent after it stays diverged on
    refined grids, and a converged run under a certificate is confirmed the
    same way before the contradiction is written.
    """
    template = job["problem"]
    coupling = dataclasses.replace(template.coupling, sigma=job["sigma"])
    problem = dataclasses.replace(template, coupling=coupling, horizon=job["horizon"])
    solver_cfg = job["solver"]

    base = _horizon_grid(problem.dim, job["rule"], job["horizon"])
    fields = sample_on_grid(problem, base)
    certificate = compute_nonexistence_certificate(problem, base, fields=fields)
    applies = certificate.applies_at(job["horizon"])

    runs = []
    for level in range(job["confirm_rounds"] + 1):
        grid = base.refined(2**level)
        outcome = solve(problem, grid, solver_cfg, fields=None if level else fields)
        runs.append({
            "level": level, "nx": grid.nx, "nt": grid.nt,
            "verdict": outcome.verdict, "iterations": outcome.iterations,
            "d_final": outcome.d_final,
        })
        if outcome.converged != applies:
            break

    deciding = runs[-1]
    empirical = outcome.converged
    if applies and empirical:
        verdict = "certified_nonexistent_but_converged"
    elif applies:
        verdict = "certified_nonexistent_and_non_convergent"
    elif empirical:
        verdict = "converged"
    else:
        verdict = "non_convergent"
    return {
        "sigma": job["sigma"],
        "horizon": job["horizon"],
        "verdict": verdict,
        "t_star": certificate.t_star,
        "e0": certificate.e0,
        "d_final": deciding["d_final"],
        "iterations": deciding["iterations"],
        "refine_level": deciding["level"],
        "runs": runs,
    }


def run_sweep(cfg: dict, out_dir=None) -> dict:
    """Phase table over a (sigma, horizon) grid, cells independent."""
    sigma_grid, horizon_grid, rule, confirm_rounds, workers = _sweep_sections(cfg)
    # build the problem once, before paying for any cell; each cell sets its sigma and horizon
    problem = _set_problem(cfg, sigma=sigma_grid[0], horizon=horizon_grid[0])
    solver_cfg = cfgmod.build_solver(cfg)
    out_dir = prepare_out_dir(cfg, "sweep", out_dir)

    jobs = [
        {
            "problem": problem, "solver": solver_cfg, "sigma": s, "horizon": t, "rule": rule,
            "confirm_rounds": confirm_rounds,
        }
        for s in sigma_grid
        for t in horizon_grid
    ]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            cells = list(pool.map(_sweep_cell, jobs))
    else:
        cells = [_sweep_cell(job) for job in jobs]
    cells.sort(key=lambda c: (c["sigma"], c["horizon"]))

    _write_csv(
        os.path.join(out_dir, "table.csv"),
        ["sigma", "T", "verdict", "T_star", "D_final", "iterations"],
        [
            [_g17(c["sigma"]), _g17(c["horizon"]), c["verdict"],
             _g17(c["t_star"]), _g17(c["d_final"]), str(c["iterations"])]
            for c in cells
        ],
    )

    by_sigma = {}
    for c in cells:
        by_sigma.setdefault(c["sigma"], []).append(c)
    _write_csv(
        os.path.join(out_dir, "boundary.csv"),
        ["sigma", "e0", "T_star"],
        [
            [_g17(s), _g17(group[0]["e0"]), _g17(group[0]["t_star"])]
            for s, group in sorted(by_sigma.items())
        ],
    )

    converged_columns = [
        s for s, group in sorted(by_sigma.items())
        if all(c["verdict"] == "converged" for c in group)
    ]
    threshold = max(converged_columns) if converged_columns else 0.0
    certified_horizons = [
        c["horizon"] for c in cells if c["verdict"].startswith("certified")
    ]
    metadata = {
        "command": "sweep",
        "config": cfg,
        "empirical_sigma_threshold": threshold,
        "smallest_certified_horizon": min(certified_horizons) if certified_horizons else None,
        "confirm_rounds": confirm_rounds,
        "cells": cells,
    }
    _write_json(os.path.join(out_dir, "metadata.json"), metadata)
    return {"out_dir": out_dir, "cells": cells, "empirical_sigma_threshold": threshold}


# --- long-time series ------------------------------------------------------

def run_longtime(cfg: dict, out_dir=None) -> dict:
    """D(T) series for growing horizons with the rescaled diagnostic D(T)/T."""
    chk = cfgmod._Checker(cfg)
    horizons, rule = _horizon_section(chk, "longtime", "horizons", 129, 100.0)
    family = chk.get("problem.potential.family", "zero")
    if family != "zero":
        chk.bad.append("problem.potential.family")
    chk.raise_if_bad()
    # build the problem once, before any solve; each solve sets its horizon
    template = _set_problem(cfg, horizon=horizons[0])
    solver_cfg = cfgmod.build_solver(cfg)
    out_dir = prepare_out_dir(cfg, "longtime", out_dir)

    rows = []
    for horizon in horizons:
        problem = dataclasses.replace(template, horizon=horizon)
        outcome = solve(problem, _horizon_grid(problem.dim, rule, horizon), solver_cfg)
        rows.append({
            "horizon": horizon,
            "verdict": outcome.verdict,
            "d_final": outcome.d_final,
            "rescaled": outcome.d_final / horizon,
            "iterations": outcome.iterations,
        })

    _write_csv(
        os.path.join(out_dir, "series.csv"),
        ["T", "verdict", "D_final", "rescaled", "iterations"],
        [
            [_g17(r["horizon"]), r["verdict"], _g17(r["d_final"]),
             _g17(r["rescaled"]), str(r["iterations"])]
            for r in rows
        ],
    )
    converged = [r["d_final"] for r in rows if r["verdict"] == "converged"]
    metadata = {
        "command": "longtime",
        "config": cfg,
        "converged_count": len(converged),
        "d_ratio": (max(converged) / min(converged)) if converged and min(converged) > 0 else None,
        "series": rows,
    }
    _write_json(os.path.join(out_dir, "metadata.json"), metadata)
    return {"out_dir": out_dir, "series": rows}


# --- certificates only -----------------------------------------------------

def run_certify(cfg: dict, out_dir=None) -> dict:
    """Certificates from quadratures alone; no PDE is solved."""
    problem, grid, _ = cfgmod.build_run(cfg)
    chk = cfgmod._Checker(cfg)
    optimize_shift = chk.get("certify.optimize_shift", False)
    if not isinstance(optimize_shift, bool):
        chk.bad.append("certify.optimize_shift")
    has_terminal = chk.get("certify.terminal_density") is not None
    chk.raise_if_bad()

    fields = sample_on_grid(problem, grid)
    certificate = compute_nonexistence_certificate(
        problem, grid, optimize_shift=optimize_shift, fields=fields
    )
    planning = None
    if has_terminal:
        terminal = cfgmod.build_mixture(cfg, "certify.terminal_density", problem.dim)
        planning = compute_planning_certificate(
            problem, grid, terminal, fields=fields, certificate=certificate
        )

    out_dir = prepare_out_dir(cfg, "certify", out_dir)
    payload = {
        "command": "certify",
        "config": cfg,
        "conditions": certificate.conditions.as_dict(),
        "certificate": certificate.as_dict(),
        "certificate_applies": certificate.applies_at(problem.horizon),
        "e0_terms": dict(zip(("fisher", "coupling", "potential"), certificate.terms)),
        "planning": planning.as_dict() if planning is not None else None,
    }
    _write_json(os.path.join(out_dir, "certificate.json"), payload)
    result = dict(payload)
    result["out_dir"] = out_dir
    return result


# --- heat-kernel exponent table --------------------------------------------

def _kernel_queries(cfg: dict) -> list[HeatKernelQuery]:
    chk = cfgmod._Checker(cfg)
    raw = chk.get("kernel.queries")
    chk.raise_if_bad()
    if raw is None:
        raw = [dict(q) for q in DEFAULT_KERNEL_QUERIES]
    if not isinstance(raw, list) or not raw:
        raise ConfigError(["kernel.queries"])
    queries = []
    bad = []
    for i, item in enumerate(raw):
        # each query is read with the checker's type rules: true and 1.0 are not 1
        q = cfgmod._Checker(item)
        dim = q.choice("dim", (1, 2), required=True)
        exponent = q.number("exponent", required=True, minimum=1.0)
        t = q.number("t", default=1.0, strict_min=0.0)
        kind = q.choice("kind", ("kernel", "gradient"), default="kernel")
        if q.bad:
            bad.append(f"kernel.queries[{i}]")
        else:
            queries.append(HeatKernelQuery(dim=dim, exponent=exponent, t=t, kind=kind))
    if bad:
        raise ConfigError(bad)
    return queries


def run_kernelcheck(cfg: dict, out_dir=None) -> dict:
    """Fitted versus analytic space-time integrability exponents."""
    queries = _kernel_queries(cfg)
    rows = []
    for q in queries:
        try:
            result = heat_kernel_spacetime_norm(q)
            rows.append({
                "dim": q.dim, "exponent": q.exponent, "kind": q.kind, "t": q.t,
                "status": "fit",
                "analytic_exponent": result.analytic_exponent,
                "fitted_exponent": result.fitted_exponent,
                "value": result.value,
            })
        except KernelNormDivergenceError as exc:
            rows.append({
                "dim": q.dim, "exponent": q.exponent, "kind": q.kind, "t": q.t,
                "status": "boundary" if exc.boundary else "divergent",
                "analytic_exponent": exc.analytic_exponent,
                "fitted_exponent": None,
                "value": None,
            })

    out_dir = prepare_out_dir(cfg, "kernelcheck", out_dir)
    _write_csv(
        os.path.join(out_dir, "exponents.csv"),
        ["dim", "exponent", "kind", "t", "status",
         "analytic_exponent", "fitted_exponent", "value"],
        [
            [str(r["dim"]), _g17(r["exponent"]), r["kind"], _g17(r["t"]), r["status"],
             _g17(r["analytic_exponent"]), _g17(r["fitted_exponent"]), _g17(r["value"])]
            for r in rows
        ],
    )
    _write_json(os.path.join(out_dir, "metadata.json"), {
        "command": "kernelcheck",
        "config": cfg,
        "rows": rows,
    })
    return {"out_dir": out_dir, "rows": rows}
