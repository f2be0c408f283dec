"""Command-level runs: single solve, phase sweep, long-time series,
certificates, and the heat-kernel exponent table.

Every command writes deterministic artifacts: CSV numbers at 17 significant
digits, JSON with sorted keys, and no wall-clock content inside any file
(directory names may carry a timestamp; file bytes never do).
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
import math
import os
import time
from functools import partial

import numpy as np

from . import config as cfgmod
from .diagnostics import (
    E0_TERMS,
    check_moment_identity,
    compute_apriori,
    compute_energy,
    compute_nonexistence_certificate,
    compute_planning_certificate,
)
from .discretization import Grid, write_field_csv
from .errors import KernelNormDivergenceError
from .parabolic import (
    HeatKernelQuery,
    heat_kernel_spacetime_norm,
)
from .problem import CouplingSpec, sample_on_grid
from .solver import inverse_hopf_cole, self_consistency_residual, solve

DEFAULT_KERNEL_QUERIES = (
    {"dim": 1, "exponent": 2.0, "t": 1.0, "kind": "kernel"},
    {"dim": 1, "exponent": 3.0, "t": 1.0, "kind": "kernel"},
    {"dim": 2, "exponent": 3.0, "t": 1.0, "kind": "kernel"},
    {"dim": 1, "exponent": 1.0, "t": 1.0, "kind": "gradient"},
    {"dim": 1, "exponent": 1.2, "t": 1.0, "kind": "gradient"},
)


def _g17(x) -> str:
    """One CSV cell: a float at 17 significant digits, None empty, text and
    integers as str prints them."""
    if isinstance(x, float):
        # numpy's float64 is a float, but formats faster as a built-in one
        return format(float(x), ".17g")
    return "" if x is None else str(x)


def _write_csv(path, header, *columns) -> None:
    """A CSV of the given columns, one row per position."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*(map(_g17, column) for column in columns)))


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


def _output_names(chk) -> tuple[str, str]:
    """output.directory and output.label; a non-string one is a bad key."""
    return chk.string("output.directory", "runs"), chk.string("output.label", "")


def prepare_out_dir(root: str, label: str, command: str, out_dir=None) -> str:
    """out_dir, or a new <root>/<command>[-<label>]-<timestamp> directory."""
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


def run_single(cfg: dict, out_dir=None) -> dict:
    """Solve one problem and write the full diagnostic record."""
    chk = cfgmod._Checker(cfg)
    problem, grid, solver_cfg = cfgmod._read_run(cfg, chk)
    count = chk.integer("output.snapshots", default=5, rule=lambda n: n >= 2)
    names = _output_names(chk)
    chk.raise_if_bad()
    snap = np.linspace(0, grid.nt, min(count, grid.nt + 1)).round().astype(int)
    snap = sorted(set(snap.tolist()))

    # sampling the data on the grid reports the last config errors, before any
    # output; every later step reads these fields instead of sampling again
    fields = sample_on_grid(problem, grid)
    certificate = compute_nonexistence_certificate(problem, grid, fields=fields)
    out_dir = prepare_out_dir(*names, "solve", out_dir)
    outcome = solve(problem, grid, solver_cfg, fields=fields)

    reports_dir = os.path.join(out_dir, "reports")
    fields_dir = os.path.join(out_dir, "fields")
    os.makedirs(reports_dir, exist_ok=True)
    os.makedirs(fields_dir, exist_ok=True)

    grid_meta = dict(dataclasses.asdict(grid), dx=grid.dx, dt=grid.dt)
    _write_json(os.path.join(fields_dir, "grid.json"), grid_meta)
    residuals = outcome.residual_history
    _write_csv(
        os.path.join(reports_dir, "residuals.csv"),
        ["iteration", "residual", "d_value"],
        range(1, len(residuals) + 1), residuals, outcome.d_history,
    )

    metadata = {
        "command": "solve",
        "config": cfg,
        "verdict": outcome.verdict,
        "iterations": outcome.iterations,
        "note": outcome.note,
        "residual_final": residuals[-1] if residuals else None,
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
        u = inverse_hopf_cole(outcome.w)
        for idx in snap:
            tag = f"{idx:05d}"
            write_field_csv(os.path.join(fields_dir, f"m_{tag}.csv"), grid, outcome.m[idx])
            write_field_csv(os.path.join(fields_dir, f"u_{tag}.csv"), grid, u[idx])
            write_field_csv(os.path.join(fields_dir, f"w_{tag}.csv"), grid, outcome.w[idx])
        hjb_residual, fp_residual = self_consistency_residual(u, outcome.m, problem, grid, fields)
        energy = compute_energy(u, outcome.m, problem, grid, fields)
        moments = check_moment_identity(u, outcome.m, problem, grid, energy, fields)
        apriori = compute_apriori(outcome.d_final, problem)
        _write_csv(
            os.path.join(reports_dir, "energy.csv"),
            ["time", "total", "cross", "kinetic", "coupling", "potential"],
            energy.times, energy.total, energy.cross, energy.kinetic, energy.coupling,
            energy.potential,
        )
        _write_csv(
            os.path.join(reports_dir, "moments.csv"),
            ["time", "mass", "tail_mass", "abs_moment", "h"],
            moments.times, moments.mass, moments.tail_mass, moments.abs_moment, moments.h,
        )
        _write_csv(
            os.path.join(reports_dir, "moment_residuals.csv"),
            ["time", "hprime", "rhs_first", "hsecond", "rhs_second"],
            moments.times[1:-1], moments.hprime, moments.rhs_first[1:-1],
            moments.hsecond, moments.rhs_second[1:-1],
        )
        metadata["consistency"] = {
            "hjb_residual": hjb_residual,
            "fp_residual": fp_residual,
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

def _horizon_section(chk, section: str, horizons_key: str, nx: int, nt_per_unit: float,
                     rounds: int = 0):
    """Positive ascending horizons and the grid rule (half_width, nx, nt_per_unit)
    of a sweep or long-time section; nx and nt_per_unit are the defaults, and
    each grid may be refined up to 2**rounds times."""
    horizons = chk.number_list(f"{section}.{horizons_key}", required=True, ascending=True,
                               rule=lambda ts: all(map(Grid.RULES["horizon"], ts)))
    nx = chk.integer(f"{section}.nx", default=nx, rule=Grid.RULES["nx"])
    nt_per_unit = chk.number(f"{section}.nt_per_unit", default=nt_per_unit, rule=lambda r: r > 0)
    # the longest horizon's grid has the most steps
    steps = nt_per_unit * horizons[-1] if horizons else None
    half_width = cfgmod._read_grid_rule(chk, nx, steps, f"{section}.nx",
                                        f"{section}.nt_per_unit", rounds)
    return horizons, (half_width, nx, nt_per_unit)


def _template_problem(chk, **values):
    """The problem section read on chk with the given keys set, in a shallow copy
    of the config; a section that is not an object is left for chk to name."""
    section = chk.get("problem", {})
    if isinstance(chk.root, dict) and isinstance(section, dict):
        chk.root = {**chk.root, "problem": {**section, **values}}
    return cfgmod.build_problem(chk.root, chk)


def _horizon_grid(dim: int, rule: tuple, horizon: float) -> Grid:
    """The grid of one horizon: nx nodes, nt_per_unit steps per unit time (at least one)."""
    half_width, nx, nt_per_unit = rule
    nt = max(1, math.ceil(nt_per_unit * horizon))
    return Grid(dim=dim, half_width=half_width, nx=nx, nt=nt, horizon=horizon)


# --- phase sweep -----------------------------------------------------------

def _sweep_cell(template, solver_cfg, rule: tuple, confirm_rounds: int, cell: tuple) -> dict:
    """One cell = (sigma, horizon) of the template problem, including refinement confirmation.

    Level k solves on the base grid refined 2**k times. A run that agrees
    with the certificate (converged where none applies, diverged where one
    does) decides the cell. Otherwise the next level re-solves, so that a
    diverged run is only labeled non-convergent after it stays diverged on
    refined grids, and a converged run under a certificate is confirmed the
    same way before the contradiction is written.
    """
    sigma, horizon = cell
    coupling = dataclasses.replace(template.coupling, sigma=sigma)
    problem = dataclasses.replace(template, coupling=coupling, horizon=horizon)

    base = _horizon_grid(problem.dim, rule, horizon)
    fields = sample_on_grid(problem, base)
    certificate = compute_nonexistence_certificate(problem, base, fields=fields)
    applies = certificate.applies_at(horizon)

    runs = []
    for level in range(confirm_rounds + 1):
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
        "sigma": sigma,
        "horizon": horizon,
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
    chk = cfgmod._Checker(cfg)
    sigma_grid = chk.number_list("sweep.sigma_grid", required=True, ascending=True,
                                 rule=lambda ss: all(map(CouplingSpec.RULES["sigma"], ss)))
    confirm_rounds = chk.integer("sweep.confirm_rounds", default=2, rule=lambda k: k >= 0)
    horizon_grid, rule = _horizon_section(chk, "sweep", "horizon_grid", 65, 60.0, confirm_rounds)
    workers = chk.integer("sweep.workers", default=1, rule=lambda n: n >= 1)
    # the problem is read once, before paying for any cell; each cell sets its sigma and horizon
    problem = _template_problem(chk, sigma=sigma_grid[0] if sigma_grid else 0.0,
                                horizon=horizon_grid[0] if horizon_grid else 1.0)
    solver_cfg = cfgmod.build_solver(cfg, chk)
    names = _output_names(chk)
    chk.raise_if_bad()
    out_dir = prepare_out_dir(*names, "sweep", out_dir)

    # cells in (sigma, horizon) order, as both grids ascend
    run_cell = partial(_sweep_cell, problem, solver_cfg, rule, confirm_rounds)
    pairs = itertools.product(sigma_grid, horizon_grid)
    # a fork pool starts all its processes at once: never more than there are cells
    workers = min(workers, len(sigma_grid) * len(horizon_grid))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            cells = list(pool.map(run_cell, pairs))
    else:
        cells = list(map(run_cell, pairs))

    _write_csv(
        os.path.join(out_dir, "table.csv"),
        ["sigma", "T", "verdict", "T_star", "D_final", "iterations"],
        *([c[k] for c in cells]
          for k in ("sigma", "horizon", "verdict", "t_star", "d_final", "iterations")),
    )

    by_sigma = {}
    for c in cells:
        by_sigma.setdefault(c["sigma"], []).append(c)
    firsts = [group[0] for _, group in sorted(by_sigma.items())]
    _write_csv(
        os.path.join(out_dir, "boundary.csv"),
        ["sigma", "e0", "T_star"],
        *([c[k] for c in firsts] for k in ("sigma", "e0", "t_star")),
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
    # the problem is read once, before any solve; each solve sets its horizon
    template = _template_problem(chk, horizon=horizons[0] if horizons else 1.0)
    solver_cfg = cfgmod.build_solver(cfg, chk)
    names = _output_names(chk)
    chk.raise_if_bad()
    out_dir = prepare_out_dir(*names, "longtime", out_dir)

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
        *([r[k] for r in rows]
          for k in ("horizon", "verdict", "d_final", "rescaled", "iterations")),
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
    chk = cfgmod._Checker(cfg)
    problem, grid, _ = cfgmod._read_run(cfg, chk)
    optimize_shift = chk.get("certify.optimize_shift", False)
    if not isinstance(optimize_shift, bool):
        chk.bad.append("certify.optimize_shift")
    terminal = None
    if chk.get("certify.terminal_density") is not None:
        terminal = cfgmod._mixture_from(chk, "certify.terminal_density", cfgmod._read_dim(chk))
    names = _output_names(chk)
    chk.raise_if_bad()

    fields = sample_on_grid(problem, grid)
    certificate = compute_nonexistence_certificate(
        problem, grid, optimize_shift=optimize_shift, fields=fields
    )
    planning = None
    if terminal is not None:
        planning = compute_planning_certificate(
            problem, grid, terminal, fields=fields, certificate=certificate
        )

    out_dir = prepare_out_dir(*names, "certify", out_dir)
    payload = {
        "command": "certify",
        "config": cfg,
        "conditions": certificate.conditions.as_dict(),
        "certificate": certificate.as_dict(),
        "certificate_applies": certificate.applies_at(problem.horizon),
        "e0_terms": dict(zip(E0_TERMS, certificate.terms)),
        "planning": planning.as_dict() if planning is not None else None,
    }
    _write_json(os.path.join(out_dir, "certificate.json"), payload)
    result = dict(payload)
    result["out_dir"] = out_dir
    return result


# --- heat-kernel exponent table --------------------------------------------

def _kernel_queries(chk) -> list[HeatKernelQuery]:
    """kernel.queries, or the default table when absent; a bad query is named by
    its index. Each is read with the checker's type rules: true and 1.0 are not 1."""
    raw = chk.get("kernel.queries")
    if raw is None:
        raw = DEFAULT_KERNEL_QUERIES
    elif not isinstance(raw, list) or not raw:
        chk.bad.append("kernel.queries")
        raw = []
    queries = []
    for i, item in enumerate(raw):
        q, rules = cfgmod._Checker(item), HeatKernelQuery.RULES
        dim = q.integer("dim", required=True, rule=rules["dim"])
        exponent = q.number("exponent", required=True, rule=rules["exponent"])
        t = q.number("t", default=1.0, rule=rules["t"])
        kind = q.string("kind", "kernel", rule=rules["kind"])
        if q.bad:
            chk.bad.append(f"kernel.queries[{i}]")
        else:
            queries.append(HeatKernelQuery(dim=dim, exponent=exponent, t=t, kind=kind))
    return queries


def run_kernelcheck(cfg: dict, out_dir=None) -> dict:
    """Fitted versus analytic space-time integrability exponents."""
    chk = cfgmod._Checker(cfg)
    queries = _kernel_queries(chk)
    names = _output_names(chk)
    chk.raise_if_bad()
    rows = []
    for q in queries:
        try:
            result = heat_kernel_spacetime_norm(q)
            status, analytic = "fit", result.analytic_exponent
            fitted, value = result.fitted_exponent, result.value
        except KernelNormDivergenceError as exc:
            status = "boundary" if exc.boundary else "divergent"
            analytic, fitted, value = exc.analytic_exponent, None, None
        rows.append({
            "dim": q.dim, "exponent": q.exponent, "kind": q.kind, "t": q.t, "status": status,
            "analytic_exponent": analytic, "fitted_exponent": fitted, "value": value,
        })

    out_dir = prepare_out_dir(*names, "kernelcheck", out_dir)
    header = ["dim", "exponent", "kind", "t", "status",
              "analytic_exponent", "fitted_exponent", "value"]
    _write_csv(
        os.path.join(out_dir, "exponents.csv"), header, *([r[k] for r in rows] for k in header)
    )
    _write_json(os.path.join(out_dir, "metadata.json"),
                {"command": "kernelcheck", "config": cfg, "rows": rows})
    return {"out_dir": out_dir, "rows": rows}
