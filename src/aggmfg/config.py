"""Declarative JSON run configuration.

One file describes a run: a `problem` section (model data), a `grid` section
(discretization), a `solver` section (iteration knobs), and per-command
sections (`output`, `sweep`, `longtime`, `certify`, `kernel`). Validation
collects every offending key path and reports them in a single error.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Any

import numpy as np

from .discretization import Grid
from .errors import ConfigError
from .parabolic import SCHEMES
from .problem import (
    CouplingSpec,
    DataSpec,
    GaussianMixture,
    PotentialSpec,
    ProblemSpec,
    TerminalCostSpec,
)
from .solver import INITIAL_GUESSES, SolverConfig

_SOLVER_DEFAULTS = {f.name: f.default for f in dataclasses.fields(SolverConfig)}

# numpy counts an array's bytes in an intp: the most floats one array can hold
_MAX_FLOATS = np.iinfo(np.intp).max // 8


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError([str(path)], f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError([str(path)], f"config file is not valid JSON: {exc}")


def _finite_float(val) -> float | None:
    """val as a finite float, or None for a bool, a non-number, or a number
    with no finite float value (an integer past the float range included)."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return None
    try:
        x = float(val)
    except OverflowError:
        return None
    return x if math.isfinite(x) else None


class _Checker:
    """Accumulates offending key paths while reading a nested dict."""

    def __init__(self, root: dict):
        self.root = root
        self.bad: list[str] = []

    def get(self, path: str, default=None, required: bool = False):
        """The value at path, or default when a key on the way is absent or
        null. A node on the way that is present but not an object is a bad path."""
        node: Any = self.root
        parts = path.split(".")
        for i, part in enumerate(parts):
            if not isinstance(node, dict):
                self.bad.append(".".join(parts[:i]) or path)
                return default
            node = node.get(part)
            if node is None:
                if required:
                    self.bad.append(path)
                return default
        return node

    def number(self, path: str, default=None, minimum=None, strict_min=None, required=False):
        val = self.get(path, default, required)
        if val is None:
            return default
        val = _finite_float(val)
        if val is None:
            self.bad.append(path)
            return default
        if minimum is not None and val < minimum:
            self.bad.append(path)
            return default
        if strict_min is not None and val <= strict_min:
            self.bad.append(path)
            return default
        return val

    def integer(self, path: str, default=None, minimum=None, required=False):
        val = self.get(path, default, required)
        if val is None:
            return default
        if isinstance(val, bool) or not isinstance(val, int):
            self.bad.append(path)
            return default
        if minimum is not None and val < minimum:
            self.bad.append(path)
            return default
        return int(val)

    def choice(self, path: str, options, default=None, required=False):
        val = self.get(path, default, required)
        if val is None:
            return default
        if not any(type(val) is type(o) and val == o for o in options):  # True and 1.0 are not 1
            self.bad.append(path)
            return default
        return val

    def string(self, path: str, default: str) -> str:
        val = self.get(path, default)
        if not isinstance(val, str):
            self.bad.append(path)
            return default
        return val

    def number_list(self, path: str, required=False, minimum=None, ascending=False):
        val = self.get(path, None, required)
        if val is None:
            return None
        xs = [_finite_float(x) for x in val] if isinstance(val, list) else []
        ok = len(xs) > 0 and None not in xs
        if ok and minimum is not None and min(xs) < minimum:
            ok = False
        if ok and ascending and any(b <= a for a, b in zip(xs, xs[1:])):
            ok = False
        if not ok:
            self.bad.append(path)
            return None
        return xs

    def raise_if_bad(self):
        if self.bad:
            raise ConfigError(sorted(set(self.bad)))


def _trajectory_too_large(nx: int, nt: int, dim: int) -> bool:
    """Whether an (nt+1, nx**dim) float trajectory is more than numpy can index."""
    return (nt + 1) * nx**dim > _MAX_FLOATS


def _mixture_from(chk: _Checker, base: str, dim: int) -> GaussianMixture | None:
    weights = chk.number_list(f"{base}.weights", required=True, minimum=0.0)
    stds = chk.number_list(f"{base}.stds", required=True)
    means_raw = chk.get(f"{base}.means", required=True)
    means = None
    if isinstance(means_raw, list) and means_raw:
        means = [
            tuple(_finite_float(c) for c in (m if isinstance(m, list) else [m]))
            for m in means_raw
        ]
        if any(len(m) != dim or None in m for m in means):
            means = None
    # an absent means, or a node on its path that is not an object, get names itself
    if means is None and means_raw is not None:
        chk.bad.append(f"{base}.means")
    if weights is None or stds is None or means is None:
        return None
    if not (len(weights) == len(stds) == len(means)):
        chk.bad.append(base)
        return None
    if any(w <= 0 for w in weights) or any(s <= 0 for s in stds):
        chk.bad.append(base)
        return None
    return GaussianMixture(weights=tuple(weights), means=tuple(means), stds=tuple(stds))


def _spec_from(chk: _Checker, base: str, spec, dim: int):
    """A PotentialSpec or TerminalCostSpec (spec) from the config section base."""
    family = chk.choice(f"{base}.family", spec._FAMILIES, default="zero")
    if family in (None, "zero"):
        return spec()
    if family == "user_table":
        table = chk.get(f"{base}.table", required=True)
        if not isinstance(table, dict) or not {"values", "gradient"} <= set(table):
            chk.bad.append(f"{base}.table")
            return spec()
        return spec(family="user_table", table=table)
    center = chk.number_list(f"{base}.center") or [0.0] * dim
    if len(center) != dim:
        chk.bad.append(f"{base}.center")
        center = [0.0] * dim
    width = chk.number(f"{base}.width", default=1.0, strict_min=0.0)
    if family in ("gaussian_well", "gaussian") and not width * width > 0:
        chk.bad.append(f"{base}.width")  # exp(-0/0) at the center: NaN
    return spec(
        family=family,
        amplitude=chk.number(f"{base}.amplitude", default=0.0),
        width=width,
        center=tuple(center),
    )


def build_problem(cfg: dict, chk: _Checker | None = None) -> ProblemSpec | None:
    own = chk is None
    if own:
        chk = _Checker(cfg)
    dim = chk.choice("problem.dim", (1, 2), default=1)
    horizon = chk.number("problem.horizon", required=True, strict_min=0.0)
    sigma = chk.number("problem.sigma", required=True, minimum=0.0)
    alpha = chk.number("problem.alpha", required=True, strict_min=0.0)
    mixture = _mixture_from(chk, "problem.initial_density", dim or 1)
    potential = _spec_from(chk, "problem.potential", PotentialSpec, dim or 1)
    terminal = _spec_from(chk, "problem.terminal_cost", TerminalCostSpec, dim or 1)
    if own:
        chk.raise_if_bad()
    if chk.bad or mixture is None or horizon is None:
        return None
    return ProblemSpec(
        dim=dim,
        horizon=horizon,
        coupling=CouplingSpec(sigma=sigma, alpha=alpha),
        potential=potential,
        data=DataSpec(m0=mixture, terminal_cost=terminal),
    )


def build_grid(cfg: dict, horizon: float, chk: _Checker | None = None) -> Grid | None:
    own = chk is None
    if own:
        chk = _Checker(cfg)
    dim = chk.choice("problem.dim", (1, 2), default=1)
    half_width = chk.number("grid.half_width", default=12.0, strict_min=0.0)
    nx = chk.integer("grid.nx", required=True, minimum=3)
    nt = chk.integer("grid.nt", required=True, minimum=1)
    if nx is not None and nx % 2 == 0:
        chk.bad.append("grid.nx")
        nx = None
    if nx is not None and _trajectory_too_large(nx, 1, dim or 1):
        chk.bad.append("grid.nx")
    elif nx is not None and nt is not None and _trajectory_too_large(nx, nt, dim or 1):
        chk.bad.append("grid.nt")
    if own:
        chk.raise_if_bad()
    if chk.bad or nx is None or nt is None:
        return None
    return Grid(dim=dim, half_width=half_width, nx=nx, nt=nt, horizon=horizon)


def build_solver(cfg: dict, chk: _Checker | None = None) -> SolverConfig | None:
    own = chk is None
    if own:
        chk = _Checker(cfg)
    damping = chk.number("solver.damping", default=_SOLVER_DEFAULTS["damping"], strict_min=0.0)
    if damping is not None and damping > 1.0:
        chk.bad.append("solver.damping")
        damping = None
    tol = chk.number("solver.tol", default=_SOLVER_DEFAULTS["tol"], strict_min=0.0)
    max_iter = chk.integer("solver.max_iter", default=_SOLVER_DEFAULTS["max_iter"], minimum=1)
    d_cap = chk.number("solver.d_cap", default=_SOLVER_DEFAULTS["d_cap"], strict_min=0.0)
    scheme = chk.choice(
        "solver.time_scheme", SCHEMES, default=_SOLVER_DEFAULTS["time_scheme"]
    )
    guess = chk.choice(
        "solver.initial_guess", INITIAL_GUESSES, default=_SOLVER_DEFAULTS["initial_guess"]
    )
    if own:
        chk.raise_if_bad()
    if chk.bad or damping is None:
        return None
    return SolverConfig(
        damping=damping,
        tol=tol,
        max_iter=max_iter,
        d_cap=d_cap,
        time_scheme=scheme,
        initial_guess=guess,
    )


def build_run(cfg: dict) -> tuple[ProblemSpec, Grid, SolverConfig]:
    """Validate and build everything a single solve needs, in one pass."""
    chk = _Checker(cfg)
    problem = build_problem(cfg, chk)
    horizon = problem.horizon if problem is not None else 1.0
    grid = build_grid(cfg, horizon, chk)
    solver = build_solver(cfg, chk)
    chk.raise_if_bad()
    return problem, grid, solver
