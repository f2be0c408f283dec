"""Declarative JSON run configuration.

One file describes a run: a `problem` section (model data), a `grid` section
(discretization), a `solver` section (iteration knobs), and per-command
sections (`output`, `sweep`, `longtime`, `certify`, `kernel`). Validation
collects every offending key path and reports them in a single error.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from typing import Any

import numpy as np

from .discretization import Grid, _normal_square
from .errors import ConfigError
from .problem import (
    CouplingSpec,
    DataSpec,
    GaussianMixture,
    PotentialSpec,
    ProblemSpec,
    TerminalCostSpec,
)
from .solver import SolverConfig

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
    """Accumulates offending key paths while reading a nested dict. Each reader
    checks a value's JSON type, then judges it by rule: for a key that holds a
    class field, the class's own rule. A bad value is named and read as default."""

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

    def _judged(self, path: str, val, rule, default):
        """val when it is not None and passes rule; otherwise path is bad."""
        if val is not None and (rule is None or rule(val)):
            return val
        self.bad.append(path)
        return default

    def number(self, path: str, default=None, rule=None, required=False):
        val = self.get(path, None, required)
        if val is None:
            return default
        return self._judged(path, _finite_float(val), rule, default)

    def integer(self, path: str, default=None, rule=None, required=False):
        val = self.get(path, None, required)
        if val is None:
            return default
        if isinstance(val, bool) or not isinstance(val, int):
            val = None
        return self._judged(path, val, rule, default)

    def string(self, path: str, default=None, rule=None):
        val = self.get(path, None)
        if val is None:
            return default
        return self._judged(path, val if isinstance(val, str) else None, rule, default)

    def number_list(self, path: str, required=False, rule=None, ascending=False):
        val = self.get(path, None, required)
        if val is None:
            return None
        xs = [_finite_float(x) for x in val] if isinstance(val, list) else []
        ok = len(xs) > 0 and None not in xs
        if ok and ascending and any(b <= a for a, b in zip(xs, xs[1:])):
            ok = False
        return self._judged(path, xs if ok else None, rule, None)

    def raise_if_bad(self):
        if self.bad:
            raise ConfigError(sorted(set(self.bad)))


@contextmanager
def _checking(cfg: dict, chk: _Checker | None):
    """chk, or when it is None a new checker of cfg, which raises one
    ConfigError naming every bad key when the block that reads it ends."""
    if chk is not None:
        yield chk
        return
    chk = _Checker(cfg)
    yield chk
    chk.raise_if_bad()


def _read_dim(chk: _Checker) -> int:
    """problem.dim, 1 when absent or bad."""
    return chk.integer("problem.dim", default=1, rule=Grid.RULES["dim"])


def _read_half_width(chk: _Checker) -> float:
    """grid.half_width, 12.0 when absent; every grid a command builds reads it here."""
    return chk.number("grid.half_width", default=12.0, rule=Grid.RULES["half_width"])


def _read_grid_rule(chk: _Checker, nx, nt, nx_key: str, nt_key: str, rounds: int = 0) -> float:
    """grid.half_width, read with the rule of every grid a command builds: nx_key
    is bad when two levels of nx**dim nodes are more than numpy can index, else
    nt_key when nt + 1 levels are (nt may be an infinite float); grid.half_width
    when the spacing, also refined 2**rounds times, fails the Grid's rule. None
    was not read."""
    half_width = _read_half_width(chk)
    if nx is None:
        return half_width
    nodes = nx ** _read_dim(chk)
    if 2 * nodes > _MAX_FLOATS:
        chk.bad.append(nx_key)
        return half_width
    if nt is not None and not (nt < math.inf and (math.ceil(nt) + 1) * nodes <= _MAX_FLOATS):
        chk.bad.append(nt_key)
    dx = 2.0 * half_width / (nx - 1)
    if not (_normal_square(dx) and _normal_square(math.ldexp(dx, -rounds))):
        chk.bad.append("grid.half_width")
    return half_width


def _mixture_from(chk: _Checker, base: str, dim: int) -> GaussianMixture | None:
    rules = GaussianMixture.RULES
    weights = chk.number_list(f"{base}.weights", required=True, rule=rules["weights"])
    stds = chk.number_list(f"{base}.stds", required=True, rule=rules["stds"])
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
    return GaussianMixture(weights=tuple(weights), means=tuple(means), stds=tuple(stds))


def _spec_from(chk: _Checker, base: str, spec, dim: int):
    """A PotentialSpec or TerminalCostSpec (spec) from the config section base."""
    family = chk.string(f"{base}.family", "zero", rule=spec.RULES["family"])
    if family == "zero":
        return spec()
    if family == "user_table":
        table = chk.get(f"{base}.table", required=True)
        if not isinstance(table, dict) or not {"values", "gradient"} <= set(table):
            chk.bad.append(f"{base}.table")
            return spec()
        return spec(family="user_table", table=table)
    center = chk.number_list(f"{base}.center", rule=spec.RULES["center"]) or [0.0] * dim
    if len(center) != dim:
        chk.bad.append(f"{base}.center")
        center = [0.0] * dim
    width = chk.number(f"{base}.width", default=1.0, rule=spec.RULES["width"])
    if family in ("gaussian_well", "gaussian") and not width * width > 0:
        chk.bad.append(f"{base}.width")  # exp(-0/0) at the center: NaN
    return spec(
        family=family,
        amplitude=chk.number(f"{base}.amplitude", default=0.0, rule=spec.RULES["amplitude"]),
        width=width,
        center=tuple(center),
    )


def build_problem(cfg: dict, chk: _Checker | None = None) -> ProblemSpec | None:
    with _checking(cfg, chk) as chk:
        dim = _read_dim(chk)
        horizon = chk.number("problem.horizon", required=True, rule=ProblemSpec.RULES["horizon"])
        sigma = chk.number("problem.sigma", required=True, rule=CouplingSpec.RULES["sigma"])
        alpha = chk.number("problem.alpha", required=True, rule=CouplingSpec.RULES["alpha"])
        mixture = _mixture_from(chk, "problem.initial_density", dim)
        potential = _spec_from(chk, "problem.potential", PotentialSpec, dim)
        terminal = _spec_from(chk, "problem.terminal_cost", TerminalCostSpec, dim)
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
    with _checking(cfg, chk) as chk:
        nx = chk.integer("grid.nx", required=True, rule=Grid.RULES["nx"])
        nt = chk.integer("grid.nt", required=True, rule=Grid.RULES["nt"])
        half_width = _read_grid_rule(chk, nx, nt, "grid.nx", "grid.nt")
    if chk.bad or nx is None or nt is None:
        return None
    return Grid(dim=_read_dim(chk), half_width=half_width, nx=nx, nt=nt, horizon=horizon)


def build_solver(cfg: dict, chk: _Checker | None = None) -> SolverConfig | None:
    """The solver section; an absent key keeps SolverConfig's default."""
    with _checking(cfg, chk) as chk:
        readers = {"damping": chk.number, "tol": chk.number, "max_iter": chk.integer,
                   "d_cap": chk.number, "time_scheme": chk.string, "initial_guess": chk.string}
        values = {name: read(f"solver.{name}", rule=SolverConfig.RULES[name])
                  for name, read in readers.items()}
    if chk.bad:
        return None
    return SolverConfig(**{name: v for name, v in values.items() if v is not None})


def _read_run(cfg: dict, chk: _Checker) -> tuple:
    """The problem, grid and solver a single solve needs, read on chk; the
    grid takes the problem's horizon, or 1.0 while the problem is bad."""
    problem = build_problem(cfg, chk)
    grid = build_grid(cfg, problem.horizon if problem is not None else 1.0, chk)
    return problem, grid, build_solver(cfg, chk)


def build_run(cfg: dict) -> tuple[ProblemSpec, Grid, SolverConfig]:
    """Validate and build everything a single solve needs, in one pass."""
    with _checking(cfg, None) as chk:
        return _read_run(cfg, chk)
