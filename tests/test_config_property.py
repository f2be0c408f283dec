"""Any JSON config either runs or exits 2, never with a traceback.

Small valid 1D configs (nx <= 17, nt <= 8) have some of their keys
replaced by values of wrong types, signs and shapes, or removed, and are
run through the command line entry point: solve and certify, and the
sweep, long-time and kernel commands on tiny grids and one query.
"""

import contextlib
import copy
import io
import json
import math
import os
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from aggmfg.cli import main

PATHS = (
    "problem", "problem.dim", "problem.horizon", "problem.sigma", "problem.alpha",
    "problem.initial_density", "problem.initial_density.weights",
    "problem.initial_density.means", "problem.initial_density.stds",
    "problem.potential", "problem.potential.family", "problem.potential.amplitude",
    "problem.potential.width", "problem.potential.center", "problem.potential.table",
    "problem.terminal_cost", "problem.terminal_cost.family", "problem.terminal_cost.width",
    "grid", "grid.half_width", "grid.nx", "grid.nt",
    "solver", "solver.damping", "solver.tol", "solver.max_iter", "solver.d_cap",
    "solver.time_scheme", "solver.initial_guess",
    "output", "output.snapshots", "output.label",
    "certify", "certify.optimize_shift", "certify.terminal_density",
)
# sweep.workers and sweep.confirm_rounds stay as set: an integer there
# starts that many processes or refines the grid 2**k times
SERIES_PATHS = (
    "problem", "problem.sigma", "problem.potential.family", "grid.half_width",
    "sweep", "sweep.sigma_grid", "sweep.horizon_grid", "sweep.nx", "sweep.nt_per_unit",
    "longtime", "longtime.horizons", "longtime.nx", "longtime.nt_per_unit",
    "kernel.queries", "kernel.queries.0.dim", "kernel.queries.0.exponent",
    "kernel.queries.0.t", "kernel.queries.0.kind",
)
REMOVE = object()

# integers stay at most 17, so a mutated nx or nt keeps the config small
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 17),
    st.floats(-40.0, 40.0),
    st.sampled_from([0.0, -0.0, 1e-300, 1e300, math.nan, math.inf, -math.inf]),
    st.sampled_from(["", "x", "zero", "gaussian_well", "cosine_bump", "user_table",
                     "log_quadratic", "gaussian", "crank_nicolson", "frozen"]),
)
values = st.recursive(
    scalars,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(
        st.sampled_from(["family", "weights", "means", "stds", "values", "gradient", "width",
                         "dim", "exponent", "t", "kind"]),
        kids, max_size=3,
    ),
    max_leaves=6,
)


def mutations(paths):
    return st.lists(
        st.tuples(st.sampled_from(paths), st.one_of(st.just(REMOVE), values)),
        min_size=1, max_size=3,
    )


def _small_config(nx: int, nt: int) -> dict:
    return {
        "problem": {
            "dim": 1, "horizon": 1.0, "sigma": 5.0, "alpha": 2.0,
            "initial_density": {"weights": [1.0], "means": [[0.0]], "stds": [1.0]},
            "potential": {"family": "gaussian_well", "amplitude": 1.0, "width": 2.0},
        },
        "grid": {"half_width": 8.0, "nx": nx, "nt": nt},
        "solver": {"damping": 0.5, "tol": 1e-6, "max_iter": 20},
        "output": {"snapshots": 3},
        "certify": {"terminal_density": {"weights": [1.0], "means": [[1.0]], "stds": [1.0]}},
    }


def _series_config() -> dict:
    cfg = _small_config(9, 4)
    del cfg["problem"]["potential"]  # longtime takes no potential
    cfg["solver"]["max_iter"] = 8
    cfg["sweep"] = {"sigma_grid": [0.5, 30.0], "horizon_grid": [0.5], "nx": 9,
                    "nt_per_unit": 8, "confirm_rounds": 1, "workers": 1}
    cfg["longtime"] = {"horizons": [0.5, 1.0], "nx": 9, "nt_per_unit": 8}
    cfg["kernel"] = {"queries": [{"dim": 1, "exponent": 2.0, "t": 1.0, "kind": "kernel"}]}
    return cfg


def _mutated(cfg: dict, changes) -> dict:
    cfg = copy.deepcopy(cfg)
    for path, value in changes:
        *parents, key = path.split(".")
        node = cfg
        for part in parents:
            if isinstance(node, list):  # "queries.0" is the first query
                node = dict(zip(map(str, range(len(node))), node))
            node = node.get(part) if isinstance(node, dict) else None
        if not isinstance(node, dict):
            continue
        if value is REMOVE:
            node.pop(key, None)
        else:
            node[key] = value
    return cfg


def _exit_code(command: str, cfg: dict) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, path, "--output", os.path.join(tmp, "out")])
    return code, err.getvalue()


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    command=st.sampled_from(["solve", "certify"]),
    nx=st.sampled_from([3, 5, 9, 17]),
    nt=st.integers(1, 8),
    changes=mutations(PATHS),
    exits=st.just((0, 2)),
)
# configs that once ended in a traceback or ran on NaN data
@example(command="solve", nx=3, nt=1, changes=[], exits=(0, 2))  # no interior time level
@example(command="solve", nx=9, nt=4, changes=[("problem.dim", True)], exits=(0, 2))
@example(command="certify", nx=9, nt=4, changes=[("problem.alpha", None)], exits=(0, 2))
@example(command="solve", nx=9, nt=4, changes=[("problem.potential.width", 1e300)], exits=(0, 2))
# a Gaussian width whose square underflows: NaN at the center node
@example(command="solve", nx=9, nt=4, changes=[("problem.potential.width", 1e-300)], exits=(2,))
@example(command="solve", nx=9, nt=4, exits=(2,), changes=[
    ("problem.terminal_cost", {"family": "gaussian", "amplitude": 1.0, "width": 1e-300}),
])
# a Gaussian width or std whose square is subnormal: NaN in the gradient
@example(command="solve", nx=9, nt=4, changes=[("problem.potential.width", 1e-155)], exits=(2,))
@example(command="solve", nx=9, nt=4, exits=(2,), changes=[
    ("problem.terminal_cost", {"family": "gaussian", "amplitude": 1.0, "width": 1e-155}),
])
@example(command="certify", nx=9, nt=4, exits=(2,),
         changes=[("problem.initial_density.stds", [1e-160])])
def test_any_config_runs_or_exits_two(command, nx, nt, changes, exits):
    code, err = _exit_code(command, _mutated(_small_config(nx, nt), changes))
    assert code in exits, err


@settings(max_examples=90, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    command=st.sampled_from(["sweep", "longtime", "kernelcheck"]),
    changes=mutations(SERIES_PATHS),
)
def test_any_series_or_kernel_config_runs_or_exits_two(command, changes):
    code, err = _exit_code(command, _mutated(_series_config(), changes))
    assert code in (0, 2), err
