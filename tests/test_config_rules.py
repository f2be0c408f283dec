"""Each input range rule has one producer: the class that holds the field.

For every pair of config key and class field, probe values in range, on the
boundary and just outside it are set in a valid config. The command must
exit 2 naming the key exactly when constructing the class with that value
raises ValueError. Each run stops right after its config pass: sampling,
output directories and kernel norms raise _Validated instead of working.
"""

import contextlib
import copy
import io
import json
import math
from dataclasses import replace

import pytest

from aggmfg import (
    CouplingSpec,
    GaussianMixture,
    Grid,
    HeatKernelQuery,
    PotentialSpec,
    SolverConfig,
    TerminalCostSpec,
    config,
    runs,
)
from aggmfg.cli import main
from tests.conftest import gaussian_problem

INF = math.inf
BELOW_ONE = math.nextafter(1.0, 0.0)
ABOVE_ONE = math.nextafter(1.0, 2.0)
TINY = 5e-324  # the smallest positive float

BASE = {
    "problem": {
        "dim": 1, "horizon": 1.0, "sigma": 5.0, "alpha": 2.0,
        "initial_density": {"weights": [1.0], "means": [[0.0]], "stds": [1.0]},
        "potential": {"family": "gaussian_well", "amplitude": 1.0, "width": 2.0,
                      "center": [0.0]},
        "terminal_cost": {"family": "gaussian", "amplitude": 1.0, "width": 1.0,
                          "center": [0.0]},
    },
    "grid": {"half_width": 8.0, "nx": 9, "nt": 4},
    "solver": {"damping": 0.5, "tol": 1e-6, "max_iter": 20, "d_cap": 1e6,
               "time_scheme": "implicit_euler", "initial_guess": "heat_flow"},
    "sweep": {"sigma_grid": [0.5], "horizon_grid": [0.5], "nx": 9, "nt_per_unit": 8,
              "confirm_rounds": 0, "workers": 1},
    "longtime": {"horizons": [0.5], "nx": 9, "nt_per_unit": 8},
    "kernel": {"queries": [{"dim": 1, "exponent": 2.0, "t": 1.0, "kind": "kernel"}]},
}

GRID = Grid(dim=1, half_width=8.0, nx=9, nt=4, horizon=1.0)
PROBLEM = gaussian_problem(sigma=5.0)
COUPLING = CouplingSpec(sigma=5.0, alpha=2.0)
MIXTURE = GaussianMixture(weights=(1.0,), means=((0.0,),), stds=(1.0,))
POTENTIAL = PotentialSpec(family="gaussian_well", amplitude=1.0, width=2.0)
TERMINAL = TerminalCostSpec(family="gaussian", amplitude=1.0)
QUERY = HeatKernelQuery(dim=1, exponent=2.0, t=1.0)

POSITIVE = [1.0, TINY, 1e308, 0.0, -TINY, -1.0, INF]
NONNEGATIVE = [1.0, 0.0, 1e308, -TINY, -1.0, INF]
FINITE = [1.0, -1e308, 0.0, INF, -INF]
ODD_NX = [3, 9, 2, 4, 1, 0, -3]

# (config key, command, the instance built from a probe value, probes); a key
# ending in [] holds a one-entry list, [v] in the config and (v,) in the class
CASES = [
    ("problem.dim", "certify", lambda v: replace(GRID, dim=v), [1, 2, 0, 3]),
    ("problem.horizon", "certify", lambda v: replace(PROBLEM, horizon=v), POSITIVE),
    ("problem.sigma", "certify", lambda v: replace(COUPLING, sigma=v), NONNEGATIVE),
    ("problem.alpha", "certify", lambda v: replace(COUPLING, alpha=v), POSITIVE),
    ("problem.initial_density.weights[]", "certify",
     lambda v: replace(MIXTURE, weights=v), POSITIVE),
    ("problem.initial_density.stds[]", "certify",
     lambda v: replace(MIXTURE, stds=v), POSITIVE),
    ("problem.potential.family", "certify", lambda v: replace(POTENTIAL, family=v),
     ["gaussian_well", "cosine_bump", "zero", "gaussian", ""]),
    ("problem.potential.amplitude", "certify",
     lambda v: replace(POTENTIAL, amplitude=v), FINITE),
    # a tiny Gaussian width also fails the config's own underflow rule
    ("problem.potential.width", "certify", lambda v: replace(POTENTIAL, width=v),
     [2.0, 1e-100, 1e308, 0.0, -TINY, INF]),
    ("problem.potential.center[]", "certify",
     lambda v: replace(POTENTIAL, center=v), FINITE),
    ("problem.terminal_cost.family", "certify", lambda v: replace(TERMINAL, family=v),
     ["gaussian", "log_quadratic", "zero", "cosine_bump"]),
    ("problem.terminal_cost.amplitude", "certify",
     lambda v: replace(TERMINAL, amplitude=v), FINITE),
    ("problem.terminal_cost.width", "certify", lambda v: replace(TERMINAL, width=v),
     [1.0, 1e-100, 0.0, -TINY, INF]),
    ("problem.terminal_cost.center[]", "certify",
     lambda v: replace(TERMINAL, center=v), FINITE),
    ("grid.half_width", "certify", lambda v: replace(GRID, half_width=v), POSITIVE),
    ("grid.nx", "certify", lambda v: replace(GRID, nx=v), ODD_NX),
    ("grid.nt", "certify", lambda v: replace(GRID, nt=v), [1, 4, 0, -1]),
    ("solver.damping", "certify", lambda v: SolverConfig(damping=v),
     [0.5, 1.0, TINY, BELOW_ONE, ABOVE_ONE, 0.0, -1.0, INF]),
    ("solver.tol", "certify", lambda v: SolverConfig(tol=v), POSITIVE),
    ("solver.max_iter", "certify", lambda v: SolverConfig(max_iter=v), [1, 20, 0, -1]),
    ("solver.d_cap", "certify", lambda v: SolverConfig(d_cap=v), POSITIVE),
    ("solver.time_scheme", "certify", lambda v: SolverConfig(time_scheme=v),
     ["implicit_euler", "crank_nicolson", "rk4"]),
    ("solver.initial_guess", "certify", lambda v: SolverConfig(initial_guess=v),
     ["heat_flow", "frozen", "random"]),
    ("sweep.sigma_grid[]", "sweep", lambda v: replace(COUPLING, sigma=v[0]), NONNEGATIVE),
    # a horizon near the float limit has no finite step count, named at nt_per_unit
    ("sweep.horizon_grid[]", "sweep", lambda v: replace(GRID, horizon=v[0]), POSITIVE),
    ("sweep.nx", "sweep", lambda v: replace(GRID, nx=v), ODD_NX),
    ("longtime.horizons[]", "longtime", lambda v: replace(GRID, horizon=v[0]), POSITIVE),
    ("longtime.nx", "longtime", lambda v: replace(GRID, nx=v), ODD_NX),
    ("kernel.queries[0].dim", "kernelcheck", lambda v: replace(QUERY, dim=v), [1, 2, 0, 3]),
    ("kernel.queries[0].exponent", "kernelcheck", lambda v: replace(QUERY, exponent=v),
     [2.0, 1.0, 1e308, BELOW_ONE, 0.0, INF]),
    ("kernel.queries[0].t", "kernelcheck", lambda v: replace(QUERY, t=v), POSITIVE),
    ("kernel.queries[0].kind", "kernelcheck", lambda v: replace(QUERY, kind=v),
     ["kernel", "gradient", "hessian"]),
]


def _base(command: str) -> dict:
    cfg = copy.deepcopy(BASE)
    if command == "longtime":
        del cfg["problem"]["potential"]  # the long-time series takes no potential
    return cfg


class _Validated(Exception):
    """Raised where a run would start its work, once its config pass is over."""


@pytest.fixture
def validate_only(monkeypatch):
    def stop(*args, **kwargs):
        raise _Validated

    for name in ("sample_on_grid", "prepare_out_dir", "heat_kernel_spacetime_norm"):
        monkeypatch.setattr(runs, name, stop)


def _set(cfg: dict, key: str, value) -> str:
    """Set key in cfg to value; return the key an exit-2 message names."""
    if key.endswith("[]"):
        key, value = key[:-2], [value]
    *parents, last = key.replace("[0]", ".0").split(".")
    node = cfg
    for part in parents:
        node = node[int(part)] if part.isdigit() else node[part]
    node[last] = value
    return key[: key.index("]") + 1] if "[0]" in key else key


def _named_keys(command: str, cfg: dict, tmp_path) -> list[str]:
    """The keys a command names when it exits 2; none when its config passes."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            code = main([command, str(path)])
    except _Validated:
        return []
    assert code == 2, err.getvalue()
    return err.getvalue().split("invalid configuration keys: ")[1].strip().split(", ")


@pytest.mark.parametrize("key, command, build, probes", CASES, ids=[c[0] for c in CASES])
def test_config_key_follows_its_class_rule(validate_only, tmp_path, key, command, build,
                                           probes):
    for value in probes:
        cfg = _base(command)
        named = _set(cfg, key, value)
        try:
            build((value,) if key.endswith("[]") else value)
            raises = False
        except ValueError:
            raises = True
        assert (named in _named_keys(command, cfg, tmp_path)) == raises, (key, value)


def test_base_config_passes_every_command(validate_only, tmp_path):
    for command in ("solve", "certify", "sweep", "longtime", "kernelcheck"):
        assert _named_keys(command, _base(command), tmp_path) == []


def test_one_value_error_names_every_bad_field():
    with pytest.raises(ValueError) as info:
        SolverConfig(damping=2.0, tol=-1.0)
    assert "damping=2.0" in str(info.value) and "tol=-1.0" in str(info.value)
    with pytest.raises(ValueError) as info:
        Grid(dim=1, half_width=1.0, nx=4, nt=0, horizon=1.0)
    assert "nx=4" in str(info.value) and "nt=0" in str(info.value)


def test_grid_half_width_default_has_one_producer(monkeypatch):
    # solve's grid and the grids of the sweep and long-time sections read
    # grid.half_width, and its default, through one function
    cfg = copy.deepcopy(BASE)
    del cfg["grid"]["half_width"]
    sections = (("sweep", "horizon_grid"), ("longtime", "horizons"))

    def half_widths():
        widths = [config.build_grid(cfg, 1.0).half_width]
        for section, key in sections:
            _, (half_width, _, _) = runs._horizon_section(config._Checker(cfg), section, key,
                                                          9, 8.0)
            widths.append(half_width)
        return widths

    assert half_widths() == [12.0] * 3
    monkeypatch.setattr(config, "_read_half_width", lambda chk: 7.0)
    assert half_widths() == [7.0] * 3


SPACING_CASES = [(command, half_width, 0) for command in ("solve", "certify", "sweep", "longtime")
                 for half_width in (1e-300, 1e300)] + [("sweep", 8e-154, 1)]


@pytest.mark.parametrize("command, half_width, confirm_rounds", SPACING_CASES)
def test_a_spacing_without_a_normal_square_exits_two_before_any_output(
    tmp_path, command, half_width, confirm_rounds
):
    # dx**2 of 0 or inf once ended solve, sweep and longtime in a traceback, and
    # certify in numpy warnings; at 8e-154 the sweep's base grid (nx 9) passes
    # the rule, but its grid refined once does not
    cfg = _base(command)
    cfg["grid"]["half_width"] = half_width
    cfg["sweep"]["confirm_rounds"] = confirm_rounds
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([command, str(path), "--output", str(tmp_path / "out")])
    assert code == 2
    assert err.getvalue() == "config error: invalid configuration keys: grid.half_width\n"
    assert not (tmp_path / "out").exists()


def test_an_unrefined_sweep_passes_the_spacing_rule_at_8e_154(validate_only, tmp_path):
    cfg = _base("sweep")
    cfg["grid"]["half_width"] = 8e-154
    assert _named_keys("sweep", cfg, tmp_path) == []  # confirm_rounds 0: the base grid only
