"""Run a fixed set of commands on two checkouts and compare their outputs byte for byte.

Usage: python tools/compare_outputs.py PARENT CHANGE [--acceptance] [--rtol X]
       python tools/compare_outputs.py PARENT CHANGE --configs N [--seed S]

PARENT and CHANGE are checkout roots. Each side runs the command line entry
point with its own src/ on the path, in a fresh interpreter that writes no
bytecode into the checkout. The command set is:

- the seed-0 perfbench workloads solve_1d, solve_2d and sweep, whose configs
  are read from perfbench/workloads.py next to this script;
- certify with optimize_shift and a terminal density;
- certify with a terminal density on a domain of half-width 8e-154, where
  the unit-mass initial density overflows e0's coupling term;
- a long-time series;
- 1D and 2D Crank-Nicolson solves;
- the default kernelcheck;
- the determinism criterion's solve;
- a diverged solve and a budget-exhausted solve;
- with --acceptance, the 144-cell acceptance sweep as well.

Every file each side writes, and each command's exit code, is compared.
The script prints the relative path of every file that differs or exists on
one side only, and exits 1 if there is any, 0 otherwise.

With --rtol X, a CSV or JSON file that differs in bytes is compared again
cell by cell. A CSV column is a column of the table; a JSON column is a key
path with list indices left out, so a list of numbers is one column. Two
numbers agree when they differ by at most X times the largest magnitude in
their column on either side; every other cell, and the file's shape, must
match exactly. Each such file is printed with its largest deviation, in
units of its column's largest magnitude, and counts as differing only when
that deviation exceeds X.

With --configs N, the script instead draws N mutated configs with seed S
(default 0), as tests/test_config_property.py builds them: even ones from
its small solve config, odd ones from its series config. Each side runs
every config through its own run_* functions (solve and certify, or sweep,
longtime and kernelcheck) with prepare_out_dir stubbed, so nothing is
solved or written. A run's outcome is that it reached its output, exited 2
naming its sorted keys, or raised a traceback of a given type. The script
prints every config whose outcomes differ, and exits 1 if there is any.
"""

from __future__ import annotations

import argparse
import csv
import filecmp
import importlib.util
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]

# runs each (name, command, config path) job through the CLI of the aggmfg on
# sys.path, into <out>/<name>, and writes every exit code to <out>/exit_codes.json
_RUNNER = """
import contextlib, io, json, os, sys
import aggmfg
from aggmfg.cli import main
src, out, jobs = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
assert os.path.dirname(aggmfg.__file__) == os.path.join(src, "aggmfg"), aggmfg.__file__
codes = {}
for name, command, cfg in jobs:
    argv = [command] + ([cfg] if cfg else []) + ["--output", os.path.join(out, name)]
    with contextlib.redirect_stdout(io.StringIO()):
        codes[name] = main(argv)
with open(os.path.join(out, "exit_codes.json"), "w") as fh:
    json.dump(codes, fh, indent=2, sort_keys=True)
"""

# runs each (commands, config) entry of the JSON file <configs> through the
# run_* functions of the aggmfg on sys.path, stopped where a run would make
# its output directory, and writes each run's outcome to the JSON file <out>
_CONFIG_RUNNER = """
import json, os, sys, warnings
import aggmfg
from aggmfg import runs
from aggmfg.errors import ConfigError
src, configs, out = sys.argv[1:4]
assert os.path.dirname(aggmfg.__file__) == os.path.join(src, "aggmfg"), aggmfg.__file__
warnings.simplefilter("ignore")

class Reached(Exception):
    pass

def reached(*args, **kwargs):
    raise Reached

runs.prepare_out_dir = reached
entry = {"solve": runs.run_single, "certify": runs.run_certify, "sweep": runs.run_sweep,
         "longtime": runs.run_longtime, "kernelcheck": runs.run_kernelcheck}
outcomes = []
with open(configs) as fh:
    for commands, cfg in json.load(fh):
        row = []
        for command in commands:
            try:
                entry[command](cfg)
                row.append("returned")
            except Reached:
                row.append("reached")
            except ConfigError as exc:
                row.append("exit 2: " + ", ".join(sorted(exc.keys)))
            except Exception as exc:
                row.append("traceback: " + type(exc).__name__)
        outcomes.append(row)
with open(out, "w") as fh:
    json.dump(outcomes, fh)
"""


def _load(name: str, path: Path):
    """The module at path, loaded without writing its bytecode next to it."""
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def mutated_configs(count: int, seed: int) -> list[tuple[list[str], dict]]:
    """(commands, config) of count configs drawn with seed, as
    tests/test_config_property.py draws them: even ones mutate its small
    solve config, for solve and certify, odd ones its series config, for
    sweep, longtime and kernelcheck."""
    from hypothesis import HealthCheck, Phase, given, settings
    from hypothesis import seed as with_seed
    from hypothesis import strategies as st

    sys.path.insert(0, str(REPO / "src"))  # the test module imports the command line
    prop = _load("test_config_property", REPO / "tests" / "test_config_property.py")
    drawn = []

    @with_seed(seed)
    @settings(max_examples=count, database=None, phases=[Phase.generate], deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(nx=st.sampled_from([3, 5, 9, 17]), nt=st.integers(1, 8),
           single=prop.mutations(prop.PATHS), series=prop.mutations(prop.SERIES_PATHS))
    def draw(nx, nt, single, series):
        if len(drawn) % 2 == 0:
            drawn.append((["solve", "certify"], prop._mutated(prop._small_config(nx, nt), single)))
        else:
            drawn.append((["sweep", "longtime", "kernelcheck"],
                          prop._mutated(prop._series_config(), series)))

    draw()
    return drawn


def _density(dim: int, std: float = 1.0, mean: float = 0.0) -> dict:
    return {"weights": [1.0], "means": [[mean] * dim], "stds": [std]}


def _solve(dim, nx, nt, sigma, horizon=1.0, **solver) -> dict:
    return {
        "problem": {"dim": dim, "horizon": horizon, "sigma": sigma, "alpha": 2.0 / dim,
                    "initial_density": _density(dim)},
        "grid": {"half_width": 12.0 if dim == 1 else 8.0, "nx": nx, "nt": nt},
        "solver": {"damping": 0.5, "tol": 1e-8, **solver},
    }


def jobs(acceptance: bool) -> list[tuple[str, str, dict | None]]:
    """(name, command, config) of every run; a None config runs the command's defaults."""
    workloads = _load("workloads", REPO / "perfbench" / "workloads.py")
    out = [(name, "solve" if name.startswith("solve") else "sweep",
            workloads.make_workload(name, 0).config) for name in workloads.WORKLOAD_NAMES]
    certify = _solve(1, 129, 64, 20.0, horizon=2.0)
    certify["problem"]["potential"] = {"family": "gaussian_well", "amplitude": -1.0,
                                       "width": 2.0, "center": [0.0]}
    certify["certify"] = {"optimize_shift": True, "terminal_density": _density(1, 0.8, 1.0)}
    tiny = _solve(1, 9, 4, 5.0)
    tiny["grid"]["half_width"] = 8e-154
    tiny["certify"] = {"terminal_density": _density(1, 1.0, 1.0)}
    longtime = _solve(1, 65, 1, 5.0)
    longtime["longtime"] = {"horizons": [0.5, 1.0, 2.0], "nx": 65, "nt_per_unit": 32}
    out += [
        ("certify", "certify", certify),
        ("certify_tiny", "certify", tiny),
        ("longtime", "longtime", longtime),
        ("solve_cn_1d", "solve", _solve(1, 129, 128, 5.0, time_scheme="crank_nicolson")),
        ("solve_cn_2d", "solve", _solve(2, 33, 20, 5.0, time_scheme="crank_nicolson")),
        ("kernelcheck", "kernelcheck", None),
        ("determinism", "solve", _solve(1, 129, 128, 0.05)),
        ("diverged", "solve", _solve(1, 65, 240, 30.0, horizon=4.0, damping=0.8, tol=1e-7)),
        ("budget", "solve", _solve(1, 65, 240, 20.0, horizon=4.0, damping=0.8, tol=1e-7,
                                   max_iter=40)),
    ]
    if acceptance:
        sweep = _solve(1, 65, 1, 0.0, damping=0.8, tol=1e-7, max_iter=150, d_cap=1e6)
        sweep["sweep"] = {
            "sigma_grid": [0.02, 0.05, 0.5, 2.0, 5.0, 10.0, 14.0, 17.0, 20.0, 23.0, 26.0, 30.0],
            "horizon_grid": np.linspace(1.0, 8.0, 12).tolist(),
            "nx": 65, "nt_per_unit": 60, "confirm_rounds": 2, "workers": 1,
        }
        out.append(("acceptance_sweep", "sweep", sweep))
    return out


def _write_configs(job_list, config_dir: Path) -> list[tuple[str, str, str]]:
    """(name, command, config path) of every job; an empty path runs with no config."""
    specs = []
    for name, command, cfg in job_list:
        path = ""
        if cfg is not None:
            path = str(config_dir / f"{name}.json")
            with open(path, "w") as fh:
                json.dump(cfg, fh, indent=2)
        specs.append((name, command, path))
    return specs


def _start(checkout: Path, cwd: Path, runner: str, *args: str) -> subprocess.Popen:
    """runner in a fresh interpreter on checkout's src/, which is its first argument."""
    src = str(checkout.resolve() / "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.Popen([sys.executable, "-c", runner, src, *args], env=env, cwd=str(cwd))


def _wait(sides: dict) -> bool:
    """Whether every side's runner exited 0; names the ones that did not."""
    failed = [side for side, proc in sides.items() if proc.wait() != 0]
    if failed:
        print(f"runner failed on: {', '.join(failed)}", file=sys.stderr)
    return not failed


def compare_configs(parent: Path, change: Path, count: int, seed: int) -> int:
    """Run count mutated configs on both checkouts; print the ones whose outcomes differ."""
    configs = mutated_configs(count, seed)
    with tempfile.TemporaryDirectory(prefix="compare_configs-") as tmp:
        tmp = Path(tmp)
        with open(tmp / "configs.json", "w") as fh:
            json.dump(configs, fh)
        sides = {side: _start(checkout, tmp, _CONFIG_RUNNER, str(tmp / "configs.json"),
                              str(tmp / f"{side}.json"))
                 for side, checkout in (("parent", parent), ("change", change))}
        if not _wait(sides):
            return 1
        outcomes = {side: json.loads((tmp / f"{side}.json").read_text()) for side in sides}
    differ = 0
    for i, ((commands, cfg), a, b) in enumerate(zip(configs, outcomes["parent"],
                                                     outcomes["change"])):
        if a != b:
            differ += 1
            print(f"config {i}: {json.dumps(cfg, sort_keys=True)}")
            for command, x, y in zip(commands, a, b):
                if x != y:
                    print(f"  {command}: {x} -> {y}")
    runs = sum(len(commands) for commands, _ in configs)
    print(f"{len(configs)} configs, {runs} command runs, {differ} configs differ")
    return 1 if differ else 0


def _files(root: Path) -> set[str]:
    return {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}


def _cells_csv(path: Path) -> list[tuple[str, str, object]]:
    """(cell position, column, value) of every CSV cell; a header row names the columns."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0] if rows and not all(map(_is_number, rows[0])) else None
    return [
        (f"{i}:{j}", header[j] if header and j < len(header) else str(j), cell)
        for i, row in enumerate(rows) for j, cell in enumerate(row)
    ]


def _cells_json(path: Path) -> list[tuple[str, str, object]]:
    """(key path, column, value) of every JSON leaf; the column drops list indices."""
    cells = []

    def walk(node, at, column):
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, f"{at}.{key}", f"{column}.{key}")
        elif isinstance(node, list):
            for i, value in enumerate(node):
                walk(value, f"{at}[{i}]", f"{column}[]")
        else:
            cells.append((at, column, node))

    with open(path) as fh:
        walk(json.load(fh), "", "")
    return cells


def _is_number(cell) -> bool:
    if isinstance(cell, bool):
        return False
    if isinstance(cell, (int, float)):
        return True
    try:
        float(cell)
    except (TypeError, ValueError):
        return False
    return True


def deviation(a: Path, b: Path) -> tuple[float, str] | None:
    """The largest numeric deviation between two CSV or JSON files, relative
    to its column's largest magnitude, and that column; inf when the files'
    shapes or non-numeric cells differ; None for other file types."""
    reader = {".csv": _cells_csv, ".json": _cells_json}.get(a.suffix)
    if reader is None:
        return None
    try:
        cells_a, cells_b = reader(a), reader(b)
    except (ValueError, UnicodeDecodeError):
        return math.inf, "(unreadable)"
    if [c[:2] for c in cells_a] != [c[:2] for c in cells_b]:
        return math.inf, "(shape)"
    scale: dict[str, float] = {}
    pairs = []
    for (_, column, x), (_, _, y) in zip(cells_a, cells_b):
        if not (_is_number(x) and _is_number(y)):
            if x != y:
                return math.inf, column
            continue
        x, y = float(x), float(y)
        pairs.append((column, x, y))
        for v in (x, y):
            if math.isfinite(v):
                scale[column] = max(scale.get(column, 0.0), abs(v))
    worst, where = 0.0, ""
    for column, x, y in pairs:
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        gap = abs(x - y)
        dev = gap / scale[column] if scale.get(column, 0.0) > 0 and math.isfinite(gap) else math.inf
        if dev > worst:
            worst, where = dev, column
    return worst, where


def differing(a: Path, b: Path) -> tuple[list[str], int]:
    """(files that differ or exist on one side only, files compared)."""
    files_a, files_b = _files(a), _files(b)
    diff = sorted(files_a ^ files_b)
    common = sorted(files_a & files_b)
    diff += [f for f in common if not filecmp.cmp(a / f, b / f, shallow=False)]
    return sorted(diff), len(common)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout root of the parent commit")
    parser.add_argument("change", type=Path, help="checkout root of the change")
    parser.add_argument("--acceptance", action="store_true",
                        help="also run the 144-cell acceptance sweep")
    parser.add_argument("--rtol", type=float, default=None,
                        help="compare differing CSV and JSON cells within X times "
                             "their column's largest magnitude")
    parser.add_argument("--configs", type=int, default=None, metavar="N",
                        help="instead compare the outcomes of N mutated configs")
    parser.add_argument("--seed", type=int, default=0, help="seed of the --configs draw")
    args = parser.parse_args(argv)
    if args.configs is not None:
        return compare_configs(args.parent, args.change, args.configs, args.seed)
    job_list = jobs(args.acceptance)
    with tempfile.TemporaryDirectory(prefix="compare_outputs-") as tmp:
        tmp = Path(tmp)
        (tmp / "configs").mkdir()
        specs = _write_configs(job_list, tmp / "configs")
        sides = {}
        for side, checkout in (("parent", args.parent), ("change", args.change)):
            (tmp / side).mkdir()
            sides[side] = _start(checkout, tmp / side, _RUNNER, str(tmp / side),
                                 json.dumps(specs))
        if not _wait(sides):
            return 1
        diff, compared = differing(tmp / "parent", tmp / "change")
        beyond = []
        for name in diff:
            found = None
            if args.rtol is not None and (tmp / "parent" / name).is_file() \
                    and (tmp / "change" / name).is_file():
                found = deviation(tmp / "parent" / name, tmp / "change" / name)
            if found is None:
                beyond.append(name)
                print(f"differs: {name}")
                continue
            worst, column = found
            within = worst <= args.rtol
            if not within:
                beyond.append(name)
            print(f"{'within rtol' if within else 'differs'}: {name} "
                  f"(largest deviation {worst:.3g} in {column or 'value'})")
    summary = f"{len(job_list)} commands, {compared} files compared, {len(diff)} differ"
    if args.rtol is not None:
        summary += f", {len(beyond)} beyond rtol {args.rtol:g}"
    print(summary)
    return 1 if beyond else 0


if __name__ == "__main__":
    sys.exit(main())
