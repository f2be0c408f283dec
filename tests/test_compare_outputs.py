"""tools/compare_outputs.py --rtol: cell-by-cell comparison of CSV and JSON outputs."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(path, text):
    path.write_text(text)
    return path


def test_csv_deviation_is_relative_to_its_columns_largest_magnitude(tool, tmp_path):
    a = _write(tmp_path / "a.csv", "x,value\n-1.0,100.0\n0.0,2.0\n1.0,1e-20\n")
    b = _write(tmp_path / "b.csv", "x,value\n-1.0,100.0\n0.0,2.0000000000001\n1.0,3e-20\n")
    worst, column = tool.deviation(a, b)
    assert column == "value"
    assert worst == pytest.approx(1e-15, rel=0.02)  # 1e-13 against the column's 100
    assert tool.deviation(a, a) == (0.0, "")


def test_json_columns_drop_list_indices(tool, tmp_path):
    doc = {"verdict": "converged", "iterations": 15, "residual_history": [1.0, 1e-3, 1e-9]}
    a = _write(tmp_path / "a.json", json.dumps(doc))
    doc["residual_history"][2] = 1.5e-9
    b = _write(tmp_path / "b.json", json.dumps(doc))
    worst, column = tool.deviation(a, b)
    assert column == ".residual_history[]"
    assert worst == pytest.approx(5e-10)


@pytest.mark.parametrize("other", [
    {"verdict": "diverged", "iterations": 15, "d": [1.0, 2.0]},  # a string cell
    {"verdict": "converged", "iterations": 15, "d": [1.0]},  # a shorter list
    {"verdict": "converged", "iterations": 15, "d": [1.0, math.inf]},  # inf against a number
])
def test_any_other_difference_is_infinite(tool, tmp_path, other):
    a = _write(tmp_path / "a.json", json.dumps({"verdict": "converged", "iterations": 15,
                                                  "d": [1.0, 2.0]}))
    b = _write(tmp_path / "b.json", json.dumps(other))
    assert tool.deviation(a, b)[0] == math.inf


def test_other_file_types_have_no_numeric_comparison(tool, tmp_path):
    a = _write(tmp_path / "a.txt", "1.0\n")
    assert tool.deviation(a, _write(tmp_path / "b.txt", "1.1\n")) is None


def test_config_draw_is_seeded_and_alternates_its_commands(tool):
    first, again, other = (tool.mutated_configs(8, seed) for seed in (3, 3, 4))
    assert json.dumps(first) == json.dumps(again) != json.dumps(other)  # NaN-safe equality
    assert [commands for commands, _ in first] == [
        ["solve", "certify"], ["sweep", "longtime", "kernelcheck"]] * 4


def test_configs_mode_names_each_differing_config(tool, tmp_path, capsys):
    repo = TOOL.parents[1]
    assert tool.main([str(repo), str(repo), "--configs", "2"]) == 0
    assert capsys.readouterr().out.endswith("2 configs, 5 command runs, 0 configs differ\n")
    # a checkout in which no grid fits in memory: every command that reads a
    # grid now names its nx key
    src = tmp_path / "change" / "src" / "aggmfg"
    src.mkdir(parents=True)
    for path in (repo / "src" / "aggmfg").glob("*.py"):
        (src / path.name).write_text(path.read_text())
    with open(src / "config.py", "a") as fh:
        fh.write("\n_MAX_FLOATS = 0\n")
    assert tool.main([str(repo), str(tmp_path / "change"), "--configs", "2"]) == 1
    out = capsys.readouterr().out
    changed = [line.split(" -> ")[1] for line in out.splitlines() if line.startswith("  ")]
    assert changed and all(".nx" in outcome for outcome in changed)
    assert out.endswith("2 configs, 5 command runs, 2 configs differ\n")
