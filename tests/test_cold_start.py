"""scipy loads at the first tridiagonal solve, and not before.

Importing scipy.linalg costs about 0.2 s, so the package binds LAPACK's
dgtsv on the first `parabolic.solve_banded` call. Each check runs in a
fresh interpreter, where nothing else has imported scipy yet.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_fresh(script: str, tmp_path) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_scipy_loads_only_at_the_first_tridiagonal_solve(tmp_path):
    _run_fresh(f"""
        import copy
        import json
        import sys

        def no_scipy(step):
            loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
            assert not loaded, f"{{step}} loaded {{loaded[:3]}}"

        import aggmfg
        from aggmfg import config, runs
        from aggmfg.cli import main
        no_scipy("import aggmfg")

        sys.path.insert(0, {str(ROOT / "perfbench")!r})
        import workloads
        for name in ("solve_1d", "solve_2d", "sweep"):
            cfg = workloads.make_workload(name, 0).config
            if "sweep" in cfg:
                cfg = copy.deepcopy(cfg)
                cfg["problem"]["sigma"] = cfg["sweep"]["sigma_grid"][0]
                cfg["problem"]["horizon"] = cfg["sweep"]["horizon_grid"][0]
                config.build_problem(cfg)
                config.build_solver(cfg)
            else:
                config.build_run(cfg)
            no_scipy(f"validating the {{name}} config")

        cfg = workloads.solve_config(1, 8.0, 17, 8, 0.05, 1.0)
        runs.run_certify(cfg, out_dir="certify")
        no_scipy("run_certify")
        runs.run_kernelcheck({{}}, out_dir="kernelcheck")
        no_scipy("run_kernelcheck")

        bad = copy.deepcopy(cfg)
        bad["grid"]["nx"] = 16
        with open("bad.json", "w") as fh:
            json.dump(bad, fh)
        assert main(["solve", "bad.json"]) == 2
        no_scipy("a config error")

        runs.run_single(cfg, out_dir="solve")
        assert "scipy.linalg" in sys.modules
    """, tmp_path)


@pytest.mark.parametrize("case", ["singular", "strided"])
def test_first_solve_keeps_every_kernel_check(tmp_path, case):
    # the first call goes through the loader, which must not skip a check
    _run_fresh(f"""
        import numpy as np
        from aggmfg import parabolic
        from aggmfg.errors import SolverError

        assert parabolic.dgtsv.__module__ == "aggmfg.parabolic"
        dl, d, du = np.zeros(2), np.array([1.0, 0.0, 1.0]), np.zeros(2)
        if {case!r} == "singular":
            x, error = np.ones(3), SolverError
        else:
            d[1] = 1.0
            x, error = np.ones(6)[::2], ValueError
        try:
            parabolic.solve_banded(dl, d, du, x)
        except error:
            pass
        else:
            raise AssertionError("the first solve_banded call did not raise")
        from scipy.linalg import lapack
        assert parabolic.dgtsv is lapack.dgtsv
    """, tmp_path)
