"""Benchmark of the aggmfg solver: one workload per run, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload {solve_1d,solve_2d,sweep,all} \
        --seed N --seconds S --trace {0,1}

`--workload all` runs the three workloads one after another, each in its
own interpreter. The last line of a workload's standard output is
{"correct", "attempted", "failed", "metrics"}; the lines before it give
each metric with its unit, the check_fail_frac and the environment.
Records and span dumps are written to .perfbench_out/ at the repository
root. The benchmark's own tests run with `python3 -m pytest perfbench/tests -q`.
"""

import os
import sys

# One closed-loop caller in one process: BLAS gets one thread, set before
# numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

_HERE = os.path.dirname(os.path.abspath(__file__))
# the package under test is this checkout's source, never an installed copy
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))

import bench  # noqa: E402

if __name__ == "__main__":
    sys.exit(bench.main(sys.argv[1:]))
