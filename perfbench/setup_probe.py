"""Time one fresh interpreter's set-up: import aggmfg and validate a workload config.

Reads {"entry": "run_single" | "run_sweep", "config": {...}} as JSON on
stdin and prints the seconds taken. run.py starts this script several
times per run and reports the median, rescaled to the reference speed of
speed.py's probe, as setup_s.
"""

import copy
import json
import os
import sys
import time


def main() -> None:
    job = json.load(sys.stdin)
    cfg = job["config"]
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    t0 = time.perf_counter()
    from aggmfg import config

    if job["entry"] == "run_single":
        config.build_run(cfg)
    else:
        # a sweep validates its problem template at the first cell, as run_sweep does
        template = copy.deepcopy(cfg)
        template["problem"]["sigma"] = cfg["sweep"]["sigma_grid"][0]
        template["problem"]["horizon"] = cfg["sweep"]["horizon_grid"][0]
        config.build_problem(template)
        config.build_solver(template)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
