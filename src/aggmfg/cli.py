"""Command line entry point.

Exit codes: 0 for a completed run regardless of solver verdict, 2 for
configuration errors. Anything else escaping is a bug.
"""

from __future__ import annotations

import argparse
import math
import sys

from .config import load_config
from .errors import ConfigError
from .runs import run_certify, run_kernelcheck, run_longtime, run_single, run_sweep


def _add_common(sub, name, help_text):
    p = sub.add_parser(name, help=help_text)
    p.add_argument("config", help="path to a JSON config file")
    p.add_argument("--output", default=None, help="output directory (default: timestamped)")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aggmfg",
        description=(
            "Numerical solver and verification suite for second-order "
            "quadratic mean-field games with an aggregating local coupling."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_common(sub, "solve", "solve one problem and write diagnostics")
    _add_common(sub, "sweep", "phase table over a (sigma, T) grid")
    _add_common(sub, "longtime", "D(T) series over growing horizons")
    _add_common(sub, "certify", "non-existence certificates, no PDE solve")
    kc = sub.add_parser("kernelcheck", help="heat-kernel exponent table")
    kc.add_argument("config", nargs="?", default=None,
                    help="optional JSON config with a kernel.queries list")
    kc.add_argument("--output", default=None, help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config is not None else {}
        if args.command == "solve":
            summary = run_single(cfg, out_dir=args.output)
            print(f"verdict: {summary['verdict']} after {summary['iterations']} iterations")
            print(f"output: {summary['out_dir']}")
        elif args.command == "sweep":
            summary = run_sweep(cfg, out_dir=args.output)
            counts: dict[str, int] = {}
            for cell in summary["cells"]:
                counts[cell["verdict"]] = counts.get(cell["verdict"], 0) + 1
            for verdict in sorted(counts):
                print(f"{verdict}: {counts[verdict]} cells")
            print(f"empirical sigma threshold: {summary['empirical_sigma_threshold']}")
            print(f"output: {summary['out_dir']}")
        elif args.command == "longtime":
            summary = run_longtime(cfg, out_dir=args.output)
            for row in summary["series"]:
                print(f"T={row['horizon']:g}  {row['verdict']}  "
                      f"D={row['d_final']:.6g}  D/T={row['rescaled']:.6g}")
            print(f"output: {summary['out_dir']}")
        elif args.command == "certify":
            summary = run_certify(cfg, out_dir=args.output)
            cert = summary["certificate"]
            print(f"e0 = {cert['e0']:.12g}")
            if cert["t_star"] is not None:
                print(f"T_star = {cert['t_star']:.12g} "
                      f"(applies at the configured horizon: {summary['certificate_applies']})")
            else:
                print("no certificate: " + ("e0 <= 0 or a structural condition fails"
                                            if math.isfinite(cert["e0"]) else "e0 is not finite"))
            if summary["planning"] is not None:
                t_hat = summary["planning"]["t_hat"]
                print(f"planning T_hat = {t_hat:.12g}" if t_hat is not None
                      else "planning certificate does not apply")
            print(f"output: {summary['out_dir']}")
        else:
            summary = run_kernelcheck(cfg, out_dir=args.output)
            print(f"{'dim':>3} {'q':>6} {'kind':>8} {'status':>9} "
                  f"{'analytic':>12} {'fitted':>12}")
            for row in summary["rows"]:
                fitted = "" if row["fitted_exponent"] is None else f"{row['fitted_exponent']:.6f}"
                print(f"{row['dim']:>3} {row['exponent']:>6.3g} {row['kind']:>8} "
                      f"{row['status']:>9} {row['analytic_exponent']:>12.6f} {fitted:>12}")
            print(f"output: {summary['out_dir']}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
