"""Run a thickness sweep from a YAML config and print the gap table.

Usage: python3 scripts/run_convergence.py --config configs/gamma_laminate.yaml

Exits like ``filmcell gamma``: 1 if a thickness failed, 2 if the limit or
a film solve ran out of iterations, else 0.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from filmcell.config import build_problem, load_config, resolve_config
from filmcell.thinfilm import convergence_study


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=None, help="YAML run configuration")
    ap.add_argument("--csv", default=None, help="optional CSV output path")
    args = ap.parse_args()

    resolved = load_config(args.config) if args.config else resolve_config({})
    problem = build_problem(resolved)
    study = convergence_study(problem)

    print(f"limit energy: {study.limit_energy:.12g} "
          f"({study.limit_info['iterations']} descent iterations)")
    print(f"{'epsilon':>10} {'energy':>18} {'gap':>12} {'|bbar|':>10} {'s':>7}")
    for row in study.rows:
        if "error" in row:
            print(f"{row['epsilon']:>10.4g}  failed: {row['error']}")
            continue
        print(f"{row['epsilon']:>10.4g} {row['energy']:>18.12g} "
              f"{row['gap']:>12.3e} {row['bbar_norm']:>10.3e} "
              f"{row['seconds']:>7.2f}")
    if args.csv:
        study.to_csv(args.csv)
        print(f"wrote {args.csv}")
    if not study.converged:
        print("not converged: the limit or a film solve ran out of iterations")
    return 1 if not study.ok else 0 if study.converged else 2


if __name__ == "__main__":
    sys.exit(main())
