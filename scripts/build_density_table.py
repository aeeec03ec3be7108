"""Build a density table from a YAML config, save it, and spot-check it.

Usage: python3 scripts/build_density_table.py --config configs/tabulate_slice.yaml
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from filmcell.config import (build_cell_spec, build_density, build_grid,
                             load_config, resolve_config)
from filmcell.tabulate import (build_table, check_z_convexity, load_table,
                               query, save_table)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=None, help="YAML run configuration")
    ap.add_argument("--out", default="density_table.fct")
    args = ap.parse_args()

    resolved = load_config(args.config) if args.config else resolve_config({})
    W = build_density(resolved)
    grid = build_grid(resolved)
    kind = resolved["tabulate"]["kind"]
    template = build_cell_spec(resolved, with_z=(kind == "cosserat"))

    done = [0]

    def progress(k, total):
        done[0] = k
        if k % 10 == 0 or k == total:
            print(f"  {k}/{total} nodes", flush=True)

    t0 = time.perf_counter()
    table = build_table(W, grid, kind=kind, template=template, progress=progress)
    print(f"built {grid.node_count} nodes in {time.perf_counter() - t0:.1f}s "
          f"({table.invalid} invalid)")

    save_table(table, args.out)
    back = load_table(args.out)
    assert np.array_equal(back.values, table.values)
    print(f"wrote {args.out} (round trip verified)")

    if grid.z_axes is not None:
        report = check_z_convexity(back)
        print(f"z-convexity: {report['checked']} interior triples, "
              f"{report['violations']} violations")

    # sample the first stored point along the first active axis
    x = grid.x_points[0]
    mid = np.array([grid.axis_values(a)[len(grid.axis_values(a)) // 2]
                    for a in grid.axes])
    labels = ("f00", "f01", "f10", "f11", "f20", "f21", "z0", "z1", "z2")
    for off, (label, spec) in enumerate(zip(labels, grid.axes)):
        if spec[0] != "range":
            continue
        print(f"slice along {label}:")
        for t in np.linspace(spec[1], spec[2], 5):
            coords = mid.copy()
            coords[off] = t
            fbar = coords[:6].reshape(3, 2)
            z = coords[6:] if grid.z_axes is not None else None
            print(f"  {label}={t:+.3f}  value={query(back, x, fbar, z):.6f}")
        break
    return 0


if __name__ == "__main__":
    sys.exit(main())
