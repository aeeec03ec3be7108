"""Envelope of a double-well energy along the segment between the wells.

Samples the quasiconvex envelope of min(|F - A|^2, |F + A|^2) with
A = a (x) n at F = t A for t in [-1.2, 1.2].  Inside the segment the
envelope vanishes (fine laminates mixing the two wells); outside it
follows the raw energy.  The ``envelope`` column is the discrete
quasiconvexification on the unit cube; ``closed_form`` is the exact
envelope, so their difference is the discretization error.

Usage: python3 scripts/relaxation_profile.py [--amplitude 0.7] [--n 13]
                                             [--mesh 4]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from filmcell.cell import CellProblemSpec, InnerConfig, quasiconvexify
from filmcell.field import CellMesh
from filmcell.integrand import two_well_density


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--amplitude", type=float, default=0.7)
    ap.add_argument("--n", type=int, default=13)
    ap.add_argument("--mesh", type=int, default=4)
    args = ap.parse_args()

    A = np.zeros((3, 3))
    A[0, 0] = args.amplitude
    W = two_well_density(A)
    # off-center points need aggressive multistart to reach the best
    # discrete laminate; the default settings favor a nearby local well
    spec = CellProblemSpec(fbar=np.zeros((3, 2)),
                           mesh=CellMesh(args.mesh, 1, args.mesh),
                           inner=InnerConfig(multistart=8, perturb_scale=0.5))

    print(f"{'t':>6} {'raw':>12} {'envelope':>12} {'closed_form':>12}")
    warm = None
    for t in np.linspace(-1.2, 1.2, args.n):
        F = t * A
        sol = quasiconvexify(W, F, spec, warm_start=warm)
        warm = sol.field
        raw = W.evaluate(spec.x0, F)
        exact = float(W.family.relaxed_energy(F))
        print(f"{t:>6.2f} {raw:>12.6f} {sol.value:>12.6f} {exact:>12.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
