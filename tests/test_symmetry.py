"""Symmetry oracles: exact invariances of the discrete cell problems.

They give references for the values that have no closed form (the
non-convex forms, the clamped form for p != 2), so a rewrite of those
paths is checked without one.
"""

import numpy as np
import pytest

from filmcell.cell import (CellProblemSpec, InnerConfig, cosserat_density,
                           membrane_density, membrane_density_periodic,
                           minimize_over_z, quasiconvexify)
from filmcell.field import CellMesh
from filmcell.integrand import density_from_config

C = 2.5
LAMINATE = {"kind": "laminate_x3", "levels": [1.0, 3.0], "breaks": [0.0]}
FBAR = np.array([[0.3, 0.1], [0.0, 0.2], [0.1, -0.2]])
Z = np.array([0.1, 0.0, 0.4])
SPEC = CellProblemSpec(fbar=FBAR, z=Z, mesh=CellMesh(2, 2, 2),
                       inner=InnerConfig(max_iter=100))

FORMS = {
    "clamped": lambda W: membrane_density(W, SPEC),
    "periodic": lambda W: membrane_density_periodic(W, SPEC),
    "cosserat": lambda W: cosserat_density(W, SPEC),
    "minimize_over_z": lambda W: minimize_over_z(W, SPEC)[0],
    "qcx": lambda W: quasiconvexify(W, np.column_stack([FBAR, Z]), SPEC),
}
FAMILIES = {
    "p2-laminate": {"family": "pnorm", "params": {"p": 2.0}},
    "p3-laminate": {"family": "pnorm", "params": {"p": 3.0}},
    "two-well": {"family": "two_well",
                 "params": {"well_plus": [[0.0, 0.0, 0.6], [0.0, 0.0, 0.0],
                                          [0.0, 0.0, 0.0]]}},
}


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("family", FAMILIES)
def test_modulation_scale(family, form):
    # Q for c * a is c * Q for a, at the same L*: the constant factor of a
    # product modulation scales every energy the descents compare.  The
    # two-well Cosserat cell stalls (max_iter) in both frames, and the
    # stopping test, an absolute gradient tolerance, is not scale
    # invariant, so stalled descents end at different iterates: 4.7e-8
    # apart at this budget, 7.2e-11 at the default 500 iterations.
    base = {**FAMILIES[family], "modulation": LAMINATE}
    scaled = {**base, "modulation": {"kind": "product", "factors": [
        LAMINATE, {"kind": "constant", "value": C}]}}
    sol_a = FORMS[form](density_from_config(base))
    sol_ca = FORMS[form](density_from_config(scaled))
    assert sol_ca.converged == sol_a.converged
    rel = 1e-12 if sol_a.converged else 1e-6
    assert sol_ca.value == pytest.approx(C * sol_a.value, rel=rel, abs=0.0)
    assert sol_ca.l_star == sol_a.l_star
