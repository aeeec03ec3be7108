"""Symmetry oracles: exact invariances of the discrete cell, film and
limit problems.

They give references for the values that have no closed form (the
non-convex forms, the clamped form for p != 2, the film and its
Gamma-limit under loads), so a rewrite of those paths is checked
without one.
"""

import numpy as np
import pytest

from filmcell.cell import (CellProblemSpec, InnerConfig, cosserat_density,
                           membrane_density, membrane_density_periodic,
                           minimize_over_z, quasiconvexify)
from filmcell.field import CellMesh, SheetMesh
from filmcell.integrand import density_from_config
from filmcell.thinfilm import LoadSystem, ThinFilmProblem, convergence_study

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


# -- the film and its Gamma-limit ---------------------------------------------

F_LOAD = np.array([0.0, 0.05, 0.1])
G0 = np.array([0.1, 0.0, 0.2])
DATUM = np.array([[0.1, 0.0], [0.0, 0.05], [0.0, 0.0]])


def _rot(axis, angle):
    c, s = np.cos(angle), np.sin(angle)
    i, j = [k for k in range(3) if k != axis]
    R = np.eye(3)
    R[i, i], R[i, j], R[j, i], R[j, j] = c, -s, s, c
    return R


R = _rot(2, 0.7) @ _rot(0, 0.3)


def _study(modulation=LAMINATE, load=1.0, datum=DATUM, frame=np.eye(3)):
    """convergence_study of the p = 2 laminate film on a 2 x 2 sheet."""
    W = density_from_config({"family": "pnorm", "params": {"p": 2.0},
                             "modulation": modulation})
    g0 = load * frame @ G0
    return convergence_study(ThinFilmProblem(
        W=W, omega=SheetMesh(2, 2), fbar_bc=frame @ datum,
        loads=LoadSystem(f=load * frame @ F_LOAD, g0=(g0, -g0)),
        epsilons=(0.5, 0.25), n3=2,
        cell_template=CellProblemSpec(fbar=np.zeros((3, 2)), mesh=CellMesh(2, 2, 2))))


@pytest.fixture(scope="module")
def base_study():
    return _study()


def _statuses(study):
    return [study.limit_info["status"]] + [r["status"] for r in study.rows]


# Measured relative errors: film rows <= 2.7e-16 in every case; the
# limit energy 6.7e-12 (scale), 3.3e-12 (frame) and 1.3e-13
# (homogeneity), the rotated bbar 6.7e-12.  The limit's stopping test is
# not scale invariant, so the scaled limit ends max_iter (500
# iterations) while the base one ends ok (7): the statuses are recorded
# as a test property, not compared.
FILM_REL, LIMIT_REL = 1e-14, 1e-10


T = 1.7
SYMMETRIES = {
    # a -> C a with every load times C: energies times C
    "modulation-scale": ({"modulation": {"kind": "product", "factors": [
        LAMINATE, {"kind": "constant", "value": C}]}, "load": C}, C),
    # loads and datum rotated by R: equal energies, bbar -> R bbar
    "frame": ({"frame": R}, 1.0),
    # loads and datum times T, p = 2: energies times T^2
    "homogeneity": ({"load": T, "datum": T * DATUM}, T * T),
}


@pytest.mark.parametrize("case", SYMMETRIES)
def test_film_and_limit_symmetry(base_study, case, record_property):
    kwargs, factor = SYMMETRIES[case]
    study = _study(**kwargs)
    record_property("statuses", {"base": _statuses(base_study), case: _statuses(study)})
    assert all("error" not in r for r in study.rows + base_study.rows)
    for row, ref in zip(study.rows, base_study.rows):
        assert row["energy"] == pytest.approx(factor * ref["energy"], rel=FILM_REL, abs=0.0)
    assert study.limit_energy == pytest.approx(factor * base_study.limit_energy,
                                               rel=LIMIT_REL, abs=0.0)
    if case == "frame":
        want = base_study.bbar_limit @ R.T
        assert np.max(np.abs(study.bbar_limit - want)) <= LIMIT_REL * np.max(np.abs(want))
