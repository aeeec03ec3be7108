"""Cell problems: membrane, Cosserat, and envelope densities."""

import gc
import json
import weakref
from dataclasses import replace

import numpy as np
import pytest

from filmcell.cell import (CellProblemSpec, CellSolveError, InnerConfig,
                           LSearchConfig, cosserat_density,
                           lamination_upper_bound, membrane_density,
                           membrane_density_periodic, minimize_over_z,
                           quasiconvexify, refinement_ladder)
from filmcell.field import LATERAL_PERIODIC, CellMesh, transverse_average
import filmcell.cell as cell_mod
import filmcell.field as field_mod
from filmcell.integrand import (FiberInfimumError, MaterialPoint,
                                PlanarCheckerboard,
                                TransverseLaminate, aniso_quadratic_density,
                                density_from_config, pnorm_density,
                                two_well_density)
from oracles import (laminate_cosserat, laminate_membrane, quadratic_cosserat,
                     quadratic_membrane, rel_err)

MESH2 = CellMesh(2, 2, 2)
W2 = pnorm_density(2.0)
LAM = pnorm_density(2.0, modulation=TransverseLaminate((1.0, 3.0), (0.0,)))


def spec_at(fbar, z=None, mesh=MESH2, **kw):
    return CellProblemSpec(fbar=np.asarray(fbar, dtype=float).reshape(3, 2),
                           z=None if z is None else np.asarray(z, dtype=float),
                           mesh=mesh, **kw)


FB = np.array([[0.5, 0.1], [0.0, -0.3], [0.2, 0.0]])


# -- quadratic and laminate oracles ------------------------------------------

def test_membrane_quadratic_oracle():
    sol = membrane_density(W2, spec_at(FB))
    assert rel_err(sol.value, quadratic_membrane(FB)) < 1e-10
    # flat thickness response resolves to the unit ratio
    assert sol.l_star == 1.0
    assert sol.warnings == []


def test_cosserat_quadratic_oracle():
    z = np.array([0.2, -0.1, 0.4])
    sol = cosserat_density(W2, spec_at(FB, z))
    assert rel_err(sol.value, quadratic_cosserat(FB, z)) < 1e-10
    assert sol.field.constraint_residual() < 1e-10


def test_membrane_laminate_oracle():
    sol = membrane_density(LAM, spec_at(FB, mesh=CellMesh(2, 2, 4)))
    assert rel_err(sol.value, laminate_membrane(FB)) < 1e-8


def test_cosserat_laminate_oracle():
    z = np.array([0.0, 0.0, 0.5])
    sol = cosserat_density(LAM, spec_at(FB, z, mesh=CellMesh(2, 2, 4)))
    assert rel_err(sol.value, laminate_cosserat(FB, z)) < 1e-8


def test_cosserat_constraint_satisfied():
    z = np.array([0.3, 0.0, -0.2])
    sol = cosserat_density(W2, spec_at(FB, z))
    scale = sol.diagnostics.get("l_star", sol.l_star)
    meta = sol.field.constraint_meta
    assert np.allclose(meta["target"], z)
    avg = transverse_average(sol.field, meta["scale"])
    assert np.max(np.abs(avg.mean(axis=(0, 1)) - z)) < 1e-9


# -- form equivalence and the transverse-vector identity ---------------------

@pytest.mark.parametrize("W", [
    W2,
    pnorm_density(3.0),
    aniso_quadratic_density(entry_weights=np.array(
        [[2.0, 1.0, 0.5], [1.0, 2.0, 0.5], [1.0, 1.0, 1.0]])),
])
def test_forms_agree_convex(W):
    a = membrane_density(W, spec_at(FB))
    b = membrane_density_periodic(W, spec_at(FB))
    assert abs(a.value - b.value) <= 2e-8 * (1.0 + abs(a.value))


def test_periodic_form_never_above_zero_form():
    A = np.diag([0.4, 0.0, 0.0])
    W = two_well_density(A)
    spec = spec_at(np.array([[0.2, 0.0], [0.0, 0.0], [0.0, 0.0]]),
                   mesh=CellMesh(4, 2, 2))
    a = membrane_density(W, spec)
    b = membrane_density_periodic(W, spec)
    assert b.value <= a.value + 2e-8 * (1.0 + abs(a.value))


def test_minimize_over_z_matches_membrane():
    sol, b0 = minimize_over_z(LAM, spec_at(FB, mesh=CellMesh(2, 2, 4)))
    memb = membrane_density(LAM, spec_at(FB, mesh=CellMesh(2, 2, 4)))
    assert abs(sol.value - memb.value) <= 2e-8 * (1.0 + abs(memb.value))
    assert np.linalg.norm(b0) < 1e-6


def test_minimize_over_z_picks_the_fiber_vector():
    # single active branch of the double well: b0 is the well's column
    A = np.zeros((3, 3))
    A[0, 0] = 0.4
    A[2, 2] = 0.3
    W = two_well_density(A)
    fbar = 1.5 * A[:, :2]
    sol, b0 = minimize_over_z(W, spec_at(fbar))
    assert np.max(np.abs(b0 - A[:, 2])) < 1e-6
    want = float(np.sum((fbar - A[:, :2]) ** 2))
    assert rel_err(sol.value, want) < 1e-8


def test_minimize_over_z_records_a_skipped_fiber_start(monkeypatch):
    W = pnorm_density(2.0)

    def no_fiber(x, fbar):
        raise FiberInfimumError("forced failure")
    monkeypatch.setattr(W, "fiber_infimum", no_fiber)
    sol, b0 = minimize_over_z(W, spec_at(FB))
    assert "fiber-start-skipped" in sol.warnings
    assert rel_err(sol.value, quadratic_membrane(FB)) < 1e-8
    assert np.linalg.norm(b0) < 1e-6


def test_cosserat_above_minimum_over_z():
    z_off = np.array([0.3, 0.2, -0.1])
    at_z = cosserat_density(W2, spec_at(FB, z_off))
    sol, _ = minimize_over_z(W2, spec_at(FB))
    assert sol.value <= at_z.value + 1e-10


# -- heterogeneity in the frozen in-plane point ------------------------------

def test_checkerboard_scales_with_x0():
    W = pnorm_density(2.0, modulation=PlanarCheckerboard((1.0, 2.0), 0.5))
    lo = membrane_density(W, spec_at(FB, x0=MaterialPoint((0.25, 0.25), 0.0)))
    hi = membrane_density(W, spec_at(FB, x0=MaterialPoint((0.75, 0.25), 0.0)))
    assert rel_err(lo.value, quadratic_membrane(FB)) < 1e-10
    assert rel_err(hi.value, 2.0 * quadratic_membrane(FB)) < 1e-10


# -- relaxation --------------------------------------------------------------

def test_quasiconvexify_trivial_for_convex():
    F = np.array([[0.5, 0.1, 0.0], [0.0, -0.3, 0.2], [0.1, 0.0, 0.4]])
    sol = quasiconvexify(W2, F, spec_at(np.zeros((3, 2))))
    assert rel_err(sol.value, float(np.sum(F ** 2))) < 1e-8


def test_quasiconvexify_strictly_relaxes_double_well():
    A = np.zeros((3, 3))
    A[0, 0] = 0.7
    W = two_well_density(A)
    spec = spec_at(np.zeros((3, 2)), mesh=CellMesh(4, 1, 4))
    sol = quasiconvexify(W, np.zeros((3, 3)), spec)
    assert sol.value <= 1e-3
    assert W.evaluate(MaterialPoint((0.5, 0.5), 0.0), np.zeros((3, 3))) > 0.1


def test_lamination_bound_dominates_envelope():
    A = np.zeros((3, 3))
    A[0, 0] = 0.7
    W = two_well_density(A)
    for t in (0.0, 0.5):
        F = t * A
        ub = lamination_upper_bound(W, F)
        assert ub <= 1e-6
        sol = quasiconvexify(W, F, spec_at(np.zeros((3, 2)),
                                           mesh=CellMesh(4, 1, 4)))
        assert sol.value <= ub + 1e-3
    raw = W.evaluate(MaterialPoint((0.5, 0.5), 0.0), 2.0 * A)
    assert lamination_upper_bound(W, 2.0 * A) <= raw + 1e-12


# -- search diagnostics and failure modes ------------------------------------

def test_l_boundary_warning():
    A = np.zeros((3, 3))
    A[0, 2] = 0.3
    A[2, 2] = 0.4
    W = two_well_density(A)
    spec = spec_at(np.zeros((3, 2)),
                   l_search=LSearchConfig(l_min=0.01, l_max=0.05,
                                          grid_count=5))
    sol = membrane_density(W, spec)
    assert "l-search-boundary" in sol.warnings


def test_lying_upper_growth_metadata_raises():
    # an understated upper constant is caught against the computed value
    W = density_from_config({
        "family": "pnorm", "params": {"p": 2.0},
        "growth": {"p": 2.0, "beta_lower": 0.1, "beta_upper": 0.2},
    })
    with pytest.raises(CellSolveError) as err:
        cosserat_density(W, spec_at(FB, np.zeros(3)))
    assert err.value.best_value is not None
    assert "upper bound" in str(err.value)


def test_lsearch_config_validation():
    with pytest.raises(ValueError):
        LSearchConfig(l_min=-1.0)
    with pytest.raises(ValueError):
        LSearchConfig(l_min=2.0, l_max=1.0)
    with pytest.raises(ValueError):
        LSearchConfig(grid_count=1)


def test_inner_config_maps_to_solver():
    cfg = InnerConfig(max_iter=42, grad_tol=1e-6)
    sc = cfg.solver()
    assert (sc.max_iter, sc.grad_tol) == (42, 1e-6)


# -- reproducibility and refinement ------------------------------------------

def test_solutions_deterministic():
    a = cosserat_density(LAM, spec_at(FB, [0.1, 0.0, 0.3]))
    b = cosserat_density(LAM, spec_at(FB, [0.1, 0.0, 0.3]))
    assert a.value == b.value
    assert a.l_star == b.l_star
    assert a.spec_hash == b.spec_hash


def test_warm_start_is_accepted():
    spec = spec_at(FB, [0.0, 0.0, 0.4], mesh=CellMesh(2, 2, 4))
    cold = cosserat_density(LAM, spec)
    warm = cosserat_density(LAM, spec, warm_start=cold.field)
    assert abs(warm.value - cold.value) <= 1e-9 * (1.0 + abs(cold.value))


def test_refinement_ladder_non_increasing():
    spec = spec_at(FB, mesh=CellMesh(2, 2, 2))
    sols = refinement_ladder(membrane_density, LAM, spec, 3)
    vals = [s.value for s in sols]
    assert len(vals) == 3
    for coarse, fine in zip(vals, vals[1:]):
        assert fine <= coarse + 1e-8 * (1.0 + abs(coarse))


def test_solution_record_is_serializable():
    sol = membrane_density(W2, spec_at(FB))
    text = json.dumps(sol.to_record(), sort_keys=True)
    assert "value" in text and "diagnostics" in text
    assert isinstance(sol.spec_hash, str) and len(sol.spec_hash) == 64


def test_spec_content_distinguishes_kind():
    spec = spec_at(FB)
    assert spec.content("membrane") != spec.content("cosserat")


@pytest.mark.parametrize("name,kw", [
    ("fbar", {"fbar": np.full((3, 2), np.nan)}),
    ("z", {"fbar": FB, "z": [0.0, np.inf, 0.0]}),
])
def test_spec_rejects_non_finite_arguments(name, kw):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        CellProblemSpec(**kw)


def test_stalling_laminate_cosserat_converges_at_every_l(monkeypatch):
    # L-BFGS ran this 2x2x2 cell to max_iter at some L; Newton steps do not
    import filmcell.solvers as solvers_mod
    statuses = []
    descent = solvers_mod.minimize_lbfgs

    def recorded(*args, **kwargs):
        res = descent(*args, **kwargs)
        statuses.append(res.status)
        return res
    monkeypatch.setattr(solvers_mod, "minimize_lbfgs", recorded)
    fbar = [[-0.49, -0.08], [-0.36, -0.14], [-0.56, 0.65]]
    z = [-0.46, 0.27, -0.32]
    sol = cosserat_density(LAM, spec_at(fbar, z, inner=InnerConfig(multistart=1)))
    assert rel_err(sol.value, laminate_cosserat(np.asarray(fbar), np.asarray(z))) < 1e-10
    # one start per L: the zero start at the first, the warm one after it
    assert len(statuses) == len(sol.diagnostics["l_profile"])
    assert set(statuses) == {"ok"}


def test_only_quadratic_families_drop_the_zero_start():
    warm = np.ones(MESH2.node_shape + (3,))
    spec = spec_at(FB)

    def labels(W, warm_values):
        return [label for label, _ in cell_mod._base_starts(W, MESH2, spec, FB, 1.0,
                                                            warm_values)]
    assert labels(LAM, warm) == ["warm"]
    assert labels(LAM, None) == ["zero"]
    assert labels(pnorm_density(3.0), warm) == ["warm", "zero"]


def test_second_table_node_reuses_every_factorization(monkeypatch):
    # two table nodes at one x0 on one L grid, as build_table solves them
    factored = []
    splu = field_mod.splu
    monkeypatch.setattr(field_mod, "splu", lambda A: factored.append(A) or splu(A))
    field_mod._FACTORS.clear()
    first = cosserat_density(LAM, spec_at(FB, [0.1, -0.2, 0.3]))
    assert 0 < len(factored) <= len(first.diagnostics["l_profile"])
    n_first = len(factored)
    spec = spec_at(-FB, [-0.4, 0.0, 0.2])
    warm = cosserat_density(LAM, spec)
    assert len(factored) == n_first
    field_mod._FACTORS.clear()
    cold = cosserat_density(LAM, spec)
    assert len(factored) > n_first
    assert warm.value.hex() == cold.value.hex()
    assert warm.field.values.tobytes() == cold.field.values.tobytes()


def test_fixed_l_solve_leaves_no_live_context(monkeypatch):
    contexts = []

    class Recorded(cell_mod.EnergyContext):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            contexts.append(weakref.ref(self))
    monkeypatch.setattr(cell_mod, "EnergyContext", Recorded)
    spec = spec_at(FB, [0.1, -0.2, 0.3])
    mesh = replace(MESH2, boundary_mode=LATERAL_PERIODIC)
    # with the collector off, only reference counts can release a context
    gc.disable()
    try:
        _, _, diag = cell_mod._solve_fixed(LAM, mesh, spec, spec.fbar, spec.z, 2.0,
                                           "frozen", constrained=True)
        assert diag["iterations"] > 1
        assert len(contexts) == 1 and contexts[0]() is None
    finally:
        gc.enable()


def test_laminate_cosserat_on_a_fine_mesh():
    # cosserat_basic physics on 8^3: a 1,728-dof bordered Newton system per L
    spec = spec_at([[0.5, 0.0], [0.0, -0.3], [0.0, 0.2]], [0.0, 0.0, 0.4],
                   mesh=CellMesh(8, 8, 8))
    sol = cosserat_density(LAM, spec)
    assert abs(sol.value - 1.0) <= 1e-10
    assert sol.l_star == 1.0
