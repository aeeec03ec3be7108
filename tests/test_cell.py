"""Cell problems: membrane, Cosserat, and envelope densities."""

import gc
import json
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest

from filmcell.cell import (CellProblemSpec, InnerConfig,
                           LSearchConfig, cosserat_density, cosserat_offset_grads,
                           membrane_density, membrane_density_periodic,
                           minimize_over_z, quasiconvexify, refinement_ladder)
from filmcell.field import LATERAL_PERIODIC, CellMesh, transverse_average
import filmcell.cell as cell_mod
import filmcell.field as field_mod
from filmcell.integrand import (ConstantModulation, MaterialPoint, PlanarCheckerboard,
                                TransverseLaminate, aniso_quadratic_density,
                                density_from_config, pnorm_density,
                                two_well_density)
from filmcell.solvers import SolveError, SolverConfig, minimize_lbfgs
from oracles import (central_difference, laminate_cosserat, laminate_membrane,
                     quadratic_cosserat, quadratic_membrane, rank_one_well,
                     rel_err, two_well_laminate, two_well_relaxed_compatible)

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
    assert sol.diagnostics["constraint_residual"] < 1e-10


def test_membrane_laminate_oracle():
    sol = membrane_density(LAM, spec_at(FB, mesh=CellMesh(2, 2, 4)))
    assert rel_err(sol.value, laminate_membrane(FB)) < 1e-8


def test_cosserat_laminate_oracle():
    z = np.array([0.0, 0.0, 0.5])
    sol = cosserat_density(LAM, spec_at(FB, z, mesh=CellMesh(2, 2, 4)))
    assert rel_err(sol.value, laminate_cosserat(FB, z)) < 1e-8


def test_cosserat_constraint_satisfied():
    z = np.array([0.3, 0.0, -0.2])
    spec = spec_at(FB, z)
    sol = cosserat_density(W2, spec)
    avg = transverse_average(sol.field, sol.l_star / 2.0)
    assert np.max(np.abs(avg.mean(axis=(0, 1)) - spec.z)) < 1e-9


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


# the single active well of test_minimize_over_z_picks_the_fiber_vector
ACTIVE_WELL = np.diag([0.4, 0.0, 0.3])
NARROW = LSearchConfig(0.5, 2.0, 3)


def test_minimize_over_z_records_a_skipped_fiber_start(monkeypatch):
    # the joint descent runs for non-convex W only
    W = two_well_density(ACTIVE_WELL)

    def no_fiber(x, fbar):
        raise SolveError("forced failure")
    monkeypatch.setattr(W, "fiber_infimum", no_fiber)
    fbar = 1.5 * ACTIVE_WELL[:, :2]
    sol, b0 = minimize_over_z(W, spec_at(fbar, l_search=NARROW))
    assert "fiber-start-skipped" in sol.warnings
    assert rel_err(sol.value, float(np.sum((fbar - ACTIVE_WELL[:, :2]) ** 2))) < 1e-8
    assert np.max(np.abs(b0 - ACTIVE_WELL[:, 2])) < 1e-6


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
        ub = two_well_laminate(F, A, -A)
        assert ub <= 1e-6
        sol = quasiconvexify(W, F, spec_at(np.zeros((3, 2)),
                                           mesh=CellMesh(4, 1, 4)))
        assert sol.value <= ub + 1e-3
    raw = W.evaluate(MaterialPoint((0.5, 0.5), 0.0), 2.0 * A)
    assert two_well_laminate(2.0 * A, A, -A) <= raw + 1e-12


# -- two-well values through the closed-form relaxation -------------------------

COLUMN_WELL = 0.7 * np.outer([1.0, 0.0, 0.0], [0.0, 0.0, 1.0])


@pytest.mark.parametrize("n3", [4, 7, 16])
def test_two_well_column_cosserat_reaches_the_relaxed_zero(n3):
    # z is the midpoint of the wells' segment: W there is 0.1225, QW is 0
    W = two_well_density(COLUMN_WELL)
    sol = cosserat_density(W, spec_at(np.zeros((3, 2)), [0.35, 0.0, 0.0],
                                      mesh=CellMesh(1, 1, n3)))
    assert 0.0 <= sol.value <= 1e-12
    assert sol.diagnostics["raw_integrand_value"] > 0.1
    assert sol.diagnostics["relaxed_value"] == sol.value


def test_two_well_cosserat_never_falls_below_the_envelope():
    well = rank_one_well()
    W = two_well_density(well)
    rng = np.random.default_rng(106)
    for _ in range(6):
        # criterion 06's points, on a narrow L window to keep the stalls short
        fbar = 1.6 * well[:, :2] + 0.05 * rng.uniform(-1, 1, (3, 2))
        z = 0.2 * rng.uniform(-1, 1, 3)
        sol = cosserat_density(W, spec_at(fbar, z, l_search=LSearchConfig(0.5, 2.0, 3)))
        q = two_well_relaxed_compatible(np.column_stack([fbar, z]), well)
        assert sol.value >= q - 1e-12 * (1.0 + q)
        assert sol.value == min(sol.diagnostics["raw_integrand_value"],
                                sol.diagnostics["relaxed_value"])


def test_relaxed_value_scales_with_the_modulation():
    spec = spec_at(FB, [0.1, -0.05, 0.08])
    mesh = replace(spec.mesh, boundary_mode=LATERAL_PERIODIC)
    vals = 0.3 * np.random.default_rng(9).normal(size=mesh.node_shape + (3,))

    def relaxed(W):
        diag = {}
        cell_mod._relaxed_value(W, spec, np.inf, vals, mesh, spec.z, 0.7, diag)
        return diag["relaxed_value"]

    plain = relaxed(two_well_density(rank_one_well()))
    assert plain > 0.0
    for a in (0.5, 2.5):
        scaled = relaxed(two_well_density(rank_one_well(),
                                          modulation=ConstantModulation(a)))
        assert abs(scaled - a * plain) <= 1e-14 * plain


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
    with pytest.raises(SolveError) as err:
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
    # the descents take an InnerConfig as their SolverConfig
    cfg = InnerConfig(max_iter=42, grad_tol=1e-6)
    assert isinstance(cfg, SolverConfig)
    assert (cfg.max_iter, cfg.grad_tol) == (42, 1e-6)


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


@pytest.mark.parametrize("W", [
    LAM,
    pnorm_density(3.0, modulation=TransverseLaminate((1.0, 3.0), (0.0,))),
    aniso_quadratic_density(cmat=np.eye(9) + 0.3 * (np.eye(9, k=2) + np.eye(9, k=-2)),
                            modulation=TransverseLaminate((1.0, 2.0), (0.0,))),
], ids=["p2-laminate", "p3-laminate", "coupled-aniso"])
def test_cosserat_offset_grads_match_central_differences(W):
    spec = spec_at(FB, [0.1, -0.2, 0.3])
    dF, dz = cosserat_offset_grads(W, spec, cosserat_density(W, spec))

    def value(**kw):
        return cosserat_density(W, replace(spec, **kw)).value
    assert np.allclose(dF, central_difference(lambda F: value(fbar=F), spec.fbar),
                       rtol=1e-6, atol=1e-7)
    assert np.allclose(dz, central_difference(lambda z: value(z=z), spec.z),
                       rtol=1e-6, atol=1e-7)


def test_spec_keys_are_stable():
    # Spec hashes key resumable tables and table provenance; a mesh or
    # spec refactor must not re-key them.
    spec = spec_at(FB, [0.2, -0.1, 0.4])
    assert spec.content("cosserat")["mesh"] == [2, 2, 2, [0.0, 0.0], [1.0, 1.0],
                                                "gauss2"]
    assert cell_mod._spec_hash(LAM, spec, "cosserat") == (
        "cfc46f6d48055814c23d3515065846996965c2a4b3aca9bd9129b10face9bb71")


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


def test_convex_families_drop_the_zero_start_after_a_warm_one():
    warm = np.ones(MESH2.node_shape + (3,))
    spec = spec_at(FB)

    def labels(W, warm_values):
        return [label for label, _ in cell_mod._base_starts(W, MESH2, spec, FB, 1.0,
                                                            warm_values)]
    assert labels(LAM, warm) == ["warm"]
    assert labels(LAM, None) == ["zero"]
    assert labels(pnorm_density(3.0), warm) == ["warm"]
    assert labels(two_well_density(ACTIVE_WELL), warm)[:2] == ["warm", "zero"]


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


# -- gradient-free backtracking ------------------------------------------------

def _fixed_l_descents(W, spec, L):
    """Context and packed cold starts of a fixed-L Cosserat solve."""
    mesh = replace(spec.mesh, boundary_mode=LATERAL_PERIODIC)
    ctx = field_mod.EnergyContext(W, mesh, transverse_scale=L, prefactor=0.5,
                                  x_mode="frozen", x0=spec.x0,
                                  inplane_offset=spec.fbar,
                                  transverse_offset=spec.z, constrained=True)
    starts = [field_mod.pack(v, mesh) for _, v in
              cell_mod._base_starts(W, mesh, spec, spec.fbar, L)]
    return ctx, starts


def _descend_both_ways(ctx, x0, cfg, newton=None):
    """One descent with every trial's gradient and one with value-only backtracks.

    Asserts equal results; returns the value-path result and its call log.
    """
    plain = minimize_lbfgs(ctx.value_and_grad, x0, cfg, newton=newton)
    log = []

    def fun(x):
        log.append("g")
        return ctx.value_and_grad(x)

    def value(x):
        log.append("v")
        return ctx.value(x)
    fast = minimize_lbfgs(fun, x0, cfg, newton=newton, value=value)
    assert fast.x.tobytes() == plain.x.tobytes()
    assert (repr(fast.value), repr(fast.grad_norm), fast.iterations, fast.n_evals,
            fast.converged, fast.status) == (
        repr(plain.value), repr(plain.grad_norm), plain.iterations, plain.n_evals,
        plain.converged, plain.status)
    # a gradient right after a value-only trial is that trial's, once accepted
    regrads = sum(1 for a, b in zip(log, log[1:]) if (a, b) == ("v", "g"))
    assert log.count("g") + log.count("v") - regrads == fast.n_evals
    assert regrads <= fast.iterations
    return fast, log


def test_two_well_stall_backtracks_without_gradients():
    well = rank_one_well()
    W = two_well_density(well)
    fbar = 1.6 * well[:, :2] + np.array([[0.02, -0.03], [0.01, 0.04], [-0.02, 0.01]])
    spec = spec_at(fbar, [0.1, -0.05, 0.08])
    # at the top of the L window the affine-lift start stalls at max_iter
    ctx, starts = _fixed_l_descents(W, spec, spec.l_search.l_max)
    stalls = 0
    for x0 in starts:
        res, log = _descend_both_ways(ctx, x0, spec.inner)
        if res.status == "max_iter":
            stalls += 1
            assert res.n_evals > 10 * res.iterations       # about 20 trials each
            assert log.count("g") <= 1 + 2 * res.iterations
    assert stalls >= 1


def test_convex_and_newton_descents_are_unchanged_by_the_value_path():
    spec = spec_at(FB, [0.2, -0.1, 0.3])
    cfg = spec.inner
    W3 = pnorm_density(3.0, modulation=TransverseLaminate((1.0, 3.0), (0.0,)))
    ctx, starts = _fixed_l_descents(W3, spec, 2.0)
    res, log = _descend_both_ways(ctx, starts[0], cfg)
    assert res.status == "ok" and "v" in log
    ctx, starts = _fixed_l_descents(LAM, spec, 2.0)
    res, log = _descend_both_ways(ctx, starts[0], cfg, newton=ctx.newton)
    assert res.status == "ok" and "v" not in log


def test_minimize_over_z_value_closure_is_bitwise(monkeypatch):
    seen = []
    real = cell_mod.multistart_minimize

    def spy(fun, starts, *args, **kwargs):
        seen.append((fun, kwargs["value"], [x for _, x in starts]))
        return real(fun, starts, *args, **kwargs)
    monkeypatch.setattr(cell_mod, "multistart_minimize", spy)
    W = two_well_density(ACTIVE_WELL)
    minimize_over_z(W, spec_at(1.5 * ACTIVE_WELL[:, :2], l_search=NARROW))
    rng = np.random.default_rng(5)
    assert seen
    for fun, value, starts in seen:
        points = starts + [x + 0.1 * rng.normal(size=x.shape) for x in starts]
        values = [value(x) for x in points]
        # in reverse, so every call follows one at another transverse vector
        objective = [fun(x)[0] for x in reversed(points)][::-1]
        assert [np.float64(v).tobytes() for v in values] == [
            np.float64(v).tobytes() for v in objective]


# -- warm starts rescaled along the L grid -------------------------------------

MESH324 = CellMesh(3, 2, 4)
GRID = LSearchConfig().grid_count
LAM3 = pnorm_density(3.0, modulation=TransverseLaminate((1.0, 3.0), (0.0,)))
COUPLING = np.eye(9)
COUPLING[0, 2] = COUPLING[2, 0] = 0.4      # couples F_11 with F_13
COUPLED_LAM = aniso_quadratic_density(
    cmat=COUPLING, modulation=TransverseLaminate((1.0, 3.0), (0.0,)))
RESCALED_FAMILIES = {
    "p2": W2,
    "p3": pnorm_density(3.0),
    "aniso": aniso_quadratic_density(entry_weights=np.arange(1.0, 10.0).reshape(3, 3) / 3),
    "laminate": LAM,
    "checkerboard": pnorm_density(2.0, modulation=PlanarCheckerboard((1.0, 2.0), 0.5)),
    "p3-laminate": LAM3,
    "coupled-laminate": COUPLED_LAM,
}
# L-BFGS descents (a non-quadratic W) whose minimizer is not the zero field.
LBFGS_PROFILES = {("p3-laminate", "cosserat")}
RESCALED_FORMS = {
    # the closed-form periodic membrane is checked against this scan
    "periodic": lambda W, spec: cell_mod.CellSolution(
        *cell_mod._scan(W, spec, LATERAL_PERIODIC, None, None)[1:3], None),
    "cosserat": cosserat_density,
}


def _recorded_scan(monkeypatch, op, W, spec, rescaled=True):
    """Run ``op``; return its solution and the per-start summaries of each L."""
    calls = []
    real = cell_mod.multistart_minimize

    def spy(*args, **kwargs):
        best, diag = real(*args, **kwargs)
        calls.append(diag["starts"])
        return best, diag
    with monkeypatch.context() as m:
        m.setattr(cell_mod, "multistart_minimize", spy)
        if not rescaled:
            real_scan = cell_mod._l_scan
            m.setattr(cell_mod, "_l_scan", lambda solve_at, lcfg, warm0=None,
                      rescale=None: real_scan(solve_at, lcfg, warm0))
        sol = op(W, spec)
    return sol, calls


def _warm_evals(calls):
    """Energy evaluations of the warm start at every L after the first."""
    out = []
    for starts in calls[1:]:
        evals = [s["n_evals"] for s in starts if s["start"] == "warm"]
        assert len(evals) == 1
        out += evals
    return out


@pytest.mark.parametrize("form", sorted(RESCALED_FORMS))
@pytest.mark.parametrize("name", sorted(RESCALED_FAMILIES))
def test_rescaled_scan_matches_unscaled_chaining(monkeypatch, name, form):
    W, op = RESCALED_FAMILIES[name], RESCALED_FORMS[form]
    spec = spec_at(FB, [0.1, -0.2, 0.3], mesh=MESH324,
                   x0=MaterialPoint((0.3, 0.6), 0.0))
    sol, calls = _recorded_scan(monkeypatch, op, W, spec)
    ref, ref_calls = _recorded_scan(monkeypatch, op, W, spec, rescaled=False)
    assert rel_err(sol.value, ref.value) <= 1e-12
    assert sol.l_star == ref.l_star
    assert len(calls) == len(ref_calls) == GRID
    evals = _warm_evals(calls)
    if (name, form) in LBFGS_PROFILES:
        # The stopping test is not scale invariant: the warm field's
        # gradient grows by L/L' per grid step, and an L where it crosses
        # the tolerance takes a few more L-BFGS iterations.
        assert sum(evals) < sum(_warm_evals(ref_calls))
        assert evals.count(1) >= len(evals) // 2
    else:
        assert evals == [1] * (len(calls) - 1)
    # convex families run the warm start alone
    assert [sum(s["n_evals"] for s in starts) for starts in calls[1:]] == evals


def test_cold_laminate_cosserat_scan_factors_once(monkeypatch):
    factored = []
    splu = field_mod.splu
    monkeypatch.setattr(field_mod, "splu", lambda A: factored.append(A) or splu(A))
    spec = spec_at(FB, [0.1, -0.2, 0.3], mesh=MESH324)
    field_mod._FACTORS.clear()
    sol = cosserat_density(LAM, spec)
    assert len(factored) == 1
    field_mod._FACTORS.clear()
    _recorded_scan(monkeypatch, cosserat_density, LAM, spec, rescaled=False)
    assert len(factored) == 1 + GRID
    assert rel_err(sol.value, laminate_cosserat(FB, np.array([0.1, -0.2, 0.3]))) < 1e-12


def _recorded_fixed_solves(monkeypatch, run):
    """(L, warm values, returned values) of every fixed-L solve in ``run()``."""
    solves = []
    real = cell_mod._solve_fixed

    def spy(W, mesh, spec, fbar, z, scale, *args, warm_values=None, **kwargs):
        out = real(W, mesh, spec, fbar, z, scale, *args, warm_values=warm_values,
                   **kwargs)
        solves.append((scale, warm_values, out[1]))
        return out
    with monkeypatch.context() as m:
        m.setattr(cell_mod, "_solve_fixed", spy)
        run()
    return solves


def _assert_chained(solves, rescaled):
    """Each grid point after the first starts from its predecessor's field."""
    for (l_prev, _, prev), (L, warm, _) in zip(solves, solves[1:]):
        want = prev * (l_prev / L) if rescaled else prev
        assert warm.tobytes() == want.tobytes()


def test_only_convex_periodic_scans_rescale_their_warm_fields(monkeypatch):
    spec = spec_at(FB, [0.1, -0.2, 0.3], mesh=MESH324)
    solves = _recorded_fixed_solves(monkeypatch, lambda: cosserat_density(LAM, spec))
    assert solves[0][1] is None and len(solves) == GRID
    _assert_chained(solves, rescaled=True)
    # the clamped form has lateral boundary layers
    solves = _recorded_fixed_solves(monkeypatch,
                                    lambda: membrane_density(COUPLED_LAM, spec))
    assert np.abs(solves[GRID - 1][2]).max() > 0
    _assert_chained(solves[:GRID], rescaled=False)
    # a non-convex family, whose minimizer here is a laminate
    narrow = spec_at(np.zeros((3, 2)), l_search=LSearchConfig(0.5, 2.0, 3))
    W = two_well_density(np.diag([0.7, 0.0, 0.0]))
    solves = _recorded_fixed_solves(monkeypatch,
                                    lambda: membrane_density_periodic(W, narrow))
    assert np.abs(solves[0][2]).max() > 0
    _assert_chained(solves[:3], rescaled=False)
    # a caller's warm start keeps the unscaled chain
    warm = cosserat_density(LAM, spec).field
    solves = _recorded_fixed_solves(
        monkeypatch, lambda: cosserat_density(LAM, spec, warm_start=warm))
    assert solves[0][1] is warm.values
    _assert_chained(solves[:GRID], rescaled=False)


def test_golden_points_start_from_the_rescaled_best_field():
    # a synthetic non-flat profile with its minimum at L = 1
    seen = []

    def solve_at(L, warm):
        seen.append((L, warm))
        return math.log10(L) ** 2, np.full(3, L), {}
    lcfg = LSearchConfig(0.1, 10.0, 5)
    _, l_star, _, diag = cell_mod._l_scan(solve_at, lcfg, rescale=np.multiply)
    assert diag["l_golden_evals"] > 0 and l_star == 1.0
    grid = lcfg.grid()
    assert seen[0][1] is None
    for (L, warm), prev in zip(seen[1:5], grid):
        assert np.array_equal(warm, np.full(3, prev) * (prev / L))
    for L, warm in seen[5:]:
        # the best field stays the grid point at L = 1
        assert np.array_equal(warm, np.full(3, 1.0) * (1.0 / L))


# -- convex membrane cells in closed form ---------------------------------------

CLOSED_FORM_FAMILIES = {
    "p1.5": pnorm_density(1.5),
    "p2": W2,
    "p3": pnorm_density(3.0),
    "coupled-laminate": COUPLED_LAM,
    "laminate": LAM,
    "checkerboard": pnorm_density(2.0, modulation=PlanarCheckerboard((1.0, 2.0), 0.5)),
    "x3-expression": density_from_config({
        "family": "pnorm", "params": {"p": 3.0},
        "modulation": {"kind": "expression", "expression": "1 + 0.5*x3*x3"},
        "growth": {"p": 3.0, "beta_lower": 1.0, "beta_upper": 1.5}}),
    "product": density_from_config({
        "family": "aniso_quadratic", "params": {"cmat": COUPLING.tolist()},
        "modulation": {"kind": "product", "factors": [
            {"kind": "laminate_x3", "levels": [1.0, 3.0], "breaks": [0.2]},
            {"kind": "checkerboard_xalpha", "values": [1.0, 2.0]}]}}),
}


# n3 = 3 puts an element across the laminate break at x3 = 0
@pytest.mark.parametrize("mesh", [MESH2, MESH324, CellMesh(3, 2, 3)],
                         ids=["2x2x2", "3x2x4", "3x2x3"])
@pytest.mark.parametrize("name", sorted(CLOSED_FORM_FAMILIES))
def test_closed_form_membrane_matches_the_periodic_scan(name, mesh):
    W = CLOSED_FORM_FAMILIES[name]
    spec = spec_at(FB, mesh=mesh, x0=MaterialPoint((0.3, 0.6), 0.0))
    _, ref, _, _, _ = cell_mod._scan(W, spec, LATERAL_PERIODIC, None, None)
    sol = membrane_density_periodic(W, spec)
    minz, b0 = minimize_over_z(W, spec)
    assert rel_err(sol.value, ref) <= 1e-12 and minz.value == sol.value
    assert sol.l_star == minz.l_star == 1.0
    _, b_fiber = W.fiber_infimum(spec.x0, FB)
    assert b0.tobytes() == b_fiber.tobytes()
    assert sol.diagnostics["cell_reduction"] == "fiber"
    assert sol.diagnostics["b0"] == minz.diagnostics["b0"] == b_fiber.tolist()
    assert minz.field.values.tobytes() == sol.field.values.tobytes()
    assert minz.diagnostics["constraint_residual"] < 1e-12


def test_convex_fiber_failure_is_a_cell_solve_error(monkeypatch):
    # the fiber's SolveError reaches the caller as it was raised
    W = pnorm_density(3.0)
    failure = SolveError("forced failure", best_value=0.25, diagnostics={"starts": []})

    def no_fiber(x, fbar):
        raise failure
    monkeypatch.setattr(W, "fiber_infimum", no_fiber)
    for op in (membrane_density_periodic, minimize_over_z):
        with pytest.raises(SolveError) as err:
            op(W, spec_at(FB))
        assert err.value is failure
