"""Tests for the scaled film problem, its limit functional, and studies."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import filmcell.thinfilm as thinfilm
from filmcell.cell import CellProblemSpec, InnerConfig, minimize_over_z
from filmcell.config import build_problem, load_config
from filmcell.field import (
    PINNED, CellMesh, DiscreteField, LATERAL_ZERO, affine_values, kinematic_operator,
    pack, unpack,
)
from filmcell.integrand import (
    PlanarCheckerboard,
    TransverseLaminate,
    pnorm_density,
    two_well_density,
)
from filmcell.solvers import SolverConfig
from filmcell.thinfilm import (
    CellDensitySource,
    LoadSystem,
    SheetMesh,
    TableDensitySource,
    ThinFilmProblem,
    bbar_at,
    convergence_study,
    limit_membrane_energy,
    minimize_limit,
    minimize_thin_film,
    scaled_energy,
)

from oracles import rel_err

FBAR = np.array([[0.5, 0.0], [0.0, -0.3], [0.0, 0.2]])

W_QUAD = pnorm_density(p=2.0)
W_LAM = pnorm_density(p=2.0, modulation=TransverseLaminate((1.0, 3.0), (0.0,)))

SMALL_CELL = CellProblemSpec(fbar=np.zeros((3, 2)), mesh=CellMesh(2, 2, 2))


def quad_problem(sheet=None, loads=None, epsilons=(1.0, 0.5), n3=2):
    return ThinFilmProblem(
        W=W_QUAD,
        omega=sheet or SheetMesh(2, 2),
        fbar_bc=FBAR,
        loads=loads or LoadSystem(),
        epsilons=epsilons,
        n3=n3,
        cell_template=SMALL_CELL,
    )


def test_sheet_mesh_geometry():
    sheet = SheetMesh(4, 2, origin=(1.0, -1.0), lengths=(2.0, 1.0))
    assert sheet.spacings == (0.5, 0.5)
    assert sheet.area == 2.0
    assert sheet.node_shape == (5, 3)
    x1, x2 = sheet.node_coords()
    assert x1[0] == 1.0 and x1[-1] == 3.0
    assert x2[0] == -1.0 and x2[-1] == 0.0
    q1, q2 = sheet.quad_coords()
    assert q1.shape == (4, 2, q1.shape[-1])
    assert q1.min() > 1.0 and q1.max() < 3.0
    assert q2.min() > -1.0 and q2.max() < 0.0
    # quadrature weights tile the rectangle exactly
    assert np.isclose(sheet.quad_weights().sum(), sheet.area)


def test_sheet_mesh_validation():
    with pytest.raises(ValueError):
        SheetMesh(0, 2)
    with pytest.raises(ValueError):
        SheetMesh(2, 2, lengths=(1.0, 0.0))


def test_sheet_dof_order_is_the_interior_in_c_order():
    sheet = SheetMesh(4, 3, origin=(0.5, -1.0), lengths=(2.0, 1.5))
    assert CellMesh(4, 3, 2, origin=(0.5, -1.0), lengths=(2.0, 1.5)).sheet() == sheet
    v = np.random.default_rng(31).normal(size=sheet.node_shape + (3,))
    assert pack(v, sheet).tobytes() == v[1:4, 1:3].ravel().tobytes()
    datum = affine_values(sheet, FBAR)
    assert unpack(pack(datum, sheet), sheet, datum).tobytes() == datum.tobytes()
    assert kinematic_operator(sheet) is kinematic_operator(sheet, (PINNED, PINNED))
    _, x0, split = thinfilm._limit_objective(_CountingSource(), sheet, LoadSystem(), FBAR)
    v0, b0 = split(x0)
    assert v0.tobytes() == datum.tobytes()
    assert b0.shape == (4, 3, 3) and not b0.any()


def test_sheet_affine_values_reproduce_plane():
    sheet = SheetMesh(3, 2, origin=(0.5, 0.0), lengths=(1.5, 1.0))
    vals = affine_values(sheet, FBAR)
    assert vals.shape == (4, 3, 3)
    x1, x2 = sheet.node_coords()
    for i in (0, 2):
        for j in (0, 2):
            want = FBAR @ np.array([x1[i], x2[j]])
            assert np.allclose(vals[i, j], want)


def test_load_accessors_broadcast():
    loads = LoadSystem(
        f=lambda x1, x2, x3: np.stack(
            [x1 * 0.0 + 1.0, x2, x3], axis=-1),
        g=(np.array([0.0, 0.0, 2.0]), None),
    )
    x = np.linspace(0.0, 1.0, 4)
    fv = loads.f_at(x, x, x)
    assert fv.shape == (4, 3)
    assert np.allclose(fv[:, 0], 1.0)
    assert np.allclose(fv[:, 2], x)
    gv = loads.g_at(+1, x, x)
    assert gv.shape == (4, 3)
    assert np.allclose(gv[:, 2], 2.0)
    assert np.allclose(loads.g_at(-1, x, x), 0.0)
    assert not loads.is_zero()
    assert LoadSystem().is_zero()


def test_order_one_loads_must_cancel():
    sheet = SheetMesh(2, 2)
    bad = LoadSystem(g0=(np.array([0.0, 0.0, 0.3]), np.array([0.0, 0.0, 0.3])))
    with pytest.raises(ValueError, match="cancel"):
        bad.check_compatibility(sheet)
    good = LoadSystem(g0=(np.array([0.0, 0.0, 0.3]), np.array([0.0, 0.0, -0.3])))
    good.check_compatibility(sheet)


def test_problem_validation():
    with pytest.raises(ValueError, match="at least one"):
        quad_problem(epsilons=())
    with pytest.raises(ValueError, match="decreasing"):
        quad_problem(epsilons=(0.5, 0.5))
    with pytest.raises(ValueError, match="lie in"):
        quad_problem(epsilons=(2.0, 1.0))
    bad = LoadSystem(g0=(np.array([0.0, 0.0, 0.3]), None))
    with pytest.raises(ValueError, match="cancel"):
        quad_problem(loads=bad)
    problem = quad_problem()
    minimize_thin_film(problem, 1.0)
    problem.loads = bad          # a reassigned pair is checked when it is assembled
    with pytest.raises(ValueError, match="cancel"):
        minimize_thin_film(problem, 1.0)


def test_scaled_energy_of_affine_map():
    # u = Fbar x_alpha has no transverse variation, so the scaled
    # gradient is (Fbar | 0) everywhere and the energy is twice the
    # sheet area times |Fbar|^2, independently of the thickness.
    problem = quad_problem(sheet=SheetMesh(3, 2, lengths=(2.0, 1.0)))
    mesh = problem.film_mesh()
    u = DiscreteField(mesh, problem.boundary_datum(mesh))
    want = 2.0 * problem.omega.area * float(np.sum(FBAR**2))
    for eps in problem.epsilons:
        got = scaled_energy(problem, eps, u)
        assert rel_err(got, want) < 1e-12


def test_scaled_energy_sees_transverse_modulation():
    # layered stiffness: the affine map picks up the transverse mean
    problem = ThinFilmProblem(W=W_LAM, omega=SheetMesh(2, 2), fbar_bc=FBAR,
                              epsilons=(1.0,), n3=2, cell_template=SMALL_CELL)
    mesh = problem.film_mesh()
    u = DiscreteField(mesh, problem.boundary_datum(mesh))
    want = 2.0 * 2.0 * float(np.sum(FBAR**2))
    assert rel_err(scaled_energy(problem, 1.0, u), want) < 1e-12


def test_scaled_energy_rejects_wrong_field():
    problem = quad_problem()
    mesh = problem.film_mesh()
    # wrong lateral boundary mode
    zmesh = CellMesh(2, 2, 2, boundary_mode=LATERAL_ZERO)
    with pytest.raises(ValueError, match="boundary mode"):
        scaled_energy(problem, 1.0, DiscreteField(zmesh, affine_values(zmesh, FBAR)))
    # right mode but boundary values off the clamped datum
    vals = problem.boundary_datum(mesh).copy()
    vals[0, 0, 0] += 0.1
    with pytest.raises(ValueError, match="datum"):
        scaled_energy(problem, 1.0, DiscreteField(mesh, vals))


def test_minimize_film_quadratic_stays_affine():
    problem = quad_problem()
    value, field, bbar, _ = minimize_thin_film(problem, 0.5)
    want = 2.0 * problem.omega.area * float(np.sum(FBAR**2))
    assert rel_err(value, want) < 1e-8
    assert np.abs(bbar).max() < 1e-6
    datum = problem.boundary_datum(field.mesh)
    assert np.abs(field.values - datum).max() < 1e-6


def test_minimize_film_thickness_must_be_listed():
    problem = quad_problem(epsilons=(1.0, 0.5))
    with pytest.raises(ValueError, match="thickness"):
        minimize_thin_film(problem, 0.3)


def test_limit_energy_of_affine_competitor():
    sheet = SheetMesh(2, 2)
    source = CellDensitySource(W_QUAD, SMALL_CELL)
    v = affine_values(sheet, FBAR)
    b = np.zeros((sheet.n1, sheet.n2, 3))
    got = limit_membrane_energy(source, sheet, LoadSystem(), v, b)
    want = 2.0 * float(np.sum(FBAR**2))
    assert rel_err(got, want) < 1e-8
    # a nonzero transverse vector adds 2 |b|^2 per unit area here
    b[...] = np.array([0.1, 0.0, -0.2])
    got_b = limit_membrane_energy(source, sheet, LoadSystem(), v, b)
    assert rel_err(got_b, want + 2.0 * 0.05) < 1e-8


def test_minimize_limit_quadratic():
    sheet = SheetMesh(2, 2)
    source = CellDensitySource(W_QUAD, SMALL_CELL)
    value, v, b, info = minimize_limit(source, sheet, LoadSystem(), FBAR)
    want = 2.0 * float(np.sum(FBAR**2))
    assert rel_err(value, want) < 1e-8
    assert np.abs(v - affine_values(sheet, FBAR)).max() < 1e-5
    assert np.abs(b).max() < 1e-5
    assert info["status"] == "ok"
    assert info["iterations"] >= 1


def test_minimize_limit_constant_traction_pair():
    # opposite order-1 face tractions c, -c with the quadratic density:
    # the limit integrand in bbar is 2|b|^2 - 2 c . b per unit area, so
    # the minimizer is b = c / 2 with energy -|c|^2 / 2 times the area.
    sheet = SheetMesh(2, 2)
    c = np.array([0.0, 0.0, 0.4])
    loads = LoadSystem(g0=(c, -c))
    source = CellDensitySource(W_QUAD, SMALL_CELL)
    value, v, b, _ = minimize_limit(source, sheet, loads, np.zeros((3, 2)))
    assert abs(value - (-0.5 * 0.16 * sheet.area)) < 1e-8
    assert np.abs(v).max() < 1e-6
    for x_alpha in [(0.2, 0.3), (0.7, 0.8)]:
        assert np.allclose(bbar_at(sheet, b, x_alpha), c / 2.0, atol=1e-6)


def test_minimize_limit_picks_fiber_vector():
    # single energy well with a transverse column: with zero loads the
    # transverse vector relaxes onto that column, exactly as the joint
    # cell minimization reports it.
    well = np.array([[0.4, 0.0, 0.2], [0.0, 0.3, 0.0], [0.0, 0.0, 0.5]])
    W = two_well_density(well_plus=well)
    sheet = SheetMesh(2, 1)
    template = CellProblemSpec(fbar=np.zeros((3, 2)), mesh=CellMesh(2, 1, 2),
                               inner=InnerConfig(multistart=1))
    source = CellDensitySource(W, template)
    value, v, b, _ = minimize_limit(source, sheet, LoadSystem(), well[:, :2])
    assert value < 1e-8
    from dataclasses import replace
    sol, b0 = minimize_over_z(W, replace(template, fbar=well[:, :2],
                                         z=np.zeros(3)))
    assert np.allclose(b0, well[:, 2], atol=1e-5)
    for i in range(sheet.n1):
        for j in range(sheet.n2):
            assert np.allclose(b[i, j], b0, atol=1e-5)


def test_bbar_at_indexes_cells():
    sheet = SheetMesh(2, 2)
    b = np.arange(12, dtype=float).reshape(2, 2, 3)
    assert np.allclose(bbar_at(sheet, b, (0.1, 0.1)), b[0, 0])
    assert np.allclose(bbar_at(sheet, b, (0.9, 0.4)), b[1, 0])
    # clamped outside the sheet
    assert np.allclose(bbar_at(sheet, b, (-5.0, 5.0)), b[0, 1])


def test_convergence_study_layered_sheet():
    # for the transverse laminate with zero loads the affine map is
    # optimal at every thickness, so each row reproduces the limit
    problem = ThinFilmProblem(W=W_LAM, omega=SheetMesh(2, 2), fbar_bc=FBAR,
                              epsilons=(1.0, 0.5), n3=2,
                              cell_template=SMALL_CELL)
    study = convergence_study(problem)
    assert study.ok
    want = 4.0 * float(np.sum(FBAR**2))
    assert rel_err(study.limit_energy, want) < 1e-7
    for row in study.rows:
        assert abs(row["gap"]) < 1e-7
        assert row["bbar_norm"] < 1e-5
        assert row["iterations"] >= 1
        assert row["seconds"] >= 0.0
    assert study.gaps == [r["gap"] for r in study.rows]
    rec = study.to_record()
    assert rec["limit_energy"] == study.limit_energy
    assert len(rec["rows"]) == 2


def test_convergence_study_to_csv(tmp_path):
    problem = quad_problem()
    study = convergence_study(problem)
    path = tmp_path / "study.csv"
    study.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "epsilon,energy,gap,iterations,seconds"
    assert len(lines) == 1 + len(problem.epsilons)
    for line, row in zip(lines[1:], study.rows):
        eps, energy, gap, iters, _ = line.split(",")
        assert float(eps) == row["epsilon"]
        assert float(energy) == row["energy"]
        assert float(gap) == row["gap"]
        assert int(iters) == row["iterations"]


def test_convergence_study_keeps_error_rows(tmp_path, monkeypatch):
    problem = quad_problem()
    real = thinfilm.minimize_thin_film

    def flaky(prob, eps):
        if eps == 0.5:
            raise RuntimeError("boom")
        return real(prob, eps)

    monkeypatch.setattr(thinfilm, "minimize_thin_film", flaky)
    study = convergence_study(problem)
    assert not study.ok
    assert "error" not in study.rows[0]
    assert study.rows[1]["error"] == "RuntimeError: boom"
    assert study.gaps[1] is None
    path = tmp_path / "partial.csv"
    study.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[2] == "0.5,error,,,"


class _SmoothSource:
    """Q = a(x) (|F|^2 + |z|^2) + 0.1 |F|^4 with its exact derivatives."""

    def evaluate(self, x_alpha, fbar, z):
        a = 1.0 + 0.5 * x_alpha[0]
        nf = float(np.sum(fbar ** 2))
        val = a * (nf + float(z @ z)) + 0.1 * nf ** 2
        return val, (2.0 * a + 0.4 * nf) * fbar, 2.0 * a * z


def test_limit_gradient_matches_central_differences():
    source = _SmoothSource()
    sheet = SheetMesh(3, 2, lengths=(1.0, 0.7))
    loads = LoadSystem(f=[0.1, 0.0, -0.2], g=([0.0, 0.1, 0.0], None),
                       g0=([0.0, 0.0, 0.4], [0.0, 0.0, -0.4]))
    fun, x0, split = thinfilm._limit_objective(source, sheet, loads, FBAR)
    rng = np.random.default_rng(3)
    x = x0 + 0.1 * rng.normal(size=x0.shape)
    val, grad = fun(x)

    def energy(vec):
        v, b = split(vec)
        return limit_membrane_energy(source, sheet, loads, v, b)
    assert val == pytest.approx(energy(x), rel=1e-12)
    h = 1e-6
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = h
        fd = (energy(x + e) - energy(x - e)) / (2 * h)
        assert abs(grad[k] - fd) < 1e-6 * (1.0 + abs(fd))


def test_cell_source_rounds_and_caches():
    source = CellDensitySource(W_QUAD, SMALL_CELL)
    z = np.array([0.0, 0.1, -0.2])
    v1, dF1, dz1 = source.evaluate((0.3, 0.4), FBAR, z)
    n_after_first = source.solves
    v2, dF2, dz2 = source.evaluate((0.9, 0.9), FBAR + 1e-14, z + 1e-14)
    # in-plane constant integrand and sub-rounding jitter: same key
    assert source.solves == n_after_first
    assert v1 == v2 and np.array_equal(dF1, dF2) and np.array_equal(dz1, dz2)
    want = float(np.sum(FBAR**2) + np.sum(z**2))
    assert rel_err(v1, want) < 1e-8
    assert np.allclose(dF1, 2.0 * FBAR, atol=1e-6)
    assert np.allclose(dz1, 2.0 * z, atol=1e-6)


def test_source_rounding_keys_unchanged():
    def two_chains(fbar, z):
        f = np.round(np.asarray(fbar, dtype=float).reshape(3, 2), 12) + 0.0
        zz = np.round(np.asarray(z, dtype=float).reshape(3), 12) + 0.0
        return f.tobytes(), zz.tobytes()

    rng = np.random.default_rng(9)
    cases = [(rng.normal(size=(3, 2)) * 10.0 ** rng.integers(-15, 3),
              rng.normal(size=3) * 10.0 ** rng.integers(-15, 3))
             for _ in range(500)]
    cases.append((np.full((3, 2), -1e-14), np.array([-0.0, -1e-14, 1e-14])))
    cases.append(([[0.5, 0], [0, -0.3], [0, 0.2]], [0, -1e-13, 1]))
    for fbar, z in cases:
        values = thinfilm._rounded_values(fbar, z)
        assert np.array(values).tobytes() == b"".join(two_chains(fbar, z))
    values = thinfilm._rounded_values([[-1e-14] * 2] * 3, [-1e-14] * 3)
    assert np.array(values).tobytes() == np.zeros(9).tobytes()


def _numpy_rounded_bytes(fbar, z):
    """Reference key bytes: np.round(., 12), then + 0.0 to clear -0.0."""
    f = np.round(np.asarray(fbar, dtype=float).reshape(3, 2), 12) + 0.0
    zz = np.round(np.asarray(z, dtype=float).reshape(3), 12) + 0.0
    return f.tobytes(), zz.tobytes()


def _rounding_cases():
    rng = np.random.default_rng(17)
    ties = (np.arange(-40, 40) + 0.5) * 1e-12
    singles = np.concatenate([
        ties, ties + 1.0, ties - 3.0,
        [-0.0, 0.0, -1e-14, 1e-14, 5e-13, -5e-13, 4.9999999999999e-13],
        [5e-324, -5e-324, 2.2250738585072014e-308, -1e-310],
        9990.0 + 20.0 * rng.random(40), -(9990.0 + 20.0 * rng.random(40)),
        [1e200, -1e200, 1.2345678901234567e200, 1e16, 2.0 ** 53 + 1.0],
        rng.normal(size=60) * 10.0 ** rng.integers(-16, 6, 60),
    ])
    for start in range(0, singles.size, 9):
        chunk = np.resize(singles[start:start + 9], 9)
        yield chunk[:6].reshape(3, 2), chunk[6:]
        yield chunk[:6].reshape(3, 2).tolist(), chunk[6:].tolist()
        yield chunk[:6].tolist(), list(chunk[6:])
    yield [[0.5, 0], [0, -0.3], [0, 0.2]], [0, -1e-13, 1]


def test_rounded_values_match_numpy_round_bitwise():
    for fbar, z in _rounding_cases():
        values = thinfilm._rounded_values(fbar, z)
        assert all(type(v) is float for v in values)
        assert np.array(values).tobytes() == b"".join(_numpy_rounded_bytes(fbar, z))


def test_both_sources_use_numpy_rounded_arguments():
    from types import SimpleNamespace

    cell = CellDensitySource(W_QUAD, SMALL_CELL)
    fake = SimpleNamespace(grid=SimpleNamespace(z_axes=((("frozen", 0.0),) * 3),
                                                x_points=((0.5, 0.5),)),
                           provenance={})
    table = TableDensitySource(fake)
    seen = []
    table._interp = lambda tab, x, fbar, z: seen.append((fbar, z)) or (0.0, fbar, z)
    for fbar, z in _rounding_cases():
        want = _numpy_rounded_bytes(fbar, z)
        # A hit on the reference key proves the cell source built that key.
        sentinel = (float(len(cell.cache)), None, None)
        cell.cache[((0.0, 0.0),) + want] = sentinel
        assert cell.evaluate((0.3, 0.7), fbar, z) is sentinel
        table.evaluate((0.3, 0.7), fbar, z)
        assert np.array(seen[-1][0] + seen[-1][1]).tobytes() == b"".join(want)
    assert cell.solves == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e300])
def test_rounding_rejects_non_finite_arguments(bad):
    fbar = FBAR.copy()
    fbar[1, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        thinfilm._rounded_values(fbar, np.zeros(3))
    with pytest.raises(ValueError, match="finite"):
        CellDensitySource(W_QUAD, SMALL_CELL).evaluate((0.5, 0.5), FBAR, [0.0, bad, 0.0])
    with pytest.raises(ValueError, match="3x2 fbar"):
        thinfilm._rounded_values(FBAR, np.zeros(2))


class _CountingSource:
    """Deterministic rounded quadratic density that counts its lookups."""

    def __init__(self):
        self.calls = 0

    def evaluate(self, x_alpha, fbar, z):
        self.calls += 1
        point = np.array(thinfilm._rounded_values(fbar, z))
        fbar, z = point[:6].reshape(3, 2), point[6:]
        return float(np.sum(fbar ** 2) + 1.5 * np.sum(z ** 2)), 2.0 * fbar, 3.0 * z


GAMMA_LOADS = LoadSystem(f=[0.1, 0.0, 0.0], g0=([0.0, 0.0, 0.4], [0.0, 0.0, -0.4]))


def test_limit_objective_memo_skips_repeated_points():
    from filmcell import solvers

    assert thinfilm._LIMIT_MEMO_SIZE >= solvers.MAX_BACKTRACKS + 1
    source = _CountingSource()
    sheet = SheetMesh(2, 2)
    fun, x0, _ = thinfilm._limit_objective(source, sheet, GAMMA_LOADS, FBAR)
    val, grad = fun(x0.copy())
    calls = source.calls
    assert calls == 16      # one lookup per quadrature point
    val2, grad2 = fun(x0.copy())
    assert source.calls == calls
    assert val2 == val and np.array_equal(grad2, grad)
    assert not grad.flags.writeable
    fresh = fun.__wrapped__(x0.copy())
    assert fresh[0] == val and fresh[1].tobytes() == grad.tobytes()
    for k in (0, x0.size - 1):
        x1 = x0.copy()
        x1[k] += 1e-3           # one entry apart: a different point
        before = source.calls
        val1, grad1 = fun(x1)
        assert source.calls == before + 16
        want = fun.__wrapped__(x1)
        assert val1 == want[0] and grad1.tobytes() == want[1].tobytes()
        assert val1 != val
    rng = np.random.default_rng(4)
    for _ in range(2 * thinfilm._LIMIT_MEMO_SIZE):
        fun(x0 + 0.01 * rng.normal(size=x0.shape))
        assert len(fun.memo) <= thinfilm._LIMIT_MEMO_SIZE
    assert len(fun.memo) == thinfilm._LIMIT_MEMO_SIZE
    calls = source.calls
    fun(x0.copy())      # evicted first-in: evaluated again
    assert source.calls == calls + 16


def test_memoized_descent_matches_plain_descent():
    from filmcell.solvers import SolverConfig, minimize_lbfgs

    # Unreachable tolerance: the descent stalls at the rounding floor and
    # retries the same trial points from an unchanged x.
    cfg = SolverConfig(max_iter=40, grad_tol=1e-14)
    runs = []
    for memoized in (True, False):
        source = _CountingSource()
        fun, x0, _ = thinfilm._limit_objective(source, SheetMesh(2, 2), GAMMA_LOADS, FBAR)
        runs.append((minimize_lbfgs(fun if memoized else fun.__wrapped__, x0, cfg),
                     source.calls))
    (memo, memo_calls), (plain, plain_calls) = runs
    assert memo_calls * 4 < plain_calls
    assert memo.x.tobytes() == plain.x.tobytes()
    assert (memo.value, memo.grad_norm, memo.iterations, memo.n_evals,
            memo.converged, memo.status) == (plain.value, plain.grad_norm,
                                             plain.iterations, plain.n_evals,
                                             plain.converged, plain.status)
    assert memo.status == "max_iter"


def test_cell_source_gradients_match_differences():
    source = CellDensitySource(W_LAM, SMALL_CELL)
    z = np.array([0.1, 0.0, 0.3])
    val, dF, dz = source.evaluate((0.5, 0.5), FBAR, z)
    h = 1e-6
    for idx in [(0, 0), (2, 1)]:
        delta = np.zeros((3, 2))
        delta[idx] = h
        vp = source.evaluate((0.5, 0.5), FBAR + delta, z)[0]
        vm = source.evaluate((0.5, 0.5), FBAR - delta, z)[0]
        assert abs((vp - vm) / (2 * h) - dF[idx]) < 1e-4
    delta = np.array([0.0, 0.0, h])
    vp = source.evaluate((0.5, 0.5), FBAR, z + delta)[0]
    vm = source.evaluate((0.5, 0.5), FBAR, z - delta)[0]
    assert abs((vp - vm) / (2 * h) - dz[2]) < 1e-4


def _quadratic_table():
    from filmcell.tabulate import SampleGrid, build_table

    grid = SampleGrid(
        x_points=((0.5, 0.5),),
        f_axes=(
            ("range", -0.6, 0.6, 4),
            ("frozen", 0.0),
            ("frozen", 0.0),
            ("range", -0.6, 0.6, 4),
            ("frozen", 0.0),
            ("frozen", 0.0),
        ),
        z_axes=(("frozen", 0.0), ("frozen", 0.0), ("range", -0.5, 0.5, 4)),
    )
    template = CellProblemSpec(fbar=np.zeros((3, 2)), mesh=CellMesh(2, 2, 2))
    return build_table(W_QUAD, grid, "cosserat", template)


def test_table_source_substitutes_single_point():
    from filmcell.tabulate import ExtrapolationError

    table = _quadratic_table()
    source = TableDensitySource(table)
    fbar = np.array([[0.3, 0.0], [0.0, -0.2], [0.0, 0.0]])
    z = np.array([0.0, 0.0, 0.25])
    val, dF, dz = source.evaluate((0.1, 0.9), fbar, z)
    want = float(np.sum(fbar**2) + np.sum(z**2))
    # multilinear interpolation of a convex quadratic: a chord value,
    # above the surface but within h^2/4 per axis
    assert want - 1e-9 <= val <= want + 0.11
    assert dF.shape == (3, 2)
    with pytest.raises(ExtrapolationError):
        source.evaluate((0.1, 0.9), fbar * 10.0, z)
    with pytest.raises(ValueError):
        # f01 is frozen at zero in the table
        off = fbar.copy()
        off[0, 1] = 0.3
        source.evaluate((0.1, 0.9), off, z)


def test_table_source_rejects_unsuitable_tables():
    from filmcell.tabulate import SampleGrid, build_table

    template = CellProblemSpec(fbar=np.zeros((3, 2)), mesh=CellMesh(2, 2, 2))
    frozen = ("frozen", 0.0)
    membrane_grid = SampleGrid(
        x_points=((0.5, 0.5),),
        f_axes=(("range", -0.5, 0.5, 3),) + (frozen,) * 5,
    )
    membrane_table = build_table(W_QUAD, membrane_grid, "membrane", template)
    with pytest.raises(ValueError, match="z axes"):
        TableDensitySource(membrane_table)

    checker = pnorm_density(
        p=2.0, modulation=PlanarCheckerboard((1.0, 2.0), 0.5))
    grid = SampleGrid(
        x_points=((0.25, 0.25),),
        f_axes=(("range", -0.5, 0.5, 3),) + (frozen,) * 5,
        z_axes=(frozen, frozen, ("range", -0.5, 0.5, 3)),
    )
    hetero_table = build_table(checker, grid, "cosserat", template)
    with pytest.raises(ValueError, match="single-point"):
        TableDensitySource(hetero_table)


def test_loaded_film_takes_one_newton_step(monkeypatch):
    loads = LoadSystem(f=[0.1, 0.0, -0.2], g0=([0.0, 0.0, 0.4], [0.0, 0.0, -0.4]))
    problem = ThinFilmProblem(W=W_LAM, omega=SheetMesh(3, 2), fbar_bc=FBAR,
                              loads=loads, epsilons=(0.25,), n3=4)
    value, field, _, info = minimize_thin_film(problem, 0.25)
    assert (info["status"], info["iterations"], info["evals"]) == ("ok", 2, 2)
    real = thinfilm.multistart_minimize

    def lbfgs(fun, starts, config, newton=None, value=None):
        return real(fun, starts, SolverConfig(grad_tol=1e-10))
    monkeypatch.setattr(thinfilm, "multistart_minimize", lbfgs)
    ref_value, ref_field, _, _ = minimize_thin_film(problem, 0.25)
    assert abs(value - ref_value) <= 1e-10 * (1.0 + abs(ref_value))
    assert np.abs(field.values - ref_field.values).max() <= 1e-9


def test_study_rows_report_energy_evaluations():
    study = convergence_study(quad_problem())
    for row in study.rows:
        assert row["evals"] >= row["iterations"] >= 1


def test_film_value_closure_is_bitwise(monkeypatch):
    seen = []
    real = thinfilm.multistart_minimize

    def spy(fun, starts, *args, **kwargs):
        seen.append((fun, kwargs["value"], [x for _, x in starts]))
        return real(fun, starts, *args, **kwargs)
    monkeypatch.setattr(thinfilm, "multistart_minimize", spy)
    loads = LoadSystem(f=np.array([0.1, -0.2, 0.3]),
                       g0=(np.array([0.0, 0.0, 0.4]), np.array([0.0, 0.0, -0.4])))
    problem = quad_problem(loads=loads, epsilons=(0.5,))
    minimize_thin_film(problem, 0.5)
    rng = np.random.default_rng(4)
    (fun, value, starts), = seen
    for x in starts + [x + 0.1 * rng.normal(size=x.shape) for x in starts]:
        assert np.float64(value(x)).tobytes() == np.float64(fun(x)[0]).tobytes()


def loadpath_problem():
    config = Path(__file__).resolve().parents[1] / "configs" / "gamma_loadpath.yaml"
    return build_problem(load_config(config))


def laminate_problem():
    loads = LoadSystem(f=[0.1, 0.0, -0.2], g0=([0.0, 0.0, 0.4], [0.0, 0.0, -0.4]))
    return ThinFilmProblem(W=W_LAM, omega=SheetMesh(3, 2), fbar_bc=FBAR, loads=loads,
                           epsilons=(1.0, 0.5, 0.25), n3=4)


def two_well_problem():
    W = two_well_density(np.diag([0.4, 0.0, 0.0]))
    loads = LoadSystem(g=([0.0, 0.0, 0.1], None))
    return ThinFilmProblem(W=W, omega=SheetMesh(2, 2), fbar_bc=0.5 * FBAR, loads=loads,
                           epsilons=(1.0, 0.5), n3=2)


def solve_bytes(problem, eps):
    value, field, bbar, info = minimize_thin_film(problem, eps)
    return np.float64(value).tobytes(), field.values.tobytes(), bbar.tobytes(), repr(info)


def without_seconds(row):
    return repr({k: v for k, v in row.items() if k != "seconds"})


@pytest.mark.parametrize("make", [loadpath_problem, laminate_problem, two_well_problem])
def test_rows_equal_standalone_solves_bitwise(make):
    # A problem keeps its thickness-independent data across solves; each
    # thickness, in either order, must give what a fresh problem gives.
    epsilons = make().epsilons
    fresh = {eps: solve_bytes(make(), eps) for eps in epsilons}
    for order in (epsilons, epsilons[::-1]):
        shared = make()
        for eps in order:
            assert solve_bytes(shared, eps) == fresh[eps]
    study = convergence_study(make(), source=_SmoothSource())
    for eps, row in zip(epsilons, study.rows):
        alone = thinfilm._study_row(make(), eps, study.limit_energy)
        assert without_seconds(row) == without_seconds(alone)


def test_stored_film_data_follows_reassigned_fields():
    loads = LoadSystem(f=[0.1, 0.0, -0.2], g0=([0.0, 0.0, 0.4], [0.0, 0.0, -0.4]))
    new_loads = LoadSystem(f=[-0.3, 0.2, 0.0], g=([0.0, 0.1, 0.0], None))

    def energies(problem):
        mesh = problem.film_mesh()
        u = DiscreteField(mesh, problem.boundary_datum(mesh))
        return [(minimize_thin_film(problem, eps)[0], scaled_energy(problem, eps, u))
                for eps in problem.epsilons]

    def fresh(problem):
        return ThinFilmProblem(W=problem.W, omega=problem.omega,
                               fbar_bc=np.array(problem.fbar_bc), loads=problem.loads,
                               epsilons=problem.epsilons, n3=problem.n3)

    problem = quad_problem(loads=loads)
    energies(problem)
    assert energies(replace(problem, loads=new_loads)) == energies(fresh(
        replace(problem, loads=new_loads)))
    for name, value in (("loads", new_loads), ("fbar_bc", FBAR + 0.1), ("W", W_LAM),
                        ("n3", 4), ("omega", SheetMesh(3, 2))):
        before = energies(problem)
        setattr(problem, name, value)
        assert energies(problem) == energies(fresh(problem)) != before, name
    problem.fbar_bc[0, 0] += 0.1
    assert energies(problem) == energies(fresh(problem))
    problem.loads.f[0] = 0.5
    assert energies(problem) == energies(fresh(problem))
