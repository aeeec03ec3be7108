"""Trilinear fields, scaled gradients, and energy assembly."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from filmcell.field import (FULLY_PERIODIC, LATERAL_AFFINE, LATERAL_PERIODIC,
                            LATERAL_ZERO, OPEN, CellMesh, DiscreteField,
                            EnergyContext, affine_values, free_size, inject,
                            kinematic_operator, pack, refine_mesh,
                            transverse_average, unpack)
from filmcell.integrand import (MaterialPoint, PlanarCheckerboard,
                                TransverseLaminate, aniso_quadratic_density,
                                pnorm_density, two_well_density)
from filmcell.solvers import SolverConfig, minimize_lbfgs
from filmcell.thinfilm import SheetMesh
from scipy.sparse.linalg import splu
import filmcell.field as field_mod
from oracles import rel_err

W2 = pnorm_density(2.0)


def rand_field(mesh, rng, scale=0.1):
    return DiscreteField(mesh, scale * rng.normal(
        size=mesh.node_shape + (3,)))


@pytest.mark.parametrize("make", [lambda **kw: CellMesh(2, 2, 2, **kw),
                                  lambda **kw: SheetMesh(2, 2, **kw)])
@pytest.mark.parametrize("bad", [{"origin": (0.0, 0.0, 0.0)}, {"lengths": (1.0,)},
                                 {"origin": 0.0}, {"lengths": (1.0, None)}])
def test_mesh_origin_and_lengths_must_be_pairs(make, bad):
    with pytest.raises(ValueError, match="pairs"):
        make(**bad)


def test_trapezoid_weights_halve_each_end():
    w = field_mod.trapezoid_weights((3, 4))
    assert w.tobytes() == np.outer([0.5, 1.0, 0.5], [0.5, 1.0, 1.0, 0.5]).tobytes()


def test_mesh_geometry():
    mesh = CellMesh(2, 3, 4, origin=(1.0, 2.0), lengths=(2.0, 3.0))
    x1, x2, x3 = mesh.node_coords()
    assert x1[0] == 1.0 and x1[-1] == 3.0 and len(x1) == 3
    assert x2[0] == 2.0 and x2[-1] == 5.0 and len(x2) == 4
    assert x3[0] == -1.0 and x3[-1] == 1.0 and len(x3) == 5
    assert mesh.node_shape == (3, 4, 5)


def test_affine_values_reproduce_gradient():
    mesh = CellMesh(3, 2, 2)
    fbar = np.array([[0.3, -0.1], [0.0, 0.5], [0.2, 0.0]])
    z = np.array([0.1, -0.2, 0.4])
    field = DiscreteField(mesh, affine_values(mesh, fbar, z))
    G = EnergyContext(W2, mesh).gradients(field.values)
    want = np.concatenate([fbar, z[:, None]], axis=1)
    assert np.max(np.abs(G - want)) < 1e-13


def test_scaled_gradient_transverse_scale():
    mesh = CellMesh(2, 2, 2)
    z = np.array([0.0, 0.0, 1.0])
    field = DiscreteField(mesh, affine_values(mesh, np.zeros((3, 2)), z))
    G = EnergyContext(W2, mesh, transverse_scale=4.0).gradients(field.values)
    assert G[..., 2, 2] == pytest.approx(4.0)


def test_energy_integral_affine_quadratic():
    # exact for |F|^2: the integrand is constant at an affine state
    mesh = CellMesh(3, 3, 3)
    fbar = np.array([[0.5, 0.0], [0.0, -0.3], [0.1, 0.2]])
    field = DiscreteField(mesh, affine_values(mesh, fbar))
    val = EnergyContext(W2, mesh).value(field.values)
    # measure of the cell is 2 (unit square times (-1, 1))
    assert val == pytest.approx(2.0 * np.sum(fbar ** 2), rel=1e-12)
    val_half = EnergyContext(W2, mesh, prefactor=0.5).value(field.values)
    assert val_half == pytest.approx(np.sum(fbar ** 2), rel=1e-12)


def test_energy_gradient_matches_fd():
    mesh = CellMesh(2, 2, 2, boundary_mode=LATERAL_ZERO)
    rng = np.random.default_rng(0)
    vec = 0.1 * rng.normal(size=free_size(mesh))
    ctx = EnergyContext(W2, mesh, transverse_scale=1.7)
    _, red = ctx.value_and_grad(vec)
    h = 1e-6
    for k in rng.choice(len(vec), size=8, replace=False):
        vp, vm = vec.copy(), vec.copy()
        vp[k] += h
        vm[k] -= h
        assert rel_err(red[k], (ctx.value(vp) - ctx.value(vm)) / (2 * h)) < 1e-6


@pytest.mark.parametrize("mode,expect", [
    (LATERAL_ZERO, lambda m: (m.n1 - 1) * (m.n2 - 1) * (m.n3 + 1) * 3),
    (LATERAL_PERIODIC, lambda m: m.n1 * m.n2 * (m.n3 + 1) * 3),
    (LATERAL_AFFINE, lambda m: (m.n1 - 1) * (m.n2 - 1) * (m.n3 + 1) * 3),
    (FULLY_PERIODIC, lambda m: m.n1 * m.n2 * m.n3 * 3),
])
def test_free_size_by_mode(mode, expect):
    mesh = CellMesh(3, 4, 2, boundary_mode=mode)
    assert free_size(mesh) == expect(mesh)


@pytest.mark.parametrize("mode", [LATERAL_ZERO, LATERAL_PERIODIC,
                                  LATERAL_AFFINE, FULLY_PERIODIC])
def test_pack_unpack_round_trip(mode):
    mesh = CellMesh(3, 2, 2, boundary_mode=mode)
    rng = np.random.default_rng(5)
    vec = rng.normal(size=free_size(mesh))
    datum = affine_values(mesh, np.array([[0.2, 0.0], [0.0, 0.1], [0.0, 0.0]]))
    values = unpack(vec, mesh, datum if mode == LATERAL_AFFINE else None)
    back = pack(values, mesh)
    assert np.allclose(back, vec, atol=1e-14)


def test_periodic_unpack_ties_faces():
    mesh = CellMesh(3, 3, 2, boundary_mode=LATERAL_PERIODIC)
    rng = np.random.default_rng(6)
    values = unpack(rng.normal(size=free_size(mesh)), mesh)
    assert np.array_equal(values[0], values[-1])
    assert np.array_equal(values[:, 0], values[:, -1])


def test_transverse_average_of_ramp():
    mesh = CellMesh(2, 2, 4)
    z = np.array([0.2, -0.4, 1.0])
    field = DiscreteField(mesh, affine_values(mesh, np.zeros((3, 2)), z))
    # nodal map scale * (u(top) - u(bottom)); the ramp gives z back
    got = transverse_average(field, 0.5)
    assert got.shape == (3, 3, 3)
    assert np.allclose(got, np.broadcast_to(z, got.shape), atol=1e-13)


def test_energy_context_frozen_vs_full():
    lam = pnorm_density(2.0)
    from filmcell.integrand import TransverseLaminate
    lam = pnorm_density(2.0, modulation=TransverseLaminate((1.0, 3.0), (0.0,)))
    mesh = CellMesh(2, 2, 2)
    fbar = np.array([[0.4, 0.0], [0.0, 0.0], [0.0, 0.0]])
    field = DiscreteField(mesh, affine_values(mesh, fbar))
    full = EnergyContext(lam, mesh).value(field.values)
    frozen = EnergyContext(lam, mesh, x_mode="frozen",
                           x0=MaterialPoint((0.5, 0.5), 0.0)).value(field.values)
    # full mode reads the laminate through the thickness: mean level 2;
    # frozen mode still tracks x3 (only x_alpha is pinned), same here
    assert full == pytest.approx(2.0 * 2.0 * 0.16, rel=1e-12)
    assert frozen == pytest.approx(full, rel=1e-12)


def test_energy_context_offsets_shift_the_argument():
    mesh = CellMesh(2, 2, 2, boundary_mode=LATERAL_PERIODIC)
    fbar = np.array([[0.3, 0.1], [0.0, -0.2], [0.4, 0.0]])
    z = np.array([0.25, 0.0, -0.5])
    ctx = EnergyContext(W2, mesh, x_mode="frozen",
                        x0=MaterialPoint((0.5, 0.5), 0.0),
                        inplane_offset=fbar, transverse_offset=z)
    val = ctx.value(np.zeros(mesh.node_shape + (3,)))
    assert val == pytest.approx(2.0 * (np.sum(fbar ** 2) + np.sum(z ** 2)),
                                rel=1e-12)


def test_energy_context_offset_gradients():
    mesh = CellMesh(2, 2, 2, boundary_mode=LATERAL_PERIODIC)
    rng = np.random.default_rng(7)
    psi = 0.05 * rng.normal(size=mesh.node_shape + (3,))
    psi[0] = psi[-1]
    psi[:, 0] = psi[:, -1]
    fbar = 0.3 * rng.normal(size=(3, 2))
    z = 0.3 * rng.normal(size=3)

    def value_at(fb, zz):
        ctx = EnergyContext(W2, mesh, x_mode="frozen",
                            x0=MaterialPoint((0.5, 0.5), 0.0),
                            inplane_offset=fb, transverse_offset=zz)
        return ctx.value(psi)

    ctx = EnergyContext(W2, mesh, x_mode="frozen",
                        x0=MaterialPoint((0.5, 0.5), 0.0),
                        inplane_offset=fbar, transverse_offset=z)
    _, _, dF, dz = ctx.value_and_grad(psi, offset_grads=True)
    h = 1e-6
    for d in range(3):
        for a in range(2):
            e = np.zeros((3, 2))
            e[d, a] = h
            fd = (value_at(fbar + e, z) - value_at(fbar - e, z)) / (2 * h)
            assert rel_err(dF[d, a], fd) < 1e-6
    for d in range(3):
        e = np.zeros(3)
        e[d] = h
        fd = (value_at(fbar, z + e) - value_at(fbar, z - e)) / (2 * h)
        assert rel_err(dz[d], fd) < 1e-6


def test_refine_and_inject_preserve_function():
    mesh = CellMesh(2, 2, 2)
    fine = refine_mesh(mesh)
    assert (fine.n1, fine.n2, fine.n3) == (4, 4, 4)
    rng = np.random.default_rng(8)
    field = rand_field(mesh, rng)
    up = inject(field)
    # trilinear functions are reproduced exactly at the fine nodes
    assert np.allclose(up.values[::2, ::2, ::2], field.values, atol=1e-14)
    v = EnergyContext(W2, mesh).value(field.values)
    v_up = EnergyContext(W2, fine).value(up.values)
    assert v_up == pytest.approx(v, rel=1e-12)


def test_nonconvex_energy_assembly_positive():
    A = np.diag([0.5, 0.0, 0.0])
    W = two_well_density(A)
    mesh = CellMesh(2, 2, 2)
    rng = np.random.default_rng(10)
    field = rand_field(mesh, rng)
    assert EnergyContext(W, mesh).value(field.values) >= 0.0


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=15, deadline=None)
def test_free_dof_adjoint_matches_nodal_adjoint_through_unpack(seed):
    # <B_open^T s, unpack(x)> == <B_mode^T s, x>: periodic twins fold onto
    # their representative in the free-dof operator's adjoint
    rng = np.random.default_rng(seed)
    for mode in (LATERAL_PERIODIC, FULLY_PERIODIC):
        mesh = CellMesh(2, 3, 2, boundary_mode=mode)
        free = kinematic_operator(mesh)
        nodal = kinematic_operator(mesh, (OPEN, OPEN, OPEN))
        s = rng.normal(size=free.B.shape[0])
        x = rng.normal(size=free_size(mesh))
        lhs = float(nodal.adjoint(s) @ unpack(x, mesh).ravel())
        rhs = float(free.adjoint(s) @ x)
        assert abs(lhs - rhs) < 1e-10 * (1 + abs(lhs))


MODES = [LATERAL_ZERO, LATERAL_PERIODIC, LATERAL_AFFINE, FULLY_PERIODIC]
W3 = pnorm_density(3.0)


def _free_context(mode, constrained, rng):
    mesh = CellMesh(3, 2, 2, lengths=(1.5, 0.8), boundary_mode=mode)
    datum = None
    if mode == LATERAL_AFFINE:
        datum = affine_values(mesh, rng.normal(size=(3, 2)))
    fbar = 0.3 * rng.normal(size=(3, 2))
    z = 0.3 * rng.normal(size=3)

    def make(fb=fbar, zz=z):
        return EnergyContext(W3, mesh, transverse_scale=1.7, prefactor=0.5,
                             x_mode="frozen", x0=MaterialPoint((0.5, 0.5), 0.0),
                             inplane_offset=fb, transverse_offset=zz,
                             constrained=constrained, datum=datum)
    x = 0.2 * rng.normal(size=free_size(mesh))
    return mesh, datum, make, x, fbar, z


@pytest.mark.parametrize("constrained", [False, True])
@pytest.mark.parametrize("mode", MODES)
def test_free_dof_gradient_matches_central_differences(mode, constrained):
    rng = np.random.default_rng(11)
    mesh, datum, make, x, _, _ = _free_context(mode, constrained, rng)
    ctx = make()
    val, grad = ctx.value_and_grad(x)
    assert grad.shape == x.shape
    assert val == pytest.approx(ctx.value(x), rel=1e-14)
    # The free-dof vector means the unpacked (and projected) nodal field.
    nodal = unpack(ctx.operator.project(x), mesh, datum)
    assert val == pytest.approx(ctx.value(nodal), rel=1e-12)
    h = 1e-6
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = h
        fd = (ctx.value(x + e) - ctx.value(x - e)) / (2 * h)
        assert abs(grad[k] - fd) < 1e-6 * (1.0 + abs(fd))


@pytest.mark.parametrize("constrained", [False, True])
@pytest.mark.parametrize("mode", MODES)
def test_offset_gradients_match_central_differences(mode, constrained):
    rng = np.random.default_rng(12)
    _, _, make, x, fbar, z = _free_context(mode, constrained, rng)
    _, _, dF, dz = make().value_and_grad(x, offset_grads=True)
    h = 1e-6
    for d in range(3):
        for a in range(2):
            e = np.zeros((3, 2))
            e[d, a] = h
            fd = (make(fbar + e, z).value(x) - make(fbar - e, z).value(x)) / (2 * h)
            assert rel_err(dF[d, a], fd) < 1e-6
        e = np.zeros(3)
        e[d] = h
        fd = (make(fbar, z + e).value(x) - make(fbar, z - e).value(x)) / (2 * h)
        assert rel_err(dz[d], fd) < 1e-6


def test_transverse_projector_pins_the_trace_mean():
    mesh = CellMesh(3, 2, 4, boundary_mode=LATERAL_PERIODIC)
    op = kinematic_operator(mesh, constrained=True)
    rng = np.random.default_rng(13)
    x = op.project(rng.normal(size=op.ndof))
    u = unpack(x, mesh)
    trace = (u[:3, :2, -1] - u[:3, :2, 0]).mean(axis=(0, 1))
    assert np.abs(trace).max() < 1e-14
    assert np.allclose(op.project(x), x, atol=1e-14)


def test_operator_cache_keys_on_geometry():
    a = CellMesh(2, 2, 2, lengths=(1.0, 1.0), boundary_mode=LATERAL_PERIODIC)
    b = CellMesh(2, 2, 2, lengths=(2.0, 1.0), boundary_mode=LATERAL_PERIODIC)
    moved = CellMesh(2, 2, 2, origin=(3.0, -1.0), boundary_mode=LATERAL_PERIODIC)
    assert kinematic_operator(a) is kinematic_operator(moved)
    assert kinematic_operator(a) is not kinematic_operator(b)
    assert kinematic_operator(a) is not kinematic_operator(a, constrained=True)
    assert kinematic_operator(a) is not kinematic_operator(a, (OPEN, OPEN, OPEN))
    # each entry carries its own spacings: the x1-slope of an affine field
    fbar = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    for mesh in (a, b):
        G = EnergyContext(W2, mesh).gradients(affine_values(mesh, fbar))
        assert np.allclose(G[..., 0, 0], 1.0, atol=1e-13)


@pytest.mark.parametrize("mesh", [
    CellMesh(2, 3, 4),
    CellMesh(2, 3, 4, origin=(0.5, -1.0), lengths=(2.0, 0.3)),
    SheetMesh(4, 2, origin=(1.0, -1.0), lengths=(2.0, 1.0)),
    SheetMesh(3, 3),
])
def test_cached_quadrature_is_read_only_and_fresh(mesh):
    dim = len(mesh.counts)
    origin = tuple(mesh.origin) + ((-1.0,) if dim == 3 else ())
    coords = mesh.quad_coords()
    weights = mesh.quad_weights()
    assert mesh.quad_coords() is coords and mesh.quad_weights() is weights
    fresh_coords = field_mod._quad_coords.__wrapped__(mesh.counts, origin, mesh.spacings)
    fresh_weights = field_mod._quad_weights.__wrapped__(mesh.counts, mesh.spacings)
    assert weights.tobytes() == fresh_weights.tobytes()
    for got, want in zip(coords, fresh_coords):
        assert got.tobytes() == want.tobytes()
    for arr in coords + (weights,):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0
    # Independent formula: tensor Gauss points, first axis slowest.
    t = [0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)]
    xi = list(itertools.product(t, repeat=dim))
    for cell in np.ndindex(*mesh.counts):
        for q, point in enumerate(xi):
            for a in range(dim):
                want = origin[a] + (cell[a] + point[a]) * mesh.spacings[a]
                assert coords[a][cell + (q,)] == pytest.approx(want, rel=0, abs=1e-14)
    assert np.isclose(weights.sum(), np.prod(mesh.spacings) * np.prod(mesh.counts))


# -- Newton solves for quadratic families -------------------------------------

_C_FULL = np.random.default_rng(21).normal(size=(9, 9))
NEWTON_FAMILIES = {
    "p2": pnorm_density(2.0, scale=1.5),
    "aniso-full": aniso_quadratic_density(cmat=_C_FULL @ _C_FULL.T + 9.0 * np.eye(9)),
    "laminate": pnorm_density(2.0, modulation=TransverseLaminate((1.0, 3.0), (0.0,))),
    "checkerboard": aniso_quadratic_density(
        entry_weights=np.arange(1.0, 10.0).reshape(3, 3),
        modulation=PlanarCheckerboard((1.0, 4.0), 0.5)),
}
NEWTON_RULES = [(LATERAL_ZERO, False), (LATERAL_PERIODIC, False),
                (LATERAL_PERIODIC, True), (FULLY_PERIODIC, False),
                (LATERAL_AFFINE, False)]


def _newton_problem(W, mode, constrained, rng):
    """Objective over free dofs at L = 2.5 with offsets, loads in affine mode.

    On 2 x 2 x 2 meshes the in-plane/transverse coupling part of the
    Hessian vanishes for every free-dof rule; 3 x 2 x 4 keeps it.
    """
    mesh = CellMesh(3, 2, 4, boundary_mode=mode)
    datum = None
    if mode == LATERAL_AFFINE:
        datum = affine_values(mesh, 0.3 * rng.normal(size=(3, 2)),
                              0.3 * rng.normal(size=3))
    ctx = EnergyContext(W, mesh, transverse_scale=2.5, prefactor=0.5, x_mode="full",
                        inplane_offset=0.3 * rng.normal(size=(3, 2)),
                        transverse_offset=0.3 * rng.normal(size=3),
                        constrained=constrained, datum=datum)
    ell = 0.3 * rng.normal(size=free_size(mesh)) if datum is not None else 0.0

    def fun(x):
        val, grad = ctx.value_and_grad(x)
        return val - float(np.sum(ell * x)), grad - ell
    return mesh, ctx, fun, 0.3 * rng.normal(size=free_size(mesh))


@pytest.mark.parametrize("mode,constrained", NEWTON_RULES)
@pytest.mark.parametrize("family", list(NEWTON_FAMILIES))
def test_newton_step_solves_quadratic_families(family, mode, constrained):
    rng = np.random.default_rng(22)
    mesh, ctx, fun, x0 = _newton_problem(NEWTON_FAMILIES[family], mode,
                                         constrained, rng)
    assert ctx.newton is not None
    res = minimize_lbfgs(fun, x0, SolverConfig(), newton=ctx.newton)
    # one accepted Newton step, then the stopping test holds
    assert (res.status, res.iterations, res.n_evals) == ("ok", 2, 2)
    ref = minimize_lbfgs(fun, x0, SolverConfig())
    assert ref.status == "ok"
    assert abs(res.value - ref.value) <= 1e-10 * (1.0 + abs(ref.value))
    # The field against the exact minimum-norm step of the dense Hessian
    # (columns by gradient differences, exact for a quadratic): L-BFGS's
    # Armijo test on values stops resolving the field near 1e-9 here.
    g0 = fun(x0)[1]
    eye = np.eye(x0.size)
    H = np.stack([fun(x0 + e)[1] - g0 for e in eye], axis=1)
    want = ctx.operator.project(x0 - np.linalg.pinv(H, rcond=1e-10) @ g0)
    got = ctx.operator.project(res.x)
    assert np.abs(got - want).max() <= 1e-10 * (1.0 + np.abs(want).max())
    assert np.abs(got - ctx.operator.project(ref.x)).max() <= 1e-6


@pytest.mark.parametrize("mode,constrained", NEWTON_RULES)
def test_rescaled_context_matches_a_fresh_one_bitwise(mode, constrained):
    W = NEWTON_FAMILIES["checkerboard"]
    _, fresh, _, x = _newton_problem(W, mode, constrained, np.random.default_rng(23))
    _, other, _, _ = _newton_problem(W, mode, constrained, np.random.default_rng(23))
    moved = other.rescaled(1.0)
    moved.newton(x)             # a factor at scale 1, which the next rescale drops
    back = moved.rescaled(2.5)

    def outputs(ctx):
        val, grad = ctx.value_and_grad(x)
        return np.float64(val).tobytes(), grad.tobytes(), ctx.newton(x).tobytes()
    assert outputs(back) == outputs(fresh)


@pytest.mark.parametrize("W", [pnorm_density(3.0), two_well_density(np.eye(3))])
def test_non_quadratic_families_get_no_newton_solve(W):
    mesh = CellMesh(2, 2, 2, boundary_mode=LATERAL_PERIODIC)
    assert W.moduli is None
    assert EnergyContext(W, mesh, constrained=True).newton is None


def test_converged_start_builds_no_factorization(monkeypatch):
    field_mod._FACTORS.clear()
    factored = []
    monkeypatch.setattr(field_mod, "splu", lambda A: factored.append(A) or splu(A))
    rng = np.random.default_rng(23)
    _, ctx, fun, x0 = _newton_problem(NEWTON_FAMILIES["laminate"], LATERAL_PERIODIC,
                                      True, rng)
    first = minimize_lbfgs(fun, x0, SolverConfig(), newton=ctx.newton)
    assert len(factored) == 1
    again = minimize_lbfgs(fun, first.x, SolverConfig(), newton=ctx.newton)
    assert (again.status, again.iterations, again.n_evals) == ("ok", 1, 1)
    fresh = EnergyContext(ctx.W, ctx.mesh, ctx.transverse_scale, ctx.prefactor,
                          "full", inplane_offset=ctx.inplane_offset,
                          transverse_offset=ctx.transverse_offset, constrained=True)
    minimize_lbfgs(fresh.value_and_grad, first.x, SolverConfig(), newton=fresh.newton)
    assert len(factored) == 1


def _fetch_factor(mesh, L):
    """Make the constrained laminate context at L fetch its factorization."""
    ctx = EnergyContext(NEWTON_FAMILIES["laminate"], mesh, transverse_scale=L,
                        prefactor=0.5, constrained=True)
    ctx.newton(np.zeros(ctx.operator.ndof))


def test_factor_cache_stays_within_its_budget(monkeypatch):
    cache = field_mod._FACTORS
    cache.clear()
    factored = []

    def recorded(A):
        factored.append(splu(A))
        return factored[-1]
    monkeypatch.setattr(field_mod, "splu", recorded)
    small = CellMesh(2, 2, 2, boundary_mode=LATERAL_PERIODIC)
    large = CellMesh(8, 8, 8, boundary_mode=LATERAL_PERIODIC)
    # two 8^3 factors exceed the budget: each new one evicts the oldest
    # entries, the 2^3 one first, then the 8^3 one before it
    for mesh, L, count in [(small, 1.0, 1), (large, 1.0, 2), (large, 2.0, 1),
                           (large, 3.0, 1), (small, 1.0, 2)]:
        _fetch_factor(mesh, L)
        stored = list(cache._entries.values())
        assert cache.nnz == sum(lu.nnz for lu in stored) <= field_mod.FACTOR_NNZ_BUDGET
        assert (len(stored), stored[-1]) == (count, factored[-1])
    # the 2^3 factor was evicted, so the last fetch factored it again
    assert len(factored) == 5
    _fetch_factor(large, 3.0)
    assert len(factored) == 5


def test_factor_larger_than_the_budget_is_not_stored(monkeypatch):
    cache = field_mod._FACTORS
    cache.clear()
    monkeypatch.setattr(cache, "budget", 100)
    rng = np.random.default_rng(25)
    _, ctx, fun, x0 = _newton_problem(NEWTON_FAMILIES["p2"], LATERAL_PERIODIC,
                                      True, rng)
    res = minimize_lbfgs(fun, x0, SolverConfig(), newton=ctx.newton)
    assert (res.status, res.iterations) == ("ok", 2)
    assert (len(cache._entries), cache.nnz) == (0, 0)


def test_value_operator_is_cached_and_matches_a_fresh_build():
    for mesh in (CellMesh(2, 3, 4), SheetMesh(3, 2)):
        dim = len(mesh.counts)
        V = field_mod.value_operator(mesh)
        assert field_mod.value_operator(mesh) is V
        fresh = field_mod.grid_operator(mesh.counts, mesh.spacings, (OPEN,) * dim,
                                        derivative=False)
        density = np.random.default_rng(24).normal(size=V.B.shape[0])
        assert (V.B.T @ density).tobytes() == (fresh.T @ density).tobytes()


# -- the value path ------------------------------------------------------------

def _value_families():
    rng = np.random.default_rng(31)
    A = rng.normal(size=(9, 9))
    well = np.array([[0.4, 0.2, 0.0], [0.0, 0.0, 0.0], [-0.1, 0.0, 0.3]])
    return {
        "p2": pnorm_density(2.0),
        "p3": pnorm_density(3.0, scale=1.5),
        "aniso-full-C": aniso_quadratic_density(cmat=A @ A.T + 9.0 * np.eye(9)),
        "two-well": two_well_density(well),
        "laminate": pnorm_density(2.0, modulation=TransverseLaminate((1.0, 3.0), (0.0,))),
        "checkerboard": pnorm_density(3.0, modulation=PlanarCheckerboard((1.0, 2.0), 0.5)),
    }


def _value_contexts(W, rng):
    """Contexts of every x mode, constrained, with a datum, with and without offsets."""
    x0 = MaterialPoint((0.3, 0.7), 0.2)
    fbar, z = 0.3 * rng.normal(size=(3, 2)), 0.3 * rng.normal(size=3)
    affine = CellMesh(3, 2, 2, boundary_mode=LATERAL_AFFINE)
    return {
        "full-bare": EnergyContext(W, CellMesh(3, 2, 2, boundary_mode=LATERAL_ZERO)),
        "frozen-constrained": EnergyContext(
            W, CellMesh(2, 2, 2, boundary_mode=LATERAL_PERIODIC), 0.7, 0.5, "frozen",
            x0, fbar, z, constrained=True),
        "point": EnergyContext(W, CellMesh(2, 2, 2, boundary_mode=FULLY_PERIODIC),
                               2.0, 0.5, "point", x0, fbar, z),
        "full-datum": EnergyContext(W, affine, 1.0 / 0.3, 1.0, "full",
                                    datum=affine_values(affine, fbar, z)),
    }


def _bits(v):
    return np.float64(v).tobytes()


@pytest.mark.parametrize("family", list(_value_families()))
def test_value_is_bitwise_value_and_grad(family):
    W = _value_families()[family]
    rng = np.random.default_rng(len(family))
    for label, ctx in _value_contexts(W, rng).items():
        n = ctx.operator.ndof
        sparse = rng.normal(size=n)
        sparse[::2] = 0.0
        args = [np.zeros(n), rng.normal(size=n), sparse,
                rng.normal(size=ctx.mesh.node_shape + (3,))]
        for x in args:
            assert _bits(ctx.value(x)) == _bits(ctx.value_and_grad(x)[0]), label
        # minimize_over_z reassigns the transverse offset between evaluations
        for z in (rng.normal(size=3), np.zeros(3), args[1][:3]):
            ctx.transverse_offset = z
            assert _bits(ctx.value(args[1])) == _bits(ctx.value_and_grad(args[1])[0])
    if family == "p3":
        # every gradient row is zero: the p-norm's zero-norm branch
        ctx = _value_contexts(W, rng)["full-bare"]
        assert ctx.value(np.zeros(ctx.operator.ndof)) == 0.0
    if family == "two-well":
        # G = 0 sits exactly between the wells A and -A
        ctx = _value_contexts(W, rng)["full-bare"]
        d1, d2 = W.family._dists(ctx.gradients(np.zeros(ctx.operator.ndof)))
        assert np.array_equal(d1, d2)
