"""Acceptance run for the effective-density pipeline.

Twelve numbered criteria, one test and one printed pass/fail line each.
Every density value produced here is recorded, and the growth-bound
audit (criterion 05) re-examines the whole log; it is therefore defined
at the end of the file so that it runs after the other criteria.
"""

import json
import time
from dataclasses import replace

import numpy as np

from filmcell.cell import (
    CellProblemSpec,
    InnerConfig,
    LSearchConfig,
    cosserat_density,
    membrane_density,
    membrane_density_periodic,
    minimize_over_z,
    quasiconvexify,
    refinement_ladder,
)
from filmcell.cli import cmd_check
from filmcell.field import (
    FULLY_PERIODIC,
    LATERAL_PERIODIC,
    LATERAL_ZERO,
    CellMesh,
    DiscreteField,
    energy_gradient,
    energy_integral,
    free_size,
    pack,
    unpack,
)
from filmcell.integrand import (
    MaterialPoint,
    PlanarCheckerboard,
    TransverseLaminate,
    aniso_quadratic_density,
    composite_density,
    pnorm_density,
    two_well_density,
)
from filmcell.thinfilm import (
    CellDensitySource,
    LoadSystem,
    SheetMesh,
    ThinFilmProblem,
    bbar_at,
    minimize_limit,
    minimize_thin_film,
)
from oracles import rank_one_well

TOL = 1e-8

# every direct density solve of this session: (W, fbar, z-or-None, value)
BOUND_LOG = []


def _log(W, fbar, z, value):
    BOUND_LOG.append((W,
                      None if fbar is None else np.array(fbar, dtype=float),
                      None if z is None else np.array(z, dtype=float),
                      float(value)))


def solve_membrane(W, spec):
    sol = membrane_density(W, spec)
    _log(W, spec.fbar, None, sol.value)
    return sol


def solve_membrane_periodic(W, spec):
    sol = membrane_density_periodic(W, spec)
    _log(W, spec.fbar, None, sol.value)
    return sol


def solve_cosserat(W, spec):
    sol = cosserat_density(W, spec)
    _log(W, spec.fbar, spec.z, sol.value)
    return sol


def solve_minz(W, spec):
    sol, b0 = minimize_over_z(W, spec)
    _log(W, spec.fbar, b0, sol.value)
    return sol, b0


def solve_qcx(W, F, spec):
    sol = quasiconvexify(W, F, spec)
    F = np.asarray(F, dtype=float)
    _log(W, F[:, :2], F[:, 2], sol.value)
    return sol


def _report(num, name, ok, detail=""):
    line = f"criterion {num:02d} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  {detail}"
    print(line, flush=True)
    assert ok, line


def two_tol(ref):
    return 2.0 * TOL * (1.0 + abs(ref))


SINGLE = InnerConfig(multistart=1)
# a window around the flat-profile optimum; used where the value is
# provably independent of the relaxation length, to keep runtimes sane
NARROW_L = LSearchConfig(l_min=0.9, l_max=1.1, grid_count=3, golden_tol=0.5)

W_QUAD = pnorm_density(p=2.0)
W_CUBIC = pnorm_density(p=3.0)
W_LAM = pnorm_density(p=2.0, modulation=TransverseLaminate((1.0, 3.0), (0.0,)))

ANISO_W = np.full((3, 3), 1.0)
ANISO_W[0, 0], ANISO_W[1, 1], ANISO_W[2, 2] = 2.0, 1.5, 3.0
W_ANISO = aniso_quadratic_density(entry_weights=ANISO_W)


def coupled_aniso():
    C = np.eye(9)
    C[0, 2] = C[2, 0] = 0.4
    return aniso_quadratic_density(cmat=C)


# -- criterion 1: quadratic baseline -----------------------------------------

def test_criterion_01_quadratic_exactness():
    rng = np.random.default_rng(101)
    mesh = CellMesh(8, 8, 8)
    worst = 0.0
    slowest = 0.0
    for _ in range(10):
        fbar = rng.uniform(-1.2, 1.2, size=(3, 2))  # Frobenius norm <= 3
        z = rng.uniform(-1.0, 1.0, size=3)
        spec = CellProblemSpec(fbar=fbar, mesh=mesh, inner=SINGLE)
        t0 = time.perf_counter()
        mem = solve_membrane(W_QUAD, spec)
        t_mem = time.perf_counter() - t0
        t0 = time.perf_counter()
        cos = solve_cosserat(W_QUAD, replace(spec, z=z))
        t_cos = time.perf_counter() - t0
        want_mem = float(np.sum(fbar**2))
        want_cos = want_mem + float(np.sum(z**2))
        worst = max(worst,
                    abs(mem.value - want_mem) / max(1.0, want_mem),
                    abs(cos.value - want_cos) / max(1.0, want_cos))
        slowest = max(slowest, t_mem, t_cos)
    ok = worst <= 1e-4 and slowest <= 10.0
    _report(1, "quadratic membrane and transverse-vector exactness", ok,
            f"max_rel={worst:.2e} max_seconds={slowest:.2f}")


# -- criterion 2: layered average --------------------------------------------

def layered_membrane_oracle(levels, breaks, fbar):
    """Slice-wise derivation: in-plane Jensen per transverse slice gives
    a(x3) |Fbar|^2, the transverse term drops at x3-constant fields, and
    the half prefactor times the layer-measure sum does the rest."""
    edges = [-1.0, *breaks, 1.0]
    total = sum(a * (hi - lo) for a, lo, hi in zip(levels, edges, edges[1:]))
    return 0.5 * total * float(np.sum(np.asarray(fbar) ** 2))


def test_criterion_02_layered_membrane_average():
    rng = np.random.default_rng(102)
    mesh = CellMesh(4, 4, 8)  # even transverse count resolves the break
    worst = 0.0
    for _ in range(5):
        fbar = rng.uniform(-0.8, 0.8, size=(3, 2))
        spec = CellProblemSpec(fbar=fbar, mesh=mesh, inner=SINGLE)
        got = solve_membrane(W_LAM, spec).value
        want = layered_membrane_oracle((1.0, 3.0), (0.0,), fbar)
        assert abs(want - 2.0 * np.sum(fbar**2)) < 1e-12
        worst = max(worst, abs(got - want) / max(1.0, want))
    _report(2, "equal-layer membrane density is twice |Fbar|^2",
            worst <= 1e-3, f"max_rel={worst:.2e}")


# -- criterion 3: boundary-condition forms agree -----------------------------

def test_criterion_03_forms_agree_on_convex_families():
    rng = np.random.default_rng(103)
    families = [
        W_QUAD,
        W_CUBIC,
        W_ANISO,
        pnorm_density(p=2.0, modulation=PlanarCheckerboard((1.0, 2.0), 0.5)),
    ]
    mesh = CellMesh(4, 4, 4)
    worst = 0.0
    for i in range(10):
        W = families[i % len(families)]
        x0 = MaterialPoint(tuple(rng.uniform(0.05, 0.95, size=2)), 0.0)
        fbar = rng.uniform(-0.6, 0.6, size=(3, 2))
        spec = CellProblemSpec(fbar=fbar, x0=x0, mesh=mesh, inner=SINGLE)
        a = solve_membrane(W, spec).value
        b = solve_membrane_periodic(W, spec).value
        gap = abs(a - b)
        assert gap <= two_tol(a), (W.label, x0, gap)
        worst = max(worst, gap / (1.0 + abs(a)))
    _report(3, "clamped and periodic membrane forms agree", True,
            f"max_scaled_gap={worst:.2e}")


# -- criterion 4: transverse minimization identity ---------------------------

def test_criterion_04_minimize_over_z_identity():
    rng = np.random.default_rng(104)
    well = np.zeros((3, 3))
    well[:, :2] = rank_one_well()[:, :2]
    W_TW = two_well_density(well_plus=well)
    W_CHECKER = pnorm_density(
        p=2.0, modulation=PlanarCheckerboard((1.0, 2.0), 0.5))
    W_COMP = composite_density(W_QUAD, TransverseLaminate((1.0, 3.0), (0.0,)))
    mesh = CellMesh(4, 4, 4)
    cases = []
    for W in (W_QUAD, W_CUBIC):
        cases.append((W, rng.uniform(-0.6, 0.6, (3, 2)), (0.5, 0.5)))
    for _ in range(2):
        cases.append((W_ANISO, rng.uniform(-0.6, 0.6, (3, 2)), (0.5, 0.5)))
    for t in (1.5, 1.7):
        fb = t * well[:, :2] + 0.05 * rng.uniform(-1, 1, (3, 2))
        cases.append((W_TW, fb, (0.5, 0.5)))
    cases.append((W_COMP, rng.uniform(-0.6, 0.6, (3, 2)), (0.5, 0.5)))
    for x0 in ((0.25, 0.25), (0.75, 0.25), (0.3, 0.8)):
        cases.append((W_CHECKER, rng.uniform(-0.6, 0.6, (3, 2)), x0))
    assert len(cases) == 10
    worst = 0.0
    for W, fbar, x0 in cases:
        spec = CellProblemSpec(fbar=fbar, x0=MaterialPoint(x0, 0.0),
                               mesh=mesh)
        direct = solve_membrane(W, spec).value
        joint, _ = solve_minz(W, replace(spec, z=np.zeros(3)))
        gap = abs(joint.value - direct)
        assert gap <= two_tol(direct), (W.label, gap)
        worst = max(worst, gap / (1.0 + abs(direct)))
    _report(4, "minimizing the transverse vector recovers the membrane",
            True, f"max_scaled_gap={worst:.2e}")


# -- criterion 6: convexity structure ----------------------------------------

def test_criterion_06_convexity_structure():
    rng = np.random.default_rng(106)
    mesh = CellMesh(2, 2, 2)
    well = rank_one_well()
    fbw = well[:, :2]
    W_TW = two_well_density(well_plus=well)
    zfam = [W_QUAD] * 15 + [W_ANISO] * 15 + [W_LAM] * 10 + [W_TW] * 10
    worst_z = 0.0
    for i, W in enumerate(zfam):
        if W is W_TW:
            fbar = 1.6 * fbw + 0.05 * rng.uniform(-1, 1, (3, 2))
            zm = 0.2 * rng.uniform(-1, 1, 3)
            zp = 0.2 * rng.uniform(-1, 1, 3)
            inner = InnerConfig()
        else:
            fbar = rng.uniform(-0.7, 0.7, (3, 2))
            zm = rng.uniform(-0.8, 0.8, 3)
            zp = rng.uniform(-0.8, 0.8, 3)
            inner = SINGLE
        spec = CellProblemSpec(fbar=fbar, mesh=mesh, inner=inner)
        vm = solve_cosserat(W, replace(spec, z=zm)).value
        vp = solve_cosserat(W, replace(spec, z=zp)).value
        v0 = solve_cosserat(W, replace(spec, z=0.5 * (zm + zp))).value
        excess = v0 - 0.5 * (vm + vp)
        assert excess <= two_tol(v0), (W.label, i, excess)
        worst_z = max(worst_z, excess / (1.0 + abs(v0)))

    ffam = [W_QUAD] * 8 + [W_ANISO] * 4 + [W_LAM] * 4 + [W_TW] * 4
    worst_f = 0.0
    for i, W in enumerate(ffam):
        if W is W_TW:
            # stay on one branch: the envelope is locally the squared
            # distance there, and midpoint convexity must still hold
            t0, dt = 1.5 + 0.2 * rng.uniform(-1, 1), 0.15
            fm, fp = (t0 - dt) * fbw, (t0 + dt) * fbw
            inner = InnerConfig()
        else:
            base = rng.uniform(-0.5, 0.5, (3, 2))
            a = rng.uniform(-1, 1, 3)
            e = rng.uniform(-1, 1, 2)
            step = 0.3 * np.outer(a, e) / max(1e-9, np.linalg.norm(a))
            fm, fp = base - step, base + step
            inner = SINGLE
        spec = CellProblemSpec(fbar=fm, mesh=mesh, l_search=NARROW_L,
                               inner=inner)
        vm = solve_membrane(W, spec).value
        vp = solve_membrane(W, replace(spec, fbar=fp)).value
        v0 = solve_membrane(W, replace(spec, fbar=0.5 * (fm + fp))).value
        excess = v0 - 0.5 * (vm + vp)
        assert excess <= two_tol(v0), (W.label, i, excess)
        worst_f = max(worst_f, excess / (1.0 + abs(v0)))
    _report(6, "transverse convexity and rank-one midpoint inequality",
            True, f"worst_z={worst_z:.2e} worst_rank1={worst_f:.2e}")


# -- criterion 7: genuine relaxation -----------------------------------------

def test_criterion_07_double_well_relaxes_to_zero():
    A = np.zeros((3, 3))
    A[0, 0] = 0.7
    W = two_well_density(well_plus=A)
    raw = W.evaluate(MaterialPoint((0.5, 0.5), 0.0), np.zeros((3, 3)))
    spec = CellProblemSpec(fbar=np.zeros((3, 2)), mesh=CellMesh(4, 1, 4))
    sol = solve_qcx(W, np.zeros((3, 3)), spec)
    ok = sol.value <= 1e-3 and raw > 0.1
    _report(7, "symmetric rank-one double well relaxes to zero at Fbar=0",
            ok, f"relaxed={sol.value:.2e} raw={raw:.3f}")


# -- criterion 8: derivative consistency -------------------------------------

def test_criterion_08_derivatives_match_differences():
    rng = np.random.default_rng(108)
    checked = 0
    worst = 0.0

    def fd_stress(W, pt, F, h=1e-6):
        G = np.zeros((3, 3))
        for d in range(3):
            for j in range(3):
                Fp, Fm = F.copy(), F.copy()
                Fp[d, j] += h
                Fm[d, j] -= h
                G[d, j] = (W.evaluate(pt, Fp) - W.evaluate(pt, Fm)) / (2 * h)
        return G

    well = rank_one_well(1.0)
    W_TW = two_well_density(well_plus=well)
    stress_fams = [W_QUAD, pnorm_density(p=3.0, scale=0.7), coupled_aniso(),
                   W_TW, W_LAM]
    for W in stress_fams:
        n = 0
        while n < 12:
            x3 = float(rng.uniform(-0.95, 0.95))
            if abs(x3) < 0.05:
                continue  # keep clear of the layer break
            pt = MaterialPoint(tuple(rng.uniform(0, 1, 2)), x3)
            F = rng.uniform(-1.0, 1.0, (3, 3))
            if W is W_TW:
                dp = float(np.sum((F - well) ** 2))
                dm = float(np.sum((F + well) ** 2))
                if abs(dp - dm) < 0.3:
                    continue  # differentiable branch only
            S = np.asarray(W.stress(pt, F))
            G = fd_stress(W, pt, F)
            err = float(np.max(np.abs(S - G))) / (1.0 + float(np.max(np.abs(G))))
            assert err <= 1e-6, (W.label, err)
            worst = max(worst, err)
            checked += 1
            n += 1

    grad_cases = [
        (CellMesh(2, 2, 2, boundary_mode=LATERAL_ZERO), W_QUAD, 1.7),
        (CellMesh(2, 2, 2, boundary_mode=LATERAL_PERIODIC), W_LAM, 0.8),
        (CellMesh(3, 2, 2, boundary_mode=FULLY_PERIODIC), W_QUAD, 1.0),
        (CellMesh(2, 2, 2, boundary_mode=LATERAL_ZERO), W_ANISO, 1.3),
        (CellMesh(2, 2, 3, boundary_mode=LATERAL_PERIODIC), W_QUAD, 1.1),
    ]
    h = 1e-6
    for mesh, W, scale in grad_cases:
        vec = 0.2 * rng.normal(size=free_size(mesh))
        field = DiscreteField(mesh, unpack(vec, mesh))
        red = pack(energy_gradient(W, field, transverse_scale=scale), mesh)
        for k in rng.choice(len(vec), size=8, replace=False):
            vp, vm = vec.copy(), vec.copy()
            vp[k] += h
            vm[k] -= h
            fp = energy_integral(W, DiscreteField(mesh, unpack(vp, mesh)),
                                 transverse_scale=scale)
            fm = energy_integral(W, DiscreteField(mesh, unpack(vm, mesh)),
                                 transverse_scale=scale)
            fd = (fp - fm) / (2 * h)
            err = abs(red[k] - fd) / max(1.0, abs(fd))
            assert err <= 1e-6, (W.label, mesh.boundary_mode, k, err)
            worst = max(worst, err)
            checked += 1
    ok = checked == 100
    _report(8, "stresses and assembled gradients match central differences",
            ok, f"configurations={checked} max_rel={worst:.2e}")


# -- criterion 9: mesh refinement monotonicity -------------------------------

def test_criterion_09_refinement_monotone():
    lam3 = pnorm_density(p=3.0,
                         modulation=TransverseLaminate((1.0, 3.0), (0.0,)))
    fbar = np.array([[0.5, 0.1], [0.0, -0.3], [0.2, 0.0]])
    z = np.array([0.1, -0.2, 0.3])
    base = CellProblemSpec(fbar=fbar, mesh=CellMesh(2, 2, 2),
                           l_search=NARROW_L, inner=SINGLE)
    ladders = [
        (membrane_density, lam3, base, None),
        (cosserat_density, W_QUAD, replace(base, z=z), z),
        (membrane_density, W_ANISO, base, None),
    ]
    violations = 0
    spans = []
    for op, W, spec, zz in ladders:
        sols = refinement_ladder(op, W, spec, 3)
        vals = [s.value for s in sols]
        for v in vals:
            _log(W, spec.fbar, zz, v)
        for a, b in zip(vals, vals[1:]):
            if b > a + 1e-8 * (1.0 + abs(a)):
                violations += 1
        spans.append(vals[0] - vals[-1])
    ok = violations == 0
    _report(9, "cell values do not increase under mesh refinement", ok,
            f"violations={violations} largest_drop={max(spans):.2e}")


# -- criterion 10: thickness convergence to the membrane limit ---------------

def test_criterion_10_scaled_energies_reach_limit():
    t_start = time.perf_counter()
    fbar_bc = np.array([[0.5, 0.0], [0.0, -0.3], [0.0, 0.2]])
    problem = ThinFilmProblem(W=W_LAM, omega=SheetMesh(8, 8),
                              fbar_bc=fbar_bc,
                              epsilons=(1.0, 0.5, 0.25, 0.125), n3=8,
                              inner=SINGLE)
    cell_spec = CellProblemSpec(fbar=fbar_bc, mesh=CellMesh(8, 8, 8),
                                inner=SINGLE)
    wbar = solve_membrane(W_LAM, cell_spec).value
    limit = 2.0 * problem.omega.area * wbar
    gaps = []
    for eps in problem.epsilons:
        value, _, _ = minimize_thin_film(problem, eps)
        gaps.append(abs(value - limit) / abs(limit))
    elapsed = time.perf_counter() - t_start
    monotone = all(b <= a + 1e-12 * (1.0 + a) for a, b in zip(gaps, gaps[1:]))
    ok = monotone and gaps[-1] <= 0.05 and elapsed <= 600.0
    _report(10, "scaled film energies converge to twice the membrane density",
            ok, f"gaps={['%.2e' % g for g in gaps]} seconds={elapsed:.1f}")


# -- criterion 11: transverse-vector selection in the limit ------------------

def test_criterion_11_limit_selects_transverse_vector():
    sheet = SheetMesh(2, 2)
    template = CellProblemSpec(fbar=np.zeros((3, 2)), mesh=CellMesh(2, 2, 2),
                               inner=SINGLE)
    samples = [(0.2, 0.3), (0.7, 0.8), (0.4, 0.6), (0.9, 0.1), (0.1, 0.9)]

    # opposite constant face tractions: the optimal transverse vector is
    # half the traction, in particular nonzero
    c = np.array([0.0, 0.0, 0.4])
    source = CellDensitySource(W_QUAD, template)
    _, _, b_loaded, _ = minimize_limit(source, sheet,
                                       LoadSystem(g0=(c, -c)),
                                       np.zeros((3, 2)))
    worst_a = max(float(np.max(np.abs(bbar_at(sheet, b_loaded, x) - c / 2.0)))
                  for x in samples)
    nonzero = min(float(np.linalg.norm(bbar_at(sheet, b_loaded, x)))
                  for x in samples)

    # zero loads: the limit's transverse vector must match the joint
    # cell minimization of the same density
    W_C = coupled_aniso()
    fbar_bc = np.array([[0.5, 0.0], [0.0, 0.3], [0.2, 0.0]])
    _, b0 = solve_minz(W_C, replace(template, fbar=fbar_bc, z=np.zeros(3)))
    source = CellDensitySource(W_C, template)
    _, _, b_free, _ = minimize_limit(source, sheet, LoadSystem(), fbar_bc)
    worst_b = max(float(np.max(np.abs(bbar_at(sheet, b_free, x) - b0)))
                  for x in samples)
    ok = (nonzero > 0.1 and worst_a <= two_tol(float(np.linalg.norm(c / 2)))
          and worst_b <= two_tol(float(np.linalg.norm(b0))))
    _report(11, "limit solves select the transverse vector", ok,
            f"traction_err={worst_a:.2e} zero-load_err={worst_b:.2e} "
            f"b0={np.round(b0, 6).tolist()}")


# -- criterion 12: deterministic reports -------------------------------------

def test_criterion_12_reports_are_reproducible():
    def run():
        cfg = {"seed": 123, "cell": {"mesh": {"n1": 2, "n2": 2, "n3": 2}}}
        code, report = cmd_check(cfg)
        return code, report

    code1, rep1 = run()
    code2, rep2 = run()
    body1 = json.dumps(rep1["body"], sort_keys=True).encode()
    body2 = json.dumps(rep2["body"], sort_keys=True).encode()
    ok = (code1 == code2 == 0 and body1 == body2
          and rep1["body_sha256"] == rep2["body_sha256"])
    _report(12, "repeated check reports are byte-identical", ok,
            f"sha256={rep1['body_sha256'][:16]}")


# -- criterion 5: growth sandwich over the whole session ---------------------
# defined last: it audits every solve the criteria above performed

def test_criterion_05_growth_bounds_hold_throughout():
    assert len(BOUND_LOG) > 200, "acceptance run produced too few solves"
    violations = 0
    worst = 0.0
    for W, fbar, z, value in BOUND_LOG:
        g = W.growth
        s = float(np.sum(fbar**2)) ** (g.p / 2.0)
        if z is not None:
            s += float(np.sum(z**2)) ** (g.p / 2.0)
        slack = 1e-8 * (1.0 + s)
        lo = g.beta_lower * s - slack
        hi = g.beta_upper * (s + 1.0) + slack
        if not lo <= value <= hi:
            violations += 1
            worst = max(worst, lo - value, value - hi)
    _report(5, "two-sided growth bounds hold for every recorded solve",
            violations == 0,
            f"solves={len(BOUND_LOG)} violations={violations}")
