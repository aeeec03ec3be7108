"""Unit-cell relaxation problems defining the effective densities.

Three related cell problems are solved on the through-thickness cell
Q' x (-1, 1), all at a frozen in-plane material point x0:

* membrane density (lateral-zero form): the infimum over cell lengths
  L > 0 and perturbations vanishing on the lateral faces of

      (1/2) Int W(x0, x3; Fbar + D_alpha phi | L D_3 phi) dx,

* membrane density (periodic form): the same infimum over laterally
  periodic perturbations with the quasiconvexified integrand, which for
  convex families coincides with W and for the two-well family is its
  closed-form envelope (see ``_relaxed_value``),

* Cosserat density: laterally periodic perturbations whose transverse
  average (L/2) Int D_3 phi dx3-slice mean is pinned to a vector z.

On top of these sit the 3D quasiconvexification on the unit cube and
the minimization over the transverse vector producing the optimal
Cosserat vector b0; ``cosserat_offset_grads`` differentiates a solved
Cosserat cell in Fbar and z, and ``CellSolution.converged`` is its verdict.

For convex W the periodic membrane forms are one fiber solve and one
energy evaluation (``_fiber_cell``).  Every other cell problem scans the
L-infimum on a log grid, polished by golden-section refinement, over
one energy context rescaled to each L; inner descents share the contract
of :mod:`filmcell.solvers` and chain free-dof vectors along the grid.
Convex Cosserat scans hand each L the previous vector scaled by L'/L,
which is exact (see ``_l_scan``); the clamped form, non-convex families
and warm starts given by the caller chain unscaled.  A minimum attained
strictly at a grid boundary raises the ``l-search-boundary`` warning in
the diagnostics.  For a quadratic W (p-norm with p = 2, anisotropic
quadratic, under any modulation) the fixed-L problem is a quadratic
form, and the inner descents of the cell forms and of the
quasiconvexification take Newton steps on its exact Hessian, whose
factorization at each L is cached for the process (see
``EnergyContext.newton``); other families, and the joint descent of
``minimize_over_z`` for non-convex W, use L-BFGS.

The transverse-average constraint is enforced by reparametrization, not
by multipliers: the solver variable is an unconstrained periodic field
to which a rank-one correction (an x3-linear ramp) is applied so the
top/bottom trace difference has zero in-plane mean.  Applying the same
projection to a warm-start field that still carries a ramp strips the
ramp exactly, so solutions chain across L values and mesh levels.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import astuple, dataclass, field as dc_field, replace

import numpy as np

from .integrand import MaterialPoint, StoredEnergyDensity
from .field import (
    CellMesh, DiscreteField, EnergyContext, LATERAL_ZERO, LATERAL_PERIODIC,
    FULLY_PERIODIC, pack, unpack, affine_values, area_mean_transverse_average,
    free_size, inject, refine_mesh,
)
# ``minimize_lbfgs`` is unused here; kept importable because ``perfbench/tracer.py`` patches it.
from .solvers import (SolveError, SolverConfig, converged, golden_section,  # noqa: F401
                      minimize_lbfgs, multistart_minimize)

__all__ = [
    "LSearchConfig", "InnerConfig", "CellProblemSpec", "CellSolution",
    "membrane_density", "membrane_density_periodic",
    "cosserat_density", "cosserat_offset_grads", "minimize_over_z",
    "quasiconvexify", "refinement_ladder",
]

L_FLAT_REL = 1e-9          # L-profile variation treated as flat


@dataclass(frozen=True)
class LSearchConfig:
    """Search window for the cell length L (log grid plus golden polish)."""

    l_min: float = 1e-2
    l_max: float = 1e2
    grid_count: int = 17
    golden_tol: float = 0.02      # bracket width on the log10 scale

    def __post_init__(self):
        if not (0.0 < self.l_min < self.l_max):
            raise ValueError("need 0 < l_min < l_max")
        if self.grid_count < 2:
            raise ValueError("need at least two L grid points")
        if not self.golden_tol > 0.0:
            raise ValueError("need golden_tol > 0")

    def grid(self):
        return np.logspace(math.log10(self.l_min), math.log10(self.l_max),
                           self.grid_count)


@dataclass(frozen=True)
class InnerConfig(SolverConfig):
    """The cell and film descents' ``SolverConfig``, plus their multistart."""

    multistart: int = 3
    perturb_scale: float = 0.1
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        for rule, ok in (("multistart >= 1", self.multistart >= 1),
                         ("perturb_scale >= 0", self.perturb_scale >= 0.0)):
            if not ok:
                raise ValueError(f"need {rule}")


@dataclass
class CellProblemSpec:
    """Everything a cell solve needs besides the integrand itself."""

    fbar: np.ndarray
    x0: MaterialPoint = MaterialPoint((0.5, 0.5), 0.0)
    z: np.ndarray | None = None
    mesh: CellMesh = CellMesh(4, 4, 4)
    l_search: LSearchConfig = LSearchConfig()
    inner: InnerConfig = InnerConfig()
    tol: float = 1e-8

    def __post_init__(self):
        self.fbar = np.asarray(self.fbar, dtype=float).reshape(3, 2)
        if self.z is not None:
            self.z = np.asarray(self.z, dtype=float).reshape(3)
        for name in ("fbar", "z"):
            value = getattr(self, name)
            if value is not None and not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite, got {value.tolist()}")

    def content(self, kind):
        return {
            "kind": kind,
            "fbar": [[float(v) for v in row] for row in self.fbar],
            "z": None if self.z is None else [float(v) for v in self.z],
            "x0": {"x_alpha": list(self.x0.x_alpha), "x3": self.x0.x3},
            "mesh": [self.mesh.n1, self.mesh.n2, self.mesh.n3,
                     list(self.mesh.origin), list(self.mesh.lengths),
                     "gauss2"],
            "l_search": list(astuple(self.l_search)),
            "inner": list(astuple(self.inner)),
            "tol": self.tol,
        }


@dataclass
class CellSolution:
    """Result of a cell solve: value, optimal L, minimizer, diagnostics."""

    value: float
    l_star: float | None
    field: DiscreteField
    diagnostics: dict = dc_field(default_factory=dict)
    keyed: tuple | None = dc_field(default=None, repr=False, compare=False)

    @functools.cached_property
    def spec_hash(self) -> str:
        """Hash of ``keyed``, the solve's (W, spec, kind), as it is at the first read."""
        return "" if self.keyed is None else _spec_hash(*self.keyed)

    @property
    def warnings(self):
        return self.diagnostics.get("warnings", [])

    @property
    def converged(self) -> bool:
        """``solvers.converged`` on the winning inner descent, if any."""
        return converged(self.diagnostics.get("inner", self.diagnostics).get("status"))

    def to_record(self):
        return {
            "value": self.value,
            "l_star": self.l_star,
            "spec_hash": self.spec_hash,
            "diagnostics": self.diagnostics,
        }


def _spec_hash(W: StoredEnergyDensity, spec: CellProblemSpec, kind: str) -> str:
    payload = {"integrand": W.to_config(), "spec": spec.content(kind)}
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Start construction
# ---------------------------------------------------------------------------

def _laminate_seed(W, mesh, gradient_scale):
    """Sawtooth field aligned with the rank-one axis of a two-well family.

    Returns nodal values whose scaled gradient oscillates by the well gap
    along the laminate normal, or None when the family has no rank-one
    connection or the normal is not mesh-aligned.
    """
    pair = getattr(W.family, "rank_one", None)
    if pair is None:
        return None
    a_vec, n_vec = pair
    axis = int(np.argmax(np.abs(n_vec)))
    if abs(abs(n_vec[axis]) - 1.0) > 1e-9:
        return None
    counts = mesh.counts
    if counts[axis] % 2 != 0:
        return None
    a_eff = a_vec * np.sign(n_vec[axis])
    h = mesh.spacings[axis]
    saw = h * (np.arange(counts[axis] + 1) % 2)
    if axis == 2:
        saw = saw / float(gradient_scale)
    shape = [1, 1, 1]
    shape[axis] = counts[axis] + 1
    vals = saw.reshape(shape)[..., None] * a_eff[None, None, None, :]
    return np.broadcast_to(vals, mesh.node_shape + (3,)).copy()


def _base_starts(W, mesh, spec, fbar, gradient_scale, warm=None):
    """Ordered (label, free-dof vector) pairs for the inner multistart.

    Convex families get the warm start when there is one, else the zero
    start; the discrete problem is then convex and any start reaches the
    minimum.  Nonconvex families get both, then a mesh-aligned laminate
    seed, the negated affine lift and seeded random perturbations.
    """
    starts = [] if warm is None else [("warm", warm)]
    if W.is_convex:
        return starts or [("zero", np.zeros(free_size(mesh)))]
    nodal = [("zero", np.zeros(mesh.node_shape + (3,)))]
    lam = _laminate_seed(W, mesh, gradient_scale)
    if lam is not None:
        nodal.append(("laminate", lam))
    nodal.append(("affine-lift", -affine_values(mesh, fbar)))
    rng = np.random.default_rng(np.random.SeedSequence([spec.inner.seed, 7]))
    scale = spec.inner.perturb_scale * (1.0 + float(np.linalg.norm(fbar)))
    for r in range(max(spec.inner.multistart - 3, 0)):
        nodal.append((f"perturb{r}", rng.normal(0.0, scale, mesh.node_shape + (3,))))
    return starts + [(label, pack(vals, mesh)) for label, vals in nodal]


# ---------------------------------------------------------------------------
# Inner solves at fixed L
# ---------------------------------------------------------------------------

def _solve_fixed(ctx, spec, warm=None):
    """Minimize the energy of ``ctx`` over its free dofs, from ``warm`` if given.

    A scan passes its one base context ``rescaled`` to each L, and chains
    the returned free-dof vector.  Returns (value, projected vector, diagnostics).
    """
    starts = _base_starts(ctx.W, ctx.mesh, spec, ctx.inplane_offset,
                          ctx.transverse_scale, warm)
    best, diag = multistart_minimize(ctx.value_and_grad, starts,
                                     spec.inner, newton=ctx.newton,
                                     value=ctx.value)
    return best.value, ctx.operator.project(best.x), diag


def _l_scan(solve_at, lcfg: LSearchConfig, warm0=None, rescale=None):
    """Scan the L grid, polish with golden section, report the profile.

    ``solve_at(L, warm)`` returns (value, x, diag), x the minimizer's
    free-dof vector, and is chained: each grid point warm-starts from its
    predecessor's x, and each golden-section point from the best x so
    far.  With ``rescale(x, ratio)`` that warm vector, found at L', is
    handed over as ``rescale(x, L' / L)``: ``_scan`` passes it for convex
    Cosserat cells without a caller's warm start.  There the minimizer
    depends on x3 only (its average over lateral translations keeps the
    constraint and, by Jensen, does not raise the energy), so its
    D_alpha vanishes and L D_3 of the scaled field is L' D_3 of the old
    one: the scaled field is the minimizer at L with equal energy, and
    the linear homogeneous constraint still holds.  A Newton scan thus
    factors once, and each later L passes its stopping test with one
    evaluation; an L-BFGS minimizer's gradient grows by L / L' per step
    (the test is not scale invariant) and is polished where it crosses
    the tolerance.  Flat profiles resolve to the grid point closest to
    L = 1; a strict minimum at a window edge is flagged
    ``l-search-boundary``.
    """
    def chained(L, vals, l_from):
        if rescale is None or l_from is None:
            return vals
        return rescale(vals, l_from / L)

    grid = lcfg.grid()
    profile = []
    results = []
    warm, l_warm = warm0, None
    for L in grid:
        v, vals, diag = solve_at(L, chained(L, warm, l_warm))
        profile.append((float(L), float(v)))
        results.append((v, L, vals, diag))
        warm, l_warm = vals, L
    values = np.array([r[0] for r in results])
    vmin = float(values.min())
    noise = L_FLAT_REL * (1.0 + abs(vmin))
    candidates = np.flatnonzero(values <= vmin + noise)
    i_star = int(min(candidates, key=lambda i: (abs(math.log10(grid[i])), i)))
    warnings = []
    if i_star == 0 and values[0] < values[1] - noise:
        warnings.append("l-search-boundary")
    if i_star == len(grid) - 1 and values[-1] < values[-2] - noise:
        warnings.append("l-search-boundary")
    best = list(results[i_star])
    flat = values.max() - values.min() <= noise
    n_golden = 0
    if not flat:
        lo = math.log10(grid[max(i_star - 1, 0)])
        hi = math.log10(grid[min(i_star + 1, len(grid) - 1)])

        def polish(logl):
            nonlocal n_golden
            n_golden += 1
            L = 10.0 ** logl
            v, vals, diag = solve_at(L, chained(L, best[2], best[1]))
            profile.append((float(L), float(v)))
            if v < best[0]:
                best[0], best[1], best[2], best[3] = v, L, vals, diag
            return v

        golden_section(polish, lo, hi, tol=lcfg.golden_tol)
    value, l_star, vals, diag = best
    scan_diag = {"l_profile": profile, "l_grid_points": len(grid),
                 "l_golden_evals": n_golden, "l_flat": bool(flat),
                 "warnings": warnings, "inner": diag}
    return float(value), float(l_star), vals, scan_diag


def _relaxed_value(W, spec, value, vals, mesh, z, l_star, diag):
    """Re-evaluate a nonconvex minimizer through the relaxed integrand.

    The descent ran with W itself, so ``value`` is an upper bound for the
    relaxed cell problem; integrating a(x) QW, the family's closed-form
    quasiconvex envelope, along the found field on the solve's
    quadrature can only tighten it.  Where QW is convex (compatible
    wells) the result stays at or above QW at the mean gradient, by
    Jensen.  Convex families pass through unchanged (their relaxed
    integrand is W).
    """
    diag["nonconvex_integrand"] = not W.is_convex
    if W.is_convex:
        return value
    ctx = EnergyContext(W, mesh, l_star, 0.5, "frozen", spec.x0, spec.fbar, z)
    e = ctx.modv * W.family.relaxed_energy(ctx.gradients(vals))
    relaxed = ctx.prefactor * float(e @ mesh.quad_weights().ravel())
    diag["raw_integrand_value"] = value
    diag["relaxed_value"] = relaxed
    return min(value, relaxed)


def _scan(W, spec, mode, z, warm_start):
    """L-scan in boundary ``mode``: (mesh, value, l_star, values, diag).

    One frozen context serves every L; the solves chain free-dof vectors,
    so a caller's warm field is packed once and only the winner unpacked.
    """
    mesh = replace(spec.mesh, boundary_mode=mode)
    base = EnergyContext(W, mesh, prefactor=0.5, x_mode="frozen", x0=spec.x0,
                         inplane_offset=spec.fbar, transverse_offset=z,
                         constrained=z is not None)
    warm0 = None if warm_start is None else pack(warm_start.values, mesh)

    def solve_at(L, warm):
        return _solve_fixed(base.rescaled(L), spec, warm)

    rescaled = W.is_convex and mode == LATERAL_PERIODIC and warm0 is None
    value, l_star, x, diag = _l_scan(solve_at, spec.l_search, warm0,
                                     np.multiply if rescaled else None)
    return mesh, value, l_star, unpack(x, mesh), diag


def _lifted_field(mesh, psi, z, l_star, diag):
    """Field psi + (x3 / L) z targeting z; records how far its mean scaled
    transverse average lies from z as ``constraint_residual``."""
    x3_nodes = mesh.node_coords()[2]
    phi = psi + x3_nodes[None, None, :, None] * (z / l_star)[None, None, None, :]
    field = DiscreteField(mesh, phi)
    diag["constraint_residual"] = float(np.linalg.norm(
        area_mean_transverse_average(field, l_star / 2.0) - z))
    return field


def _fiber_cell(W, spec):
    """Laterally periodic membrane cell of a convex W in closed form.

    The discrete minimizer depends on x3 only (``_l_scan``), so with z
    free each element's scaled transverse gradient sits at the fiber
    minimizer b0, and the infimum over L and fields is the affine state
    (Fbar | b0) at L = 1.  Returns (mesh, value, 1.0, psi = 0, b0, diag).
    """
    mesh = replace(spec.mesh, boundary_mode=LATERAL_PERIODIC)
    _, b0 = W.fiber_infimum(spec.x0, spec.fbar)
    diag = {"cell_reduction": "fiber", "warnings": [], "nonconvex_integrand": False,
            "b0": [float(v) for v in b0]}
    psi = np.zeros(mesh.node_shape + (3,))
    value = EnergyContext(W, mesh, 1.0, 0.5, "frozen", spec.x0, spec.fbar, b0).value(psi)
    return mesh, value, 1.0, psi, b0, diag


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def membrane_density(W: StoredEnergyDensity, spec: CellProblemSpec,
                     warm_start: DiscreteField | None = None) -> CellSolution:
    """Membrane energy density (lateral-zero form) at (x0, fbar).

    Minimizes (1/2) Int W(x0, x3; fbar + D_alpha phi | L D_3 phi) over
    perturbations vanishing on the lateral faces and over L in the search
    window.  Diagnostics record the L profile, the zero-field upper bound
    and per-start convergence.
    """
    mesh, value, l_star, vals, diag = _scan(W, spec, LATERAL_ZERO, None,
                                            warm_start)
    upper0 = EnergyContext(W, mesh, l_star, 0.5, "frozen", spec.x0,
                           spec.fbar, None).value(np.zeros(mesh.node_shape + (3,)))
    diag["upper_bound_zero_field"] = upper0
    if value > upper0 + spec.tol:
        raise SolveError("membrane value exceeds its zero-field upper bound",
                         best_value=value, diagnostics=diag)
    field = DiscreteField(mesh, vals)
    return CellSolution(float(value), l_star, field, diag, (W, spec, "membrane"))


def membrane_density_periodic(W: StoredEnergyDensity, spec: CellProblemSpec) -> CellSolution:
    """Membrane density in the laterally periodic relaxed form.

    For convex families the relaxed integrand equals W, and the value is
    the closed form of ``_fiber_cell``, with the field x3 b0.  For
    nonconvex families the perturbation is found with W (a valid upper
    bound) and the value is re-evaluated through the family's
    closed-form quasiconvex envelope (``relaxed_value`` next to
    ``raw_integrand_value`` in the diagnostics); the flag
    ``nonconvex_integrand`` marks such runs.
    """
    if W.is_convex:
        mesh, value, l_star, _, b0, diag = _fiber_cell(W, spec)
        vals = affine_values(mesh, np.zeros((3, 2)), b0)
    else:
        mesh, value, l_star, vals, diag = _scan(W, spec, LATERAL_PERIODIC, None, None)
        value = _relaxed_value(W, spec, value, vals, mesh, None, l_star, diag)
    return CellSolution(float(value), l_star, DiscreteField(mesh, vals), diag,
                        (W, spec, "membrane-periodic"))


def _check_split_bounds(W, spec, value, z, diag):
    """Record (and for p = 2 enforce) the additive growth sandwich."""
    g = W.growth
    upper = g.beta_upper * (g.split_power(spec.fbar, z) + 1.0)
    diag["split_upper_bound"] = upper
    if value < -spec.tol:
        raise SolveError("cell density came out negative", best_value=value,
                         diagnostics=diag)
    if value > upper + spec.tol:
        if g.p == 2.0:
            raise SolveError(
                f"cell density {value} violates the growth upper bound {upper}",
                best_value=value, diagnostics=diag)
        # The additive split of |F|^p is exact only at p = 2; for other
        # exponents the bound is advisory.
        diag.setdefault("warnings", []).append("split-upper-bound-loose-p")


def cosserat_density(W: StoredEnergyDensity, spec: CellProblemSpec,
                     warm_start: DiscreteField | None = None) -> CellSolution:
    """Cosserat-membrane density at (x0, fbar, z).

    Laterally periodic cell problem with the in-plane mean of the scaled
    transverse average pinned to z.  The constraint is absorbed into the
    parametrization phi = (x3 / L) z + psi with psi projected to zero
    trace-difference mean, so the inner problem stays unconstrained.  The
    returned field is phi including the affine lift; its constraint
    residual is checked at 1e-12.
    """
    if spec.z is None:
        raise ValueError("cosserat_density needs spec.z")
    z = spec.z
    mesh, value, l_star, vals, diag = _scan(W, spec, LATERAL_PERIODIC, z,
                                            warm_start)
    value = _relaxed_value(W, spec, value, vals, mesh, z, l_star, diag)
    _check_split_bounds(W, spec, value, z, diag)
    field = _lifted_field(mesh, vals, z, l_star, diag)
    if diag["constraint_residual"] > 1e-12 * (1.0 + float(np.linalg.norm(z))):
        raise SolveError("transverse-average constraint violated",
                         best_value=value, diagnostics=diag)
    return CellSolution(float(value), l_star, field, diag, (W, spec, "cosserat"))


def cosserat_offset_grads(W: StoredEnergyDensity, spec: CellProblemSpec,
                          sol: CellSolution):
    """(d/dFbar, d/dz) of the Cosserat density ``sol = cosserat_density(W, spec)``.

    Envelope rule: the offset gradients of the cell energy at the field
    with its lift (x3 / L) z stripped, one gradient evaluation.  For
    nonconvex W they belong to the raw minimizer, the value may not.
    """
    mesh, z, L = sol.field.mesh, spec.z, float(sol.l_star)
    x3 = mesh.node_coords()[2]
    psi = sol.field.values - x3[None, None, :, None] * (z / L)[None, None, None, :]
    ctx = EnergyContext(W, mesh, L, 0.5, "frozen", spec.x0, spec.fbar, z)
    _, _, dF, dz = ctx.value_and_grad(psi, offset_grads=True)
    return dF, dz


def _joint_scan(W, spec):
    """Joint (field, z) L-scan of a non-convex W, as ``_fiber_cell`` returns."""
    mesh = replace(spec.mesh, boundary_mode=LATERAL_PERIODIC)
    base = EnergyContext(W, mesh, prefactor=0.5, x_mode="frozen", x0=spec.x0,
                         inplane_offset=spec.fbar, constrained=True)
    nfree = base.operator.ndof

    z_starts = [("z0", np.zeros(3))]
    fiber_skipped = False
    try:
        _, z_fiber = W.fiber_infimum(spec.x0, spec.fbar)
        z_starts.append(("zf", z_fiber))
    except SolveError:
        fiber_skipped = True

    def solve_at(L, warm):
        ctx = base.rescaled(L)

        def fun(vec):
            ctx.transverse_offset = vec[nfree:]
            val, grad, _, dz = ctx.value_and_grad(vec[:nfree], offset_grads=True)
            return val, np.concatenate([grad, dz])

        def value(vec):
            ctx.transverse_offset = vec[nfree:]
            return ctx.value(vec[:nfree])

        starts = [] if warm is None else [("warm", warm)]
        for flabel, fvec in _base_starts(W, mesh, spec, spec.fbar, L):
            for zlabel, z0 in z_starts:
                starts.append((f"{flabel}/{zlabel}",
                               np.concatenate([fvec, z0])))
        best, diag = multistart_minimize(
            fun, starts, spec.inner, value=value,
            prefer=lambda r: float(np.linalg.norm(r.x[nfree:])))
        return best.value, best.x, diag

    value, l_star, joint, diag = _l_scan(solve_at, spec.l_search)
    if fiber_skipped:
        diag["warnings"].append("fiber-start-skipped")
    psi = unpack(base.operator.project(joint[:nfree]), mesh)
    b0 = joint[nfree:].copy()
    value = _relaxed_value(W, spec, value, psi, mesh, b0, l_star, diag)
    return mesh, value, l_star, psi, b0, diag


def minimize_over_z(W: StoredEnergyDensity, spec: CellProblemSpec):
    """Minimize the Cosserat density over the transverse vector z.

    For convex W this is the periodic membrane form of ``_fiber_cell``.
    Otherwise z enters the same smooth objective as the cell field, so
    both are descended jointly, which is equivalent to the nested
    minimization; ties in value resolve to the candidate of smallest
    |z|.  The growth sandwich confines any minimizer to a computable
    ball; a b0 outside it is flagged ``b0-outside-coercivity-radius``.

    Returns (CellSolution, b0).
    """
    cell = _fiber_cell if W.is_convex else _joint_scan
    mesh, value, l_star, psi, b0, diag = cell(W, spec)
    radius = diag["coercivity_radius"] = W.growth.coercivity_radius(spec.fbar)
    if float(np.linalg.norm(b0)) > radius + 1e-6:
        diag.setdefault("warnings", []).append("b0-outside-coercivity-radius")
    _check_split_bounds(W, spec, value, b0, diag)
    field = _lifted_field(mesh, psi, b0, l_star, diag)
    sol = CellSolution(float(value), l_star, field, diag, (W, spec, "minimize-over-z"))
    return sol, b0


def quasiconvexify(W: StoredEnergyDensity, F, spec: CellProblemSpec,
                   warm_start: DiscreteField | None = None) -> CellSolution:
    """Quasiconvexification of W(x0; .) at a full 3x3 gradient F.

    Unit-cube cell problem with periodic perturbations; the periodic and
    Dirichlet infima of a quasiconvexification coincide, and the periodic
    discrete space reaches fine laminates without boundary layers, so the
    value converges from above under refinement.  The heterogeneity is
    frozen at x0 entirely, including x3.
    """
    F = np.asarray(F, dtype=float).reshape(3, 3)
    mesh = replace(spec.mesh, boundary_mode=FULLY_PERIODIC,
                   origin=(0.0, 0.0), lengths=(1.0, 1.0))
    # The grid spans x3 in (-1, 1); mapping the unit cube onto it doubles
    # the transverse derivative and halves the measure, which the scale 2
    # together with the 1/2 energy prefactor implements.
    ctx = EnergyContext(W, mesh, 2.0, 0.5, "point", spec.x0, F[:, :2], F[:, 2])
    warm = None if warm_start is None else pack(warm_start.values, mesh)
    value, x, diag = _solve_fixed(ctx, spec, warm)
    w_at_f = W.evaluate(spec.x0, F)
    diag["pointwise_value"] = w_at_f
    if value > w_at_f + spec.tol:
        raise SolveError("quasiconvexification exceeds the pointwise value",
                         best_value=value, diagnostics=diag)
    field = DiscreteField(mesh, unpack(x, mesh))
    return CellSolution(float(value), None, field, diag, (W, spec, "quasiconvexify"))


def refinement_ladder(op, W: StoredEnergyDensity, spec: CellProblemSpec,
                      levels: int):
    """Solve a cell operation on dyadically nested meshes with warm starts.

    Injected coarse minimizers join the start list on every refined mesh,
    so the reported values are non-increasing up to solver tolerance.
    ``op`` is ``membrane_density`` or ``cosserat_density``, the two cell
    operations taking (W, spec, warm_start).  Returns the list of
    solutions, coarsest first.
    """
    out = [op(W, spec)]
    for _ in range(levels - 1):
        spec = replace(spec, mesh=refine_mesh(spec.mesh))
        out.append(op(W, spec, warm_start=inject(out[-1].field)))
    return out
