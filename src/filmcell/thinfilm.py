"""Scaled thin-film energies and the thickness-convergence harness.

The rescaled film occupies the fixed cylinder Omega = omega x (-1, 1);
the thickness eps survives only inside the scaled energy

    E_eps(u) = Int_Omega W(x; D_alpha u | (1/eps) D_3 u) dx
             - Int_Omega f . u - Int_Sigma (g + g0 / eps) . u,

with Sigma = omega x {-1, 1} and the order-1 surface load satisfying
g0(+) + g0(-) = 0, so its contribution rewrites as a bending-moment term
2 Int_omega g0(+) . bbar_eps with the scaled transverse average
bbar_eps = (u(+) - u(-)) / (2 eps).

The candidate limit is the membrane functional

    J(v, bbar) = 2 Int_omega Q(x_alpha; D_alpha v | bbar) dx_alpha
               - Int_omega (2 fbar + g(+) + g(-)) . v
               - 2 Int_omega g0(+) . bbar,

where Q is the transverse-vector effective density from the cell module
(or, for programmatic callers, a precomputed table) and fbar is the
transverse average of f.  The convergence study minimizes E_eps for a
decreasing thickness list under a lateral affine clamp, minimizes J over
(v, bbar) with v pinned to the same affine datum on the boundary, and
reports relative gaps.

The sheet omega is the in-plane case of the film's slab mesh; both
meshes, the affine datum and the pinned parametrization live in
``field``, so the film and its limit share one clamp.

What does not depend on eps is assembled once per film mesh into an
explicit ``_FilmAssembly``: the clamp datum with its pinned values and
affine start, the body-force work, the face loads at the quadrature
points, and an energy context holding the modulation values and the
datum gradient.  A study builds one after its limit solve and hands it
to every thickness; ``minimize_thin_film`` and ``scaled_energy`` build
one per call.  Each thickness adds its face loads g + g0/eps, derives
the context at transverse scale 1/eps and runs its descent.

Density values reach the 2D assembly through a small source interface
(value plus derivatives w.r.t. the membrane block and the transverse
vector); a cell-solver source takes both from ``cell`` and counts the
cell solves that did not converge, which a study's verdict reads.  Cost
model of the limit descent: one evaluation of J at a new descent vector
makes one density lookup per sheet quadrature point, and a cell-solver
source runs a cell solve only for a (position, rounded argument) key it
has not seen; a vector the descent has already evaluated, as a stalled
descent's repeated trial points are, costs one cache lookup (an LRU
cache of 64 vectors on the objective).  A cell solve is one L-scan over
one energy context rescaled to each L, chaining free-dof vectors.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass, field as dc_field, replace
from functools import lru_cache

import numpy as np

from .integrand import MaterialPoint, StoredEnergyDensity, modulation_from_config
from .field import (
    CellMesh, DiscreteField, EnergyContext, LATERAL_AFFINE, OPEN, SheetMesh,
    affine_values, kinematic_operator, pack, pinned_values, trapezoid_weights,
    transverse_average, unpack, value_operator,
)
from .solvers import SolverConfig, converged, minimize_lbfgs, multistart_minimize
from .cell import CellProblemSpec, cosserat_density, cosserat_offset_grads

__all__ = [
    "SheetMesh", "LoadSystem", "ThinFilmProblem", "ConvergenceReport",
    "CellDensitySource", "TableDensitySource",
    "scaled_energy", "minimize_thin_film", "minimize_limit", "convergence_study",
]

# ---------------------------------------------------------------------------
# Loads
# ---------------------------------------------------------------------------

def _eval_vec(spec_fn, *coords):
    """Evaluate a load entry (None, constant 3-vector, or callable)."""
    shape = np.broadcast(*[np.asarray(c) for c in coords]).shape
    if spec_fn is None:
        return np.zeros(shape + (3,))
    if callable(spec_fn):
        out = np.asarray(spec_fn(*coords), dtype=float)
        return np.broadcast_to(out, shape + (3,)).copy()
    vec = np.asarray(spec_fn, dtype=float).reshape(3)
    return np.broadcast_to(vec, shape + (3,)).copy()


@dataclass
class LoadSystem:
    """Volume and surface loads of the scaled film problem.

    f acts on the volume and may depend on (x1, x2, x3); g and g0 are
    (top, bottom) pairs acting on the faces x3 = +1 and x3 = -1 and may
    depend on (x1, x2).  Entries are None, constant 3-vectors, or
    callables returning 3-vectors.  The order-1 pair must satisfy
    g0(+) + g0(-) = 0 pointwise; assembly checks this to 1e-12.
    """

    f: object = None
    g: tuple = (None, None)
    g0: tuple = (None, None)

    def f_at(self, x1, x2, x3):
        return _eval_vec(self.f, x1, x2, x3)

    def g_at(self, side, x1, x2):
        return _eval_vec(self.g[0] if side > 0 else self.g[1], x1, x2)

    def g0_at(self, side, x1, x2):
        return _eval_vec(self.g0[0] if side > 0 else self.g0[1], x1, x2)

    def check_compatibility(self, sheet: SheetMesh):
        q1, q2 = sheet.quad_coords()
        mism = np.abs(self.g0_at(+1, q1, q2) + self.g0_at(-1, q1, q2)).max()
        if mism > 1e-12:
            raise ValueError(
                f"order-1 surface loads must cancel: max|g0(+) + g0(-)| = {mism}")


@dataclass
class ThinFilmProblem:
    """Clamped film on omega x (-1, 1) with loads and a thickness list;
    ``cell_template.inner`` also budgets the film descents."""

    W: StoredEnergyDensity
    omega: SheetMesh
    fbar_bc: np.ndarray
    loads: LoadSystem = dc_field(default_factory=LoadSystem)
    epsilons: tuple = (1.0, 0.5, 0.25, 0.125)
    n3: int = 8
    limit_inner: SolverConfig = dc_field(
        default_factory=lambda: SolverConfig(grad_tol=1e-10))
    cell_template: CellProblemSpec = dc_field(
        default_factory=lambda: CellProblemSpec(fbar=np.zeros((3, 2))))

    def __post_init__(self):
        self.fbar_bc = np.asarray(self.fbar_bc, dtype=float).reshape(3, 2)
        eps = tuple(float(e) for e in self.epsilons)
        if not eps:
            raise ValueError("need at least one thickness")
        if any(not (0.0 < e <= 1.0) for e in eps):
            raise ValueError("thicknesses must lie in (0, 1]")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("thicknesses must be strictly decreasing")
        self.epsilons = eps
        self.film_mesh()                # rejects n3 < 2 before any solve
        self.loads.check_compatibility(self.omega)

    def film_mesh(self) -> CellMesh:
        return CellMesh(*self.omega.counts, self.n3, self.omega.origin,
                        self.omega.lengths, boundary_mode=LATERAL_AFFINE)

    def template_spec(self) -> CellProblemSpec:
        return self.cell_template


def _nodal_work(mesh, density):
    """Nodal vector l with l . u = sum of density . u over the quadrature points.

    ``density`` is already weighted, shape mesh.counts + (nq, 3).
    """
    return (value_operator(mesh).Bt @ density.ravel()).reshape(mesh.node_shape + (3,))


class _FilmAssembly:
    """The data of a film problem on one mesh that every thickness shares."""

    def __init__(self, problem: ThinFilmProblem, mesh: CellMesh):
        self.mesh = mesh
        self.datum = affine_values(mesh, problem.fbar_bc)
        self.pinned = pinned_values(mesh, self.datum)
        self.start = pack(self.datum, mesh)
        self.start.setflags(write=False)
        self.context = EnergyContext(problem.W, mesh, x_mode="full", datum=self.datum)
        loads = problem.loads
        self.body_work = np.zeros(mesh.node_shape + (3,))
        if loads.f is not None:
            fq = loads.f_at(*mesh.quad_coords())
            self.body_work += _nodal_work(mesh, fq * mesh.quad_weights()[..., None])
        self.sheet = mesh.sheet()
        loads.check_compatibility(self.sheet)
        q1, q2 = self.sheet.quad_coords()
        self.faces = [(klayer, loads.g_at(side, q1, q2), loads.g0_at(side, q1, q2))
                      for side, klayer in ((+1, -1), (-1, 0))]

    def load_vector(self, eps):
        """Nodal vector l with total load work l . u at thickness eps."""
        ell = self.body_work.copy()
        w2 = self.sheet.quad_weights()[..., None]
        for klayer, g, g0 in self.faces:
            surf = g + g0 / eps
            if np.any(surf):
                ell[:, :, klayer, :] += _nodal_work(self.sheet, surf * w2)
        return ell


def scaled_energy(problem: ThinFilmProblem, eps: float, u: DiscreteField) -> float:
    """Scaled film energy E_eps(u) including all load terms.

    The bulk term integrates W at the scaled gradient (D_alpha u | D_3
    u / eps) with the heterogeneity read at the rescaled coordinates;
    surface loads act on the top and bottom faces, the order-1 pair
    entering as the bending-moment term via the transverse jump.
    """
    if u.mesh.boundary_mode != LATERAL_AFFINE:
        raise ValueError("thin-film fields use the lateral-affine boundary mode")
    film = _FilmAssembly(problem, u.mesh)
    tol = 1e-9 * (1.0 + float(np.abs(film.datum).max()))
    mism = float(np.abs(unpack(pack(u.values, u.mesh), u.mesh, film.datum) - u.values).max())
    if mism > tol:
        raise ValueError(f"lateral boundary deviates from the affine datum by {mism}")
    ell = film.load_vector(eps)
    return film.context.rescaled(1.0 / eps).value(u.values) - float(np.sum(ell * u.values))


def minimize_thin_film(problem: ThinFilmProblem, eps: float):
    """Minimize the scaled film energy at one thickness.

    Descends from the affine clamp datum (plus seeded perturbations for
    nonconvex integrands).  Returns (energy, field, bbar, info) where
    bbar is the nodal scaled transverse average (u(+) - u(-)) / (2 eps)
    and info is the multistart summary of the winning descent.
    """
    if not any(abs(eps - e) <= 1e-15 for e in problem.epsilons):
        raise ValueError(f"thickness eps={eps} is not in the problem's thickness list")
    return _solve_film(problem, _FilmAssembly(problem, problem.film_mesh()), eps)


def _solve_film(problem, film, eps):
    """``minimize_thin_film`` on an assembly the caller already holds."""
    ctx = film.context.rescaled(1.0 / eps)
    ell = film.load_vector(eps)
    ell_free, ell_pinned = pack(ell, film.mesh), float(np.sum(ell * film.pinned))

    def fun(vec):
        val, grad = ctx.value_and_grad(vec)
        return val - float(ell_free @ vec) - ell_pinned, grad - ell_free

    def value(vec):
        return ctx.value(vec) - float(ell_free @ vec) - ell_pinned

    base = film.start
    inner = problem.cell_template.inner
    starts = [("affine", base)]
    if not problem.W.is_convex:
        rng = np.random.default_rng(np.random.SeedSequence([inner.seed, 11]))
        scale = inner.perturb_scale * (1.0 + float(np.linalg.norm(problem.fbar_bc)))
        for r in range(max(inner.multistart - 1, 0)):
            starts.append((f"perturb{r}", base + rng.normal(0.0, scale, base.shape)))
    best, info = multistart_minimize(fun, starts, inner, newton=ctx.newton, value=value)
    field = DiscreteField(film.mesh, unpack(best.x, film.mesh, film.datum))
    bbar = transverse_average(field, 1.0 / (2.0 * eps))
    return best.value, field, bbar, info


# ---------------------------------------------------------------------------
# Density sources for the limit functional
# ---------------------------------------------------------------------------

_POINT = struct.Struct("9d")      # rounded (fbar, z): 48 + 24 bytes


def _rounded_values(fbar, z):
    """fbar then z as nine Python floats rounded to 12 decimals, -0.0 made +0.0.

    ``round(v * 1e12) / 1e12`` repeats the multiply, rint and divide of
    ``np.round(v, 12)`` bit for bit: ``round`` breaks ties to even like
    rint, and its integer converts back to the same float.  A value that
    rounds to zero comes back from the integer 0, hence as +0.0.
    """
    values = (fbar.ravel().tolist() if isinstance(fbar, np.ndarray)
              else np.ravel(fbar).tolist())
    values += z.ravel().tolist() if isinstance(z, np.ndarray) else np.ravel(z).tolist()
    if len(values) != 9:
        raise ValueError(f"need a 3x2 fbar and a 3-vector z, got {len(values)} values")
    try:
        return [round(v * 1e12) / 1e12 for v in values]
    except (ValueError, OverflowError):
        raise ValueError("density arguments must be finite and below 1e296 in "
                         f"magnitude, got fbar={fbar!r}, z={z!r}") from None


class CellDensitySource:
    """Transverse-vector effective density evaluated by nested cell solves.

    ``evaluate`` returns (value, d/dFbar, d/dz) from ``cosserat_density``
    and ``cosserat_offset_grads``.  Arguments are rounded to 12 decimals
    and solved at the rounded point, so the cached value and gradients
    stay mutually consistent while float jitter across quadrature points
    of a spatially uniform limit field collapses to one cell solve per
    evaluation.  Heterogeneous integrands key the cache by x_alpha unless
    ``W.modulation.in_plane_constant`` holds.  A cache hit builds no
    array: the key is packed from the rounded Python floats.  ``lookups``,
    ``solves`` and ``not_converged`` count calls, cell solves and cell
    solves whose winning descent did not converge.  For nonconvex
    integrands limit descents over such sources are heuristic.
    """

    def __init__(self, W: StoredEnergyDensity, template: CellProblemSpec | None = None):
        self.W = W
        self.template = template or CellProblemSpec(fbar=np.zeros((3, 2)))
        self.x_const = W.modulation.in_plane_constant
        self.cache: dict = {}
        self._trail: dict = {}
        self.lookups = self.solves = self.not_converged = 0

    def _spec_for(self, x_key, fbar, z, x0):
        """Continuation: warm field and a narrowed L window per point."""
        prev = self._trail.get(x_key)
        if prev is None or max(np.abs(fbar - prev["fbar"]).max(),
                               np.abs(z - prev["z"]).max()) > 1.0:
            return replace(self.template, fbar=fbar, z=z, x0=x0), None
        ls = self.template.l_search
        narrowed = replace(ls, l_min=max(ls.l_min, prev["l_star"] / 4.0),
                           l_max=min(ls.l_max, prev["l_star"] * 4.0),
                           grid_count=5)
        return (replace(self.template, fbar=fbar, z=z, x0=x0, l_search=narrowed),
                prev["field"])

    def evaluate(self, x_alpha, fbar, z):
        self.lookups += 1
        # Rounding always, not just for the key: the solve happens at the
        # rounded point, so value and gradients belong together.
        values = _rounded_values(fbar, z)
        point = _POINT.pack(*values)
        x_key = (0.0, 0.0) if self.x_const else (float(x_alpha[0]), float(x_alpha[1]))
        key = (x_key, point[:48], point[48:])
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        self.solves += 1
        point = np.array(values)
        fbar, z = point[:6].reshape(3, 2), point[6:]
        spec, warm = self._spec_for(x_key, fbar, z, MaterialPoint(x_alpha))
        sol = cosserat_density(self.W, spec, warm_start=warm)
        self.not_converged += not sol.converged
        self._trail[x_key] = {"fbar": fbar, "z": z, "l_star": sol.l_star,
                              "field": sol.field}
        out = (float(sol.value),) + cosserat_offset_grads(self.W, spec, sol)
        self.cache[key] = out
        return out


class TableDensitySource:
    """Density values and gradients interpolated from a stored table.

    The table must be of the transverse-vector kind (z axes present).
    A table built at a single material point stands in for the whole
    sheet, which is only sound when the integrand's heterogeneity is
    constant in x_alpha; that is checked against the table's stored
    integrand configuration, and queries then substitute the stored
    point.  Multi-point tables are queried at the literal in-plane
    coordinate and must therefore have been sampled at the 2D
    quadrature points of the sheet in use.
    """

    def __init__(self, table):
        from .tabulate import interpolate_with_gradient
        self._interp = interpolate_with_gradient
        if table.grid.z_axes is None:
            raise ValueError("the limit functional needs a table with z axes")
        self.x_sub = None
        if len(table.grid.x_points) == 1:
            mod = table.provenance.get("integrand", {}).get("modulation", {})
            if not modulation_from_config(mod).in_plane_constant:
                raise ValueError(
                    "a single-point table cannot represent a heterogeneity "
                    "that varies in x_alpha")
            self.x_sub = table.grid.x_points[0]
        self.table = table

    def evaluate(self, x_alpha, fbar, z):
        values = _rounded_values(fbar, z)
        return self._interp(self.table, self.x_sub or x_alpha, values[:6], values[6:])


def _limit_load_vectors(loads: LoadSystem, sheet: SheetMesh):
    """Load vectors of the limit functional: nodal for v, per cell for bbar."""
    q1, q2 = sheet.quad_coords()
    w2 = sheet.quad_weights()
    t, wt = np.polynomial.legendre.leggauss(8)
    fbar_q = 0.5 * sum(w * loads.f_at(q1, q2, np.full_like(q1, x3))
                       for x3, w in zip(t, wt))
    dens_v = 2.0 * fbar_q + loads.g_at(+1, q1, q2) + loads.g_at(-1, q1, q2)
    dens_b = 2.0 * loads.g0_at(+1, q1, q2)
    ell_v = _nodal_work(sheet, dens_v * w2[..., None])
    ell_b = np.einsum("ijqd,ijq->ijd", dens_b, w2)
    return ell_v, ell_b


def _limit_density_terms(source, sheet, F, b_values):
    """2 Int Q(x; F | bbar) by quadrature, and its derivatives.

    ``F`` holds the membrane gradients at every quadrature point, shape
    (n1 * n2 * nq, 3, 2) in C order over (cell i, j, point q); the source
    is called once per point in that order.  Returns the total, the
    weighted derivatives w.r.t. F (same shape) and w.r.t. the per-cell
    bbar, shape (n1, n2, 3).
    """
    q1, q2 = sheet.quad_coords()
    w = 2.0 * sheet.quad_weights().ravel()
    nq = w.size // (sheet.n1 * sheet.n2)
    b = np.repeat(np.asarray(b_values).reshape(-1, 3), nq, axis=0)
    vals = np.empty(w.size)
    dF = np.empty(F.shape)
    dz = np.empty(b.shape)
    for p, (x1, x2) in enumerate(zip(q1.ravel(), q2.ravel())):
        vals[p], dF[p], dz[p] = source.evaluate((x1, x2), F[p], b[p])
    total = float(vals @ w)
    dF *= w[:, None, None]
    dB = (dz * w[:, None]).reshape(sheet.n1, sheet.n2, nq, 3).sum(axis=2)
    return total, dF, dB


# Distinct points the limit objective remembers: at least one descent
# iteration's trial points (solvers.MAX_BACKTRACKS + 1).
_LIMIT_MEMO_SIZE = 64


def _memoized(fun):
    """``fun(vec) -> (value, grad)`` behind an LRU cache of recent vectors.

    Keys are the exact bytes of ``vec``; cached gradients are read-only.
    A descent whose steps leave x unchanged retries the same trial
    points every iteration, and those repeats then cost a cache lookup.
    Only a deterministic ``fun`` may be wrapped: a repeat must return
    what a fresh evaluation would.
    """
    @lru_cache(maxsize=_LIMIT_MEMO_SIZE)
    def cached(key):
        out = fun(np.frombuffer(key))
        out[1].setflags(write=False)
        return out

    def wrapped(vec):
        return cached(vec.tobytes())

    wrapped.cache_info = cached.cache_info
    wrapped.__wrapped__ = fun
    return wrapped


def _limit_objective(source, sheet: SheetMesh, loads: LoadSystem, fbar_bc):
    """Objective of the limit descent over (interior v, per-cell bbar).

    Returns (fun, x0, split): ``fun(vec) -> (J, dJ/dvec)``, memoized per
    vector (``_memoized``), the start (affine datum, zero bbar), and
    ``split(vec) -> (v nodal, bbar)``.  Memoizing is exact: a repeated
    vector finds every density key in the source's cache or table, so a
    fresh evaluation would return the same bits.
    """
    datum = affine_values(sheet, fbar_bc)
    ell_v, ell_b = _limit_load_vectors(loads, sheet)
    op = kinematic_operator(sheet)
    nv = op.ndof
    pinned = pinned_values(sheet, datum)
    datum_grad = kinematic_operator(sheet, (OPEN, OPEN)).apply(pinned.ravel())
    ell_free, ell_pinned = pack(ell_v, sheet), float(np.sum(ell_v * pinned))
    cells = (sheet.n1, sheet.n2, 3)

    def split(vec):
        return unpack(vec[:nv], sheet, datum), vec[nv:].reshape(cells)

    def fun(vec):
        xv, b = vec[:nv], vec[nv:].reshape(cells)
        F = (op.apply(xv) + datum_grad).reshape(-1, 3, 2)
        total, dF, dB = _limit_density_terms(source, sheet, F, b)
        val = (total - float(ell_free @ xv) - ell_pinned
               - float(np.sum(ell_b * b)))
        return val, np.concatenate([op.adjoint(dF.ravel()) - ell_free,
                                    (dB - ell_b).ravel()])

    x0 = np.concatenate([pack(datum, sheet), np.zeros(ell_b.size)])
    return _memoized(fun), x0, split


def minimize_limit(source, sheet: SheetMesh, loads: LoadSystem, fbar_bc,
                   config: SolverConfig | None = None):
    """Minimize the limit functional over (v, bbar).

    v is pinned to the affine datum fbar_bc . x_alpha on the boundary of
    omega; the per-cell bbar is unconstrained.  Returns (energy, v nodal,
    bbar per cell, info).
    """
    fbar_bc = np.asarray(fbar_bc, dtype=float).reshape(3, 2)
    loads.check_compatibility(sheet)
    fun, x0, split = _limit_objective(source, sheet, loads, fbar_bc)
    res = minimize_lbfgs(fun, x0, config or SolverConfig(grad_tol=1e-10))
    v, b = split(res.x)
    info = {"iterations": res.iterations, "grad_norm": res.grad_norm,
            "status": res.status}
    return res.value, v, b, info


# ---------------------------------------------------------------------------
# Convergence study
# ---------------------------------------------------------------------------

@dataclass
class ConvergenceReport:
    """Per-thickness energies against the limit functional minimum."""

    rows: list
    limit_energy: float
    limit_info: dict
    bbar_limit: np.ndarray | None = None

    @property
    def gaps(self):
        return [r.get("gap") for r in self.rows]

    @property
    def ok(self):
        """False when a row holds an error or the study did not converge."""
        return self.converged and all("error" not in r for r in self.rows)

    @property
    def converged(self):
        """False when the limit, a film solve or a cell solve of the limit's
        source did not converge (``solvers.converged``)."""
        return (not self.limit_info.get("cell_not_converged")
                and all(converged(info.get("status"))
                        for info in [self.limit_info] + self.rows))

    def to_record(self):
        return {
            "limit_energy": self.limit_energy,
            "limit_info": self.limit_info,
            "rows": self.rows,
        }

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("epsilon,energy,gap,iterations,seconds\n")
            for r in self.rows:
                if "error" in r:
                    fh.write(f"{r['epsilon']!r},error,,,\n")
                    continue
                fh.write(f"{r['epsilon']!r},{r['energy']!r},{r['gap']!r},"
                         f"{r['iterations']},{r['seconds']!r}\n")


def _study_row(problem, film, eps, limit_energy):
    t0 = time.perf_counter()
    value, field, bbar, info = _solve_film(problem, film, eps)
    seconds = time.perf_counter() - t0
    gap = (value - limit_energy) / (abs(limit_energy) or 1.0)
    sheet = field.mesh.sheet()
    w_node = trapezoid_weights(sheet.node_shape)
    h1, h2 = sheet.spacings
    bbar_norm = float(np.sqrt(np.sum(w_node[..., None] * bbar ** 2) * h1 * h2))
    return {"epsilon": eps, "energy": value, "gap": gap,
            "iterations": info["iterations"], "evals": info["evals"],
            "seconds": seconds,
            "bbar_norm": bbar_norm, "status": info["status"]}


def convergence_study(problem: ThinFilmProblem, source=None) -> ConvergenceReport:
    """Minimize the film at every thickness and compare with the limit.

    The limit energy is the minimum of the limit functional over (v,
    bbar) on the problem's sheet, with the density coming from nested
    cell solves unless a prebuilt ``source`` is given.  Rows follow the
    input thickness order; a failing thickness yields an error marker
    row instead of aborting the study, and a failing film assembly one
    in every row.
    """
    sheet = problem.omega
    if source is None:
        source = CellDensitySource(problem.W, problem.template_spec())
    t0 = time.perf_counter()
    limit_energy, _, bbar_limit, limit_info = minimize_limit(
        source, sheet, problem.loads, problem.fbar_bc, problem.limit_inner)
    limit_info = dict(limit_info, seconds=time.perf_counter() - t0)
    if isinstance(source, CellDensitySource):
        limit_info.update(cell_lookups=source.lookups, cell_solves=source.solves,
                          cell_not_converged=source.not_converged)

    try:
        film = _FilmAssembly(problem, problem.film_mesh())
    except Exception as exc:   # noqa: BLE001 - every row reports it
        film = exc

    def run(eps):
        try:
            if isinstance(film, Exception):
                raise film
            return _study_row(problem, film, eps, limit_energy)
        except Exception as exc:   # noqa: BLE001 - partial reports by contract
            return {"epsilon": eps, "error": f"{type(exc).__name__}: {exc}"}

    rows = [run(eps) for eps in problem.epsilons]
    return ConvergenceReport(rows, limit_energy, limit_info, bbar_limit)
