"""Structured-grid discretization of vector fields on the rescaled slab.

Meshes cover a rectangle times the fixed thickness interval (-1, 1) with
n1 x n2 x n3 trilinear hexahedral cells.  Both the through-thickness
unit cell Q' x (-1, 1) and thin-film cylinders omega x (-1, 1) use the
same machinery; only the in-plane rectangle differs.  The mid-surface
sheet omega of the thin-film limit (``SheetMesh``) is the in-plane case
of the same geometry; the slab only adds the thickness axis.

The central kinematic object is the scaled gradient

    G(u; s) = ( D_alpha u | s * D_3 u ),

a 3x3 matrix per quadrature point whose first two columns are in-plane
derivatives and whose third column is the transverse derivative times a
scale (1/eps for thin films, the cell length L for cell problems).

Boundary modes:
  * ``lateral-zero``      zero values on the four lateral faces,
  * ``lateral-periodic``  identification of opposite lateral faces,
  * ``fully-periodic``    identification in all three directions
                          (homogeneous unit-cube problems),
  * ``lateral-affine``    lateral faces pinned to a caller datum.

Top and bottom faces are always traction-free (no constraint).  A sheet
is ``lateral-affine`` under the in-plane part of the slab's dof rule, so
the film and its limit share one pinned parametrization.

Every evaluation goes through one linear map per mesh geometry and dof
rule: a sparse matrix B from the dof vector (free dofs of a boundary
mode, or raw nodal values) to unscaled gradients at the quadrature
points, with prescribed nodes dropped and periodic twins sharing a
column.  Gradients of the discrete energy are exact: B^T applied to the
weighted stress.  The same builder gives the 2D operators of the sheet.
"""

from __future__ import annotations

import copy
import functools
import operator
from collections import OrderedDict
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .integrand import MaterialPoint, StoredEnergyDensity

__all__ = [
    "LATERAL_ZERO", "LATERAL_PERIODIC", "LATERAL_AFFINE", "FULLY_PERIODIC",
    "PINNED", "PERIODIC", "OPEN",
    "CellMesh", "SheetMesh", "DiscreteField", "KinematicOperator",
    "grid_operator", "kinematic_operator", "value_operator",
    "affine_values", "pinned_values", "trapezoid_weights", "EnergyContext",
    "transverse_average", "refine_mesh", "inject",
    "pack", "unpack", "free_size",
]

LATERAL_ZERO = "lateral-zero"
LATERAL_PERIODIC = "lateral-periodic"
LATERAL_AFFINE = "lateral-affine"
FULLY_PERIODIC = "fully-periodic"

_MODES = (LATERAL_ZERO, LATERAL_PERIODIC, LATERAL_AFFINE, FULLY_PERIODIC)

# Per-axis dof rules of a structured grid with n cells along the axis:
# PINNED nodes 1..n-1 carry unknowns (both end nodes are prescribed),
# PERIODIC node i maps onto i mod n, OPEN nodes 0..n all carry unknowns.
PINNED = "pinned"
PERIODIC = "periodic"
OPEN = "open"

_MODE_AXES = {
    LATERAL_ZERO: (PINNED, PINNED, OPEN),
    LATERAL_AFFINE: (PINNED, PINNED, OPEN),
    LATERAL_PERIODIC: (PERIODIC, PERIODIC, OPEN),
    FULLY_PERIODIC: (PERIODIC, PERIODIC, PERIODIC),
}


@functools.lru_cache(maxsize=None)
def _tensor_rule(dim: int):
    """Two-point Gauss rule per axis and multilinear shape functions on [0, 1]^dim.

    Returns (xi, wq, corners, shape, dshape): points (nq, dim) with the
    first axis slowest, weights (nq,), corner bits (2^dim, dim) with the
    first axis highest, shape values (nq, 2^dim) and reference
    derivatives (nq, 2^dim, dim).  Shared between callers: read-only.
    """
    off = 1.0 / (2.0 * np.sqrt(3.0))
    t, w = np.array([0.5 - off, 0.5 + off]), np.array([0.5, 0.5])
    idx = np.indices((t.size,) * dim).reshape(dim, -1).T
    xi = t[idx]
    wq = np.prod(w[idx], axis=1)
    corners = (np.arange(2 ** dim)[:, None] >> np.arange(dim - 1, -1, -1)) & 1
    lin = np.where(corners[None], xi[:, None, :], 1.0 - xi[:, None, :])
    slope = np.where(corners, 1.0, -1.0)
    shape = lin.prod(axis=2)
    dshape = np.stack([slope[None, :, a] * np.delete(lin, a, axis=2).prod(axis=2)
                       for a in range(dim)], axis=2)
    out = (xi, wq, corners, shape, dshape)
    for arr in out:
        arr.setflags(write=False)
    return out


@functools.lru_cache(maxsize=32)
def _quad_coords(counts, origin, spacings):
    """Per-axis coordinates of every quadrature point, each counts + (nq,).

    Cached per geometry (tuple arguments) and shared between callers:
    read-only.
    """
    xi = _tensor_rule(len(counts))[0]
    out = tuple(o + (c[..., None] + xi[:, a]) * h for a, (o, h, c) in
                enumerate(zip(origin, spacings, np.indices(counts))))
    for arr in out:
        arr.setflags(write=False)
    return out


@functools.lru_cache(maxsize=32)
def _quad_weights(counts, spacings):
    """Physical weight of every quadrature point, counts + (nq,); read-only."""
    w = _tensor_rule(len(counts))[1] * float(np.prod(spacings))
    out = np.broadcast_to(w, counts + (w.size,)).copy()
    out.setflags(write=False)
    return out


def _axis_dofs(n: int, rule: str):
    """Dof index of each of the n+1 nodes along one axis (-1: none), and the count."""
    nodes = np.arange(n + 1)
    if rule == PINNED:
        return np.where((nodes > 0) & (nodes < n), nodes - 1, -1), max(n - 1, 0)
    if rule == PERIODIC:
        return nodes % n, n
    return nodes, n + 1


@functools.lru_cache(maxsize=32)
def _node_layout(counts: tuple, axes: tuple):
    """Dof of every grid node in C order (-1: none), and each dof's first node.

    Dofs are numbered in C order over the dof-carrying nodes, so the
    first node of a dof is its representative in ``pack`` order.
    """
    nodes = np.indices(tuple(n + 1 for n in counts)).reshape(len(counts), -1)
    dof = np.zeros(nodes.shape[1], dtype=np.int64)
    for n, rule, idx in zip(counts, axes, nodes):
        amap, size = _axis_dofs(n, rule)
        dof = np.where((dof >= 0) & (amap[idx] >= 0), dof * size + amap[idx], -1)
    valid = np.flatnonzero(dof >= 0)
    first = valid[np.unique(dof[valid], return_index=True)[1]]
    dof.setflags(write=False)
    first.setflags(write=False)
    return dof, first


def grid_operator(counts, spacings, axes, derivative=True):
    """Sparse map from the dofs of a structured grid to its quadrature points.

    ``counts`` cells per axis (2 or 3 axes), ``axes`` one dof rule per
    axis (``PINNED``, ``PERIODIC`` or ``OPEN``).  Columns are dof * 3 +
    component, the ``pack`` order of the matching boundary mode.  Rows
    run over cells (C order), quadrature points and components, and with
    ``derivative`` also over the directions, so a product reshapes to
    (..., 3, dim) gradients or (..., 3) values.  Prescribed nodes
    contribute nothing; periodic twins share a column.
    """
    dim = len(counts)
    _, _, corners, shape, dshape = _tensor_rule(dim)
    nq, nc = shape.shape
    coef = dshape / np.asarray(spacings) if derivative else shape[:, :, None]
    ndir = coef.shape[2]
    dof, first = _node_layout(tuple(counts), tuple(axes))
    cells = np.indices(counts).reshape(dim, -1)
    corner_nodes = cells[:, :, None] + corners.T[:, None, :]
    cdof = dof[np.ravel_multi_index(corner_nodes, tuple(n + 1 for n in counts))]
    ncell = cells.shape[1]
    cell, q, _, d, a = np.ogrid[:ncell, :nq, :1, :3, :ndir]
    full = (ncell, nq, nc, 3, ndir)
    rows = np.broadcast_to(((cell * nq + q) * 3 + d) * ndir + a, full)
    cols = np.broadcast_to(cdof[:, None, :, None, None] * 3 + d, full)
    vals = np.broadcast_to(coef[None, :, :, None, :], full)
    keep = cols >= 0
    B = sp.csr_matrix((vals[keep], (rows[keep], cols[keep])),
                      shape=(ncell * nq * 3 * ndir, 3 * first.size))
    B.sum_duplicates()
    return B


class KinematicOperator:
    """Sparse map B from a dof vector to unscaled quadrature-point gradients.

    A constrained operator first applies the transverse-average
    projector x -> x - R (T x): T is the in-plane mean of the top/bottom
    trace difference per component over the n1 x n2 periodic cells, R
    the ramp 0.5 x3 per component, and T R = I in the laterally
    periodic mode.  It has rank three and stays in dof space: folded
    into B it would fill n1 n2 columns of every transverse row.

    ``border`` holds the rows that make B^T D B (D positive definite per
    quadrature point) nonsingular as a bordered system: T when
    constrained, and the three translation modes (per-component dof
    means) when no axis is pinned; None when no row is needed.
    """

    def __init__(self, B, ramp=None, trace=None, border=None):
        self.B = B
        self.Bt = B.T.tocsr()
        self.ramp = ramp
        self.trace = trace
        self.border = border
        self.ndof = B.shape[1]

    def project(self, x):
        if self.ramp is None:
            return x
        return x - self.ramp @ (self.trace @ x)

    def apply(self, x):
        return self.B @ self.project(x)

    def adjoint(self, s):
        g = self.Bt @ s
        if self.ramp is not None:
            g -= self.trace.T @ (self.ramp.T @ g)
        return g


@functools.lru_cache(maxsize=32)
def _cached_operator(counts, spacings, axes, constrained, derivative=True):
    B = grid_operator(counts, spacings, axes, derivative)
    nnode = B.shape[1] // 3
    eye = np.eye(3)
    rows = []
    if PINNED not in axes:
        rows.append(sp.kron(np.full((1, nnode), 1.0 / nnode), eye))
    if not constrained:
        return KinematicOperator(B, border=sp.vstack(rows, "csr") if rows else None)
    n1, n2, n3 = counts
    dof, first = _node_layout(counts, axes)
    tw = np.zeros((n1 + 1, n2 + 1, n3 + 1))
    tw[:n1, :n2, n3] = 1.0 / (n1 * n2)
    tw[:n1, :n2, 0] = -1.0 / (n1 * n2)
    valid = dof >= 0
    t = np.bincount(dof[valid], weights=tw.ravel()[valid], minlength=first.size)
    r = 0.5 * (-1.0 + (2.0 / n3) * (first % (n3 + 1)))
    trace = np.kron(t[None, :], eye)
    rows.append(sp.csr_matrix(trace))
    return KinematicOperator(B, np.kron(r[:, None], eye), trace,
                             sp.vstack(rows, "csr"))


def kinematic_operator(mesh, axes=None, constrained=False) -> KinematicOperator:
    """Cached gradient operator of a mesh geometry under a dof rule.

    ``mesh`` is a ``CellMesh`` or a ``SheetMesh``; ``axes`` defaults to the
    rule of the mesh's boundary mode, ``(OPEN,) * dim`` gives raw nodal
    values.  ``constrained`` adds the transverse-average projector (3D).
    A small bounded cache keeps one operator per (cell counts, spacings,
    axes, constraint), so solves on one geometry share it: every L of a
    scan, every start, every thickness row.
    """
    if axes is None:
        axes = _dof_axes(mesh)
    return _cached_operator(mesh.counts, mesh.spacings, tuple(axes),
                            bool(constrained))


def value_operator(mesh) -> KinematicOperator:
    """Cached map from raw nodal values to quadrature-point values.

    Rows run over cells, quadrature points and components; shares the
    bounded cache of ``kinematic_operator``.
    """
    return _cached_operator(mesh.counts, mesh.spacings,
                            (OPEN,) * len(mesh.counts), False, False)


@functools.lru_cache(maxsize=8)
def _bordered_stiffness(op, weights, moduli):
    """Bordered Hessian [[K0 + s K1 + s^2 K2, C^T], [C, 0]] of a quadratic energy.

    Each Kk = B^T blockdiag(c_q M_k) B with c_q the per-point weights
    (bytes) and M_k the entries of the moduli (bytes, 9x9) pairing
    in-plane with in-plane (k = 0), in-plane with transverse (k = 1) and
    transverse with transverse (k = 2) columns of vec(F); C is the
    operator's ``border`` (absent when None).  Returns (indptr, indices,
    (d0, d1, d2)): one CSC pattern and the data of the three parts on
    it, the border in d0, so the matrix at scale s has data
    d0 + s d1 + s^2 d2.  One entry per (operator, weights, moduli): the
    scales of an L-scan share it.
    """
    c = sp.diags(np.frombuffer(weights))
    M = np.frombuffer(moduli).reshape(9, 9)
    t = (np.arange(9) % 3 == 2).astype(float)
    m = 1.0 - t
    parts = [op.Bt @ (sp.kron(c, mask * M, format="csr") @ op.B) for mask in
             (np.outer(m, m), np.outer(m, t) + np.outer(t, m), np.outer(t, t))]
    if op.border is not None:
        C = op.border
        parts[0] = sp.bmat([[parts[0], C.T], [C, None]], format="csr")
        for K in parts[1:]:
            K.resize(parts[0].shape)
    pattern = sum(abs(K) for K in parts).tocsc()
    pattern.sort_indices()
    cols = np.repeat(np.arange(pattern.shape[1]), np.diff(pattern.indptr))
    data = tuple(np.asarray(K[pattern.indices, cols]).ravel() for K in parts)
    return pattern.indptr, pattern.indices, data


# Total factor nonzeros (L plus U) the process keeps.  A bordered factor
# holds about 600 nonzeros on a 2x2x2 cell, 16,000 on 4x4x4 and 277,000
# (about 3.3 MB) on 8x8x8, so this holds every 2x2x2 and 4x4x4 L-scan and
# one 8x8x8 factor.
FACTOR_NNZ_BUDGET = 500_000


class _FactorCache:
    """Bordered factorizations shared by every context of the process.

    Keyed by (operator, weights bytes, moduli bytes, scale) like
    ``_bordered_stiffness``, so the nodes of a table build share the
    factors of their common L grid, and repeated cell ops and film
    solves reuse theirs.  Least
    recently used entries go first once the stored factor nonzeros would
    exceed ``FACTOR_NNZ_BUDGET``; a factor larger than the whole budget
    is used once and not stored.
    """

    def __init__(self, budget):
        self.budget = budget
        self.nnz = 0
        self._entries = OrderedDict()

    def clear(self):
        self._entries.clear()
        self.nnz = 0

    def get(self, op, weights, moduli, s):
        key = (op, weights, moduli, s)
        lu = self._entries.get(key)
        if lu is not None:
            self._entries.move_to_end(key)
            return lu
        indptr, indices, (d0, d1, d2) = _bordered_stiffness(op, weights, moduli)
        n = indptr.size - 1
        lu = splu(sp.csc_matrix((d0 + s * d1 + (s * s) * d2, indices, indptr),
                                shape=(n, n)))
        if lu.nnz <= self.budget:
            while self.nnz + lu.nnz > self.budget:
                self.nnz -= self._entries.popitem(last=False)[1].nnz
            self._entries[key] = lu
            self.nnz += lu.nnz
        return lu


_FACTORS = _FactorCache(FACTOR_NNZ_BUDGET)


class _Grid:
    """Geometry of a rectangle ``origin`` + (0, ``lengths``) in n1 x n2 cells.

    A slab adds the thickness axis (-1, 1).  ``counts``, ``spacings``,
    ``node_shape`` and the lower ``corner`` are computed once per mesh.
    """

    def __post_init__(self, layers=()):
        """Validate and set the geometry; ``layers`` holds a slab's n3."""
        try:
            origin, lengths = tuple(map(float, self.origin)), tuple(map(float, self.lengths))
        except TypeError:
            origin = lengths = ()
        if len(origin) != 2 or len(lengths) != 2:
            raise ValueError("origin and lengths must be pairs of numbers: "
                             f"{self.origin!r}, {self.lengths!r}")
        if min(self.n1, self.n2) < 1:
            raise ValueError("need n1, n2 >= 1")
        if min(lengths) <= 0:
            raise ValueError("in-plane lengths must be positive")
        counts = (self.n1, self.n2) + layers
        # Frozen: the normalized fields and derived geometry go straight
        # into the instance dict.
        self.__dict__.update(
            origin=origin, lengths=lengths, counts=counts,
            corner=(origin + (-1.0,))[:len(counts)],
            spacings=tuple(map(operator.truediv, lengths + (2.0,), counts)),
            node_shape=tuple(n + 1 for n in counts))

    @property
    def area(self):
        """Area of the in-plane rectangle."""
        return self.lengths[0] * self.lengths[1]

    def node_coords(self):
        """Node coordinates per axis, each a 1-D array (broadcast to combine)."""
        return tuple(o + h * np.arange(n + 1)
                     for o, h, n in zip(self.corner, self.spacings, self.counts))

    def quad_coords(self):
        """Coordinates of all quadrature points, each of shape counts + (nq,)."""
        return _quad_coords(self.counts, self.corner, self.spacings)

    def quad_weights(self):
        """Physical weight of every quadrature point; sums to the box volume."""
        return _quad_weights(self.counts, self.spacings)


@dataclass(frozen=True)
class CellMesh(_Grid):
    """Structured mesh of a rectangle times (-1, 1).

    n1, n2, n3 count cells per direction (n3 >= 2 so the mid-plane is a
    mesh face); ``origin``/``lengths`` fix the in-plane rectangle.  The
    default rectangle is the unit cell Q' = (0, 1)^2.
    """

    n1: int
    n2: int
    n3: int
    origin: tuple = (0.0, 0.0)
    lengths: tuple = (1.0, 1.0)
    boundary_mode: str = LATERAL_ZERO

    def __post_init__(self):
        if self.n3 < 2:
            raise ValueError("need n3 >= 2")
        if self.boundary_mode not in _MODES:
            raise ValueError(f"unknown boundary mode {self.boundary_mode!r}")
        super().__post_init__((self.n3,))

    def sheet(self) -> SheetMesh:
        """The mid-surface sheet: the same rectangle and in-plane cells."""
        return SheetMesh(self.n1, self.n2, self.origin, self.lengths)


@dataclass(frozen=True)
class SheetMesh(_Grid):
    """Bilinear mesh of the mid-surface rectangle omega, pinned on its boundary."""

    boundary_mode = LATERAL_AFFINE

    n1: int
    n2: int
    origin: tuple = (0.0, 0.0)
    lengths: tuple = (1.0, 1.0)


@dataclass
class DiscreteField:
    """Nodal 3-vector field on a CellMesh."""

    mesh: CellMesh
    values: np.ndarray

    def __post_init__(self):
        expected = self.mesh.node_shape + (3,)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != expected:
            raise ValueError(f"values shape {self.values.shape} != {expected}")


def affine_values(mesh, fbar, z=None):
    """Nodal values of x -> fbar . x_alpha (+ x3 * z on a slab) on either mesh."""
    fbar = np.asarray(fbar, dtype=float).reshape(3, 2)
    x = mesh.node_coords()
    plane = fbar[:, 0] * x[0][:, None, None] + fbar[:, 1] * x[1][None, :, None]
    vals = np.broadcast_to(np.expand_dims(plane, tuple(range(2, len(x)))),
                           mesh.node_shape + (3,)).copy()
    if z is not None:
        vals += x[2][:, None] * np.asarray(z, dtype=float).reshape(3)
    return vals


# ---------------------------------------------------------------------------
# Gradients and integrals
# ---------------------------------------------------------------------------

class EnergyContext:
    """Precomputed data for repeated energy/gradient evaluation.

    Evaluations take the solver's free-dof vector (1-D, ``pack`` order)
    or raw nodal values (full nodal shape) and return the gradient in
    the same form, both through a cached ``KinematicOperator``.  For
    free dofs, ``constrained`` applies the transverse-average projector
    and ``datum`` supplies the pinned ``lateral-affine`` boundary values.

    Freezing the in-plane heterogeneity coordinate (``x_mode='frozen'``)
    evaluates the modulation at ``x0.x_alpha`` for every quadrature point
    while keeping the true x3; ``x_mode='full'`` uses the physical
    in-plane coordinates.  Constant offsets are added to the gradient
    before evaluating W: ``inplane_offset`` (3x2) to the membrane block,
    ``transverse_offset`` (3,) to the scaled transverse column, so cell
    problems keep their perturbation fields literally zero-valued on the
    constrained boundary.

    ``newton`` is None unless W is quadratic (``W.moduli`` set); then it
    is a callable taking a gradient g over the free dofs to the d with
    H d = g and C d = 0, for H the exact Hessian of the energy in the
    free dofs and C the operator's ``border`` rows.  Its first call
    takes the factorization of the bordered system [[H, C^T], [C, 0]]
    from a process-wide cache keyed by (operator, weights, moduli,
    scale), bounded by ``FACTOR_NNZ_BUDGET`` stored factor nonzeros; a
    miss assembles H from cached stiffness parts and factors it.  A
    start that is already converged never calls it.
    """

    def __init__(self, W: StoredEnergyDensity, mesh: CellMesh,
                 transverse_scale=1.0, prefactor=1.0, x_mode="full",
                 x0: MaterialPoint | None = None,
                 inplane_offset=None, transverse_offset=None,
                 constrained=False, datum=None):
        if x_mode not in ("full", "frozen", "point"):
            raise ValueError("x_mode must be 'full', 'frozen' or 'point'")
        if x_mode in ("frozen", "point") and x0 is None:
            raise ValueError("frozen and point modes need a material point x0")
        self.W = W
        self.mesh = mesh
        self.transverse_scale = float(transverse_scale)
        self.prefactor = float(prefactor)
        self.operator = kinematic_operator(mesh, constrained=constrained)
        self._wq = mesh.quad_weights().ravel()
        self._stress_weights = self.prefactor * self._wq
        self._column_scale = np.array([1.0, 1.0, self.transverse_scale])
        q1, q2, q3 = mesh.quad_coords()
        if x_mode == "point":
            # Both coordinates frozen: the heterogeneity is sampled once.
            xa = np.asarray(x0.x_alpha, dtype=float)
            const = float(W.modulation.value(xa, np.asarray(x0.x3)))
            self.modv = np.full(q3.size, const)
        else:
            if x_mode == "frozen":
                xa = np.empty(q3.shape + (2,))
                xa[..., 0] = x0.x_alpha[0]
                xa[..., 1] = x0.x_alpha[1]
            else:
                xa = np.stack([q1, q2], axis=-1)
            self.modv = np.asarray(W.modulation.value(xa, q3), dtype=float).ravel()
        self.inplane_offset = (None if inplane_offset is None
                               else np.asarray(inplane_offset, dtype=float).reshape(3, 2))
        self.transverse_offset = (None if transverse_offset is None
                                  else np.asarray(transverse_offset, dtype=float).reshape(3))
        self._datum_grad = None
        if datum is not None:
            self._datum_grad = self._nodal_operator.B @ pinned_values(mesh, datum).ravel()

    @functools.cached_property
    def _nodal_operator(self):
        return kinematic_operator(self.mesh, (OPEN, OPEN, OPEN))

    @functools.cached_property
    def newton(self):
        moduli = self.W.moduli
        if moduli is None:
            return None
        # The closure holds no reference to self: a context stays free of
        # cycles and is released with its last user.  The factorization it
        # fetches on first use belongs to the process-wide cache.
        op, s = self.operator, self.transverse_scale
        wq, modv, prefactor = self._wq, self.modv, self.prefactor
        lu = None

        def solve(g):
            nonlocal lu
            if lu is None:
                lu = _FACTORS.get(op, (prefactor * wq * modv).tobytes(),
                                  moduli.tobytes(), s)
            rhs = np.zeros(lu.shape[0])
            rhs[:g.size] = g
            return lu.solve(rhs)[:g.size]
        return solve

    def rescaled(self, transverse_scale) -> EnergyContext:
        """This context at another transverse scale, sharing every other array."""
        ctx = copy.copy(self)
        ctx.__dict__.pop("newton", None)
        ctx.transverse_scale = float(transverse_scale)
        ctx._column_scale = np.array([1.0, 1.0, ctx.transverse_scale])
        return ctx

    def _gradients(self, values):
        """Operator used and G at every quadrature point for an argument."""
        x = np.asarray(values, dtype=float)
        if x.ndim == 1:
            op = self.operator
            G = op.apply(x)
            if self._datum_grad is not None:
                G += self._datum_grad
        else:
            op = self._nodal_operator
            G = op.apply(x.ravel())
        G = G.reshape(-1, 3, 3)
        G *= self._column_scale
        if self.inplane_offset is not None or self.transverse_offset is not None:
            offset = np.zeros((3, 3))
            if self.inplane_offset is not None:
                offset[:, :2] = self.inplane_offset
            if self.transverse_offset is not None:
                offset[:, 2] = self.transverse_offset
            G += offset
        return op, G

    def gradients(self, values):
        """Scaled gradients plus offsets at every quadrature point, (nqp, 3, 3).

        Quadrature points run in C order over (cell i, j, k, point q).
        """
        return self._gradients(values)[1]

    def value(self, values) -> float:
        """Energy at the argument, bitwise ``value_and_grad(values)[0]``.

        It skips the stress and the adjoint.  The line searches in
        ``solvers`` rely on the equal bits, which hold because
        ``energy_array`` and ``energy_stress_array`` compute the energy
        by the same operations before the same quadrature sum.
        """
        e = self.W.energy_array(self.modv, self.gradients(values))
        return self.prefactor * float(e @ self._wq)

    def value_and_grad(self, values, offset_grads=False):
        """Energy and its exact gradient w.r.t. the argument's dofs.

        With ``offset_grads=True`` additionally returns the
        derivatives of the energy w.r.t. the constant in-plane offset (3x2
        array) and the constant transverse offset (3-vector); these drive
        outer descents over the offsets (joint transverse-vector
        minimization, density sources for the limit functional).
        """
        op, G = self._gradients(values)
        e, S = self.W.energy_stress_array(self.modv, G)
        val = self.prefactor * float(e @ self._wq)
        S *= self._stress_weights[:, None, None]
        if offset_grads:
            total = S.sum(axis=0)
        S *= self._column_scale
        grad = op.adjoint(S.ravel()).reshape(np.shape(values))
        if offset_grads:
            return val, grad, total[:, :2].copy(), total[:, 2].copy()
        return val, grad


# ---------------------------------------------------------------------------
# Boundary modes: packing and unpacking free dofs
# ---------------------------------------------------------------------------

def _dof_axes(mesh):
    """Per-axis dof rule of the mesh's boundary mode (in-plane part on a sheet)."""
    return _MODE_AXES[mesh.boundary_mode][:len(mesh.counts)]


def _layout(mesh):
    return _node_layout(mesh.counts, _dof_axes(mesh))


def free_size(mesh) -> int:
    return 3 * _layout(mesh)[1].size


def pack(values, mesh):
    """Extract the free degrees of freedom as a flat vector."""
    return np.asarray(values).reshape(-1, 3)[_layout(mesh)[1]].ravel()


def unpack(vec, mesh, datum=None):
    """Rebuild full nodal values from a free-dof vector.

    ``datum`` supplies the pinned boundary values in ``lateral-affine``
    mode (full nodal array); other modes ignore it.
    """
    if mesh.boundary_mode == LATERAL_AFFINE:
        if datum is None:
            raise ValueError("lateral-affine mode needs a boundary datum")
        values = np.array(datum, dtype=float, order="C")
    else:
        values = np.zeros(mesh.node_shape + (3,))
    dof = _layout(mesh)[0]
    free = dof >= 0
    values.reshape(-1, 3)[free] = np.asarray(vec).reshape(-1, 3)[dof[free]]
    return values


def pinned_values(mesh, datum):
    """Nodal values equal to ``datum`` on pinned nodes and zero on free ones."""
    return unpack(np.zeros(free_size(mesh)), mesh, datum)


# ---------------------------------------------------------------------------
# Transverse average and refinement
# ---------------------------------------------------------------------------

def transverse_average(field: DiscreteField, scale: float):
    """Nodal field scale * Int_{-1}^{1} D_3 u dx3 / ... per lateral position.

    The trapezoidal x3-average of D_3 u telescopes exactly, so the result
    equals ``scale * (u(., 1) - u(., -1))`` nodewise; with
    ``scale = 1/(2 eps)`` this is the Cosserat vector of a thin-film
    state.  Shape (n1+1, n2+1, 3).
    """
    u = field.values
    return float(scale) * (u[:, :, -1, :] - u[:, :, 0, :])


def trapezoid_weights(node_shape):
    """Trapezoid-rule weights of a grid with unit spacing: 1/2 at both ends of each axis."""
    w = np.ones(node_shape)
    for axis in range(len(node_shape)):
        w[(slice(None),) * axis + ([0, -1],)] *= 0.5
    return w


def area_mean_transverse_average(field: DiscreteField, scale: float):
    """In-plane area mean of ``transverse_average`` (trapezoid weights)."""
    ta = transverse_average(field, scale)
    w = trapezoid_weights(ta.shape[:2])
    return np.einsum("ij,ijd->d", w, ta) / w.sum()


def refine_mesh(mesh: CellMesh) -> CellMesh:
    """Dyadic refinement: every cell splits into 8."""
    return replace(mesh, n1=2 * mesh.n1, n2=2 * mesh.n2, n3=2 * mesh.n3)


def inject(field: DiscreteField) -> DiscreteField:
    """Embed a field into the dyadically refined mesh.

    New nodes take the trilinear interpolant values, so the injected
    field represents the same function and every energy integral that
    the quadrature evaluates exactly is preserved to roundoff.
    """
    u = field.values
    for axis in range(3):
        n_old = u.shape[axis]
        shape = list(u.shape)
        shape[axis] = 2 * n_old - 1
        out = np.zeros(shape)
        sl_even = [slice(None)] * u.ndim
        sl_even[axis] = slice(0, None, 2)
        out[tuple(sl_even)] = u
        sl_odd = [slice(None)] * u.ndim
        sl_odd[axis] = slice(1, None, 2)
        sl_lo = [slice(None)] * u.ndim
        sl_lo[axis] = slice(0, n_old - 1)
        sl_hi = [slice(None)] * u.ndim
        sl_hi[axis] = slice(1, n_old)
        out[tuple(sl_odd)] = 0.5 * (u[tuple(sl_lo)] + u[tuple(sl_hi)])
        u = out
    return DiscreteField(refine_mesh(field.mesh), u)
