"""Grid sampling of effective densities with persistent, queryable tables.

A table stores one effective-density value per node of a product grid
over (x_alpha, Fbar[, z]): a list of in-plane sample points times six
axes for the membrane matrix entries times optionally three axes for the
transverse vector.  Each axis is either frozen to a single value or an
evenly spaced range, so full 6-axis grids and cheap 2-parameter slices
use the same machinery.  Values come from one cell solve per node
(zero-boundary membrane form or the transverse-vector cosserat form).

Builds are deterministic given the integrand and the cell template:
nodes are solved one after another in flat index order with no
cross-node warm starts, so a resumed partial build reproduces a fresh
build bit for bit.  Every solved node is checked against the additive
growth sandwich

    beta_lower (|Fbar|^p + |z|^p)  <=  value  <=  beta_upper (|Fbar|^p + |z|^p + 1),

a failing, unconverged (``CellSolution.converged``) or out-of-sandwich
node is marked invalid and the build carries on.  The additive split
matches the joint-argument one exactly at p = 2 (the default families);
for other exponents it is enforced as stated here.

Queries interpolate multilinearly over the active axes, are exact at
nodes, and refuse to extrapolate: outside the bounding box raises
instead of clamping, since p-growth makes extrapolation error explode
silently.  A query walks a plan cached per grid in plain float
arithmetic: one bounds check per axis, then one flat read of values and
mask per corner of its cell (2^a corners for a active axes).  The
on-disk format is a versioned text header (kind, grid, provenance,
validity mask, value checksum) terminated by an ``end-header`` sentinel
and followed by the values as a flat little-endian float64 block in
row-major axis order.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field as dc_field, replace
from functools import lru_cache
from itertools import product

import numpy as np

from .integrand import MaterialPoint, StoredEnergyDensity
from .cell import CellProblemSpec, cosserat_density, membrane_density
from .solvers import SolveError

__all__ = [
    "SampleGrid", "DensityTable", "TableParseError", "ExtrapolationError",
    "build_table", "query", "interpolate_with_gradient",
    "save_table", "load_table", "export_csv", "check_z_convexity",
]

FORMAT_VERSION = 1
SOLVER_VERSION = 4

# Mask codes: not yet computed / usable / solve, convergence or sandwich failed.
PENDING, VALID, INVALID = 0, 1, 2

_MATCH_TOL = 1e-9


class TableParseError(ValueError):
    """A table file that cannot be trusted: wrong magic, truncation, bad hash."""


class ExtrapolationError(ValueError):
    """Query outside the table's bounding box (clamping is refused)."""


def _norm_axis(spec):
    if len(spec) == 2 and spec[0] == "frozen":
        return ("frozen", float(spec[1]))
    if len(spec) == 4 and spec[0] == "range":
        lo, hi, count = float(spec[1]), float(spec[2]), spec[3]
        if not isinstance(count, numbers.Integral) or isinstance(count, bool):
            raise ValueError(f"axis count must be an integer, got {count!r}")
        if count < 2:
            raise ValueError("active axes need at least two samples")
        if not lo < hi:
            raise ValueError("axis range needs lo < hi")
        return ("range", lo, hi, int(count))
    raise ValueError(f"unknown axis spec {list(spec)}: give [frozen, v] "
                     "or [range, lo, hi, count]")


@dataclass(frozen=True)
class SampleGrid:
    """Product sampling grid over (x_alpha, Fbar[, z]).

    ``f_axes`` has six entries in row-major matrix-entry order (d, a) ->
    axis 2 d + a; ``z_axes`` is None for membrane tables or three entries
    for cosserat tables.  Each entry is ("frozen", value) or
    ("range", lo, hi, count).
    """

    x_points: tuple
    f_axes: tuple
    z_axes: tuple | None = None

    def __post_init__(self):
        if any(len(p) != 2 for p in self.x_points):
            raise ValueError(f"each x point needs two coordinates, got {self.x_points}")
        pts = tuple((float(p[0]), float(p[1])) for p in self.x_points)
        if not pts:
            raise ValueError("need at least one in-plane sample point")
        object.__setattr__(self, "x_points", pts)
        if len(self.f_axes) != 6:
            raise ValueError("f_axes needs exactly six entries")
        object.__setattr__(self, "f_axes",
                           tuple(_norm_axis(a) for a in self.f_axes))
        if self.z_axes is not None:
            if len(self.z_axes) != 3:
                raise ValueError("z_axes needs exactly three entries")
            object.__setattr__(self, "z_axes",
                               tuple(_norm_axis(a) for a in self.z_axes))

    @property
    def axes(self):
        return self.f_axes + (self.z_axes or ())

    @staticmethod
    def axis_values(spec):
        if spec[0] == "frozen":
            return np.array([spec[1]])
        return np.linspace(spec[1], spec[2], spec[3])

    @property
    def shape(self):
        return (len(self.x_points),) + tuple(
            1 if a[0] == "frozen" else a[3] for a in self.axes)

    @property
    def node_count(self):
        return int(np.prod(self.shape))

    def node_args(self, flat_index):
        """(x_alpha, fbar, z) of one node by flat row-major index."""
        idx = np.unravel_index(flat_index, self.shape)
        x_alpha = self.x_points[idx[0]]
        vals = [self.axis_values(a)[i] for a, i in zip(self.axes, idx[1:])]
        fbar = np.array(vals[:6]).reshape(3, 2)
        z = np.array(vals[6:]) if self.z_axes is not None else None
        return x_alpha, fbar, z

    def to_config(self):
        return {
            "x_points": [list(p) for p in self.x_points],
            "f_axes": [list(a) for a in self.f_axes],
            "z_axes": (None if self.z_axes is None
                       else [list(a) for a in self.z_axes]),
        }

    @classmethod
    def from_config(cls, cfg):
        return cls(tuple(tuple(p) for p in cfg["x_points"]),
                   tuple(tuple(a) for a in cfg["f_axes"]),
                   None if cfg.get("z_axes") is None
                   else tuple(tuple(a) for a in cfg["z_axes"]))


@dataclass
class DensityTable:
    """Sampled effective density plus provenance and a validity mask."""

    grid: SampleGrid
    kind: str
    values: np.ndarray
    mask: np.ndarray
    provenance: dict = dc_field(default_factory=dict)

    @property
    def pending(self):
        return int(np.count_nonzero(self.mask == PENDING))

    @property
    def invalid(self):
        return int(np.count_nonzero(self.mask == INVALID))

    def summary(self):
        return {"kind": self.kind, "nodes": self.grid.node_count,
                "pending": self.pending, "invalid": self.invalid,
                "integrand_hash": self.provenance.get("integrand_hash")}


def _template_config(template: CellProblemSpec):
    cfg = template.content("template")
    for key in ("kind", "fbar", "z", "x0"):
        cfg.pop(key, None)
    return cfg


def _solve_node(W, grid, kind, template, flat_index):
    x_alpha, fbar, z = grid.node_args(flat_index)
    spec = replace(template, fbar=fbar, z=z,
                   x0=MaterialPoint(x_alpha, 0.0))
    try:
        if kind == "membrane":
            sol = membrane_density(W, spec)
        else:
            sol = cosserat_density(W, spec)
        value = sol.value
    except SolveError:
        return np.nan, INVALID
    lower, upper = W.growth.sandwich(fbar, z, template.tol)
    if not (sol.converged and lower <= value <= upper):
        return value, INVALID
    return value, VALID


def _check_kind(kind, grid: SampleGrid, error):
    """Raise ``error`` unless ``kind`` is known and matches the grid's z axes."""
    if kind not in ("membrane", "cosserat"):
        raise error(f"table kind must be 'membrane' or 'cosserat', got {kind!r}")
    if kind == "cosserat" and grid.z_axes is None:
        raise error("cosserat tables need z axes")
    if kind == "membrane" and grid.z_axes is not None:
        raise error("membrane tables take no z axes")


def build_table(W: StoredEnergyDensity, grid: SampleGrid, kind: str = "cosserat",
                template: CellProblemSpec | None = None,
                resume: DensityTable | None = None,
                node_limit: int | None = None) -> DensityTable:
    """Solve one cell problem per grid node and collect the results.

    ``resume`` continues a partially built table: the grid, kind,
    integrand hash and cell template must match exactly, already-solved
    nodes are kept, and the completed table is bit-for-bit what a fresh
    build produces.  ``node_limit`` (>= 0) stops after that many newly
    computed nodes (leaving the rest pending), which is how partial tables
    arise deliberately; interrupted builds are the accidental source.
    """
    if node_limit is not None and node_limit < 0:
        raise ValueError(f"node_limit must be non-negative, got {node_limit}")
    _check_kind(kind, grid, ValueError)
    template = template or CellProblemSpec(fbar=np.zeros((3, 2)))
    provenance = {
        "integrand": W.to_config(),
        "integrand_hash": W.content_hash(),
        "kind": kind,
        "cell": _template_config(template),
        "solver_version": SOLVER_VERSION,
    }
    if resume is not None:
        for key, want, got in (
                ("grid", grid.to_config(), resume.grid.to_config()),
                ("kind", kind, resume.kind),
                ("provenance", provenance, resume.provenance)):
            if want != got:
                raise ValueError(f"resume table does not match the build ({key})")
        values = resume.values.copy().ravel()
        mask = resume.mask.copy().ravel()
    else:
        values = np.full(grid.node_count, np.nan)
        mask = np.full(grid.node_count, PENDING, dtype=np.uint8)

    todo = [i for i in range(grid.node_count) if mask[i] == PENDING]
    if node_limit is not None:
        todo = todo[:node_limit]

    for i in todo:
        values[i], mask[i] = _solve_node(W, grid, kind, template, i)
    return DensityTable(grid, kind, values.reshape(grid.shape),
                        mask.reshape(grid.shape), provenance)


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------

def _match_x(grid: SampleGrid, x_alpha):
    for i, (p1, p2) in enumerate(grid.x_points):
        if abs(x_alpha[0] - p1) <= _MATCH_TOL and abs(x_alpha[1] - p2) <= _MATCH_TOL:
            return i
    raise ValueError(
        f"x_alpha {tuple(float(v) for v in x_alpha)} is not a stored sample "
        f"point; the table holds {list(grid.x_points)}")


@lru_cache(maxsize=32)
def _query_plan(grid: SampleGrid):
    """Per-grid query constants; never values or mask, which builds change.

    Returns (x_stride, axes, corners, derivs): per axis (value,) if frozen
    or (lo, hi, h, count, tol, flat stride); the 2^a corners of one cell
    of the a active axes in itertools.product order, as (flat offset, side
    bits); per active axis (axis, (-1/h, 1/h), other active positions).
    """
    shape = grid.shape
    strides = [int(np.prod(shape[k + 1:])) for k in range(len(shape))]
    axes, active = [], []
    for k, (spec, stride) in enumerate(zip(grid.axes, strides[1:])):
        if spec[0] == "frozen":
            axes.append((spec[1],))
            continue
        lo, hi, count = spec[1], spec[2], spec[3]
        h = (hi - lo) / (count - 1)
        axes.append((lo, hi, h, count, _MATCH_TOL * (1.0 + abs(hi - lo)), stride))
        active.append((k, (-1.0 / h, 1.0 / h), stride))
    corners = tuple((sum(b * stride for b, (_, _, stride) in zip(bits, active)), bits)
                    for bits in product((0, 1), repeat=len(active)))
    derivs = tuple((k, slopes, tuple(j2 for j2 in range(len(active)) if j2 != j))
                   for j, (k, slopes, _) in enumerate(active))
    return strides[0], tuple(axes), corners, derivs


def _interp_core(table: DensityTable, x_alpha, fbar, z):
    grid = table.grid
    coords = np.asarray(fbar, dtype=float).reshape(3, 2).ravel().tolist()
    if grid.z_axes is not None:
        if z is None:
            raise ValueError("this table is sampled in z; pass a z query")
        coords += np.asarray(z, dtype=float).reshape(3).tolist()
    elif z is not None:
        raise ValueError("membrane tables take no z argument")
    ix = _match_x(grid, x_alpha)
    x_stride, axes, corners, derivs = _query_plan(grid)
    flat = ix * x_stride
    weights = []
    for k, (axis, q) in enumerate(zip(axes, coords)):
        # Both bounds tests are written so that a NaN query fails them.
        if len(axis) == 1:
            if not abs(q - axis[0]) <= _MATCH_TOL:
                raise ExtrapolationError(
                    f"axis {k} is frozen at {axis[0]}, queried at {q}")
            continue
        lo, hi, h, count, tol, stride = axis
        if not lo - tol <= q <= hi + tol:
            raise ExtrapolationError(f"axis {k}: query {q} outside [{lo}, {hi}]")
        t = (q - lo) / h
        # Snap to a node when within rounding distance: queries that sit on
        # a derivative kink must pick one side deterministically, or float
        # jitter across quadrature points turns into phantom forces.
        tn = round(t)
        if abs(t - tn) <= _MATCH_TOL * (1.0 + abs(t)):
            t = float(tn)
        i = min(max(math.floor(t), 0), count - 2)
        s = min(max(t - i, 0.0), 1.0)
        flat += i * stride
        weights.append((1.0 - s, s))
    # Products run in axis order, as over all axes with the frozen ones
    # contributing an exact 1.0, so every bit matches the full formula.
    values, mask = table.values, table.mask
    value = 0.0
    dactive = [0.0] * len(derivs)
    for offset, bits in corners:
        state = mask.item(flat + offset)
        if state != VALID:
            idx = tuple(int(i) for i in np.unravel_index(flat + offset, grid.shape))
            state = "pending" if state == PENDING else "invalid"
            raise ValueError(f"table node {idx} is {state}; cannot interpolate")
        v = values.item(flat + offset)
        ws = [pair[b] for pair, b in zip(weights, bits)]
        w = 1.0
        for wk in ws:
            w *= wk
        value += w * v
        for j, (_, slopes, others) in enumerate(derivs):
            wd = slopes[bits[j]]
            for j2 in others:
                wd *= ws[j2]
            dactive[j] += wd * v
    dcoord = [0.0] * len(coords)
    for (k, _, _), d in zip(derivs, dactive):
        dcoord[k] = d
    return value, dcoord


def query(table: DensityTable, x_alpha, fbar, z=None) -> float:
    """Interpolated density at (x_alpha, fbar[, z]).

    x_alpha must coincide with a stored sample point and frozen axes
    must be queried at their frozen values (both to 1e-9); active axes
    interpolate multilinearly and refuse out-of-box queries.
    """
    value, _ = _interp_core(table, x_alpha, fbar, z)
    return value


def interpolate_with_gradient(table: DensityTable, x_alpha, fbar, z):
    """Query plus derivatives of the interpolant w.r.t. fbar and z.

    Frozen axes contribute zero derivative.  Inside one grid cell the
    interpolant is smooth; across cell faces the derivative jumps, as
    any piecewise-multilinear function's does.
    """
    value, dcoord = _interp_core(table, x_alpha, fbar, z)
    dcoord = np.array(dcoord)
    dF = dcoord[:6].reshape(3, 2)
    dz = dcoord[6:] if table.grid.z_axes is not None else np.zeros(3)
    return value, dF, dz


def check_z_convexity(table: DensityTable, tol: float = 1e-8):
    """Midpoint convexity along each z axis on adjacent node triples.

    For every three consecutive nodes along an active z axis (all other
    indices fixed) the middle value must not exceed the endpoint mean
    beyond ``tol`` slack.  Returns a report dict with the worst excess.
    """
    if table.grid.z_axes is None:
        return {"checked": 0, "violations": 0, "worst_excess": 0.0}
    checked = 0
    violations = 0
    worst = 0.0
    vals = table.values
    ok = table.mask == VALID
    for k, spec in enumerate(table.grid.z_axes):
        if spec[0] == "frozen" or spec[3] < 3:
            continue
        ax = 7 + k
        sl = [slice(None)] * vals.ndim
        lo, mid, hi = list(sl), list(sl), list(sl)
        n = spec[3]
        lo[ax], mid[ax], hi[ax] = slice(0, n - 2), slice(1, n - 1), slice(2, n)
        usable = ok[tuple(lo)] & ok[tuple(mid)] & ok[tuple(hi)]
        excess = vals[tuple(mid)] - 0.5 * (vals[tuple(lo)] + vals[tuple(hi)])
        scale = 1.0 + np.abs(vals[tuple(mid)])
        rel = np.where(usable, excess / scale, -np.inf)
        checked += int(np.count_nonzero(usable))
        violations += int(np.count_nonzero(rel > tol))
        if usable.any():
            worst = max(worst, float(rel.max()))
    return {"checked": checked, "violations": violations,
            "worst_excess": worst}


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def save_table(table: DensityTable, path):
    """Write the versioned text header plus the little-endian value block."""
    flat = np.ascontiguousarray(table.values.ravel(), dtype="<f8")
    block = flat.tobytes()
    mask_hex = bytes(table.mask.ravel().astype(np.uint8)).hex()
    lines = [
        f"filmcell-table {FORMAT_VERSION}",
        f"kind: {table.kind}",
        f"count: {table.grid.node_count}",
        f"grid: {json.dumps(table.grid.to_config(), sort_keys=True)}",
        f"provenance: {json.dumps(table.provenance, sort_keys=True)}",
        f"mask: {mask_hex}",
        f"values_sha256: {hashlib.sha256(block).hexdigest()}",
        "end-header",
        "",
    ]
    with open(path, "wb") as fh:
        fh.write("\n".join(lines).encode())
        fh.write(block)


def load_table(path) -> DensityTable:
    """Read a table file back; refuse anything corrupt or inconsistent."""
    with open(path, "rb") as fh:
        data = fh.read()
    head, sep, block = data.partition(b"end-header\n")
    if not sep:
        raise TableParseError("missing end-header sentinel")
    try:
        lines = head.decode().splitlines()
    except UnicodeDecodeError as exc:
        raise TableParseError(f"undecodable header: {exc}") from exc
    if not lines or not lines[0].startswith("filmcell-table "):
        raise TableParseError("not a table file (bad magic line)")
    version = lines[0].split()[-1]
    if version != str(FORMAT_VERSION):
        raise TableParseError(f"unsupported table format version {version}")
    fields = {}
    for line in lines[1:]:
        if not line.strip():
            continue
        key, _, val = line.partition(":")
        if not _:
            raise TableParseError(f"malformed header line {line!r}")
        fields[key.strip()] = val.strip()
    try:
        kind = fields["kind"]
        count = int(fields["count"])
        grid = SampleGrid.from_config(json.loads(fields["grid"]))
        provenance = json.loads(fields["provenance"])
        integrand = provenance.get("integrand")
        mask_hex = fields["mask"]
        want_hash = fields["values_sha256"]
    except KeyError as exc:
        raise TableParseError(f"header is missing {exc}") from exc
    except (ValueError, TypeError, AttributeError) as exc:
        raise TableParseError(f"bad header field: {exc}") from exc
    _check_kind(kind, grid, TableParseError)
    if grid.node_count != count:
        raise TableParseError("count does not match the grid")
    if len(block) != 8 * count:
        raise TableParseError(
            f"truncated value block: {len(block)} bytes for {count} nodes")
    if hashlib.sha256(block).hexdigest() != want_hash:
        raise TableParseError("value checksum mismatch")
    try:
        mask = np.frombuffer(bytes.fromhex(mask_hex), dtype=np.uint8)
    except ValueError as exc:
        raise TableParseError(f"bad mask encoding: {exc}") from exc
    if mask.size != count:
        raise TableParseError("mask length does not match the grid")
    if mask.max(initial=0) > INVALID:
        raise TableParseError("mask holds unknown codes")
    values = np.frombuffer(block, dtype="<f8").astype(float)
    if not np.isfinite(values[mask == VALID]).all():
        raise TableParseError("mask marks a non-finite value as valid")
    # The checksum covers only the values: tie the stored integrand to its hash.
    if integrand is not None and provenance.get("integrand_hash") != hashlib.sha256(
            json.dumps(integrand, sort_keys=True).encode()).hexdigest():
        raise TableParseError("provenance integrand does not match its integrand_hash")
    return DensityTable(grid, kind, values.reshape(grid.shape),
                        mask.astype(np.uint8).reshape(grid.shape), provenance)


def export_csv(table: DensityTable, path):
    """Node coordinates, values and mask as plot-ready CSV."""
    headers = ["x1", "x2", "f00", "f01", "f10", "f11", "f20", "f21"]
    has_z = table.grid.z_axes is not None
    if has_z:
        headers += ["z0", "z1", "z2"]
    headers += ["value", "mask"]
    flat_vals = table.values.ravel()
    flat_mask = table.mask.ravel()
    with open(path, "w") as fh:
        fh.write(",".join(headers) + "\n")
        for i in range(table.grid.node_count):
            x_alpha, fbar, z = table.grid.node_args(i)
            row = [repr(float(x_alpha[0])), repr(float(x_alpha[1]))]
            row += [repr(float(v)) for v in fbar.ravel()]
            if has_z:
                row += [repr(float(v)) for v in z]
            row.append(repr(float(flat_vals[i])))
            row.append(str(int(flat_mask[i])))
            fh.write(",".join(row) + "\n")
