"""The three benchmark workloads: seeded inputs, timed passes, reference checks.

Every filmcell call goes through a module attribute (``fc_cell.cosserat_density``
and so on), looked up at call time, so the tracer's wrappers see it.

References are computed here, independently of filmcell's own ``ok`` flags,
exit codes and status strings: closed forms evaluated with numpy, the
growth sandwich, ``qcx <= W``, the ``minimize_over_z`` / ``membrane_density``
identity, the limit's transverse vector, table checksums and
interpolation bounds.  An op that raises is *failed*; an op whose output
misses its reference is *wrong*, which makes the whole run incorrect.
"""

from __future__ import annotations

import csv
import hashlib
import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from speed import SAMPLE_EVERY_S, Speedometer

import filmcell.cell as fc_cell
import filmcell.cli as fc_cli
import filmcell.tabulate as fc_tabulate
import filmcell.thinfilm as fc_thinfilm
from filmcell.cell import CellProblemSpec, InnerConfig, LSearchConfig
from filmcell.config import build_problem, resolve_config
from filmcell.field import LATERAL_PERIODIC, CellMesh, EnergyContext
from filmcell.integrand import (
    MaterialPoint, PlanarCheckerboard, TransverseLaminate,
    aniso_quadratic_density, pnorm_density, two_well_density,
)

# -- families ---------------------------------------------------------------

ANISO_WEIGHTS = np.array([[2.0, 1.0, 1.0], [1.0, 1.5, 1.0], [1.0, 1.0, 3.0]])
LAM_LEVELS = (1.0, 3.0)          # equal layers split at x3 = 0
CHECK_VALUES = (1.0, 2.0)        # tiles of side 0.5


def rank_one_well(scale=0.6):
    """Well of the two-well family, rank-one so the wells are compatible."""
    a = np.array([1.0, 0.5, -0.3])
    e = np.array([1.0, 0.5, 0.0])
    return scale * np.outer(a, e) / (np.linalg.norm(a) * np.linalg.norm(e))


WELL = rank_one_well()
FAMILIES = {
    "quad": pnorm_density(p=2.0),
    "cubic": pnorm_density(p=3.0),
    "aniso": aniso_quadratic_density(entry_weights=ANISO_WEIGHTS),
    "lam": pnorm_density(p=2.0, modulation=TransverseLaminate(LAM_LEVELS, (0.0,))),
    "check": pnorm_density(p=2.0, modulation=PlanarCheckerboard(CHECK_VALUES, 0.5)),
    "two_well": two_well_density(well_plus=WELL),
}
CONVEX = ("quad", "cubic", "aniso", "lam", "check")


def join(fbar, z):
    return np.concatenate([np.asarray(fbar, float).reshape(3, 2),
                           np.asarray(z, float).reshape(3, 1)], axis=1)


def pointwise_w(fam, x_alpha, x3, F):
    """W(x; F) in closed form, written out here rather than taken from filmcell."""
    F = np.asarray(F, dtype=float)
    nf2 = float(np.sum(F ** 2))
    if fam in ("quad", "lam", "check"):
        if fam == "lam":
            a = LAM_LEVELS[0] if x3 < 0.0 else LAM_LEVELS[1]
        elif fam == "check":
            i, j = int(np.floor(x_alpha[0] / 0.5)), int(np.floor(x_alpha[1] / 0.5))
            a = CHECK_VALUES[(i + j) % 2]
        else:
            a = 1.0
        return a * nf2
    if fam == "cubic":
        return nf2 ** 1.5
    if fam == "aniso":
        return 0.5 * float(np.sum(ANISO_WEIGHTS * F ** 2))
    return min(float(np.sum((F - WELL) ** 2)), float(np.sum((F + WELL) ** 2)))


def cell_closed_form(fam, kind, x_alpha, fbar, z):
    """Cell density of a convex family at a point, or None if no closed form.

    Every convex family here is homogeneous at a frozen in-plane point
    apart from the x3 laminate, so the cell minimizer is the affine state
    (Jensen) and the density is W at (fbar | z), with z = 0 optimal when
    free.  The (1, 3) laminate averages arithmetically in plane and
    harmonically across the layers: 2 |fbar|^2 + 1.5 |z|^2.
    """
    if fam not in CONVEX:
        return None
    zz = np.zeros(3) if z is None or kind != "cosserat_density" else np.asarray(z, float)
    if fam == "lam":
        return 2.0 * float(np.sum(np.asarray(fbar) ** 2)) + 1.5 * float(np.sum(zz ** 2))
    return pointwise_w(fam, x_alpha, 0.0, join(fbar, zz))


def sandwich(W, fbar, z):
    """Growth sandwich on the joint argument (fbar | z): (lower, upper)."""
    g = W.growth
    n = float(np.sum(join(fbar, np.zeros(3) if z is None else z) ** 2)) ** (g.p / 2.0)
    return g.beta_lower * n, g.beta_upper * (n + 1.0)


def close(got, want, rel):
    return abs(got - want) <= rel * (1.0 + abs(want))


# -- pass bookkeeping -------------------------------------------------------

@dataclass
class PassResult:
    """What one pass of a workload did; filled in while it runs."""

    wall_s: float = 0.0
    op_span: list = field(default_factory=list)    # (start, end) perf_counter of each op
    query_span: list = field(default_factory=list)
    attempted: int = 0
    failed: list = field(default_factory=list)    # raised: label and error
    wrong: list = field(default_factory=list)     # missed its reference
    study_rows: list = field(default_factory=list)
    limit_info: list = field(default_factory=list)
    table_bytes: float = 0.0
    pending: tuple = ()     # outputs kept for the checks, dropped after them
    speed: Speedometer = field(default_factory=Speedometer)

    def start(self, sample_every):
        self.speed.start(sample_every)
        self.t0 = time.perf_counter()

    def stop(self):
        """Wall time since ``start``, less the time the speed kernel took."""
        self.t1 = time.perf_counter()
        self.speed.stop()
        self.wall_s = self.t1 - self.t0 - self.speed.busy(self.t0, self.t1)

    def run(self, label, fn, *args, timed=True, **kwargs):
        """Call one op, count it, time it, and record a raised error."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:   # noqa: BLE001 - the benchmark counts failures
            self.failed.append(f"{label}: {type(exc).__name__}: {exc}")
            out = None
        if timed:
            self.op_span.append((t0, time.perf_counter()))
        return out

    def expect(self, ok, label, detail=""):
        if not ok:
            self.wrong.append(f"{label} {detail}".strip())


class Workload:
    """A workload runs passes (timed, maybe traced), then checks them (never traced)."""

    name = ""
    sample_every = SAMPLE_EVERY_S   # speed-kernel interval; None in traced passes

    def check(self, res):
        self._check(res, *res.pending)
        res.pending = ()

    def _check(self, res, *outputs):
        raise NotImplementedError


def _time_queries(res, fn, args_list):
    """Call ``fn`` on each argument tuple, timing each call as a query."""
    outs = []
    for args in args_list:
        t0 = time.perf_counter()
        outs.append(fn(*args))
        res.query_span.append((t0, time.perf_counter()))
    return outs


# ---------------------------------------------------------------------------
# cell-mix
# ---------------------------------------------------------------------------

SINGLE = InnerConfig(multistart=1)
NARROW_L = LSearchConfig(l_min=0.9, l_max=1.1, grid_count=3, golden_tol=0.5)
MESH2 = CellMesh(2, 2, 2)
MESH4 = CellMesh(4, 4, 4)
OP_KINDS = ("cosserat_density", "membrane_density", "membrane_density_periodic",
            "minimize_over_z", "quasiconvexify")
REL_TOL = 1e-6       # closed forms; solves stop at |g| <= 1e-8 (1 + |f|)
IDENTITY_TOL = 2e-8  # minimize_over_z vs membrane_density, as in criterion 04

# Stall cases: fixed inputs, not seeded.  Whether a descent stalls at the
# roundoff floor flips under 1% input changes (two-well solves measured at
# 2-10 s for the same recipe), so seeded stall cases would make run time
# depend on the seed rather than on the code.  These three stall on every
# run; the seeded ops around them do not stall.
STALL_CASES = (
    ("two_well", "cosserat_density", 1.6 * WELL[:, :2] + np.array(
        [[0.02, -0.03], [0.01, 0.04], [-0.02, 0.01]]), np.array([0.1, -0.05, 0.08])),
    ("lam", "cosserat_density", np.array([[0.42, -0.61], [0.13, 0.55], [-0.37, 0.08]]),
     np.array([0.21, -0.66, 0.35])),
    ("lam", "cosserat_density", np.array([[-0.49, -0.08], [-0.36, -0.14], [-0.56, 0.65]]),
     np.array([-0.46, 0.27, -0.32])),
)


@dataclass
class CellOp:
    fam: str
    kind: str
    spec: CellProblemSpec
    F: np.ndarray | None = None   # quasiconvexify argument

    @property
    def label(self):
        return f"{self.kind}[{self.fam},n={self.spec.mesh.n1}]"


def _x0(rng):
    """In-plane point at least 0.05 away from the checkerboard's tile edges."""
    x = 0.25 + 0.5 * rng.integers(0, 2, 2) + rng.uniform(-0.2, 0.2, 2)
    return (float(x[0]), float(x[1]))


class CellMix(Workload):
    """About 100 independent cell ops, mostly 2^3, a few convex ones on 4^3."""

    name = "cell-mix"

    def __init__(self, seed, workdir):
        rng = np.random.default_rng([seed, 101])
        ops = []
        for _ in range(3):
            for fam in CONVEX:
                for kind in OP_KINDS:
                    if fam == "lam" and kind == "cosserat_density":
                        continue   # stall-prone; covered by STALL_CASES
                    ops.append(self._op(fam, kind, MESH2, SINGLE, rng))
        for fam in ("quad", "cubic", "aniso", "check"):
            for kind in ("cosserat_density", "membrane_density", "minimize_over_z"):
                ops.append(self._op(fam, kind, MESH4, SINGLE, rng))
        for _ in range(4):
            t = rng.uniform(1.3, 1.7)
            ops.append(CellOp("two_well", "membrane_density", CellProblemSpec(
                fbar=t * WELL[:, :2], mesh=MESH2, l_search=NARROW_L)))
            t = rng.uniform(0.2, 0.8)
            ops.append(CellOp("two_well", "quasiconvexify",
                              CellProblemSpec(fbar=np.zeros((3, 2)), mesh=MESH2),
                              F=t * WELL))
        for fam, kind, fbar, z in STALL_CASES:
            inner = InnerConfig() if fam == "two_well" else SINGLE
            ops.append(CellOp(fam, kind, CellProblemSpec(fbar=fbar, z=z, mesh=MESH2,
                                                         inner=inner)))
        # Shuffled so that cheap ops and pointwise queries spread over the
        # whole pass rather than sitting in one stretch of machine noise.
        self.ops = [ops[i] for i in rng.permutation(len(ops))]
        self.queries = []
        for _ in range(20 * len(ops)):
            fam = str(rng.choice(list(FAMILIES)))
            x3 = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 0.9))
            self.queries.append((fam, _x0(rng), x3, rng.uniform(-0.8, 0.8, (3, 3))))

    @staticmethod
    def _op(fam, kind, mesh, inner, rng):
        fbar = rng.uniform(-0.7, 0.7, (3, 2))
        z = rng.uniform(-0.8, 0.8, 3)
        spec = CellProblemSpec(fbar=fbar, z=z, mesh=mesh, inner=inner,
                               x0=MaterialPoint(_x0(rng), 0.0))
        return CellOp(fam, kind, spec, F=join(fbar, z) if kind == "quasiconvexify" else None)

    @staticmethod
    def call(op):
        fn = getattr(fc_cell, op.kind)
        if op.kind == "quasiconvexify":
            return fn(FAMILIES[op.fam], op.F, op.spec)
        return fn(FAMILIES[op.fam], op.spec)

    def warmup(self):
        self.call(CellOp("quad", "cosserat_density", CellProblemSpec(
            fbar=np.full((3, 2), 0.3), z=np.full(3, 0.2), mesh=MESH2, inner=SINGLE)))

    def run_pass(self):
        res = PassResult()
        res.start(self.sample_every)
        outs, vals = [], []
        args = [(FAMILIES[fam], MaterialPoint(x, x3), F) for fam, x, x3, F in self.queries]
        for i, op in enumerate(self.ops):
            outs.append(res.run(op.label, self.call, op))
            vals += _time_queries(res, lambda W, point, F: W.evaluate(point, F),
                                  args[20 * i:20 * (i + 1)])
        res.attempted += 1
        res.stop()
        res.pending = (outs, vals)
        return res

    def _check(self, res, outs, vals):
        for op, out in zip(self.ops, outs):
            if out is None:
                continue
            W = FAMILIES[op.fam]
            x = op.spec.x0.x_alpha
            if op.kind == "quasiconvexify":
                w = pointwise_w(op.fam, x, 0.0, op.F)
                res.expect(out.value <= w + 1e-8 * (1.0 + w), op.label, "qcx > W")
                if op.fam in CONVEX:
                    res.expect(close(out.value, w, REL_TOL), op.label,
                               f"qcx {out.value} != W {w}")
                continue
            sol, z = (out[0], out[1]) if op.kind == "minimize_over_z" else (out, op.spec.z)
            z_arg = z if op.kind in ("cosserat_density", "minimize_over_z") else None
            lo, hi = sandwich(W, op.spec.fbar, z_arg)
            res.expect(lo - 1e-8 <= sol.value <= hi + 1e-8, op.label,
                       f"value {sol.value} outside sandwich [{lo}, {hi}]")
            want = cell_closed_form(op.fam, op.kind, x, op.spec.fbar, op.spec.z)
            if want is not None:
                res.expect(close(sol.value, want, REL_TOL), op.label,
                           f"value {sol.value} != closed form {want}")
            elif op.kind == "membrane_density":
                raw = pointwise_w(op.fam, x, 0.0, join(op.spec.fbar, np.zeros(3)))
                res.expect(sol.value <= raw + 1e-8, op.label, "above zero-field W")
            elif op.kind == "cosserat_density":
                raw = pointwise_w(op.fam, x, 0.0, join(op.spec.fbar, op.spec.z))
                res.expect(sol.value <= raw + 1e-8, op.label, "above affine-state W")
            if op.kind == "minimize_over_z":
                ref = fc_cell.membrane_density(W, replace(op.spec, z=None)).value
                res.expect(abs(sol.value - ref) <= IDENTITY_TOL * (1.0 + abs(ref)),
                           op.label, f"minimize_over_z {sol.value} != membrane {ref}")
        for (fam, x, x3, F), v in zip(self.queries, vals):
            want = pointwise_w(fam, x, x3, F)
            res.expect(close(v, want, 1e-12), f"W[{fam}]", f"{v} != {want}")


# ---------------------------------------------------------------------------
# gamma-loaded
# ---------------------------------------------------------------------------

G0 = 0.4
LOADPATH = {
    # gamma_loadpath physics on a 4x4 sheet: the limit solve and the
    # eps = 1/8 film row run to max_iter here, while the shipped 3x3
    # sheet converges.  The physics is fixed, not seeded: a 2% change of
    # the loads makes the limit converge in 15 iterations instead of
    # stalling for 500, which would swap the mechanism under test.
    "seed": 1,
    "integrand": {"family": "pnorm", "params": {"p": 2.0}},
    "cell": {"mesh": {"n1": 2, "n2": 2, "n3": 2}},
    "gamma": {
        "omega": {"n1": 4, "n2": 4, "origin": [0.0, 0.0], "lengths": [1.0, 1.0]},
        "n3": 4,
        "fbar_bc": [[0.3, 0.0], [0.0, 0.0], [0.0, 0.1]],
        "epsilons": [0.5, 0.25, 0.125],
        "loads": {"g0_top": [0.0, 0.0, G0], "g0_bottom": [0.0, 0.0, -G0],
                  "f": ["0.1*x1", "0", "0"]},
    },
}
BBAR_TOL = 1e-6


class GammaLoaded(Workload):
    """One loaded convergence study with the default cached cell source."""

    name = "gamma-loaded"

    def __init__(self, seed, workdir):
        self.problem = build_problem(resolve_config(LOADPATH))   # fixed: see LOADPATH

    def new_source(self):
        # What convergence_study builds when given no source; built here so
        # that its lookups can be timed and its cache checked.
        return fc_thinfilm.CellDensitySource(self.problem.W, self.problem.template_spec())

    def warmup(self):
        self.new_source().evaluate((0.5, 0.5), self.problem.fbar_bc, np.zeros(3))

    def run_pass(self):
        res = PassResult()
        res.start(self.sample_every)
        source = self.new_source()
        lookup = source.evaluate
        calls = [0]

        def sampled_lookup(*args):
            # Every 8th density lookup of the limit solve is a query sample.
            calls[0] += 1
            t = time.perf_counter()
            out = lookup(*args)
            if calls[0] % 8 == 0:
                res.query_span.append((t, time.perf_counter()))
            return out
        source.evaluate = sampled_lookup
        t = time.perf_counter()
        study = res.run("convergence_study", fc_thinfilm.convergence_study,
                        self.problem, source=source, timed=False)
        res.stop()
        if study is not None:
            # The ops are the study's solves, timed by the study itself: the
            # limit solve, then one film solve per thickness.
            for seconds in ([study.limit_info["seconds"]]
                            + [r["seconds"] for r in study.rows if "seconds" in r]):
                res.op_span.append((t, t + seconds))
                t += seconds
            res.attempted += len(study.rows)
            res.study_rows = list(study.rows)
            res.limit_info = [study.limit_info]
        else:
            res.op_span.append((t, res.t1))   # the study that raised is the one op
        res.attempted += 1      # the cache check below
        res.pending = (study, source.cache)
        return res

    def _check(self, res, study, cache):
        if study is not None:
            half = np.array([0.0, 0.0, 0.5 * G0])
            err = float(np.abs(study.bbar_limit - half).max())
            res.expect(err <= BBAR_TOL, "limit", f"|bbar - g0/2| = {err:.2e}")
            for r in study.rows:
                if "error" in r:
                    res.failed.append(f"film eps={r['epsilon']}: {r['error']}")
            gaps = [r["gap"] for r in study.rows if "gap" in r]
            res.expect(all(b < a for a, b in zip(gaps, gaps[1:])), "film rows",
                       f"gaps not decreasing with eps: {gaps}")
        # Homogeneous |F|^2 has the density Q(F | z) = |F|^2 + |z|^2.
        for (_, fb, zb), (v, _, _) in cache.items():
            want = float(np.sum(np.frombuffer(fb) ** 2) + np.sum(np.frombuffer(zb) ** 2))
            res.expect(close(v, want, REL_TOL), "source lookup", f"{v} != {want}")


# ---------------------------------------------------------------------------
# table-rw
# ---------------------------------------------------------------------------

LAM_INTEGRAND = {"family": "pnorm", "params": {"p": 2.0},
                 "modulation": {"kind": "laminate_x3", "levels": list(LAM_LEVELS),
                                "breaks": [0.0]}}
F_AXES = [["range", 0.0, 0.6, 5], ["range", -0.3, 0.3, 5], ["frozen", 0.0],
          ["frozen", 0.0], ["frozen", 0.0], ["frozen", 0.1]]
Z_AXES = [["frozen", 0.0], ["frozen", 0.0], ["range", -0.3, 0.3, 4]]
TABLE_CONFIG = {
    "seed": 3,
    "integrand": LAM_INTEGRAND,
    "cell": {"mesh": {"n1": 2, "n2": 2, "n3": 2}},
    "tabulate": {"kind": "cosserat", "x_points": [[0.5, 0.5]], "f_axes": F_AXES,
                 "z_axes": Z_AXES, "path": "laminate.fct"},
}
# gamma_loadpath loads at the shipped 3x3 size, on the laminate the table holds.
TABLE_STUDY = {
    "seed": 3,
    "integrand": LAM_INTEGRAND,
    "cell": {"mesh": {"n1": 2, "n2": 2, "n3": 2}},
    "gamma": dict(LOADPATH["gamma"], omega={"n1": 3, "n2": 3}),
}


def _spacing(axis):
    return (axis[2] - axis[1]) / (axis[3] - 1)


class TableRW(Workload):
    """Write a laminate Cosserat table through the CLI, then read it back."""

    name = "table-rw"

    def __init__(self, seed, workdir):
        self.workdir = workdir
        self.config = resolve_config(TABLE_CONFIG)
        self.study_problem = build_problem(resolve_config(TABLE_STUDY))
        rng = np.random.default_rng([seed, 303])
        coords = F_AXES + Z_AXES
        lo = np.array([a[1] for a in coords])
        hi = np.array([a[1] if a[0] == "frozen" else a[2] for a in coords])
        self.queries = rng.uniform(lo, hi, (20000, len(coords)))

    def warmup(self):
        grid = fc_tabulate.SampleGrid(((0.5, 0.5),), tuple(map(tuple, F_AXES)),
                                      tuple(map(tuple, Z_AXES)))
        _, fbar, z = grid.node_args(0)
        fc_cell.cosserat_density(FAMILIES["lam"], CellProblemSpec(fbar=fbar, z=z, mesh=MESH2))

    def run_pass(self):
        res = PassResult()
        out = os.path.join(self.workdir, "table")
        res.start(self.sample_every)
        with _timed_nodes(res):
            written = res.run("cmd_tabulate", fc_cli.cmd_tabulate, self.config,
                              out_dir=out, export=None, timed=False)
        path = os.path.join(out, TABLE_CONFIG["tabulate"]["path"])
        table = res.run("load_table", fc_tabulate.load_table, path, timed=False)
        outs, checks = [], {}
        if table is not None:
            res.table_bytes = float(os.path.getsize(path))
            node_args = [table.grid.node_args(i) for i in range(table.grid.node_count)]
            q_args = [((0.5, 0.5), q[:6].reshape(3, 2), q[6:]) for q in self.queries]
            outs = res.run("queries", _time_queries, res,
                           lambda *a: fc_tabulate.interpolate_with_gradient(table, *a),
                           node_args + q_args, timed=False) or []
            checks["convexity"] = res.run("check_z_convexity",
                                          fc_tabulate.check_z_convexity, table, timed=False)
            csv_path = os.path.join(out, "laminate.csv")
            res.run("export_csv", fc_tabulate.export_csv, table, csv_path, timed=False)
            checks["csv"] = csv_path
            source = fc_thinfilm.TableDensitySource(table)
            study = res.run("table-backed convergence_study",
                            fc_thinfilm.convergence_study, self.study_problem,
                            source=source, timed=False)
            checks["study"] = study
        res.stop()
        res.pending = (written, table, outs, checks)
        return res

    def _check(self, res, written, table, outs, checks):
        if table is None:
            return
        grid = table.grid
        flat_v, flat_m = table.values.ravel(), table.mask.ravel()
        if written is not None:
            digest = hashlib.sha256(np.ascontiguousarray(flat_v, "<f8").tobytes()).hexdigest()
            res.expect(digest == written[1]["body"]["values_sha256"], "save/load",
                       "checksum changed in the round trip")
        for i in range(grid.node_count):
            _, fbar, z = grid.node_args(i)
            if flat_m[i] != fc_tabulate.VALID:
                res.failed.append(f"node {i}: mask {int(flat_m[i])}")
                continue
            want = cell_closed_form("lam", "cosserat_density", (0.5, 0.5), fbar, z)
            res.expect(close(flat_v[i], want, REL_TOL), f"node {i}",
                       f"{flat_v[i]} != closed form {want}")
        if not outs:
            return
        n = grid.node_count
        for i, (v, _, _) in enumerate(outs[:n]):
            res.expect(v == flat_v[i], f"query at node {i}", "not exact")
        # Multilinear interpolation of c x^2 errs by at most c h^2 / 4 on each
        # active axis: f00 and f01 (c = 2) and z2 (c = 1.5).
        bound = (2.0 * _spacing(F_AXES[0]) ** 2 + 2.0 * _spacing(F_AXES[1]) ** 2
                 + 1.5 * _spacing(Z_AXES[2]) ** 2) / 4.0
        for q, (v, _, _) in zip(self.queries, outs[n:]):
            want = cell_closed_form("lam", "cosserat_density", (0.5, 0.5), q[:6], q[6:])
            res.expect(abs(v - want) <= bound + REL_TOL * (1.0 + want), "query",
                       f"{v} vs {want} (bound {bound})")
        conv = checks.get("convexity")
        if conv is not None:
            res.expect(conv["violations"] == 0 and conv["checked"] > 0, "check_z_convexity",
                       str(conv))
        with open(checks["csv"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        res.expect(len(rows) == n and all(float(r["value"]) == flat_v[i]
                                          for i, r in enumerate(rows)),
                   "export_csv", "rows do not match the table")
        study = checks.get("study")
        if study is not None:
            # Q = 2|F|^2 + 1.5|z|^2 puts the limit's transverse vector at
            # g0 / 3, up to one z spacing of the piecewise-linear table.
            err = float(np.abs(study.bbar_limit - np.array([0.0, 0.0, G0 / 3.0])).max())
            res.expect(err <= _spacing(Z_AXES[2]), "table-backed study",
                       f"|bbar - g0/3| = {err:.2e}")


@contextmanager
def _timed_nodes(res):
    """Times each table node solve (cmd_tabulate gives no per-node timings)."""
    orig = fc_tabulate.cosserat_density

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return orig(*args, **kwargs)
        finally:
            res.op_span.append((t0, time.perf_counter()))
            res.attempted += 1
    fc_tabulate.cosserat_density = timed
    try:
        yield
    finally:
        fc_tabulate.cosserat_density = orig


WORKLOADS = {w.name: w for w in (CellMix, GammaLoaded, TableRW)}


def field_ladder(seed):
    """Microseconds per energy-plus-gradient evaluation at fixed L on n^3 cells.

    The same call the cell solver's objective makes, timed alone on 2^3 to
    16^3 meshes: it shows how the per-evaluation overhead scales with dofs.
    Scaled to reference speed like every other time.
    """
    rng = np.random.default_rng([seed, 404])
    out = {}
    for n, reps in ((2, 300), (4, 200), (8, 40), (16, 6)):
        mesh = CellMesh(n, n, n, boundary_mode=LATERAL_PERIODIC)
        ctx = EnergyContext(FAMILIES["quad"], mesh, transverse_scale=1.0, prefactor=0.5,
                            x_mode="frozen", x0=MaterialPoint((0.5, 0.5), 0.0),
                            inplane_offset=rng.uniform(-0.5, 0.5, (3, 2)),
                            transverse_offset=rng.uniform(-0.5, 0.5, 3))
        values = rng.normal(0.0, 0.1, mesh.node_shape + (3,))
        ctx.value_and_grad(values)
        speed = Speedometer()
        speed.sample(20)
        t_rung = time.perf_counter()
        us = []
        for _ in range(reps):
            t0 = time.perf_counter()
            ctx.value_and_grad(values)
            us.append(1e6 * (time.perf_counter() - t0))
        speed.sample(20)
        out[f"field.us_per_eval.n{n}"] = (statistics.median(us)
                                          * speed.factor(t_rung, time.perf_counter()))
    return out
