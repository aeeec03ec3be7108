"""Span tracer that wraps filmcell's public entry points from outside ``src/``.

Each wrapped callable opens a span on entry and closes it on exit.  A span
knows its layer and the time its child spans covered, so a layer's self
time is its span time minus its children's.  Spans are aggregated as they
close (the loaded Gamma-study opens millions of them), keeping only the
duration lists that the per-layer medians need.

Wrapping happens on the module attribute through which each function is
looked up at call time, including the aliases other modules import:
``from .solvers import minimize_lbfgs`` binds a second name in
``filmcell.cell`` that patching ``filmcell.solvers`` alone would miss.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter

import filmcell.cell as fc_cell
import filmcell.cli as fc_cli
import filmcell.field as fc_field
import filmcell.integrand as fc_integrand
import filmcell.solvers as fc_solvers
import filmcell.tabulate as fc_tabulate
import filmcell.thinfilm as fc_thinfilm

CELL_OPS = ("cosserat_density", "membrane_density", "membrane_density_periodic",
            "minimize_over_z", "quasiconvexify")
KNOWN_STATUSES = ("ok", "max_iter", "line_search")
BOUNDARY_WARNING = "l-search-boundary"

# Counts that must repeat exactly between two traced passes of one seed.
EXACT_COUNTS = (
    "solvers.descents", "solvers.iterations", "solvers.evals",
    "solvers.backtracks", "cell.fixed_l_solves",
    "thinfilm.source_calls", "thinfilm.source_solves",
)


class _Span:
    __slots__ = ("layer", "child")

    def __init__(self, layer):
        self.layer = layer
        self.child = 0.0


def accepted_steps(res):
    """Accepted line-search steps of one descent, derived from its result.

    A descent that ran out of iterations accepted a step in each of them;
    one that stopped early spent its last iteration on the test that
    stopped it (gradient small, or no Armijo step found).
    """
    if res.status == "max_iter":
        return res.iterations
    return max(res.iterations - 1, 0)


class Tracer:
    """Install with ``with Tracer() as tr:``; read ``tr.metrics()`` after."""

    def __init__(self):
        self.stack: list[_Span] = []
        self.self_s = Counter()
        self.counts = Counter()
        self.statuses = Counter()
        self.limit_statuses = Counter()   # descents of the limit functional
        self.cell_op_s: list[float] = []
        self.node_s: list[float] = []
        self.inclusive = Counter()
        self._patches = []

    # -- span bookkeeping ---------------------------------------------------

    def _run(self, layer, fn, args, kwargs):
        span = _Span(layer)
        self.stack.append(span)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            self.stack.pop()
            self.self_s[layer] += dur - span.child
            self.inclusive[layer] += dur
            if self.stack:
                self.stack[-1].child += dur
            self._last_dur = dur

    def _inside(self, layer):
        """Whether a span of ``layer`` is open (the caller's own span closed)."""
        return any(span.layer == layer for span in self.stack)

    def _patch(self, owner, name, wrapper):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def __enter__(self):
        self._install()
        return self

    def __exit__(self, *exc):
        for owner, name, orig in reversed(self._patches):
            setattr(owner, name, orig)
        self._patches.clear()
        return False

    # -- wrappers -----------------------------------------------------------

    def _install(self):
        tr = self

        def plain(layer, fn, counter=None):
            def wrapped(*args, **kwargs):
                if counter:
                    tr.counts[counter] += 1
                return tr._run(layer, fn, args, kwargs)
            return wrapped

        # integrand: array entry points, one call per assembly pass
        for name in ("energy_array", "stress_array"):
            orig = getattr(fc_integrand.StoredEnergyDensity, name)

            def integrand(self_, modv, F, _orig=orig):
                tr.counts["integrand.calls"] += 1
                tr.counts["integrand.qp_evals"] += F.size // 9
                return tr._run("integrand", _orig, (self_, modv, F), {})
            self._patch(fc_integrand.StoredEnergyDensity, name, integrand)

        # field: one energy (and gradient) evaluation
        for name in ("value", "value_and_grad"):
            self._patch(fc_field.EnergyContext, name,
                        plain("field", getattr(fc_field.EnergyContext, name),
                              "field.evals"))

        # solvers: every descent, wherever minimize_lbfgs is looked up
        lbfgs = fc_solvers.minimize_lbfgs

        def descent(*args, **kwargs):
            res = tr._run("solvers", lbfgs, args, kwargs)
            tr._record_descent(res)
            return res
        for mod in (fc_solvers, fc_cell, fc_thinfilm):
            self._patch(mod, "minimize_lbfgs", descent)

        # cell: the public operations and their aliases in other modules
        for name in CELL_OPS:
            op = getattr(fc_cell, name)
            wrapper = self._cell_wrapper(op)
            for mod in (fc_cell, fc_thinfilm, fc_tabulate, fc_cli):
                if getattr(mod, name, None) is op:
                    self._patch(mod, name, wrapper)

        # thinfilm: studies, limit solves, the cached cell-density source
        study = fc_thinfilm.convergence_study
        study_w = plain("thinfilm", study)
        for mod in (fc_thinfilm, fc_cli):
            self._patch(mod, "convergence_study", study_w)
        self._patch(fc_thinfilm, "minimize_limit",
                    plain("thinfilm.limit", fc_thinfilm.minimize_limit))
        self._patch(fc_thinfilm.CellDensitySource, "evaluate",
                    plain("thinfilm.source", fc_thinfilm.CellDensitySource.evaluate,
                          "thinfilm.source_calls"))

        # tabulate: build, persistence, queries
        build = fc_tabulate.build_table

        def build_w(*args, **kwargs):
            table = tr._run("tabulate.build", build, args, kwargs)
            tr.counts["tabulate.build_s"] += tr._last_dur
            tr.counts["tabulate.invalid_nodes"] += table.invalid
            return table
        for mod in (fc_tabulate, fc_cli):
            self._patch(mod, "build_table", build_w)
        for name, key in (("save_table", "tabulate.save_s"),
                          ("load_table", "tabulate.load_s")):
            fn = getattr(fc_tabulate, name)

            def timed(*args, _fn=fn, _key=key, **kwargs):
                out = tr._run("tabulate", _fn, args, kwargs)
                tr.counts[_key] += tr._last_dur
                return out
            for mod in (fc_tabulate, fc_cli):
                if getattr(mod, name, None) is fn:
                    self._patch(mod, name, timed)
        for name in ("export_csv", "check_z_convexity"):
            fn = getattr(fc_tabulate, name)
            wrapper = plain("tabulate", fn)
            for mod in (fc_tabulate, fc_cli):
                if getattr(mod, name, None) is fn:
                    self._patch(mod, name, wrapper)
        self._patch(fc_tabulate, "interpolate_with_gradient",
                    plain("tabulate.query", fc_tabulate.interpolate_with_gradient,
                          "tabulate.queries"))

        # cli: report assembly, hashing and writing around the table build
        self._patch(fc_cli, "cmd_tabulate", plain("cli", fc_cli.cmd_tabulate))

    def _cell_wrapper(self, op):
        tr = self

        def wrapped(*args, **kwargs):
            out = None
            try:
                out = tr._run("cell", op, args, kwargs)
                return out
            finally:
                if not tr._inside("cell"):   # a top-level op, counted even if it raised
                    tr._record_cell_op(out, tr._last_dur)
        return wrapped

    # -- derived counts -----------------------------------------------------

    def _record_descent(self, res):
        c = self.counts
        c["solvers.descents"] += 1
        c["solvers.iterations"] += res.iterations
        c["solvers.evals"] += res.n_evals
        c["solvers.backtracks"] += res.n_evals - 1 - accepted_steps(res)
        self.statuses[res.status] += 1
        if res.status == "max_iter":
            c["solvers.max_iter_evals"] += res.n_evals
        if self._inside("cell"):
            c["cell.descents"] += 1
        elif self._inside("thinfilm.limit"):
            self.limit_statuses[res.status] += 1

    def _record_cell_op(self, out, dur):
        sol = out[0] if isinstance(out, tuple) else out
        diag = {} if sol is None else sol.diagnostics
        c = self.counts
        c["cell.ops"] += 1
        self.cell_op_s.append(dur)
        c["cell.fixed_l_solves"] += len(diag.get("l_profile", ())) or 1
        c["cell.boundary_warnings"] += list(diag.get("warnings", ())).count(
            BOUNDARY_WARNING)
        c["cell.surrogate_misses"] += diag.get("surrogate", {}).get("misses", 0)
        if self._inside("thinfilm.source"):
            c["thinfilm.source_solves"] += 1
        if self._inside("tabulate.build"):
            c["tabulate.nodes"] += 1
            self.node_s.append(dur)

    # -- report -------------------------------------------------------------

    def metrics(self, study_rows=(), limit_info=None, table_bytes=0.0):
        """Per-layer metrics as a flat name -> value mapping.

        ``study_rows`` and ``limit_info`` come from the ConvergenceReports
        the pass produced (film rows and limit solves are not separate
        public calls); ``table_bytes`` is the size of the written table.
        """
        c, s = self.counts, self.self_s
        evals = c["solvers.evals"]
        m = {
            "integrand.calls": c["integrand.calls"],
            "integrand.qp_evals": c["integrand.qp_evals"],
            "integrand.self_s": s["integrand"],
            "field.evals": c["field.evals"],
            "field.self_s": s["field"],
            "field.us_per_eval": 1e6 * self.inclusive["field"] / max(c["field.evals"], 1),
            "solvers.descents": c["solvers.descents"],
            "solvers.iterations": c["solvers.iterations"],
            "solvers.evals": evals,
            "solvers.backtracks": c["solvers.backtracks"],
            "solvers.max_iter_eval_frac": c["solvers.max_iter_evals"] / max(evals, 1),
            "solvers.self_s": s["solvers"],
            "cell.ops": c["cell.ops"],
            "cell.op_p50_s": _median(self.cell_op_s),
            "cell.fixed_l_solves": c["cell.fixed_l_solves"],
            "cell.descents_per_op": c["cell.descents"] / max(c["cell.ops"], 1),
            "cell.boundary_warnings": c["cell.boundary_warnings"],
            "cell.surrogate_misses": c["cell.surrogate_misses"],
            "cell.self_s": s["cell"],
            "thinfilm.film_solves": sum(1 for r in study_rows if "error" not in r),
            "thinfilm.film_s": sum(r.get("seconds", 0.0) for r in study_rows),
            "thinfilm.film_iterations": sum(r.get("iterations", 0) for r in study_rows),
            "thinfilm.limit_s": sum(i.get("seconds", 0.0) for i in limit_info or ()),
            "thinfilm.limit_iterations": sum(i.get("iterations", 0)
                                             for i in limit_info or ()),
            "thinfilm.source_calls": c["thinfilm.source_calls"],
            "thinfilm.source_solves": c["thinfilm.source_solves"],
            "thinfilm.source_hit_frac": (
                1.0 - c["thinfilm.source_solves"] / c["thinfilm.source_calls"]
                if c["thinfilm.source_calls"] else 0.0),
            "thinfilm.source_self_s": s["thinfilm.source"],
            "thinfilm.self_s": s["thinfilm"] + s["thinfilm.limit"],
            "tabulate.nodes": c["tabulate.nodes"],
            "tabulate.node_p50_s": _median(self.node_s),
            "tabulate.invalid_nodes": c["tabulate.invalid_nodes"],
            "tabulate.build_s": c["tabulate.build_s"],
            "tabulate.save_s": c["tabulate.save_s"],
            "tabulate.load_s": c["tabulate.load_s"],
            "tabulate.table_bytes": table_bytes,
            "tabulate.queries": c["tabulate.queries"],
            "tabulate.query_self_us": 1e6 * s["tabulate.query"] / max(c["tabulate.queries"], 1),
            "cli.self_s": s["cli"],
        }
        for status in KNOWN_STATUSES:
            m[f"solvers.status.{status}"] = self.statuses[status]
        m["solvers.status.other"] = sum(n for st, n in self.statuses.items()
                                        if st not in KNOWN_STATUSES)
        return m

    def exact_counts(self):
        m = {k: self.counts[k] for k in EXACT_COUNTS}
        m.update({f"solvers.status.{k}": v for k, v in sorted(self.statuses.items())})
        return m


def _median(values):
    return statistics.median(values) if values else 0.0
