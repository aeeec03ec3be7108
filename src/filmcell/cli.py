"""Command-line driver for cell densities, limit studies, and tables.

Subcommands: density, cosserat, qcx, gamma, tabulate, check.  Each one
reads a YAML run configuration (all fields optional; defaults are filled
in and echoed back), runs the computation, and writes a report.

Reports separate a deterministic ``body`` (inputs, values, diagnostics;
no timings) from a ``meta`` section (timestamps, elapsed wall time,
argv).  ``body_sha256`` is the SHA-256 of the compact sorted JSON dump
of the body, so two runs of the same configuration can be compared by a
single hash.

Exit codes: 0 success, 1 failure (bad config, solver error, failed
check), 2 success with warnings (the thickness-ratio search stopped on
the boundary of its window, so the reported minimum may be a window
artifact; or the winning inner descent of a cell command, or a
``gamma`` limit or film solve, ran out of iterations, which also makes
a ``gamma`` body's ``ok`` false).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
import time
from dataclasses import replace
from datetime import datetime, timezone
from functools import cached_property
from pathlib import Path

import numpy as np

from .expr import ExpressionError
from .integrand import pnorm_density, verify_growth
from .field import CellMesh, DiscreteField, affine_values
from .cell import (CellProblemSpec, CellSolveError, cosserat_density,
                   membrane_density, membrane_density_periodic,
                   minimize_over_z, quasiconvexify)
from .thinfilm import (SheetMesh, TableDensitySource, ThinFilmProblem,
                       convergence_study, scaled_energy)
from .tabulate import (SampleGrid, TableParseError, build_table, export_csv,
                       load_table, query, save_table)
from .config import (ConfigError, _matrix, build_cell_spec, build_density,
                     build_grid, build_problem, load_config, resolve_config)

__all__ = ["cmd_density", "cmd_cosserat", "cmd_qcx", "cmd_gamma",
           "cmd_tabulate", "cmd_check", "CHECKS", "main"]

BOUNDARY_WARNING = "l-search-boundary"
NOT_CONVERGED_WARNING = "not-converged"


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------

def _json_ready(obj):
    """Recursively convert numpy scalars/arrays for JSON serialization."""
    if isinstance(obj, dict):
        return {str(k): _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _json_ready(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _strip_timing(obj):
    """Drop wall-clock fields so report bodies are run-to-run identical."""
    if isinstance(obj, dict):
        return {k: _strip_timing(v) for k, v in obj.items()
                if k not in ("seconds", "elapsed")}
    if isinstance(obj, list):
        return [_strip_timing(v) for v in obj]
    return obj


def _finish(command, body, meta, out_dir, export=None, csv_writer=None,
            exit_code=0):
    """Assemble the report, optionally write JSON/CSV artifacts."""
    body = _strip_timing(_json_ready(body))
    digest = hashlib.sha256(json.dumps(
        body, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    report = {"body": body, "body_sha256": digest, "meta": _json_ready(meta)}
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"{command}.json"
        report["meta"]["report_path"] = str(path)
        if export == "csv" and csv_writer is not None:
            csv_path = out / f"{command}.csv"
            csv_writer(csv_path)
            report["meta"]["csv_path"] = str(csv_path)
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    elif export == "csv":
        raise ConfigError("--export csv requires --out")
    return exit_code, report


def _meta(t0, argv):
    return {"created": datetime.now(timezone.utc).isoformat(),
            "elapsed": time.perf_counter() - t0,
            "argv": list(argv) if argv is not None else None}


def _solution_body(resolved, W, sol, **extra):
    """Report body of a cell command; ``not-converged`` joins the warnings
    when the winning inner descent ran out of iterations."""
    diag = sol.diagnostics
    warnings = list(sol.warnings)
    if diag.get("inner", diag).get("status") == "max_iter":
        warnings.append(NOT_CONVERGED_WARNING)
    body = {"config": resolved,
            "integrand_hash": W.content_hash(),
            "value": sol.value,
            "l_star": sol.l_star,
            "warnings": warnings,
            "record": sol.to_record()}
    body.update(extra)
    return body


def _quantities_csv(**quantities):
    """CSV writer of a ``quantity,value`` table, one row per keyword."""
    def write(path):
        with open(path, "w") as fh:
            fh.write("quantity,value\n")
            for name, value in quantities.items():
                fh.write(f"{name},{value!r}\n")
    return write


def _warn_exit(body):
    warned = {BOUNDARY_WARNING, NOT_CONVERGED_WARNING} & set(body["warnings"])
    return 2 if warned else 0


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_density(config, out_dir=None, export=None, argv=None):
    """Membrane energy density at the configured (x0, fbar)."""
    t0 = time.perf_counter()
    resolved = resolve_config(config)
    W = build_density(resolved)
    spec = build_cell_spec(resolved)
    form = resolved["cell"]["form"]
    if form == "zero":
        sol = membrane_density(W, spec)
    elif form == "periodic":
        sol = membrane_density_periodic(W, spec)
    else:
        raise ConfigError("config key 'cell.form' must be 'zero' or 'periodic'")
    body = _solution_body(resolved, W, sol, command="density", form=form)
    return _finish("density", body, _meta(t0, argv), out_dir, export,
                   _quantities_csv(value=sol.value, l_star=sol.l_star),
                   _warn_exit(body))


def cmd_cosserat(config, out_dir=None, export=None, argv=None):
    """Cosserat-membrane density at the configured (x0, fbar, z)."""
    t0 = time.perf_counter()
    resolved = resolve_config(config)
    W = build_density(resolved)
    spec = build_cell_spec(resolved, with_z=True)
    sol = cosserat_density(W, spec)
    body = _solution_body(resolved, W, sol, command="cosserat",
                          z=resolved["cell"]["z"])
    return _finish("cosserat", body, _meta(t0, argv), out_dir, export,
                   _quantities_csv(value=sol.value, l_star=sol.l_star),
                   _warn_exit(body))


def cmd_qcx(config, out_dir=None, export=None, argv=None):
    """Quasiconvex envelope of the integrand at the configured 3x3 F."""
    t0 = time.perf_counter()
    resolved = resolve_config(config)
    W = build_density(resolved)
    spec = build_cell_spec(resolved)
    F = _matrix(resolved["cell"]["F"], (3, 3), "cell.F")
    sol = quasiconvexify(W, F, spec)
    x0 = spec.x0
    raw = W.evaluate(x0, F)
    body = _solution_body(resolved, W, sol, command="qcx", F=F.tolist(),
                          raw_value=raw, relaxation_gap=raw - sol.value)
    return _finish("qcx", body, _meta(t0, argv), out_dir, export,
                   _quantities_csv(value=sol.value, raw_value=raw),
                   _warn_exit(body))


def cmd_gamma(config, out_dir=None, export=None, argv=None):
    """Thickness sweep of the scaled energies against the limit model."""
    t0 = time.perf_counter()
    resolved = resolve_config(config)
    problem = build_problem(resolved)
    src_kind = resolved["gamma"]["source"]
    if src_kind == "cell":
        source = None
    elif src_kind == "table":
        path = resolved["gamma"]["table_path"]
        if not path:
            raise ConfigError("config key 'gamma.table_path' is required "
                              "when gamma.source is 'table'")
        table = load_table(path)
        stored = table.provenance.get("integrand_hash")
        current = problem.W.content_hash()
        if stored != current:
            raise ValueError(
                f"table {path} was built for integrand {stored}, but the "
                f"configured integrand hashes to {current}")
        source = TableDensitySource(table)
    else:
        raise ConfigError("config key 'gamma.source' must be 'cell' or 'table'")
    study = convergence_study(problem, source=source)
    body = {"command": "gamma", "config": resolved,
            "integrand_hash": problem.W.content_hash(),
            "source": src_kind, "study": study.to_record(),
            "gaps": study.gaps, "ok": study.ok and study.converged,
            "warnings": [] if study.converged else [NOT_CONVERGED_WARNING]}
    code = 1 if not study.ok else 0 if study.converged else 2
    return _finish("gamma", body, _meta(t0, argv), out_dir, export,
                   study.to_csv, code)


def cmd_tabulate(config, out_dir=None, export=None, argv=None):
    """Build (or resume) a density table over the configured grid."""
    t0 = time.perf_counter()
    resolved = resolve_config(config)
    W = build_density(resolved)
    grid = build_grid(resolved)
    tc = resolved["tabulate"]
    kind = tc["kind"]
    template = build_cell_spec(resolved, with_z=(kind == "cosserat"))
    resume = load_table(tc["resume"]) if tc["resume"] else None
    table = build_table(W, grid, kind=kind, template=template,
                        resume=resume, node_limit=tc["node_limit"])
    table_path = None
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        table_path = out / tc["path"]
        save_table(table, table_path)
    summary = table.summary()
    body = {"command": "tabulate", "config": resolved,
            "integrand_hash": W.content_hash(), "kind": kind,
            "summary": summary,
            "values_sha256": hashlib.sha256(
                np.ascontiguousarray(table.values.ravel(),
                                     dtype="<f8").tobytes()).hexdigest()}
    meta = _meta(t0, argv)
    meta["table_path"] = None if table_path is None else str(table_path)
    code = 1 if summary["invalid"] > 0 else 0
    return _finish("tabulate", body, meta, out_dir, export,
                   lambda p: export_csv(table, p), code)


# ---------------------------------------------------------------------------
# Self-check registry
# ---------------------------------------------------------------------------

class _CheckContext:
    """Lazily shared solutions so independent checks reuse solves."""

    def __init__(self, resolved):
        self.resolved = resolved
        self.W = build_density(resolved)
        self.spec = build_cell_spec(resolved)
        self.spec_z = build_cell_spec(resolved, with_z=True)

    @cached_property
    def membrane(self):
        return membrane_density(self.W, self.spec)

    @cached_property
    def periodic(self):
        return membrane_density_periodic(self.W, self.spec)

    @cached_property
    def cosserat0(self):
        return cosserat_density(self.W, replace(self.spec, z=np.zeros(3)))

    def tol_abs(self, ref):
        return 2.0 * self.spec.tol * (1.0 + abs(ref))


def _check_integrand_growth(ctx):
    rep = verify_growth(ctx.W, n_samples=256)
    return rep.ok, {"n_samples": rep.n_samples,
                    "n_violations": rep.n_violations,
                    "max_norm": rep.max_norm}


def _check_density_forms(ctx):
    a, b = ctx.membrane, ctx.periodic
    tol = ctx.tol_abs(a.value)
    ok = b.value <= a.value + tol
    if ok and ctx.W.is_convex:
        ok = abs(a.value - b.value) <= tol
    return ok, {"zero_form": a.value, "periodic_form": b.value,
                "gap": a.value - b.value}


def _check_cosserat_at_zero(ctx):
    c, b = ctx.cosserat0, ctx.periodic
    ok = c.value >= b.value - ctx.tol_abs(b.value)
    return ok, {"cosserat_z0": c.value, "periodic_form": b.value}


def _check_identity_minz(ctx):
    sol, b0 = minimize_over_z(ctx.W, ctx.spec_z)
    b = ctx.periodic
    tol = ctx.tol_abs(b.value)
    ok = (abs(sol.value - b.value) <= tol
          and sol.value <= ctx.cosserat0.value + tol)
    return ok, {"min_over_z": sol.value, "membrane": b.value,
                "b0": [float(v) for v in b0]}


def _check_bounds(ctx):
    spec = ctx.spec_z
    sol = cosserat_density(ctx.W, spec)
    lo, up = ctx.W.growth.sandwich(spec.fbar, spec.z, spec.tol)
    return lo <= sol.value <= up, {"value": sol.value, "lower": lo, "upper": up}


def _check_z_midpoint_convexity(ctx):
    h = np.array([0.0, 0.0, 0.5])
    v0 = ctx.cosserat0.value
    vm = cosserat_density(ctx.W, replace(ctx.spec, z=-h)).value
    vp = cosserat_density(ctx.W, replace(ctx.spec, z=+h)).value
    ok = v0 <= 0.5 * (vm + vp) + ctx.tol_abs(v0)
    return ok, {"mid": v0, "mean": 0.5 * (vm + vp)}


def _check_qcx_upper(ctx):
    F = _matrix(ctx.resolved["cell"]["F"], (3, 3), "cell.F")
    sol = quasiconvexify(ctx.W, F, ctx.spec)
    raw = ctx.W.evaluate(ctx.spec.x0, F)
    ok = sol.value <= raw + ctx.tol_abs(raw)
    return ok, {"value": sol.value, "raw_value": raw}


def _check_table_roundtrip(ctx):
    W = pnorm_density(2.0)
    grid = SampleGrid(x_points=((0.5, 0.5),),
                      f_axes=(("range", -1.0, 1.0, 3),) + (("frozen", 0.0),) * 5)
    template = CellProblemSpec(fbar=np.zeros((3, 2)), mesh=CellMesh(2, 2, 2))
    table = build_table(W, grid, kind="membrane", template=template)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "check.fct"
        save_table(table, path)
        loaded = load_table(path)
    same = np.array_equal(table.values, loaded.values)
    val = query(loaded, (0.5, 0.5), np.array([[1.0, 0], [0, 0], [0, 0.0]]))
    ok = same and abs(val - 1.0) <= 1e-8
    return ok, {"roundtrip_equal": bool(same), "node_value": val}


def _check_scaled_affine(ctx):
    W = pnorm_density(2.0)
    fbar = np.array([[0.4, 0.0], [0.1, -0.2], [0.0, 0.3]])
    problem = ThinFilmProblem(W, SheetMesh(2, 3), fbar, epsilons=(0.5,), n3=2)
    mesh = problem.film_mesh()
    u = DiscreteField(mesh, affine_values(mesh, fbar))
    got = scaled_energy(problem, 0.5, u)
    want = 2.0 * problem.omega.area * float(np.sum(fbar ** 2))
    ok = abs(got - want) <= 1e-10 * (1.0 + abs(want))
    return ok, {"energy": got, "expected": want}


def _check_determinism(ctx):
    a = membrane_density(ctx.W, ctx.spec)
    b = membrane_density(ctx.W, ctx.spec)
    ok = (a.value == b.value) and (a.l_star == b.l_star)
    return ok, {"value": a.value, "repeat_value": b.value}


CHECKS = {
    "integrand-growth": _check_integrand_growth,
    "density-forms-agree": _check_density_forms,
    "cosserat-at-zero": _check_cosserat_at_zero,
    "identity-minz": _check_identity_minz,
    "bounds": _check_bounds,
    "z-midpoint-convexity": _check_z_midpoint_convexity,
    "qcx-upper": _check_qcx_upper,
    "table-roundtrip": _check_table_roundtrip,
    "scaled-affine": _check_scaled_affine,
    "determinism": _check_determinism,
}


def cmd_check(config, out_dir=None, export=None, argv=None):
    """Run the named internal consistency checks on the configured model."""
    t0 = time.perf_counter()
    resolved = resolve_config(config)
    names = resolved["check"]["names"]
    if names is None:
        names = list(CHECKS)
    for name in names:
        if not isinstance(name, str) or name not in CHECKS:
            raise ConfigError(
                f"config key 'check.names' holds unknown check '{name}'; "
                f"known: {', '.join(CHECKS)}")
    ctx = _CheckContext(resolved)
    rows = []
    for name in names:
        try:
            ok, detail = CHECKS[name](ctx)
        except Exception as exc:
            ok, detail = False, {"error": f"{type(exc).__name__}: {exc}"}
        rows.append({"name": name, "ok": bool(ok), "detail": detail})
    all_ok = all(r["ok"] for r in rows)
    body = {"command": "check", "config": resolved,
            "integrand_hash": ctx.W.content_hash(),
            "checks": rows, "all_ok": all_ok}

    def csv_writer(path):
        with open(path, "w") as fh:
            fh.write("check,ok\n")
            for r in rows:
                fh.write(f"{r['name']},{int(r['ok'])}\n")

    return _finish("check", body, _meta(t0, argv), out_dir, export,
                   csv_writer, 0 if all_ok else 1)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

# name: (function, help text, body keys echoed on the summary line)
_COMMANDS = {
    "density": (cmd_density, "membrane density at one (x0, fbar)",
                ("value", "l_star")),
    "cosserat": (cmd_cosserat, "Cosserat density at one (x0, fbar, z)",
                 ("value", "l_star")),
    "qcx": (cmd_qcx, "quasiconvex envelope at one 3x3 gradient",
            ("value", "raw_value")),
    "gamma": (cmd_gamma, "thickness sweep against the limit model", ("ok",)),
    "tabulate": (cmd_tabulate, "build a density table over a sampling grid",
                 ("values_sha256",)),
    "check": (cmd_check, "internal consistency checks", ("all_ok",)),
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="filmcell",
        description="Effective membrane densities for heterogeneous thin "
                    "films: cell problems, limit-model studies, tables.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", default=None, metavar="YAML",
                       help="run configuration file (defaults if omitted)")
        p.add_argument("--out", default=None, metavar="DIR",
                       help="directory for the report and artifacts")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--export", choices=("csv",), default=None,
                       help="also write a plot-ready CSV next to the report")
    args = parser.parse_args(argv)
    command, _, summary_keys = _COMMANDS[args.command]
    try:
        config = load_config(args.config) if args.config else resolve_config({})
        if args.seed is not None:
            config["seed"] = args.seed
            config = resolve_config(config)
        code, report = command(
            config, out_dir=args.out, export=args.export,
            argv=list(sys.argv[1:]) if argv is None else list(argv))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (CellSolveError, TableParseError, ExpressionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    parts = [f"{args.command}: exit {code}"]
    for key in summary_keys:
        if key in report["body"]:
            parts.append(f"{key}={report['body'][key]}")
    parts.append(f"body_sha256={report['body_sha256'][:16]}")
    if report["meta"].get("report_path"):
        parts.append(f"report={report['meta']['report_path']}")
    print("  ".join(parts))
    return code


if __name__ == "__main__":
    sys.exit(main())
