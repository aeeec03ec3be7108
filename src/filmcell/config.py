"""Run configuration: defaults, validation, and object construction.

A run is described by one YAML file with five blocks (integrand, cell,
gamma, tabulate, check) plus a seed.  Loading deep-merges the user file
over the package defaults and rejects unknown keys by their dotted path,
so typos surface as diagnostics instead of silently running defaults.
The merge also checks each value's type, once: it must have the type of
its default, except that a number key also takes an integer (a boolean
is never a number), and the keys listed in ``_NULLABLE`` take null or
the type listed there.  The integrand's ``params``, ``modulation`` and
``growth`` are opaque mappings: each holds its constructor's keywords,
and the constructor refuses an unknown key.  Shapes and cross-key rules
are checked where the objects are built, and a bad value met there is a
ConfigError that names its block.  The fully resolved mapping (every
defaulted field filled in, user values kept as given) is what reports
embed as provenance.

Loads and heterogeneities may be given as restricted closed-form
expression strings in (x1, x2, x3); surface loads are evaluated on
their face (x3 = +1 on top, -1 on bottom).
"""

from __future__ import annotations

import copy
from contextlib import contextmanager

import numpy as np
import yaml

from .expr import compile_vector
from .field import CellMesh, SheetMesh
from .integrand import MaterialPoint, density_from_config
from .cell import CellProblemSpec, InnerConfig, LSearchConfig
from .solvers import SolverConfig
from .thinfilm import LoadSystem, ThinFilmProblem
from .tabulate import SampleGrid, _check_kind

__all__ = [
    "ConfigError", "DEFAULTS", "load_config", "resolve_config",
    "build_density", "build_cell_spec", "build_loads", "build_problem",
    "build_grid",
]


class ConfigError(ValueError):
    """Malformed run configuration; the message names the offending key."""


# Opaque subtrees are mappings of constructor keywords (families and
# modulation kinds differ in theirs): the merge checks only that they are
# mappings, and the constructors refuse unknown keys.
_OPAQUE = object()

DEFAULTS = {
    "seed": 0,
    "integrand": {
        "family": "pnorm",
        "params": _OPAQUE,
        "modulation": _OPAQUE,
        "growth": _OPAQUE,
    },
    "cell": {
        "x0": [0.5, 0.5],
        "x3": 0.0,
        "fbar": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
        "z": [0.0, 0.0, 0.0],
        "F": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
        "form": "zero",
        "mesh": {"n1": 4, "n2": 4, "n3": 4},
        "l_search": {"l_min": 1e-2, "l_max": 1e2, "grid_count": 17,
                     "golden_tol": 0.02},
        "inner": {"max_iter": 500, "grad_tol": 1e-8, "multistart": 3,
                  "perturb_scale": 0.1},
        "tol": 1e-8,
    },
    "gamma": {
        "omega": {"origin": [0.0, 0.0], "lengths": [1.0, 1.0], "n1": 8, "n2": 8},
        "n3": 8,
        "fbar_bc": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
        "epsilons": [1.0, 0.5, 0.25, 0.125],
        "loads": {"f": None, "g_top": None, "g_bottom": None,
                  "g0_top": None, "g0_bottom": None},
        "limit_grad_tol": 1e-10,
    },
    "tabulate": {
        "kind": "cosserat",
        "x_points": [[0.5, 0.5]],
        "f_axes": [["range", -1.0, 1.0, 3], ["frozen", 0.0], ["frozen", 0.0],
                   ["frozen", 0.0], ["frozen", 0.0], ["frozen", 0.0]],
        "z_axes": [["frozen", 0.0], ["frozen", 0.0], ["range", -1.0, 1.0, 3]],
        "node_limit": None,
        "resume": None,
        "path": "density_table.fct",
    },
    "check": {
        "names": None,
    },
}

# Keys that may be null, with the type they take otherwise.
_NULLABLE = {"tabulate.z_axes": list, "tabulate.node_limit": int,
             "tabulate.resume": str, "check.names": list,
             **{f"gamma.loads.{k}": list for k in DEFAULTS["gamma"]["loads"]}}


def _merge(defaults, user, path):
    if isinstance(defaults, dict) or defaults is _OPAQUE:
        if user is None:
            user = {}
        if not isinstance(user, dict):
            raise ConfigError(f"config key '{path}' must be a mapping")
        if defaults is _OPAQUE:
            return copy.deepcopy(user)
        out = {}
        for key, dval in defaults.items():
            sub = f"{path}.{key}" if path else key
            if key in user:
                out[key] = _merge(dval, user[key], sub)
            elif dval is _OPAQUE:
                continue
            elif isinstance(dval, dict):
                out[key] = _merge(dval, {}, sub)
            else:
                out[key] = copy.deepcopy(dval)
        for key in user:
            if key not in defaults:
                sub = f"{path}.{key}" if path else key
                raise ConfigError(f"unknown config key '{sub}'")
        return out
    if user is None and path in _NULLABLE:
        return None
    kind = _NULLABLE.get(path, type(defaults))
    if isinstance(user, bool) or not isinstance(
            user, (int, float) if kind is float else kind):
        what = "a number" if kind is float else kind.__name__
        null = " or null" if path in _NULLABLE else ""
        raise ConfigError(f"config key '{path}' must be {what}{null}, "
                          f"got {user!r}")
    return copy.deepcopy(user)


def resolve_config(user: dict | None) -> dict:
    """Deep-merge a user mapping over the defaults; reject unknown keys."""
    user = {} if user is None else user
    if not isinstance(user, dict):
        raise ConfigError("top-level config must be a mapping")
    resolved = _merge(DEFAULTS, user, "")
    if not 0 <= resolved["seed"] < 2 ** 64:
        raise ConfigError("config key 'seed' must be an integer in [0, 2^64)")
    if (resolved["tabulate"]["node_limit"] or 0) < 0:
        raise ConfigError("config key 'tabulate.node_limit' must be non-negative")
    return resolved


def load_config(path) -> dict:
    """Read a YAML run configuration and resolve it against the defaults."""
    try:
        with open(path) as fh:
            user = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if user is not None and not isinstance(user, dict):
        raise ConfigError(f"config file {path} must hold a mapping")
    return resolve_config(user)


def _matrix(val, shape, path):
    try:
        arr = np.asarray(val, dtype=float)
        return arr.reshape(shape)
    except (TypeError, ValueError) as exc:
        raise ConfigError(
            f"config key '{path}' must be a {shape} array: {exc}") from exc


@contextmanager
def _block(name):
    """Report a bad value met while building block ``name`` as a ConfigError."""
    try:
        yield
    except ConfigError:
        raise
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ConfigError(f"config block '{name}' is invalid: {exc}") from exc


def build_density(resolved: dict):
    with _block("integrand"):
        return density_from_config(resolved["integrand"])


def build_cell_spec(resolved: dict, with_z=False) -> CellProblemSpec:
    cc = resolved["cell"]
    ls, ic = cc["l_search"], cc["inner"]
    fbar = _matrix(cc["fbar"], (3, 2), "cell.fbar")
    z = _matrix(cc["z"], (3,), "cell.z") if with_z else None
    with _block("cell"):
        return CellProblemSpec(
            fbar=fbar,
            x0=MaterialPoint(cc["x0"], cc["x3"]),
            z=z, mesh=CellMesh(**cc["mesh"]),
            l_search=LSearchConfig(
                l_min=float(ls["l_min"]), l_max=float(ls["l_max"]),
                grid_count=ls["grid_count"],
                golden_tol=float(ls["golden_tol"])),
            inner=InnerConfig(
                max_iter=ic["max_iter"], grad_tol=float(ic["grad_tol"]),
                multistart=ic["multistart"],
                perturb_scale=float(ic["perturb_scale"]),
                seed=resolved["seed"] % (2 ** 32)),
            tol=float(cc["tol"]))


def _load_entry(val, path, face_x3=None):
    """None, a constant 3-vector, or three expression strings."""
    if val is None:
        return None
    if any(isinstance(c, str) for c in val):
        try:
            fn = compile_vector([str(c) for c in val])
        except ValueError as exc:
            raise ConfigError(f"config key '{path}': {exc}") from exc
        if face_x3 is None:
            return lambda x1, x2, x3: fn(x1, x2, x3)
        return lambda x1, x2: fn(x1, x2, np.full(np.shape(x1), face_x3))
    return _matrix(val, (3,), path)


def build_loads(resolved: dict) -> LoadSystem:
    lc = resolved["gamma"]["loads"]
    return LoadSystem(
        f=_load_entry(lc["f"], "gamma.loads.f"),
        g=(_load_entry(lc["g_top"], "gamma.loads.g_top", +1.0),
           _load_entry(lc["g_bottom"], "gamma.loads.g_bottom", -1.0)),
        g0=(_load_entry(lc["g0_top"], "gamma.loads.g0_top", +1.0),
            _load_entry(lc["g0_bottom"], "gamma.loads.g0_bottom", -1.0)))


def build_problem(resolved: dict) -> ThinFilmProblem:
    gc = resolved["gamma"]
    cell_spec = build_cell_spec(resolved, with_z=True)
    with _block("gamma"):
        return ThinFilmProblem(
            W=build_density(resolved),
            omega=SheetMesh(**gc["omega"]),
            fbar_bc=_matrix(gc["fbar_bc"], (3, 2), "gamma.fbar_bc"),
            loads=build_loads(resolved),
            epsilons=gc["epsilons"],
            n3=gc["n3"],
            limit_inner=SolverConfig(grad_tol=float(gc["limit_grad_tol"])),
            cell_template=cell_spec)


def build_grid(resolved: dict) -> SampleGrid:
    tc = resolved["tabulate"]
    with _block("tabulate"):
        grid = SampleGrid.from_config(tc)
        _check_kind(tc["kind"], grid, ValueError)
        return grid
