"""Tests for config resolution and the command line entry points."""

import json
import re
from dataclasses import replace

import numpy as np
import pytest
import yaml

import filmcell.cli as cli
import filmcell.tabulate as tabulate
import filmcell.thinfilm as thinfilm

from filmcell.cli import (
    cmd_check,
    cmd_cosserat,
    cmd_density,
    cmd_gamma,
    cmd_qcx,
    cmd_tabulate,
    main,
)
from filmcell.config import (_NULLABLE, _OPAQUE, DEFAULTS, ConfigError,
                             build_problem, load_config, resolve_config)


def quad_config(**cell_overrides):
    cell = {"fbar": [[0.6, 0.0], [0.0, 0.8], [0.0, 0.0]],
            "mesh": {"n1": 2, "n2": 2, "n3": 2}}
    cell.update(cell_overrides)
    return {"integrand": {"family": "pnorm", "params": {"p": 2.0}},
            "cell": cell}


def test_resolve_fills_defaults():
    cfg = resolve_config({})
    assert cfg["seed"] == 0
    assert cfg["integrand"]["family"] == "pnorm"
    assert cfg["cell"]["mesh"] == {"n1": 4, "n2": 4, "n3": 4}
    assert cfg["gamma"]["epsilons"] == [1.0, 0.5, 0.25, 0.125]
    # resolving twice is a no-op
    assert resolve_config(cfg) == cfg


def test_resolve_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="cell.fbarr"):
        resolve_config({"cell": {"fbarr": []}})
    with pytest.raises(ConfigError, match="mesh.n4"):
        resolve_config({"cell": {"mesh": {"n4": 2}}})


def test_resolve_validates_seed():
    with pytest.raises(ConfigError, match="seed"):
        resolve_config({"seed": -1})
    with pytest.raises(ConfigError, match="seed"):
        resolve_config({"seed": 2**64})
    assert resolve_config({"seed": 3})["seed"] == 3


def test_resolve_validates_node_limit():
    with pytest.raises(ConfigError, match=re.escape("'tabulate.node_limit'")):
        resolve_config({"tabulate": {"node_limit": -1}})
    assert resolve_config({"tabulate": {"node_limit": 0}})["tabulate"]["node_limit"] == 0


@pytest.mark.parametrize("origin", [[0.0, 0.0, 0.0], 0.0])
def test_gamma_omega_origin_must_be_a_pair(origin):
    cfg = {"gamma": {"omega": {"origin": origin}}}
    if not isinstance(origin, list):
        # the merge's type rule rejects a non-list before anything is built
        with pytest.raises(ConfigError, match="gamma.omega.origin"):
            resolve_config(cfg)
        return
    with pytest.raises(ConfigError, match="pairs"):
        build_problem(resolve_config(cfg))


def _leaves(tree, path=""):
    """(dotted path, default) of every non-opaque leaf of a defaults tree."""
    for key, val in tree.items():
        sub = f"{path}.{key}" if path else key
        if isinstance(val, dict):
            yield from _leaves(val, sub)
        elif val is not _OPAQUE:
            yield sub, val


def _nested(path, value):
    for key in reversed(path.split(".")):
        value = {key: value}
    return value


def _lookup(resolved, path):
    for key in path.split("."):
        resolved = resolved[key]
    return resolved


# values of the wrong type for a key of each type; None is wrong unless
# the key is nullable
WRONG_VALUES = {int: [2.5, "2", True, None, [2]],
                float: ["1.0", True, None, [1.0]],
                str: [3, None, ["a"], {"a": 1}],
                list: ["a", 0.0, 3, None, {"a": 1}]}


def test_every_default_key_is_type_checked():
    leaves = dict(_leaves(DEFAULTS))
    assert {p for p, v in leaves.items() if v is None} <= set(_NULLABLE)
    assert set(_NULLABLE) <= set(leaves)
    for path, default in leaves.items():
        kind = _NULLABLE.get(path, type(default))
        for bad in WRONG_VALUES[kind]:
            if bad is None and path in _NULLABLE:
                continue
            with pytest.raises(ConfigError, match=re.escape(f"'{path}'")):
                resolve_config(_nested(path, bad))
        if kind is float:       # a number key takes an integer, kept as given
            value = _lookup(resolve_config(_nested(path, 1)), path)
            assert value == 1 and type(value) is int
    for path in _NULLABLE:
        assert _lookup(resolve_config(_nested(path, None)), path) is None
    assert len(leaves) > 30


@pytest.mark.parametrize("command, text, key", [
    ("tabulate", "tabulate: {node_limit: '2'}", "'tabulate.node_limit'"),
    ("tabulate", "tabulate: {node_limit: 2.5}", "'tabulate.node_limit'"),
    ("tabulate", "tabulate: {path: 3}", "'tabulate.path'"),
    ("tabulate", "tabulate: {resume: 7}", "'tabulate.resume'"),
    ("gamma", "gamma: {source: table}", "unknown config key 'gamma.source'"),
    ("gamma", "gamma: {table_path: t.fct}", "unknown config key 'gamma.table_path'"),
    ("density", "integrand: {family: composite}", "unknown family 'composite'"),
    ("density", "cell: {mesh: {n1: 0}}", "'cell' is invalid: need n1"),
    ("gamma", "gamma: {epsilons: [null]}", "'gamma' is invalid: float()"),
    ("gamma", "gamma: {epsilons: []}", "'gamma' is invalid: need at least one thickness"),
    ("tabulate", "tabulate: {node_limit: -1}", "'tabulate.node_limit'"),
    ("check", "check: {names: [[1]]}", "'check.names'"),
    ("density", "cell: {inner: {max_iter: 0}}", "'cell' is invalid: need max_iter >= 1"),
    ("density", "cell: {inner: {grad_tol: -1.0}}", "'cell' is invalid: need grad_tol > 0"),
    ("density", "cell: {inner: {multistart: 0}}", "'cell' is invalid: need multistart >= 1"),
    ("density", "cell: {inner: {perturb_scale: -0.1}}",
     "'cell' is invalid: need perturb_scale >= 0"),
    ("density", "cell: {l_search: {golden_tol: 0.0}}", "'cell' is invalid: need golden_tol > 0"),
    ("gamma", "gamma: {limit_grad_tol: 0.0}", "'gamma' is invalid: need grad_tol > 0"),
    ("gamma", "gamma: {n3: 1}", "'gamma' is invalid: need n3 >= 2"),
    ("density", "integrand: {domain: [0.0, 0.0, 1.0, 1.0]}",
     "unknown config key 'integrand.domain'"),
    ("density", "integrand: {params: {p: 3.0, sclae: 2.0}}",
     ("'integrand' is invalid", "argument 'sclae'")),
    ("density", "integrand: {modulation: {kind: laminate_x3, level: [1.0, 5.0]}}",
     ("'integrand' is invalid", "argument 'level'")),
    ("density", "integrand: {growth: {beta_lower: 1.0, beta_upper: 2.0, q: 2.0}}",
     ("'integrand' is invalid", "argument 'q'")),
    ("density", "integrand: {modulation: [1]}",
     "config key 'integrand.modulation' must be a mapping"),
    ("density", "integrand: {growth: 5}", "config key 'integrand.growth' must be a mapping"),
    ("density", "integrand: {modulation: {kind: product, factors: [5]}}",
     ("'integrand' is invalid", "a modulation must be a mapping, got 5")),
    ("density", "integrand: {family: aniso_quadratic, params: "
     "{cmat: [[1.0]], entry_weights: [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]]}}",
     ("'integrand' is invalid", "at most one of cmat, entry_weights")),
    ("tabulate", "tabulate: {x_points: [[0.5]]}",
     ("'tabulate' is invalid", "two coordinates", "(0.5,)")),
    ("tabulate", "tabulate: {f_axes: [[range, 0.0, 1.0], [frozen, 0.0], [frozen, 0.0], "
     "[frozen, 0.0], [frozen, 0.0], [frozen, 0.0]]}",
     ("'tabulate' is invalid", "['range', 0.0, 1.0]", "[range, lo, hi, count]")),
    ("tabulate", "tabulate: {f_axes: [[range, -1.0, 1.0, 2.7], [frozen, 0.0], [frozen, 0.0], "
     "[frozen, 0.0], [frozen, 0.0], [frozen, 0.0]]}",
     ("'tabulate' is invalid", "axis count must be an integer, got 2.7")),
    ("tabulate", "tabulate: {kind: membrane}",
     ("'tabulate' is invalid", "membrane tables take no z axes")),
    ("tabulate", "tabulate: {kind: foo}", ("'tabulate' is invalid", "got 'foo'")),
    ("tabulate", "tabulate: {kind: cosserat, z_axes: null}",
     ("'tabulate' is invalid", "cosserat tables need z axes")),
    ("density", "integrand: {modulation: {kind: expression, expression: '1/0 + x3'}, "
     "growth: {beta_lower: 0.1, beta_upper: 10.0}}",
     ("'integrand' is invalid", "cannot evaluate '1/0 + x3'")),
    ("density", "integrand: {modulation: {kind: expression, expression: 'sin(x1, x2) + 2'}, "
     "growth: {beta_lower: 0.1, beta_upper: 10.0}}",
     ("'integrand' is invalid", "wrong number of arguments to sin()")),
    ("density", "integrand: {modulation: {kind: expression, expression: '(-8)**(1/3) + x3'}, "
     "growth: {beta_lower: 0.1, beta_upper: 10.0}}",
     ("'integrand' is invalid", "cannot evaluate '(-8)**(1/3) + x3': complex value")),
    ("gamma", "gamma: {loads: {f: ['1/0', '0', '0']}}",
     ("'gamma.loads.f'", "cannot evaluate '1/0'")),
], ids=["node_limit-str", "node_limit-float", "path-int", "resume-int",
        "source-table", "table_path-str", "family-composite", "mesh-n1-zero",
        "epsilons-null", "epsilons-empty", "node_limit-negative",
        "check-names-list", "max_iter-zero", "grad_tol-negative", "multistart-zero",
        "perturb_scale-negative", "golden_tol-zero", "limit_grad_tol-zero",
        "gamma-n3-one", "integrand-domain", "params-typo", "modulation-typo",
        "growth-extra-key", "modulation-list", "growth-number", "factors-number",
        "cmat-and-entry_weights", "x_point-one-coordinate", "range-axis-three-entries",
        "range-count-fraction", "kind-membrane-with-z-axes", "kind-unknown",
        "kind-cosserat-without-z-axes", "expression-division-by-zero",
        "expression-arity", "expression-complex", "load-division-by-zero"])
def test_main_names_the_key_of_a_bad_value(tmp_path, capsys, monkeypatch,
                                           command, text, key):
    # ``key`` is one fragment of the message or a tuple of them: the block
    # and the bad key or entry.
    received = []

    def spy(path):
        # never open the path: an int would be taken as a file descriptor
        received.append(path)
        raise AssertionError(f"load_table({path!r}) reached")
    monkeypatch.setattr(cli, "load_table", spy)
    cfg_path = tmp_path / "bad.yaml"
    cfg_path.write_text(text + "\n")
    assert main([command, "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert all(k in err for k in ((key,) if isinstance(key, str) else key)), err
    assert "Traceback" not in err
    assert received == []


@pytest.mark.parametrize("command, cell, code", [
    ("density", "{x3: 2.0}", 1),
    ("density", "{x3: 2.0, form: periodic}", 1),
    ("cosserat", "{x3: 2.0}", 1),
    ("qcx", "{x3: 2.0}", 1),
    ("tabulate", "{x3: 2.0}", 1),
    ("density", "{x0: [1.5, 0.5], form: periodic}", 0),
    ("qcx", "{x0: [1.5, 0.5]}", 0),
], ids=["density-x3", "density-periodic-x3", "cosserat-x3", "qcx-x3", "tabulate-x3",
        "density-periodic-x0", "qcx-x0"])
def test_every_command_bounds_x3_and_no_command_bounds_x_alpha(
        tmp_path, capsys, command, cell, code):
    # |x3| <= 1 is a property of the material point; the integrand has no
    # in-plane domain, so x0 outside the unit square is a valid point.
    path = tmp_path / "cfg.yaml"
    path.write_text(f"cell: {cell[:-1]}, mesh: {{n1: 2, n2: 2, n3: 2}}}}\n")
    assert main([command, "--config", str(path)]) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("config error: ") and "x3 = 2.0 outside [-1, 1]" in err
    else:
        assert err == ""


def test_load_config_errors(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("cell: [unclosed\n")
    with pytest.raises(ConfigError):
        load_config(path)
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.yaml")


def test_cmd_density_quadratic(tmp_path):
    code, report = cmd_density(quad_config(), out_dir=tmp_path)
    assert code == 0
    body = report["body"]
    assert abs(body["value"] - 1.0) < 1e-8
    assert body["l_star"] == 1.0
    assert body["warnings"] == []
    on_disk = json.loads((tmp_path / "density.json").read_text())
    assert on_disk["body_sha256"] == report["body_sha256"]


def test_cmd_density_deterministic_body():
    _, first = cmd_density(quad_config())
    _, second = cmd_density(quad_config())
    assert first["body_sha256"] == second["body_sha256"]
    assert first["body"] == second["body"]


def test_report_body_is_plain_json_without_timing():
    body = {"value": np.float64(0.1), "count": np.int64(3), "ok": np.bool_(True),
            "arr": np.arange(3.0), "pair": (1, 2.5),
            "grid": np.array([[1, 2]], dtype=np.int64),
            "study": {"seconds": 1.5, "rows": [
                {"energy": np.float64(np.nan), "elapsed": 2.0, "inf": float("inf")}]}}
    code, report = cli._finish("probe", body, {"elapsed": 0.25, "argv": None}, None)
    assert code == 0
    assert report["body_sha256"] == (
        "5ea269bea8e2a0da07020023d92f6a9c4c044d5ff0be2f978d0ba8b62a6071f4")
    got = report["body"]
    energy = got["study"]["rows"][0].pop("energy")
    assert type(energy) is float and np.isnan(energy)
    assert got == {"value": 0.1, "count": 3, "ok": True, "arr": [0.0, 1.0, 2.0],
                   "pair": [1, 2.5], "grid": [[1, 2]],
                   "study": {"rows": [{"inf": float("inf")}]}}
    assert [type(got[k]) for k in ("value", "count", "ok")] == [float, int, bool]
    assert type(got["grid"][0][0]) is int
    assert report["meta"] == {"elapsed": 0.25, "argv": None}


def test_cmd_density_boundary_warning_exit_code():
    cfg = {
        "integrand": {
            "family": "two_well",
            "params": {"well_plus": [[0.0, 0.0, 0.3],
                                     [0.0, 0.0, 0.0],
                                     [0.0, 0.0, 0.4]]},
        },
        "cell": {
            "mesh": {"n1": 2, "n2": 2, "n3": 2},
            "l_search": {"l_min": 0.01, "l_max": 0.05, "grid_count": 5},
        },
    }
    code, report = cmd_density(cfg)
    assert code == 2
    assert "l-search-boundary" in report["body"]["warnings"]


P3_LAMINATE = {"family": "pnorm", "params": {"p": 3.0},
               "modulation": {"kind": "laminate_x3", "levels": [1.0, 3.0],
                              "breaks": [0.0]}}


@pytest.mark.parametrize("max_iter,code,warnings", [
    (1, 2, ["l-search-boundary", "not-converged"]), (500, 0, [])])
def test_cosserat_exit_code_flags_an_unconverged_inner_descent(
        tmp_path, max_iter, code, warnings):
    cfg = {"integrand": P3_LAMINATE,
           "cell": {"fbar": [[0.5, 0.0], [0.0, -0.3], [0.0, 0.2]],
                    "z": [0.1, 0.0, 0.4], "mesh": {"n1": 2, "n2": 2, "n3": 2},
                    "inner": {"max_iter": max_iter}}}
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert main(["cosserat", "--config", str(path), "--out", str(tmp_path)]) == code
    body = json.loads((tmp_path / "cosserat.json").read_text())["body"]
    assert body["warnings"] == warnings
    assert (body["record"]["diagnostics"]["inner"]["status"] == "max_iter") == (code == 2)


@pytest.mark.parametrize("command,solver", [
    ("density", "membrane_density"), ("qcx", "quasiconvexify")])
def test_density_and_qcx_exit_2_on_an_unconverged_winner(
        tmp_path, monkeypatch, command, solver):
    # Their convex cells are solved exactly by the first evaluation, so
    # the winner's status is set to the one a capped descent reports.
    real = getattr(cli, solver)

    def capped(*args, **kwargs):
        sol = real(*args, **kwargs)
        diag = sol.diagnostics
        diag.get("inner", diag)["status"] = "max_iter"
        return sol
    monkeypatch.setattr(cli, solver, capped)
    cfg = {"integrand": P3_LAMINATE, "cell": {"mesh": {"n1": 2, "n2": 2, "n3": 2}}}
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 2
    body = json.loads((tmp_path / f"{command}.json").read_text())["body"]
    assert body["warnings"] == ["not-converged"]


def test_cmd_cosserat_adds_transverse_term():
    cfg = quad_config(z=[0.0, 0.0, 0.5])
    code, report = cmd_cosserat(cfg)
    assert code == 0
    assert abs(report["body"]["value"] - 1.25) < 1e-8
    assert report["body"]["z"] == [0.0, 0.0, 0.5]


def test_cmd_qcx_reports_relaxation_gap():
    cfg = {
        "integrand": {
            "family": "two_well",
            "params": {"well_plus": [[0.7, 0.0, 0.0],
                                     [0.0, 0.0, 0.0],
                                     [0.0, 0.0, 0.0]]},
        },
        "cell": {"F": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                 "mesh": {"n1": 4, "n2": 1, "n3": 4}},
    }
    code, report = cmd_qcx(cfg)
    assert code == 0
    body = report["body"]
    assert body["value"] <= 1e-3
    assert abs(body["raw_value"] - 0.49) < 1e-10
    assert body["relaxation_gap"] > 0.4


def test_cmd_gamma_cell_source(tmp_path):
    cfg = {
        "integrand": {
            "family": "pnorm",
            "modulation": {"kind": "laminate_x3", "levels": [1.0, 3.0],
                           "breaks": [0.0]},
        },
        "cell": {"mesh": {"n1": 2, "n2": 2, "n3": 2}},
        "gamma": {
            "omega": {"n1": 2, "n2": 2},
            "n3": 2,
            "fbar_bc": [[0.5, 0.0], [0.0, -0.3], [0.0, 0.2]],
            "epsilons": [1.0, 0.5],
        },
    }
    code, report = cmd_gamma(cfg, out_dir=tmp_path, export="csv")
    assert code == 0
    body = report["body"]
    assert abs(body["study"]["limit_energy"] - 1.52) < 1e-6
    assert body["ok"] is True
    assert all(abs(g) < 1e-6 for g in body["gaps"])
    csv_lines = (tmp_path / "gamma.csv").read_text().strip().split("\n")
    assert csv_lines[0].startswith("epsilon,")
    assert len(csv_lines) == 3


# A loaded study whose limit descent, capped at one iteration, ends at
# max_iter while every film row converges.
LOADED_GAMMA = {
    "integrand": {"family": "pnorm", "params": {"p": 2.0}},
    "cell": {"mesh": {"n1": 2, "n2": 2, "n3": 2}},
    "gamma": {
        "omega": {"n1": 3, "n2": 3},
        "n3": 2,
        "fbar_bc": [[0.3, 0.0], [0.0, 0.0], [0.0, 0.1]],
        "epsilons": [1.0],
        "loads": {"g0_top": [0.0, 0.0, 0.4], "g0_bottom": [0.0, 0.0, -0.4],
                  "f": ["0.1*x1", "0", "0"]},
    },
}


def _cap_limit_iterations(monkeypatch, module):
    real = module.build_problem

    def capped(resolved):
        problem = real(resolved)
        problem.limit_inner = replace(problem.limit_inner, max_iter=1)
        return problem
    monkeypatch.setattr(module, "build_problem", capped)


def test_cmd_gamma_flags_an_unconverged_limit(monkeypatch):
    _cap_limit_iterations(monkeypatch, cli)
    code, report = cmd_gamma(LOADED_GAMMA)
    body = report["body"]
    assert body["study"]["limit_info"]["status"] == "max_iter"
    assert body["ok"] is False
    assert "not-converged" in body["warnings"]
    assert code == 2


def _cell_solves_at_max_iter(monkeypatch, module, hit=lambda spec: True):
    """Make ``module.cosserat_density`` report a winner that ran out of
    iterations at every spec for which ``hit(spec)`` holds."""
    real = module.cosserat_density

    def capped(W, spec, *args, **kwargs):
        sol = real(W, spec, *args, **kwargs)
        if hit(spec):
            sol.diagnostics["inner"]["status"] = "max_iter"
        return sol
    monkeypatch.setattr(module, "cosserat_density", capped)


def test_cmd_gamma_flags_an_unconverged_cell_solve_of_the_limit(monkeypatch):
    _cell_solves_at_max_iter(monkeypatch, thinfilm)
    code, report = cmd_gamma(LOADED_GAMMA)
    body = report["body"]
    info = body["study"]["limit_info"]
    assert info["cell_not_converged"] == info["cell_solves"] > 0
    assert info["cell_lookups"] > info["cell_solves"]
    assert body["ok"] is False
    assert body["warnings"] == ["not-converged"]
    assert code == 2


def test_cmd_tabulate_marks_an_unconverged_node_invalid(tmp_path, monkeypatch):
    _cell_solves_at_max_iter(monkeypatch, tabulate, hit=lambda spec: spec.z[2] > 0)
    path = tmp_path / "cfg.yaml"
    path.write_text("cell: {mesh: {n1: 2, n2: 2, n3: 2}}\n")
    assert main(["tabulate", "--config", str(path), "--out", str(tmp_path)]) == 1
    body = json.loads((tmp_path / "tabulate.json").read_text())["body"]
    assert body["summary"]["invalid"] == 3
    table = tabulate.load_table(tmp_path / "density_table.fct")
    # the default grid: f00 in {-1, 0, 1} times z2 in {-1, 0, 1}
    assert table.mask.reshape(3, 3).tolist() == [[1, 1, 2]] * 3


def test_cmd_tabulate_writes_a_complete_table(tmp_path):
    tab_cfg = {
        "integrand": {"family": "pnorm", "params": {"p": 2.0}},
        "cell": {"mesh": {"n1": 2, "n2": 2, "n3": 2}},
        "tabulate": {
            "kind": "cosserat",
            "x_points": [[0.5, 0.5]],
            "f_axes": [
                ["range", -0.6, 0.6, 5],
                ["frozen", 0.0], ["frozen", 0.0], ["frozen", 0.0],
                ["frozen", 0.0], ["frozen", 0.0],
            ],
            "z_axes": [["frozen", 0.0], ["frozen", 0.0],
                       ["range", -0.5, 0.5, 5]],
            "path": "quad.fct",
        },
    }
    code, report = cmd_tabulate(tab_cfg, out_dir=tmp_path)
    assert code == 0
    body = report["body"]
    assert body["summary"]["pending"] == 0
    assert body["summary"]["invalid"] == 0
    assert len(body["values_sha256"]) == 64
    assert (tmp_path / "quad.fct").exists()


def test_cmd_check_full_suite():
    code, report = cmd_check({})
    assert code == 0
    body = report["body"]
    assert body["all_ok"] is True
    names = [c["name"] for c in body["checks"]]
    assert "integrand-growth" in names
    assert "identity-minz" in names
    assert len(names) == 10
    assert all(c["ok"] for c in body["checks"])


def test_cmd_check_subset_and_unknown():
    code, report = cmd_check({"check": {"names": ["determinism"]}})
    assert code == 0
    assert [c["name"] for c in report["body"]["checks"]] == ["determinism"]
    with pytest.raises(ConfigError, match="check.names"):
        cmd_check({"check": {"names": ["not-a-check"]}})
    code, report = cmd_check({"check": {"names": []}})
    assert code == 0
    assert report["body"]["checks"] == []


def test_cmd_check_repeat_is_byte_identical():
    cfg = {"check": {"names": ["bounds", "identity-minz"]},
           "cell": {"mesh": {"n1": 2, "n2": 2, "n3": 2}}}
    _, first = cmd_check(cfg)
    _, second = cmd_check(cfg)
    assert json.dumps(first["body"], sort_keys=True) == json.dumps(
        second["body"], sort_keys=True)
    assert first["body_sha256"] == second["body_sha256"]


def test_export_csv_requires_out_dir():
    with pytest.raises(ConfigError, match="--out"):
        cmd_density(quad_config(), export="csv")


def test_main_density_end_to_end(tmp_path, capsys):
    cfg_path = tmp_path / "density.yaml"
    cfg_path.write_text(yaml.safe_dump(quad_config()))
    out = tmp_path / "out"
    code = main(["density", "--config", str(cfg_path), "--out", str(out),
                 "--export", "csv"])
    assert code == 0
    printed = capsys.readouterr().out
    assert printed.startswith("density: exit 0")
    assert "value=" in printed and "l_star=" in printed
    assert "body_sha256=" in printed
    report = json.loads((out / "density.json").read_text())
    assert abs(report["body"]["value"] - 1.0) < 1e-8
    csv_text = (out / "density.csv").read_text()
    assert csv_text.startswith("quantity,value")


def test_main_seed_override(tmp_path):
    cfg_path = tmp_path / "density.yaml"
    cfg_path.write_text(yaml.safe_dump(quad_config()))
    out = tmp_path / "out"
    code = main(["density", "--config", str(cfg_path), "--out", str(out),
                 "--seed", "11"])
    assert code == 0
    report = json.loads((out / "density.json").read_text())
    assert report["body"]["config"]["seed"] == 11


def test_main_reports_config_errors(tmp_path, capsys):
    cfg_path = tmp_path / "broken.yaml"
    cfg_path.write_text("cell:\n  fbarr: 3\n")
    assert main(["density", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "cell.fbarr" in err
    assert main(["density", "--config", str(tmp_path / "missing.yaml")]) == 1
    assert "error" in capsys.readouterr().err


def test_main_refuses_a_non_positive_expression_modulation(tmp_path, capsys):
    cfg_path = tmp_path / "negative.yaml"
    cfg_path.write_text(
        "integrand: {modulation: {kind: expression, expression: 'x3 - 5'}, "
        "growth: {beta_lower: 0.1, beta_upper: 10.0}}\n"
        "cell: {fbar: [[0.3, 0.0], [0.0, 0.2], [0.0, 0.0]], mesh: {n1: 2, n2: 2, n3: 2}}\n")
    out = tmp_path / "out"
    assert main(["density", "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "modulation 'x3 - 5' must be positive" in err and "Traceback" not in err
    assert not (out / "density.json").exists()


def test_main_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_main_check_subset(tmp_path, capsys):
    cfg_path = tmp_path / "check.yaml"
    cfg_path.write_text(yaml.safe_dump(
        {"check": {"names": ["scaled-affine", "determinism"]},
         "cell": {"mesh": {"n1": 2, "n2": 2, "n3": 2}}}))
    assert main(["check", "--config", str(cfg_path)]) == 0
    assert "all_ok=True" in capsys.readouterr().out


def test_cmd_check_rejects_names_that_are_not_a_list(tmp_path, capsys):
    with pytest.raises(ConfigError, match="check.names"):
        cmd_check({"check": {"names": "bounds"}})
    cfg_path = tmp_path / "check.yaml"
    cfg_path.write_text("check:\n  names: bounds\n")
    assert main(["check", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert "check.names" in err and "unknown check" not in err


@pytest.mark.parametrize("command", ["density", "cosserat", "qcx", "gamma",
                                     "tabulate", "check"])
def test_main_help_for_every_command(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert "--config" in capsys.readouterr().out


def test_every_exported_name_resolves():
    import importlib
    import pkgutil

    import filmcell

    checked = 0
    for info in pkgutil.iter_modules(filmcell.__path__):
        if info.name == "__main__":     # importing it runs the CLI
            continue
        module = importlib.import_module(f"filmcell.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"filmcell.{info.name}.{name}"
            checked += 1
    assert checked > 0


def test_package_names_are_module_exports():
    # what the package re-exports is public where it is defined
    import importlib
    import types

    import filmcell

    checked = 0
    for name, obj in vars(filmcell).items():
        if name.startswith("_") or isinstance(obj, types.ModuleType):
            continue
        module = importlib.import_module(obj.__module__)
        assert name in module.__all__, f"filmcell.{name} from {obj.__module__}"
        checked += 1
    assert checked > 0
