"""Every shipped config, run through the CLI, reports the pinned numbers.

``config_reports.json`` holds, per ``configs/*.yaml``, the exit code,
the warnings and the reported numbers: value, ``l_star``, b0, the limit
energy and every gap, the ``qcx`` raw value, each check's details, and
a table's values as ``load_table`` reads them back.  Floats compare at
1e-9 relative.  ``body_sha256`` is not pinned: it also hashes the
resolved config, so a change to the config surface moves it while no
number moves.

A change that moves a reported value on purpose rewrites the golden file
with ``PYTHONPATH=src python tests/test_configs.py`` and says which
values moved, by how much and why.
"""

import json
import tempfile
from pathlib import Path

import pytest

from filmcell import cli
from filmcell.tabulate import load_table

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted(p.stem for p in (ROOT / "configs").glob("*.yaml"))
GOLDEN = Path(__file__).with_name("config_reports.json")
REL = 1e-9
FLOOR = 1e-15   # roundoff zeros, such as the gaps of an exact limit


def pinned(name, out):
    """Run one config through ``cli.main`` into ``out``; return what it pins."""
    cmd = name.split("_")[0]
    code = cli.main([cmd, "--config", str(ROOT / "configs" / f"{name}.yaml"),
                     "--out", str(out)])
    body = json.loads((out / f"{cmd}.json").read_text())["body"]
    got = {"exit": code, "warnings": body.get("warnings", [])}
    for key in ("value", "l_star", "raw_value", "ok", "all_ok", "gaps"):
        if key in body:
            got[key] = body[key]
    diag = body.get("record", {}).get("diagnostics", {})
    if "b0" in diag:
        got["b0"] = diag["b0"]
    if "study" in body:
        got["limit_energy"] = body["study"]["limit_energy"]
    for row in body.get("checks", []):
        got[f"checks.{row['name']}"] = {"ok": row["ok"], **row["detail"]}
    if cmd == "tabulate":
        table = load_table(out / body["config"]["tabulate"]["path"])
        got["table.values"] = table.values.ravel().tolist()
    return got


def _flat(obj, key=""):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _flat(v, f"{key}.{k}" if key else k)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _flat(v, f"{key}[{i}]")
    else:
        yield key, obj


def _close(got, want):
    if isinstance(want, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        return abs(got - want) <= REL * abs(want) + FLOOR
    return got == want


@pytest.mark.parametrize("name", CONFIGS)
def test_config_reports_the_pinned_numbers(name, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert name in golden, f"{name}: no golden entry; rewrite {GOLDEN.name}"
    want = dict(_flat(golden[name]))
    got = dict(_flat(pinned(name, tmp_path)))
    assert got.keys() == want.keys(), (name, sorted(got.keys() ^ want.keys()))
    moved = [f"{k}: {got[k]!r} != {want[k]!r}"
             for k in want if not _close(got[k], want[k])]
    assert not moved, f"{name}: " + "; ".join(moved)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        reports = {name: pinned(name, Path(tmp) / name) for name in CONFIGS}
    GOLDEN.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n")
