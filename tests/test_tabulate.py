"""Tests for density table building, interpolation, and the file format."""

import json
from itertools import product

import numpy as np
import pytest

from filmcell.cell import CellProblemSpec, membrane_density
from filmcell.field import CellMesh
from filmcell.integrand import (GrowthSpec, MaterialPoint, PlanarCheckerboard,
                                density_from_config, pnorm_density)
import filmcell.tabulate as tabulate_mod
from filmcell.tabulate import (
    INVALID,
    PENDING,
    VALID,
    DensityTable,
    ExtrapolationError,
    SampleGrid,
    TableParseError,
    build_table,
    check_z_convexity,
    export_csv,
    interpolate_with_gradient,
    load_table,
    query,
    save_table,
)

FROZEN = ("frozen", 0.0)
W_QUAD = pnorm_density(p=2.0)
TEMPLATE = CellProblemSpec(fbar=np.zeros((3, 2)), mesh=CellMesh(2, 2, 2))


def membrane_grid(points=((0.5, 0.5),), count=3):
    return SampleGrid(
        x_points=points,
        f_axes=(("range", -0.5, 0.5, count),) + (FROZEN,) * 5,
    )


def cosserat_grid(count=3):
    return SampleGrid(
        x_points=((0.5, 0.5),),
        f_axes=(
            ("range", -0.5, 0.5, count),
            FROZEN, FROZEN,
            ("range", -0.4, 0.4, 2),
            FROZEN, FROZEN,
        ),
        z_axes=(FROZEN, FROZEN, ("range", -0.5, 0.5, count)),
    )


def test_axis_validation():
    with pytest.raises(ValueError, match="at least two"):
        SampleGrid(((0.5, 0.5),), (("range", 0.0, 1.0, 1),) + (FROZEN,) * 5)
    with pytest.raises(ValueError, match="lo < hi"):
        SampleGrid(((0.5, 0.5),), (("range", 1.0, 0.0, 3),) + (FROZEN,) * 5)
    with pytest.raises(ValueError, match="unknown axis"):
        SampleGrid(((0.5, 0.5),), (("linspace", 0.0, 1.0, 3),) + (FROZEN,) * 5)
    with pytest.raises(ValueError, match="six entries"):
        SampleGrid(((0.5, 0.5),), (FROZEN,) * 5)
    with pytest.raises(ValueError, match="three entries"):
        SampleGrid(((0.5, 0.5),), (FROZEN,) * 6, z_axes=(FROZEN,) * 2)
    with pytest.raises(ValueError, match="sample point"):
        SampleGrid((), (FROZEN,) * 6)
    for count in (2.7, "3", True):
        with pytest.raises(ValueError, match="axis count must be an integer"):
            SampleGrid(((0.5, 0.5),), (("range", -1.0, 1.0, count),) + (FROZEN,) * 5)


def test_kind_validation():
    with pytest.raises(ValueError, match="membrane.*cosserat"):
        build_table(W_QUAD, membrane_grid(), "effective", TEMPLATE)
    with pytest.raises(ValueError, match="need z axes"):
        build_table(W_QUAD, membrane_grid(), "cosserat", TEMPLATE)
    with pytest.raises(ValueError, match="no z axes"):
        build_table(W_QUAD, cosserat_grid(), "membrane", TEMPLATE)


def test_grid_shape_and_node_args():
    grid = cosserat_grid(count=3)
    assert grid.shape == (1, 3, 1, 1, 2, 1, 1, 1, 1, 3)
    assert grid.node_count == 18
    x_alpha, fbar, z = grid.node_args(0)
    assert x_alpha == (0.5, 0.5)
    assert fbar[0, 0] == -0.5 and fbar[1, 1] == -0.4
    assert z[2] == -0.5
    # last node sits at the top corner of every active axis
    _, fbar, z = grid.node_args(grid.node_count - 1)
    assert fbar[0, 0] == 0.5 and fbar[1, 1] == 0.4 and z[2] == 0.5


def test_grid_config_round_trip():
    grid = cosserat_grid()
    assert SampleGrid.from_config(grid.to_config()) == grid


def test_build_membrane_nodes_exact():
    grid = membrane_grid()
    table = build_table(W_QUAD, grid, "membrane", TEMPLATE)
    assert table.pending == 0 and table.invalid == 0
    assert table.provenance["integrand_hash"] == W_QUAD.content_hash()
    for f00, want in [(-0.5, 0.25), (0.0, 0.0), (0.5, 0.25)]:
        fbar = np.zeros((3, 2))
        fbar[0, 0] = f00
        assert abs(query(table, (0.5, 0.5), fbar) - want) < 1e-10
    assert table.summary() == {
        "kind": "membrane", "nodes": 3, "pending": 0, "invalid": 0,
        "integrand_hash": W_QUAD.content_hash()}


def test_fully_frozen_grid_matches_direct_solve():
    fbar = np.array([[0.3, 0.1], [0.0, -0.2], [0.1, 0.0]])
    axes = tuple(("frozen", float(v)) for v in fbar.ravel())
    grid = SampleGrid(((0.25, 0.75),), axes)
    table = build_table(W_QUAD, grid, "membrane", TEMPLATE)
    from dataclasses import replace
    spec = replace(TEMPLATE, fbar=fbar, x0=MaterialPoint((0.25, 0.75), 0.0))
    direct = membrane_density(W_QUAD, spec)
    assert table.values.ravel()[0] == direct.value
    assert query(table, (0.25, 0.75), fbar) == direct.value


def test_node_limit_and_resume_bitwise():
    grid = cosserat_grid()
    fresh = build_table(W_QUAD, grid, "cosserat", TEMPLATE)
    part = build_table(W_QUAD, grid, "cosserat", TEMPLATE, node_limit=7)
    assert part.pending == grid.node_count - 7
    done = build_table(W_QUAD, grid, "cosserat", TEMPLATE, resume=part)
    assert done.pending == 0
    assert np.array_equal(done.values, fresh.values)
    assert np.array_equal(done.mask, fresh.mask)


def test_node_limit_must_not_be_negative():
    grid = cosserat_grid()
    with pytest.raises(ValueError, match="node_limit"):
        build_table(W_QUAD, grid, "cosserat", TEMPLATE, node_limit=-1)
    empty = build_table(W_QUAD, grid, "cosserat", TEMPLATE, node_limit=0)
    assert empty.pending == grid.node_count


def test_resume_rejects_mismatched_provenance():
    grid = cosserat_grid()
    part = build_table(W_QUAD, grid, "cosserat", TEMPLATE, node_limit=2)
    other = pnorm_density(p=2.0, scale=2.0)
    with pytest.raises(ValueError, match="provenance"):
        build_table(other, grid, "cosserat", TEMPLATE, resume=part)
    with pytest.raises(ValueError, match="grid"):
        build_table(W_QUAD, cosserat_grid(count=4), "cosserat", TEMPLATE,
                    resume=part)


def test_resume_rejects_a_table_of_an_older_solver_version():
    grid = cosserat_grid()
    part = build_table(W_QUAD, grid, "cosserat", TEMPLATE, node_limit=2)
    assert part.provenance["solver_version"] == tabulate_mod.SOLVER_VERSION == 4
    old = DensityTable(part.grid, part.kind, part.values, part.mask,
                       dict(part.provenance, solver_version=3))
    with pytest.raises(ValueError, match="provenance"):
        build_table(W_QUAD, grid, "cosserat", TEMPLATE, resume=old)


def test_query_interpolates_between_nodes():
    table = build_table(W_QUAD, membrane_grid(), "membrane", TEMPLATE)
    fbar = np.zeros((3, 2))
    fbar[0, 0] = 0.25
    # chord of the quadratic between the nodes at 0 and 0.5
    assert abs(query(table, (0.5, 0.5), fbar) - 0.125) < 1e-10


def test_query_second_sample_point():
    grid = membrane_grid(points=((0.2, 0.2), (0.8, 0.8)))
    table = build_table(W_QUAD, grid, "membrane", TEMPLATE)
    fbar = np.zeros((3, 2))
    fbar[0, 0] = 0.5
    assert abs(query(table, (0.8, 0.8), fbar) - 0.25) < 1e-10


def test_query_argument_errors():
    mem = build_table(W_QUAD, membrane_grid(), "membrane", TEMPLATE)
    cos = build_table(W_QUAD, cosserat_grid(), "cosserat", TEMPLATE)
    fbar = np.zeros((3, 2))
    with pytest.raises(ValueError, match="x_alpha"):
        query(mem, (0.9, 0.9), fbar)
    off = fbar.copy()
    off[0, 1] = 0.3
    with pytest.raises(ExtrapolationError, match="frozen at"):
        query(mem, (0.5, 0.5), off)
    big = fbar.copy()
    big[0, 0] = 2.0
    with pytest.raises(ExtrapolationError, match="outside"):
        query(mem, (0.5, 0.5), big)
    with pytest.raises(ValueError, match="no z"):
        query(mem, (0.5, 0.5), fbar, z=np.zeros(3))
    with pytest.raises(ValueError, match="pass a z"):
        query(cos, (0.5, 0.5), fbar)


def reference_interp(table, x_alpha, fbar, z):
    """The multilinear formula summed over itertools.product of every
    axis's corners, frozen axes included with weight 1.0."""
    grid = table.grid
    coords = list(np.asarray(fbar, dtype=float).reshape(3, 2).ravel())
    if grid.z_axes is not None:
        if z is None:
            raise ValueError("this table is sampled in z; pass a z query")
        coords += list(np.asarray(z, dtype=float).reshape(3))
    elif z is not None:
        raise ValueError("membrane tables take no z argument")
    matches = [i for i, p in enumerate(grid.x_points)
               if abs(x_alpha[0] - p[0]) <= 1e-9 and abs(x_alpha[1] - p[1]) <= 1e-9]
    if not matches:
        raise ValueError(
            f"x_alpha {tuple(float(v) for v in x_alpha)} is not a stored sample "
            f"point; the table holds {list(grid.x_points)}")
    per_axis = []
    for k, (spec, q) in enumerate(zip(grid.axes, coords)):
        if spec[0] == "frozen":
            if abs(q - spec[1]) > 1e-9:
                raise ExtrapolationError(
                    f"axis {k} is frozen at {spec[1]}, queried at {q}")
            per_axis.append([(0, 1.0, 0.0)])
            continue
        lo, hi, count = spec[1], spec[2], spec[3]
        tol = 1e-9 * (1.0 + abs(hi - lo))
        if q < lo - tol or q > hi + tol:
            raise ExtrapolationError(f"axis {k}: query {q} outside [{lo}, {hi}]")
        h = (hi - lo) / (count - 1)
        t = (q - lo) / h
        if abs(t - round(t)) <= 1e-9 * (1.0 + abs(t)):
            t = float(round(t))
        i = int(min(max(np.floor(t), 0), count - 2))
        s = min(max(t - i, 0.0), 1.0)
        per_axis.append([(i, 1.0 - s, -1.0 / h), (i + 1, s, 1.0 / h)])
    value = 0.0
    dcoord = np.zeros(len(coords))
    for corner in product(*per_axis):
        idx = (matches[0],) + tuple(c[0] for c in corner)
        if table.mask[idx] != VALID:
            state = "pending" if table.mask[idx] == PENDING else "invalid"
            raise ValueError(f"table node {idx} is {state}; cannot interpolate")
        v = float(table.values[idx])
        w = 1.0
        for c in corner:
            w *= c[1]
        value += w * v
        for k, c in enumerate(corner):
            if c[2] == 0.0:
                continue
            wd = c[2]
            for k2, c2 in enumerate(corner):
                if k2 != k:
                    wd *= c2[1]
            dcoord[k] += wd * v
    dz = dcoord[6:] if grid.z_axes is not None else np.zeros(3)
    return value, dcoord[:6].reshape(3, 2), dz


def outcome(fn, *args):
    """Result bytes and shapes, or the exception type and message."""
    try:
        value, dF, dz = fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return (np.float64(value).tobytes(), dF.tobytes(), dz.tobytes(),
            dF.shape, dz.shape)


def random_table(rng, kind, active, x_points=((0.25, 0.5), (0.75, 0.5))):
    """Table with random values over a grid with ``active`` range axes."""
    n_axes = 9 if kind == "cosserat" else 6
    axes = [("frozen", float(v)) for v in rng.uniform(-0.5, 0.5, n_axes)]
    for k in rng.choice(n_axes, active, replace=False):
        lo = float(rng.uniform(-1.0, 0.0))
        axes[k] = ("range", lo, lo + float(rng.uniform(0.5, 2.0)),
                   int(rng.integers(2, 5)))
    grid = SampleGrid(x_points, tuple(axes[:6]),
                      tuple(axes[6:]) if kind == "cosserat" else None)
    mask = np.full(grid.shape, VALID, dtype=np.uint8)
    return DensityTable(grid, kind, rng.normal(size=grid.shape), mask)


def split_query(grid, coords):
    z = coords[6:] if grid.z_axes is not None else None
    return coords[:6].reshape(3, 2), z


@pytest.mark.parametrize("kind", ["membrane", "cosserat"])
@pytest.mark.parametrize("active", [1, 2, 3])
def test_query_matches_reference_formula_bitwise(kind, active):
    rng = np.random.default_rng([active, len(kind)])
    table = random_table(rng, kind, active)
    grid = table.grid
    queries = []
    for i in range(grid.node_count):
        x_alpha, fbar, z = grid.node_args(i)
        queries.append((x_alpha, fbar, z))
        # within 1e-10 of a node: snapped onto it
        jitter = np.concatenate([fbar.ravel(), [] if z is None else z])
        for k, spec in enumerate(grid.axes):
            if spec[0] == "range":
                jitter[k] += rng.uniform(-1e-10, 1e-10)
        queries.append((x_alpha, *split_query(grid, jitter)))
    lo = np.array([a[1] for a in grid.axes])
    hi = np.array([a[1] if a[0] == "frozen" else a[2] for a in grid.axes])
    for coords in rng.uniform(lo, hi, (300, len(grid.axes))):
        x_alpha = grid.x_points[rng.integers(len(grid.x_points))]
        queries.append((x_alpha, *split_query(grid, coords)))
    for q in queries:
        got = outcome(interpolate_with_gradient, table, *q)
        assert got == outcome(reference_interp, table, *q)
        assert len(got) == 5
    # a node returns its stored value exactly
    x_alpha, fbar, z = grid.node_args(grid.node_count - 1)
    assert query(table, x_alpha, fbar, z) == table.values.ravel()[-1]


def test_query_errors_match_reference():
    rng = np.random.default_rng(5)
    table = random_table(rng, "cosserat", 3)
    grid = table.grid
    active = [k for k, a in enumerate(grid.axes) if a[0] == "range"]
    frozen = [k for k, a in enumerate(grid.axes) if a[0] == "frozen"]
    mid = np.array([a[1] if a[0] == "frozen" else 0.5 * (a[1] + a[2])
                    for a in grid.axes])
    cases = []
    off = mid.copy()
    off[frozen[0]] += 1e-6
    cases.append(off)                       # frozen mismatch
    early, late = mid.copy(), mid.copy()
    early[active[0]] = grid.axes[active[0]][2] + 1.0
    early[active[-1]] = grid.axes[active[-1]][1] - 1.0
    late[active[-1]] = grid.axes[active[-1]][1] - 1.0
    cases += [early, late]                  # first failing axis is reported
    both = off.copy()
    both[active[-1]] = 99.0
    cases.append(both)
    for coords in cases:
        q = ((0.25, 0.5), *split_query(grid, coords))
        got = outcome(interpolate_with_gradient, table, *q)
        assert got[0] is ExtrapolationError
        assert got == outcome(reference_interp, table, *q)
    # pending and invalid corners, each found first in corner order
    fbar, z = split_query(grid, mid)
    for state, word in ((PENDING, "pending"), (INVALID, "invalid")):
        broken = DensityTable(grid, "cosserat", table.values, table.mask.copy())
        broken.mask.ravel()[rng.choice(broken.mask.size, 5, replace=False)] = state
        for x_alpha in grid.x_points:
            got = outcome(interpolate_with_gradient, broken, x_alpha, fbar, z)
            assert got == outcome(reference_interp, broken, x_alpha, fbar, z)
        with pytest.raises(ValueError, match=word):
            for i in range(grid.node_count):
                interpolate_with_gradient(broken, *grid.node_args(i))
    # z on a membrane table, no z on a cosserat table, unknown x_alpha
    mem = random_table(rng, "membrane", 2)
    for tab, args in ((mem, ((0.25, 0.5), fbar, z)), (table, ((0.25, 0.5), fbar, None)),
                      (table, ((0.3, 0.5), fbar, z))):
        got = outcome(interpolate_with_gradient, tab, *args)
        assert got[0] is ValueError
        assert got == outcome(reference_interp, tab, *args)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("axis_kind", ["frozen", "range"])
def test_query_rejects_non_finite_coordinates(bad, axis_kind):
    rng = np.random.default_rng(6)
    table = random_table(rng, "cosserat", 3)
    grid = table.grid
    mid = np.array([a[1] if a[0] == "frozen" else 0.5 * (a[1] + a[2])
                    for a in grid.axes])
    plain = query(table, (0.25, 0.5), *split_query(grid, mid))
    for k in [k for k, a in enumerate(grid.axes) if a[0] == axis_kind]:
        coords = mid.copy()
        coords[k] = bad
        for fn in (query, interpolate_with_gradient):
            with pytest.raises(ExtrapolationError, match=f"axis {k}[ :]"):
                fn(table, (0.25, 0.5), *split_query(grid, coords))
    assert query(table, (0.25, 0.5), *split_query(grid, mid)) == plain


def test_interpolation_gradient_matches_differences():
    table = build_table(W_QUAD, cosserat_grid(count=4), "cosserat", TEMPLATE)
    fbar = np.zeros((3, 2))
    fbar[0, 0] = 0.13
    fbar[1, 1] = -0.2
    z = np.array([0.0, 0.0, 0.17])
    val, dF, dz = interpolate_with_gradient(table, (0.5, 0.5), fbar, z)
    h = 1e-7
    for idx in [(0, 0), (1, 1)]:
        delta = np.zeros((3, 2))
        delta[idx] = h
        fd = (query(table, (0.5, 0.5), fbar + delta, z)
              - query(table, (0.5, 0.5), fbar - delta, z)) / (2 * h)
        assert abs(fd - dF[idx]) < 1e-6
    fd = (query(table, (0.5, 0.5), fbar, z + [0, 0, h])
          - query(table, (0.5, 0.5), fbar, z - [0, 0, h])) / (2 * h)
    assert abs(fd - dz[2]) < 1e-6
    # frozen axes carry no slope
    assert dF[0, 1] == 0.0 and dF[2, 0] == 0.0
    assert dz[0] == 0.0 and dz[1] == 0.0


def test_save_load_round_trip(tmp_path):
    table = build_table(W_QUAD, cosserat_grid(), "cosserat", TEMPLATE)
    path = tmp_path / "table.fct"
    save_table(table, path)
    assert path.read_bytes().startswith(b"filmcell-table")
    back = load_table(path)
    assert back.grid == table.grid
    assert back.kind == table.kind
    assert np.array_equal(back.values, table.values)
    assert np.array_equal(back.mask, table.mask)
    assert back.provenance == table.provenance


@pytest.mark.parametrize("tamper,message", [
    (lambda d: d.replace(b"filmcell-table", b"some-other-file"), "bad magic"),
    (lambda d: d.replace(b"filmcell-table 1", b"filmcell-table 99"),
     "format version"),
    (lambda d: d.replace(b"end-header\n", b"end-heater\n"), "sentinel"),
    (lambda d: d[:-8], "truncated value block"),
    (lambda d: d[:-1] + bytes([d[-1] ^ 0xFF]), "checksum mismatch"),
    (lambda d: d.replace(b"kind: membrane", b"kind: bogus"), "table kind"),
    (lambda d: d.replace(b"kind: membrane", b"kind: cosserat"), "need z axes"),
    (lambda d: d.replace(d[d.index(b"provenance: "):d.index(b"\nmask: ")],
                         b"provenance: []"), "bad header field"),
])
def test_load_rejects_corruption(tmp_path, tamper, message):
    table = build_table(W_QUAD, membrane_grid(), "membrane", TEMPLATE)
    path = tmp_path / "table.fct"
    save_table(table, path)
    (tmp_path / "bad.fct").write_bytes(tamper(path.read_bytes()))
    with pytest.raises(TableParseError, match=message):
        load_table(tmp_path / "bad.fct")


def test_load_rejects_an_integrand_edited_past_its_hash(tmp_path):
    # The value checksum does not cover the header: an edited integrand
    # would let a checkerboard table pass as in-plane constant.
    checker = pnorm_density(p=2.0, modulation=PlanarCheckerboard((1.0, 2.0), 0.5))
    grid = SampleGrid(((0.25, 0.25),), (FROZEN,) * 6, (FROZEN,) * 3)
    path = tmp_path / "table.fct"
    save_table(build_table(checker, grid, "cosserat", TEMPLATE), path)
    assert load_table(path).provenance["integrand_hash"] == checker.content_hash()
    head, sep, block = path.read_bytes().partition(b"end-header\n")
    lines = head.decode().splitlines()
    i = next(k for k, line in enumerate(lines) if line.startswith("provenance: "))
    provenance = json.loads(lines[i][len("provenance: "):])
    provenance["integrand"]["modulation"] = {"kind": "constant", "value": 1.0}
    lines[i] = "provenance: " + json.dumps(provenance, sort_keys=True)
    edited = tmp_path / "edited.fct"
    edited.write_bytes("\n".join(lines + [""]).encode() + sep + block)
    with pytest.raises(TableParseError, match="integrand_hash"):
        load_table(edited)


def test_load_rejects_a_pending_node_marked_valid(tmp_path):
    table = build_table(W_QUAD, membrane_grid(), "membrane", TEMPLATE, node_limit=1)
    assert list(table.mask.ravel()) == [VALID, PENDING, PENDING]
    path = tmp_path / "table.fct"
    save_table(table, path)
    edited = tmp_path / "edited.fct"
    edited.write_bytes(path.read_bytes().replace(b"mask: 010000", b"mask: 010100"))
    with pytest.raises(TableParseError, match="non-finite value as valid"):
        load_table(edited)


def test_load_rejects_bad_mask(tmp_path):
    table = build_table(W_QUAD, membrane_grid(), "membrane", TEMPLATE)
    good = tmp_path / "table.fct"
    save_table(table, good)
    data = good.read_bytes()
    mask_hex = bytes(table.mask.ravel().astype(np.uint8)).hex()
    short = tmp_path / "short.fct"
    short.write_bytes(data.replace(f"mask: {mask_hex}".encode(),
                                   b"mask: 0101"))
    with pytest.raises(TableParseError, match="mask length"):
        load_table(short)
    codes = tmp_path / "codes.fct"
    codes.write_bytes(data.replace(f"mask: {mask_hex}".encode(),
                                   b"mask: 010107"))
    with pytest.raises(TableParseError, match="unknown codes"):
        load_table(codes)


def test_lying_lower_bound_invalidates_nodes():
    # the claimed quartic coercivity overtakes the true quadratic
    # density beyond |Fbar| = 1, so the outer nodes fail the sandwich
    # audit while the inner span stays usable
    liar = pnorm_density(p=2.0, growth=GrowthSpec(4.0, 0.9, 10.0))
    grid = SampleGrid(((0.5, 0.5),),
                      (("range", -2.0, 2.0, 5),) + (FROZEN,) * 5)
    table = build_table(liar, grid, "membrane", TEMPLATE)
    assert list(table.mask.ravel()) == [2, 1, 1, 1, 2]
    fbar = np.zeros((3, 2))
    fbar[0, 0] = 0.5
    assert abs(query(table, (0.5, 0.5), fbar) - 0.5) < 1e-10
    fbar[0, 0] = 1.5
    with pytest.raises(ValueError, match="cannot interpolate"):
        query(table, (0.5, 0.5), fbar)


def test_check_z_convexity_reports():
    table = build_table(W_QUAD, cosserat_grid(), "cosserat", TEMPLATE)
    report = check_z_convexity(table)
    assert report["violations"] == 0
    assert report["checked"] > 0
    assert report["worst_excess"] <= 1e-8
    # no z axes: nothing to check
    mem = build_table(W_QUAD, membrane_grid(), "membrane", TEMPLATE)
    assert check_z_convexity(mem)["checked"] == 0
    # a bump in the middle of a z line is a genuine violation
    bumped = DensityTable(table.grid, table.kind, table.values.copy(),
                          table.mask.copy(), table.provenance)
    mid = [0] * bumped.values.ndim
    mid[-1] = 1
    bumped.values[tuple(mid)] += 1.0
    report = check_z_convexity(bumped)
    assert report["violations"] >= 1
    assert report["worst_excess"] > 0.1


def test_export_csv(tmp_path):
    table = build_table(W_QUAD, cosserat_grid(), "cosserat", TEMPLATE)
    path = tmp_path / "table.csv"
    export_csv(table, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == ("x1,x2,f00,f01,f10,f11,f20,f21,z0,z1,z2,value,mask")
    assert len(lines) == 1 + table.grid.node_count
    first = lines[1].split(",")
    assert float(first[0]) == 0.5
    assert float(first[2]) == -0.5
    assert int(first[-1]) == 1
    # round-trippable floats by construction
    x_alpha, fbar, z = table.grid.node_args(0)
    assert float(first[11]) == table.values.ravel()[0]


def test_table_integrand_round_trip():
    table = build_table(W_QUAD, membrane_grid(), "membrane", TEMPLATE)
    W2 = density_from_config(table.provenance["integrand"])
    assert W2.content_hash() == W_QUAD.content_hash()
    pt = MaterialPoint((0.5, 0.5), 0.0)
    F = np.array([[0.3, 0.0, 0.1], [0.0, 0.2, 0.0], [0.0, 0.0, -0.4]])
    assert W2.evaluate(pt, F) == W_QUAD.evaluate(pt, F)
