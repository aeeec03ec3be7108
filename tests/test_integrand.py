"""Density families, heterogeneity modulations, and growth metadata."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from filmcell.expr import ExpressionError, compile_expression
from filmcell.integrand import (ConstantModulation, DomainError, ExpressionModulation,
                                GrowthSpec, MaterialPoint, PlanarCheckerboard,
                                ProductModulation, TransverseLaminate,
                                aniso_quadratic_density,
                                density_from_config, frobenius, join,
                                modulation_from_config, pnorm_density,
                                two_well_density, verify_growth)
import filmcell.integrand as integrand_mod
from oracles import (central_difference, rank_one_well, two_well_laminate,
                     two_well_raw, two_well_relaxed_compatible)

MID = MaterialPoint((0.5, 0.5), 0.0)


def rand_F(rng, scale=1.0):
    return scale * rng.normal(size=(3, 3))


# -- families ----------------------------------------------------------------

def test_pnorm_values():
    W = pnorm_density(2.0)
    F = np.diag([1.0, 2.0, 3.0])
    assert W.evaluate(MID, F) == pytest.approx(14.0, rel=1e-14)
    W3 = pnorm_density(3.0, scale=2.0)
    assert W3.evaluate(MID, F) == pytest.approx(2.0 * 14.0 ** 1.5, rel=1e-14)


def test_join_and_frobenius():
    fbar = np.arange(6, dtype=float).reshape(3, 2)
    z = np.array([7.0, 8.0, 9.0])
    F = join(fbar, z)
    assert F.shape == (3, 3)
    assert np.array_equal(F[:, :2], fbar)
    assert np.array_equal(F[:, 2], z)
    assert frobenius(F) == pytest.approx(np.linalg.norm(F), rel=1e-14)


def test_aniso_entry_weights():
    # entry weights fill the diagonal of C, so W = 0.5 sum w_ij F_ij^2
    w = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]])
    W = aniso_quadratic_density(entry_weights=w)
    F = rand_F(np.random.default_rng(1))
    assert W.evaluate(MID, F) == pytest.approx(
        0.5 * float(np.sum(w * F ** 2)), rel=1e-12)


def test_aniso_unit_weights_by_default():
    # neither C nor weights: W = 0.5 |F|^2, as the config without params gives
    W = aniso_quadratic_density()
    assert np.array_equal(W.family.cmat, np.eye(9))
    assert W.to_config() == density_from_config({"family": "aniso_quadratic"}).to_config()
    F = rand_F(np.random.default_rng(5))
    assert W.evaluate(MID, F) == pytest.approx(0.5 * float(np.sum(F * F)), rel=1e-14)


def test_aniso_cmat_spd_required():
    with pytest.raises(ValueError):
        aniso_quadratic_density(cmat=-np.eye(9))


def test_two_well_values_and_tie():
    A = np.zeros((3, 3))
    A[0, 0] = 0.7
    W = two_well_density(A)
    rng = np.random.default_rng(2)
    for _ in range(5):
        F = rand_F(rng)
        assert W.evaluate(MID, F) == pytest.approx(two_well_raw(F, A),
                                                   rel=1e-12)
    # equidistant point: energy is the common distance, stress from well +
    mid = np.zeros((3, 3))
    assert W.evaluate(MID, mid) == pytest.approx(0.49, rel=1e-14)
    assert np.allclose(W.energy_stress_array(1.0, mid)[1], 2.0 * (mid - A))


@pytest.mark.parametrize("make", [
    lambda: pnorm_density(2.0),
    lambda: pnorm_density(3.0, scale=0.5),
    lambda: aniso_quadratic_density(entry_weights=np.full((3, 3), 2.0)),
    lambda: two_well_density(np.diag([0.5, 0.0, 0.3])),
])
def test_stress_matches_fd(make):
    W = make()
    rng = np.random.default_rng(3)
    for _ in range(5):
        F = rand_F(rng) + 0.1
        S = W.energy_stress_array(1.0, F)[1]
        G = central_difference(lambda X: W.evaluate(MID, X), F)
        assert np.allclose(S, G, rtol=1e-6, atol=1e-6)


# -- modulations -------------------------------------------------------------

def _energy_stress_cases():
    rng = np.random.default_rng(21)
    A = rng.normal(size=(9, 9))
    well = np.array([[0.4, 0.2, 0.0], [0.0, 0.0, 0.0], [-0.1, 0.0, 0.3]])
    lam = TransverseLaminate((1.0, 3.0), (0.0,))
    check = PlanarCheckerboard((1.0, 2.0), 0.5)
    return [
        ("p2", pnorm_density(2.0), 0),
        ("p3-zero-rows", pnorm_density(3.0, scale=1.5), 5),
        ("aniso-full-C", aniso_quadratic_density(cmat=A @ A.T + 9.0 * np.eye(9)), 0),
        ("two-well-ties", two_well_density(well), 6),
        ("laminate", pnorm_density(2.0, modulation=lam), 0),
        ("checkerboard", pnorm_density(3.0, modulation=check), 3),
    ]


@pytest.mark.parametrize("label,W,n_zero", _energy_stress_cases())
def test_energy_stress_array_matches_separate_calls_bitwise(label, W, n_zero):
    rng = np.random.default_rng(len(label))
    F = rng.normal(size=(40, 3, 3))
    F[:n_zero] = 0.0
    if label == "two-well-ties":
        # F orthogonal to the well, A2 = -A1: |F - A1|^2 == |F + A1|^2 exactly
        F[n_zero:12] = 0.0
        F[n_zero:12, 1, :] = rng.normal(size=(12 - n_zero, 3))
        d1, d2 = W.family._dists(F)
        assert np.sum(d1 == d2) >= 12
    xa = rng.uniform(0.0, 1.0, (40, 2))
    x3 = rng.uniform(-1.0, 1.0, 40)
    modv = W.modulation.value(xa, x3)
    e, S = W.energy_stress_array(modv, F)
    assert e.tobytes() == W.energy_array(modv, F).tobytes()
    assert S.tobytes() == W.stress_array(modv, F).tobytes()
    assert e.shape == (40,) and S.shape == (40, 3, 3)


def test_laminate_modulation_layers():
    a = TransverseLaminate((1.0, 3.0), (0.0,))
    assert a.value(np.array([0.5, 0.5]), -0.5) == 1.0
    assert a.value(np.array([0.5, 0.5]), 0.5) == 3.0
    assert a.bounds() == (1.0, 3.0)


def test_checkerboard_modulation():
    a = PlanarCheckerboard((1.0, 2.0), 0.25)
    v00 = a.value(np.array([0.1, 0.1]), 0.0)
    v10 = a.value(np.array([0.35, 0.1]), 0.0)
    assert {float(v00), float(v10)} == {1.0, 2.0}


def test_product_modulation_multiplies():
    a = ProductModulation([ConstantModulation(2.0),
                           TransverseLaminate((1.0, 3.0), (0.0,))])
    assert a.value(np.array([0.5, 0.5]), 0.5) == 6.0
    lo, hi = a.bounds()
    assert (lo, hi) == (2.0, 6.0)


def test_expression_modulation_through_config():
    W = density_from_config({
        "family": "pnorm",
        "modulation": {"kind": "expression",
                       "expression": "1 + 0.5*x3*x3"},
        "growth": {"p": 2.0, "beta_lower": 1.0, "beta_upper": 1.5},
    })
    F = np.eye(3)
    assert W.evaluate(MaterialPoint((0.5, 0.5), 1.0), F) == pytest.approx(
        4.5, rel=1e-12)


def test_expression_modulation_needs_growth():
    # no derivable bounds without explicit growth constants
    with pytest.raises(ValueError):
        density_from_config({"family": "pnorm",
                             "modulation": {"kind": "expression",
                                            "expression": "1 + x1"}})


@pytest.mark.parametrize("text", [
    "1/0 + x3", "2 % 0 + x1", "10**400 + x3", "9**9**9", "1" + "0" * 400 + " + x3",
    "min()", "step() + 1", "sin(x1, x2) + 2"])
def test_expression_refuses_what_it_cannot_evaluate(text):
    # constant arithmetic fails at compile time, not at the first solve;
    # a second argument to sin would be numpy's ``out`` array
    with pytest.raises(ExpressionError):
        compile_expression(text)


def test_expression_literals_are_floats_and_min_max_take_several_arguments():
    x1 = np.array([0.25, 0.75])
    assert compile_expression("7 / 2 + 0*x1")(x1, 0.0, 0.0).tolist() == [3.5, 3.5]
    assert compile_expression("2**-2 + max(x1)")(x1, 0.0, 0.0).tolist() == [0.5, 1.0]
    assert compile_expression("min(x1, 0.5, 1)")(x1, 0.0, 0.0).tolist() == [0.25, 0.5]


@pytest.mark.parametrize("text, smallest", [("x3 - 5", "-6.0"), ("log(x3 + 0.5)", "nan")])
def test_expression_modulation_refuses_a_value_that_is_not_positive(text, smallest):
    # log(-0.5) is NaN, which is not positive either
    mod = ExpressionModulation(text)
    with pytest.raises(ValueError) as info, np.errstate(invalid="ignore"):
        mod.value(np.array([[0.5, 0.5]] * 2), np.array([0.9, -1.0]))
    assert str(info.value) == (f"modulation {text!r} must be positive, "
                               f"its smallest value is {smallest}")
    assert ExpressionModulation("exp(x3)").value(np.array([0.5, 0.5]), -1.0) == np.exp(-1.0)


@pytest.mark.parametrize("cfg,const", [
    ({"kind": "constant", "value": 2.0}, True),
    ({"kind": "laminate_x3", "levels": [1.0, 3.0], "breaks": [0.0]}, True),
    ({"kind": "checkerboard_xalpha", "values": [1.0, 2.0], "cell": 0.5}, False),
    ({"kind": "expression", "expression": "1 + 0.1*x3"}, True),
    ({"kind": "expression", "expression": "1 + 0.1*x1"}, False),
    ({"kind": "product", "factors": [{"kind": "laminate_x3"},
                                     {"kind": "constant", "value": 2.0}]}, True),
    ({"kind": "product", "factors": [{"kind": "laminate_x3"},
                                     {"kind": "checkerboard_xalpha"}]}, False),
])
def test_in_plane_constant_detector(cfg, const):
    assert modulation_from_config(cfg).in_plane_constant is const


# -- domain and growth -------------------------------------------------------

def test_domain_checked():
    W = pnorm_density(2.0)
    with pytest.raises(DomainError):
        W.evaluate(MaterialPoint((0.5, 0.5), 2.0), np.eye(3))


def test_growth_defaults_scale_with_modulation():
    W = pnorm_density(2.0, modulation=TransverseLaminate((1.0, 3.0), (0.0,)))
    assert W.growth.p == 2.0
    assert W.growth.beta_lower == pytest.approx(1.0)
    assert W.growth.beta_upper == pytest.approx(3.0)


def test_growth_spec_validation():
    with pytest.raises(ValueError):
        GrowthSpec(1.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        GrowthSpec(2.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        GrowthSpec(2.0, 0.0, 1.0)


def test_verify_growth_accepts_correct_metadata():
    rep = verify_growth(pnorm_density(2.0), n_samples=128)
    assert rep.ok
    assert rep.n_samples == 128


def test_verify_growth_flags_wrong_lower_constant():
    W = density_from_config({
        "family": "pnorm", "params": {"p": 2.0},
        "growth": {"p": 2.0, "beta_lower": 5.0, "beta_upper": 6.0},
    })
    rep = verify_growth(W, n_samples=128)
    assert not rep.ok
    assert rep.n_violations > 0


@pytest.mark.parametrize("n", [1, 7, 512, 4096])
def test_halton_points_match_scipy_bitwise(n):
    from scipy.stats import qmc
    want = qmc.Halton(d=13, scramble=False).random(n)
    assert integrand_mod._halton(n).tobytes() == want.tobytes()


def test_cli_import_leaves_scipy_stats_out():
    src = str(Path(integrand_mod.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import filmcell.cli; "
            "sys.exit('scipy.stats' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code, src]).returncode == 0


def test_verify_growth_deterministic():
    a = verify_growth(pnorm_density(2.0), n_samples=64)
    b = verify_growth(pnorm_density(2.0), n_samples=64)
    assert a.max_norm == b.max_norm


# -- config round trips ------------------------------------------------------

@pytest.mark.parametrize("cfg", [
    {"family": "pnorm", "params": {"p": 2.5, "scale": 0.7}},
    {"family": "aniso_quadratic",
     "params": {"entry_weights": [[1, 2, 3], [4, 5, 6], [7, 8, 9]]}},
    {"family": "two_well",
     "params": {"well_plus": [[0.5, 0, 0], [0, 0, 0], [0, 0, 0.2]]}},
    {"family": "pnorm",
     "modulation": {"kind": "laminate_x3", "levels": [1.0, 3.0],
                    "breaks": [0.0]}},
    {"family": "aniso_quadratic", "params": {"entry_weights": np.ones((3, 3))},
     "modulation": {"kind": "product", "factors": [
         {"kind": "laminate_x3", "levels": [1.0, 3.0], "breaks": [0.0]},
         {"kind": "constant", "value": 2.0}]}},
    {"family": "pnorm",
     "modulation": {"kind": "checkerboard_xalpha", "values": [1.0, 2.5],
                    "cell": 0.25, "origin": [0.1, 0.0]}},
    {"family": "pnorm",
     "modulation": {"kind": "expression", "expression": "1 + 0.5*x3*x3"},
     "growth": {"p": 2.0, "beta_lower": 1.0, "beta_upper": 1.5}},
    {"family": "aniso_quadratic",
     "params": {"cmat": (np.eye(9) + 0.1 * np.ones((9, 9))).tolist()}},
    {"family": "two_well",
     "params": {"well_plus": [[0.5, 0, 0], [0, 0, 0], [0, 0, 0.2]],
                "well_minus": [[0, 0, 0.3], [0, 0.1, 0], [0, 0, 0]]}},
])
def test_config_round_trip(cfg):
    W = density_from_config(cfg)
    W2 = density_from_config(W.to_config())
    assert W2.to_config() == W.to_config()
    assert W.content_hash() == W2.content_hash()
    rng = np.random.default_rng(4)
    for _ in range(3):
        F = rand_F(rng)
        pt = MaterialPoint((0.25, 0.75), 0.3)
        assert W.evaluate(pt, F) == W2.evaluate(pt, F)


def test_content_hash_separates_families():
    assert pnorm_density(2.0).content_hash() != pnorm_density(2.5).content_hash()


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        density_from_config({"family": "mystery"})


# -- property-based ----------------------------------------------------------

@given(st.integers(0, 2 ** 32 - 1), st.floats(2.0, 4.0))
@settings(max_examples=20, deadline=None)
@example(seed=5102, p=4.0)      # the bound is attained: both sides differ by roundoff
def test_growth_sandwich_random_points(seed, p):
    W = pnorm_density(p, modulation=TransverseLaminate((1.0, 3.0), (0.0,)))
    rng = np.random.default_rng(seed)
    F = rand_F(rng, scale=2.0)
    pt = MaterialPoint((0.5, 0.5), float(rng.uniform(-1, 1)))
    val = W.evaluate(pt, F)
    n = float(np.linalg.norm(F))
    tol = 1e-12 * (1.0 + abs(val))
    assert W.growth.lower(n) <= val + tol
    assert val <= W.growth.upper(n) + tol


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=20, deadline=None)
def test_two_well_nonnegative_and_zero_at_wells(seed):
    rng = np.random.default_rng(seed)
    A = rand_F(rng, scale=0.5)
    W = two_well_density(A)
    assert W.evaluate(MID, A) == 0.0
    assert W.evaluate(MID, -A) == 0.0
    assert W.evaluate(MID, rand_F(rng)) >= 0.0


# -- the two-well's closed-form relaxation -------------------------------------

COLUMN_WELL = 0.7 * np.outer([1.0, 0.0, 0.0], [0.0, 0.0, 1.0])


def _near_the_wells(rng, A1, A2, n=16):
    """Gradients around the segment between the wells and beyond its ends."""
    theta = rng.uniform(-0.4, 1.4, n)[:, None, None]
    return theta * A1 + (1.0 - theta) * A2 + 0.2 * rng.normal(size=(n, 3, 3))


def _incompatible_pair(seed):
    A1, A2 = 0.5 * np.random.default_rng(seed).normal(size=(2, 3, 3))
    return A1, A2


@pytest.mark.parametrize("A", [rank_one_well(), COLUMN_WELL])
def test_two_well_relaxation_matches_both_oracles_for_compatible_wells(A):
    family = two_well_density(A).family
    F = _near_the_wells(np.random.default_rng(31), A, -A)
    Q = family.relaxed_energy(F)
    for F_i, q in zip(F, Q):
        assert abs(q - two_well_relaxed_compatible(F_i, A)) <= 1e-12
        assert abs(q - two_well_laminate(F_i, A, -A)) <= 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_two_well_relaxation_matches_the_laminate_for_incompatible_wells(seed):
    A1, A2 = _incompatible_pair(seed)
    family = two_well_density(A1, A2).family
    assert family.rank_one is None
    F = _near_the_wells(np.random.default_rng(seed + 40), A1, A2)
    for F_i, q in zip(F, family.relaxed_energy(F)):
        assert abs(q - two_well_laminate(F_i, A1, A2)) <= 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_two_well_relaxation_is_below_w_and_bitwise_w_off_the_band(seed):
    rng = np.random.default_rng(seed + 50)
    for A1, A2 in ((rank_one_well(), -rank_one_well()), _incompatible_pair(seed)):
        family = two_well_density(A1, A2).family
        F = _near_the_wells(rng, A1, A2, n=64)
        Q, E = family.relaxed_energy(F), family.energy(F)
        assert np.all(Q >= 0.0) and np.all(Q <= E)
        d1, d2 = family._dists(F)
        off = np.abs(d1 - d2) >= family.gap_sq
        assert off.any() and not off.all()
        assert Q[off].tobytes() == E[off].tobytes()
        assert np.all(Q[~off] < E[~off])
        assert all(np.float64(family.relaxed_energy(F_i)).tobytes() == q.tobytes()
                   for F_i, q in zip(F, Q))
    # equal wells: no band, and the envelope is the shifted quadratic itself
    same = two_well_density(COLUMN_WELL, COLUMN_WELL).family
    F = rng.normal(size=(8, 3, 3))
    assert same.relaxed_energy(F).tobytes() == same.energy(F).tobytes()
    # the midpoint of a column segment, where the unclipped form dips below 0
    assert two_well_density(COLUMN_WELL).family.relaxed_energy(0.5 * COLUMN_WELL) == 0.0


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_growth_helpers_match_inline_formulas(p, seed):
    rng = np.random.default_rng(seed)
    g = GrowthSpec(p, 0.7, 1.9)
    fbar = rng.normal(size=(3, 2))
    z = rng.normal(size=3)
    # the formulas the cell, table and CLI bound checks used to spell out
    fbar_p = float(np.sum(fbar ** 2)) ** (g.p / 2.0)
    z_p = float(np.sum(np.asarray(z) ** 2)) ** (g.p / 2.0)
    assert g.split_power(fbar) == fbar_p
    assert g.split_power(fbar, z) == fbar_p + z_p
    assert g.beta_upper * (g.split_power(fbar) + 1.0) == g.beta_upper * (fbar_p + 0.0 + 1.0)
    assert g.split_power(fbar, list(z)) == fbar_p + z_p
    for total, zz in ((fbar_p + z_p, z), (fbar_p, None)):
        slack = 1e-8 * (1.0 + total)
        assert g.sandwich(fbar, zz, 1e-8) == (g.beta_lower * total - slack,
                                              g.beta_upper * (total + 1.0) + slack)
    for old in (((g.beta_upper / g.beta_lower)
                 * (float(np.sum(fbar * fbar)) ** (g.p / 2.0) + 1.0)) ** (1.0 / g.p),
                ((g.beta_upper / g.beta_lower)
                 * (float(np.sum(fbar ** 2)) ** (g.p / 2.0) + 1.0)) ** (1.0 / g.p)):
        assert g.coercivity_radius(fbar) == old


def test_fiber_infimum_without_starts_raises_fiber_error():
    # a non-finite fbar gives a NaN coercivity radius, which drops every start
    from filmcell.solvers import SolveError

    W = pnorm_density(2.0)
    fbar = np.full((3, 2), np.nan)
    with pytest.raises(SolveError) as info:
        W.fiber_infimum(MID, fbar)
    assert info.value.diagnostics == {} and info.value.best_value is None


def test_unconverged_fiber_infimum_raises_with_its_multistart_diag(monkeypatch):
    from dataclasses import replace
    from filmcell.solvers import SolveError

    real, seen = integrand_mod.multistart_minimize, []

    def stalled(fun, starts, config):
        best, diag = real(fun, starts, config)
        seen.append(diag)
        return replace(best, status="max_iter"), diag
    monkeypatch.setattr(integrand_mod, "multistart_minimize", stalled)
    with pytest.raises(SolveError, match="did not converge") as info:
        pnorm_density(3.0).fiber_infimum(MID, np.full((3, 2), 0.2))
    assert info.value.diagnostics is seen[0]
    assert info.value.best_value == seen[0]["starts"][0]["value"]


def test_fiber_infimum_without_starts_names_the_coercivity_radius():
    from filmcell.solvers import SolveError

    with pytest.raises(SolveError, match="no fiber start lies within "
                                         "the coercivity radius"):
        pnorm_density(2.0).fiber_infimum(MID, np.full((3, 2), np.nan))
