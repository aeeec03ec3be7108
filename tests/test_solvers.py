"""Descent solver, line search, and multistart bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import filmcell.solvers as solvers_mod
from filmcell.solvers import (SolverConfig, golden_section, minimize_lbfgs,
                              multistart_minimize)


def quad(A, b):
    def fun(x):
        g = A @ x - b
        return 0.5 * float(x @ A @ x) - float(b @ x), g
    return fun


def test_lbfgs_quadratic_exact():
    rng = np.random.default_rng(0)
    M = rng.normal(size=(12, 12))
    A = M @ M.T + 12 * np.eye(12)
    b = rng.normal(size=12)
    res = minimize_lbfgs(quad(A, b), np.zeros(12))
    xstar = np.linalg.solve(A, b)
    assert res.status == "ok"
    assert res.converged
    assert np.linalg.norm(res.x - xstar) < 1e-6
    assert res.grad_norm <= 1e-8 * (1.0 + abs(res.value))


def test_lbfgs_rosenbrock():
    def fun(x):
        a, b = 1.0, 100.0
        v = (a - x[0]) ** 2 + b * (x[1] - x[0] ** 2) ** 2
        g = np.array([-2 * (a - x[0]) - 4 * b * x[0] * (x[1] - x[0] ** 2),
                      2 * b * (x[1] - x[0] ** 2)])
        return float(v), g
    res = minimize_lbfgs(fun, np.array([-1.2, 1.0]),
                         SolverConfig(max_iter=2000, grad_tol=1e-10))
    assert np.allclose(res.x, [1.0, 1.0], atol=1e-6)


@pytest.mark.parametrize("kwargs, rule", [
    ({"max_iter": 0}, "need max_iter >= 1"),
    ({"grad_tol": 0.0}, "need grad_tol > 0"),
    ({"grad_tol": float("nan")}, "need grad_tol > 0"),
])
def test_solver_config_refuses_a_budget_no_descent_can_keep(kwargs, rule):
    with pytest.raises(ValueError, match=rule):
        SolverConfig(**kwargs)


def test_lbfgs_max_iter_status():
    def fun(x):
        return float(np.sum(x ** 2)) ** 0.51, 1.02 * np.sign(x) * np.abs(
            np.sum(x ** 2)) ** 0.02 * x / max(np.linalg.norm(x), 1e-30)
    res = minimize_lbfgs(fun, np.ones(3), SolverConfig(max_iter=2))
    assert res.iterations <= 2
    assert res.status in ("max_iter", "line_search", "ok")


def test_lbfgs_already_converged():
    res = minimize_lbfgs(quad(np.eye(2), np.zeros(2)), np.zeros(2))
    assert res.iterations <= 1
    assert res.value == 0.0


@given(st.floats(-2.0, 2.0), st.floats(0.1, 3.0))
@settings(max_examples=25, deadline=None)
def test_golden_section_parabola(center, width):
    x, fx = golden_section(lambda t: (t - center) ** 2, center - width,
                           center + width, tol=1e-6)
    assert abs(x - center) < 1e-5
    assert fx >= 0.0


def test_golden_section_boundary():
    # monotone function: the minimum sits on the left edge of the bracket
    x, _ = golden_section(lambda t: t, 2.0, 5.0, tol=1e-6)
    assert abs(x - 2.0) < 1e-4


def test_multistart_picks_best():
    def fun(x):
        v = (x[0] ** 2 - 1.0) ** 2
        g = np.array([4 * x[0] * (x[0] ** 2 - 1.0)])
        return float(v), g
    best, diag = multistart_minimize(
        fun, [("left", np.array([-0.9])), ("right", np.array([0.9])),
              ("hill", np.array([0.0]))])
    summaries = diag["starts"]
    assert best.value <= min(s["value"] for s in summaries) + 1e-12
    assert {s["start"] for s in summaries} == {"left", "right", "hill"}


def test_multistart_tie_keeps_first():
    # symmetric starts reach equal values; the first one is retained
    def fun(x):
        return float(x[0] ** 2), np.array([2 * x[0]])
    best, diag = multistart_minimize(
        fun, [("a", np.array([1.0])), ("b", np.array([-1.0]))])
    summaries = diag["starts"]
    assert summaries[0]["start"] == "a"
    assert abs(best.value - summaries[0]["value"]) <= 1e-12


def test_multistart_negative_values():
    # the improvement test must stay strict for negative energies too
    def fun(x):
        v = x[0] ** 2 - 4.0
        return float(v), np.array([2 * x[0]])
    best, _ = multistart_minimize(
        fun, [("a", np.array([0.5])), ("b", np.array([-0.5]))])
    assert abs(best.value + 4.0) < 1e-10


def test_multistart_diag_matches_per_start_descents():
    # diag is the dict the cell and film solvers report: one summary per
    # start, then the winner's grad_norm, summed iterations and evaluations,
    # winner's status
    def fun(x):
        v = (x[0] ** 2 - 1.0) ** 2 + 0.1 * x[0]
        return float(v), np.array([4 * x[0] * (x[0] ** 2 - 1.0) + 0.1])
    starts = [("left", np.array([-0.9])), ("right", np.array([0.9])),
              ("far", np.array([2.5]))]
    cfg = SolverConfig(max_iter=50)
    best, diag = multistart_minimize(fun, starts, cfg)
    runs = [minimize_lbfgs(fun, x0, cfg) for _, x0 in starts]
    summaries = [{"start": label, "value": r.value, "grad_norm": r.grad_norm,
                  "iterations": r.iterations, "n_evals": r.n_evals,
                  "status": r.status}
                 for (label, _), r in zip(starts, runs)]
    want = {"starts": summaries, "grad_norm": best.grad_norm,
            "iterations": sum(s["iterations"] for s in summaries),
            "evals": sum(r.n_evals for r in runs), "status": best.status}
    assert diag == want
    assert list(diag) == ["starts", "grad_norm", "iterations", "evals", "status"]
    assert best.value == min(r.value for r in runs) == runs[0].value


def _flat(x):
    # every start is already stationary: the descent returns it unchanged,
    # with the value stored in x[1] and the preference key in x[0]
    return float(x[1]), np.zeros_like(x)


def _keyed(*pairs):
    return [(f"s{i}", np.array([key, value])) for i, (key, value) in enumerate(pairs)]


def test_multistart_prefer_picks_smallest_key_inside_the_band():
    prefer = lambda r: float(r.x[0])  # noqa: E731
    # band is 1e-9 * (1 + |best|) = 2e-9 around best = 1.0
    starts = _keyed((5.0, 1.0), (1.0, 1.0 + 5e-10), (0.0, 1.0 + 1e-8))
    plain, _ = multistart_minimize(_flat, starts)
    assert plain.x[0] == 5.0
    best, diag = multistart_minimize(_flat, starts, prefer=prefer)
    assert best.x[0] == 1.0          # smaller key inside the band wins
    assert diag["grad_norm"] == best.grad_norm and diag["status"] == best.status
    # a result outside the band never wins, however small its key
    best, _ = multistart_minimize(_flat, _keyed((3.0, 2.0), (-9.0, 2.0 + 1e-7)),
                                  prefer=prefer)
    assert best.x[0] == 3.0
    # equal keys: the first result wins
    best, _ = multistart_minimize(
        _flat, [("a", np.array([1.0, 1.0 + 1e-10])), ("b", np.array([1.0, 1.0]))],
        prefer=prefer)
    assert best.x[1] == 1.0 + 1e-10


def test_multistart_without_starts():
    best, diag = multistart_minimize(_flat, [])
    assert best is None
    assert diag == {"starts": []}


def _cliff(bad):
    # a parabola around 0 that returns ``bad`` with a zero gradient beyond x = 5,
    # so a descent started there stops at once with status ok
    def fun(x):
        if x[0] > 5.0:
            return bad, np.zeros(1)
        return float(x[0] ** 2), 2.0 * x
    return fun


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("order", [("cliff", "finite"), ("finite", "cliff")])
@pytest.mark.parametrize("prefer", [None, lambda r: -float(r.x[0])])
def test_multistart_finite_value_beats_non_finite(bad, order, prefer):
    x0 = {"cliff": np.array([10.0]), "finite": np.array([0.5])}
    best, diag = multistart_minimize(_cliff(bad), [(k, x0[k]) for k in order],
                                     prefer=prefer)
    assert np.isfinite(best.value) and best.value < 1e-12
    assert abs(best.x[0]) < 1e-6
    assert diag["status"] == best.status == "ok"


def test_multistart_with_only_non_finite_values_keeps_the_first():
    starts = [("a", np.array([10.0])), ("b", np.array([11.0]))]
    for prefer in (None, lambda r: -float(r.x[0])):
        best, _ = multistart_minimize(_cliff(np.nan), starts, prefer=prefer)
        assert best.x[0] == 10.0


def _count_descents(monkeypatch):
    calls = []
    real = solvers_mod.minimize_lbfgs

    def counted(fun, x0, *args, **kwargs):
        calls.append(np.array(x0, dtype=float))
        return real(fun, x0, *args, **kwargs)
    monkeypatch.setattr(solvers_mod, "minimize_lbfgs", counted)
    return calls


def _tilted(x):
    v = (x[0] ** 2 - 1.0) ** 2 + 0.1 * x[0] + 0.5 * x[1] ** 2
    return float(v), np.array([4 * x[0] * (x[0] ** 2 - 1.0) + 0.1, x[1]])


def test_multistart_runs_one_descent_per_distinct_start(monkeypatch):
    cfg = SolverConfig(max_iter=50)
    a, b, c = np.array([-0.9, 0.2]), np.array([0.9, -0.1]), np.array([2.5, 0.0])
    starts = [("a", a), ("b", b), ("a-again", a.copy()), ("c", c), ("b-again", b.copy())]
    everyone = [minimize_lbfgs(_tilted, x0, cfg) for _, x0 in starts]
    calls = _count_descents(monkeypatch)
    best, diag = multistart_minimize(_tilted, starts, cfg,
                                     prefer=lambda r: float(r.x[1]))
    assert len(calls) == 3
    want = [{"start": label, "value": r.value, "grad_norm": r.grad_norm,
             "iterations": r.iterations, "n_evals": r.n_evals, "status": r.status}
            for (label, _), r in zip(starts, everyone)]
    assert diag["starts"] == want
    assert diag["iterations"] == sum(r.iterations for r in everyone)
    assert diag["evals"] == sum(r.n_evals for r in everyone)
    assert best.x.tobytes() == everyone[0].x.tobytes()
    # nothing carries over to the next call
    multistart_minimize(_tilted, starts, cfg)
    assert len(calls) == 6


def test_multistart_keeps_signed_zero_starts_apart(monkeypatch):
    calls = _count_descents(monkeypatch)
    _, diag = multistart_minimize(_tilted, [("plus", np.array([0.0, 0.0])),
                                            ("minus", np.array([-0.0, 0.0])),
                                            ("plus-again", np.array([0.0, 0.0]))])
    assert [np.signbit(x[0]) for x in calls] == [False, True]
    assert [s["start"] for s in diag["starts"]] == ["plus", "minus", "plus-again"]


def _same_result(a, b):
    assert a.x.tobytes() == b.x.tobytes()
    assert (repr(a.value), repr(a.grad_norm), a.iterations, a.n_evals,
            a.converged, a.status) == (repr(b.value), repr(b.grad_norm),
                                       b.iterations, b.n_evals, b.converged,
                                       b.status)


def test_value_only_trials_leave_the_descent_unchanged():
    def rosen(x):
        a, b = 1.0, 100.0
        v = (a - x[0]) ** 2 + b * (x[1] - x[0] ** 2) ** 2
        g = np.array([-2 * (a - x[0]) - 4 * b * x[0] * (x[1] - x[0] ** 2),
                      2 * b * (x[1] - x[0] ** 2)])
        return float(v), g
    cfg = SolverConfig(max_iter=2000, grad_tol=1e-10)
    plain = minimize_lbfgs(rosen, np.array([-1.2, 1.0]), cfg)
    grads = []

    def counted(x):
        grads.append(1)
        return rosen(x)
    fast = minimize_lbfgs(counted, np.array([-1.2, 1.0]), cfg,
                          value=lambda x: rosen(x)[0])
    _same_result(fast, plain)
    assert plain.n_evals > plain.iterations + 1      # it did backtrack
    assert len(grads) < plain.n_evals
