"""Descent machinery shared by the cell and thin-film solvers.

The workhorse is a descent loop with a backtracking Armijo line search.
Its direction is the limited-memory quasi-Newton one (two-loop
recursion) unless the caller hands in ``newton``, a solve g -> H^+ g on
the exact Hessian of a quadratic objective; the direction is then the
Newton one, -newton(g), tried first at the full step.  Termination
follows a single contract used throughout the package: stop once the
gradient norm falls below ``grad_tol * (1 + |value|)`` or after
``max_iter`` iterations.  ``newton`` is first called only after that
test has failed once, so a start that is already converged costs the
caller no factorization.  Accepted steps never increase the objective,
which the refinement monotonicity tests rely on.  The decrease is not
strict: once ``ARMIJO_C * step * slope`` falls below half an ulp of the
value, the Armijo test accepts a step with an unchanged value, so a
descent whose gradient cannot reach the threshold at working precision
keeps taking such steps until ``max_iter``.

Cost model.  The Armijo test needs only the objective's value at a
trial point.  The first trial of an iteration is evaluated with its
gradient, since Newton steps and healthy quasi-Newton steps accept it.
With a ``value`` callable, every later trial of the same iteration is
evaluated by ``value`` alone, and an accepted later trial then costs
one more gradient evaluation.  ``value(x)`` must equal ``fun(x)[0]``
bitwise, so the iterates are those of the all-gradient loop.
``n_evals`` counts trial points, not calls: the extra gradient at an
accepted later trial is not counted.  ``multistart_minimize`` runs one
descent per distinct start (compared by its bytes; descents are
deterministic) and repeats its result for every duplicate.

Every descent (fiber, cell, film, limit) takes one budget type, the
validated ``SolverConfig``, which the cell's ``InnerConfig`` extends by
its multistart; a solve that fails its contract raises ``SolveError``.

Fixed constants: ``HISTORY`` (curvature pairs kept), ``ARMIJO_C``,
``STEP_SHRINK`` and ``MAX_BACKTRACKS`` (line search), ``GOLDEN_MAX_ITER``.

All routines are deterministic: no randomness, fixed evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SolverConfig",
    "SolveError",
    "SolveResult",
    "converged",
    "minimize_lbfgs",
    "golden_section",
    "multistart_minimize",
]


HISTORY = 10
ARMIJO_C = 1e-4
STEP_SHRINK = 0.5
MAX_BACKTRACKS = 50
GOLDEN_MAX_ITER = 60


@dataclass(frozen=True)
class SolverConfig:
    """Parameters of the descent loop.

    max_iter (>= 1) is the iteration cap; grad_tol (> 0) enters the
    relative termination test ``norm(g) <= grad_tol * (1 + |f|)``.
    """

    max_iter: int = 500
    grad_tol: float = 1e-8

    def __post_init__(self):
        for rule, ok in (("max_iter >= 1", self.max_iter >= 1),
                         ("grad_tol > 0", self.grad_tol > 0.0)):
            if not ok:
                raise ValueError(f"need {rule}")


class SolveError(RuntimeError):
    """A solve failed its contract; carries its best value (if any) and diagnostics."""

    def __init__(self, msg, best_value=None, diagnostics=None):
        super().__init__(msg)
        self.best_value = best_value
        self.diagnostics = diagnostics or {}


def converged(status) -> bool:
    """The package's one convergence rule: every status but "max_iter"."""
    return status != "max_iter"


@dataclass
class SolveResult:
    x: np.ndarray
    value: float
    grad_norm: float
    iterations: int
    n_evals: int
    status: str = "ok"

    @property
    def converged(self) -> bool:
        return converged(self.status)


def _two_loop(grad, s_list, y_list, rho_list):
    """L-BFGS two-loop recursion with gamma scaling of the seed Hessian."""
    q = grad.copy()
    alphas = []
    for s, y, rho in zip(reversed(s_list), reversed(y_list), reversed(rho_list)):
        a = rho * np.dot(s, q)
        alphas.append(a)
        q -= a * y
    if s_list:
        s, y = s_list[-1], y_list[-1]
        gamma = np.dot(s, y) / max(np.dot(y, y), 1e-300)
        q *= gamma
    for (s, y, rho), a in zip(zip(s_list, y_list, rho_list), reversed(alphas)):
        b = rho * np.dot(y, q)
        q += (a - b) * s
    return q


def minimize_lbfgs(fun, x0, config: SolverConfig | None = None,
                   newton=None, value=None) -> SolveResult:
    """Minimize ``fun(x) -> (value, grad)`` from ``x0``.

    With ``newton`` (a callable g -> H^+ g), every direction is the
    Newton direction -newton(g) instead of the two-loop one.  With
    ``value`` (a callable x -> fun(x)[0], bitwise), backtracking trials
    after the first of an iteration skip the gradient.
    Returns the best iterate found.  ``status`` is "ok" on gradient
    convergence, "max_iter" when the iteration cap was reached, and
    "line_search" when no Armijo step could be found (the iterate is
    then a numerical stationary point at working precision).
    """
    cfg = config or SolverConfig()
    x = np.asarray(x0, dtype=float).copy()
    f, g = fun(x)
    g = np.asarray(g, dtype=float)
    n_evals = 1
    s_list: list = []
    y_list: list = []
    rho_list: list = []
    status = "max_iter"
    it = 0
    for it in range(1, cfg.max_iter + 1):
        gnorm = float(np.linalg.norm(g))
        if gnorm <= cfg.grad_tol * (1.0 + abs(f)):
            status = "ok"
            break
        if newton is None:
            d = -_two_loop(g, s_list, y_list, rho_list)
        else:
            d = -newton(g)
        slope = float(np.dot(g, d))
        if slope >= 0.0:
            # Curvature memory turned unreliable; fall back to steepest descent.
            d = -g
            slope = -gnorm * gnorm
            s_list, y_list, rho_list = [], [], []
        full_step = newton is not None or s_list
        step = 1.0 if full_step else min(1.0, 1.0 / max(gnorm, 1e-12))
        accepted = False
        for trial in range(MAX_BACKTRACKS):
            x_new = x + step * d
            if trial == 0 or value is None:
                f_new, g_new = fun(x_new)
            else:
                f_new, g_new = value(x_new), None
            n_evals += 1
            if f_new <= f + ARMIJO_C * step * slope:
                accepted = True
                break
            step *= STEP_SHRINK
        if not accepted:
            status = "line_search"
            break
        if g_new is None:
            g_new = fun(x_new)[1]
        s = step * d
        y = np.asarray(g_new, dtype=float) - g
        sy = float(np.dot(s, y))
        if sy > 1e-12 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            s_list.append(s)
            y_list.append(y)
            rho_list.append(1.0 / sy)
            if len(s_list) > HISTORY:
                s_list.pop(0)
                y_list.pop(0)
                rho_list.pop(0)
        x = x_new
        f, g = f_new, np.asarray(g_new, dtype=float)
    gnorm = float(np.linalg.norm(g))
    if gnorm <= cfg.grad_tol * (1.0 + abs(f)) and status == "max_iter":
        status = "ok"
    return SolveResult(x=x, value=float(f), grad_norm=gnorm, iterations=it,
                       n_evals=n_evals, status=status)


_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


def golden_section(fun, a, b, tol=1e-3):
    """Golden-section search for a scalar minimum on [a, b].

    Assumes a unimodal profile on the bracket; returns (x, fun(x)).
    ``tol`` is the absolute bracket width at which to stop.
    """
    a, b = float(a), float(b)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(GOLDEN_MAX_ITER):
        if b - a <= tol:
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fun(d)
    if fc <= fd:
        return c, fc
    return d, fd


def _improves(res, best):
    """Whether ``res`` displaces ``best``: finite, and lower by more than a tie."""
    if best is None:
        return True
    if not math.isfinite(res.value):
        return False
    if not math.isfinite(best.value):
        return True
    return res.value < best.value - 1e-12 * max(1.0, abs(best.value))


def multistart_minimize(fun, starts, config: SolverConfig | None = None,
                        prefer=None, newton=None, value=None):
    """Run the descent from each start and keep the best result.

    ``starts`` is a sequence of (label, x0) pairs; ``newton`` and
    ``value`` are passed to every descent.  A start whose bytes (and
    shape) repeat an earlier one reuses that descent's result.  A finite
    value always beats a non-finite one; among finite values, ties
    (within 1e-12 relative) resolve to the earliest start, which makes
    the outcome independent of dict ordering quirks.  With ``prefer``,
    the winner is the first finite result of smallest ``prefer(result)``
    within 1e-9 * (1 + |best|) of that pick; without a finite result
    ``prefer`` is not consulted.

    Returns (best SolveResult, diag): per-start summaries (start, value,
    grad_norm, iterations, n_evals, status) under "starts", then, unless
    no start was given (best None), the winner's grad_norm, the
    iterations and energy evaluations summed over all starts and the
    winner's status.
    """
    best = None
    results = []
    summaries = []
    by_start = {}
    for label, x0 in starts:
        x0 = np.asarray(x0, dtype=float)
        key = (x0.shape, x0.tobytes())
        res = by_start.get(key)
        if res is None:
            res = by_start[key] = minimize_lbfgs(fun, x0, config, newton=newton,
                                                 value=value)
        results.append(res)
        summaries.append({
            "start": label,
            "value": res.value,
            "grad_norm": res.grad_norm,
            "iterations": res.iterations,
            "n_evals": res.n_evals,
            "status": res.status,
        })
        if _improves(res, best):
            best = res
    diag = {"starts": summaries}
    if best is None:
        return None, diag
    if prefer is not None and math.isfinite(best.value):
        band = best.value + 1e-9 * (1.0 + abs(best.value))
        best = min((r for r in results if math.isfinite(r.value) and r.value <= band),
                   key=prefer)
    diag.update(grad_norm=best.grad_norm,
                iterations=sum(s["iterations"] for s in summaries),
                evals=sum(s["n_evals"] for s in summaries),
                status=best.status)
    return best, diag
