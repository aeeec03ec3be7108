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

Fixed constants: ``HISTORY`` (curvature pairs kept), ``ARMIJO_C``,
``STEP_SHRINK`` and ``MAX_BACKTRACKS`` (line search), ``GOLDEN_MAX_ITER``.

All routines are deterministic: no randomness, fixed evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SolverConfig",
    "SolveResult",
    "minimize_lbfgs",
    "golden_section",
    "multistart_minimize",
]


HISTORY = 10
ARMIJO_C = 1e-4
STEP_SHRINK = 0.5
MAX_BACKTRACKS = 50
GOLDEN_MAX_ITER = 60


@dataclass
class SolverConfig:
    """Parameters of the descent loop.

    max_iter is the iteration cap; grad_tol enters the relative
    termination test ``norm(g) <= grad_tol * (1 + |f|)``.
    """

    max_iter: int = 500
    grad_tol: float = 1e-8


@dataclass
class SolveResult:
    x: np.ndarray
    value: float
    grad_norm: float
    iterations: int
    n_evals: int
    converged: bool
    status: str = "ok"


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
                   newton=None) -> SolveResult:
    """Minimize ``fun(x) -> (value, grad)`` from ``x0``.

    With ``newton`` (a callable g -> H^+ g), every direction is the
    Newton direction -newton(g) instead of the two-loop one.
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
    converged = False
    it = 0
    for it in range(1, cfg.max_iter + 1):
        gnorm = float(np.linalg.norm(g))
        if gnorm <= cfg.grad_tol * (1.0 + abs(f)):
            status, converged = "ok", True
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
        f_new = f
        g_new = g
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            x_new = x + step * d
            f_new, g_new = fun(x_new)
            n_evals += 1
            if f_new <= f + ARMIJO_C * step * slope:
                accepted = True
                break
            step *= STEP_SHRINK
        if not accepted:
            status, converged = "line_search", True
            break
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
    if gnorm <= cfg.grad_tol * (1.0 + abs(f)):
        converged = True
        if status == "max_iter":
            status = "ok"
    return SolveResult(x=x, value=float(f), grad_norm=gnorm, iterations=it,
                       n_evals=n_evals, converged=converged, status=status)


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


def multistart_minimize(fun, starts, config: SolverConfig | None = None,
                        prefer=None, newton=None):
    """Run the descent from each start and keep the best result.

    ``starts`` is a sequence of (label, x0) pairs; ``newton`` is passed
    to every descent.  Ties in final value (within 1e-12 relative)
    resolve to the earliest start, which makes
    the outcome independent of dict ordering quirks.  With ``prefer``,
    the winner is the first result of smallest ``prefer(result)`` within
    1e-9 * (1 + |best|) of that pick.

    Returns (best SolveResult, diag): per-start summaries (start, value,
    grad_norm, iterations, n_evals, status) under "starts", then, unless
    no start was given (best None), the winner's grad_norm, the
    iterations and energy evaluations summed over all starts and the
    winner's status.
    """
    best = None
    results = []
    summaries = []
    for label, x0 in starts:
        res = minimize_lbfgs(fun, x0, config, newton=newton)
        results.append(res)
        summaries.append({
            "start": label,
            "value": res.value,
            "grad_norm": res.grad_norm,
            "iterations": res.iterations,
            "n_evals": res.n_evals,
            "status": res.status,
        })
        if best is None or res.value < best.value - 1e-12 * max(1.0, abs(best.value)):
            best = res
    diag = {"starts": summaries}
    if best is None:
        return None, diag
    if prefer is not None:
        band = best.value + 1e-9 * (1.0 + abs(best.value))
        best = min((r for r in results if r.value <= band), key=prefer)
    diag.update(grad_norm=best.grad_norm,
                iterations=sum(s["iterations"] for s in summaries),
                evals=sum(s["n_evals"] for s in summaries),
                status=best.status)
    return best, diag
