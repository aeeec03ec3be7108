"""Closed-form reference values and finite-difference helpers.

Everything here is computed independently of the package internals:
quadratic means, layer averages, and the rank-one mixing construction
for the double well.  Tests freeze these numbers; the solvers have to
reproduce them.
"""

import numpy as np


def quadratic_membrane(fbar):
    """Homogeneous |F|^2: the membrane value is |fbar|^2 (optimal L
    suppresses the transverse term, in-plane term is Jensen-tight)."""
    return float(np.sum(np.asarray(fbar) ** 2))


def quadratic_cosserat(fbar, z):
    """Homogeneous |F|^2 with prescribed transverse average z."""
    return float(np.sum(np.asarray(fbar) ** 2) + np.sum(np.asarray(z) ** 2))


def laminate_membrane(fbar, levels=(1.0, 3.0)):
    """a(x3)|F|^2 in equal layers: slice-wise Jensen gives the
    arithmetic mean of a for the in-plane response."""
    return float(np.mean(levels) * np.sum(np.asarray(fbar) ** 2))


def laminate_cosserat(fbar, z, levels=(1.0, 3.0)):
    """Equal-layer laminate with prescribed z: the transverse response
    averages harmonically (series coupling of the layers).

    For levels (1, 3) the harmonic mean is 1.5.
    """
    levels = np.asarray(levels, dtype=float)
    harm = len(levels) / float(np.sum(1.0 / levels))
    return float(np.mean(levels) * np.sum(np.asarray(fbar) ** 2)
                 + harm * np.sum(np.asarray(z) ** 2))


def entrywise_quadratic(weights, F):
    """0.5 sum_ij w_ij F_ij^2: decoupled quadratic, weights on diag(C)."""
    return 0.5 * float(np.sum(np.asarray(weights) * np.asarray(F) ** 2))


def two_well_raw(F, A):
    """min squared distance of F to the wells +/- A."""
    F = np.asarray(F, dtype=float)
    A = np.asarray(A, dtype=float)
    return float(min(np.sum((F - A) ** 2), np.sum((F + A) ** 2)))


def two_well_segment_envelope(t):
    """Envelope of the double well along F = t A, A rank-one.

    Mixing the two zero-energy gradients +/-A across parallel layers
    reaches any average t A with |t| <= 1 at zero cost; outside the
    segment the nearest well dominates.  Returns the multiplier of
    |A|^2.
    """
    t = abs(float(t))
    return 0.0 if t <= 1.0 else (t - 1.0) ** 2


def central_difference(fun, x, h=1e-6):
    """Dense central FD gradient of a scalar function of an array."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp = x.copy()
        xm = x.copy()
        xp[idx] += h
        xm[idx] -= h
        g[idx] = (fun(xp) - fun(xm)) / (2.0 * h)
    return g


def directional_difference(fun, x, d, h=1e-6):
    """Central FD of fun along direction d at x."""
    x = np.asarray(x, dtype=float)
    d = np.asarray(d, dtype=float)
    return (fun(x + h * d) - fun(x - h * d)) / (2.0 * h)


def rel_err(got, want):
    return abs(got - want) / max(1.0, abs(want))


def rank_one_well(scale=0.6):
    """A two-well matrix a (x) e of Frobenius norm ``scale``: the wells are compatible."""
    a = np.array([1.0, 0.5, -0.3])
    e = np.array([1.0, 0.5, 0.0])
    return scale * np.outer(a, e) / (np.linalg.norm(a) * np.linalg.norm(e))
