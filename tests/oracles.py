"""Closed-form reference values and finite-difference helpers.

Everything here is computed independently of the package internals:
quadratic means, layer averages, and for the double well the rank-one
mixing construction and a brute-force first-order laminate.  Tests freeze these numbers; the solvers have to
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


def two_well_relaxed_compatible(F, A):
    """Envelope of min(|F - A|^2, |F + A|^2) for a rank-one A = a (x) n.

    With A_hat = A / |A| and s = <F, A_hat>, the layers mix the wells
    along A_hat at no cost while |s| <= |A|; what remains is the squared
    distance of F to the segment between the wells:
    (max(|s| - |A|, 0))^2 + |F - s A_hat|^2.
    """
    F = np.asarray(F, dtype=float)
    A = np.asarray(A, dtype=float)
    norm = float(np.linalg.norm(A))
    s = float(np.sum(F * A)) / norm
    return max(abs(s) - norm, 0.0) ** 2 + float(np.sum((F - s * A / norm) ** 2))


def two_well_laminate(F, A1, A2, n_theta=21):
    """Best first-order laminate of min(|F - A1|^2, |F - A2|^2) at F.

    The layers are F + (1 - theta) t R and F - theta t R, with volume
    fractions theta and 1 - theta and R = u (x) v the top singular pair
    of A1 - A2.  For each choice of well in each layer, the laminate
    energy at fixed theta is a quadratic in t, minimized from three
    samples; theta is scanned on a grid and polished by bounded Brent.
    The result is the least over the four choices.
    """
    from scipy.optimize import minimize_scalar

    F = np.asarray(F, dtype=float)
    wells = (np.asarray(A1, dtype=float), np.asarray(A2, dtype=float))
    u, _, vt = np.linalg.svd(wells[0] - wells[1])
    R = np.outer(u[:, 0], vt[0])
    grid = np.linspace(0.0, 1.0, n_theta)
    best = np.inf
    for Ai in wells:
        for Aj in wells:
            def energy(theta):
                def q(t):
                    return (theta * np.sum((F + (1.0 - theta) * t * R - Ai) ** 2)
                            + (1.0 - theta) * np.sum((F - theta * t * R - Aj) ** 2))
                qm, q0, qp = q(-1.0), q(0.0), q(1.0)
                curv = 0.5 * (qp + qm) - q0
                slope = 0.5 * (qp - qm)
                return q0 - slope ** 2 / (4.0 * curv) if curv > 0.0 else q0

            vals = [energy(theta) for theta in grid]
            k = int(np.argmin(vals))
            polished = minimize_scalar(
                energy, bounds=(grid[max(k - 1, 0)], grid[min(k + 1, n_theta - 1)]),
                method="bounded", options={"xatol": 1e-12})
            best = min(best, vals[k], polished.fun)
    return float(best)


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
