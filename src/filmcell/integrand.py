"""Stored energy densities W(x; F) for heterogeneous thin films.

A density is a base family (p-norm, anisotropic quadratic, two-well
distance squared) multiplied by a scalar heterogeneity modulation
a(x_alpha, x3) > 0, evaluated on 3x3 deformation gradients.  Built-in
modulations are closed-form indicator fields (transverse laminate,
in-plane checkerboard, products, restricted expressions), so integrands
can be sampled exactly at quadrature points without any data grids.

Every density carries growth metadata (p, beta_lower, beta_upper)
describing the sandwich

    beta_lower * |F|^p  <=  W(x; F)  <=  beta_upper * (|F|^p + 1)

with |F| the Frobenius norm.  For the two-well family the lower constant
is nominal: a distance-squared well vanishes at a nonzero matrix, so no
positive constant works in an exact ball around the wells.  The sampling
based ``verify_growth`` check is the operative contract.

Array conventions: deformation gradients are arrays of shape (..., 3, 3)
whose first two columns are the in-plane derivatives and whose third
column is the (scaled) transverse derivative.  ``join`` assembles such a
matrix from a 3x2 membrane block and a transverse 3-vector.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .solvers import SolverConfig, multistart_minimize

__all__ = [
    "DomainError",
    "GrowthSpec",
    "MaterialPoint",
    "join",
    "frobenius",
    "ConstantModulation",
    "TransverseLaminate",
    "PlanarCheckerboard",
    "ProductModulation",
    "ExpressionModulation",
    "StoredEnergyDensity",
    "pnorm_density",
    "aniso_quadratic_density",
    "two_well_density",
    "composite_density",
    "density_from_config",
    "modulation_in_plane_constant",
    "verify_growth",
    "GrowthReport",
]


class DomainError(ValueError):
    """Material point outside the declared mid-surface domain or |x3| > 1."""


# ---------------------------------------------------------------------------
# Small linear-algebra helpers
# ---------------------------------------------------------------------------

def join(fbar, z):
    """Assemble (..., 3, 3) gradients from a membrane block and a transverse vector.

    Arguments
    ---------
    fbar : array (..., 3, 2), in-plane derivative block.
    z : array (..., 3), transverse column.
    """
    fbar = np.asarray(fbar, dtype=float)
    z = np.asarray(z, dtype=float)
    return np.concatenate([fbar, z[..., :, None]], axis=-1)


def _sum33(X):
    """``np.sum(X, axis=(-2, -1))``, bitwise, at less call overhead.

    A C-contiguous array is reduced through a (..., 9) view, which numpy
    sums in the same order as the two trailing axes.
    """
    if not X.flags.c_contiguous:
        return np.sum(X, axis=(-2, -1))
    return np.add.reduce(X.reshape(X.shape[:-2] + (9,)), axis=-1)


def frobenius(F):
    """Frobenius norm along the trailing 3x3 axes."""
    F = np.asarray(F, dtype=float)
    return np.sqrt(_sum33(F * F))


@dataclass(frozen=True)
class GrowthSpec:
    """Growth exponent and sandwich constants of a density."""

    p: float
    beta_lower: float
    beta_upper: float

    def __post_init__(self):
        if not (1.0 < self.p < math.inf):
            raise ValueError(f"growth exponent p must lie in (1, inf), got {self.p}")
        if not (0.0 < self.beta_lower <= self.beta_upper):
            raise ValueError(
                "growth constants must satisfy 0 < beta_lower <= beta_upper, "
                f"got ({self.beta_lower}, {self.beta_upper})")

    def lower(self, fnorm):
        return self.beta_lower * np.asarray(fnorm) ** self.p

    def upper(self, fnorm):
        return self.beta_upper * (np.asarray(fnorm) ** self.p + 1.0)

    def split_power(self, fbar, z=None):
        """|fbar|^p + |z|^p, the growth term of the split argument (fbar | z)."""
        total = float(np.sum(np.asarray(fbar) ** 2)) ** (self.p / 2.0)
        if z is not None:
            total += float(np.sum(np.asarray(z) ** 2)) ** (self.p / 2.0)
        return total

    def sandwich(self, fbar, z, tol):
        """Growth bounds at (fbar | z), each widened by tol * (1 + split_power)."""
        total = self.split_power(fbar, z)
        slack = tol * (1.0 + total)
        return (self.beta_lower * total - slack,
                self.beta_upper * (total + 1.0) + slack)

    def coercivity_radius(self, fbar):
        """Radius of the ball holding every minimizer z of W(join(fbar, z)).

        From beta_lower |z|^p <= W(join(fbar, 0)) <= beta_upper (|fbar|^p + 1).
        """
        return ((self.beta_upper / self.beta_lower)
                * (self.split_power(fbar) + 1.0)) ** (1.0 / self.p)


@dataclass(frozen=True)
class MaterialPoint:
    """A point (x_alpha, x3) of the rescaled slab, x3 in [-1, 1]."""

    x_alpha: tuple
    x3: float = 0.0

    def __post_init__(self):
        xa = tuple(float(v) for v in self.x_alpha)
        if len(xa) != 2:
            raise ValueError("x_alpha must have two components")
        object.__setattr__(self, "x_alpha", xa)
        object.__setattr__(self, "x3", float(self.x3))


def _as_point(x):
    if isinstance(x, MaterialPoint):
        return x
    xa, x3 = x
    return MaterialPoint(tuple(np.asarray(xa, dtype=float)), float(x3))


# ---------------------------------------------------------------------------
# Heterogeneity modulations
# ---------------------------------------------------------------------------

class ConstantModulation:
    """Spatially constant positive factor."""

    def __init__(self, value=1.0):
        if value <= 0:
            raise ValueError("modulation must be positive")
        self.value_const = float(value)

    def value(self, x_alpha, x3):
        x3 = np.asarray(x3, dtype=float)
        return np.full(x3.shape, self.value_const)

    def bounds(self):
        return self.value_const, self.value_const

    def to_config(self):
        return {"kind": "constant", "value": self.value_const}


class TransverseLaminate:
    """Piecewise-constant layers in x3.

    ``breaks`` are the interior thresholds (ascending, inside (-1, 1));
    ``levels`` has one more entry than ``breaks``.  The default splits
    the thickness into a soft lower and stiff upper layer.  Jumps should
    be aligned with mesh faces by the caller; the quadrature rules used
    here never place points exactly on a threshold.
    """

    def __init__(self, levels=(1.0, 3.0), breaks=(0.0,)):
        levels = tuple(float(v) for v in levels)
        breaks = tuple(float(b) for b in breaks)
        if len(levels) != len(breaks) + 1:
            raise ValueError("need len(levels) == len(breaks) + 1")
        if any(v <= 0 for v in levels):
            raise ValueError("laminate levels must be positive")
        if list(breaks) != sorted(breaks):
            raise ValueError("laminate breaks must be ascending")
        self.levels = levels
        self.breaks = breaks

    def value(self, x_alpha, x3):
        x3 = np.asarray(x3, dtype=float)
        idx = np.searchsorted(np.asarray(self.breaks), x3, side="right")
        return np.asarray(self.levels, dtype=float)[idx]

    def bounds(self):
        return min(self.levels), max(self.levels)

    def to_config(self):
        return {"kind": "laminate_x3", "levels": list(self.levels),
                "breaks": list(self.breaks)}


class PlanarCheckerboard:
    """Two-valued checkerboard over the in-plane coordinates.

    Tiles of side ``cell`` anchored at ``origin``; the value is picked by
    the parity of the tile indices.  Constant in x3.
    """

    def __init__(self, values=(1.0, 2.0), cell=0.5, origin=(0.0, 0.0)):
        if len(values) != 2 or any(v <= 0 for v in values):
            raise ValueError("checkerboard needs two positive values")
        self.values = (float(values[0]), float(values[1]))
        self.cell = float(cell)
        self.origin = (float(origin[0]), float(origin[1]))
        if self.cell <= 0:
            raise ValueError("checkerboard cell must be positive")

    def value(self, x_alpha, x3):
        xa = np.asarray(x_alpha, dtype=float)
        i = np.floor((xa[..., 0] - self.origin[0]) / self.cell).astype(int)
        j = np.floor((xa[..., 1] - self.origin[1]) / self.cell).astype(int)
        parity = (i + j) % 2
        out = np.where(parity == 0, self.values[0], self.values[1])
        x3 = np.asarray(x3, dtype=float)
        return np.broadcast_to(out, np.broadcast_shapes(out.shape, x3.shape)).copy()

    def bounds(self):
        return min(self.values), max(self.values)

    def to_config(self):
        return {"kind": "checkerboard_xalpha", "values": list(self.values),
                "cell": self.cell, "origin": list(self.origin)}


class ProductModulation:
    """Pointwise product of modulations (e.g. laminate times checkerboard)."""

    def __init__(self, factors):
        factors = list(factors)
        if not factors:
            raise ValueError("need at least one factor")
        self.factors = factors

    def value(self, x_alpha, x3):
        out = self.factors[0].value(x_alpha, x3)
        for f in self.factors[1:]:
            out = out * f.value(x_alpha, x3)
        return out

    def bounds(self):
        lo, hi = 1.0, 1.0
        for f in self.factors:
            b = f.bounds()
            if b is None:
                return None
            lo *= b[0]
            hi *= b[1]
        return lo, hi

    def to_config(self):
        return {"kind": "product", "factors": [f.to_config() for f in self.factors]}


class ExpressionModulation:
    """Modulation given by a restricted closed-form expression in x1, x2, x3.

    The expression grammar is the shared one from :mod:`filmcell.expr`
    (sums, products, powers, trig, exponentials, step indicators).  Since
    bounds cannot be derived symbolically, densities built on expression
    modulations must declare their growth constants explicitly.
    """

    def __init__(self, expression: str):
        from .expr import compile_expression
        self.expression = str(expression)
        self._fn = compile_expression(self.expression)

    def value(self, x_alpha, x3):
        xa = np.asarray(x_alpha, dtype=float)
        x3 = np.asarray(x3, dtype=float)
        out = self._fn(xa[..., 0], xa[..., 1], x3)
        return np.broadcast_to(np.asarray(out, dtype=float),
                               np.broadcast_shapes(np.shape(out), x3.shape)).copy()

    def bounds(self):
        return None

    def to_config(self):
        return {"kind": "expression", "expression": self.expression}


def modulation_from_config(cfg) -> object:
    kind = cfg.get("kind", "constant")
    if kind == "constant":
        return ConstantModulation(cfg.get("value", 1.0))
    if kind == "laminate_x3":
        return TransverseLaminate(cfg.get("levels", (1.0, 3.0)),
                                  cfg.get("breaks", (0.0,)))
    if kind == "checkerboard_xalpha":
        return PlanarCheckerboard(cfg.get("values", (1.0, 2.0)),
                                  cfg.get("cell", 0.5),
                                  cfg.get("origin", (0.0, 0.0)))
    if kind == "product":
        return ProductModulation([modulation_from_config(c) for c in cfg["factors"]])
    if kind == "expression":
        return ExpressionModulation(cfg["expression"])
    raise ValueError(f"unknown modulation kind {kind!r}")


def modulation_in_plane_constant(cfg) -> bool:
    """Whether a modulation config cannot vary with x_alpha.

    Used to collapse caches keyed by the material point: transverse
    laminates and constants depend on x3 at most, so one in-plane
    position represents them all.  Expression modulations are scanned
    for the in-plane variable names.
    """
    kind = cfg.get("kind", "constant")
    if kind in ("constant", "laminate_x3"):
        return True
    if kind == "product":
        return all(modulation_in_plane_constant(c) for c in cfg["factors"])
    if kind == "expression":
        import re
        return re.search(r"\bx[12]\b", cfg["expression"]) is None
    return False


# ---------------------------------------------------------------------------
# Base families
# ---------------------------------------------------------------------------

class _PNorm:
    """W0(F) = scale * |F|^p."""

    name = "pnorm"
    convex = True

    def __init__(self, p=2.0, scale=1.0):
        if p <= 1.0:
            raise ValueError("pnorm exponent must exceed 1")
        if scale <= 0.0:
            raise ValueError("pnorm scale must be positive")
        self.p = float(p)
        self.scale = float(scale)
        # Constant Hessian of W0 in vec(F) when W0 is quadratic, else None.
        self.moduli = 2.0 * self.scale * np.eye(9) if self.p == 2.0 else None

    def energy(self, F):
        return self.scale * frobenius(F) ** self.p

    def energy_stress(self, F):
        """Energy and stress from one Frobenius norm."""
        F = np.asarray(F, dtype=float)
        n = frobenius(F)
        fac = np.where(n > 0.0, self.scale * self.p * n ** (self.p - 2.0), 0.0)
        return self.scale * n ** self.p, fac[..., None, None] * F

    def base_growth(self):
        return GrowthSpec(self.p, self.scale, self.scale)

    def fiber_starts(self, fbar):
        return []

    def params(self):
        return {"p": self.p, "scale": self.scale}


_ZCOL = np.array([2, 5, 8])        # row-major vec positions of the third column
_PCOL = np.array([0, 1, 3, 4, 6, 7])


class _AnisoQuadratic:
    """W0(F) = 0.5 * vec(F) . C . vec(F) with C symmetric positive definite."""

    name = "aniso_quadratic"
    convex = True

    def __init__(self, cmat):
        cmat = np.asarray(cmat, dtype=float)
        if cmat.shape != (9, 9):
            raise ValueError("C must be 9x9 acting on row-major vec(F)")
        if not np.allclose(cmat, cmat.T, atol=1e-12):
            raise ValueError("C must be symmetric")
        eigs = np.linalg.eigvalsh(cmat)
        if eigs[0] <= 0.0:
            raise ValueError("C must be positive definite")
        self.cmat = cmat
        self.moduli = cmat
        self._eig_min = float(eigs[0])
        self._eig_max = float(eigs[-1])

    @classmethod
    def from_entry_weights(cls, weights):
        """Diagonal C with one positive weight per matrix entry (3x3 array)."""
        w = np.asarray(weights, dtype=float).reshape(9)
        if np.any(w <= 0):
            raise ValueError("entry weights must be positive")
        return cls(np.diag(w))

    def energy(self, F):
        v = np.asarray(F, dtype=float).reshape(*np.shape(F)[:-2], 9)
        return 0.5 * np.einsum("...i,ij,...j->...", v, self.cmat, v)

    def energy_stress(self, F):
        shape = np.shape(F)
        v = np.asarray(F, dtype=float).reshape(*shape[:-2], 9)
        stress = np.einsum("ij,...j->...i", self.cmat, v).reshape(shape)
        return self.energy(F), stress

    def base_growth(self):
        return GrowthSpec(2.0, 0.5 * self._eig_min, max(0.5 * self._eig_max, 0.5 * self._eig_min))

    def fiber_starts(self, fbar):
        # The exact minimizer of the quadratic fiber problem solves a
        # 3x3 linear system; hand it to the solver as a start.
        v = np.zeros(9)
        v[_PCOL] = np.asarray(fbar, dtype=float).reshape(6)
        czz = self.cmat[np.ix_(_ZCOL, _ZCOL)]
        rhs = -self.cmat[np.ix_(_ZCOL, _PCOL)] @ v[_PCOL]
        zstar = np.linalg.solve(czz, rhs)
        return [zstar]

    def params(self):
        return {"cmat": [[float(x) for x in row] for row in self.cmat]}


class _TwoWell:
    """W0(F) = min(|F - A1|^2, |F - A2|^2), squared distance to two wells.

    Ties between the wells resolve to the first well, both for the energy
    branch bookkeeping and for the stress subgradient choice.  With equal
    wells this degenerates to a shifted quadratic |F - A|^2.
    ``relaxed_energy`` is its quasiconvex envelope in closed form.
    """

    name = "two_well"
    moduli = None

    def __init__(self, well_plus, well_minus=None):
        A1 = np.asarray(well_plus, dtype=float).reshape(3, 3)
        A2 = -A1 if well_minus is None else np.asarray(well_minus, dtype=float).reshape(3, 3)
        self.wells = (A1, A2)
        self.convex = bool(np.allclose(A1, A2, atol=1e-14))
        # Rank-one connection between the wells, if any, drives laminate
        # seeds in the cell solvers.
        B = 0.5 * (A1 - A2)
        self.half_gap = B
        u, s, vt = np.linalg.svd(B)
        self.gap_sq = float(2.0 * s[0]) ** 2      # sigma_max(A1 - A2)^2
        if s[0] > 0 and (s.shape[0] < 2 or s[1] <= 1e-12 * s[0]):
            self.rank_one = (u[:, 0] * s[0], vt[0, :])   # B = a (x) n, |n| = 1
        else:
            self.rank_one = None

    def _diffs(self, F):
        F = np.asarray(F, dtype=float)
        return F - self.wells[0], F - self.wells[1]

    def _dists(self, F):
        D1, D2 = self._diffs(F)
        return _sum33(D1 * D1), _sum33(D2 * D2)

    def energy(self, F):
        d1, d2 = self._dists(F)
        return np.minimum(d1, d2)

    def relaxed_energy(self, F):
        """Quasiconvex envelope QW (Kohn, 1991, wells of equal moduli).

        QW = min over theta in [0, 1] of theta d1 + (1 - theta) d2
        - theta (1 - theta) s2, with d_i = |F - A_i|^2 and s2 the squared
        top singular value of A1 - A2.  Off the band |d1 - d2| < s2 the
        minimum sits at an end and QW is bitwise ``energy(F)``; inside it
        the interior minimum is clipped at 0 against roundoff.
        """
        d1, d2 = self._dists(F)
        s2 = self.gap_sq
        band = np.abs(d1 - d2) < s2
        if not np.any(band):             # always so for equal wells (s2 = 0)
            return np.minimum(d1, d2)
        inner = np.maximum(d2 - (d1 - d2 - s2) ** 2 / (4.0 * s2), 0.0)
        return np.where(band, inner, np.minimum(d1, d2))

    def energy_stress(self, F):
        """Energy and stress from one pair of well distances."""
        D1, D2 = self._diffs(F)
        d1, d2 = _sum33(D1 * D1), _sum33(D2 * D2)
        pick_first = (d1 <= d2)[..., None, None]
        return np.minimum(d1, d2), 2.0 * np.where(pick_first, D1, D2)

    def base_growth(self):
        amax2 = max(float(np.sum(A * A)) for A in self.wells)
        # Exact lower coercivity fails at the wells; keep a nominal
        # constant valid on generic samples.
        return GrowthSpec(2.0, 1e-4, max(2.0, 2.0 * amax2))

    def fiber_starts(self, fbar):
        return [self.wells[0][:, 2].copy(), self.wells[1][:, 2].copy()]

    def params(self):
        return {"well_plus": [[float(x) for x in r] for r in self.wells[0]],
                "well_minus": [[float(x) for x in r] for r in self.wells[1]]}


# ---------------------------------------------------------------------------
# Stored energy density = family * modulation
# ---------------------------------------------------------------------------

class StoredEnergyDensity:
    """A heterogeneous stored energy density W(x; F) = a(x) * W0(F).

    Scalar entry points (`evaluate`, `stress`, `fiber_infimum`) take a
    MaterialPoint (or an (x_alpha, x3) pair) and check the domain.  The
    array entry points used by assembly loops take precomputed modulation
    values and skip checks.  ``moduli`` is the constant 9x9 Hessian of the
    base family in row-major vec(F) for quadratic families (p-norm with
    p = 2, anisotropic quadratic) and None otherwise.
    """

    def __init__(self, family, modulation=None, growth=None, family_label=None,
                 domain=(0.0, 0.0, 1.0, 1.0)):
        self.family = family
        self.modulation = modulation or ConstantModulation(1.0)
        self.family_label = family_label or family.name
        self.domain = tuple(float(v) for v in domain)
        if growth is None:
            b = self.modulation.bounds()
            if b is None:
                raise ValueError(
                    "growth constants must be given explicitly when the "
                    "modulation has no derivable bounds")
            base = family.base_growth()
            growth = GrowthSpec(base.p, base.beta_lower * b[0], base.beta_upper * b[1])
        self.growth = growth
        self.is_convex = bool(family.convex)
        self.moduli = family.moduli

    # -- scalar interface ---------------------------------------------------

    def _check_domain(self, pt: MaterialPoint):
        ax, ay, bx, by = self.domain
        x1, x2 = pt.x_alpha
        eps = 1e-12
        if not (-1.0 - eps <= pt.x3 <= 1.0 + eps):
            raise DomainError(f"x3 = {pt.x3} outside [-1, 1]")
        if not (ax - eps <= x1 <= bx + eps and ay - eps <= x2 <= by + eps):
            raise DomainError(f"x_alpha = {pt.x_alpha} outside {self.domain}")

    def evaluate(self, x, F) -> float:
        pt = _as_point(x)
        self._check_domain(pt)
        a = self.modulation.value(np.asarray(pt.x_alpha), pt.x3)
        return float(a * self.family.energy(np.asarray(F, dtype=float)))

    # -- array interface ----------------------------------------------------

    def energy_array(self, modv, F):
        return np.asarray(modv) * self.family.energy(F)

    def stress_array(self, modv, F):
        return self.energy_stress_array(modv, F)[1]

    def energy_stress_array(self, modv, F):
        """Energy and stress at every point in one pass.

        The family shares its norm or well distances between the two;
        the energy is bitwise ``energy_array(modv, F)``.
        """
        modv = np.asarray(modv)
        energy, stress = self.family.energy_stress(F)
        return modv * energy, modv[..., None, None] * stress

    # -- fiber problem ------------------------------------------------------

    def fiber_infimum(self, x, fbar):
        """Infimum of z -> W(x; join(fbar, z)) over transverse vectors.

        Multistart quasi-Newton from the zero vector, the plus/minus
        columns of ``fbar`` and family-specific candidates (well columns,
        the exact quadratic minimizer).  Starts farther than the
        coercivity radius derived from the growth sandwich are skipped.

        Returns (value, z_star).
        """
        pt = _as_point(x)
        self._check_domain(pt)
        fbar = np.asarray(fbar, dtype=float).reshape(3, 2)
        a = float(self.modulation.value(np.asarray(pt.x_alpha), pt.x3))
        radius = self.growth.coercivity_radius(fbar)

        def fun(z):
            F = join(fbar, z)
            energy, stress = self.family.energy_stress(F)
            return a * float(energy), a * stress[:, 2]

        starts = [("zero", np.zeros(3))]
        starts += [(f"col{i}{s:+d}", s * fbar[:, i].copy())
                   for i in range(2) for s in (1, -1)]
        starts += [(f"family{i}", np.asarray(z0, dtype=float))
                   for i, z0 in enumerate(self.family.fiber_starts(fbar))]
        starts = [(lab, z0) for lab, z0 in starts
                  if float(np.linalg.norm(z0)) <= radius + 1e-9]
        if not starts:
            raise FiberInfimumError(
                f"no fiber start lies within the coercivity radius {radius}")
        best, diag = multistart_minimize(
            fun, starts, SolverConfig(max_iter=200, grad_tol=1e-10))
        if not best.converged:
            raise FiberInfimumError(
                "fiber infimum did not converge within the multistart budget",
                best_value=best.value,
                summaries=diag["starts"])
        return best.value, best.x

    # -- provenance ---------------------------------------------------------

    def to_config(self):
        return {
            "family": self.family_label,
            "params": self.family.params(),
            "modulation": self.modulation.to_config(),
            "growth": {"p": self.growth.p,
                       "beta_lower": self.growth.beta_lower,
                       "beta_upper": self.growth.beta_upper},
            "domain": list(self.domain),
        }

    def content_hash(self) -> str:
        payload = json.dumps(self.to_config(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()


class FiberInfimumError(RuntimeError):
    def __init__(self, msg, best_value=None, summaries=None):
        super().__init__(msg)
        self.best_value = best_value
        self.summaries = summaries or []


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def pnorm_density(p=2.0, scale=1.0, modulation=None, growth=None,
                  domain=(0.0, 0.0, 1.0, 1.0)):
    """Density a(x) * scale * |F|^p."""
    return StoredEnergyDensity(_PNorm(p, scale), modulation, growth, domain=domain)


def aniso_quadratic_density(cmat=None, entry_weights=None, modulation=None,
                            growth=None, domain=(0.0, 0.0, 1.0, 1.0)):
    """Density a(x) * 0.5 vec(F).C.vec(F); give either C or per-entry weights."""
    if (cmat is None) == (entry_weights is None):
        raise ValueError("give exactly one of cmat, entry_weights")
    fam = (_AnisoQuadratic(cmat) if cmat is not None
           else _AnisoQuadratic.from_entry_weights(entry_weights))
    return StoredEnergyDensity(fam, modulation, growth, domain=domain)


def two_well_density(well_plus, well_minus=None, modulation=None, growth=None,
                     domain=(0.0, 0.0, 1.0, 1.0)):
    """Density a(x) * min(|F - A1|^2, |F - A2|^2); default A2 = -A1."""
    return StoredEnergyDensity(_TwoWell(well_plus, well_minus), modulation,
                               growth, domain=domain)


def composite_density(base: StoredEnergyDensity, modulation, growth=None):
    """User composite: an extra modulation multiplying an existing density."""
    mod = ProductModulation([modulation, base.modulation])
    return StoredEnergyDensity(base.family, mod, growth,
                               family_label="composite:" + base.family_label,
                               domain=base.domain)


def density_from_config(cfg) -> StoredEnergyDensity:
    """Build a density from a plain config mapping (see configs/ for examples)."""
    cfg = dict(cfg)
    family = cfg.get("family", "pnorm")
    modulation = modulation_from_config(cfg.get("modulation", {"kind": "constant"}))
    growth = None
    if "growth" in cfg:
        gr = cfg["growth"]
        growth = GrowthSpec(gr.get("p", 2.0), gr["beta_lower"], gr["beta_upper"])
    domain = tuple(cfg.get("domain", (0.0, 0.0, 1.0, 1.0)))
    params = dict(cfg.get("params", {}))
    if family == "pnorm":
        return pnorm_density(params.get("p", 2.0), params.get("scale", 1.0),
                             modulation, growth, domain)
    if family == "aniso_quadratic":
        if "cmat" in params:
            return aniso_quadratic_density(cmat=np.asarray(params["cmat"], dtype=float),
                                           modulation=modulation, growth=growth,
                                           domain=domain)
        return aniso_quadratic_density(entry_weights=np.asarray(
            params.get("entry_weights", np.ones((3, 3))), dtype=float),
            modulation=modulation, growth=growth, domain=domain)
    if family == "two_well":
        wm = params.get("well_minus")
        return two_well_density(np.asarray(params["well_plus"], dtype=float),
                                None if wm is None else np.asarray(wm, dtype=float),
                                modulation, growth, domain)
    if family == "composite":
        base = density_from_config(cfg["base"])
        extra = modulation_from_config(cfg.get("modulation", {"kind": "constant"}))
        return composite_density(base, extra, growth)
    raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# Growth verification
# ---------------------------------------------------------------------------

@dataclass
class GrowthReport:
    n_samples: int
    n_violations: int
    violations: list = dc_field(default_factory=list)
    max_norm: float = 0.0

    @property
    def ok(self) -> bool:
        return self.n_violations == 0


_HALTON_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _halton(n):
    """First n points of the unscrambled 13-D Halton sequence, from index 0.

    Radical inverses in the first 13 prime bases, digits summed from the
    least significant one as ``scipy.stats.qmc.Halton(d=13,
    scramble=False).random(n)`` does, so the points are bitwise its
    points without importing ``scipy.stats``.
    """
    pts = np.zeros((n, len(_HALTON_BASES)))
    for j, base in enumerate(_HALTON_BASES):
        q = np.arange(n)
        digit = 1.0 / base
        while q.any():
            pts[:, j] += (q % base) * digit
            digit /= base
            q //= base
    return pts


def verify_growth(W: StoredEnergyDensity, n_samples=512, fmax=1e3) -> GrowthReport:
    """Check the growth sandwich on a deterministic quasi-random sample set.

    Samples cover the declared mid-surface domain, the full thickness and
    gradient magnitudes log-uniform in [1e-3, fmax].  Violations of either
    bound are collected; the operation reports rather than raises.
    """
    pts = _halton(n_samples)
    ax, ay, bx, by = W.domain
    x1 = ax + (bx - ax) * pts[:, 0]
    x2 = ay + (by - ay) * pts[:, 1]
    x3 = -1.0 + 2.0 * pts[:, 2]
    direction = 2.0 * pts[:, 3:12] - 1.0
    norms = np.linalg.norm(direction, axis=1)
    norms = np.where(norms < 1e-9, 1.0, norms)
    lo = math.log10(1e-3)
    hi = math.log10(fmax)
    radius = 10.0 ** (lo + (hi - lo) * pts[:, 12])
    F = (direction / norms[:, None] * radius[:, None]).reshape(-1, 3, 3)

    xa = np.stack([x1, x2], axis=-1)
    modv = W.modulation.value(xa, x3)
    values = W.energy_array(modv, F)
    fn = frobenius(F)
    lower = W.growth.lower(fn)
    upper = W.growth.upper(fn)
    slack = 1e-9 * (1.0 + np.abs(values))
    bad = np.flatnonzero((values < lower - slack) | (values > upper + slack))
    violations = [
        {"x_alpha": (float(x1[i]), float(x2[i])), "x3": float(x3[i]),
         "fnorm": float(fn[i]), "value": float(values[i]),
         "lower": float(lower[i]), "upper": float(upper[i])}
        for i in bad[:32]
    ]
    return GrowthReport(n_samples=int(n_samples), n_violations=int(bad.size),
                        violations=violations, max_norm=float(fn.max()))
