"""Effective membrane and Cosserat-membrane energy densities of thin films.

The package computes, for a heterogeneous stored energy W(x; F) on a
slab of vanishing thickness, the effective zero-thickness densities
defined through unit-cell problems across the thickness, and verifies
numerically that scaled three-dimensional energies approach the
two-dimensional limit functional as the thickness goes to zero.

Modules
-------
integrand : stored energy families, heterogeneity, growth metadata
field     : structured meshes and energy assembly; ``EnergyContext`` is
            the one entry point for gradients, energies and their
            derivatives
solvers   : descent machinery (quasi-Newton with backtracking)
cell      : unit-cell relaxation problems (membrane, Cosserat, 3D)
thinfilm  : scaled thin-film energies and thickness-convergence studies
tabulate  : density tables (build, interpolate, persist)
cli       : config-driven command line front end
"""

from .integrand import (
    DomainError, GrowthSpec, MaterialPoint, join, frobenius,
    ConstantModulation, TransverseLaminate, PlanarCheckerboard,
    ProductModulation, ExpressionModulation, StoredEnergyDensity,
    pnorm_density, aniso_quadratic_density, two_well_density,
    density_from_config, verify_growth,
)
from .field import (
    CellMesh, DiscreteField, EnergyContext, transverse_average, refine_mesh,
    inject,
)
from .cell import (
    LSearchConfig, InnerConfig, CellProblemSpec, CellSolution,
    membrane_density, membrane_density_periodic, cosserat_density,
    minimize_over_z, quasiconvexify,
)
from .thinfilm import (
    LoadSystem, ThinFilmProblem, ConvergenceReport,
    scaled_energy, minimize_thin_film, convergence_study,
)
from .tabulate import SampleGrid, DensityTable, build_table, query, save_table, load_table

__version__ = "0.1.0"
