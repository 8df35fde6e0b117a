"""Numerical laboratory for mesoscopic fluctuations of Coulomb gases (d >= 3).

The package is organized bottom-up:

* ``grids``        measures on boxes (lattice densities, atomic configurations)
* ``coulomb``      the kernel |x|^(2-d): potentials, energies, smearing
* ``equilibrium``  zero-temperature and thermal equilibrium measures
* ``sampler``      Metropolis chains for the Gibbs ensemble and the exact
                   Hamiltonian splitting around the thermal measure
* ``rates``        the three large-deviation rate functionals and their
                   closed-form sub-minimizers
* ``construction`` certified well-separated configurations near a target
* ``cli``          configuration-driven command line (``mesogas ...``)

Hot numeric kernels (pair sums, smeared grid potentials, the Metropolis step
loop) live in ``kernels``, each with one numpy implementation.
"""

from .coulomb import SmearKind, SpaceParams, energy, potential_field
from .equilibrium import Potential, solve_equilibrium, solve_thermal
from .grids import (AtomicMeasure, Box, GridMeasure, bl_distance, dilate,
                    mass, relative_entropy, resample)
from .rates import ExteriorDomain, RateReport, n_rate, phi_rate, t_rate
from .sampler import RegimeParams, gibbs_sample, hamiltonian, splitting_decompose

__version__ = "0.1.0"

__all__ = [
    "AtomicMeasure", "Box", "ExteriorDomain", "GridMeasure",
    "Potential", "RateReport", "RegimeParams", "SmearKind", "SpaceParams",
    "bl_distance", "dilate", "energy", "gibbs_sample", "hamiltonian",
    "mass", "n_rate", "phi_rate", "potential_field", "relative_entropy",
    "resample", "solve_equilibrium", "solve_thermal", "splitting_decompose",
    "t_rate",
    "__version__",
]
