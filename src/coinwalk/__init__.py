"""Simulation and analysis toolkit for one-dimensional coined quantum walks.

Subpackage map:

- :mod:`coinwalk.core` -- coins, lattice states, momentum grids, Pauli algebra
- :mod:`coinwalk.walk` -- exact discrete-time evolution (position and momentum routes)
- :mod:`coinwalk.spectral` -- diagonalisation of U(k) and the generator H(k)
- :mod:`coinwalk.continuous` -- real-time evolution exp(itH) and its diagnostics
- :mod:`coinwalk.limitlaw` -- the weak limit of X_n/n: densities and point masses
- :mod:`coinwalk.semigroup` -- Heisenberg evolution of momentum-fibred observables
- :mod:`coinwalk.cli` -- command-line harness, presets, data export, verification
"""

from .core import (
    AliasingError,
    Coin,
    CoinWalkError,
    DegenerateCoinError,
    DomainError,
    MomentumGrid,
    ValidationError,
    WaveFunction,
    fourier_transform,
    hadamard_switched,
    inverse_fourier,
    momentum_state,
    normalize_phase,
    pauli_compose,
    pauli_decompose,
    position_distribution,
    random_coin,
)
from .walk import (
    DiscreteLaw,
    WalkRun,
    empirical_scaled_law,
    evolve,
    fourier_evolve,
    ks_distance,
    step,
)
from .spectral import (
    build_U_of_k,
    gamma,
    hamiltonian,
    s_inverse_closed_form,
    unitary_S,
)
from .continuous import evolve_continuous, schrodinger_residual
from .limitlaw import (
    LimitLaw,
    asymmetry_coefficient,
    density,
    density_localized,
    g_function,
    lm_values,
    lm_values_numeric,
    point_mass_law,
    weak_limit_law,
)
from .semigroup import (
    DirectIntegralObservable,
    conjugate_evolve,
    cross_generator,
    heisenberg_evolve,
    pauli_flow,
    positivity_check,
)

__version__ = "0.1.0"

__all__ = [
    "AliasingError",
    "Coin",
    "CoinWalkError",
    "DegenerateCoinError",
    "DirectIntegralObservable",
    "DiscreteLaw",
    "DomainError",
    "LimitLaw",
    "MomentumGrid",
    "ValidationError",
    "WalkRun",
    "WaveFunction",
    "asymmetry_coefficient",
    "build_U_of_k",
    "conjugate_evolve",
    "cross_generator",
    "density",
    "density_localized",
    "empirical_scaled_law",
    "evolve",
    "evolve_continuous",
    "fourier_evolve",
    "fourier_transform",
    "g_function",
    "gamma",
    "hadamard_switched",
    "hamiltonian",
    "heisenberg_evolve",
    "inverse_fourier",
    "ks_distance",
    "lm_values",
    "lm_values_numeric",
    "momentum_state",
    "normalize_phase",
    "pauli_compose",
    "pauli_decompose",
    "pauli_flow",
    "point_mass_law",
    "position_distribution",
    "positivity_check",
    "random_coin",
    "s_inverse_closed_form",
    "schrodinger_residual",
    "step",
    "unitary_S",
    "weak_limit_law",
]
