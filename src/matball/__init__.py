"""Harmonic analysis on the matrix ball at desk scale: Poisson kernels,
generalized spherical functions as hypergeometric determinants, the matrix
Hua operator, boundary asymptotics and the determinant identities behind
them.

Everything is expressed in the spectral variable s = i*lambda.
"""

__version__ = "0.1.0"

from .boundary import (TorusGrid, fourier_mode_check, kernel_mass,
                       poisson_kernel, spherical_oracle, spherical_oracles)
from .errors import (CoincidentError, ConvergenceError, DegenerateConnection,
                     DomainError, GuardError, HypothesisError, MarginError,
                     MatballError, PoleError, RangeError, SingularError)
from .experiments import (KTypeFunction, SweepResult, forelli_rudin_growth,
                          inversion_experiment, key_lemma_sweep,
                          norm_sandwiches, oracle_comparison)
from .hua import HuaResult, hua_apply, hua_residual
from .identities import (AppendixParams, dp_factor, e9_identity_check,
                         induction_identity_check, lemma_a_sides,
                         lemma_b_ratio, pochhammer_product_check)
from .report import CheckReport
from .special import (SpectralParams, c_function, gamma, gauss_2f1,
                      gindikin_gamma, pochhammer)
from .spherical import (gamma_constant, key_lemma_ratio, phi_big, phi_bigs,
                        weyl_dimension)

__all__ = [
    "AppendixParams", "CheckReport", "CoincidentError", "ConvergenceError",
    "DegenerateConnection", "DomainError", "GuardError", "HuaResult",
    "HypothesisError", "KTypeFunction", "MarginError", "MatballError",
    "PoleError", "RangeError", "SingularError", "SpectralParams",
    "SweepResult", "TorusGrid", "c_function", "dp_factor",
    "e9_identity_check", "forelli_rudin_growth", "fourier_mode_check",
    "gamma", "gamma_constant", "gauss_2f1", "gindikin_gamma", "hua_apply",
    "hua_residual", "induction_identity_check", "inversion_experiment",
    "kernel_mass", "key_lemma_ratio", "key_lemma_sweep", "lemma_a_sides",
    "lemma_b_ratio", "norm_sandwiches", "oracle_comparison", "phi_big",
    "phi_bigs", "pochhammer", "pochhammer_product_check", "poisson_kernel",
    "spherical_oracle", "spherical_oracles", "weyl_dimension",
]
