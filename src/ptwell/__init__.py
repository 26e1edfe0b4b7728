"""Spectra of the PT-symmetric oscillator family H = p^2 + x^(2M) (ix)^eps.

Complex-ray shooting for the finite-deformation eigenvalues, WKB
quantization (closed form and quadrature), the exactly solvable
large-deformation limit, and Richardson extrapolation toward that limit.
"""

from .classical import PeriodResult, period_asymptotic, period_exact
from .extrapolation import richardson, subtract_leading
from .geometry import (BranchCutError, ModelSpec, TurningPair, WedgePair,
                       potential_value, turning_points, wedge_angles)
from .limit import (E_of_F, F_of_eps, LimitLevel, boundary_log_decay,
                    f1_ground, f1_oracle, limit_wavefunction, nu_spectrum,
                    quantization_residual, scaled_ode_residual)
from .shooting import (EigenResult, ShootingError, match_height, scan_levels,
                       solve_level)
from .specfun import (EULER_GAMMA, SpecialFunctionError, bessel_K_scaled,
                      gamma_fn)
from .wkb import (action_integral, ground_expansion_exact, ground_expansion_wkb,
                  wkb_energy_closed, wkb_energy_next, wkb_energy_quadrature)

__version__ = "0.1.0"

__all__ = [
    "BranchCutError", "E_of_F", "EULER_GAMMA", "EigenResult", "F_of_eps",
    "LimitLevel", "ModelSpec", "PeriodResult", "ShootingError",
    "SpecialFunctionError", "TurningPair", "WedgePair", "action_integral",
    "bessel_K_scaled", "boundary_log_decay", "f1_ground", "f1_oracle",
    "gamma_fn", "ground_expansion_exact", "ground_expansion_wkb",
    "limit_wavefunction", "match_height", "nu_spectrum", "period_asymptotic",
    "period_exact", "potential_value", "quantization_residual", "richardson",
    "scan_levels", "scaled_ode_residual", "solve_level", "subtract_leading",
    "turning_points", "wedge_angles", "wkb_energy_closed", "wkb_energy_next",
    "wkb_energy_quadrature",
]
