"""Simulation and stability analysis of hybrid pantograph SDEs.

Scalar stochastic differential equations whose coefficients depend on
the running segment x(theta t), theta in [theta_lower, 1], and on a
continuous-time Markov regime r(t):

    dx(t) = f(x_t, t, r(t)) dt + g(x_t, t, r(t)) dB(t),   t >= t0 > 0.

The package samples regime chains exactly, integrates paths by
Euler-Maruyama with switch times inserted into the grid, evaluates the
regime-coupled Lyapunov operator LV along paths, checks stability
certificates from coefficient data in closed form, and estimates
moment/almost-sure exponential and polynomial decay rates by Monte
Carlo.
"""

from . import errors
from .certificates import (CertificateData, CertificateRow,
                           CertificateVerdict, certify_epsilon_exponential,
                           check_existence, existence_margins, moment_bound,
                           polynomial_margins, solve_epsilon_exponential,
                           solve_epsilon_polynomial, time_average_bound,
                           time_average_denominator)
from .config import (build_certificate, build_lyapunov, build_measure,
                     build_model, load_config)
from .errors import Error
from .estimators import (RateReport, estimate_as_rate, estimate_moment_rate,
                         estimate_polynomial_rate, estimate_time_average)
from .integrator import (IntegratorConfig, SimulationBatch, TabulatedWiener,
                         integrate_path, run_batch, uniform_grid)
from .lyapunov import (LVBreakdown, LyapunovFamily, PolynomialV,
                       ResidualStatistic, eval_LV, lv_profile,
                       martingale_residual, sandwich_report)
from .markov import (GeneratorMatrix, RegimePath, make_generator,
                     sample_regime_path, stationary_distribution)
from .models import (Kernel, Measure, ModelSpec, PantographTerm,
                     PolynomialTerm, single_regime)
from .paths import ConstantSegment, DensePath, write_csv
from .presets import (PRESET_NAMES, default_measure, preset,
                      preset_certificate, preset_lyapunov)

__version__ = "0.1.0"

__all__ = [
    "CertificateData", "CertificateRow", "CertificateVerdict",
    "ConstantSegment", "DensePath", "Error",
    "GeneratorMatrix", "IntegratorConfig", "Kernel", "LVBreakdown",
    "LyapunovFamily", "Measure", "ModelSpec", "PantographTerm",
    "PolynomialTerm", "PolynomialV", "PRESET_NAMES", "RateReport",
    "RegimePath", "ResidualStatistic", "SimulationBatch",
    "TabulatedWiener", "build_certificate", "build_lyapunov",
    "build_measure", "build_model", "certify_epsilon_exponential",
    "check_existence", "default_measure", "errors", "estimate_as_rate",
    "estimate_moment_rate", "estimate_polynomial_rate",
    "estimate_time_average", "eval_LV", "existence_margins",
    "integrate_path", "load_config", "lv_profile", "make_generator",
    "martingale_residual", "moment_bound", "polynomial_margins", "preset",
    "preset_certificate", "preset_lyapunov", "run_batch",
    "sample_regime_path", "sandwich_report", "single_regime",
    "solve_epsilon_exponential", "solve_epsilon_polynomial",
    "stationary_distribution", "time_average_bound",
    "time_average_denominator", "uniform_grid", "write_csv",
]
