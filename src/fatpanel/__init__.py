"""Forecasted average treatment effects for panel event studies.

Treated units' untreated outcomes are forecast from their own
pre-treatment histories with time-series basis fits, and the average
post-treatment gap between realized and forecast outcomes estimates the
effect.  The package covers plain forecasting (``fat``), placebo checks
(``placebo_fat``), a treated-minus-control difference robust to common
shocks (``dfat``), a model-based variant that first removes dynamics
shared across units (``model_based_fat``), and a Monte Carlo harness
(``run_monte_carlo``) with named study presets.
"""

from .basis import (BasisSpec, ForecastConfig, ForecastWeights,
                    binomial_weights, forecast_weights)
from .errors import (ConfigError, EstimationError, FatpanelError,
                     PanelFormatError, RankDeficiencyError)
from .estimators import (AhEstimate, DfatEstimate, FatEstimate, MbConfig,
                         anderson_hsiao, covariate_fat_heterogeneous, dfat,
                         fat, fat_variance, mb_variance, model_based_fat,
                         placebo_fat)
from .panel import (BlockDiagnostics, PanelData, UnitDiagnostics, UnitSeries,
                    ValidationReport, apply_anticipation, load_panel, panel_to_csv_text,
                    reindex_time_to_adoption, validate, write_panel)
from .simulate import (DgpSpec, GridCell, McCellResult, McReport,
                       PRESET_NAMES, analytic_mean_recursion, preset,
                       run_monte_carlo, simulate_dgp)

__version__ = "0.1.0"

__all__ = [
    "AhEstimate", "BasisSpec", "BlockDiagnostics", "ConfigError", "DfatEstimate", "DgpSpec",
    "EstimationError", "FatEstimate", "FatpanelError", "ForecastConfig",
    "ForecastWeights", "GridCell", "MbConfig", "McCellResult", "McReport",
    "PRESET_NAMES", "PanelData", "PanelFormatError", "RankDeficiencyError",
    "UnitDiagnostics", "UnitSeries", "ValidationReport",
    "analytic_mean_recursion", "anderson_hsiao", "apply_anticipation",
    "binomial_weights", "covariate_fat_heterogeneous", "dfat", "fat",
    "fat_variance", "forecast_weights", "load_panel", "mb_variance",
    "model_based_fat", "panel_to_csv_text", "placebo_fat", "preset",
    "reindex_time_to_adoption", "run_monte_carlo", "simulate_dgp", "validate",
    "write_panel",
]
