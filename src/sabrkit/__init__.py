"""SABR pricing and calibration toolkit.

Closed-form vol-of-vol series prices and implied vols for the lognormal
SABR model (with optional mean reversion), a regularized industry-standard
implied-vol formula, finite-difference and Monte Carlo benchmarks, a PDE
residual diagnostic, and daily panel calibration.
"""

from .core import (
    DomainError,
    OptionQuery,
    bs_call,
    bs_implied_vol,
    c_rel,
    d_minus,
    h_tilde,
    hermite,
    norm_cdf,
    norm_pdf,
    norm_ppf,
    phi_t,
)
from .expansion import (
    ExpansionPrice,
    SabrParams,
    VolQuote,
    delta_sa2,
    implied_e1,
    implied_e2,
    price_d,
    price_sa2,
    price_sa2_rel,
    sigma_d,
)
from .hagan import price_h, sigma_h, z_over_xi
from .fd import (
    FdComparison,
    FdGrid,
    FdInstabilityError,
    FdSolution,
    ResidualRegion,
    compare,
    cutoff_sensitivity,
    residual_norm,
    richardson_ratios,
    solve,
    solve_sequence,
)
from .mc import McConfig, simulate_prices
from .calibration import (
    CalibrationResult,
    QuoteDay,
    calibrate_panel,
    delta_to_moneyness,
    objective_value,
    read_quotes_csv,
    synth_panel,
    write_quotes_csv,
)
from .meanrev import MeanRevState, det_vol_price, sigma_of_z, total_variance
from .models import MODEL_NAMES, price_fn_for_model, vol_fn_for_model

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "OptionQuery",
    "bs_call",
    "bs_implied_vol",
    "c_rel",
    "d_minus",
    "h_tilde",
    "hermite",
    "norm_cdf",
    "norm_pdf",
    "norm_ppf",
    "phi_t",
    "ExpansionPrice",
    "SabrParams",
    "VolQuote",
    "delta_sa2",
    "implied_e1",
    "implied_e2",
    "price_d",
    "price_sa2",
    "price_sa2_rel",
    "sigma_d",
    "price_h",
    "sigma_h",
    "z_over_xi",
    "FdComparison",
    "FdGrid",
    "FdInstabilityError",
    "FdSolution",
    "ResidualRegion",
    "compare",
    "cutoff_sensitivity",
    "residual_norm",
    "richardson_ratios",
    "solve",
    "solve_sequence",
    "McConfig",
    "simulate_prices",
    "CalibrationResult",
    "QuoteDay",
    "calibrate_panel",
    "delta_to_moneyness",
    "objective_value",
    "read_quotes_csv",
    "synth_panel",
    "write_quotes_csv",
    "MeanRevState",
    "det_vol_price",
    "sigma_of_z",
    "total_variance",
    "MODEL_NAMES",
    "price_fn_for_model",
    "vol_fn_for_model",
    "__version__",
]
