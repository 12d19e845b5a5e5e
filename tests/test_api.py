"""The library's surface: every defaulted parameter and dataclass field of
`src/sabrkit`, the keywords that became module constants, and the lists of
models, objectives and public names.

A setting that no caller outside the tests sets is a module constant, not
a parameter. A public name is declared once, in its module's `__all__`,
which the package re-exports. Adding a defaulted parameter or field fails
`test_settings_snapshot` until SETTINGS below lists it; adding a model, an
objective or a public name fails its snapshot test the same way.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import sabrkit
from sabrkit import (
    FdSolution,
    ResidualRegion,
    SabrParams,
    bs_implied_vol,
    calibrate_panel,
    price_h,
    sigma_d,
    sigma_h,
    solve,
    solve_sequence,
    synth_panel,
    z_over_xi,
)
from sabrkit import calibration, core, expansion, fd, mc, models
from sabrkit.fd import stable_time_steps

# module.name.param for every defaulted parameter of a module-level function
# and every dataclass field with a default, sorted
SETTINGS = [
    "calibration.CalibrationResult.converged",
    "calibration.CalibrationResult.n_skipped",
    "calibration.CalibrationResult.nfev",
    "calibration.CalibrationResult.ose",
    "calibration.QuoteDay.delta",
    "calibration.QuoteDay.moneyness",
    "calibration.calibrate_panel.kappa0",
    "calibration.calibrate_panel.sigma_prev0",
    "calibration.calibrate_panel.theta",
    "calibration.objective_value.sigma_prev",
    "calibration.synth_panel.noise_level",
    "calibration.synth_panel.quote_with",
    "calibration.synth_panel.seed",
    "cli.main.argv",
    "core.OptionQuery.expiry",
    "core.OptionQuery.rate",
    "expansion.SabrParams.kappa0",
    "expansion.SabrParams.theta",
    "expansion.price_d.sigma",
    "expansion.price_sa2_rel.sigma",
    "fd.FdSolution.est_error",
    "fd.ResidualRegion.sigma_range",
    "fd.ResidualRegion.t_range",
    "fd.ResidualRegion.y_range",
    "hagan.price_h.sigma",
    "mc.McConfig.antithetic",
    "mc.McConfig.dt",
    "mc.McConfig.n_paths",
    "mc.McConfig.seed",
]


def settings() -> list[str]:
    found = []
    for info in pkgutil.iter_modules(sabrkit.__path__):
        module = importlib.import_module(f"sabrkit.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # imported from elsewhere
            if inspect.isfunction(obj):
                found += [
                    f"{info.name}.{name}.{p.name}"
                    for p in inspect.signature(obj).parameters.values()
                    if p.default is not inspect.Parameter.empty
                ]
            elif isinstance(obj, type) and dataclasses.is_dataclass(obj):
                found += [
                    f"{info.name}.{name}.{f.name}"
                    for f in dataclasses.fields(obj)
                    if f.default is not dataclasses.MISSING
                    or f.default_factory is not dataclasses.MISSING
                ]
    return sorted(found)


def test_settings_snapshot():
    assert settings() == SETTINGS


def test_model_names_snapshot():
    assert models.MODEL_NAMES == ("sa2", "d", "h", "bs", "kappa")


def test_objectives_snapshot():
    assert calibration.OBJECTIVES == (
        "sigma_d", "sigma_h", "price_d", "price_h", "price_sa2",
        "log_price_d", "log_price_h", "log_price_sa2",
    )


PUBLIC_NAMES = [
    "CalibrationResult", "DomainError", "ExpansionPrice", "FdComparison",
    "FdGrid", "FdInstabilityError", "FdSolution", "MODEL_NAMES", "McConfig",
    "MeanRevState", "OptionQuery", "QuoteDay", "ResidualRegion", "SabrParams", "VolQuote",
    "__version__", "bs_call", "bs_implied_vol", "c_rel", "calibrate_panel",
    "compare", "cutoff_sensitivity", "d_minus", "delta_sa2",
    "delta_to_moneyness", "det_vol_price", "h_tilde",
    "hermite", "implied_e1", "implied_e2", "norm_cdf", "norm_pdf", "norm_ppf",
    "objective_value", "phi_t", "price_d", "price_fn_for_model",
    "price_h", "price_sa2", "price_sa2_rel", "read_quotes_csv", "residual_norm",
    "richardson_ratios", "sigma_d", "sigma_h", "sigma_of_z",
    "simulate_prices", "solve", "solve_sequence", "synth_panel", "total_variance",
    "vol_fn_for_model", "write_quotes_csv", "z_over_xi",
]


def test_public_names_snapshot():
    assert sorted(sabrkit.__all__) == PUBLIC_NAMES


def test_each_public_name_is_declared_once():
    # the package star-imports every module but the command-line front end,
    # so a module's __all__ is the one list of its public names, and a name
    # in two lists would be shadowed without an error
    owner = {}
    for info in pkgutil.iter_modules(sabrkit.__path__):
        if info.name == "cli":
            continue
        module = importlib.import_module(f"sabrkit.{info.name}")
        for name in module.__all__:
            assert name not in owner, f"{name} is in {owner.get(name)} and {info.name}"
            owner[name] = info.name
            assert name in sabrkit.__all__
            assert getattr(sabrkit, name) is getattr(module, name)


PARAMS = SabrParams(sigma0=0.18, nu=1.0, rho=-0.2)
DAY = synth_panel(PARAMS, 1)[0]
GRID = fd._level_grid(PARAMS, 0.5, 0, grown=False)


@pytest.mark.parametrize(
    "name, call",
    [
        ("lo", lambda: bs_implied_vol(0.08, 0.0, 1.0, lo=1e-6)),
        ("hi", lambda: bs_implied_vol(0.08, 0.0, 1.0, hi=5.0)),
        ("tol", lambda: bs_implied_vol(0.08, 0.0, 1.0, tol=1e-12)),
        ("z_switch", lambda: z_over_xi(0.1, -0.2, z_switch=1e-4)),
        ("regularized", lambda: sigma_h(0.0, 1.0, PARAMS, regularized=False)),
        ("regularized", lambda: price_h(0.0, 1.0, PARAMS, regularized=False)),
        # FdConfig's old fields, on solve, which takes the level alone
        ("c_safety", lambda: solve(PARAMS, 0.5, 0, c_safety=0.9)),
        ("window_x", lambda: solve(PARAMS, 0.5, 0, window_x=(-1.0, 1.0))),
        (
            "c_safety",
            lambda: stable_time_steps(GRID.sigma_nodes, GRID.dx, PARAMS, 0.5, c_safety=0.9),
        ),
        # the rectangle is module constants; explicit ids keep the other ids
        pytest.param("x_max", lambda: solve(PARAMS, 0.5, 0, x_max=3.0), id="FdConfig-x_max"),
        pytest.param(
            "sigma_center",
            lambda: solve(PARAMS, 0.5, 0, sigma_center=0.18),
            id="FdConfig-sigma_center",
        ),
        pytest.param(
            "sigma_max", lambda: solve(PARAMS, 0.5, 0, sigma_max=1.6803), id="FdConfig-sigma_max"
        ),
        pytest.param("nx0", lambda: solve(PARAMS, 0.5, 0, nx0=13), id="FdConfig-nx0"),
        pytest.param("nsigma0", lambda: solve(PARAMS, 0.5, 0, nsigma0=19), id="FdConfig-nsigma0"),
        # build_grid's old keywords, on solve_sequence, which starts at level 0
        ("x_max", lambda: solve_sequence(PARAMS, 0.5, 0, x_max=3.0)),
        ("sigma_center", lambda: solve_sequence(PARAMS, 0.5, 0, sigma_center=0.18)),
        ("sigma_max", lambda: solve_sequence(PARAMS, 0.5, 0, sigma_max=1.6803)),
        ("nx0", lambda: solve_sequence(PARAMS, 0.5, 0, nx0=13)),
        ("nsigma0", lambda: solve_sequence(PARAMS, 0.5, 0, nsigma0=19)),
        ("level", lambda: solve_sequence(PARAMS, 0.5, 0, level=0)),
        ("n_t", lambda: ResidualRegion(n_t=10)),
        ("n_sigma", lambda: ResidualRegion(n_sigma=9)),
        ("n_y", lambda: ResidualRegion(n_y=11)),
        # the old fit_day keywords, on the one-day panel that fits a day
        ("bounds", lambda: calibrate_panel([DAY], (1.0, 0.2, -0.2), "sigma_d", bounds=None)),
        ("max_iter", lambda: calibrate_panel([DAY], (1.0, 0.2, -0.2), "sigma_d", max_iter=2000)),
        ("n_restarts", lambda: calibrate_panel([DAY], (1.0, 0.2, -0.2), "sigma_d", n_restarts=1)),
        (
            "max_iter",
            lambda: calibrate_panel([DAY, DAY], (1.0, 0.2, -0.2), "sigma_d", max_iter=2000),
        ),
        ("model", lambda: synth_panel(PARAMS, 1, model="sigma_d")),
        # the vols take params.sigma0; the price forms keep the sigma keyword
        ("sigma", lambda: sigma_d(0.1, 1.0, PARAMS, sigma=0.2)),
        ("sigma", lambda: sigma_h(0.1, 1.0, PARAMS, sigma=0.2)),
    ],
)
def test_removed_keyword_is_a_type_error(name, call):
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
        call()


def test_max_level_is_required():
    with pytest.raises(TypeError, match="missing 1 required positional argument: 'max_level'"):
        solve_sequence(PARAMS, 0.5)


def test_window_indices_are_required():
    with pytest.raises(TypeError, match="'window_x_idx' and 'window_s_idx'"):
        FdSolution(grid=None, values=np.zeros(1), params=PARAMS, time=0.5)


def test_fit_bounds_is_gone():
    assert not hasattr(calibration, "FitBounds")
    assert "FitBounds" not in calibration.__all__


def test_fd_config_is_gone():
    # solve takes the level, solve_sequence starts at level 0
    assert not hasattr(fd, "FdConfig")
    assert "FdConfig" not in fd.__all__


def test_build_grid_is_gone():
    # fd._level_grid(params, T, level, grown=False) is the level's mesh,
    # built once with its time-step count
    assert not hasattr(fd, "build_grid")
    assert not hasattr(fd, "_build_grid")
    assert "build_grid" not in fd.__all__


def test_simulate_price_is_gone():
    # one strike is simulate_prices([query], params, config)[0]
    assert not hasattr(mc, "simulate_price")
    assert "simulate_price" not in mc.__all__


def test_fit_day_is_gone():
    # one day is calibrate_panel([day], init, objective, ...)[0]
    assert not hasattr(calibration, "fit_day")
    assert "fit_day" not in calibration.__all__


def test_term_wrappers_are_gone():
    # F1 and F2 are price_sa2(query, SabrParams(sigma, 0.0, rho, kappa0,
    # theta)).f1 and .f2; d_+ is d_minus(y, sigma, t) + sigma sqrt(t)
    for module, name in [
        (expansion, "f1_term"), (expansion, "f2_term"), (expansion, "_term"),
        (core, "d_pair"), (core, "DPair"),
    ]:
        assert not hasattr(module, name)
        assert name not in module.__all__
        assert name not in sabrkit.__all__
