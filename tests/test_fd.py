import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from sabrkit import (
    DomainError,
    FdConfig,
    FdInstabilityError,
    ResidualRegion,
    SabrParams,
    build_grid,
    c_rel,
    compare,
    cutoff_sensitivity,
    residual_norm,
    richardson_ratios,
    solve,
    solve_sequence,
)
from sabrkit import fd
from sabrkit.cli import FD_PRESETS, RESIDUAL_PRESETS
from sabrkit.fd import (
    _MAX_NODE_STEPS,
    _cell_averaged_payoff,
    _cutoff_config,
    _instability,
    _level_grid,
    _step_matrix,
    stable_time_steps,
)
from sabrkit.models import price_fn_for_model


def reference_operator(grid, params, w):
    """L w on the interior nodes by array slices: the slice-based stencil
    the CSR step matrix replaced, kept here as its independent reference."""
    s = grid.sigma_nodes
    dx, nu, rho = grid.dx, params.nu, params.rho
    s2 = (s[1:-1] ** 2)[np.newaxis, :]
    hm = (s[1:-1] - s[:-2])[np.newaxis, :]
    hp = (s[2:] - s[1:-1])[np.newaxis, :]
    denom = hm * hp * (hm + hp)
    wc = w[1:-1, 1:-1]
    w_xx = (w[2:, 1:-1] - 2.0 * wc + w[:-2, 1:-1]) / dx**2
    w_x = (w[2:, 1:-1] - w[:-2, 1:-1]) / (2.0 * dx)
    w_ss = (
        (2.0 * hp / denom) * w[1:-1, :-2]
        + (-2.0 / (hm * hp)) * wc
        + (2.0 * hm / denom) * w[1:-1, 2:]
    )
    lw = 0.5 * (w_xx - w_x) + 0.5 * nu * nu * w_ss
    if nu != 0.0 and rho != 0.0:
        wx_full = (w[2:, :] - w[:-2, :]) / (2.0 * dx)
        w_xs = (
            (-(hp**2) / denom) * wx_full[:, :-2]
            + ((hp - hm) / (hm * hp)) * wx_full[:, 1:-1]
            + ((hm**2) / denom) * wx_full[:, 2:]
        )
        lw += nu * rho * w_xs
    return s2 * lw


def reference_march(params, T, config):
    """Explicit march with the reference operator and one c_rel call per
    step for the whole boundary ring; returns the final grid values."""
    grid = build_grid(level=config.level)
    nt = stable_time_steps(grid, params, T, config.c_safety)
    dt = T / nt
    x, s = grid.x_nodes, grid.sigma_nodes
    xs, ss = np.meshgrid(x, s, indexing="ij")
    ring = np.ones(xs.shape, dtype=bool)
    ring[1:-1, 1:-1] = False
    w = _cell_averaged_payoff(x, grid.dx)[:, np.newaxis] * np.ones((1, s.size))
    for k in range(nt):
        w[1:-1, 1:-1] += dt * reference_operator(grid, params, w)
        w[ring] = c_rel(xs[ring], ss[ring], (k + 1) * dt)
    return w


class TestGrid:
    def test_node_counts(self):
        for level in (0, 1, 2):
            g = build_grid(level=level)
            assert g.x_nodes.size == 12 * 2**level + 1
            assert g.sigma_nodes.size == 18 * 2**level + 1

    def test_sigma_geometric(self):
        g = build_grid()
        ratios = g.sigma_nodes[1:] / g.sigma_nodes[:-1]
        assert np.allclose(ratios, ratios[0], rtol=1e-12)
        assert g.sigma_nodes[0] == pytest.approx(0.18**2 / 1.6803)
        assert g.sigma_nodes[-1] == pytest.approx(1.6803)

    def test_nesting(self):
        coarse = build_grid(level=1)
        fine = build_grid(level=2)
        assert np.allclose(fine.x_nodes[::2], coarse.x_nodes)
        assert np.allclose(fine.sigma_nodes[::2], coarse.sigma_nodes, rtol=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            build_grid(x_max=-1.0)
        with pytest.raises(DomainError):
            build_grid(sigma_center=2.0, sigma_max=1.0)
        with pytest.raises(DomainError):
            build_grid(level=-1)


class TestBoundary:
    def test_edges_hold_black_scholes_at_expiry(self):
        params = SabrParams(sigma0=0.18, nu=1.0, rho=-0.2)
        sol = solve(params, 0.5, FdConfig())
        x, s = sol.grid.x_nodes, sol.grid.sigma_nodes
        w = sol.values
        for got, xs, ss in (
            (w[0, :], x[0], s),
            (w[-1, :], x[-1], s),
            (w[:, 0], x, s[0]),
            (w[:, -1], x, s[-1]),
        ):
            want = c_rel(xs, ss, 0.5)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)


class TestStepMatrix:
    @settings(max_examples=60, deadline=None)
    @given(
        nu=st.floats(0.0, 2.0),
        rho=st.floats(-0.99, 0.99),
        level=st.integers(0, 1),
        dt_frac=st.floats(1e-3, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(nu=0.0, rho=0.0, level=0, dt_frac=1.0, seed=0)
    @example(nu=1.0, rho=0.0, level=1, dt_frac=0.5, seed=1)
    @example(nu=0.0, rho=-0.5, level=1, dt_frac=0.5, seed=2)
    def test_matches_reference_operator(self, nu, rho, level, dt_frac, seed):
        params = SabrParams(sigma0=0.18, nu=nu, rho=rho)
        grid = build_grid(level=level)
        dt = dt_frac / stable_time_steps(grid, params, 1.0)
        w = np.random.default_rng(seed).standard_normal(
            (grid.x_nodes.size, grid.sigma_nodes.size)
        )
        got = _step_matrix(grid, params, dt) @ w.ravel()
        want = (w[1:-1, 1:-1] + dt * reference_operator(grid, params, w)).ravel()
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_layout(self):
        grid = build_grid(level=1)
        ns = grid.sigma_nodes.size
        step = _step_matrix(grid, SabrParams(sigma0=0.18, nu=1.0, rho=-0.2), 1e-4)
        n_int = (grid.x_nodes.size - 2) * (ns - 2)
        assert step.shape == (n_int, grid.x_nodes.size * ns)
        assert step.indices.dtype == np.int32
        np.testing.assert_array_equal(step.indptr, np.arange(0, 9 * n_int + 1, 9))
        offsets = step.indices.reshape(n_int, 9) - step.indices[4::9, np.newaxis]
        want = [-ns - 1, -ns, -ns + 1, -1, 0, 1, ns - 1, ns, ns + 1]
        np.testing.assert_array_equal(offsets, np.broadcast_to(want, offsets.shape))


class TestInitialData:
    def test_cell_average_exact(self):
        h = 0.25
        for x in (-0.3, -0.1, 0.0, 0.05, 0.4):
            want, _ = quad(
                lambda u: max(math.exp(u) - 1.0, 0.0),
                x - h / 2,
                x + h / 2,
                points=[0.0],
            )
            got = float(_cell_averaged_payoff(np.array([x]), h)[0])
            assert abs(got - want / h) <= 1e-12

    def test_far_from_kink(self):
        got = float(_cell_averaged_payoff(np.array([-2.0]), 0.1)[0])
        assert got == 0.0


class TestSolve:
    def test_nu_zero_matches_black_scholes(self):
        params = SabrParams(sigma0=0.18, nu=0.0, rho=0.0)
        sols = solve_sequence(params, 0.5, FdConfig(), max_level=2)
        errs = []
        for sol in sols:
            cmp = compare(sol, lambda y, s, t: c_rel(y, s, t))
            errs.append(cmp.l2)
        assert errs[2] < errs[1] < errs[0]
        assert errs[2] <= 2e-3

    def test_norm_ordering(self):
        params = SabrParams(sigma0=0.18, nu=0.5, rho=-0.2)
        sol = solve(params, 0.5, FdConfig(level=1))
        cmp = compare(sol, price_fn_for_model("bs", params))
        assert cmp.l1 <= cmp.l2 <= cmp.linf

    def test_richardson_second_order(self):
        params = SabrParams(sigma0=0.18, nu=0.0, rho=0.0)
        sols = solve_sequence(params, 0.5, FdConfig(), max_level=3)
        for r in richardson_ratios(sols):
            assert 0.2 <= r <= 0.32

    def test_est_error_tracks_diff(self):
        params = SabrParams(sigma0=0.18, nu=0.5, rho=-0.2)
        sols = solve_sequence(params, 0.5, FdConfig(), max_level=2)
        assert math.isnan(sols[0].est_error)
        assert sols[2].est_error < sols[1].est_error

    def test_instability_detected(self):
        params = SabrParams(sigma0=0.18, nu=1.0, rho=-0.2)
        # the failing step, node and value, as the slice-based stencil gave them
        with pytest.raises(FdInstabilityError) as info:
            solve(params, 0.5, FdConfig(level=1, c_safety=10.0))
        assert str(info.value) == "exploding value -2170 at x=0, sigma=1.484, t=0.4286"

    def test_march_matches_reference(self):
        # preset fd1-row7 at level 2
        params = SabrParams(sigma0=0.18, nu=1.0, rho=-0.2)
        config = FdConfig(level=2)
        sol = solve(params, 0.5, config)
        want = reference_march(params, 0.5, config)
        window = np.ix_(sol.window_x_idx, sol.window_s_idx)
        np.testing.assert_allclose(sol.restriction, want[window], rtol=1e-12, atol=0.0)

    def test_cutoff_insensitive(self):
        params = SabrParams(sigma0=0.18, nu=0.5, rho=-0.2)
        sols = solve_sequence(params, 0.5, FdConfig(), max_level=1)
        drift = cutoff_sensitivity(params, 0.5, FdConfig(level=1))
        # moving the cut-off out changes the window much less than the
        # discretization error itself
        assert drift <= sols[1].est_error

    def test_rejections(self):
        with pytest.raises(DomainError):
            solve(SabrParams(sigma0=0.2, nu=0.5, rho=0.0, kappa0=1.0, theta=0.2), 1.0, FdConfig())
        for T in (0.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                solve(SabrParams(sigma0=0.2, nu=0.5, rho=0.0), T, FdConfig())
        with pytest.raises(DomainError):
            solve_sequence(SabrParams(sigma0=0.2, nu=0.5, rho=0.0), 1.0, FdConfig(), max_level=-1)

    def test_wide_grid_runs_clean(self):
        # x_max = 8 puts e^x_max (2981) above the 1e3 floor of the
        # instability bound, so the bound comes from the payoff; the window
        # was recorded when the bound still grew with the edge values
        params = SabrParams(sigma0=0.18, nu=1.0, rho=-0.2)
        sol = solve(params, 0.5, FdConfig(x_max=8.0, window_x=(-4.0, 4.0)))
        want = [
            [7.20832519796302e-09, 1.5664511067605546e-08, 2.8982613133115815e-08],
            [-1.4525963326091343e-06, -2.7287967706975833e-06, -5.071306160602337e-06],
            [0.00021570756120601456, 0.0003709783540740714, 0.0006069061463382697],
            [0.21129574308765003, 0.21384020079197819, 0.2163915037138973],
            [3.0753619883019705, 3.074927081458415, 3.071992424051305],
            [14.457407737663319, 14.453706518456217, 14.439103319669718],
            [57.64022645280955, 57.62612381896358, 57.57058557095551],
        ]
        assert sol.grid.n_time_steps == 14
        np.testing.assert_allclose(sol.restriction, want, rtol=1e-12, atol=1e-20)

    def test_instability_messages(self):
        grid = build_grid()
        w = np.zeros((grid.x_nodes.size, grid.sigma_nodes.size))
        w[3, 4] = 1e9
        assert str(_instability(w, grid, 0.25)).startswith("exploding value 1e+09 at x=")
        w[5, 6] = np.nan
        assert str(_instability(w, grid, 0.25)).startswith("non-finite value at x=")


class TestResidual:
    SMALL = ResidualRegion(t_range=(0.3, 0.8), sigma_range=(0.15, 0.25),
                           y_range=(-0.3, 0.3), n_t=3, n_sigma=3, n_y=5)

    def test_black_scholes_solves_nu_zero(self):
        params = SabrParams(sigma0=0.2, nu=0.0, rho=0.0)
        r = residual_norm(price_fn_for_model("bs", params), params, self.SMALL)
        assert r <= 1e-4

    def test_expansion_beats_black_scholes(self):
        params = SabrParams(sigma0=0.2, nu=0.3, rho=-0.4)
        r_bs = residual_norm(price_fn_for_model("bs", params), params, self.SMALL)
        r_sa2 = residual_norm(price_fn_for_model("sa2", params), params, self.SMALL)
        assert r_sa2 < r_bs / 10

    @pytest.mark.parametrize("model", ["h", "sa2"])
    def test_table4_converges_in_rel_step(self, monkeypatch, model):
        # criterion 4's residuals are not a finite-difference artefact: they
        # settle to 0.5% as the central-difference step shrinks, and R_h stays
        # below the third of the 0.489 target that the criterion allows
        preset = RESIDUAL_PRESETS["table4"]
        region = ResidualRegion(
            t_range=preset["t_range"],
            sigma_range=preset["sigma_range"],
            y_range=preset["y_range"],
        )
        params = SabrParams(sigma0=0.2, nu=preset["nu"], rho=preset["rho"])
        fn = price_fn_for_model(model, params)
        scaled = []
        for step in (1e-3, 5e-4, 2.5e-4):
            monkeypatch.setattr(fd, "REL_STEP", step)
            scaled.append(preset["scale"] * residual_norm(fn, params, region))
        assert len(set(scaled)) == 3  # the step took effect
        assert max(scaled) - min(scaled) < 0.005 * min(scaled)
        if model == "h":
            assert max(scaled) < 0.489 / 3.0

    def test_short_expiry_rejected(self):
        region = ResidualRegion(t_range=(0.01, 1.0))
        params = SabrParams(sigma0=0.2, nu=1.0, rho=-0.4)
        with pytest.raises(DomainError):
            residual_norm(price_fn_for_model("bs", params), params, region)


class TestTimeStepBound:
    def test_refinement_increases_steps(self):
        params = SabrParams(sigma0=0.18, nu=1.0, rho=-0.2)
        n0 = stable_time_steps(build_grid(level=0), params, 1.0)
        n1 = stable_time_steps(build_grid(level=1), params, 1.0)
        assert n1 >= 3.5 * n0

    def test_safety_factor(self):
        params = SabrParams(sigma0=0.18, nu=1.0, rho=-0.2)
        g = build_grid(level=1)
        loose = stable_time_steps(g, params, 1.0, c_safety=0.9)
        tight = stable_time_steps(g, params, 1.0, c_safety=0.45)
        assert tight >= 1.98 * loose


class TestMarchLimit:
    # none of these tests starts a march: _step_matrix is made to fail

    @pytest.fixture(autouse=True)
    def no_march(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("started a march")

        monkeypatch.setattr(fd, "_step_matrix", fail)

    def test_non_finite_stability_rate(self):
        params = SabrParams(sigma0=0.18, nu=1e200, rho=-0.2)
        with pytest.raises(DomainError, match="non-finite number of time steps"):
            stable_time_steps(build_grid(), params, 0.5)
        with pytest.raises(DomainError, match="non-finite number of time steps"):
            solve(params, 0.5, FdConfig())

    def test_too_many_node_steps(self):
        params = SabrParams(sigma0=0.18, nu=1e6, rho=-0.2)
        with pytest.raises(DomainError) as info:
            solve(params, 0.5, FdConfig(level=1))
        assert str(info.value) == (
            "FD level 1 needs 925 nodes x 4.079e+13 time steps = 3.773e+16 "
            f"node-steps, more than the limit of {_MAX_NODE_STEPS} node-steps"
        )

    def test_sequence_checks_finest_level_first(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("solved a level")

        monkeypatch.setattr(fd, "solve", fail)
        params = SabrParams(sigma0=0.18, nu=1.0, rho=-0.2)
        with pytest.raises(DomainError, match="FD level 12 needs 3624001537 nodes"):
            solve_sequence(params, 0.5, FdConfig(), max_level=12)

    @pytest.mark.parametrize("c_safety", [-1.0, 0.0, math.nan, math.inf])
    def test_c_safety_must_be_positive_and_finite(self, c_safety):
        # -1 used to march one step of dt = T, 0 to report a non-finite step count
        params = SabrParams(sigma0=0.18, nu=1.0, rho=-0.2)
        message = f"^c_safety must be positive and finite, got {c_safety}$"
        with pytest.raises(DomainError, match=message):
            solve(params, 0.5, FdConfig(c_safety=c_safety))

    def test_huge_level_rejected_before_building_nodes(self):
        with pytest.raises(DomainError, match="level 1000000000 grid has more nodes"):
            build_grid(level=10**9)

    @pytest.mark.parametrize("preset", sorted(FD_PRESETS))
    def test_level_4_of_every_preset_fits(self, preset):
        p = FD_PRESETS[preset]
        params = SabrParams(sigma0=0.18, nu=p["nu"], rho=p["rho"])
        config = FdConfig(level=4)
        for cfg in (config, _cutoff_config(config)):
            grid = _level_grid(params, p["t"], cfg)
            nodes = grid.x_nodes.size * grid.sigma_nodes.size
            assert nodes * grid.n_time_steps <= _MAX_NODE_STEPS
