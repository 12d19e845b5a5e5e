import csv
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sabrkit
from sabrkit import (
    OptionQuery,
    SabrParams,
    c_rel,
    price_d,
    price_h,
    price_sa2,
    price_sa2_rel,
    sigma_d,
)
from sabrkit import cli, fd
from sabrkit.calibration import calibrate_panel, result_rows, synth_panel
from sabrkit.cli import (
    EXIT_DOMAIN, EXIT_NO_CONVERGENCE, EXIT_OK, EXIT_USAGE, build_parser, main,
)


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


class TestPrice:
    def test_single_point(self, capsys):
        code, out, _ = run(
            ["price", "--model", "sa2", "--y", "0.1", "--t", "0.5",
             "--sigma", "0.2", "--nu", "0.5", "--rho", "-0.3", "--format", "csv"],
            capsys,
        )
        assert code == EXIT_OK
        rows = parse_csv(out)
        assert rows[0] == ["y", "t", "price_sa2", "vol_sa2"]
        params = SabrParams(sigma0=0.2, nu=0.5, rho=-0.3)
        assert float(rows[1][2]) == pytest.approx(price_sa2_rel(0.1, 0.5, params))
        # the vol column inverts the series price; it agrees with the
        # implied-vol series through second order in nu
        assert float(rows[1][3]) == pytest.approx(
            sigma_d(0.1, 0.5, params).value, rel=2e-3
        )

    def test_lattice_and_ranges(self, capsys):
        code, out, _ = run(
            ["price", "--model", "bs,sa2", "--y=-0.2:0.2:5", "--t", "0.5,1",
             "--format", "csv"],
            capsys,
        )
        assert code == EXIT_OK
        rows = parse_csv(out)
        assert len(rows) == 1 + 10
        assert rows[0][2:] == ["price_bs", "vol_bs", "price_sa2", "vol_sa2"]

    def test_bs_matches_direct(self, capsys):
        code, out, _ = run(
            ["price", "--model", "bs", "--y", "0", "--t", "1", "--sigma", "0.2",
             "--format", "csv"],
            capsys,
        )
        rows = parse_csv(out)
        assert float(rows[1][2]) == pytest.approx(c_rel(0.0, 0.2, 1.0))

    @pytest.mark.parametrize("count", [100_000_000_000, cli._MAX_RANGE_COUNT + 1])
    def test_range_count_above_the_cap_is_usage_error(self, capsys, monkeypatch, count):
        def no_values(*args, **kwargs):
            raise AssertionError("made the range's values")

        monkeypatch.setattr("numpy.linspace", no_values)
        code, out, err = run(["price", f"--y=0:1:{count}"], capsys)
        assert code == EXIT_USAGE
        assert err == f"error: --y: count must be 1 to 1000000, got {count}\n"
        assert out == ""

    def test_range_count_at_the_cap_is_accepted(self):
        values = cli._parse_values(f"0:1:{cli._MAX_RANGE_COUNT}", "y")
        assert (len(values), values[0], values[-1]) == (1_000_000, 0.0, 1.0)

    def test_unknown_model(self, capsys):
        code, _, err = run(["price", "--model", "heston"], capsys)
        assert code == EXIT_USAGE
        assert "unknown model" in err

    def test_domain_error_exit(self, capsys):
        code, _, err = run(["price", "--sigma=-0.2"], capsys)
        assert code == EXIT_DOMAIN
        assert "error" in err

    @pytest.mark.parametrize(
        "model, extra", [("sa2", []), ("h", []), ("d", []), ("kappa", ["--kappa0", "0.5"])]
    )
    def test_nu_squared_overflow_is_domain_error(self, capsys, model, extra):
        code, out, err = run(
            ["price", "--model", model, "--sigma", "0.2", "--nu", "1e300", "--rho", "-0.2",
             "--y=0", "--t", "1", *extra],
            capsys,
        )
        assert code == EXIT_DOMAIN
        assert err == "error: nu**2 overflows a float, got nu = 1e+300\n"
        assert out == ""

    def test_h_raw_is_an_unknown_model(self, capsys):
        code, out, err = run(["price", "--model", "h_raw", "--y", "0"], capsys)
        assert code == EXIT_USAGE
        assert err == "error: --model: unknown model 'h_raw'; choose from sa2, d, h, bs, kappa\n"
        assert out == ""

    def test_price_that_is_not_finite_is_domain_error(self, capsys):
        # at v = sigma sqrt(t) = 2e149 the F2 ladder is not finite
        code, out, err = run(
            ["price", "--model", "bs,sa2", "--y", "0", "--t", "1,1e300", "--sigma", "0.2",
             "--format", "csv"],
            capsys,
        )
        assert code == EXIT_DOMAIN
        assert err == "error: model sa2 gives a price that is not finite at y = 0.0, t = 1e+300\n"
        assert out == ""

    @pytest.mark.parametrize(
        "model, flags",
        [("sa2", ["--kappa0", "1e300", "--theta", "1"]),
         ("kappa", ["--kappa0", "1", "--theta", "1e300"])],
    )
    def test_mean_reversion_overflow_is_not_black_scholes(self, capsys, model, flags):
        # kappa0^2 or (theta - sigma)^2 overflows in F2 at v = 0.2 < 1
        code, out, err = run(["price", "--model", model, *flags], capsys)
        assert code == EXIT_DOMAIN and out == ""
        assert err == f"error: model {model} gives a price that is not finite at y = 0.0, t = 1.0\n"

    def test_vol_the_model_cannot_invert_is_nan(self, capsys):
        # at t = 0 the price is the payoff, which no vol gives as a time value
        code, out, _ = run(
            ["price", "--model", "sa2", "--y", "0.1", "--t", "0", "--format", "csv"], capsys
        )
        assert code == EXIT_OK
        assert parse_csv(out)[1] == ["0.1", "0.0", "0.10517091807564771", "nan"]


class TestResidual:
    def test_preset_ordering(self, capsys):
        code, out, _ = run(
            ["residual", "--preset", "table4", "--format", "csv"], capsys
        )
        assert code == EXIT_OK
        rows = parse_csv(out)
        assert rows[0] == ["model", "1e+03R"]
        values = {r[0]: float(r[1]) for r in rows[1:]}
        assert set(values) == {"h", "d", "sa2", "bs"}
        assert values["sa2"] <= values["d"]
        assert values["bs"] > 10 * values["d"]

    def test_unknown_preset(self, capsys):
        code, _, err = run(["residual", "--preset", "table9"], capsys)
        assert code == EXIT_USAGE
        assert "unknown preset" in err

    def test_explicit_region(self, capsys):
        code, out, _ = run(
            ["residual", "--nu", "0.25", "--rho", "-0.4", "--t", "0.2,0.8",
             "--y=-0.3,0.3", "--sigma-range", "0.15,0.25", "--format", "csv"],
            capsys,
        )
        assert code == EXIT_OK
        assert len(parse_csv(out)) == 5

    def test_bad_range(self, capsys):
        code, _, err = run(["residual", "--t", "1,0.1"], capsys)
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--rho", "0.2", "--t", "0.1,1", "--sigma-range", "0.1,1e100"],
             "the PDE residual squared is not finite at y = -0.5, sigma = 1.25e+99, t = 0.1"),
            (["--rho", "0.2", "--t", "0.1,1e300", "--sigma-range", "0.1,0.3"],
             "the PDE residual squared is not finite at y = -0.5, sigma = 0.1, t = 1.11111"),
            (["--rho=-0.2", "--t", "0.1,1", "--sigma-range", "0.1,1e150"],
             "the Hagan vol is negative at vol = -3.1281250000000004e+295, nu = 0.4, y = -0.5"),
        ],
    )
    def test_non_finite_residual_is_domain_error(self, capsys, argv, message):
        # pyproject turns warnings into errors, so a numpy overflow warning fails this
        code, out, err = run(["residual", "--nu", "0.4", "--y=-0.5,0.5", *argv], capsys)
        assert code == EXIT_DOMAIN
        assert err.startswith(f"error: {message}")
        assert out == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--nu", "1e200", "--sigma-range", "0.1,0.3"], "nu**2 overflows a float, got nu = 1e+200"),
            (["--nu", "0.4", "--sigma-range", "0.1,1e300"], "sigma**2 overflows a float, got sigma = 1e+300"),
        ],
    )
    def test_overflow_names_the_input(self, capsys, argv, message):
        code, out, err = run(
            ["residual", "--rho", "-0.2", "--t", "0.1,1", "--y=-0.5,0.5", *argv], capsys
        )
        assert code == EXIT_DOMAIN
        assert err == f"error: {message}\n"
        assert out == ""


class TestFd:
    def test_preset_row(self, capsys):
        code, out, _ = run(
            ["fd", "--preset", "fd1-row7", "--levels", "1", "--format", "csv"],
            capsys,
        )
        assert code == EXIT_OK
        rows = parse_csv(out)
        assert rows[0][0] == "level"
        assert len(rows) == 3
        # level-1 estimate exists, ratio needs three levels
        assert math.isnan(float(rows[1][-1]))
        assert not math.isnan(float(rows[2][-1]))

    def test_negative_levels_is_domain_error(self, capsys):
        code, out, err = run(["fd", "--preset", "fd1-row7", "--levels=-1"], capsys)
        assert code == EXIT_DOMAIN
        assert "max_level" in err
        assert out == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--nu", "1e200"], "non-finite number of time steps"),
            (["--nu", "1e6"], "FD level 1 needs 925 nodes x 4.079e+13 time steps"),
            (["--levels", "12"], "FD level 12 needs 3624001537 nodes"),
            (["--levels", "100"], "level 100 grid has more nodes than the limit"),
        ],
    )
    def test_overlong_march_is_domain_error(self, capsys, monkeypatch, argv, message):
        def no_march(*args, **kwargs):
            raise AssertionError("started a march")

        monkeypatch.setattr("sabrkit.fd._step_matrix", no_march)
        code, out, err = run(["fd", *argv], capsys)
        assert code == EXIT_DOMAIN
        assert message in err
        assert out == ""

    def test_instability_exits_no_convergence(self, capsys, monkeypatch):
        # a step 10 / 0.9 times the stability bound explodes at level 1
        monkeypatch.setattr("sabrkit.fd._C_SAFETY", 10.0)
        code, out, err = run(["fd", "--preset", "fd1-row7", "--levels", "1"], capsys)
        assert code == EXIT_NO_CONVERGENCE
        assert out == ""
        assert err == "error: exploding value -2170 at x=0, sigma=1.484, t=0.4286\n"

    def test_cutoff_row(self, capsys):
        code, out, _ = run(
            ["fd", "--expiry", "0.5", "--nu", "0.5", "--rho", "-0.2",
             "--levels", "0", "--cutoff", "--format", "csv"],
            capsys,
        )
        assert code == EXIT_OK
        rows = parse_csv(out)
        assert rows[-1][0] == "cutoff"

    def test_cutoff_marches_level_0_once(self, capsys, monkeypatch):
        # the sequence's levels 0 and 1, then only the grown level-0
        # rectangle: the cut-off row reads the sequence's level-0 solution
        marched = []

        def counted(params, T, grid):
            marched.append((grid.level, grid.x_nodes.size, grid.sigma_nodes.size))
            return march(params, T, grid)

        march = fd._march
        monkeypatch.setattr(fd, "_march", counted)
        code, _, _ = run(["fd", "--preset", "fd1-row7", "--levels", "1", "--cutoff"], capsys)
        assert code == EXIT_OK
        assert marched == [(0, 13, 19), (1, 25, 37), (0, 15, 21)]


class TestMc:
    def test_preset(self, capsys):
        code, out, _ = run(
            ["mc", "--preset", "mc-paper", "--paths", "2000", "--dt", "0.01",
             "--strikes", "10", "--format", "csv"],
            capsys,
        )
        assert code == EXIT_OK
        rows = parse_csv(out)
        assert rows[0] == [
            "strike", "y", "c_mc", "std_error", "c_h", "c_d", "c_sa2", "e_h", "e_d"
        ]
        strike, _, c_mc, se, c_h, c_d, c_sa2, e_h, e_d = map(float, rows[1])
        assert strike == 10.0
        # all model prices agree with the simulation to a loose multiple
        # of the standard error at this small path count
        for c in (c_h, c_d, c_sa2):
            assert abs(c - c_mc) <= 10 * se
        assert e_h == pytest.approx(c_h - c_mc)
        assert e_d == pytest.approx(c_d - c_mc)

    def test_strike_sweep(self, capsys):
        code, out, _ = run(
            ["mc", "--preset", "mc-paper", "--paths", "500", "--dt", "0.05",
             "--strikes", "8:12:3", "--format", "csv"],
            capsys,
        )
        assert code == EXIT_OK
        rows = parse_csv(out)
        assert [float(r[0]) for r in rows[1:]] == [8.0, 10.0, 12.0]

    def test_closed_forms_match_per_strike_pricing(self, capsys):
        spot, rate, t = 10.0, 0.04, 1.5
        code, out, _ = run(
            ["mc", "--spot", "10", "--rate", "0.04", "--expiry", "1.5",
             "--sigma", "0.25", "--nu", "0.4", "--rho", "-0.5", "--paths", "200",
             "--dt", "0.1", "--strikes", "7,10,14", "--format", "csv"],
            capsys,
        )
        assert code == EXIT_OK
        params = SabrParams(sigma0=0.25, nu=0.4, rho=-0.5)
        disc = math.exp(-rate * t)
        for row in parse_csv(out)[1:]:
            strike, y, c_mc, _, c_h, c_d, c_sa2, e_h, e_d = map(float, row)
            q = OptionQuery(spot=spot, strike=strike, rate=rate, expiry=t)
            assert y == q.log_moneyness
            assert c_h == pytest.approx(disc * strike * price_h(y, t, params), rel=1e-12)
            assert c_d == pytest.approx(disc * strike * price_d(y, t, params), rel=1e-12)
            assert c_sa2 == pytest.approx(disc * price_sa2(q, params).total, rel=1e-12)
            assert (e_h, e_d) == (c_h - c_mc, c_d - c_mc)

    @pytest.mark.parametrize("rate", ["0", "0.03"])
    def test_closed_forms_equal_price_bit_for_bit(self, capsys, rate):
        # mc prices its closed forms as price does, point by point, times the
        # discounted strike: at mc-paper's (y, t) the columns agree exactly
        code, out, _ = run(
            ["mc", "--preset", "mc-paper", "--strikes", "8:12:9", "--rate", rate,
             "--paths", "200", "--dt", "0.1", "--format", "csv"],
            capsys,
        )
        assert code == EXIT_OK
        mc_rows = parse_csv(out)[1:]
        ys = ",".join(row[1] for row in mc_rows)
        code, out, _ = run(
            ["price", "--model", "h,d,sa2", f"--y={ys}", "--t", "1", "--sigma", "0.2",
             "--nu", "0.2", "--rho=-0.3", "--format", "csv"],
            capsys,
        )
        assert code == EXIT_OK
        price_rows = parse_csv(out)[1:]
        assert [row[0] for row in price_rows] == [row[1] for row in mc_rows]
        disc = math.exp(-float(rate))
        for mc_row, price_row in zip(mc_rows, price_rows):
            strike = float(mc_row[0])
            want = [disc * strike * float(price_row[i]) for i in (2, 4, 6)]
            assert [float(c) for c in mc_row[4:7]] == want

    @pytest.mark.parametrize("paths", ["1", "3"])
    def test_too_few_paths_is_domain_error(self, capsys, paths):
        code, out, err = run(["mc", "--preset", "mc-paper", "--paths", paths], capsys)
        assert code == EXIT_DOMAIN
        assert "at least 2" in err
        assert out == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--paths", "1000000000000"], "1000000000000 paths x 1000 time steps"),
            (["--dt", "1e-15"], "30000 paths x 1e+15 time steps"),
        ],
    )
    def test_oversized_simulation_is_domain_error(self, capsys, monkeypatch, argv, message):
        def no_simulation(*args, **kwargs):
            raise AssertionError("started a simulation")

        monkeypatch.setattr("numpy.random.SeedSequence", no_simulation)
        monkeypatch.setattr("sabrkit.mc._block_payoffs", no_simulation)
        code, out, err = run(["mc", "--preset", "mc-paper", *argv], capsys)
        assert code == EXIT_DOMAIN
        assert message in err
        assert out == ""

    def test_empty_strike_list_is_usage_error(self, capsys):
        code, _, err = run(["mc", "--preset", "mc-paper", "--strikes", ","], capsys)
        assert code == EXIT_USAGE
        assert "--strikes" in err

    def test_empty_strike_string_is_usage_error(self, capsys, monkeypatch):
        # an empty --strikes used to price at the spot instead
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated")

        monkeypatch.setattr("sabrkit.cli.simulate_prices", no_simulation)
        code, out, err = run(["mc", "--preset", "mc-paper", "--strikes", ""], capsys)
        assert code == EXIT_USAGE
        assert err == "error: --strikes: at least one strike required\n"
        assert out == ""


class TestCalibrate:
    def test_synth_recovery(self, capsys, tmp_path):
        out_path = str(tmp_path / "results.csv")
        code, out, _ = run(
            ["calibrate", "--synth-days", "2", "--nu", "1.3", "--sigma", "0.19",
             "--rho", "-0.55", "--init", "1.0,0.25,-0.3", "--out", out_path,
             "--format", "csv"],
            capsys,
        )
        assert code in (EXIT_OK, EXIT_NO_CONVERGENCE)
        with open(out_path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert abs(float(rows[-1]["nu"]) - 1.3) <= 1e-2
        assert abs(float(rows[-1]["sigma"]) - 0.19) <= 1e-3
        assert abs(float(rows[-1]["rho"]) + 0.55) <= 1e-2
        summary = parse_csv(out)
        assert summary[0][0] == "ise"
        assert float(summary[1][0]) <= 1e-4

    @pytest.mark.parametrize("n_days", [1, 12])
    def test_summary_is_the_mean_and_std_of_the_days(self, capsys, n_days):
        # correctly rounded sums: exact on one day, within rounding of
        # numpy's pairwise sums over more
        days = synth_panel(SabrParams(sigma0=0.2, nu=0.125, rho=-0.4), n_days=n_days,
                           noise_level=0.002, seed=0)
        results = calibrate_panel(days, (0.5, 0.2, -0.3), "sigma_d")
        code, out, _ = run(
            ["calibrate", "--synth-days", str(n_days), "--noise", "0.002", "--format", "csv"],
            capsys,
        )
        assert code == EXIT_OK
        got = [float(v) for v in parse_csv(out)[-1]]
        cols = [[getattr(r, name) for r in results] for name in ("nu", "sigma", "rho")]
        want = [
            np.mean([r.ise for r in results]),
            np.mean([r.ose for r in results[1:]]) if n_days > 1 else math.nan,
            *(f(col) for col in cols for f in (np.mean, np.std)),
        ]
        if n_days == 1:
            assert got[0] == want[0] and math.isnan(got[1]) and got[2:] == want[2:]
        else:
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_summary_of_identical_days_has_zero_spread(self, capsys):
        # without noise every day fits the same parameters; numpy's sums read
        # a spread of up to 1.1e-16 there
        code, out, _ = run(["calibrate", "--synth-days", "30", "--format", "csv"], capsys)
        assert code == EXIT_OK
        rows = parse_csv(out)
        summary = dict(zip(rows[-2], map(float, rows[-1])))
        assert [summary[f"{p}_std"] for p in ("nu", "sigma", "rho")] == [0.0, 0.0, 0.0]

    def test_quotes_csv_path(self, capsys, tmp_path):
        from sabrkit import synth_panel, write_quotes_csv

        gen = SabrParams(sigma0=0.19, nu=1.3, rho=-0.55)
        days = synth_panel(gen, 1, quote_with="delta")
        quotes_path = str(tmp_path / "quotes.csv")
        write_quotes_csv(quotes_path, days)
        out_path = str(tmp_path / "results.csv")
        code, _, _ = run(
            ["calibrate", "--quotes", quotes_path, "--sigma-prev", "0.19",
             "--init", "1.0,0.25,-0.3", "--out", out_path, "--format", "csv"],
            capsys,
        )
        assert code in (EXIT_OK, EXIT_NO_CONVERGENCE)
        with open(out_path) as fh:
            rows = list(csv.DictReader(fh))
        assert abs(float(rows[0]["nu"]) - 1.3) <= 1e-2

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1,C,inf,0.4,0.2", "expiry must be positive and finite, got inf"),
            ("1,C,12,0.4,inf", "implied_vol must be positive and finite, got inf"),
        ],
    )
    def test_non_finite_quote_field_is_domain_error(self, capsys, tmp_path, row, message):
        path = tmp_path / "quotes.csv"
        path.write_text(f"day,type,expiry_months,delta,implied_vol\n1,C,12,0.5,0.2\n{row}\n")
        code, out, err = run(["calibrate", "--quotes", str(path), "--sigma-prev", "0.2"], capsys)
        assert code == EXIT_DOMAIN
        assert err == f"error: {path}:3: bad quote row: {message}\n"
        assert out == ""

    @staticmethod
    def calibrate_piped(text):
        # a fresh process reading its quotes from a pipe on stdin
        src = str(Path(sabrkit.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        return subprocess.run(
            [sys.executable, "-m", "sabrkit.cli", "calibrate", "--quotes", "/dev/stdin",
             "--sigma-prev", "0.2", "--format", "csv"],
            input=text, capture_output=True, text=True, env=env, timeout=120,
        )

    def test_piped_bad_row_is_domain_error(self):
        # the bad row is named from the lines already read: a pipe cannot be read twice
        proc = self.calibrate_piped("day,type,expiry_months,delta,implied_vol\n1,C,12,1.7,0.2\n")
        assert proc.returncode == EXIT_DOMAIN
        assert proc.stderr == (
            "error: /dev/stdin:2: bad quote row: delta must lie in (0, 1), got 1.7\n"
        )
        assert proc.stdout == ""

    def test_piped_quotes_calibrate(self, capsys, tmp_path):
        path = tmp_path / "quotes.csv"
        path.write_text("day,type,expiry_months,delta,implied_vol\n"
                        "1,C,12,0.5,0.2\n1,C,12,0.25,0.21\n1,P,12,0.25,0.22\n")
        proc = self.calibrate_piped(path.read_text())
        code, out, _ = run(
            ["calibrate", "--quotes", str(path), "--sigma-prev", "0.2", "--format", "csv"], capsys
        )
        assert (proc.returncode, proc.stderr) == (code, "")
        assert parse_csv(proc.stdout) == parse_csv(out)

    @pytest.mark.parametrize(
        "sigma_prev, message",
        [
            ("inf", "sigma_prev must be positive and finite, got inf"),
            ("1e200", "sigma_prev sqrt(T) squared overflows a float at sigma_prev = 1e+200, "
                      "T = 1.0"),
        ],
    )
    def test_sigma_prev_not_finite_or_overflowing_is_domain_error(
        self, capsys, tmp_path, sigma_prev, message
    ):
        # it printed a flagged row with ISE inf and exited 4
        path = tmp_path / "quotes.csv"
        path.write_text("day,type,expiry_months,delta,implied_vol\n1,C,12,0.5,0.2\n")
        code, out, err = run(
            ["calibrate", "--quotes", str(path), f"--sigma-prev={sigma_prev}"], capsys
        )
        assert code == EXIT_DOMAIN
        assert err == f"error: {message}\n"
        assert out == ""

    def test_results_to_stdout_follow_format(self, capsys):
        code, out, _ = run(
            ["calibrate", "--synth-days", "1", "--nu", "1.3", "--sigma", "0.19",
             "--rho=-0.55", "--init", "1.0,0.25,-0.3", "--format", "tsv"],
            capsys,
        )
        assert code in (EXIT_OK, EXIT_NO_CONVERGENCE)
        lines = out.splitlines()
        # the result table, then the summary table, both tab-separated
        assert lines[0].split("\t") == [
            "day", "objective", "nu", "sigma", "rho", "ise", "ose", "flag"
        ]
        result = lines[1].split("\t")
        assert result[:2] == ["1", "sigma_d"]
        assert abs(float(result[2]) - 1.3) <= 1e-2
        assert lines[2].split("\t")[0] == "ise"
        assert len(lines) == 4

    def test_bad_init(self, capsys):
        code, _, err = run(
            ["calibrate", "--synth-days", "1", "--init", "1.0,0.25"], capsys
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--synth-days", "0"], "a panel needs at least one day, got n_days = 0"),
            (["--synth-days=-3"], "a panel needs at least one day, got n_days = -3"),
            (["--quotes", "header-only.csv"], "a panel needs at least one quote day"),
        ],
    )
    def test_no_quote_day_is_domain_error(self, capsys, tmp_path, monkeypatch, argv, message):
        # these printed an all-nan summary and exited 0; pyproject turns the
        # numpy warnings that summary raised into errors
        monkeypatch.chdir(tmp_path)
        (tmp_path / "header-only.csv").write_text("day,type,expiry_months,delta,implied_vol\n")
        code, out, err = run(["calibrate", *argv], capsys)
        assert code == EXIT_DOMAIN
        assert err == f"error: {message}\n"
        assert out == ""

    @pytest.mark.parametrize("noise", ["nan", "inf"])
    def test_non_finite_noise_is_named(self, capsys, noise):
        # this exited 3 blaming implied_vol, which the panel builds
        code, out, err = run(["calibrate", "--synth-days", "1", "--noise", noise], capsys)
        assert code == EXIT_DOMAIN
        assert err == f"error: noise_level must be nonnegative and finite, got {noise}\n"
        assert out == ""

    @pytest.mark.parametrize(
        "argv, path",
        [
            (["calibrate", "--quotes", "missing.csv"], "missing.csv"),
            (["calibrate", "--synth-days", "1", "--out", "no/dir/r.csv"], "no/dir/r.csv"),
            (["price", "--out", "no/dir/x.csv"], "no/dir/x.csv"),
        ],
    )
    def test_missing_file_is_usage_error(self, capsys, tmp_path, monkeypatch, argv, path):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(argv, capsys)
        assert code == EXIT_USAGE
        assert err == f"error: {path}: No such file or directory\n"

    @pytest.mark.parametrize(
        "data, reason",
        [
            (b"\xff\xfed\x00a\x00y\x00", "invalid start byte"),
            ("day,type,expiry_months,delta,implied_vol\n1,call,1,0.25,0.2\u00e9\n"
             .encode("latin-1"), "invalid continuation byte"),
        ],
        ids=["utf16-bom", "latin1-row"],
    )
    def test_non_utf8_quotes_is_usage_error(self, capsys, tmp_path, monkeypatch, data, reason):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "q.csv").write_bytes(data)
        code, out, err = run(["calibrate", "--quotes", "q.csv"], capsys)
        assert code == EXIT_USAGE
        assert err == f"error: q.csv: not UTF-8 text ({reason})\n"
        assert out == ""

    def test_start_the_model_rejects_exits_no_convergence(self, capsys, tmp_path):
        # the Hagan vol is negative at this start: a failed fit, not a crash
        out_path = str(tmp_path / "results.csv")
        code, _, err = run(
            ["calibrate", "--synth-days", "1", "--objective", "price_h",
             "--init=5,0.05,0.99", "--out", out_path, "--format", "csv"],
            capsys,
        )
        assert code == EXIT_NO_CONVERGENCE and err == ""
        with open(out_path) as fh:
            (row,) = csv.DictReader(fh)
        assert (row["nu"], row["ise"], row["flag"]) == ("5", "inf", "flagged")

    def test_panel_whose_fits_the_model_rejects_prints_every_day(self, capsys):
        # day 2 starts where day 1 failed, and its OSE is evaluated there
        code, out, err = run(
            ["calibrate", "--synth-days", "2", "--objective", "price_h",
             "--init=5,0.05,0.99", "--format", "csv"],
            capsys,
        )
        assert code == EXIT_NO_CONVERGENCE and err == ""
        rows = parse_csv(out)
        assert rows[1] == ["1", "price_h", "5", "0.05", "0.99", "inf", "nan", "flagged"]
        assert rows[2] == ["2", "price_h", "5", "0.05", "0.99", "inf", "inf", "flagged"]

    @pytest.mark.parametrize("fmt", ["csv", "tsv", "pretty"])
    def test_results_to_out_follow_format(self, capsys, tmp_path, fmt):
        # --out takes the result table, as stdout shows it, and leaves the
        # summary table on stdout
        argv = ["calibrate", "--synth-days", "2", "--format", fmt]
        _, both, _ = run(argv, capsys)
        out_path = tmp_path / "results.txt"
        code, summary, _ = run([*argv, "--out", str(out_path)], capsys)
        assert code in (EXIT_OK, EXIT_NO_CONVERGENCE)
        assert out_path.read_bytes().decode() + summary == both


class TestMisc:
    @pytest.mark.parametrize(
        "argv",
        [
            ["price", "--y", "nan"],
            ["price", "--y", "0,inf"],
            ["price", "--t=-inf"],
            ["price", "--y", "0:nan:3"],
            ["price", "--y", "0:inf:1"],
            ["price", "--y=-1e308:1e308:3"],
            ["residual", "--t", "0.1,inf"],
            ["mc", "--preset", "mc-paper", "--strikes", "10,nan"],
        ],
    )
    def test_non_finite_values_are_usage_errors(self, capsys, monkeypatch, argv):
        def no_pricing(*args, **kwargs):
            raise AssertionError("priced a non-finite input")

        monkeypatch.setattr("sabrkit.cli.price_fn_for_model", no_pricing)
        monkeypatch.setattr("sabrkit.cli.simulate_prices", no_pricing)
        code, out, err = run(argv, capsys)
        assert code == EXIT_USAGE
        assert "finite" in err
        assert out == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fd", "--expiry", "inf"], "expiry T must be positive and finite, got inf"),
            (["mc", "--expiry", "inf"], "expiry must be finite, got inf"),
            (["fd", "--nu", "inf"], "nu must be finite, got inf"),
            (["mc", "--rate", "nan"], "rate must be finite, got nan"),
            (["mc", "--nu", "inf"], "nu must be finite, got inf"),
            (["mc", "--spot", "inf"], "spot must be finite, got inf"),
        ],
    )
    def test_non_finite_model_inputs_are_domain_errors(
        self, capsys, monkeypatch, argv, message
    ):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated a non-finite input")

        monkeypatch.setattr("sabrkit.cli.simulate_prices", no_simulation)
        code, out, err = run(argv, capsys)
        assert code == EXIT_DOMAIN
        assert err == f"error: {message}\n"
        assert out == ""

    @pytest.mark.parametrize(
        "argv, message, must_not_run",
        [
            (
                ["mc", "--seed=-1"],
                "seed must be nonnegative, got -1",
                "sabrkit.cli.simulate_prices",
            ),
            (
                ["calibrate", "--synth-days", "1", "--seed=-1"],
                "seed must be nonnegative, got -1",
                "sabrkit.calibration.vol_fn_for_model",
            ),
            (
                ["mc", "--rate", "1000"],
                "the forward S e^(rt) is not a positive float at "
                "spot = 10.0, rate = 1000.0, expiry = 1.0",
                "sabrkit.cli.simulate_prices",
            ),
            (
                ["mc", "--rate=-1000"],
                "the forward S e^(rt) is not a positive float at "
                "spot = 10.0, rate = -1000.0, expiry = 1.0",
                "sabrkit.cli.simulate_prices",
            ),
            (
                ["price", "--y", "710", "--model", "d"],
                "y must be a number whose e^y is a float, got 710.0",
                None,
            ),
            (
                ["price", "--y=0:800:3", "--model", "bs"],
                "y must be a number whose e^y is a float, got 800.0",
                None,
            ),
            (
                ["mc", "--strikes", "1e-308"],
                "y must be a number whose e^y is a float, got 711.4987937351601",
                "sabrkit.cli.simulate_prices",
            ),
            (
                # the squared payoffs overflow the standard error's sum
                ["mc", "--rate", "700", "--paths", "4", "--dt", "0.5"],
                "the Monte Carlo price or its standard error is not a float at "
                "forward = 1.0142320547350045e+305",
                None,
            ),
            (
                ["mc", "--rate=-700", "--spot", "1e300", "--strikes", "1e300"],
                "the discounted strike K e^(-rt) is not a positive float at "
                "strike = 1e+300, rate = -700.0, expiry = 1.0",
                "sabrkit.cli.simulate_prices",
            ),
        ],
    )
    def test_unrepresentable_values_are_domain_errors(
        self, capsys, monkeypatch, argv, message, must_not_run
    ):
        # the seed, forward, strike and closed-form checks come before any
        # path or panel is built
        def fail(*args, **kwargs):
            raise AssertionError("started work")

        if must_not_run is not None:
            monkeypatch.setattr(must_not_run, fail)
        code, out, err = run(argv, capsys)
        assert code == EXIT_DOMAIN
        assert err == f"error: {message}\n"
        assert out == ""

    def test_print_config(self, capsys):
        code, out, _ = run(["price", "--print-config"], capsys)
        assert code == EXIT_OK
        assert "sigma=0.2" in out
        assert "model=sa2" in out

    def test_out_file(self, capsys, tmp_path):
        path = str(tmp_path / "table.csv")
        code, out, _ = run(
            ["price", "--y", "0", "--t", "1", "--format", "csv", "--out", path],
            capsys,
        )
        assert code == EXIT_OK
        assert out == ""
        with open(path) as fh:
            assert fh.readline().startswith("y,t,")

    def test_tsv_format(self, capsys):
        code, out, _ = run(
            ["price", "--y", "0", "--t", "1", "--format", "tsv"], capsys
        )
        assert code == EXIT_OK
        assert "\t" in out.splitlines()[0]


@pytest.fixture
def no_work(monkeypatch):
    """Every pricer, solver, simulator and fit fails, so a run that exits
    with these patched in started no work."""

    def fail(*args, **kwargs):
        raise AssertionError("started work")

    for target in (
        "sabrkit.cli.price_fn_for_model",
        "sabrkit.cli.solve_sequence",
        "sabrkit.cli.simulate_prices",
        "sabrkit.calibration.synth_panel",
        "sabrkit.calibration.read_quotes_csv",
        "sabrkit.calibration._fit",
        "sabrkit.calibration._least_squares",
    ):
        monkeypatch.setattr(target, fail)


class TestFlags:
    # flags a subcommand's command never reads are not declared
    @pytest.mark.parametrize(
        "argv",
        [
            ["price", "--seed", "1"],
            *(["residual", flag, "1"] for flag in ("--sigma", "--kappa0", "--theta", "--seed")),
            *(["fd", flag, "1"] for flag in ("--sigma", "--kappa0", "--theta", "--seed")),
            *(["mc", flag, "1"] for flag in ("--kappa0", "--theta")),
        ],
    )
    def test_undeclared_flag_is_usage_error(self, capsys, no_work, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        assert f"unrecognized arguments: {argv[1]} 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            *(["residual", "--preset", "table4", flag] for flag in (
                "--nu=0.1", "--rho=-0.3", "--t=0.2,1", "--sigma-range=0.1,0.2", "--y=-0.1,0.1",
            )),
            *(["fd", "--preset", "fd1-row7", flag] for flag in (
                "--expiry=1", "--nu=0.5", "--rho=-0.3", "--nu=1.0",  # the last is the preset's
            )),
            *(["mc", "--preset", "mc-paper", flag] for flag in (
                "--spot=9", "--sigma=0.3", "--nu=0.5", "--rho=-0.1", "--expiry=2",
            )),
        ],
    )
    def test_flag_the_preset_sets_is_usage_error(self, capsys, no_work, argv):
        code, out, err = run(argv, capsys)
        flag = argv[-1].split("=")[0]
        assert code == EXIT_USAGE
        assert err == f"error: {flag}: not read, --preset {argv[2]} sets it\n"
        assert out == ""

    @pytest.mark.parametrize(
        "flag",
        ["--sigma=0.2", "--nu=1", "--rho=-0.5", "--seed=3", "--synth-days=2", "--noise=0.01"],
    )
    def test_synthetic_panel_flag_with_quotes_is_usage_error(self, capsys, no_work, flag):
        code, out, err = run(["calibrate", "--quotes", "q.csv", flag], capsys)
        assert code == EXIT_USAGE
        name = flag.split("=")[0]
        assert err == f"error: {name}: not read, --quotes replaces the synthetic panel\n"
        assert out == ""

    def test_sigma_prev_without_quotes_is_usage_error(self, capsys, no_work):
        code, out, err = run(["calibrate", "--sigma-prev", "0.2"], capsys)
        assert code == EXIT_USAGE
        assert err == "error: --sigma-prev: not read, it needs --quotes\n"
        assert out == ""

    def test_print_config_shows_the_preset_values(self, capsys, no_work):
        code, out, _ = run(["fd", "--preset", "fd1-row7", "--print-config"], capsys)
        assert code == EXIT_OK
        lines = out.splitlines()
        for line in ("nu=1.0", "rho=-0.2", "expiry=0.5", "preset=fd1-row7"):
            assert line in lines

    def test_print_config_shows_the_preset_region(self, capsys, no_work):
        code, out, _ = run(["residual", "--preset", "table5-row1", "--print-config"], capsys)
        assert code == EXIT_OK
        lines = out.splitlines()
        for line in ("nu=0.1", "t=0.1,30.0", "sigma_range=0.1,0.3", "y=-0.3,0.3"):
            assert line in lines

    def test_print_config_omits_the_flags_quotes_replace(self, capsys, no_work):
        code, out, _ = run(["calibrate", "--quotes", "q.csv", "--print-config"], capsys)
        assert code == EXIT_OK
        keys = {line.split("=")[0] for line in out.splitlines()}
        assert "sigma_prev" in keys and "kappa0" in keys
        assert not keys & {"sigma", "nu", "rho", "seed", "synth_days", "noise"}

    def test_print_config_with_a_rejected_flag_is_usage_error(self, capsys, no_work):
        code, out, err = run(["mc", "--preset", "mc-paper", "--nu", "1", "--print-config"], capsys)
        assert code == EXIT_USAGE and out == ""
        assert "--nu" in err


class TestParserReuse:
    # main parses every call with the one parser built per process, so no
    # call may leave state in it for the next

    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_sigma_prev_does_not_outlive_its_call(self, capsys, tmp_path):
        path = tmp_path / "quotes.csv"
        path.write_text("day,type,expiry_months,delta,implied_vol\n"
                        "1,C,12,0.5,0.2\n1,C,12,0.25,0.21\n1,P,12,0.25,0.22\n")
        code, _, err = run(["calibrate", "--quotes", str(path), "--sigma-prev", "0.2"], capsys)
        assert code in (EXIT_OK, EXIT_NO_CONVERGENCE), err
        code, out, err = run(["calibrate", "--synth-days", "1", "--format", "csv"], capsys)
        assert code in (EXIT_OK, EXIT_NO_CONVERGENCE), err
        assert err == "" and parse_csv(out)[0][0] == "day"

    # table4's region is the plain run's, so only its config line differs;
    # table5-row1 also moves nu and t
    @pytest.mark.parametrize("preset", ["table4", "table5-row1"])
    def test_preset_does_not_outlive_its_call(self, capsys, preset):
        _, plain_config, _ = run(["residual", "--print-config"], capsys)
        _, plain, _ = run(["residual", "--format", "csv"], capsys)
        _, preset_config, _ = run(["residual", "--preset", preset, "--print-config"], capsys)
        code, _, _ = run(["residual", "--preset", preset, "--format", "csv"], capsys)
        assert code == EXIT_OK and preset_config != plain_config
        code, config_after, _ = run(["residual", "--print-config"], capsys)
        assert code == EXIT_OK and config_after == plain_config
        assert "preset=None" in config_after.splitlines()
        code, after, _ = run(["residual", "--format", "csv"], capsys)
        assert code == EXIT_OK and after == plain


class TestCalibrateKappa:
    ARGV = ["calibrate", "--synth-days", "1", "--objective", "price_sa2", "--format", "csv"]

    def test_kappa0_and_theta_reach_the_fit(self, capsys):
        code, out, _ = run([*self.ARGV, "--kappa0", "1.5", "--theta", "0.3"], capsys)
        assert code in (EXIT_OK, EXIT_NO_CONVERGENCE)
        days = synth_panel(SabrParams(sigma0=0.2, nu=0.125, rho=-0.4), 1)
        want = calibrate_panel(days, (0.5, 0.2, -0.3), "price_sa2", kappa0=1.5, theta=0.3)
        assert parse_csv(out)[1] == result_rows(want)[0]
        _, plain, _ = run(self.ARGV, capsys)
        assert parse_csv(plain)[1] != parse_csv(out)[1]

    def test_price_kappa_is_not_an_objective(self, capsys):
        # it was price_sa2 under another name
        with pytest.raises(SystemExit) as exc:
            main(["calibrate", "--synth-days", "1", "--objective", "price_kappa"])
        assert exc.value.code == EXIT_USAGE
        assert "invalid choice: 'price_kappa'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "objective, flags, message",
        [
            *(
                (o, ["--kappa0=1"], f"objective {o!r} is only available for kappa0 = 0, "
                 "got kappa0 = 1.0")
                for o in ("sigma_d", "sigma_h", "price_d", "log_price_h")
            ),
            ("price_sa2", ["--kappa0=-1"], "kappa0 must be nonnegative, got -1.0"),
            ("price_sa2", ["--kappa0=1", "--theta=-0.1"], "theta must be nonnegative, got -0.1"),
        ],
    )
    def test_kappa0_the_model_rejects_is_domain_error(
        self, capsys, monkeypatch, objective, flags, message
    ):
        def no_fit(*args, **kwargs):
            raise AssertionError("started a fit")

        monkeypatch.setattr("sabrkit.calibration._least_squares", no_fit)
        code, out, err = run(
            ["calibrate", "--synth-days", "1", "--objective", objective, *flags], capsys
        )
        assert code == EXIT_DOMAIN and out == ""
        assert err == f"error: {message}\n"
