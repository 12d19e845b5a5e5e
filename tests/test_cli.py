import csv
import io
import math

import pytest

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
from sabrkit.cli import EXIT_DOMAIN, EXIT_NO_CONVERGENCE, EXIT_OK, EXIT_USAGE, main


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

    def test_unknown_model(self, capsys):
        code, _, err = run(["price", "--model", "heston"], capsys)
        assert code == EXIT_USAGE
        assert "unknown model" in err

    def test_domain_error_exit(self, capsys):
        code, _, err = run(["price", "--sigma=-0.2"], capsys)
        assert code == EXIT_DOMAIN
        assert "error" in err

    def test_raw_hagan_at_the_money_is_domain_error(self, capsys):
        code, out, err = run(["price", "--model", "h_raw", "--y", "0"], capsys)
        assert code == EXIT_DOMAIN
        assert "z/xi" in err
        assert out == ""


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

    def test_cutoff_row(self, capsys):
        code, out, _ = run(
            ["fd", "--expiry", "0.5", "--nu", "0.5", "--rho", "-0.2",
             "--levels", "0", "--cutoff", "--format", "csv"],
            capsys,
        )
        assert code == EXIT_OK
        rows = parse_csv(out)
        assert rows[-1][0] == "cutoff"


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
