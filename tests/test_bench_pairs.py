"""tools/bench_pairs.py's parsing and statistics, on made-up runs: the
tool is loaded by path and no benchmark process is started."""

import argparse
import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestSeedList:
    @pytest.mark.parametrize(
        "text, want",
        [
            ("60-62", [60, 61, 62]),
            ("60,61,65", [60, 61, 65]),
            ("7", [7]),
            ("7-7", [7]),
            ("60-62,70,80-81", [60, 61, 62, 70, 80, 81]),
        ],
    )
    def test_ranges_lists_and_mixes(self, bench_pairs, text, want):
        assert bench_pairs.seed_list(text) == want

    def test_descending_range_is_named(self, bench_pairs):
        with pytest.raises(argparse.ArgumentTypeError, match="'70-65'"):
            bench_pairs.seed_list("60-62,70-65")

    @pytest.mark.parametrize("text, part", [
        ("", "''"), ("60,,61", "''"), ("60-", "'60-'"), ("-5", "'-5'"), ("a-b", "'a-b'"),
    ])
    def test_empty_or_malformed_part_is_named(self, bench_pairs, text, part):
        with pytest.raises(argparse.ArgumentTypeError, match=part):
            bench_pairs.seed_list(text)

    def test_parser_reports_a_descending_range(self, bench_pairs, capsys):
        with pytest.raises(SystemExit) as info:
            bench_pairs.main(["a", "b", "--workload", "fd", "--seeds", "70-65"])
        assert info.value.code == 2
        assert "descending seed range '70-65'" in capsys.readouterr().err


def test_quartiles(bench_pairs):
    got = bench_pairs.quartiles([5.0, 1.0, 4.0, 2.0, 3.0])
    assert got == {"median": 3.0, "q1": 2.0, "q3": 4.0, "runs": [5.0, 1.0, 4.0, 2.0, 3.0]}
    # the inclusive method interpolates between runs
    assert bench_pairs.quartiles([1.0, 2.0]) == {
        "median": 1.5, "q1": 1.25, "q3": 1.75, "runs": [1.0, 2.0]
    }


class TestCompare:
    LOWER = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}
    HIGHER = {"name": "rate", "unit": "1", "better": "higher", "bound": 0.25}

    def test_wins_ties_and_ratios(self, bench_pairs):
        parent = [1.0, 1.0, 2.0, 2.0]
        change = [0.5, 1.0, 2.5, 1.0]
        got = bench_pairs.compare(self.LOWER, parent, change)
        assert got["change_wins"] == 2
        assert got["ties"] == 1
        assert got["ratios"] == [0.5, 1.0, 1.25, 0.5]
        assert got["unit"] == "s" and got["bound"] == 0.25

    def test_better_higher_counts_the_larger_value(self, bench_pairs):
        parent = [1.0, 1.0, 1.0]
        change = [1.1, 0.9, 1.2]
        assert bench_pairs.compare(self.HIGHER, parent, change)["change_wins"] == 2
        assert bench_pairs.compare(self.LOWER, parent, change)["change_wins"] == 1

    @pytest.mark.parametrize("metric, factor, worse", [
        (LOWER, 1.2, False), (LOWER, 1.3, True), (LOWER, 0.5, False),
        (HIGHER, 0.8, False), (HIGHER, 0.7, True), (HIGHER, 2.0, False),
    ])
    def test_worse_than_bound_on_both_sides(self, bench_pairs, metric, factor, worse):
        parent = [1.0, 2.0, 3.0, 4.0]
        got = bench_pairs.compare(metric, parent, [factor * v for v in parent])
        assert got["change_rel"] == pytest.approx(factor - 1.0, abs=1e-4)
        assert got["worse_than_bound"] is worse

    def test_gain_must_pass_the_parents_spread(self, bench_pairs):
        parent = [1.0, 1.2, 1.4, 1.6, 1.8]  # quartile spread 0.4
        small = bench_pairs.compare(self.LOWER, parent, [v - 0.3 for v in parent])
        large = bench_pairs.compare(self.LOWER, parent, [v - 0.5 for v in parent])
        assert small["parent_iqr_rel"] == pytest.approx(0.4 / 1.4, abs=1e-4)
        assert small["gain_beyond_parent_iqr"] is False
        assert large["gain_beyond_parent_iqr"] is True

    @pytest.mark.parametrize("metric", [LOWER, HIGHER])
    @pytest.mark.parametrize("wins, met", [(10, True), (9, True), (8, False)])
    def test_claim_needs_nine_wins_in_ten(self, bench_pairs, metric, wins, met):
        # parent runs spread 0.9-1.1 (quartile spread 0.1); the change wins
        # by 0.3 in the first `wins` pairs and ties the rest
        parent = [0.9 + 0.2 * i / 9 for i in range(10)]
        step = -0.3 if metric["better"] == "lower" else 0.3
        change = [v + step if i < wins else v for i, v in enumerate(parent)]
        got = bench_pairs.compare(metric, parent, change)
        assert got["change_wins"] == wins and got["ties"] == 10 - wins
        assert got["gain_beyond_parent_iqr"] is True
        assert got["claim_met"] is met

    @pytest.mark.parametrize("wins, pairs, met", [(6, 6, False), (9, 10, True), (10, 10, True)])
    def test_claim_needs_ten_pairs(self, bench_pairs, wins, pairs, met):
        # the change wins by 0.3, far past the parent's spread, in the first
        # `wins` pairs and ties the rest: only the pair count decides
        parent = [0.9 + 0.2 * i / (pairs - 1) for i in range(pairs)]
        change = [v - 0.3 if i < wins else v for i, v in enumerate(parent)]
        got = bench_pairs.compare(self.LOWER, parent, change)
        assert got["change_wins"] == wins
        assert got["gain_beyond_parent_iqr"] is True
        assert got["claim_met"] is met

    def test_claim_needs_a_gain_past_the_parents_spread(self, bench_pairs):
        parent = [1.0, 1.2, 1.4, 1.6, 1.8] * 2  # quartile spread 0.4
        small = bench_pairs.compare(self.LOWER, parent, [v - 0.3 for v in parent])
        large = bench_pairs.compare(self.LOWER, parent, [v - 0.5 for v in parent])
        assert small["change_wins"] == large["change_wins"] == 10
        assert small["claim_met"] is False
        assert large["claim_met"] is True

    @pytest.mark.parametrize("metric", [LOWER, HIGHER])
    def test_unresolved_only_past_the_bound(self, bench_pairs, metric):
        narrow = [1.0, 1.05, 1.1, 1.15, 1.2]  # relative spread 0.1 / 1.1
        wide = [1.0, 1.5, 2.0, 2.5, 3.0]  # relative spread 1.0 / 2.0
        for parent, unresolved in ((narrow, False), (wide, True)):
            got = bench_pairs.compare(metric, parent, parent[::-1])
            assert (got["parent_iqr_rel"] > metric["bound"]) is unresolved
            assert got["unresolved"] is unresolved

    @pytest.mark.parametrize("metric", [LOWER, HIGHER])
    def test_every_run_better_resolves_a_wide_spread(self, bench_pairs, metric):
        parent = [1.0, 1.5, 2.0, 2.5, 3.0]
        lower = metric["better"] == "lower"
        # every change run beats every parent run, and then one does not
        better = [v - 2.5 if lower else v + 2.5 for v in parent]
        assert bench_pairs.compare(metric, parent, better)["unresolved"] is False
        better[-1 if lower else 0] = parent[0] if lower else parent[-1]
        assert bench_pairs.compare(metric, parent, better)["unresolved"] is True
