"""tools/same_outputs.py: its comparison on made-up records and gate
output, and one run of the `tables` workload comparing this checkout with
itself. The acceptance gate itself is not run here."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "same_outputs.py"


@pytest.fixture(scope="module")
def same_outputs():
    spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record(sha, code=0):
    return {"exit": code, "sha256": sha}


class TestCompare:
    def test_same_records_differ_nowhere(self, same_outputs):
        side = {"tables": {"a": record("11"), "b": record(None, 3)}, "mc": {"c": record("22")}}
        result = same_outputs.compare(side, json.loads(json.dumps(side)))
        assert result["differ"] == []
        assert list(result["ops"]) == ["mc/c", "tables/a", "tables/b"]
        assert result["ops"]["tables/b"] == {"parent": record(None, 3), "change": record(None, 3)}

    def test_every_difference_is_named(self, same_outputs):
        parent = {
            "tables": {"bytes": record("11"), "exit": record("22"), "gone": record("33")},
            "fd": {"x": record("44")},
        }
        change = {
            "tables": {"bytes": record("12"), "exit": record("22", 3), "new": record("55")},
            "fd": {"x": record("44")},
        }
        result = same_outputs.compare(parent, change)
        assert result["differ"] == ["tables/bytes", "tables/exit", "tables/gone", "tables/new"]
        assert result["ops"]["tables/new"] == {"parent": None, "change": record("55")}
        assert result["ops"]["tables/gone"] == {"parent": record("33"), "change": None}


class TestGate:
    # the gate's output under -s: pytest's progress characters run into the
    # next criterion line, and a failure's report repeats its text
    OUTPUT = (
        "criterion 1: PASS (worst rel err 1.69e-14 <= 1e-12)\n"
        ".criterion 2: PASS (worst rel err 1.22e-11 <= 1e-10)\n"
        ".criterion 4: FAIL (10^3 R: h=0.0731; failed: R_d <= R_h)\n"
        "Fcriterion 10: PASS (ratios 0.2207, 0.2400 in [0.2, 0.32])\n"
        '            print(f"criterion {n}: {\'PASS\' if ok else \'FAIL\'} ({detail})")\n'
        "E       AssertionError: criterion 4: 10^3 R: h=0.0731; failed: R_d <= R_h\n"
        "1 failed, 3 passed in 2.05s\n"
    )

    def test_lines_are_keyed_by_criterion(self, same_outputs):
        assert same_outputs.gate_lines(self.OUTPUT) == {"gate": {
            "criterion 1": "criterion 1: PASS (worst rel err 1.69e-14 <= 1e-12)",
            "criterion 2": "criterion 2: PASS (worst rel err 1.22e-11 <= 1e-10)",
            "criterion 4": "criterion 4: FAIL (10^3 R: h=0.0731; failed: R_d <= R_h)",
            "criterion 10": "criterion 10: PASS (ratios 0.2207, 0.2400 in [0.2, 0.32])",
        }}

    def test_every_differing_line_is_named(self, same_outputs):
        parent = same_outputs.gate_lines(self.OUTPUT)
        change = same_outputs.gate_lines(
            self.OUTPUT.replace("1.22e-11", "1.23e-11").replace("Fcriterion 10", "F")
        )
        assert same_outputs.compare(parent, parent)["differ"] == []
        result = same_outputs.compare(parent, change)
        assert result["differ"] == ["gate/criterion 10", "gate/criterion 2"]
        assert result["ops"]["gate/criterion 10"]["change"] is None

    def test_a_gate_that_prints_no_criterion_is_an_error(self, same_outputs, tmp_path):
        # a checkout without the gate's test file: no line to compare is no match
        with pytest.raises(SystemExit, match="the gate printed no criterion line"):
            same_outputs.run_gate(tmp_path)


def test_tables_against_itself(same_outputs, capsys):
    code = same_outputs.main([str(ROOT), str(ROOT), "--workload", "tables", "--seed", "3"])
    result = json.loads(capsys.readouterr().out)
    assert code == 0 and result["differ"] == []
    # seven residual presets and two price lattices, each written by an op that exited 0
    assert len(result["ops"]) == 9
    for pair in result["ops"].values():
        assert pair["parent"]["exit"] == 0 and len(pair["parent"]["sha256"]) == 64


@pytest.mark.parametrize(
    "argv, message", [([], "give --workload, --gate or both"),
                      (["--workload", "tables"], "--workload needs --seed")],
)
def test_nothing_to_compare_is_a_usage_error(same_outputs, capsys, argv, message):
    with pytest.raises(SystemExit) as info:
        same_outputs.main([str(ROOT), str(ROOT), *argv])
    assert info.value.code == 2 and message in capsys.readouterr().err
