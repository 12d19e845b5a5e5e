"""tools/same_outputs.py: its comparison on made-up records, and one run
of the `tables` workload comparing this checkout with itself."""

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


def test_tables_against_itself(same_outputs, capsys):
    code = same_outputs.main([str(ROOT), str(ROOT), "--workload", "tables", "--seed", "3"])
    result = json.loads(capsys.readouterr().out)
    assert code == 0 and result["differ"] == []
    # seven residual presets and two price lattices, each written by an op that exited 0
    assert len(result["ops"]) == 9
    for pair in result["ops"].values():
        assert pair["parent"]["exit"] == 0 and len(pair["parent"]["sha256"]) == 64
