"""tools/code_size.py: its line kinds on a made-up module, the package
totals of made-up checkouts, its table and its usage errors."""

import importlib.util
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "code_size.py"

# a made-up module and the kind of each of its lines
MODULE = textwrap.dedent('''\
    """A module docstring

    over three lines."""
    # a comment line
    import math

      # an indented comment
    def f(x):
        """A function docstring."""
        s = """a string

        that is code"""
        "a later string is code, not a docstring"
        return (x +  # a trailing comment leaves a line code
                math.pi)


    class C:
        """A class docstring,

        blank line included."""  # a comment after a docstring
        y = 1
    ''')
KINDS = (
    ["docstring"] * 3 + ["comment", "code", "blank", "comment", "code", "docstring"]
    + ["code"] * 6 + ["blank"] * 2 + ["code"] + ["docstring"] * 3 + ["code"]
)


@pytest.fixture(scope="module")
def code_size():
    spec = importlib.util.spec_from_file_location("code_size", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def checkout(root: Path, modules: dict) -> Path:
    package = root / "src" / "sabrkit"
    package.mkdir(parents=True)
    for name, source in modules.items():
        (package / name).write_text(source, encoding="utf-8")
    return root


def test_each_line_has_its_kind(code_size):
    assert code_size.line_kinds(MODULE) == KINDS
    assert code_size.count(MODULE) == {
        "total": 22, "code": 10, "docstring": 7, "comment": 2, "blank": 3,
    }


def test_package_totals_are_the_sums(code_size, tmp_path):
    root = checkout(tmp_path, {"b.py": MODULE, "a.py": "x = 1\n\n# c\n"})
    result = code_size.package_counts(root)
    assert list(result) == ["a.py", "b.py", "TOTAL"]
    assert result["a.py"] == {"total": 3, "code": 1, "docstring": 0, "comment": 1, "blank": 1}
    assert result["TOTAL"]["total"] == 3 + len(KINDS)
    assert result["TOTAL"]["code"] == 1 + 10


def test_totals_are_the_line_counts_of_this_checkout(code_size):
    result = code_size.package_counts(ROOT)
    for path in (ROOT / "src" / "sabrkit").glob("*.py"):
        counts = result[path.name]
        assert counts["total"] == len(path.read_text(encoding="utf-8").splitlines())
        assert counts["total"] == sum(counts[k] for k in code_size.KINDS[1:])


def test_two_checkouts_print_each_change(code_size, tmp_path, capsys):
    parent = checkout(tmp_path / "parent", {"a.py": "x = 1\n", "gone.py": "y = 2\n"})
    change = checkout(tmp_path / "change", {"a.py": "x = 1\n# c\n", "new.py": "z = 3\n"})
    assert code_size.main([str(parent), str(change)]) == 0
    rows = {line.split()[0]: line.split()[1:] for line in capsys.readouterr().out.splitlines()}
    assert rows["module"] == list(code_size.KINDS)
    assert rows["a.py"][:6] == ["1", "->", "2", "(+1)", "1", "->"]
    assert rows["gone.py"][:4] == ["1", "->", "0", "(-1)"]
    assert rows["new.py"][:4] == ["0", "->", "1", "(+1)"]
    assert rows["TOTAL"][:4] == ["2", "->", "3", "(+1)"]


@pytest.mark.parametrize("extra", [["a", "b", "c"], ["missing"]])
def test_usage_errors(code_size, tmp_path, extra, capsys):
    with pytest.raises(SystemExit) as exc:
        code_size.main([str(tmp_path / name) for name in extra])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
