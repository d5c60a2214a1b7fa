"""One table of tolerances: no tolerance literals elsewhere, and the README lists them all."""

import ast
import re
from pathlib import Path

import pytest

from retrolind import tolerances

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "retrolind"
SMALLEST_NON_TOLERANCE = 1e-4


def _table() -> dict[str, float]:
    return {name: value for name, value in vars(tolerances).items() if name.isupper()}


def test_table_holds_positive_floats():
    assert all(isinstance(v, float) and v > 0.0 for v in _table().values())
    assert "PIPELINE_TOL" in _table()


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "tolerances.py"),
    ids=lambda p: p.name,
)
def test_no_small_literals_outside_the_table(path):
    small = [
        (node.lineno, node.value)
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant)
        and type(node.value) in (int, float, complex)
        and 0 < abs(node.value) < SMALLEST_NON_TOLERANCE
    ]
    assert small == [], f"{path.name}: tolerance literals outside tolerances.py: {small}"


def test_readme_lists_every_tolerance_with_its_value():
    rows = re.findall(r"^\| `([A-Z0-9_]+)` +\| ([^|]+?) +\|", (ROOT / "README.md").read_text(), flags=re.M)
    listed = {name: float(value) for name, value in rows}
    assert listed == _table()
