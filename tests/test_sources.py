"""Every source and test file is valid Python 3.10, the oldest version
pyproject.toml declares, whatever version runs the suite."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py")])


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=(3, 10))
