"""The wheel ships exactly the package's data files.

Every glob of [tool.setuptools.package-data] must match a file, so a stale
glob fails; every non-Python file of the package must match a glob, so a
data file the wheel would leave out fails too.
"""

from __future__ import annotations

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ranweave"


def _package_data_globs() -> list[str]:
    tomllib = pytest.importorskip("tomllib")
    config = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    return config["tool"]["setuptools"]["package-data"]["ranweave"]


def test_every_package_data_glob_matches_a_file():
    unmatched = [glob for glob in _package_data_globs() if not any(PACKAGE.glob(glob))]
    assert unmatched == []


def test_every_data_file_is_shipped():
    shipped = {path for glob in _package_data_globs() for path in PACKAGE.glob(glob)}
    data_files = {
        path
        for path in PACKAGE.rglob("*")
        if path.is_file() and path.suffix not in (".py", ".pyc") and "__pycache__" not in path.parts
    }
    assert sorted(str(p.relative_to(PACKAGE)) for p in data_files - shipped) == []
