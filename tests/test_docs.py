"""The README names only code that exists.

Every backticked module.name of the package in README.md (conflicts.labelled,
planner.MAX_COVER, ...) must resolve to an attribute of that module, so a
deletion or a rename cannot leave the README naming code that is gone. File
names such as conflicts.py are not names of code and are skipped.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = {path.stem for path in (ROOT / "src" / "ranweave").glob("*.py")} - {"__init__"}


def _quoted_names() -> set[str]:
    spans = re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text(encoding="utf-8"))
    dotted = (m.group(0) for span in spans for m in re.finditer(r"(?<![\w.])\w+(?:\.\w+)+", span))
    return {name for name in dotted if name.split(".")[0] in MODULES and name.split(".")[1] != "py"}


def _resolves(name: str) -> bool:
    module, *attributes = name.split(".")
    target = importlib.import_module(f"ranweave.{module}")
    for attribute in attributes:
        if not hasattr(target, attribute):
            return False
        target = getattr(target, attribute)
    return True


def test_every_module_name_the_readme_quotes_resolves():
    names = _quoted_names()
    assert "conflicts.labelled" in names and "conflicts.py" not in names
    assert sorted(name for name in names if not _resolves(name)) == []
