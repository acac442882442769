"""Each module imports cleanly when it is the first one loaded, and only
transport.py speaks HTTP.

The package's __init__ imports the modules in one fixed order, which can
hide an import cycle that another order would hit. Each case therefore
runs in a fresh interpreter that registers the package without running
its __init__ and then imports a single module.
"""

from __future__ import annotations

import ast
import importlib.util
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE_DIR = importlib.util.find_spec("ranweave").submodule_search_locations[0]
MODULES = sorted(info.name for info in pkgutil.iter_modules([PACKAGE_DIR]))

_IMPORT_FIRST = """
import importlib, importlib.util, os, sys
location = sys.argv[1]
spec = importlib.util.spec_from_file_location(
    "ranweave", os.path.join(location, "__init__.py"), submodule_search_locations=[location]
)
sys.modules["ranweave"] = importlib.util.module_from_spec(spec)
importlib.import_module("ranweave." + sys.argv[2])
"""


def test_every_module_is_listed():
    assert {"agents", "harness", "model", "planner", "schemas", "transport"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first(module):
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_FIRST, PACKAGE_DIR, module],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr


def _absolute_imports(tree: ast.AST):
    """Every dotted name an import statement of tree names, relative ones excepted."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_only_transport_speaks_http():
    """Both backends share transport.post_json, so no other module needs urllib or http.client."""
    offenders = sorted(
        (str(path.relative_to(PACKAGE_DIR)), name)
        for path in Path(PACKAGE_DIR).rglob("*.py")
        if path.relative_to(PACKAGE_DIR) != Path("transport.py")
        for name in _absolute_imports(ast.parse(path.read_text(encoding="utf-8")))
        if name.split(".")[0] == "urllib" or name == "http.client" or name.startswith("http.client.")
    )
    assert not offenders
