"""Each module imports cleanly when it is the first one loaded.

The package's __init__ imports the modules in one fixed order, which can
hide an import cycle that another order would hit. Each case therefore
runs in a fresh interpreter that registers the package without running
its __init__ and then imports a single module.
"""

from __future__ import annotations

import importlib.util
import pkgutil
import subprocess
import sys

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
