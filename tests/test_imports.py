"""Each module imports cleanly when it is the first one loaded, only
transport.py speaks HTTP or reads the environment, and a mock run never
loads the HTTP stack.

The package's __init__ imports the modules in one fixed order, which can
hide an import cycle that another order would hit. Each case therefore
runs in a fresh interpreter that registers the package without running
its __init__ and then imports a single module.
"""

from __future__ import annotations

import ast
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

from .helpers import PERFBENCH

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
    """HttpChatTransport is the one HTTP backend, so no other module needs urllib or http.client."""
    offenders = sorted(
        (str(path.relative_to(PACKAGE_DIR)), name)
        for path in Path(PACKAGE_DIR).rglob("*.py")
        if path.relative_to(PACKAGE_DIR) != Path("transport.py")
        for name in _absolute_imports(ast.parse(path.read_text(encoding="utf-8")))
        if name.split(".")[0] == "urllib" or name == "http.client" or name.startswith("http.client.")
    )
    assert not offenders


def test_the_conflict_engine_imports_only_the_model():
    """conflicts.py is the exact engine: the wire format (schemas.py) and the
    backends build on it, so it depends on no package module but model."""
    tree = ast.parse(Path(PACKAGE_DIR, "conflicts.py").read_text(encoding="utf-8"))
    relative = {
        name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
        for name in ([node.module] if node.module else [alias.name for alias in node.names])
    }
    absolute = {name.split(".")[1] for name in _absolute_imports(tree) if name.startswith("ranweave.")}
    assert relative | absolute == {"model"}


def _reads_environ(tree: ast.AST) -> bool:
    """Whether tree names os.environ or os.getenv, as an attribute or an import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "os" and node.attr in ("environ", "getenv"):
                return True
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name in ("environ", "getenv") for alias in node.names):
                return True
    return False


def _imported_names(tree: ast.AST):
    """Every name an import statement of tree names, relative ones included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""
            yield from (alias.name for alias in node.names)


def test_only_transport_reads_the_environment():
    """The RANWEAVE_CHAT_* variables HttpChatTransport reads are the package's
    only environment settings, and retrieval needs nothing of a backend."""
    readers = sorted(
        str(path.relative_to(PACKAGE_DIR))
        for path in Path(PACKAGE_DIR).rglob("*.py")
        if _reads_environ(ast.parse(path.read_text(encoding="utf-8")))
    )
    assert readers == ["transport.py"]
    retrieval = ast.parse(Path(PACKAGE_DIR, "retrieval.py").read_text(encoding="utf-8"))
    assert "transport" not in {name.split(".")[-1] for name in _imported_names(retrieval)}


def _calls(tree: ast.AST, module: str, function: str) -> bool:
    """Whether tree calls module.function as an attribute of the module's name."""
    return any(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and (node.func.value.id, node.func.attr) == (module, function)
        for node in ast.walk(tree)
    )


def _package_trees() -> dict[str, ast.AST]:
    return {
        str(path.relative_to(PACKAGE_DIR)): ast.parse(path.read_text(encoding="utf-8"))
        for path in Path(PACKAGE_DIR).rglob("*.py")
    }


def test_documents_are_decoded_by_their_own_modules():
    """schemas.py decodes every document the package reads back, the saved
    memory line and the fixture files among them (harness.py reads those
    through schemas.load_doc); transport.py decodes the HTTP response
    envelope. memory.py only builds entries, and a conflict record is built
    by the one record parser."""
    trees = _package_trees()
    decoders = sorted(name for name, tree in trees.items() if _calls(tree, "json", "loads"))
    assert decoders == ["schemas.py", "transport.py"]
    assert "json" not in {name.split(".")[0] for name in _imported_names(trees["memory.py"])}
    [record] = [
        node for node in ast.walk(trees["conflicts.py"])
        if isinstance(node, ast.ClassDef) and node.name == "ConflictRecord"
    ]
    assert "from_dict" not in {node.name for node in record.body if isinstance(node, ast.FunctionDef)}


def _builds_strict_codec(tree: ast.AST) -> bool:
    """Whether tree passes a parse_constant or parse_float hook, or builds a JSONDecoder or JSONEncoder."""
    return any(
        isinstance(node, ast.Call)
        and (
            bool({kw.arg for kw in node.keywords} & {"parse_constant", "parse_float"})
            or ast.unparse(node.func).split(".")[-1] in ("JSONDecoder", "JSONEncoder")
        )
        for node in ast.walk(tree)
    )


def test_only_the_schemas_build_a_strict_codec():
    """What JSON text the package accepts and writes (no NaN or Infinity, no
    number past the float range) has one owner: schemas.py builds the one
    decoder and encoder, and every other module goes through them."""
    trees = _package_trees()
    assert sorted(name for name, tree in trees.items() if _builds_strict_codec(tree)) == ["schemas.py"]
    for source in ("json.loads(t, parse_float=f)", "json.load(f, parse_constant=c)",
                   "json.JSONDecoder()", "JSONEncoder(sort_keys=True)"):
        assert _builds_strict_codec(ast.parse(source))
    assert not _builds_strict_codec(ast.parse("json.loads(t)"))


def test_deployment_conditions_are_coded_only_by_the_schemas():
    """model.py keeps a pipeline's deployment conditions as opaque canonical
    text and defines no conditions function; only schemas.py encodes them
    with dump_doc or decodes them with json.loads."""
    trees = _package_trees()
    model_functions = {node.name for node in ast.walk(trees["model.py"]) if isinstance(node, ast.FunctionDef)}
    assert not {name for name in model_functions if "conditions" in name}
    coders = {
        name
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and ast.unparse(node.func) in ("dump_doc", "json.loads")
        and any("conditions" in ast.unparse(arg) for arg in node.args)
    }
    assert coders == {"schemas.py"}


_CONTAINER_DISPLAYS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
_CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque"}


def _is_container(node: ast.AST | None) -> bool:
    if isinstance(node, ast.Call):
        return ast.unparse(node.func).split(".")[-1] in _CONTAINER_CALLS
    return isinstance(node, _CONTAINER_DISPLAYS)


def _process_lifetime_state(tree: ast.Module) -> list[str]:
    """What outlives every run: a mutable container bound in the module or a
    class body, or as a parameter default, and any use of functools' caches."""
    found = []
    bodies = [tree.body] + [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
    for node in (statement for body in bodies for statement in body):
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and _is_container(node.value):
            found.append(ast.unparse(node))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            found += [ast.unparse(d) for d in node.args.defaults + node.args.kw_defaults if _is_container(d)]
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [f"functools.{a.name}" for a in node.names if a.name in ("cache", "lru_cache")]
        elif isinstance(node, ast.Attribute) and ast.unparse(node) in ("functools.cache", "functools.lru_cache"):
            found.append(ast.unparse(node))
    return found


@pytest.mark.parametrize("module", ["agents.py", "harness.py", "retrieval.py"])
def test_run_modules_keep_no_process_lifetime_state(module):
    """State that spans runs lives on an object with a lifetime, such as the
    FixtureBundle whose scenarios it serves, never in a module, where it would
    outlive every bundle and carry one test's results into the next."""
    tree = ast.parse(Path(PACKAGE_DIR, module).read_text(encoding="utf-8"))
    assert _process_lifetime_state(tree) == []


def test_the_state_check_sees_each_kind_of_binding():
    source = (
        "import functools\nfrom functools import lru_cache\nA = {}\nB: list = list()\n"
        "class C:\n    D = set()\ndef f(x, seen=[]):\n    return x\n"
        "g = functools.cache(f)\nE = (1, 2)\nF = frozenset()\n"
    )
    assert sorted(_process_lifetime_state(ast.parse(source))) == [
        "A = {}", "B: list = list()", "D = set()", "[]", "functools.cache", "functools.lru_cache"
    ]


_MOCK_RUN = """
import sys
import ranweave
from ranweave.harness import load_fixtures, run_scenario
run_scenario(load_fixtures(), 1, "f5", "mock-oracle", seed=0)
print(sorted({"ssl", "http.client", "urllib.request", "email.message"} & set(sys.modules)))
"""


def test_a_mock_run_loads_no_http_stack():
    """HttpChatTransport imports the HTTP modules on its first call: they pull in ssl
    and email, which cost every process start that never sends a request."""
    source_root = os.path.dirname(PACKAGE_DIR)
    path = os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _MOCK_RUN],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_every_agent_call_goes_through_ask():
    """The loop assembles each request and asks it through agents._ask, the
    one place a failed call becomes None: no run_* role wrapper stands
    between them, and nothing else calls _call_with_repair."""
    tree = ast.parse(Path(PACKAGE_DIR, "agents.py").read_text(encoding="utf-8"))
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    assert not [f.name for f in functions if f.name.startswith("run_")]
    callers = sorted(
        f.name
        for f in functions
        for node in ast.walk(f)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_call_with_repair"
    )
    assert callers == ["_ask"]


# Bindings of perfbench/span_trace.py whose functions the package no longer
# defines where the tracer looks; their metrics read 0 until the tracer drops them.
_STALE_BINDINGS = {
    "ranweave.agents._conflict_records_for_iteration",
    "ranweave.agents.pairwise_conflicts",
    "ranweave.agents.internal_conflicts",
    "ranweave.planner.pairwise_conflicts",
    "ranweave.transport.build_conflict_graph",
    "ranweave.harness.ground_truths",
}


def test_tracer_bindings_resolve(monkeypatch):
    """Every function the benchmark's tracer wraps is defined where it looks,
    as Tracer.installed finds it, so a rename cannot zero a traced metric
    with only a stderr line to show for it."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from span_trace import BINDINGS

    missing = {
        f"{owner.__name__}.{attribute}" for owner, attribute, _, _ in BINDINGS if owner.__dict__.get(attribute) is None
    }
    assert missing <= _STALE_BINDINGS
