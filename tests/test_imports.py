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


def test_the_backends_take_only_the_refiner_from_the_engine():
    """The refinement rules (the cover cap, the tie-break, the clean chain)
    live in planner.py beside the cover search; transport.py holds backends
    and answers refinement through planner.refine_pipeline alone."""
    tree = ast.parse(Path(PACKAGE_DIR, "transport.py").read_text(encoding="utf-8"))
    taken = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in ("planner", "ranweave.planner")
        for alias in node.names
    ]
    assert taken == ["refine_pipeline"]
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "MAX_COVER" not in names
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert not {"refine_pipeline", "_clean_cover"} & defined


def test_references_and_revisions_share_one_cover_search():
    """planner._clean_cover is the one search for a clean cover: it alone
    walks _covers, and synthesize_ground_truth, for references, and
    refine_pipeline, for the spacers a revision keeps, both go through it.
    planner.py imports nothing from itertools, so no second combinations
    loop can stand beside it."""
    tree = ast.parse(Path(PACKAGE_DIR, "planner.py").read_text(encoding="utf-8"))
    assert not [name for name in _absolute_imports(tree) if name.split(".")[0] == "itertools"]
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def callers(callee: str) -> set[str]:
        return {
            name
            for name, function in functions.items()
            for node in ast.walk(function)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == callee
        }

    assert callers("_covers") == {"_clean_cover"}
    assert callers("_clean_cover") == {"synthesize_ground_truth", "refine_pipeline"}


def _defaulted(arguments: ast.arguments) -> set[str]:
    positional = arguments.posonlyargs + arguments.args
    kept = positional[len(positional) - len(arguments.defaults):]
    kept += [arg for arg, default in zip(arguments.kwonlyargs, arguments.kw_defaults) if default is not None]
    return {arg.arg for arg in kept}


def test_the_conflict_memo_is_the_one_way_to_a_conflict_fact():
    """ConflictMemo holds the intents, matrix, registry and active set its
    facts depend on, in its first four fields, so the graph and the
    evaluation take the memo alone, a row takes a ref and a pipeline, and
    no default can stand in for a run's own. Outside the memo's methods nothing calls
    pairwise_conflicts or touches its pairs, facts, internals or rows, and
    only pairwise_conflicts, for a caller without a memo, calls
    PipelineFacts.of."""
    tree = ast.parse(Path(PACKAGE_DIR, "conflicts.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in ("build_conflict_graph", "evaluate_conflicts"):
        arguments = functions[name].args
        names = {arg.arg for arg in arguments.posonlyargs + arguments.args + arguments.kwonlyargs}
        assert "memo" in names and not {"intents", "matrix", "registry", "pre"} & names, name
        assert "memo" not in _defaulted(arguments), name
    [memo] = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "ConflictMemo"]
    fields = [node.target.id for node in memo.body if isinstance(node, ast.AnnAssign)]
    assert fields[:4] == ["intents", "matrix", "registry", "pre"]
    [row] = [node for node in memo.body if isinstance(node, ast.FunctionDef) and node.name == "row"]
    assert [arg.arg for arg in row.args.posonlyargs + row.args.args + row.args.kwonlyargs] == ["self", "ref", "pipeline"]
    assert row.args.vararg is None and row.args.kwarg is None
    standalone = functions["pairwise_conflicts"]
    outside = [
        ast.unparse(node)
        for statement in tree.body
        if statement is not memo
        for node in ast.walk(statement)
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "pairwise_conflicts")
        or (isinstance(node, ast.Call) and ast.unparse(node.func) == "PipelineFacts.of" and statement is not standalone)
        or (isinstance(node, ast.Attribute) and node.attr in ("pairs", "facts", "internals", "rows"))
    ]
    assert outside == []


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
    """schemas.py decodes every document the package reads, the agents'
    answers and the fixture files among them (harness.py reads those
    through schemas.load_doc); transport.py decodes the HTTP response
    envelope. memory.py only builds entries and imports neither json nor
    the wire spec, and a conflict record is built by the one record parser."""
    trees = _package_trees()
    decoders = sorted(name for name, tree in trees.items() if _calls(tree, "json", "loads"))
    assert decoders == ["schemas.py", "transport.py"]
    memory_imports = {name.split(".")[0] for name in _imported_names(trees["memory.py"])}
    assert not {"json", "schemas", "planner"} & memory_imports
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


def _unread_imports(tree: ast.AST) -> list[str]:
    """The names import statements of tree bind that nothing in tree reads,
    __future__'s excepted."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
    return sorted(bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)})


def test_no_module_imports_a_name_it_never_reads():
    """An import nothing reads is dead weight, or a dependency a module no
    longer has; __init__.py re-exports the public names, so it is excepted."""
    unread = {
        name: names
        for name, tree in _package_trees().items()
        if name != "__init__.py" and (names := _unread_imports(tree))
    }
    assert unread == {}
    assert _unread_imports(ast.parse("import os.path\nfrom a import b as c\nprint(os)\n")) == ["c"]


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
import ranweave.cli
from ranweave.harness import load_fixtures, run_scenario
run_scenario(load_fixtures(), 1, "f5", "mock-oracle", seed=0)
print(sorted({"ssl", "http.client", "urllib.request", "email.message", "numpy"} & set(sys.modules)))
"""


def test_a_mock_run_loads_no_http_stack():
    """HttpChatTransport imports the HTTP modules on its first call: they pull in ssl
    and email, which cost every process start that never sends a request. The
    command line and a run need no numpy: retrieval is integer arithmetic."""
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


def _calls_named(node: ast.AST, name: str) -> bool:
    """Whether node is a call of name, bare or as an attribute."""
    return isinstance(node, ast.Call) and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))


def test_facts_about_one_pipeline_take_one_form_each():
    """Two pipelines are the same exactly when they are ==, so no module
    compares their policy documents; and a pipeline's PipelineFacts are
    kept per value, so ConflictMemo.facts_of takes the pipeline alone, no
    ref."""
    trees = _package_trees()
    compared = sorted(
        f"{name}:{node.lineno}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(_calls_named(operand, "pipeline_to_policy_doc") for operand in (node.left, *node.comparators))
    )
    assert compared == []
    [memo] = [node for node in trees["conflicts.py"].body if isinstance(node, ast.ClassDef) and node.name == "ConflictMemo"]
    methods = {node.name: node for node in memo.body if isinstance(node, ast.FunctionDef)}
    arguments = methods["facts_of"].args
    assert [arg.arg for arg in arguments.posonlyargs + arguments.args + arguments.kwonlyargs] == ["self", "pipeline"]
    assert arguments.vararg is None and arguments.kwarg is None


def test_a_pipeline_has_one_identity_its_value():
    """The conflict memo keys pipelines by value, so no module calls id(),
    and ConflictMemo defines no intern: object identity cannot come back
    as a key unnoticed."""
    trees = _package_trees()
    called = sorted(
        f"{name}:{node.lineno}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "id"
    )
    assert called == []
    [memo] = [node for node in trees["conflicts.py"].body if isinstance(node, ast.ClassDef) and node.name == "ConflictMemo"]
    assert "intern" not in {node.name for node in memo.body if isinstance(node, ast.FunctionDef)}


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFINITIONS = (*_FUNCTIONS, ast.ClassDef)


def _reads(nodes) -> set[str]:
    """The bare names nodes read, as an ast.Name or an ast.Attribute; a
    string holds no read."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for root in nodes
        for node in ast.walk(root)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def _unreached(modules: dict[str, ast.Module], roots: set[str]) -> set[str]:
    """The definitions of modules, by module name, that nothing reaches.

    A definition is a top-level function or class (module.name) or a
    function in a class body (module.Class.name). The roots, every dunder
    method and every top-level statement that is no definition, __init__'s
    excepted, are reached; a reached definition reaches every definition
    whose bare name it reads, and a reached class what its bases,
    decorators and fields read. Names are matched bare, so a read of
    record reaches every definition named record: the walk never reports
    what a run could call, only what no name in it can reach."""
    reads: dict[str, set[str]] = {}
    named: dict[str, list[str]] = {}
    reached_names: set[str] = set()
    pending = list(roots)
    for module, tree in modules.items():
        for statement in tree.body:
            if not isinstance(statement, _DEFINITIONS):
                if module != "__init__":
                    reached_names |= _reads([statement])
                continue
            qualname = f"{module}.{statement.name}"
            named.setdefault(statement.name, []).append(qualname)
            if isinstance(statement, _FUNCTIONS):
                reads[qualname] = _reads([statement])
                continue
            fields = [node for node in statement.body if not isinstance(node, _FUNCTIONS)]
            reads[qualname] = _reads(statement.bases + statement.keywords + statement.decorator_list + fields)
            for method in statement.body:
                if isinstance(method, _FUNCTIONS):
                    method_name = f"{qualname}.{method.name}"
                    named.setdefault(method.name, []).append(method_name)
                    reads[method_name] = _reads([method])
                    if method.name.startswith("__") and method.name.endswith("__"):
                        pending.append(method_name)
    pending += [qualname for name in reached_names for qualname in named.get(name, ())]
    reached: set[str] = set()
    while pending:
        qualname = pending.pop()
        if qualname not in reached:
            reached.add(qualname)
            pending += [other for name in reads[qualname] for other in named.get(name, ())]
    return set(reads) - reached


# What no ranweave command reaches, and why it stays.
_UNREACHED = {
    "agents.is_correct_candidate": "perfbench/run.py imports it (ROADMAP item 1b)",
    "conflicts.validity": "perfbench/run.py imports it (ROADMAP item 1b)",
    "harness.build_knowledge_store": "perfbench/run.py imports it (ROADMAP item 1b)",
    "harness.compare_modes": "ROADMAP item 7's ranweave compare is its planned caller",
}


def test_every_definition_is_reached_from_the_command_line():
    """Code no command reaches is code nothing needs: each definition of the
    package is reached from cli.main, or is listed with its reason. The
    list must match exactly, so an entry that becomes reached or is deleted
    leaves it too. __all__ is a re-export list, not a stability promise, so
    __init__.py roots nothing."""
    modules = {name.removesuffix(".py"): tree for name, tree in _package_trees().items()}
    assert _unreached(modules, {"cli.main"}) == set(_UNREACHED)


def test_the_reach_walk_reports_a_planted_definition():
    """Module code is a root, a method is reached by its bare name, and a
    name that appears only in a string is no read."""
    source = (
        "import sys\n"
        "def main():\n    return helper(Box().size)\n"
        "def helper(x):\n    return x\n"
        "def at_import():\n    return 1\n"
        "def planted():\n    return 'helper'\n"
        "def named_in_a_string():\n    return getattr(sys, 'planted')\n"
        "class Box:\n    def __init__(self):\n        self.size = 1\n"
        "    def size(self):\n        return 0\n"
        "    def unused(self):\n        return 0\n"
        "LIMIT = at_import()\n"
    )
    assert _unreached({"m": ast.parse(source)}, {"m.main"}) == {"m.planted", "m.named_in_a_string", "m.Box.unused"}
