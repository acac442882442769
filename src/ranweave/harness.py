"""Scenario fixtures, baseline execution and metric reporting.

A fixture catalog is a directory holding registered xApps, service
intents, orchestration scenarios, a vendor matrix and a knowledge corpus.
load_fixtures takes a catalog of any size and checks only what every
catalog must satisfy; the bundled catalog's shape is pinned by its tests,
not by the loader.

A scenario is named by its id in the bundle. What its runs share lives on
the bundle, made on first use: the knowledge store (FixtureBundle.store),
which keeps the corpus ranked for each query text it is asked, and each
scenario's oracle (FixtureBundle.oracle), whose memo holds the active set
of its pre-deployed reference pipelines. Each run gets its own transport,
memory buffer, conflict memo and agent calls, drives the iteration loop,
and produces a RunReport whose metrics are normalized against the exact
planner.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, TypeVar

from .agents import DEFAULT_ANALOGUES, MAX_ITERATIONS, Mode, RunContext, orchestrate_batch
from .conflicts import VendorCompatibilityMatrix, build_conflict_graph
from .memory import MemoryBuffer
from .model import ENTRY_ERRORS, DeploymentState, Intent, Pipeline, Registry, XAppProfile, check_integer_id
from .planner import (
    InfeasibleIntentError,
    OracleResult,
    max_conflict_free_subset,
    synthesize_ground_truth,
)
from .retrieval import UndecodableDocument, VectorStore
from .schemas import load_doc
from .transport import ChatTransport, HttpChatTransport, MockBundle, NoisyTransport, OracleTransport

T = TypeVar("T")


class FixtureError(ValueError):
    def __init__(self, source: str, message: str):
        super().__init__(f"{source}: {message}")


@dataclass(frozen=True)
class ScenarioSpec:
    id: int
    new_intents: tuple[int, ...]
    pre_deployed_intents: tuple[int, ...]

    def __post_init__(self) -> None:
        listed = self.new_intents + self.pre_deployed_intents
        for value in (self.id, *listed):
            check_integer_id(value)
        repeated = sorted({i for i in listed if listed.count(i) > 1})
        if repeated:
            raise FixtureError(
                "scenarios.json",
                f"scenario {self.id}: intents {repeated} listed more than once across new and pre-deployed",
            )

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ScenarioSpec":
        return cls(data["id"], tuple(data["new_intents"]), tuple(data["pre_deployed_intents"]))


@dataclass(frozen=True)
class FixtureBundle:
    """A loaded catalog. What its runs share, the reference pipelines, the
    knowledge store and each scenario's oracle, is computed once per bundle,
    on first use, and lives as long as the bundle: loading the catalog again
    computes it again. Nothing is computed at load time. Each run's
    transport, memory buffer, conflict memo and agent calls stay its own."""

    registry: Registry
    intents: dict[int, Intent]
    scenarios: dict[int, ScenarioSpec]
    matrix: VendorCompatibilityMatrix
    knowledge_dir: Path
    _oracles: dict[int, OracleResult] = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def truths(self) -> Mapping[int, Pipeline]:
        """Reference pipeline per intent, synthesized once, on first lookup (read-only).
        An infeasible intent raises InfeasibleIntentError; the others stay usable."""
        return ReferencePipelines(self)

    @cached_property
    def store(self) -> VectorStore:
        """The one knowledge store of the bundle's runs: the chunks of
        knowledge_dir, embedded on first use, their vectors read-only. A
        missing knowledge_dir gives an empty store; one that is not a
        directory, or holds a file that is not UTF-8 text, raises FixtureError."""
        store = VectorStore()
        if self.knowledge_dir.is_dir():
            try:
                store.add_directory(self.knowledge_dir)
            except UndecodableDocument as exc:
                raise FixtureError(f"{self.knowledge_dir.name}/{exc}", "not UTF-8 text") from None
        elif self.knowledge_dir.exists():
            raise FixtureError(self.knowledge_dir.name, "not a directory")
        return store

    def oracle(self, scenario_id: int) -> OracleResult:
        """Scenario scenario_id's oracle: the truths of its new intents plus the
        deployable maximum beside the active set of its pre-deployed ones
        (memo.pre). It is kept once made; one that raises
        (InfeasibleIntentError) is not, and raises again on the next call. An
        id that is not one of the bundle's scenarios raises KeyError."""
        spec = self.scenarios[scenario_id]
        if scenario_id not in self._oracles:
            pre = DeploymentState(tuple(self.truths[i] for i in spec.pre_deployed_intents))
            candidates = {i: self.truths[i] for i in spec.new_intents}
            self._oracles[scenario_id] = max_conflict_free_subset(
                candidates, pre, self.intents, self.matrix, self.registry
            )
        return self._oracles[scenario_id]


class ReferencePipelines(Mapping):
    """A bundle's reference pipelines by intent id, each synthesized when first looked up."""

    def __init__(self, bundle: FixtureBundle):
        self._bundle = bundle
        self._cache: dict[int, Pipeline] = {}

    def __getitem__(self, intent_id: int) -> Pipeline:
        if intent_id not in self._cache:
            b = self._bundle
            self._cache[intent_id] = synthesize_ground_truth(b.intents[intent_id], b.registry, b.matrix)
        return self._cache[intent_id]

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self._bundle.intents))

    def __len__(self) -> int:
        return len(self._bundle.intents)


@dataclass
class RunReport:
    scenario_id: int
    mode: str
    generation_accuracy: float
    deployment_success: float
    iterations_to_synthesis: int
    iterations_to_deployment: int
    converged: bool
    seed: int
    transport: str
    score_history: list[tuple[int, int, int, int, int]] = field(default_factory=list)

    CSV_FIELDS = (
        "scenario_id",
        "mode",
        "generation_accuracy",
        "deployment_success",
        "iterations_to_synthesis",
        "iterations_to_deployment",
        "converged",
        "seed",
        "transport",
    )

    def to_dict(self) -> dict[str, object]:
        data: dict[str, object] = {name: getattr(self, name) for name in self.CSV_FIELDS}
        data["score_history"] = [list(s) for s in self.score_history]
        return data


def _fixture_root(path: str | Path | None) -> Path:
    if path is not None:
        return Path(path)
    return Path(str(resources.files("ranweave"))) / "fixtures"


def load_fixtures(path: str | Path | None = None) -> FixtureBundle:
    """Load and cross-validate a fixture catalog of any size.

    Each file holds a JSON array of entries (vendor_matrix.json an object);
    intent and scenario ids are JSON integers, and ids are unique per file.
    Every scenario lists known intents, each once across new and
    pre-deployed; every intent's capabilities are offered and its mandatory
    xApps registered. Violations surface as FixtureError naming the file.
    """
    root = _fixture_root(path)

    profiles = _load_entries(root, "xapps.json", XAppProfile.from_dict)
    intents = _load_entries(root, "intents.json", Intent.from_dict)
    registry = Registry(profiles.values())

    matrix_doc = _read_json(root, "vendor_matrix.json")
    try:
        matrix = VendorCompatibilityMatrix.from_dict(matrix_doc)
    except ENTRY_ERRORS as exc:
        raise FixtureError("vendor_matrix.json", str(exc)) from exc

    scenarios = _load_entries(root, "scenarios.json", ScenarioSpec.from_dict)
    for spec in scenarios.values():
        unknown = [i for i in spec.new_intents + spec.pre_deployed_intents if i not in intents]
        if unknown:
            raise FixtureError("scenarios.json", f"scenario {spec.id}: unknown intent ids {unknown}")

    offered = {cap for p in registry for cap in p.capabilities}
    for intent in intents.values():
        unknown = intent.required_capabilities - offered
        if unknown:
            raise FixtureError(
                "intents.json", f"intent {intent.id} requires unknown capabilities {sorted(unknown)}"
            )
        missing = {x for x in intent.required_xapps if x not in registry}
        if missing:
            raise FixtureError(
                "intents.json", f"intent {intent.id} mandates unregistered xApps {sorted(missing)}"
            )

    return FixtureBundle(
        registry=registry,
        intents=intents,
        scenarios=scenarios,
        matrix=matrix,
        knowledge_dir=root / "knowledge",
    )


def _read_json(root: Path, name: str):
    file = root / name
    if not file.exists():
        raise FixtureError(name, "fixture file missing")
    try:
        return load_doc(file.read_text(encoding="utf-8"))
    except (RecursionError, ValueError) as exc:
        raise FixtureError(name, f"invalid JSON: {exc}") from exc


def _load_entries(root: Path, name: str, build: Callable[[object], T]) -> dict[int | str, T]:
    """Build every entry of a JSON-array fixture file, keyed by its unique id."""
    entries = _read_json(root, name)
    if not isinstance(entries, list):
        raise FixtureError(name, f"expected a JSON array, found {type(entries).__name__}")
    items: dict[int | str, T] = {}
    for index, entry in enumerate(entries):
        try:
            item = build(entry)
        except FixtureError:
            raise
        except KeyError as exc:
            raise FixtureError(name, f"entry {index}: missing field {exc}") from exc
        except ENTRY_ERRORS as exc:
            raise FixtureError(name, f"entry {index}: {exc}") from exc
        if item.id in items:
            raise FixtureError(name, f"entry {index}: duplicate id {item.id!r}")
        items[item.id] = item
    return items


def validate_fixture_soundness(bundle: FixtureBundle) -> list[str]:
    """Authoring gate: every intent must have a reference pipeline, and every
    scenario not using an infeasible intent a conflict-free reference deployment.

    The knowledge store is read first, as a run reads it, so a corpus that is
    not a directory, or a file of it that is not UTF-8 text, raises FixtureError."""
    bundle.store
    problems = []
    infeasible = set()
    for intent_id in bundle.truths:
        try:
            bundle.truths[intent_id]
        except InfeasibleIntentError as exc:
            problems.append(f"intent {intent_id}: {exc}")
            infeasible.add(intent_id)
    for scenario in bundle.scenarios.values():
        if infeasible & set(scenario.new_intents + scenario.pre_deployed_intents):
            continue
        result = bundle.oracle(scenario.id)
        expected = set(scenario.new_intents)
        if set(result.max_subset) != expected:
            problems.append(
                f"scenario {scenario.id}: reference objective covers {sorted(result.max_subset)} "
                f"instead of all of {sorted(expected)}"
            )
        for (ref_a, ref_b), records in build_conflict_graph(result.per_intent_truth, result.memo).edges:
            problems.append(
                f"scenario {scenario.id}: reference pipelines {ref_a} and {ref_b} conflict: "
                + "; ".join(r.subject for r in records)
            )
    return problems


def build_knowledge_store(bundle: FixtureBundle) -> VectorStore:
    """The bundle's one knowledge store (FixtureBundle.store), which every
    run of the bundle is handed."""
    return bundle.store


def make_transport(kind: str, bundle: FixtureBundle, seed: int = 0) -> ChatTransport:
    if kind == "mock-oracle":
        return OracleTransport(_mock_bundle(bundle))
    if kind == "mock-noisy":
        return NoisyTransport(_mock_bundle(bundle), seed)
    if kind == "http":
        return HttpChatTransport()
    raise ValueError(f"unknown transport {kind!r}; expected http, mock-oracle or mock-noisy")


def _mock_bundle(bundle: FixtureBundle) -> MockBundle:
    return MockBundle(
        registry=bundle.registry,
        intents=bundle.intents,
        matrix=bundle.matrix,
        truths=bundle.truths,
    )


def run_scenario(
    bundle: FixtureBundle,
    scenario_id: int,
    mode: Mode | str,
    transport: ChatTransport | str,
    seed: int = 0,
    max_iterations: int = MAX_ITERATIONS,
    analogue_count: int = DEFAULT_ANALOGUES,
    memory: MemoryBuffer | None = None,
) -> RunReport:
    """Execute one (scenario, mode, transport, seed) run and report metrics.

    scenario_id names one of the bundle's scenarios; any other id raises
    KeyError. The scenario's oracle and the knowledge store are the bundle's,
    shared with its other runs; the transport, memory buffer and the loop
    are the run's own.
    """
    spec = bundle.scenarios[scenario_id]
    run_mode = Mode(mode)
    chat = make_transport(transport, bundle, seed) if isinstance(transport, str) else transport
    oracle = bundle.oracle(scenario_id)
    memory = memory if memory is not None else MemoryBuffer()

    ctx = RunContext(
        mode=run_mode,
        intents=tuple(bundle.intents[i] for i in spec.new_intents),
        pre=oracle.memo.pre,
        registry=bundle.registry,
        matrix=bundle.matrix,
        intent_catalog=bundle.intents,
        max_iterations=max_iterations,
        analogue_count=analogue_count,
    )
    outcome = orchestrate_batch(ctx, chat, memory, bundle.store, oracle)
    best = outcome.best
    total = len(spec.new_intents)
    objective = oracle.objective_value
    return RunReport(
        scenario_id=spec.id,
        mode=run_mode.value,
        generation_accuracy=len(best.correct) / total if total else 1.0,
        deployment_success=(best.score.correct_deployed / objective) if objective else 1.0,
        iterations_to_synthesis=outcome.iterations_to_synthesis or max_iterations,
        iterations_to_deployment=outcome.iterations_to_deployment or max_iterations,
        converged=outcome.converged,
        seed=seed,
        transport=chat.describe(),
        score_history=[s.as_tuple() for s in outcome.score_history],
    )


def emit_report(reports: Iterable[RunReport], format: str, path: str | Path) -> Path:
    """Write reports as a JSON array or a fixed-header CSV."""
    reports = list(reports)
    if not reports:
        raise ValueError("no reports to emit")
    target = Path(path)
    if format == "json":
        target.write_text(
            json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    elif format == "csv":
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=RunReport.CSV_FIELDS)
        writer.writeheader()
        for report in reports:
            writer.writerow({name: getattr(report, name) for name in RunReport.CSV_FIELDS})
        target.write_text(buffer.getvalue(), encoding="utf-8")
    else:
        raise ValueError(f"unknown report format {format!r}; expected json or csv")
    return target
