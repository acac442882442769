"""Scenario fixtures, baseline execution and metric reporting.

A fixture catalog is a directory holding registered xApps, service
intents, orchestration scenarios, a vendor matrix and a knowledge corpus.
load_fixtures takes a catalog of any size and checks only what every
catalog must satisfy; the bundled catalog's shape is pinned by its tests,
not by the loader.

A scenario is named by its id in the bundle. What its runs share is
computed once per bundle and scenario, on first use (ScenarioSetup): the
deployment state of its pre-deployed reference pipelines, its oracle, and
the knowledge corpus ranked for its retrieval query. Each run gets its own
transport, memory buffer, knowledge store (seeded with that ranking),
conflict memo and agent calls, drives the iteration loop, and produces a
RunReport whose metrics are normalized against the exact planner.
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

from .agents import (
    DEFAULT_ANALOGUES,
    MAX_ITERATIONS,
    BatchOutcome,
    Mode,
    RunContext,
    orchestrate_batch,
    query_text,
)
from .conflicts import VendorCompatibilityMatrix, build_conflict_graph
from .memory import MemoryBuffer
from .model import ENTRY_ERRORS, DeploymentState, Intent, Pipeline, Registry, XAppProfile, check_integer_id
from .planner import (
    InfeasibleIntentError,
    OracleResult,
    max_conflict_free_subset,
    synthesize_ground_truth,
)
from .retrieval import DocChunk, UndecodableDocument, VectorStore, rank
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
    """A loaded catalog. What every run of it shares, the reference pipelines
    and the embedded knowledge corpus, and what every run of one of its
    scenarios shares (setup(scenario_id): active set, oracle, corpus
    ranking), is computed once per bundle, on first use, and lives as long
    as the bundle: loading the catalog again computes it again. Nothing is
    computed at load time. Each run's transport, memory buffer, store,
    conflict memo and agent calls stay its own."""

    registry: Registry
    intents: dict[int, Intent]
    scenarios: dict[int, ScenarioSpec]
    matrix: VendorCompatibilityMatrix
    knowledge_dir: Path

    @cached_property
    def truths(self) -> Mapping[int, Pipeline]:
        """Reference pipeline per intent, synthesized once, on first lookup (read-only).
        An infeasible intent raises InfeasibleIntentError; the others stay usable."""
        return ReferencePipelines(self)

    @cached_property
    def knowledge(self) -> tuple[DocChunk, ...]:
        """The chunks of knowledge_dir, embedded on first use; their vectors are
        read-only. A file that is not UTF-8 text raises FixtureError naming it."""
        store = VectorStore()
        if self.knowledge_dir.is_dir():
            try:
                store.add_directory(self.knowledge_dir)
            except UndecodableDocument as exc:
                raise FixtureError(f"{self.knowledge_dir.name}/{exc}", "not UTF-8 text") from None
        return store.chunks

    @cached_property
    def _setups(self) -> dict[int, "ScenarioSetup"]:
        return {i: ScenarioSetup(self, spec) for i, spec in self.scenarios.items()}

    def setup(self, scenario_id: int) -> "ScenarioSetup":
        """The kept set-up of the runs of scenario scenario_id; an id that is
        not one of the bundle's scenarios raises KeyError."""
        return self._setups[scenario_id]


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


class ScenarioSetup:
    """What every run of one scenario shares, each part computed on first use.

    A part that raises (InfeasibleIntentError for an intent without a
    reference pipeline) is not kept and raises again on the next lookup.
    All of it is read-only: a run copies the oracle's memo before it adds
    to it, and a run's store drops the ranking when a document is added.
    """

    def __init__(self, bundle: FixtureBundle, spec: ScenarioSpec):
        self._bundle = bundle
        self.spec = spec

    @cached_property
    def intents(self) -> tuple[Intent, ...]:
        """The scenario's new intents, in the scenario's order."""
        return tuple(self._bundle.intents[i] for i in self.spec.new_intents)

    @cached_property
    def pre(self) -> DeploymentState:
        """The active set a run starts from: the pre-deployed intents' reference pipelines."""
        truths = self._bundle.truths
        return DeploymentState(tuple(truths[i] for i in self.spec.pre_deployed_intents))

    @cached_property
    def oracle(self) -> OracleResult:
        """Truths of the new intents plus the deployable maximum beside pre."""
        b = self._bundle
        candidates = {i: b.truths[i] for i in self.spec.new_intents}
        return max_conflict_free_subset(candidates, self.pre, b.intents, b.matrix, b.registry)

    @cached_property
    def ranking(self) -> tuple[str, tuple[DocChunk, ...]]:
        """The retrieval query a run of the scenario asks, and the bundle's corpus ranked for it."""
        text = query_text(self.intents, self._bundle.registry)
        return text, rank(self._bundle.knowledge, text)


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

    The knowledge corpus is read first, as a run reads it, so a file of it
    that is not UTF-8 text raises FixtureError naming the file."""
    bundle.knowledge
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
        result = bundle.setup(scenario.id).oracle
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
    """A fresh store over the bundle's corpus, embedded once per bundle.

    Each call gets its own chunk list and query memo, so documents added to
    one store never reach another. The store keeps no ranking: its first
    query ranks the corpus. run_scenario instead seeds its run's store with
    the scenario's ranking (ScenarioSetup.ranking), made once per bundle.
    """
    return VectorStore(chunks=bundle.knowledge)


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
    KeyError. The scenario's set-up is shared with its other runs
    (FixtureBundle.setup); the transport, memory buffer, knowledge store and
    the loop are the run's own.
    """
    setup = bundle.setup(scenario_id)
    run_mode = Mode(mode)
    chat = make_transport(transport, bundle, seed) if isinstance(transport, str) else transport
    oracle = setup.oracle
    memory = memory if memory is not None else MemoryBuffer()
    # The run's own store, starting from the ranking for the query its loop asks.
    store = VectorStore(bundle.knowledge, setup.ranking)

    ctx = RunContext(
        mode=run_mode,
        intents=setup.intents,
        pre=setup.pre,
        registry=bundle.registry,
        matrix=bundle.matrix,
        intent_catalog=bundle.intents,
        max_iterations=max_iterations,
        analogue_count=analogue_count,
    )
    outcome = orchestrate_batch(ctx, chat, memory, store, oracle)
    return _report_from_outcome(setup.spec, run_mode, chat, seed, oracle, outcome, max_iterations)


def _report_from_outcome(
    spec: ScenarioSpec,
    mode: Mode,
    transport: ChatTransport,
    seed: int,
    oracle: OracleResult,
    outcome: BatchOutcome,
    max_iterations: int,
) -> RunReport:
    best = outcome.best
    total = len(spec.new_intents)
    objective = oracle.objective_value
    return RunReport(
        scenario_id=spec.id,
        mode=mode.value,
        generation_accuracy=len(best.correct) / total if total else 1.0,
        deployment_success=(best.score.correct_deployed / objective) if objective else 1.0,
        iterations_to_synthesis=outcome.iterations_to_synthesis or max_iterations,
        iterations_to_deployment=outcome.iterations_to_deployment or max_iterations,
        converged=outcome.converged,
        seed=seed,
        transport=transport.describe(),
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
