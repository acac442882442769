"""The three-role agent loop that turns an intent batch into deployments.

Each iteration runs perception (conflict analysis), reasoning (pipeline
synthesis per intent) and refinement (structural review), then picks the
deployable subset mechanically and scores the whole proposal. A harness-
enforced ratchet keeps the best solution seen so far, so the reported
score never regresses regardless of what the agents emit.

Baseline modes drop individual roles: SA is a single combined prompt, NR
skips refinement, NP skips perception, and FCFS keeps the full synthesis
but deploys greedily in intent order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from enum import Enum
from importlib import resources
from typing import AbstractSet, Callable, Mapping, Sequence, TypeVar

from .conflicts import (
    PRE_DEPLOYED_PREFIX,
    ConflictRecord,
    VendorCompatibilityMatrix,
    build_conflict_graph,
    evaluate_conflicts,
)
from .memory import MemoryBuffer, OutcomeRecord
from .model import (
    DeploymentState,
    Intent,
    Pipeline,
    Registry,
    pipelines_equal,
    validate_pipeline_structure,
)
from .planner import (
    OracleResult,
    SolutionScore,
    intent_sort_key,
    score_solution,
    select_subset,
)
from .retrieval import RetrievalUnavailableError, VectorStore
from .schemas import (
    PerceptionDoc,
    PolicyDoc,
    RefinementDoc,
    SchemaValidationError,
    parse_perception_doc,
    parse_policy_doc,
    parse_refinement_doc,
    pipeline_to_policy_doc,
)
from .transport import (
    PERCEPTION,
    REASONING,
    REFINEMENT,
    AgentRequest,
    ChatTransport,
    TransportError,
)

MAX_ITERATIONS = 50
DEFAULT_ANALOGUES = 3

T = TypeVar("T")


class Mode(str, Enum):
    F5 = "f5"
    SA = "sa"
    NR = "nr"
    NP = "np"
    FCFS = "fcfs"

    @property
    def uses_perception(self) -> bool:
        return self in (Mode.F5, Mode.NR, Mode.FCFS)

    @property
    def uses_refinement(self) -> bool:
        return self in (Mode.F5, Mode.NP, Mode.FCFS)


class AgentCallError(RuntimeError):
    """An agent call failed even after its single repair re-prompt."""


@dataclass
class RunContext:
    mode: Mode
    intents: tuple[Intent, ...]
    pre: DeploymentState
    registry: Registry
    matrix: VendorCompatibilityMatrix
    intent_catalog: Mapping[int | str, Intent]
    seed: int = 0
    max_iterations: int = MAX_ITERATIONS
    analogue_count: int = DEFAULT_ANALOGUES
    scenario_id: int | str | None = None


@dataclass(frozen=True)
class Solution:
    """One scored batch proposal, the unit the ratchet compares.

    correct holds the ids of the candidates is_correct_candidate accepts.
    """

    candidates: dict[int | str, Pipeline]
    deployed: frozenset[int | str]
    score: SolutionScore
    correct: frozenset[int | str] = frozenset()


@dataclass
class BatchOutcome:
    best: Solution
    score_history: list[SolutionScore] = field(default_factory=list)
    iterations_to_synthesis: int | None = None
    iterations_to_deployment: int | None = None
    iterations_run: int = 0
    converged: bool = False


def _read_template(name: str) -> str:
    return resources.files("ranweave").joinpath("prompts", name).read_text(encoding="utf-8")


PERCEPTION_TEMPLATE = _read_template("perception.txt")
REASONING_TEMPLATE = _read_template("reasoning.txt")
REFINEMENT_TEMPLATE = _read_template("refinement.txt")
SINGLE_AGENT_TEMPLATE = _read_template("single_agent.txt")


def _json(doc: object) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


def _render_profiles(registry: Registry) -> str:
    return _json([p.to_dict() for p in registry])


def _render_policies(pipelines: Mapping[str, Pipeline]) -> str:
    if not pipelines:
        return "(none)"
    return _json({ref: pipeline_to_policy_doc(p) for ref, p in sorted(pipelines.items())})


def _render_chunks(chunks) -> str:
    if not chunks:
        return "(no retrieved context)"
    return "\n".join(f"[{c.doc_id}:{c.start}-{c.end}] {c.text}" for c in chunks)


def _active_policies(ctx: RunContext, candidates: Mapping[int | str, Pipeline]) -> dict[str, Pipeline]:
    active = {f"{PRE_DEPLOYED_PREFIX}{p.intent_id}": p for p in ctx.pre}
    active.update({str(intent_id): p for intent_id, p in candidates.items()})
    return active


def _request(
    role: str, template: str, sections: Sequence[tuple[str, str]], payload: Mapping[str, object]
) -> AgentRequest:
    """The one builder of an agent request.

    The system message is the role's template; the user message is the
    ordered (heading, body) sections, each under a "## heading" line.
    """
    user = "\n\n".join(f"## {heading}\n{body}" for heading, body in sections) + "\n"
    return AgentRequest(
        role=role,
        messages=({"role": "system", "content": template}, {"role": "user", "content": user}),
        payload=payload,
    )


def assemble_perception_request(
    ctx: RunContext,
    candidates: Mapping[int | str, Pipeline],
    conflicts: Sequence[ConflictRecord],
    chunks,
) -> AgentRequest:
    sections = [
        ("Service intents", "\n".join(f"- intent {i.id}: {i.text}" for i in ctx.intents)),
        ("Registered xApps", _render_profiles(ctx.registry)),
        ("Active policies", _render_policies(_active_policies(ctx, candidates))),
        ("Retrieved context", _render_chunks(chunks)),
    ]
    return _request(PERCEPTION, PERCEPTION_TEMPLATE, sections, {"conflicts": tuple(conflicts)})


def assemble_reasoning_request(
    ctx: RunContext,
    intent: Intent,
    perception: PerceptionDoc | None,
    analogues,
    candidates: Mapping[int | str, Pipeline],
    chunks,
) -> AgentRequest:
    current = (
        f"intent {intent.id}: {intent.text}\n"
        f"Target KPIs: {json.dumps(intent.targets, sort_keys=True)}\n"
        f"Required capabilities: {sorted(intent.required_capabilities)}\n"
        f"Mandatory xApps: {sorted(intent.required_xapps) or '(none)'}"
    )
    others = {ref: p for ref, p in _active_policies(ctx, candidates).items() if ref != str(intent.id)}
    report = _json(perception.to_dict()) if perception is not None else "(no conflict report available)"
    past = "\n".join(
        f"- intent {i.id} ({i.text}) -> {json.dumps(pipeline_to_policy_doc(pipe), sort_keys=True)}"
        for i, pipe in analogues
    )
    sections = [
        ("Current intent", current),
        ("Registered xApps", _render_profiles(ctx.registry)),
        ("Active policies", _render_policies(others)),
        ("Conflict report", report),
        ("Past successes for similar intents", past or "(no prior successes)"),
        ("Retrieved context", _render_chunks(chunks)),
    ]
    template = SINGLE_AGENT_TEMPLATE if ctx.mode is Mode.SA else REASONING_TEMPLATE
    payload = {"intent": intent, "analogues": tuple(analogues), "perception_present": perception is not None}
    return _request(REASONING, template, sections, payload)


def assemble_refinement_request(
    ctx: RunContext, intent: Intent, candidate: Pipeline, summary: str,
    candidates: Mapping[int | str, Pipeline],
) -> AgentRequest:
    violations = validate_pipeline_structure(candidate, ctx.registry).violations
    sections = [
        (f"Candidate pipeline for intent {intent.id}", _json(pipeline_to_policy_doc(candidate))),
        ("Structural violations detected", "\n".join(f"- {v}" for v in violations) or "(none found)"),
        ("Recurrent failure patterns", summary),
        ("Deployment context", _render_policies(_active_policies(ctx, candidates))),
    ]
    return _request(REFINEMENT, REFINEMENT_TEMPLATE, sections, {"intent": intent, "candidate": candidate})


def _call_with_repair(
    transport: ChatTransport, request: AgentRequest, parser: Callable[[str], object]
) -> object:
    """One agent call with at most one schema-repair re-prompt."""
    text = transport.complete(request)
    try:
        return parser(text)
    except SchemaValidationError as first:
        errors = "\n".join(f"- {e}" for e in first.errors)
        feedback = (
            f"The previous response failed schema validation:\n{errors}\n"
            "Respond again with only the corrected JSON document."
        )
        messages = ({"role": "assistant", "content": text}, {"role": "user", "content": feedback})
        text = transport.complete(replace(request, messages=request.messages + messages))
        try:
            return parser(text)
        except SchemaValidationError as second:
            raise AgentCallError(
                f"{request.role} response failed validation twice: {'; '.join(second.errors)}"
            ) from second


def run_perception(
    ctx: RunContext,
    transport: ChatTransport,
    candidates: Mapping[int | str, Pipeline],
    conflicts: Sequence[ConflictRecord],
    chunks=(),
) -> PerceptionDoc:
    """One perception call; conflicts are the engine's records for candidates."""
    if not ctx.mode.uses_perception:
        raise ValueError(f"mode {ctx.mode.value} does not run the perception role")
    request = assemble_perception_request(ctx, candidates, conflicts, chunks)
    return _call_with_repair(transport, request, parse_perception_doc)


def run_reasoning(
    ctx: RunContext,
    intent: Intent,
    transport: ChatTransport,
    perception: PerceptionDoc | None,
    analogues,
    candidates: Mapping[int | str, Pipeline],
    chunks=(),
) -> PolicyDoc:
    request = assemble_reasoning_request(ctx, intent, perception, analogues, candidates, chunks)
    return _call_with_repair(transport, request, lambda text: parse_policy_doc(text, ctx.registry))


def run_refinement(
    ctx: RunContext,
    intent: Intent,
    candidate: Pipeline,
    summary: str,
    transport: ChatTransport,
    candidates: Mapping[int | str, Pipeline],
) -> RefinementDoc:
    if not ctx.mode.uses_refinement:
        raise ValueError(f"mode {ctx.mode.value} does not run the refinement role")
    request = assemble_refinement_request(ctx, intent, candidate, summary, candidates)
    return _call_with_repair(transport, request, lambda text: parse_refinement_doc(text, candidate))


def _attempt(call: Callable[..., T], *args) -> T | None:
    """One agent call; None when it fails (a transport error, or a response
    that failed validation even after its repair re-prompt)."""
    try:
        return call(*args)
    except (AgentCallError, TransportError):
        return None


def is_correct_candidate(pipeline: Pipeline, truth: Pipeline, registry: Registry) -> bool:
    """Structural validity plus reference equality.

    Equality alone is not enough: a duplicated node collapses to the same
    node set as the reference, so only structurally valid candidates may
    count as correct.
    """
    return validate_pipeline_structure(pipeline, registry).ok and pipelines_equal(pipeline, truth)


def enforce_monotonicity(previous_best: Solution | None, candidate: Solution) -> Solution:
    """Keep the candidate only when it is at least as good as the best so far.

    Applied mechanically by the harness; equal scores admit the candidate so
    lateral moves of equal quality stay possible.
    """
    if previous_best is None or candidate.score >= previous_best.score:
        return candidate
    return previous_best


def _select_deployment(
    ctx: RunContext,
    usable: Sequence[int | str],
    clashes: Mapping[int | str, set[int | str]],
    correct: AbstractSet[int | str],
) -> frozenset[int | str]:
    """Pick the deployed subset for this iteration's candidates.

    usable (in intent order) and clashes come from the iteration's
    evaluate_conflicts. FCFS deploys greedily in that order; every other
    mode takes the exact selector's answer.
    """
    if ctx.mode is Mode.FCFS:
        deployed: set[int | str] = set()
        for intent_id in usable:
            if not clashes[intent_id] & deployed:
                deployed.add(intent_id)
        return frozenset(deployed)
    return select_subset(usable, clashes, correct)


def orchestrate_batch(
    ctx: RunContext,
    transport: ChatTransport,
    memory: MemoryBuffer,
    store: VectorStore | None,
    oracle: OracleResult,
) -> BatchOutcome:
    """Run the bounded iteration loop for one intent batch.

    Per-intent agent calls are issued sequentially in ascending intent-id
    order, the merge order required for determinism.
    """
    memory.clear()
    truths = oracle.per_intent_truth
    objective = oracle.objective_value
    ordered = sorted(ctx.intents, key=lambda i: intent_sort_key(i.id))
    candidates: dict[int | str, Pipeline] = {}
    best: Solution | None = None
    outcome = BatchOutcome(best=Solution({}, frozenset(), SolutionScore(0, 0, 0, 0)))

    query_text = " ".join(i.text for i in ctx.intents) + " " + " ".join(ctx.registry.ids)
    # Perception reads the conflict graph of the candidates as the previous
    # iteration left them; before the first iteration, of the active set alone.
    graph = build_conflict_graph({}, ctx.pre, ctx.intent_catalog, ctx.matrix, ctx.registry)

    for iteration in range(1, ctx.max_iterations + 1):
        chunks = ()
        if store is not None and len(store):
            try:
                chunks = store.query(query_text, iteration)
            except RetrievalUnavailableError:
                pass  # an unreachable embedder leaves the iteration without context

        perception_doc: PerceptionDoc | None = None
        if ctx.mode.uses_perception:
            perception_doc = _attempt(run_perception, ctx, transport, candidates, graph.all_records(), chunks)
        # A failed perception call leaves the iteration without reasoning.
        iteration_aborted = ctx.mode.uses_perception and perception_doc is None

        attempted: dict[int | str, Pipeline] = {}
        for intent in () if iteration_aborted else ordered:
            analogues = memory.retrieve_analogues(intent, ctx.analogue_count)
            policy = _attempt(
                run_reasoning, ctx, intent, transport, perception_doc, analogues, candidates, chunks
            )
            if policy is None:
                continue
            candidate = policy.pipeline
            if ctx.mode.uses_refinement:
                summary = memory.failure_summary(intent)
                refined = _attempt(run_refinement, ctx, intent, candidate, summary, transport, candidates)
                if refined is not None:
                    candidate = refined.revised
            attempted[intent.id] = candidate
            candidates[intent.id] = candidate

        eligible = [
            i
            for i in sorted(candidates, key=intent_sort_key)
            if validate_pipeline_structure(candidates[i], ctx.registry).ok
        ]
        evaluation = evaluate_conflicts(
            candidates, eligible, ctx.pre, ctx.intent_catalog, ctx.matrix, ctx.registry
        )
        graph = evaluation.graph
        # Eligible candidates are structurally valid, so this is exactly the
        # set is_correct_candidate accepts.
        correct = frozenset(
            i for i in eligible if i in truths and pipelines_equal(candidates[i], truths[i])
        )
        deployed = _select_deployment(ctx, evaluation.usable, evaluation.clashes, correct)
        score = score_solution(candidates, deployed, correct, len(evaluation.records))
        current = Solution(dict(candidates), deployed, score, correct)
        best = enforce_monotonicity(best, current)
        outcome.score_history.append(best.score)

        for intent in ordered:
            if intent.id not in attempted:
                continue
            memory.add(
                intent,
                attempted[intent.id],
                OutcomeRecord(
                    deployed=intent.id in deployed,
                    correct=intent.id in correct,
                    conflicts=tuple(r for r in evaluation.records if str(intent.id) in r.refs()),
                    iteration=iteration,
                    score=score,
                ),
            )

        all_correct = all(i.id in correct for i in ctx.intents)
        if all_correct and outcome.iterations_to_synthesis is None:
            outcome.iterations_to_synthesis = iteration
        if score.correct_deployed >= objective and outcome.iterations_to_deployment is None:
            outcome.iterations_to_deployment = iteration

        outcome.iterations_run = iteration
        if all_correct and score.correct_deployed >= objective:
            outcome.converged = True
            break

    outcome.best = best if best is not None else outcome.best
    return outcome
