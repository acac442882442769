"""The three-role agent loop that turns an intent batch into deployments.

Each iteration runs perception (conflict analysis), reasoning (pipeline
synthesis, one request for every unsolved intent) and refinement (structural
review, one request for every new candidate), then picks the deployable
subset mechanically and scores the whole proposal. A harness-enforced
ratchet keeps the best solution seen so far, so the reported score never
regresses regardless of what the agents emit.

Perception is shown only the records of the engine's conflict graph that
name a candidate of an intent reasoning is about to ask about, and is asked
only when one exists: no other record names a pipeline the loop will change.
Without one, a flawless answer is the empty report, which the loop hands
reasoning itself. Like the solved-intent skip, this gate reads the reference,
through the previous iteration's correct set.

The loop assembles each request and asks every role through _ask, so it alone
decides which roles a mode runs and what a failed call (None) falls back to.
Every prompt section is one form, a constant "## heading" over one JSON line
(_request). A list of same-shaped records is a header-once table, so a prompt
sends each key once, and retrieved chunks drop what was already sent.

Baseline modes drop individual roles: SA is a single combined prompt, NR
skips refinement, NP skips perception, and FCFS keeps the full synthesis
but deploys greedily in intent order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from importlib import resources
from typing import AbstractSet, Callable, Mapping, Sequence, TypeVar

from .conflicts import (
    ConflictRecord,
    VendorCompatibilityMatrix,
    build_conflict_graph,
    candidate_ref,
    evaluate_conflicts,
    labelled,
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
from .planner import OracleResult, SolutionScore, score_solution, select_subset
from .retrieval import VectorStore
from .schemas import (
    EntryDoc,
    PerceptionDoc,
    SchemaValidationError,
    dump_doc,
    parse_perception_doc,
    parse_policy_doc,
    parse_refinement_doc,
    pipeline_to_policy_doc,
    report_table,
    table_doc,
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


@dataclass(frozen=True)
class RunContext:
    """One run's inputs, fixed for the run. A cap below one iteration is
    refused. No package code sets or reads seed or scenario_id; they stay
    only because the benchmark driver, perfbench/run.py, passes them."""

    mode: Mode
    intents: tuple[Intent, ...]
    pre: DeploymentState
    registry: Registry
    matrix: VendorCompatibilityMatrix
    intent_catalog: Mapping[int, Intent]
    seed: int = 0
    max_iterations: int = MAX_ITERATIONS
    analogue_count: int = DEFAULT_ANALOGUES
    scenario_id: int | None = None

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be at least 1, got {self.max_iterations}")


@dataclass(frozen=True)
class Solution:
    """One scored batch proposal, the unit the ratchet compares.

    correct holds the ids of the candidates is_correct_candidate accepts.
    """

    candidates: dict[int, Pipeline]
    deployed: frozenset[int]
    score: SolutionScore
    correct: frozenset[int] = frozenset()


@dataclass
class BatchOutcome:
    best: Solution
    score_history: list[SolutionScore] = field(default_factory=list)
    iterations_to_synthesis: int | None = None
    iterations_to_deployment: int | None = None
    converged: bool = False


def _read_template(name: str) -> str:
    return resources.files("ranweave").joinpath("prompts", name).read_text(encoding="utf-8")


PERCEPTION_TEMPLATE = _read_template("perception.txt")
REASONING_TEMPLATE = _read_template("reasoning.txt")
REFINEMENT_TEMPLATE = _read_template("refinement.txt")
SINGLE_AGENT_TEMPLATE = _read_template("single_agent.txt")


def _render_profiles(registry: Registry) -> dict[str, object]:
    return table_doc([p.to_dict() for p in registry])


def _render_policies(pipelines: Sequence[tuple[str, Pipeline]]) -> dict[str, object]:
    return table_doc([{"ref": ref, **pipeline_to_policy_doc(p)} for ref, p in pipelines])


def _render_chunks(chunks) -> list[dict[str, object]]:
    """The retrieved context's rows: the chunks in rank order, each without
    the characters an earlier chunk of its document already sent; every
    piece left is a row with its own offsets, and a chunk sent in full
    before gives none. A longer prefix of the same ranking gives a longer
    list with these rows as its prefix."""
    sent: dict[str, list[tuple[int, int]]] = {}
    rows = []
    for chunk in chunks:
        pieces = [(chunk.start, chunk.end)]
        for a, b in sent.setdefault(chunk.doc_id, []):
            # What lies before a and after b of each piece is still unsent.
            pieces = [(x, y) for s, e in pieces for x, y in ((s, min(e, a)), (max(s, b), e)) if x < y]
        sent[chunk.doc_id].append((chunk.start, chunk.end))
        rows += (
            {"doc": chunk.doc_id, "start": s, "end": e, "text": chunk.text[s - chunk.start : e - chunk.start]}
            for s, e in pieces
        )
    return rows


def _request(
    role: str, template: str, sections: Callable[[], list[tuple[str, object]]], payload: Mapping[str, object]
) -> AgentRequest:
    """The one builder of an agent request, and the one encoder of a user message.

    The system message is the role's template; the user message is the
    ordered (heading, document) sections, each a constant "## heading" line
    over one dump_doc line, which escapes every line break, so no catalog
    text can start a line. Both render on the first read of messages; an
    assembler snapshots eagerly every input that could change before then.

    Sections run from the most stable to the least: those that stay the
    same for the whole run (registry, intents, deployed policies) come
    first, then those that change per iteration, and the per-call ones
    (candidates, the asked intents) last. A backend with a prefix cache
    then bills in full only the bytes after the prefix that consecutive
    requests of one role share.
    """

    def render() -> tuple[dict[str, str], ...]:
        user = "\n\n".join(f"## {heading}\n{dump_doc(doc)}" for heading, doc in sections()) + "\n"
        return ({"role": "system", "content": template}, {"role": "user", "content": user})

    return AgentRequest(role=role, render=render, payload=payload)


def assemble_perception_request(
    ctx: RunContext,
    candidates: Mapping[int, Pipeline],
    conflicts: Sequence[ConflictRecord],
    chunks,
    unsolved: AbstractSet[str],
) -> AgentRequest:
    """unsolved holds the refs of the intents reasoning is about to ask about;
    the last section lists those holding a candidate, the pipelines to check."""
    deployed, proposed = labelled({}, ctx.pre), labelled(candidates, DeploymentState())
    chunks = tuple(chunks)
    scope = [ref for ref, _ in proposed if ref in unsolved]

    def sections():
        return [
            ("Registered xApps", _render_profiles(ctx.registry)),
            ("Service intents", table_doc([{"id": i.id, "text": i.text} for i in ctx.intents])),
            ("Deployed policies", _render_policies(deployed)),
            ("Retrieved context", table_doc(_render_chunks(chunks))),
            ("Candidate policies", _render_policies(proposed)),
            ("Pipelines to check", scope),
        ]

    return _request(PERCEPTION, PERCEPTION_TEMPLATE, sections, {"conflicts": tuple(conflicts)})


def assemble_reasoning_request(
    ctx: RunContext,
    asked: Sequence[tuple[Intent, Sequence[tuple[Intent, Pipeline]]]],
    perception: PerceptionDoc | None,
    candidates: Mapping[int, Pipeline],
    chunks,
) -> AgentRequest:
    """One request for every asked intent: asked pairs each intent with its
    analogues, in the order of the answer's entries. The shared sections come
    once, the candidates among them as the previous iteration left them;
    one table of their analogues and one of the asked intents follow."""
    deployed, proposed = labelled({}, ctx.pre), labelled(candidates, DeploymentState())
    asked = tuple((intent, tuple(analogues)) for intent, analogues in asked)
    chunks = tuple(chunks)

    def sections():
        report = None if perception is None else report_table(perception.records, perception.notes)
        past = [
            {"for_intent": intent.id, "text": analogue.text, **pipeline_to_policy_doc(pipeline)}
            for intent, analogues in asked
            for analogue, pipeline in analogues
        ]
        intents = [
            {
                "id": i.id,
                "text": i.text,
                "target_kpis": i.targets,
                "required_capabilities": sorted(i.required_capabilities),
                "required_xapps": sorted(i.required_xapps),
            }
            for i, _ in asked
        ]
        return [
            ("Registered xApps", _render_profiles(ctx.registry)),
            ("Deployed policies", _render_policies(deployed)),
            ("Retrieved context", table_doc(_render_chunks(chunks))),
            ("Conflict report", report),
            ("Candidate policies", _render_policies(proposed)),
            ("Past successes", table_doc(past)),
            ("Asked intents", table_doc(intents)),
        ]

    template = SINGLE_AGENT_TEMPLATE if ctx.mode is Mode.SA else REASONING_TEMPLATE
    payload = {"intents": tuple(intent for intent, _ in asked), "perception_present": perception is not None}
    return _request(REASONING, template, sections, payload)


def assemble_refinement_request(
    ctx: RunContext,
    asked: Sequence[tuple[Intent, Pipeline, str]],
    candidates: Mapping[int, Pipeline],
) -> AgentRequest:
    """One request for every asked candidate: asked holds (intent, its
    candidate, its failure summary), in the order of the answer's entries.
    The shared sections come once, the candidates among them as the previous
    iteration left them; one table row per asked candidate follows."""
    # Eager: a render runs inside the transport's call, where no traced function may run.
    asked = tuple(
        (intent, candidate, summary, validate_pipeline_structure(candidate, ctx.registry))
        for intent, candidate, summary in asked
    )
    deployed, proposed = labelled({}, ctx.pre), labelled(candidates, DeploymentState())

    def sections():
        rows = [
            {**pipeline_to_policy_doc(p), "failure_patterns": summary, "violations": [str(v) for v in violations]}
            for _, p, summary, violations in asked
        ]
        return [
            ("Deployed policies", _render_policies(deployed)),
            ("Candidate policies", _render_policies(proposed)),
            ("Candidates to review", table_doc(rows)),
        ]

    payload = {
        "intents": tuple(intent for intent, *_ in asked),
        "candidates": {intent.id: candidate for intent, candidate, *_ in asked},
    }
    return _request(REFINEMENT, REFINEMENT_TEMPLATE, sections, payload)


def _call_with_repair(transport: ChatTransport, request: AgentRequest, parser: Callable[[str], T]) -> T:
    """One agent call with at most one schema-repair re-prompt.

    The parser raises SchemaValidationError for an answer that fails as a
    whole; the repair re-prompt then asks the request again. A keyed answer,
    of reasoning or refinement, is checked per intent instead (an EntryDoc):
    when some of its entries fail, the repair asks again about those intents
    alone, and the entries that passed are kept. An entry that fails twice
    stays in the answer's errors, so its intent gets no pipeline, or no
    revision; so do the failed entries when the repair itself fails in
    transport. A whole-answer repair that fails in transport raises
    TransportError.
    """
    text = transport.complete(request)
    try:
        answer = parser(text)
    except SchemaValidationError as first:
        kept, retry = None, request
        errors, wanted = first.errors, "only the corrected JSON document"
    else:
        if not (isinstance(answer, EntryDoc) and answer.errors):
            return answer
        kept = answer
        errors = [f"intent {i}: {e}" for i, found in kept.errors.items() for e in found]
        wanted = "only the corrected entries, as a JSON object keyed by intent id: " + ", ".join(map(str, kept.errors))
        failed = tuple(intent for intent in request.payload["intents"] if intent.id in kept.errors)
        retry = replace(request, payload={**request.payload, "intents": failed})
    listed = "\n".join(f"- {e}" for e in errors)
    feedback = f"The previous response failed schema validation:\n{listed}\nRespond again with {wanted}."
    turn = ({"role": "assistant", "content": text}, {"role": "user", "content": feedback})
    try:
        text = transport.complete(replace(retry, render=lambda: request.messages + turn))
    except TransportError:
        if kept is not None:
            return kept
        raise
    try:
        answer = parser(text)
    except SchemaValidationError as second:
        if kept is not None:
            return kept
        raise AgentCallError(
            f"{request.role} response failed validation twice: {'; '.join(second.errors)}"
        ) from second
    if kept is None:
        return answer
    # The repair was asked only about kept's failed intents; its other entries are not read.
    return EntryDoc(
        {**kept.entries, **{i: e for i, e in answer.entries.items() if i in kept.errors}},
        {i: found for i, found in answer.errors.items() if i in kept.errors},
    )


def _ask(transport: ChatTransport, request: AgentRequest, parser: Callable[[str], T]) -> T | None:
    """One agent call; None when it fails (a transport error, or a response
    that failed validation even after its repair re-prompt)."""
    try:
        return _call_with_repair(transport, request, parser)
    except (AgentCallError, TransportError):
        return None


def is_correct_candidate(pipeline: Pipeline, truth: Pipeline, registry: Registry) -> bool:
    """Structural validity (no violation) plus reference equality.

    Equality alone is not enough: a duplicated node collapses to the same
    node set as the reference, so only structurally valid candidates may
    count as correct.
    """
    return not validate_pipeline_structure(pipeline, registry) and pipelines_equal(pipeline, truth)


def enforce_monotonicity(previous_best: Solution | None, candidate: Solution) -> Solution:
    """Keep the candidate only when it is at least as good as the best so far.

    Applied mechanically by the harness; equal scores admit the candidate so
    lateral moves of equal quality stay possible.
    """
    if previous_best is None or candidate.score >= previous_best.score:
        return candidate
    return previous_best


def query_text(intents: Sequence[Intent], registry: Registry) -> str:
    """The one retrieval query of a batch: its intents' texts, then every registered xApp id."""
    return " ".join(i.text for i in intents) + " " + " ".join(registry.ids)


def _select_deployment(
    ctx: RunContext,
    usable: Sequence[int],
    clashes: Mapping[int, set[int]],
    correct: AbstractSet[int],
) -> frozenset[int]:
    """Pick the deployed subset for this iteration's candidates.

    usable (in intent order) and clashes come from the iteration's
    evaluate_conflicts. FCFS deploys greedily in that order; every other
    mode takes the exact selector's answer.
    """
    if ctx.mode is Mode.FCFS:
        deployed: set[int] = set()
        for intent_id in usable:
            if not clashes[intent_id] & deployed:
                deployed.add(intent_id)
        return frozenset(deployed)
    return select_subset(usable, clashes, correct)


def orchestrate_batch(
    ctx: RunContext,
    transport: ChatTransport,
    memory: MemoryBuffer,
    store: VectorStore,
    oracle: OracleResult,
) -> BatchOutcome:
    """Run the bounded iteration loop for one intent batch.

    Each iteration sends one reasoning request, which asks about every
    unsolved intent in ascending id order; the answer holds one entry per
    intent. The request shows the candidates as the previous iteration left
    them, so an intent no longer sees a candidate produced earlier in the
    same iteration. Under the mocks, which read no prompt, that changes
    prompt bytes only. Refinement then sends one request, which reviews
    every new candidate in the same order and shows the candidates as
    reasoning saw them; a candidate whose revision fails keeps its
    unrefined form.

    The loop asks reasoning and refinement only about unsolved intents: an
    intent in the previous iteration's correct set keeps its candidate, the
    same object, and gets no call and no new memory entry. A candidate
    changes only when its intent is asked about, so a solved intent stays
    solved. correct is worked out from the reference, as the ratchet, the
    memory labels and the stop rule read it; a skip keyed on what a backend
    sees alone (deployed and named by no conflict) would freeze candidates
    that are wrong but clean.

    Perception is shown the records of the conflict graph that name a
    candidate of an unsolved intent, one reasoning is about to ask about,
    and is asked only when one exists. Records among active pipelines
    alone, or naming only solved candidates, are left out: no pipeline they
    name will change, so their answer cannot help the next reasoning
    request. Without such a record reasoning gets PerceptionDoc(()), what a
    flawless answer about no record parses to, so it renders the same empty
    report table; before the first iteration no candidate exists, so
    perception is first asked in the second. The gate reads the previous
    iteration's correct set, so, like the solved-intent skip, it reads the
    reference.

    One ConflictMemo serves every conflict evaluation of the run. It keys
    its entries by pipeline value, so an answer equal to an earlier one or
    to a truth is not checked again. It starts as a copy of the oracle's
    memo, so the truths and the active set, already checked by the oracle,
    are not checked at all. The oracle must come from the run's own batch,
    as its truths and objective are read too: a ValueError refuses one
    whose truths cover another batch, or whose memo holds other intents,
    matrix, registry or active set than ctx's, before any call; an equal
    DeploymentState object is the same active set. A candidate's structure
    is checked once, when it is stored.

    Every iteration retrieves for one question, query_text of the batch. The
    store keeps the ranking of each text it is asked, so a store already
    asked it, as a bundle's store is by its scenario's earlier runs, ranks
    nothing; an empty store gives no chunks.
    """
    memo = oracle.memo
    if (set(oracle.per_intent_truth), memo.intents, memo.matrix, memo.registry, memo.pre) != (
        {i.id for i in ctx.intents}, ctx.intent_catalog, ctx.matrix, ctx.registry, ctx.pre
    ):
        raise ValueError("the oracle was built for another batch, intent catalog, matrix, registry or active set")
    memo = memo.copy()
    memory.clear()
    truths = oracle.per_intent_truth
    objective = oracle.objective_value
    ordered = sorted(ctx.intents, key=lambda i: i.id)
    candidates: dict[int, Pipeline] = {}
    valid: dict[int, bool] = {}  # intent id -> its candidate is structurally valid
    correct: frozenset[int] = frozenset()
    best: Solution | None = None
    score_history: list[SolutionScore] = []
    synthesis: int | None = None
    deployment: int | None = None

    query = query_text(ctx.intents, ctx.registry)
    # Perception reads the conflict graph of the candidates as the previous
    # iteration left them; before the first iteration, of the active set
    # alone, whose records name no candidate.
    graph = build_conflict_graph({}, memo)

    for iteration in range(1, ctx.max_iterations + 1):
        chunks = store.query(query, iteration)
        # correct is still the previous iteration's here.
        unsolved = [i for i in ordered if i.id not in correct]

        perception_doc: PerceptionDoc | None = None
        if ctx.mode.uses_perception:
            refs = {candidate_ref(i.id) for i in unsolved}
            records = [r for r in graph.all_records() if not refs.isdisjoint(r.refs())]
            if records:
                request = assemble_perception_request(ctx, candidates, records, chunks, refs)
                perception_doc = _ask(transport, request, parse_perception_doc)
            else:
                # What a flawless answer about no record parses to.
                perception_doc = PerceptionDoc(())
        # A failed perception call leaves the iteration without reasoning.
        iteration_aborted = ctx.mode.uses_perception and perception_doc is None

        asked = [] if iteration_aborted else unsolved
        answer: EntryDoc[Pipeline] | None = None
        if asked:
            request = assemble_reasoning_request(
                ctx,
                [(intent, memory.retrieve_analogues(intent, ctx.analogue_count)) for intent in asked],
                perception_doc,
                candidates,
                chunks,
            )
            ids = [intent.id for intent in asked]
            answer = _ask(transport, request, lambda text: parse_policy_doc(text, ctx.registry, ids))
        # In ascending intent order, the merge order required for determinism.
        pipelines = answer.entries if answer is not None else {}
        attempted = {intent.id: pipelines[intent.id] for intent in asked if intent.id in pipelines}
        if attempted and ctx.mode.uses_refinement:
            reviewed = [(i, attempted[i.id], memory.failure_summary(i)) for i in asked if i.id in attempted]
            request = assemble_refinement_request(ctx, reviewed, candidates)
            refined = _ask(transport, request, lambda text: parse_refinement_doc(text, attempted, ctx.registry))
            if refined is not None:
                attempted.update((intent_id, doc.revised) for intent_id, doc in refined.entries.items())
        for intent_id, candidate in attempted.items():
            candidates[intent_id] = candidate
            valid[intent_id] = not validate_pipeline_structure(candidate, ctx.registry)

        eligible = [i for i in sorted(candidates) if valid[i]]
        evaluation = evaluate_conflicts(candidates, eligible, memo)
        graph = evaluation.graph
        # Eligible candidates are structurally valid, so this is exactly the
        # set is_correct_candidate accepts.
        correct = frozenset(i for i in eligible if pipelines_equal(candidates[i], truths[i]))
        deployed = _select_deployment(ctx, evaluation.usable, evaluation.clashes, correct)
        score = score_solution(candidates, deployed, correct, len(evaluation.records))
        current = Solution(dict(candidates), deployed, score, correct)
        best = enforce_monotonicity(best, current)
        score_history.append(best.score)

        involving: dict[str, list[ConflictRecord]] = {}
        for record in evaluation.records:
            for ref in record.refs():
                involving.setdefault(ref, []).append(record)
        for intent in ordered:
            if intent.id not in attempted:
                continue
            memory.add(
                intent,
                attempted[intent.id],
                OutcomeRecord(
                    deployed=intent.id in deployed,
                    correct=intent.id in correct,
                    conflicts=tuple(involving.get(candidate_ref(intent.id), ())),
                ),
            )

        all_correct = all(i.id in correct for i in ctx.intents)
        if all_correct and synthesis is None:
            synthesis = iteration
        if score.correct_deployed >= objective and deployment is None:
            deployment = iteration
        converged = all_correct and score.correct_deployed >= objective
        if converged:
            break

    # RunContext refuses a cap below 1, so the loop ran: best and converged are set.
    return BatchOutcome(best, score_history, synthesis, deployment, converged)
