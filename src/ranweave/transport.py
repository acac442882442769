"""Chat transports: a real HTTP backend and two deterministic mocks.

Agent calls are expressed as an AgentRequest carrying both the rendered
chat messages (what a hosted model would see) and the structured context
behind them. The HTTP backend sends only the messages; the mock backends
are pure functions of the structured context, the seed and an internal
call counter, which makes every orchestration run reproducible.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Mapping

from .conflicts import ConflictKind, ConflictRecord, active_ref, candidate_ref
from .model import Intent, Pipeline, PipelineNode, Registry, default_directive, stage_chain
from .schemas import EditKind, RefinementDoc, conflict_report, dump_doc, pipeline_to_policy_doc

CHAT_BASE_URL_ENV = "RANWEAVE_CHAT_BASE_URL"
CHAT_MODEL_ENV = "RANWEAVE_CHAT_MODEL"
CHAT_API_KEY_ENV = "RANWEAVE_CHAT_API_KEY"

PERCEPTION = "perception"
REASONING = "reasoning"
REFINEMENT = "refinement"

# Raw per-intent success odds of the noisy reasoning mock. A structured
# conflict report in context raises them; the refinement pass later repairs
# structural (but not semantic) corruption.
NOISY_SUCCESS_WITH_PERCEPTION = 0.35
NOISY_SUCCESS_WITHOUT_PERCEPTION = 0.2
NOISY_STRUCTURAL_SHARE = 0.7


class TransportError(RuntimeError):
    """The backend could not produce a usable response."""


@dataclass
class AgentRequest:
    """One agent call. render builds the messages on their first read, so a
    mock, which reads only the payload, never renders them."""

    role: str
    render: Callable[[], tuple[dict[str, str], ...]]
    payload: Mapping[str, object] = field(default_factory=dict)

    @cached_property
    def messages(self) -> tuple[dict[str, str], ...]:
        return self.render()


class ChatTransport:
    """Base transport; subclasses implement _respond.

    calls holds one (role, subject) entry per complete() call: the asked
    intent ids, a tuple, of a reasoning or refinement request, and None of a
    perception request.
    """

    def __init__(self) -> None:
        self.calls: list[tuple[str, object]] = []

    def complete(self, request: AgentRequest) -> str:
        intents = request.payload.get("intents")
        self.calls.append((request.role, None if intents is None else tuple(intent.id for intent in intents)))
        return self._respond(request)

    def _respond(self, request: AgentRequest) -> str:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


class HttpChatTransport(ChatTransport):
    """Chat-completion-compatible JSON endpoint, configured via environment."""

    def __init__(
        self,
        base_url: str | None = None,
        model: str | None = None,
        api_key: str | None = None,
        timeout: float = 60.0,
    ):
        super().__init__()
        self.base_url = (base_url or os.environ.get(CHAT_BASE_URL_ENV, "")).rstrip("/")
        self.model = model or os.environ.get(CHAT_MODEL_ENV, "gpt-5")
        self.api_key = api_key or os.environ.get(CHAT_API_KEY_ENV, "")
        self.timeout = timeout
        if not self.base_url:
            raise TransportError(f"no chat endpoint configured; set {CHAT_BASE_URL_ENV}")

    def _respond(self, request: AgentRequest) -> str:
        """POST the messages and return the first choice's text.

        Every failure of the exchange, the content check included, raises
        TransportError("chat completion failed: ...").
        """
        # Imported here, not at module level: they pull in ssl and email, which
        # mock runs never need.
        import http.client
        import urllib.request

        payload = {"model": self.model, "messages": list(request.messages), "temperature": 0.0}
        headers = {"Content-Type": "application/json", "Authorization": f"Bearer {self.api_key}"}
        try:
            # Built inside the try: a base URL without a scheme raises ValueError here.
            http_request = urllib.request.Request(
                f"{self.base_url}/chat/completions", json.dumps(payload).encode("utf-8"), headers
            )
            with urllib.request.urlopen(http_request, timeout=self.timeout) as response:
                body = json.loads(response.read().decode("utf-8"))
            content = body["choices"][0]["message"]["content"]
            if not isinstance(content, str):
                raise TypeError(f"message content is {type(content).__name__}, not text")
            return content
        except (OSError, http.client.HTTPException, LookupError, TypeError, ValueError, RecursionError) as exc:
            # OSError covers URLError, HTTPError, timeouts and connection resets.
            raise TransportError(f"chat completion failed: {exc}") from exc

    def describe(self) -> str:
        return f"http(model={self.model})"


@dataclass(frozen=True)
class MockBundle:
    """Everything the mock backends need to act like a perfect operator."""

    registry: Registry
    intents: Mapping[int, Intent]
    matrix: object
    truths: Mapping[int, Pipeline]


class OracleTransport(ChatTransport):
    """Emits exactly what a flawless agent ensemble would emit.

    Perception serializes the engine's conflict records, reasoning
    returns the reference pipeline of each asked intent, refinement applies
    the deterministic structural repairs to each asked intent's candidate.
    """

    def __init__(self, bundle: MockBundle):
        super().__init__()
        self.bundle = bundle

    def _respond(self, request: AgentRequest) -> str:
        if request.role == PERCEPTION:
            return dump_doc(conflict_report(request.payload["conflicts"]))
        if request.role == REASONING:
            return _keyed_answer(request, lambda intent: pipeline_to_policy_doc(self.bundle.truths[intent.id]))
        if request.role == REFINEMENT:
            candidates: Mapping[int, Pipeline] = request.payload["candidates"]

            def revision(intent: Intent) -> dict[str, object]:
                revised, edits = refine_pipeline(candidates[intent.id], intent, self.bundle.registry)
                return RefinementDoc(revised, tuple(edits)).to_dict()

            return _keyed_answer(request, revision)
        raise TransportError(f"unknown agent role {request.role!r}")

    def describe(self) -> str:
        return "mock-oracle"


class NoisyTransport(OracleTransport):
    """Oracle behavior degraded by seeded, reproducible mistakes.

    Reasoning sometimes corrupts the reference pipeline (more often without
    a conflict report in context), with a fresh seeded draw per asked intent,
    in ascending id order; perception injects one spurious record, from one
    draw per call; refinement stays rule-based.
    Runs converge because the loop stops asking about an intent once its
    candidate is correct, so each success is kept.
    """

    def __init__(self, bundle: MockBundle, seed: int):
        super().__init__(bundle)
        self.seed = seed
        self._counter = 0

    def _rng(self) -> random.Random:
        self._counter += 1
        return random.Random(self.seed * 1_000_003 + self._counter)

    def _respond(self, request: AgentRequest) -> str:
        if request.role == PERCEPTION:
            records = (*request.payload["conflicts"], self._spurious(self._rng()))
            return dump_doc(conflict_report(records))
        if request.role == REASONING:
            success_odds = (
                NOISY_SUCCESS_WITH_PERCEPTION
                if request.payload.get("perception_present")
                else NOISY_SUCCESS_WITHOUT_PERCEPTION
            )
            return _keyed_answer(
                request, lambda intent: pipeline_to_policy_doc(self._noisy_pipeline(intent, success_odds))
            )
        return super()._respond(request)

    def _noisy_pipeline(self, intent: Intent, success_odds: float) -> Pipeline:
        rng = self._rng()
        truth = self.bundle.truths[intent.id]
        if rng.random() < success_odds:
            return truth
        if rng.random() < NOISY_STRUCTURAL_SHARE:
            corruption = rng.choice(("duplicate_node", "extra_xapp", "dropped_edge"))
        else:
            corruption = rng.choice(("replace_xapp", "mutate_directive"))
        return corrupt_pipeline(truth, corruption, self.bundle.registry, rng)

    def _spurious(self, rng: random.Random) -> ConflictRecord:
        xapp_id = rng.choice(self.bundle.registry.ids)
        refs = sorted(candidate_ref(i) for i in self.bundle.intents)
        ref_a = rng.choice(refs)
        ref_b = rng.choice([r for r in refs if r != ref_a] or [active_ref(0)])
        return ConflictRecord(
            kind=ConflictKind.ACTUATOR_CONTENTION,
            participants=frozenset({(ref_a, xapp_id), (ref_b, xapp_id)}),
            subject=xapp_id,
            explanation=f"speculative contention on {xapp_id} (low confidence)",
        )

    def describe(self) -> str:
        return f"mock-noisy(seed={self.seed})"


def _keyed_answer(request: AgentRequest, answer: Callable[[Intent], object]) -> str:
    """A reasoning or refinement response: answer's document for each asked
    intent, keyed by its id, worked out in ascending id order."""
    intents = sorted(request.payload["intents"], key=lambda intent: intent.id)
    return dump_doc({str(intent.id): answer(intent) for intent in intents})


def corrupt_pipeline(
    truth: Pipeline, corruption: str, registry: Registry, rng: random.Random
) -> Pipeline:
    """Apply one seeded defect to a reference pipeline."""
    nodes = [(n.xapp_id, n.directive_map) for n in truth.nodes]
    edges = set(truth.edges)

    if corruption == "dropped_edge" and not edges:
        corruption = "extra_xapp"

    if corruption == "duplicate_node":
        nodes.append(nodes[rng.randrange(len(nodes))])
    elif corruption == "extra_xapp":
        outside = [x for x in registry.ids if x not in truth.node_ids]
        if outside:
            extra = rng.choice(outside)
            nodes.append((extra, default_directive(registry[extra])))
    elif corruption == "dropped_edge":
        edges.discard(rng.choice(sorted(edges)))
    elif corruption == "replace_xapp":
        index = rng.randrange(len(nodes))
        outside = [x for x in registry.ids if x not in truth.node_ids]
        if outside:
            replacement = rng.choice(outside)
            nodes[index] = (replacement, default_directive(registry[replacement]))
            _, edges = stage_chain((x for x, _ in nodes), registry)
    elif corruption == "mutate_directive":
        index = rng.randrange(len(nodes))
        xapp_id, directive = nodes[index]
        directive = dict(directive)
        if directive:
            directive[sorted(directive)[0]] = "boost"
        else:
            directive["mode"] = "boost"
        nodes[index] = (xapp_id, directive)
    else:
        raise ValueError(f"unknown corruption {corruption!r}")

    return Pipeline.build(truth.intent_id, nodes, edges, truth.deployment_conditions)


def refine_pipeline(
    candidate: Pipeline, intent: Intent, registry: Registry
) -> tuple[Pipeline, list[tuple[EditKind, str]]]:
    """Deterministic structural review of a candidate pipeline.

    Removes duplicate nodes, drops xApps that contribute none of the
    intent's required capabilities (mandatory xApps stay), and orders and
    links the rest as model.stage_chain. Precondition: every xApp id of the
    candidate is registered; parse_policy_doc and parse_refinement_doc both
    reject any other, so every pipeline an agent returns meets it.
    """
    edits: list[tuple[EditKind, str]] = []

    deduped: dict[str, PipelineNode] = {}
    for node in candidate.nodes:
        if node.xapp_id in deduped:
            edits.append((EditKind.REMOVE_DUPLICATE, f"{node.xapp_id} was selected twice"))
            continue
        deduped[node.xapp_id] = node

    kept: dict[str, PipelineNode] = {}
    drop_edits: list[tuple[EditKind, str]] = []
    for xapp_id, node in deduped.items():
        if xapp_id not in intent.required_xapps and not (
            registry[xapp_id].capabilities & intent.required_capabilities
        ):
            drop_edits.append((EditKind.DROP_SUPERFLUOUS, f"{xapp_id} covers no required capability"))
            continue
        kept[xapp_id] = node
    if kept:
        edits.extend(drop_edits)
    else:
        # Refusing to empty the pipeline; keep the deduplicated nodes.
        kept = deduped

    ordered, chain = stage_chain(kept, registry)
    # Re-sorting the nodes into stage order is an edit even when the edges
    # already form the chain: the revised document differs from the input.
    if chain != candidate.edges or ordered != tuple(kept):
        edits.append((EditKind.REORDER_STAGE, "edges rebuilt as a stage-consistent chain"))

    revised = replace(candidate, nodes=tuple(kept[x] for x in ordered), edges=chain)
    return revised, edits
