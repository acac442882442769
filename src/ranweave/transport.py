"""Chat transports: a real HTTP backend and two deterministic mocks.

Agent calls are expressed as an AgentRequest carrying both the rendered
chat messages (what a hosted model would see) and the structured context
behind them. The HTTP backend sends only the messages; the mock backends
are pure functions of the structured context, the seed and an internal
call counter, which makes every orchestration run reproducible.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import urllib.request
from dataclasses import dataclass, field
from typing import Mapping

from .conflicts import PRE_DEPLOYED_PREFIX, ConflictKind, ConflictRecord, conflict_report
from .model import Intent, Pipeline, Registry
from .planner import default_directive
from .schemas import EditKind, RefinementDoc, dump_doc, pipeline_to_policy_doc

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
    role: str
    messages: tuple[dict[str, str], ...]
    payload: Mapping[str, object] = field(default_factory=dict)


class ChatTransport:
    """Base transport; subclasses implement _respond."""

    def __init__(self) -> None:
        self.calls: list[tuple[str, object]] = []

    def complete(self, request: AgentRequest) -> str:
        intent = request.payload.get("intent")
        self.calls.append((request.role, getattr(intent, "id", None)))
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
        temperature: float = 0.0,
        timeout: float = 60.0,
    ):
        super().__init__()
        self.base_url = (base_url or os.environ.get(CHAT_BASE_URL_ENV, "")).rstrip("/")
        self.model = model or os.environ.get(CHAT_MODEL_ENV, "gpt-5")
        self.api_key = api_key or os.environ.get(CHAT_API_KEY_ENV, "")
        self.temperature = temperature
        self.timeout = timeout
        if not self.base_url:
            raise TransportError(f"no chat endpoint configured; set {CHAT_BASE_URL_ENV}")

    def _respond(self, request: AgentRequest) -> str:
        body = json.dumps(
            {
                "model": self.model,
                "messages": list(request.messages),
                "temperature": self.temperature,
            }
        ).encode("utf-8")
        http_request = urllib.request.Request(
            f"{self.base_url}/chat/completions",
            data=body,
            headers={
                "Content-Type": "application/json",
                "Authorization": f"Bearer {self.api_key}",
            },
        )
        try:
            with urllib.request.urlopen(http_request, timeout=self.timeout) as response:
                parsed = json.loads(response.read().decode("utf-8"))
            content = parsed["choices"][0]["message"]["content"]
        except (OSError, http.client.HTTPException, LookupError, TypeError, ValueError, RecursionError) as exc:
            # OSError covers URLError, timeouts and connection resets.
            raise TransportError(f"chat completion failed: {exc}") from exc
        if not isinstance(content, str):
            raise TransportError(
                f"chat completion failed: message content is {type(content).__name__}, not text"
            )
        return content

    def describe(self) -> str:
        return f"http(model={self.model})"


@dataclass(frozen=True)
class MockBundle:
    """Everything the mock backends need to act like a perfect operator."""

    registry: Registry
    intents: Mapping[int | str, Intent]
    matrix: object
    truths: Mapping[int | str, Pipeline]


class OracleTransport(ChatTransport):
    """Emits exactly what a flawless agent ensemble would emit.

    Perception serializes the engine's conflict records, reasoning
    returns the reference pipeline for the intent, refinement applies the
    deterministic structural repairs.
    """

    def __init__(self, bundle: MockBundle):
        super().__init__()
        self.bundle = bundle

    def _respond(self, request: AgentRequest) -> str:
        if request.role == PERCEPTION:
            return dump_doc(conflict_report(request.payload["conflicts"]))
        if request.role == REASONING:
            intent: Intent = request.payload["intent"]
            return dump_doc(pipeline_to_policy_doc(self.bundle.truths[intent.id]))
        if request.role == REFINEMENT:
            candidate: Pipeline = request.payload["candidate"]
            intent = request.payload["intent"]
            revised, edits = refine_pipeline(candidate, intent, self.bundle.registry)
            return dump_doc(RefinementDoc(revised, tuple(edits)).to_dict())
        raise TransportError(f"unknown agent role {request.role!r}")

    def describe(self) -> str:
        return "mock-oracle"


class NoisyTransport(OracleTransport):
    """Oracle behavior degraded by seeded, reproducible mistakes.

    Reasoning sometimes corrupts the reference pipeline (more often without
    a conflict report in context); perception injects one spurious record;
    refinement stays rule-based. Remembered successes for the same intent
    are reused verbatim, which is what makes runs converge.
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
            payload = conflict_report(request.payload["conflicts"])
            self._inject_spurious(payload, self._rng())
            return dump_doc(payload)
        if request.role == REASONING:
            return dump_doc(pipeline_to_policy_doc(self._noisy_pipeline(request)))
        return super()._respond(request)

    def _noisy_pipeline(self, request: AgentRequest) -> Pipeline:
        intent: Intent = request.payload["intent"]
        analogues = request.payload.get("analogues", ())
        for past_intent, past_pipeline in analogues:
            if past_intent.id == intent.id:
                return past_pipeline

        rng = self._rng()
        truth = self.bundle.truths[intent.id]
        success_odds = (
            NOISY_SUCCESS_WITH_PERCEPTION
            if request.payload.get("perception_present")
            else NOISY_SUCCESS_WITHOUT_PERCEPTION
        )
        if rng.random() < success_odds:
            return truth
        if rng.random() < NOISY_STRUCTURAL_SHARE:
            corruption = rng.choice(("duplicate_node", "extra_xapp", "dropped_edge"))
        else:
            corruption = rng.choice(("replace_xapp", "mutate_directive"))
        return corrupt_pipeline(truth, corruption, self.bundle.registry, rng)

    def _inject_spurious(self, payload: dict, rng: random.Random) -> None:
        xapp_id = rng.choice(self.bundle.registry.ids)
        refs = sorted(str(i) for i in self.bundle.intents)
        ref_a = rng.choice(refs)
        ref_b = rng.choice([r for r in refs if r != ref_a] or [f"{PRE_DEPLOYED_PREFIX}0"])
        spurious = ConflictRecord(
            kind=ConflictKind.ACTUATOR_CONTENTION,
            participants=frozenset({(ref_a, xapp_id), (ref_b, xapp_id)}),
            subject=xapp_id,
            explanation=f"speculative contention on {xapp_id} (low confidence)",
        )
        payload["conflicts"]["actuator"].append(spurious.to_dict())

    def describe(self) -> str:
        return f"mock-noisy(seed={self.seed})"


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
            ordered = sorted((x for x, _ in nodes), key=lambda x: (registry[x].stage, x))
            edges = {(ordered[i], ordered[i + 1]) for i in range(len(ordered) - 1)}
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

    return Pipeline.build(
        truth.intent_id, nodes, edges, dict(truth.deployment_conditions)
    )


def refine_pipeline(
    candidate: Pipeline, intent: Intent, registry: Registry
) -> tuple[Pipeline, list[tuple[EditKind, str]]]:
    """Deterministic structural review of a candidate pipeline.

    Removes duplicate nodes, drops registered xApps that contribute none of
    the intent's required capabilities (mandatory xApps stay), and rebuilds
    the edge set as the canonical stage-sorted chain when it deviates.
    """
    edits: list[tuple[EditKind, str]] = []

    deduped: list = []
    seen: set[str] = set()
    for node in candidate.nodes:
        if node.xapp_id in seen:
            edits.append((EditKind.REMOVE_DUPLICATE, f"{node.xapp_id} was selected twice"))
            continue
        seen.add(node.xapp_id)
        deduped.append(node)

    kept = []
    drop_edits: list[tuple[EditKind, str]] = []
    for node in deduped:
        profile = registry.get(node.xapp_id)
        if (
            profile is not None
            and node.xapp_id not in intent.required_xapps
            and not (profile.capabilities & intent.required_capabilities)
        ):
            drop_edits.append(
                (EditKind.DROP_SUPERFLUOUS, f"{node.xapp_id} covers no required capability")
            )
            continue
        kept.append(node)
    if kept:
        edits.extend(drop_edits)
    else:
        # Refusing to empty the pipeline; keep the deduplicated nodes.
        kept = deduped

    def stage_key(node) -> tuple[int, str]:
        profile = registry.get(node.xapp_id)
        return (int(profile.stage) if profile else 99, node.xapp_id)

    ordered = sorted(kept, key=stage_key)
    chain = frozenset(
        (ordered[i].xapp_id, ordered[i + 1].xapp_id) for i in range(len(ordered) - 1)
    )
    if chain != candidate.edges:
        edits.append((EditKind.REORDER_STAGE, "edges rebuilt as a stage-consistent chain"))

    revised = Pipeline(
        intent_id=candidate.intent_id,
        nodes=tuple(ordered),
        edges=chain,
        deployment_conditions=candidate.deployment_conditions,
    )
    return revised, edits
