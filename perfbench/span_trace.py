"""Tracing of ranweave's layers, installed from outside the package.

The tracer replaces public functions and methods of the ``ranweave``
modules with wrappers that record one span per call: name, start, end and
parent span. It patches each function at the name its caller looks up: for
example ``agents.pairwise_conflicts`` and ``planner.pairwise_conflicts`` are
separate bindings of ``conflicts.pairwise_conflicts`` and are wrapped
separately, under one span name. Spans stay in memory until the pass ends
and are then folded into per-run self times and counts.

``PromptCounter`` measures what a hosted chat model would be sent. Reading
``AgentRequest.messages`` forces the prompts to be rendered, so it is only
installed in passes whose time is not reported as an end-to-end figure.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter, defaultdict

from ranweave import agents, conflicts, harness, memory, model, planner, retrieval, transport
from ranweave.agents import AgentCallError
from ranweave.transport import ChatTransport, TransportError

def common_prefix_len(a: str, b: str) -> int:
    """Length of the longest common prefix, by bisection over C-level compares."""
    lo, hi = 0, min(len(a), len(b))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a[:mid] == b[:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


class PromptCounter:
    """Agent calls, prompt characters and repairs, as a chat backend sees them.

    The uncached characters of a request are those beyond its longest
    common prefix with the previous request of the same role in the same
    run: what a provider with prefix caching bills in full.
    """

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.prompt_chars: Counter[str] = Counter()
        self.uncached_chars = 0
        self.response_chars = 0
        self.repairs = 0
        self.counting = True
        self._previous: dict[str, str] = {}

    @contextlib.contextmanager
    def run(self):
        """One benchmark operation: a request is compared only within it."""
        self._previous.clear()
        yield

    @contextlib.contextmanager
    def paused(self):
        """Let calls through uncounted, e.g. for the benchmark's own checks."""
        self.counting = False
        try:
            yield
        finally:
            self.counting = True

    def observe_request(self, request) -> None:
        text = "".join(message["content"] for message in request.messages)
        role = request.role
        self.calls[role] += 1
        self.prompt_chars[role] += len(text)
        self.uncached_chars += len(text) - common_prefix_len(self._previous.get(role, ""), text)
        self._previous[role] = text
        if any(message["role"] == "assistant" for message in request.messages):
            self.repairs += 1

    def observe_response(self, response) -> None:
        if isinstance(response, str):
            self.response_chars += len(response)

    @contextlib.contextmanager
    def installed(self):
        """Count every ``ChatTransport.complete`` call while the block runs."""
        original = ChatTransport.__dict__["complete"]

        @functools.wraps(original)
        def complete(transport_self, request):
            if not self.counting:
                return original(transport_self, request)
            self.observe_request(request)
            response = original(transport_self, request)
            self.observe_response(response)
            return response

        ChatTransport.complete = complete
        try:
            yield self
        finally:
            ChatTransport.complete = original


def _pipeline_pair(args, kwargs):
    return frozenset((args[0], args[1]))


def _first_arg(args, kwargs):
    return args[0]


# (owner, attribute, span name, key for the unique-call ratio). An owner is a
# module or a class; "*.embed" is named after the layer that called it.
BINDINGS = [
    (harness, "ground_truths", "harness.ground_truths", None),
    (harness, "build_knowledge_store", "harness.build_knowledge_store", None),
    (harness, "make_transport", "harness.make_transport", None),
    (harness, "load_fixtures", "harness.load_fixtures", None),
    (harness, "synthesize_ground_truth", "planner.synthesize_ground_truth", _first_arg),
    (planner, "synthesize_ground_truth", "planner.synthesize_ground_truth", _first_arg),
    (harness, "max_conflict_free_subset", "planner.max_conflict_free_subset", None),
    (planner, "max_conflict_free_subset", "planner.max_conflict_free_subset", None),
    (agents, "pairwise_conflicts", "conflicts.pairwise_conflicts", _pipeline_pair),
    (planner, "pairwise_conflicts", "conflicts.pairwise_conflicts", _pipeline_pair),
    (conflicts, "pairwise_conflicts", "conflicts.pairwise_conflicts", _pipeline_pair),
    (agents, "internal_conflicts", "conflicts.internal_conflicts", None),
    (planner, "internal_conflicts", "conflicts.internal_conflicts", None),
    (conflicts, "internal_conflicts", "conflicts.internal_conflicts", None),
    (agents, "build_conflict_graph", "conflicts.build_conflict_graph", None),
    (transport, "build_conflict_graph", "conflicts.build_conflict_graph", None),
    (conflicts, "build_conflict_graph", "conflicts.build_conflict_graph", None),
    (harness, "orchestrate_batch", "agents.orchestrate_batch", None),
    (agents, "orchestrate_batch", "agents.orchestrate_batch", None),
    (agents, "assemble_perception_request", "agents.render.perception", None),
    (agents, "assemble_reasoning_request", "agents.render.reasoning", None),
    (agents, "assemble_refinement_request", "agents.render.refinement", None),
    (agents, "_select_deployment", "agents.select_deployment", None),
    (agents, "_conflict_records_for_iteration", "agents.conflict_records", None),
    (agents, "_call_with_repair", "agents.call_with_repair", None),
    (ChatTransport, "complete", "transport.complete", None),
    (agents, "parse_perception_doc", "schemas.parse", None),
    (agents, "parse_policy_doc", "schemas.parse", None),
    (agents, "parse_refinement_doc", "schemas.parse", None),
    (memory.MemoryBuffer, "retrieve_analogues", "memory.retrieve_analogues", None),
    (memory.MemoryBuffer, "add", "memory.add", None),
    (memory.MemoryBuffer, "failure_summary", "memory.failure_summary", None),
    (retrieval, "embed", "*.embed", _first_arg),
    (retrieval.VectorStore, "add_directory", "retrieval.store_build", None),
    (retrieval.VectorStore, "query", "retrieval.query", None),
    (agents, "validate_pipeline_structure", "model.validate_pipeline_structure", None),
    (model, "validate_pipeline_structure", "model.validate_pipeline_structure", None),
    (agents, "pipelines_equal", "model.pipelines_equal", None),
    (planner, "pipelines_equal", "model.pipelines_equal", None),
]

ROOT = "bench.op"
# The tracer's own work inside a run: unique-call keys and prompt counting.
BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    """Spans of one pass, kept in memory and folded into metrics at its end."""

    def __init__(self) -> None:
        # (name, start, end, parent index or -1)
        self.spans: list[tuple[str, float, float, int]] = []
        self.runs = 0
        self.prompts = PromptCounter()
        self.outcomes: Counter[str] = Counter()
        self.unique: Counter[str] = Counter()
        self._keys: dict[str, set] = defaultdict(set)
        self._stack: list[int] = []
        self.recording = True

    # -- installing -------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding in BINDINGS while the block runs."""
        saved = []
        try:
            for owner, attribute, name, key in BINDINGS:
                original = owner.__dict__.get(attribute)
                if original is None:
                    print(f"trace: {owner.__name__}.{attribute} not found; "
                          f"its metrics read 0", file=sys.stderr)
                    continue
                saved.append((owner, attribute, original))
                setattr(owner, attribute, self._wrap(original, name, key))
            yield self
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)

    def _wrap(self, fn, name, key_fn):
        tracer = self
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            span_name = name
            if name == "*.embed":
                caller = spans[stack[-1]][0] if stack else ""
                span_name = "memory.embed" if caller.startswith("memory.") else "retrieval.embed"
            if key_fn is not None or span_name == "transport.complete":
                start = time.perf_counter()
                if key_fn is not None:
                    tracer._keys[span_name].add(key_fn(args, kwargs))
                if span_name == "transport.complete":
                    tracer.prompts.observe_request(args[1])
                spans.append((BOOKKEEPING, start, time.perf_counter(), stack[-1] if stack else -1))
            index = len(spans)
            spans.append((span_name, 0.0, 0.0, stack[-1] if stack else -1))
            stack.append(index)
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            except (AgentCallError, TransportError):
                if span_name == "agents.call_with_repair":
                    tracer.outcomes["agents.call_failed"] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (span_name, start, end, spans[index][3])
                if span_name == "schemas.parse" and ok:
                    tracer.outcomes["schemas.parse.ok"] += 1
                if span_name == "transport.complete" and ok:
                    start = time.perf_counter()
                    tracer.prompts.observe_response(result)
                    spans.append((BOOKKEEPING, start, time.perf_counter(), stack[-1] if stack else -1))

        return wrapper

    # -- runs -------------------------------------------------------------

    @contextlib.contextmanager
    def run(self):
        """Root span of one benchmark operation."""
        self._keys.clear()
        index = len(self.spans)
        self.spans.append((ROOT, 0.0, 0.0, -1))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            with self.prompts.run():
                yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (ROOT, start, end, -1)
            self.runs += 1
            for name, keys in self._keys.items():
                self.unique[name] += len(keys)

    @contextlib.contextmanager
    def paused(self):
        """Let calls through unrecorded, e.g. for the benchmark's own checks."""
        self.recording = False
        try:
            yield
        finally:
            self.recording = True

    # -- folding ----------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], Counter[str]]:
        """Seconds of self time and call count per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter[str] = Counter()
        for (name, start, end, _), inner in zip(self.spans, child):
            self_s[name] += (end - start) - inner
            calls[name] += 1
        return self_s, calls

    def check_spans(self) -> list[str]:
        """Spans that are not closed, outside a run, outside their parent's
        interval or shorter than their children; empty when all nest."""
        problems = []
        child = [0.0] * len(self.spans)
        for index, (name, start, end, parent) in enumerate(self.spans):
            if not 0.0 < start <= end:
                problems.append(f"span {index} ({name}) was never closed")
            if parent < 0:
                if name != ROOT:
                    problems.append(f"span {index} ({name}) was recorded outside a run")
                continue
            _, parent_start, parent_end, _ = self.spans[parent]
            if not parent_start <= start <= end <= parent_end:
                problems.append(f"span {index} ({name}) outlives its parent {parent}")
            child[parent] += end - start
        for index, ((name, start, end, _), inner) in enumerate(zip(self.spans, child)):
            if (end - start) - inner < -1e-9:
                problems.append(f"span {index} ({name}) has negative self time")
        return problems

    def root_seconds(self) -> float:
        return sum(end - start for name, start, end, parent in self.spans if parent < 0)
