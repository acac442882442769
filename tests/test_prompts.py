"""The bytes of every prompt the agents send, pinned by one sha256.

The digest covers every message of every request over bundled scenarios
1-4 in all five modes under mock-noisy seed 0, plus one repair re-prompt.
Any change to a template, a section heading, the section order or a body's
rendering changes it. Such a change must be made on purpose: bump the
template's version line and record the new digest here.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from ranweave import agents
from ranweave.agents import (
    Mode,
    RenderMemo,
    RunContext,
    assemble_perception_request,
    assemble_refinement_request,
    run_reasoning,
)
from ranweave.harness import make_transport, run_scenario
from ranweave.model import DeploymentState, Pipeline
from ranweave.schemas import dump_doc, pipeline_to_policy_doc
from ranweave.transport import ChatTransport

PROMPT_DIGEST = "5ed9efdde2ec71ef5e71f7c1213c3e20c16d4acb6bc40f8db5f756037b506173"


class RecordingTransport(ChatTransport):
    """Keeps every request and answers with the given function."""

    def __init__(self, respond):
        super().__init__()
        self.respond = respond
        self.requests: list = []

    def _respond(self, request) -> str:
        self.requests.append(request)
        return self.respond(request)

    def describe(self) -> str:
        return "recording"


def _digest(requests) -> str:
    hasher = hashlib.sha256()
    for request in requests:
        hasher.update(json.dumps([request.role, list(request.messages)], sort_keys=True).encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()


def _all_requests(bundle) -> list:
    requests = []
    for scenario_id in (1, 2, 3, 4):
        for mode in Mode:
            noisy = make_transport("mock-noisy", bundle, seed=0)
            recorder = RecordingTransport(noisy.complete)
            run_scenario(bundle, scenario_id, mode, recorder, seed=0)
            requests.extend(recorder.requests)

    # One repair re-prompt: a malformed reasoning answer, then the reference.
    spec = bundle.scenarios[2]
    answers = iter(["not json", dump_doc(pipeline_to_policy_doc(bundle.truths[3]))])
    recorder = RecordingTransport(lambda request: next(answers))
    ctx = RunContext(
        mode=Mode.F5,
        intents=tuple(bundle.intents[i] for i in spec.new_intents),
        pre=DeploymentState(tuple(bundle.truths[i] for i in spec.pre_deployed_intents)),
        registry=bundle.registry,
        matrix=bundle.matrix,
        intent_catalog=bundle.intents,
        scenario_id=spec.id,
    )
    run_reasoning(ctx, bundle.intents[3], recorder, None, [], {})
    assert [len(r.messages) for r in recorder.requests] == [2, 4]
    requests.extend(recorder.requests)
    return requests


def test_prompt_bytes_are_pinned(bundle):
    requests = _all_requests(bundle)
    assert len(requests) > 100
    assert _digest(requests) == PROMPT_DIGEST


def _json(doc: object) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


def _one_shot_policies(pipelines) -> str:
    """The reference: every policy serialized afresh in one document."""
    if not pipelines:
        return "(none)"
    return _json({ref: pipeline_to_policy_doc(p) for ref, p in sorted(pipelines.items())})


def test_equal_pipelines_keep_their_own_bytes(bundle):
    """1, True and 1.0 compare (and hash) equal, so pipelines differing only
    there are equal; a value-keyed memo would show one rendering for all."""
    nodes = [("traffic_steering_a", {"steering_policy": "auto"})]
    as_int, as_bool, as_float = (Pipeline.build(3, nodes, (), {"max_load": v}) for v in (1, True, 1.0))
    assert as_int == as_bool == as_float
    ctx = RunContext(
        mode=Mode.F5,
        intents=(bundle.intents[3],),
        pre=DeploymentState((as_int,)),
        registry=bundle.registry,
        matrix=bundle.matrix,
        intent_catalog=bundle.intents,
    )
    active = {"pre:3": as_int, "3": as_bool}
    perception = assemble_perception_request(ctx, {3: as_bool}, (), ())
    refinement = assemble_refinement_request(ctx, bundle.intents[3], as_float, "(none)", {3: as_bool})

    expected = _one_shot_policies(active)
    assert '"max_load": 1\n' in expected and '"max_load": true\n' in expected
    assert f"## Active policies\n{expected}\n\n" in perception.messages[1]["content"]
    assert f"## Deployment context\n{expected}\n" in refinement.messages[1]["content"]
    candidate = _json(pipeline_to_policy_doc(as_float))
    assert '"max_load": 1.0\n' in candidate
    assert f"## Candidate pipeline for intent 3\n{candidate}\n\n" in refinement.messages[1]["content"]


# Characters the encoder escapes (non-ASCII too, under ensure_ascii), and any text.
_ESCAPED = ['"', "\\", "\n", "\t", "é", "→", "\U0001d11e", "a", " "]
_texts = st.text(st.sampled_from(_ESCAPED), max_size=6) | st.text(max_size=6)
_scalars = st.booleans() | st.integers() | st.floats(allow_nan=False) | _texts
_pipelines = st.builds(
    Pipeline.build,
    st.integers(-3, 40) | _texts,
    st.lists(st.tuples(_texts, st.dictionaries(_texts, _texts, max_size=2)), max_size=3),
    st.lists(st.tuples(_texts, _texts), max_size=3),
    st.dictionaries(_texts, _scalars | st.lists(_scalars, max_size=3), max_size=3),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(policies=st.dictionaries(_texts, _pipelines, max_size=5), extra=st.lists(_pipelines, max_size=2))
def test_memoized_rendering_equals_one_shot_json(policies, extra):
    memo = RenderMemo()
    # Render a sub-map first, so the full map reuses memoized entries.
    partial = dict(list(policies.items())[::2])
    assert agents._render_policies(memo, partial) == _one_shot_policies(partial)
    assert agents._render_policies(memo, policies) == _one_shot_policies(policies)
    for pipeline in [*policies.values(), *extra]:
        assert memo.text(pipeline, agents._render_policy) == _json(pipeline_to_policy_doc(pipeline))
    # A pipeline shown under two refs renders the same text under each.
    if extra:
        shared = {"a": extra[0], "b": extra[0]}
        assert agents._render_policies(memo, shared) == _one_shot_policies(shared)


def test_a_run_serializes_the_registry_once(bundle, monkeypatch):
    """Every prompt of an f5 run shows the registry; it is rendered once."""
    rendered = Counter()

    def counting(render):
        def wrapper(obj):
            rendered[render.__name__, id(obj)] += 1
            return render(obj)

        return wrapper

    for name in ("_render_profiles", "_render_policy", "_render_report"):
        monkeypatch.setattr(agents, name, counting(getattr(agents, name)))
    recorder = RecordingTransport(make_transport("mock-noisy", bundle, seed=0).complete)
    run_scenario(bundle, 1, Mode.F5, recorder, seed=0)

    shown = sum("## Registered xApps" in r.messages[1]["content"] for r in recorder.requests)
    assert shown >= 6
    profiles = {key: n for key, n in rendered.items() if key[0] == "_render_profiles"}
    assert profiles == {("_render_profiles", id(bundle.registry)): 1}
    assert set(rendered.values()) == {1}, "a pipeline or report was rendered twice"
