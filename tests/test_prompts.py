"""The bytes of every prompt the agents send, pinned by one sha256.

The digest covers every message of every request over bundled scenarios
1-4 in all five modes under mock-noisy seed 0, plus one repair re-prompt.
Any change to a template, a section heading, the section order or a body's
rendering changes it. Such a change must be made on purpose: bump the
template's version line and record the new digest here.

Messages render on their first read. _digest reads every request only after
its run has ended, so the digest also guards that rendering late gives the
bytes rendering at assembly would have given.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter

from ranweave import agents
from ranweave.agents import (
    Mode,
    RunContext,
    assemble_perception_request,
    assemble_reasoning_request,
    assemble_refinement_request,
)
from ranweave.harness import make_transport, run_scenario
from ranweave.model import DeploymentState, Pipeline
from ranweave.schemas import dump_doc, parse_policy_doc, pipeline_to_policy_doc
from ranweave.transport import PERCEPTION, REASONING, ChatTransport

PROMPT_DIGEST = "fc849760652a722a7186bf7e90af505d5c2d14e06ee72736acca74eaa73281b5"


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
    answers = iter(["not json", dump_doc({"3": pipeline_to_policy_doc(bundle.truths[3])})])
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
    request = assemble_reasoning_request(ctx, [(bundle.intents[3], ())], None, {}, ())
    agents._call_with_repair(recorder, request, lambda text: parse_policy_doc(text, bundle.registry, [3]))
    assert [len(r.messages) for r in recorder.requests] == [2, 4]
    requests.extend(recorder.requests)
    return requests


def test_prompt_bytes_are_pinned(bundle):
    requests = _all_requests(bundle)
    assert len(requests) > 100
    assert _digest(requests) == PROMPT_DIGEST


def _json(doc: object) -> str:
    return json.dumps(doc, separators=(",", ":"), sort_keys=True)


def _one_shot_policies(pipelines) -> str:
    """The reference: every policy serialized afresh in one document."""
    if not pipelines:
        return "(none)"
    return _json({ref: pipeline_to_policy_doc(p) for ref, p in sorted(pipelines.items())})


def test_equal_pipelines_keep_their_own_bytes(bundle):
    """1, True and 1.0 compare (and hash) equal as Python values, but the
    pipelines holding them hold three condition texts and are distinct; each
    prompt shows the bytes of the pipeline it names."""
    nodes = [("traffic_steering_a", {"steering_policy": "auto"})]
    as_int, as_bool, as_float = (Pipeline.build(3, nodes, (), dump_doc({"max_load": v})) for v in (1, True, 1.0))
    assert len({as_int, as_bool, as_float}) == 3
    ctx = RunContext(
        mode=Mode.F5,
        intents=(bundle.intents[3],),
        pre=DeploymentState((as_int,)),
        registry=bundle.registry,
        matrix=bundle.matrix,
        intent_catalog=bundle.intents,
    )
    perception = assemble_perception_request(ctx, {3: as_bool}, (), ())
    refinement = assemble_refinement_request(ctx, [(bundle.intents[3], as_float, "(none)")], {3: as_bool})

    deployed = _one_shot_policies({"pre:3": as_int})
    proposed = _one_shot_policies({"3": as_bool})
    assert '"max_load":1}' in deployed and '"max_load":true}' in proposed
    for request in (perception, refinement):
        assert f"## Deployed policies\n{deployed}\n\n" in request.messages[1]["content"]
        assert f"## Candidate policies\n{proposed}\n" in request.messages[1]["content"]
    candidate = _json(pipeline_to_policy_doc(as_float))
    assert '"max_load":1.0}' in candidate
    assert f"## Candidate pipeline for intent 3\n{candidate}\n" in refinement.messages[1]["content"]


def test_a_mock_run_renders_no_prompt(bundle, monkeypatch):
    """The mocks read only the payload, so a run whose messages nobody reads
    renders no prompt; reading them afterwards renders every one."""
    rendered = Counter()

    def counting(render):
        def wrapper(obj):
            rendered[render.__name__] += 1
            return render(obj)

        return wrapper

    for name in ("_render_profiles", "_render_policy", "_render_report"):
        monkeypatch.setattr(agents, name, counting(getattr(agents, name)))
    recorder = RecordingTransport(make_transport("mock-noisy", bundle, seed=0).complete)
    run_scenario(bundle, 1, Mode.F5, recorder, seed=0)
    assert len(recorder.requests) >= 6
    assert sum(rendered.values()) == 0

    for request in recorder.requests:
        assert "## " in request.messages[1]["content"]
    assert rendered["_render_profiles"] == sum(r.role != "refinement" for r in recorder.requests)
    # One candidate block per intent a refinement request asks about.
    assert rendered["_render_policy"] == sum(len(r.payload["intents"]) for r in recorder.requests if r.role == "refinement")


def test_a_request_renders_its_inputs_as_they_were_at_assembly(bundle, truths):
    """The loop changes candidates in place after assembling a request; the
    request still shows the candidates it was assembled with."""
    ctx = RunContext(
        mode=Mode.F5,
        intents=tuple(bundle.intents[i] for i in (1, 2, 3)),
        pre=DeploymentState((truths[4],)),
        registry=bundle.registry,
        matrix=bundle.matrix,
        intent_catalog=bundle.intents,
    )
    candidates = {1: truths[1], 2: truths[2]}
    analogues = [(bundle.intents[5], truths[5])]
    asked = [(bundle.intents[3], analogues)]
    expected = assemble_reasoning_request(
        ctx, [(bundle.intents[3], list(analogues))], None, dict(candidates), ()
    ).messages

    request = assemble_reasoning_request(ctx, asked, None, candidates, ())
    candidates[1] = truths[6]
    candidates[7] = truths[7]
    del candidates[2]
    analogues.append((bundle.intents[6], truths[6]))
    asked.append((bundle.intents[2], []))
    assert request.messages == expected
    assert '"1":{' in expected[1]["content"] and '"7":{' not in expected[1]["content"]


def _text(request) -> str:
    """A request as a prefix cache sees it: every message's content, in order."""
    return "".join(message["content"] for message in request.messages)


def _end_of(text: str, heading: str) -> int:
    """The offset just past the body of text's "## heading" section."""
    return text.index("\n\n## ", text.index(f"## {heading}\n"))


def test_consecutive_prompts_of_a_role_share_the_run_stable_sections(bundle):
    """Each role's prompt opens with what stays the same for the run, so the
    prefix two consecutive requests of one role share, the part a provider's
    prefix cache does not bill in full, reaches past those sections. Each
    iteration sends one reasoning request, which asks about every unsolved
    intent, so no two reasoning requests of one iteration remain to share
    the conflict report."""
    recorder = RecordingTransport(make_transport("mock-noisy", bundle, seed=0).complete)
    run_scenario(bundle, 3, Mode.F5, recorder, seed=0)  # two intents pre-deployed
    checked: Counter = Counter()
    iteration, previous = 0, {}
    for request in recorder.requests:
        text = _text(request)
        assert '"pre:3":' in text
        if request.role == PERCEPTION and len(request.messages) == 2:
            iteration += 1
        if request.role in previous:
            last_iteration, last = previous[request.role]
            within = request.role == REASONING and last_iteration == iteration
            heading = "Conflict report" if within else "Deployed policies"
            shared = len(os.path.commonprefix([last, text]))
            assert shared >= _end_of(text, heading), (request.role, iteration, heading)
            checked[request.role, within] += 1
        previous[request.role] = (iteration, text)
    assert set(checked) == {("perception", False), ("refinement", False), ("reasoning", False)}


def test_compact_rendering_is_lossless(bundle, monkeypatch):
    """Every registry and policies body loads back to exactly what it renders."""
    snapshots: dict[str, list] = {}
    render_policies = agents._render_policies

    def recording(pipelines):
        body = render_policies(pipelines)
        snapshots.setdefault(body, []).append(pipelines)
        return body

    monkeypatch.setattr(agents, "_render_policies", recording)
    profiles = [p.to_dict() for p in bundle.registry]
    bodies = 0
    for request in _all_requests(bundle):
        lines = request.messages[1]["content"].split("\n")
        if request.role != "refinement":
            assert lines[0] == "## Registered xApps"
            assert json.loads(lines[1]) == profiles
        for heading in ("## Deployed policies", "## Candidate policies"):
            body = lines[lines.index(heading) + 1]
            for pipelines in snapshots[body]:
                docs = {ref: pipeline_to_policy_doc(p) for ref, p in pipelines}
                assert (json.loads(body) if body != "(none)" else {}) == docs
            bodies += 1
    assert bodies > 200 and any(body != "(none)" for body in snapshots)
