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

from ranweave.agents import Mode, RunContext, run_reasoning
from ranweave.harness import make_transport, run_scenario
from ranweave.model import DeploymentState
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
