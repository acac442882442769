"""The bytes of every prompt the agents send, pinned by one sha256.

The digest covers every message of every request over bundled scenarios
1-4 in all five modes under mock-noisy seeds 0 and 1, plus one repair
re-prompt. Perception is asked only when the conflict graph holds a record:
no seed-0 run finds one, and four seed-1 runs do.
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
import random
import re
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

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
from ranweave.retrieval import DocChunk, chunk_spans
from ranweave.schemas import conflict_report, dump_doc, parse_policy_doc, pipeline_to_policy_doc
from ranweave.transport import PERCEPTION, REASONING, REFINEMENT, ChatTransport

from .helpers import policies_of_table, reconstruct, report_of_table, table_rows

PROMPT_DIGEST = "8c2ac6f8a9112690ef795378ed51b9ad3114b4a482ef4e9128d2393cd458c1c2"


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
    for seed in (0, 1):
        for scenario_id in (1, 2, 3, 4):
            for mode in Mode:
                noisy = make_transport("mock-noisy", bundle, seed=seed)
                recorder = RecordingTransport(noisy.complete)
                run_scenario(bundle, scenario_id, mode, recorder, seed=seed)
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
    assert {r.role for r in requests} == {PERCEPTION, REASONING, REFINEMENT}
    assert _digest(requests) == PROMPT_DIGEST


def _json(doc: object) -> str:
    return json.dumps(doc, separators=(",", ":"), sort_keys=True)


def _one_shot_policies(pipelines) -> str:
    """The reference: every policy serialized afresh in one table, a row per
    ref in ref order under the sorted keys of a policy document and "ref"."""
    if not pipelines:
        return "(none)"
    docs = [{"ref": ref, **pipeline_to_policy_doc(p)} for ref, p in sorted(pipelines.items())]
    columns = sorted(docs[0])
    return _json({"columns": columns, "rows": [[doc[key] for key in columns] for doc in docs]})


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
    renders no prompt; reading them afterwards renders every one. The run
    (scenario 4, seed 1) finds a conflict record once, so it asks all three
    roles; every reasoning request shows a report, the one perception gave
    or the empty one handed in its place."""
    rendered = Counter()

    def counting(render):
        def wrapper(obj):
            rendered[render.__name__] += 1
            return render(obj)

        return wrapper

    for name in ("_render_profiles", "_render_policy", "_render_report"):
        monkeypatch.setattr(agents, name, counting(getattr(agents, name)))
    recorder = RecordingTransport(make_transport("mock-noisy", bundle, seed=1).complete)
    run_scenario(bundle, 4, Mode.F5, recorder, seed=1)
    assert {r.role for r in recorder.requests} == {PERCEPTION, REASONING, REFINEMENT}
    assert sum(rendered.values()) == 0

    for request in recorder.requests:
        assert "## " in request.messages[1]["content"]
    assert rendered["_render_profiles"] == sum(r.role != "refinement" for r in recorder.requests)
    assert rendered["_render_report"] == sum(r.role == "reasoning" for r in recorder.requests)
    # One candidate block per intent a refinement request asks about, and one
    # line per analogue a reasoning request shows.
    analogues = sum(
        len(re.findall(r"^- intent \d+ \(.*\) -> \{", r.messages[1]["content"], re.MULTILINE))
        for r in recorder.requests
        if r.role == "reasoning"
    )
    assert analogues
    assert rendered["_render_policy"] == analogues + sum(
        len(r.payload["intents"]) for r in recorder.requests if r.role == "refinement"
    )


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
    proposed = _section(expected[1]["content"], "Candidate policies")
    assert list(policies_of_table(json.loads(proposed))) == ["1", "2"]


def _text(request) -> str:
    """A request as a prefix cache sees it: every message's content, in order."""
    return "".join(message["content"] for message in request.messages)


def _end_of(text: str, heading: str) -> int:
    """The offset just past the body of text's "## heading" section."""
    return text.index("\n\n## ", text.index(f"## {heading}\n"))


def _section(text: str, heading: str) -> str:
    """The body of text's "## heading" section."""
    start = text.index(f"## {heading}\n") + len(heading) + 4
    end = text.find("\n\n## ", start)
    return text[start:end] if end >= 0 else text[start:].removesuffix("\n")


def test_consecutive_prompts_of_a_role_share_the_run_stable_sections(bundle):
    """Each role's prompt opens with what stays the same for the run, so the
    prefix two consecutive requests of one role share, the part a provider's
    prefix cache does not bill in full, reaches past those sections. Each
    iteration sends one reasoning request, which asks about every unsolved
    intent, so consecutive reasoning requests come from consecutive
    iterations. The retrieved context of one request is a byte prefix of the
    next one's, as each iteration takes a longer prefix of one ranking.
    Perception is asked only when the conflict graph holds a record: the f5
    run below finds none and the nr run finds one in two iterations, so
    together they give consecutive requests of every role."""
    checked: Counter = Counter()
    for mode, seed in ((Mode.F5, 0), (Mode.NR, 2)):
        recorder = RecordingTransport(make_transport("mock-noisy", bundle, seed=seed).complete)
        run_scenario(bundle, 3, mode, recorder, seed=seed)  # two intents pre-deployed
        previous: dict[str, str] = {}
        for request in recorder.requests:
            assert len(request.messages) == 2  # the mock's answers need no repair
            text = _text(request)
            assert "pre:3" in policies_of_table(json.loads(_section(text, "Deployed policies")))
            if request.role in previous:
                last = previous[request.role]
                shared = len(os.path.commonprefix([last, text]))
                assert shared >= _end_of(text, "Deployed policies"), (mode, request.role)
                if request.role != REFINEMENT:
                    context = _section(text, "Retrieved context")
                    assert context.startswith(_section(last, "Retrieved context")), (mode, request.role)
                checked[request.role] += 1
            previous[request.role] = text
    assert set(checked) == {PERCEPTION, REASONING, REFINEMENT}


def test_compact_rendering_is_lossless(bundle, monkeypatch):
    """Every registry, policies and conflict-report body decodes back to
    exactly the documents it replaced."""
    snapshots: dict[str, list] = {}
    reports: dict[str, list] = {}
    render_policies, render_report = agents._render_policies, agents._render_report

    def recording(pipelines):
        body = render_policies(pipelines)
        snapshots.setdefault(body, []).append(pipelines)
        return body

    def recording_report(perception):
        body = render_report(perception)
        reports.setdefault(body, []).append(perception)
        return body

    monkeypatch.setattr(agents, "_render_policies", recording)
    monkeypatch.setattr(agents, "_render_report", recording_report)
    profiles = [p.to_dict() for p in bundle.registry]
    bodies = 0
    for request in _all_requests(bundle):
        lines = request.messages[1]["content"].split("\n")
        if request.role != "refinement":
            assert lines[0] == "## Registered xApps"
            assert table_rows(json.loads(lines[1])) == profiles
        for heading in ("## Deployed policies", "## Candidate policies"):
            body = lines[lines.index(heading) + 1]
            for pipelines in snapshots[body]:
                docs = {ref: pipeline_to_policy_doc(p) for ref, p in pipelines}
                assert (policies_of_table(json.loads(body)) if body != "(none)" else {}) == docs
            bodies += 1
    assert bodies > 200 and any(body != "(none)" for body in snapshots)
    for body, perceptions in reports.items():
        for perception in perceptions:
            assert report_of_table(json.loads(body)) == conflict_report(perception.records, perception.notes)
    assert any(json.loads(body)["conflicts"] for body in reports)


_LABEL = re.compile(r"\[([^:\]]+):(\d+)-(\d+)\] ")


def _pieces(context: str) -> list[DocChunk]:
    """The labelled pieces of a rendered retrieved context, read by their
    labels' lengths, so a text holding a newline or a bracket reads back."""
    pieces, at = [], 0
    while at < len(context):
        label = _LABEL.match(context, at)
        assert label, context[at : at + 40]
        doc_id, start, end = label[1], int(label[2]), int(label[3])
        assert start < end
        at = label.end() + end - start
        pieces.append(DocChunk(doc_id, start, end, context[label.end() : at], None))
        assert context.startswith("\n", at) or at == len(context)
        at += 1
    return pieces


@st.composite
def _rankings(draw):
    """Some documents of up to four chunks each, and their chunks in a drawn rank order."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    counts = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    # With chunks of 500 and overlaps of 50, one chunk covers 1-500
    # characters and n > 1 chunks cover 450n - 399 to 450n + 50.
    lengths = [draw(st.integers(1 if n == 1 else 450 * n - 399, 450 * n + 50)) for n in counts]
    texts = ["".join(rng.choices("ab\n[]:-", k=n)) for n in lengths]
    chunks = [
        DocChunk(f"doc{i}", start, end, text[start:end], None)
        for i, text in enumerate(texts)
        for start, end in chunk_spans(len(text))
    ]
    return {f"doc{i}": text for i, text in enumerate(texts)}, draw(st.permutations(chunks))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(corpus_ranking=_rankings(), data=st.data())
def test_retrieved_context_sends_each_character_once_and_grows_by_appending(corpus_ranking, data):
    """For k < k', the top-k rendering is a byte prefix of the top-k' one;
    every character the top-k' chunks hold is sent exactly once, at its
    labelled offset, and a document whose chunks all came back reads back
    whole through reconstruct."""
    corpus, ranking = corpus_ranking
    k_wide = data.draw(st.integers(1, len(ranking)))
    k = data.draw(st.integers(1, k_wide))
    wide = agents._render_chunks(ranking[:k_wide])
    assert wide.startswith(agents._render_chunks(ranking[:k]))

    sent: dict[str, list[DocChunk]] = {}
    for piece in _pieces(wide):
        assert piece.text == corpus[piece.doc_id][piece.start : piece.end]
        sent.setdefault(piece.doc_id, []).append(piece)
    retrieved = {(c.doc_id, i) for c in ranking[:k_wide] for i in range(c.start, c.end)}
    offsets = [(p.doc_id, i) for pieces in sent.values() for p in pieces for i in range(p.start, p.end)]
    assert len(offsets) == len(set(offsets)) and set(offsets) == retrieved
    taken = {(c.doc_id, c.start) for c in ranking[:k_wide]}
    for doc_id, pieces in sent.items():
        if all((c.doc_id, c.start) in taken for c in ranking if c.doc_id == doc_id):
            assert reconstruct(pieces) == corpus[doc_id]


def test_retrieved_context_trims_what_an_earlier_chunk_sent():
    """Rank order is kept; a chunk loses the characters an earlier chunk of
    its document sent, each piece left keeps its own offsets, and a chunk
    sent in full before is left out."""
    text = "0123456789"
    chunks = [DocChunk("d", start, end, text[start:end], None) for start, end in ((3, 8), (0, 10), (4, 6))]
    chunks.insert(1, DocChunk("e", 0, 2, "xy", None))
    assert agents._render_chunks(chunks) == "[d:3-8] 34567\n[e:0-2] xy\n[d:0-3] 012\n[d:8-10] 89"
