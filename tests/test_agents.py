from __future__ import annotations

import json
from dataclasses import replace
from itertools import product

import pytest

from ranweave.agents import (
    AgentCallError,
    Mode,
    RunContext,
    Solution,
    enforce_monotonicity,
    is_correct_candidate,
    orchestrate_batch,
    run_perception,
    run_reasoning,
    run_refinement,
)
from ranweave import harness
from ranweave.harness import build_knowledge_store, run_scenario, scenario_oracle
from ranweave.memory import MemoryBuffer
from ranweave.model import DeploymentState, Pipeline, pipelines_equal
from ranweave.planner import SolutionScore
from ranweave.schemas import dump_doc, pipeline_to_policy_doc
from ranweave.transport import (
    ChatTransport,
    MockBundle,
    NoisyTransport,
    OracleTransport,
    corrupt_pipeline,
    refine_pipeline,
)


def _ctx(bundle, scenario_id: int, mode: Mode, truths, seed: int = 0) -> RunContext:
    spec = bundle.scenarios[scenario_id]
    return RunContext(
        mode=mode,
        intents=tuple(bundle.intents[i] for i in spec.new_intents),
        pre=DeploymentState(tuple(truths[i] for i in spec.pre_deployed_intents)),
        registry=bundle.registry,
        matrix=bundle.matrix,
        intent_catalog=bundle.intents,
        seed=seed,
        scenario_id=scenario_id,
    )


def _mock_bundle(bundle, truths) -> MockBundle:
    return MockBundle(
        registry=bundle.registry, intents=bundle.intents, matrix=bundle.matrix, truths=truths
    )


class ScriptedTransport(ChatTransport):
    """Replays canned responses; repeats the last one when exhausted."""

    def __init__(self, responses: list[str]):
        super().__init__()
        self.responses = list(responses)
        self.index = 0
        self.seen_messages: list[tuple[dict, ...]] = []
        self.requests: list = []

    def _respond(self, request) -> str:
        self.seen_messages.append(tuple(request.messages))
        self.requests.append(request)
        response = self.responses[min(self.index, len(self.responses) - 1)]
        self.index += 1
        return response

    def describe(self) -> str:
        return "scripted"


class UnregisteredPipelineTransport(ChatTransport):
    """Always emits a policy naming an xApp the registry does not know."""

    def _respond(self, request) -> str:
        return dump_doc(pipeline_to_policy_doc(Pipeline.build(0, [("phantom_xapp", {})])))

    def describe(self) -> str:
        return "mock-invalid"


def test_oracle_perception_equals_engine_serialization(bundle, truths):
    ctx = _ctx(bundle, 1, Mode.F5, truths)
    transport = OracleTransport(_mock_bundle(bundle, truths))
    doc = run_perception(ctx, transport, candidates={}, conflicts=())
    assert doc.records == ()

    from ranweave.conflicts import build_conflict_graph

    contending = Pipeline.build(
        4,
        [("wireless_anomaly_detector", {}), ("traffic_steering_a", {"steering_policy": "latency"})],
        [("wireless_anomaly_detector", "traffic_steering_a")],
    )
    candidates = {3: truths[3], 4: contending, 1: truths[1]}
    graph = build_conflict_graph(candidates, ctx.pre, bundle.intents, bundle.matrix, bundle.registry)
    doc = run_perception(ctx, transport, candidates=candidates, conflicts=graph.all_records())
    assert graph.all_records(), "fixture pair should conflict"
    assert [r.to_dict() for r in doc.records] == [r.to_dict() for r in graph.all_records()]


def test_oracle_reasoning_emits_ground_truth(bundle, truths):
    ctx = _ctx(bundle, 1, Mode.F5, truths)
    transport = OracleTransport(_mock_bundle(bundle, truths))
    policy = run_reasoning(ctx, bundle.intents[3], transport, None, [], {})
    assert policy.pipeline == truths[3]


def test_perception_refused_in_sa_and_np(bundle, truths):
    transport = OracleTransport(_mock_bundle(bundle, truths))
    for mode in (Mode.SA, Mode.NP):
        ctx = _ctx(bundle, 1, mode, truths)
        with pytest.raises(ValueError, match="perception"):
            run_perception(ctx, transport, candidates={}, conflicts=())


def test_refinement_refused_in_nr(bundle, truths):
    ctx = _ctx(bundle, 1, Mode.NR, truths)
    transport = OracleTransport(_mock_bundle(bundle, truths))
    with pytest.raises(ValueError, match="refinement"):
        run_refinement(ctx, bundle.intents[3], truths[3], "none", transport, {})


def test_refinement_removes_duplicate(bundle, truths):
    candidate = Pipeline.build(
        2, [("power_saving_controller", {"sleep_schedule": "auto", "tx_power": "auto"})] * 2
    )
    revised, edits = refine_pipeline(candidate, bundle.intents[2], bundle.registry)
    assert revised == truths[2]
    assert [kind.value for kind, _ in edits] == ["remove_duplicate"]


def test_refinement_drops_superfluous_anomaly_detector_for_intent_2(bundle, truths):
    candidate = Pipeline.build(
        2,
        [
            ("power_saving_controller", {"sleep_schedule": "auto", "tx_power": "auto"}),
            ("wireless_anomaly_detector", {}),
        ],
    )
    revised, edits = refine_pipeline(candidate, bundle.intents[2], bundle.registry)
    assert revised == truths[2]
    assert "drop_superfluous" in [kind.value for kind, _ in edits]


def test_refinement_reorders_stage_violating_edges(bundle, truths):
    candidate = Pipeline.build(
        1,
        [("mobility_predictor", {}), ("traffic_steering_a", {"handover_params": "auto", "steering_policy": "auto"})],
        [("traffic_steering_a", "mobility_predictor")],
    )
    revised, edits = refine_pipeline(candidate, bundle.intents[1], bundle.registry)
    assert revised == truths[1]
    assert "reorder_stage" in [kind.value for kind, _ in edits]


def test_refinement_leaves_ground_truth_untouched(bundle, truths):
    revised, edits = refine_pipeline(truths[1], bundle.intents[1], bundle.registry)
    assert revised == truths[1]
    assert edits == []


def test_repair_reprompt_recovers_from_malformed_json(bundle, truths):
    good = dump_doc(pipeline_to_policy_doc(truths[3]))
    transport = ScriptedTransport(["this is not json", good])
    ctx = _ctx(bundle, 1, Mode.NR, truths)
    policy = run_reasoning(ctx, bundle.intents[3], transport, None, [], {})
    assert policy.pipeline == truths[3]
    assert len(transport.calls) == 2


def test_repair_reprompt_happens_at_most_once(bundle, truths):
    transport = ScriptedTransport(["nope", "still nope"])
    ctx = _ctx(bundle, 1, Mode.NR, truths)
    with pytest.raises(AgentCallError):
        run_reasoning(ctx, bundle.intents[3], transport, None, [], {})
    assert len(transport.calls) == 2


def test_repair_reprompt_on_unknown_xapp_id(bundle, truths):
    bad = dump_doc(pipeline_to_policy_doc(Pipeline.build(3, [("phantom_xapp", {})])))
    good = dump_doc(pipeline_to_policy_doc(truths[3]))
    transport = ScriptedTransport([bad, good])
    ctx = _ctx(bundle, 1, Mode.NR, truths)
    policy = run_reasoning(ctx, bundle.intents[3], transport, None, [], {})
    assert policy.pipeline == truths[3]
    assert len(transport.calls) == 2
    # The repair prompt must carry the validation errors back to the model.
    repair_user_message = transport.seen_messages[1][-1]
    assert repair_user_message["role"] == "user"
    assert "unregistered" in repair_user_message["content"]


def test_enforce_monotonicity_rules():
    better = Solution({}, frozenset(), SolutionScore(3, 3, 0, -6))
    worse = Solution({}, frozenset(), SolutionScore(2, 3, -1, -6))
    equal = Solution({}, frozenset(), SolutionScore(3, 3, 0, -6))
    assert enforce_monotonicity(worse, better) is better
    assert enforce_monotonicity(better, worse) is better
    assert enforce_monotonicity(better, equal) is equal
    assert enforce_monotonicity(None, worse) is worse


def _call_roles(bundle, truths, mode: Mode) -> list[str]:
    transport = OracleTransport(_mock_bundle(bundle, truths))
    ctx = _ctx(bundle, 1, mode, truths)
    memory = MemoryBuffer()
    oracle = scenario_oracle(bundle, bundle.scenarios[1])
    orchestrate_batch(ctx, transport, memory, None, oracle)
    return [role for role, _ in transport.calls]


def test_mode_algebra_call_traces(bundle, truths):
    assert _call_roles(bundle, truths, Mode.F5) == [
        "perception", "reasoning", "refinement", "reasoning", "refinement",
    ]
    assert _call_roles(bundle, truths, Mode.SA) == ["reasoning", "reasoning"]
    assert _call_roles(bundle, truths, Mode.NR) == ["perception", "reasoning", "reasoning"]
    assert _call_roles(bundle, truths, Mode.NP) == [
        "reasoning", "refinement", "reasoning", "refinement",
    ]
    assert _call_roles(bundle, truths, Mode.FCFS) == [
        "perception", "reasoning", "refinement", "reasoning", "refinement",
    ]


def test_oracle_transport_converges_in_one_iteration_every_mode(bundle, truths):
    oracle = scenario_oracle(bundle, bundle.scenarios[2])
    for mode in Mode:
        ctx = _ctx(bundle, 2, mode, truths)
        transport = OracleTransport(_mock_bundle(bundle, truths))
        outcome = orchestrate_batch(ctx, transport, MemoryBuffer(), None, oracle)
        assert outcome.converged
        assert outcome.iterations_to_synthesis == 1
        assert outcome.iterations_to_deployment == 1


def test_orchestrate_clears_memory_at_start(bundle, truths):
    from ranweave.memory import OutcomeRecord

    memory = MemoryBuffer()
    memory.add(
        bundle.intents[1],
        truths[1],
        OutcomeRecord(
            deployed=True, correct=True, conflicts=(), iteration=1, score=SolutionScore(0, 0, 0, 0)
        ),
    )
    ctx = _ctx(bundle, 1, Mode.F5, truths)
    oracle = scenario_oracle(bundle, bundle.scenarios[1])
    orchestrate_batch(ctx, OracleTransport(_mock_bundle(bundle, truths)), memory, None, oracle)
    assert all(entry.outcome.iteration >= 1 for entry in memory.entries)
    assert all(entry.intent.id in (3, 4) for entry in memory.entries)


def test_iteration_cap_with_always_invalid_pipelines(bundle, truths):
    ctx = _ctx(bundle, 1, Mode.NP, truths)
    ctx.max_iterations = 50
    oracle = scenario_oracle(bundle, bundle.scenarios[1])
    outcome = orchestrate_batch(
        ctx, UnregisteredPipelineTransport(), MemoryBuffer(), None, oracle
    )
    assert not outcome.converged
    assert outcome.iterations_run == 50
    assert outcome.iterations_to_synthesis is None
    assert outcome.iterations_to_deployment is None


def test_noisy_transport_is_reproducible(bundle, truths):
    mock = _mock_bundle(bundle, truths)
    first = NoisyTransport(mock, seed=7)
    second = NoisyTransport(mock, seed=7)
    request_payload = {"intent": bundle.intents[1], "analogues": (), "perception_present": False}
    from ranweave.transport import AgentRequest

    r1 = first.complete(AgentRequest(role="reasoning", messages=(), payload=request_payload))
    r2 = second.complete(AgentRequest(role="reasoning", messages=(), payload=request_payload))
    assert r1 == r2
    different_seed = NoisyTransport(mock, seed=8)
    r3 = different_seed.complete(AgentRequest(role="reasoning", messages=(), payload=request_payload))
    assert isinstance(r3, str)


def test_noisy_perception_injects_spurious_conflict(bundle, truths):
    from ranweave.transport import AgentRequest

    transport = NoisyTransport(_mock_bundle(bundle, truths), seed=7)
    text = transport.complete(
        AgentRequest(
            role="perception",
            messages=(),
            payload={"conflicts": ()},
        )
    )
    payload = json.loads(text)
    total = sum(len(v) for v in payload["conflicts"].values())
    assert total >= 1


def test_noisy_reasoning_reuses_remembered_success(bundle, truths):
    from ranweave.transport import AgentRequest

    transport = NoisyTransport(_mock_bundle(bundle, truths), seed=3)
    analogue = (bundle.intents[1], truths[1])
    text = transport.complete(
        AgentRequest(
            role="reasoning",
            messages=(),
            payload={"intent": bundle.intents[1], "analogues": (analogue,), "perception_present": False},
        )
    )
    assert json.loads(text) == pipeline_to_policy_doc(truths[1])


def test_corrupt_pipeline_variants_differ_from_truth(bundle, truths):
    import random as random_module

    rng = random_module.Random(5)
    for corruption in ("duplicate_node", "extra_xapp", "dropped_edge", "replace_xapp", "mutate_directive"):
        mutated = corrupt_pipeline(truths[1], corruption, bundle.registry, rng)
        assert pipeline_to_policy_doc(mutated) != pipeline_to_policy_doc(truths[1])


def test_noisy_f5_score_history_is_nondecreasing(bundle, truths):
    report = run_scenario(bundle, 3, Mode.F5, "mock-noisy", seed=11)
    history = report.score_history
    assert history == sorted(history)


def test_paired_seed_single_agent_never_beats_full_loop(bundle):
    for scenario_id in (1, 4):
        for seed in (3, 9, 14):
            f5 = run_scenario(bundle, scenario_id, Mode.F5, "mock-noisy", seed=seed)
            sa = run_scenario(bundle, scenario_id, Mode.SA, "mock-noisy", seed=seed)
            assert sa.iterations_to_deployment >= f5.iterations_to_deployment


def test_reports_read_the_iteration_correct_set(bundle, truths, monkeypatch):
    """Accuracy and the score against the per-pipeline recount they replaced."""
    outcomes = []

    def recording(*args):
        outcomes.append(orchestrate_batch(*args))
        return outcomes[-1]

    monkeypatch.setattr(harness, "orchestrate_batch", recording)
    for scenario_id, mode, seed in product(sorted(bundle.scenarios), Mode, (1, 2, 3)):
        report = run_scenario(bundle, scenario_id, mode, "mock-noisy", seed=seed)
        best = outcomes.pop().best
        new = bundle.scenarios[scenario_id].new_intents
        recount = {
            i
            for i in new
            if i in best.candidates and is_correct_candidate(best.candidates[i], truths[i], bundle.registry)
        }
        assert best.correct == recount
        assert report.generation_accuracy == len(recount) / len(new)
        assert best.score.correct_deployed == len(best.deployed & best.correct)
        assert best.score.correct_deployed == sum(
            pipelines_equal(best.candidates[i], truths[i]) for i in best.deployed
        )


def test_transport_outage_counts_as_failed_attempt(bundle, truths):
    class FlakyTransport(OracleTransport):
        def __init__(self, mock, fail_first: int):
            super().__init__(mock)
            self.remaining_failures = fail_first

        def _respond(self, request):
            if self.remaining_failures > 0:
                self.remaining_failures -= 1
                from ranweave.transport import TransportError

                raise TransportError("backend unavailable")
            return super()._respond(request)

    transport = FlakyTransport(_mock_bundle(bundle, truths), fail_first=3)
    ctx = _ctx(bundle, 1, Mode.F5, truths)
    oracle = scenario_oracle(bundle, bundle.scenarios[1])
    outcome = orchestrate_batch(ctx, transport, MemoryBuffer(), None, oracle)
    assert outcome.converged
    assert outcome.iterations_run >= 2


@pytest.mark.parametrize("failing_role", ["perception", "reasoning", "refinement"])
def test_failed_call_fallbacks(bundle, truths, failing_role):
    """A failed attempt falls back by role: a failed perception call means no
    reasoning call in that iteration; a failed reasoning call skips only that
    intent; a refinement answer that fails validation twice keeps the
    unrefined candidate."""
    from ranweave.conflicts import conflict_report
    from ranweave.schemas import RefinementDoc

    bad = "not json"
    report = dump_doc(conflict_report([]))
    t3, t4 = truths[3], truths[4]
    duplicated = Pipeline.build(3, [(n.xapp_id, n.directive_map) for n in t3.nodes + t3.nodes[:1]])
    intent_4 = [dump_doc(pipeline_to_policy_doc(t4)), dump_doc(RefinementDoc(t4, ()).to_dict())]
    responses, calls, candidates = {
        "perception": ([bad, bad], [("perception", None)] * 2, {}),
        "reasoning": (
            [report, bad, bad] + intent_4,
            [("perception", None), ("reasoning", 3), ("reasoning", 3),
             ("reasoning", 4), ("refinement", 4)],
            {4: t4},
        ),
        "refinement": (
            [report, dump_doc(pipeline_to_policy_doc(duplicated)), bad, bad] + intent_4,
            [("perception", None), ("reasoning", 3), ("refinement", 3), ("refinement", 3),
             ("reasoning", 4), ("refinement", 4)],
            {3: duplicated, 4: t4},
        ),
    }[failing_role]

    transport = ScriptedTransport(responses)
    ctx = replace(_ctx(bundle, 1, Mode.F5, truths), max_iterations=1)
    oracle = scenario_oracle(bundle, bundle.scenarios[1])
    outcome = orchestrate_batch(ctx, transport, MemoryBuffer(), None, oracle)
    assert transport.calls == calls
    assert transport.index == len(responses)
    assert outcome.best.candidates == candidates


class PromptCapture(OracleTransport):
    """The oracle backend, keeping every user message it was sent."""

    def __init__(self, mock):
        super().__init__(mock)
        self.seen_user_messages: list[str] = []

    def _respond(self, request):
        for message in request.messages:
            if message["role"] == "user":
                self.seen_user_messages.append(message["content"])
        return super()._respond(request)


def test_retrieval_feeds_prompt_chunks(bundle, truths):
    store = build_knowledge_store(bundle)
    transport = PromptCapture(_mock_bundle(bundle, truths))
    ctx = _ctx(bundle, 1, Mode.F5, truths)
    oracle = scenario_oracle(bundle, bundle.scenarios[1])
    orchestrate_batch(ctx, transport, MemoryBuffer(), store, oracle)
    assert any(".md:" in text for text in transport.seen_user_messages)


def test_perception_reads_the_graph_the_previous_iteration_left(bundle, truths):
    """The second perception call carries the conflict graph of every
    candidate of iteration 1, the structurally invalid one included."""
    from ranweave.conflicts import build_conflict_graph, conflict_report

    invalid = Pipeline.build(2, [("traffic_steering_a", {"steering_policy": "latency"})] * 2)
    report = dump_doc(conflict_report(()))
    transport = ScriptedTransport(
        [report] + [dump_doc(pipeline_to_policy_doc(p)) for p in (truths[1], invalid, truths[7])] + [report]
    )
    ctx = replace(_ctx(bundle, 2, Mode.NR, truths), max_iterations=2)
    orchestrate_batch(ctx, transport, MemoryBuffer(), None, scenario_oracle(bundle, bundle.scenarios[2]))

    handed = [r.payload["conflicts"] for r in transport.requests if r.role == "perception"]
    after_first = {1: truths[1], 2: invalid, 7: truths[7]}
    expected = build_conflict_graph(after_first, ctx.pre, bundle.intents, bundle.matrix, bundle.registry)
    assert any("2" in r.refs() for r in expected.all_records()), "the invalid candidate should conflict"
    assert len(handed) == 2
    assert list(handed[0]) == build_conflict_graph(
        {}, ctx.pre, bundle.intents, bundle.matrix, bundle.registry
    ).all_records()
    assert list(handed[1]) == expected.all_records()


def test_unreachable_embedder_means_no_retrieved_context(bundle, truths):
    from ranweave.retrieval import RetrievalUnavailableError, VectorStore, embed

    reachable = True

    def embed_fn(text):
        if not reachable:
            raise RetrievalUnavailableError("embedding request failed: backend down")
        return embed(text)

    store = VectorStore(embed_fn)
    store.add_document("notes.md", "traffic steering and energy saving notes")
    reachable = False
    transport = PromptCapture(_mock_bundle(bundle, truths))
    ctx = _ctx(bundle, 1, Mode.F5, truths)
    outcome = orchestrate_batch(ctx, transport, MemoryBuffer(), store, scenario_oracle(bundle, bundle.scenarios[1]))
    assert outcome.converged
    with_context = [t for t in transport.seen_user_messages if "## Retrieved context" in t]
    assert with_context
    assert all("## Retrieved context\n(no retrieved context)" in t for t in with_context)
