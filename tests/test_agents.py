from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import replace
from itertools import combinations, product
from math import comb
from typing import Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranweave.agents import (
    AgentCallError,
    Mode,
    RunContext,
    Solution,
    _call_with_repair,
    _render_report,
    assemble_perception_request,
    assemble_reasoning_request,
    enforce_monotonicity,
    is_correct_candidate,
    orchestrate_batch,
)
from ranweave import harness
from ranweave.conflicts import (
    ConflictKind,
    ConflictRecord,
    VendorCompatibilityMatrix,
    candidate_ref,
    internal_conflicts,
)
from ranweave.harness import build_knowledge_store, make_transport, run_scenario
from ranweave.memory import MemoryBuffer
from ranweave.model import (
    DeploymentState,
    Intent,
    Pipeline,
    Registry,
    Stage,
    XAppProfile,
    pipelines_equal,
    stage_chain,
)
from ranweave.planner import SolutionScore, max_conflict_free_subset, refine_pipeline, synthesize_ground_truth
from ranweave.retrieval import VectorStore
from ranweave.schemas import (
    PerceptionDoc,
    RefinementDoc,
    conflict_report,
    dump_doc,
    parse_perception_doc,
    parse_policy_doc,
    parse_refinement_doc,
    pipeline_to_policy_doc,
)
from ranweave.transport import (
    PERCEPTION,
    REASONING,
    REFINEMENT,
    AgentRequest,
    ChatTransport,
    MockBundle,
    NoisyTransport,
    OracleTransport,
    TransportError,
    corrupt_pipeline,
)

from .helpers import PERFBENCH, json_scalars, json_values, random_registry, replace_one_value


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


def _perceive(ctx, transport, candidates, conflicts):
    """One perception call as the loop asks it, with no retrieved context."""
    request = assemble_perception_request(ctx, candidates, conflicts, ())
    return _call_with_repair(transport, request, parse_perception_doc)


def _reason(ctx, intents, transport):
    """One reasoning call about intents as the loop asks it, with no report,
    analogue, candidate or retrieved context."""
    request = assemble_reasoning_request(ctx, [(intent, ()) for intent in intents], None, {}, ())
    ids = [intent.id for intent in intents]
    return _call_with_repair(transport, request, lambda text: parse_policy_doc(text, ctx.registry, ids))


def _answer(entries: dict) -> str:
    """A reasoning answer: each intent id's entry is its pipeline's policy
    document, or any other JSON value given in its place."""
    return dump_doc({
        str(intent_id): pipeline_to_policy_doc(value) if isinstance(value, Pipeline) else value
        for intent_id, value in entries.items()
    })


def _named(calls) -> set:
    """The intent ids the calls name: a reasoning call names a tuple of them."""
    return {i for _, subject in calls for i in (subject if isinstance(subject, tuple) else (subject,))}


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
    doc = _perceive(ctx, transport, {}, ())
    assert doc.records == ()

    from ranweave.conflicts import ConflictMemo, build_conflict_graph

    contending = Pipeline.build(
        4,
        [("wireless_anomaly_detector", {}), ("traffic_steering_a", {"steering_policy": "latency"})],
        [("wireless_anomaly_detector", "traffic_steering_a")],
    )
    candidates = {3: truths[3], 4: contending, 1: truths[1]}
    graph = build_conflict_graph(candidates, ConflictMemo(bundle.intents, bundle.matrix, bundle.registry, ctx.pre))
    doc = _perceive(ctx, transport, candidates, graph.all_records())
    assert graph.all_records(), "fixture pair should conflict"
    assert [r.to_dict() for r in doc.records] == [r.to_dict() for r in graph.all_records()]


def test_oracle_reasoning_emits_ground_truth(bundle, truths):
    ctx = _ctx(bundle, 1, Mode.F5, truths)
    transport = OracleTransport(_mock_bundle(bundle, truths))
    answer = _reason(ctx, [bundle.intents[3], bundle.intents[4]], transport)
    assert answer.entries == {3: truths[3], 4: truths[4]}
    assert answer.errors == {}
    assert transport.calls == [(REASONING, (3, 4))]


def test_refinement_removes_duplicate(bundle, truths):
    candidate = Pipeline.build(
        2, [("power_saving_controller", {"sleep_schedule": "auto", "tx_power": "auto"})] * 2
    )
    revised, edits = refine_pipeline(candidate, bundle.intents[2], bundle.registry, bundle.matrix)
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
    revised, edits = refine_pipeline(candidate, bundle.intents[2], bundle.registry, bundle.matrix)
    assert revised == truths[2]
    assert "drop_superfluous" in [kind.value for kind, _ in edits]


def test_refinement_reorders_stage_violating_edges(bundle, truths):
    candidate = Pipeline.build(
        1,
        [("mobility_predictor", {}), ("traffic_steering_a", {"handover_params": "auto", "steering_policy": "auto"})],
        [("traffic_steering_a", "mobility_predictor")],
    )
    revised, edits = refine_pipeline(candidate, bundle.intents[1], bundle.registry, bundle.matrix)
    assert revised == truths[1]
    assert "reorder_stage" in [kind.value for kind, _ in edits]


def _registered_candidate(rng, registry, intent_id: int) -> tuple[Intent, Pipeline]:
    """An intent and a candidate of registered xApps for it, with a repeated
    xApp, a capability it does not need or edges off the stage chain at times."""
    chosen = rng.sample(registry.ids, rng.randint(1, len(registry)))
    if rng.random() < 0.2:
        chosen.append(rng.choice(chosen))
    capabilities = sorted(set().union(*(registry[x].capabilities for x in chosen)))
    if rng.random() < 0.3:
        capabilities = [rng.choice(sorted(set().union(*(p.capabilities for p in registry))))]
    intent = Intent.build(intent_id, "objective", target_kpis={"latency": -1}, required_capabilities=capabilities)
    _, chain = stage_chain(set(chosen), registry)
    pairs = [(a, b) for a in chosen for b in chosen if a != b]
    edges = chain if rng.random() < 0.5 else rng.sample(pairs, min(len(pairs), rng.randint(0, 3)))
    return intent, Pipeline.build(intent_id, [(x, {}) for x in chosen], edges)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(rng=st.randoms(use_true_random=False))
def test_the_oracle_revision_of_any_registered_candidate_parses(rng):
    """The oracle's batched refinement answer for candidates of registered
    xApps, asked in any order of intents, parses back to refine_pipeline of
    each candidate. A revision that only re-sorts the nodes into stage
    order, when the edges already form the chain, changes the document too,
    so it must list an edit."""
    registry = random_registry(rng, rng.randint(1, 6))
    drawn = [_registered_candidate(rng, registry, i) for i in rng.sample(range(1, 30), rng.randint(1, 4))]
    intents = {intent.id: intent for intent, _ in drawn}
    candidates = {intent.id: candidate for intent, candidate in drawn}
    pairs = list(combinations(sorted({profile.dialect for profile in registry}), 2))
    matrix = VendorCompatibilityMatrix.of(*rng.sample(pairs, rng.randint(0, len(pairs))))

    transport = OracleTransport(MockBundle(registry, intents, matrix, {}))
    payload = {"intents": tuple(intents.values()), "candidates": candidates}
    text = transport.complete(AgentRequest(REFINEMENT, tuple, payload))
    answer = parse_refinement_doc(text, candidates, registry)
    assert transport.calls == [(REFINEMENT, tuple(intents))]
    assert answer.errors == {}
    assert {i: (doc.revised, list(doc.edits)) for i, doc in answer.entries.items()} == {
        i: refine_pipeline(candidates[i], intents[i], registry, matrix) for i in intents
    }


def test_refinement_leaves_ground_truth_untouched(bundle, truths):
    revised, edits = refine_pipeline(truths[1], bundle.intents[1], bundle.registry, bundle.matrix)
    assert revised == truths[1]
    assert edits == []


def _holds_required(xapp_id: str, intent: Intent, registry) -> bool:
    capabilities = registry[xapp_id].capabilities
    return xapp_id in intent.required_xapps or bool(capabilities & intent.required_capabilities)


def test_refinement_returns_every_reference_of_a_generated_catalog(monkeypatch):
    """The refiner and the reference agree on 8 generated 50-xApp catalogs,
    every other one bridged. Each reference comes back unchanged with no
    edits, spacers included; with one more registered xApp that holds no
    required capability, it refines back to itself; without its spacers it
    stays unclean, since the refiner adds no xApp the candidate lacks."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from wide_catalog import generate_catalog

    spaced = 0
    for seed in range(8):
        catalog = generate_catalog(seed, bridged=seed % 2 == 0)
        registry, matrix = catalog.registry, catalog.matrix
        for intent in catalog.intents.values():
            truth = synthesize_ground_truth(intent, registry, matrix)
            assert refine_pipeline(truth, intent, registry, matrix) == (truth, [])

            for extra in registry.ids:
                if extra in truth.node_ids or _holds_required(extra, intent, registry):
                    continue
                nodes = [(n.xapp_id, n.directive_map) for n in truth.nodes] + [(extra, {})]
                candidate = Pipeline.build(intent.id, nodes, truth.edges)
                revised, edits = refine_pipeline(candidate, intent, registry, matrix)
                assert revised == truth
                assert [kind.value for kind, _ in edits] == ["drop_superfluous"]

            holders = [x for x in truth.node_ids if _holds_required(x, intent, registry)]
            if len(holders) == len(truth.nodes):
                continue
            spaced += 1
            directives = {n.xapp_id: n.directive_map for n in truth.nodes}
            ordered, chain = stage_chain(holders, registry)
            bare = Pipeline.build(intent.id, [(x, directives[x]) for x in ordered], chain)
            assert refine_pipeline(bare, intent, registry, matrix) == (bare, [])
            assert internal_conflicts(bare, matrix, registry, ref=candidate_ref(intent.id))
    assert spaced >= 4, "every bridged catalog's reference holds a spacer"


def test_a_candidate_of_many_superfluous_xapps_refines_promptly(monkeypatch):
    """Two clashing holders and 60 decide-stage xApps that hold no required
    capability, each in the first holder's dialect, so the last spacer of
    any set clashes with the second holder and no set parts them. The search
    tries every set of at most MAX_COVER members, the two holders and up to
    three of the 60 spacers: C(60,0) + C(60,1) + C(60,2) + C(60,3) = 36,051
    internal_conflicts checks rather than 2**60. Then it drops every
    superfluous xApp."""
    from ranweave import planner

    checks = []

    def counted(*args, **kwargs):
        checks.append(args)
        return internal_conflicts(*args, **kwargs)

    monkeypatch.setattr(planner, "internal_conflicts", counted)
    sense = XAppProfile.build("a-sense", dialect="d-north", capabilities=["sensing"], stage=Stage.SENSE)
    act = XAppProfile.build("z-act", dialect="d-south", capabilities=["steering"], stage=Stage.ACT)
    fillers = [
        XAppProfile.build(f"m{k:02d}", dialect="d-north", capabilities=["power"], stage=Stage.DECIDE)
        for k in range(60)
    ]
    registry = Registry([sense, act, *fillers])
    matrix = VendorCompatibilityMatrix.of(("d-north", "d-south"))
    intent = Intent.build(
        1, "bridge", target_kpis={"latency": -1}, required_capabilities=["sensing", "steering"]
    )
    candidate = Pipeline.build(1, [(p.id, {}) for p in (sense, act, *fillers)])

    started = time.perf_counter()
    revised, edits = refine_pipeline(candidate, intent, registry, matrix)
    assert time.perf_counter() - started < 2.0
    assert len(checks) == sum(comb(60, k) for k in range(4)) == 36051
    assert revised == Pipeline.build(1, [("a-sense", {}), ("z-act", {})], [("a-sense", "z-act")])
    assert internal_conflicts(revised, matrix, registry, ref=candidate_ref(1))
    assert [kind.value for kind, _ in edits] == ["drop_superfluous"] * 60 + ["reorder_stage"]


def test_repair_reprompt_recovers_from_malformed_json(bundle, truths):
    transport = ScriptedTransport(["this is not json", _answer({3: truths[3]})])
    ctx = _ctx(bundle, 1, Mode.NR, truths)
    answer = _reason(ctx, [bundle.intents[3]], transport)
    assert answer.entries == {3: truths[3]}
    assert len(transport.calls) == 2


def test_repair_reprompt_happens_at_most_once(bundle, truths):
    transport = ScriptedTransport(["nope", "still nope"])
    ctx = _ctx(bundle, 1, Mode.NR, truths)
    with pytest.raises(AgentCallError):
        _reason(ctx, [bundle.intents[3]], transport)
    assert len(transport.calls) == 2


def test_a_repair_asks_again_only_about_the_failed_entries(bundle, truths):
    """The first answer holds a valid entry for intent 3 and an invalid one
    for intent 4. The repair names intent 4 alone, and intent 3 keeps its
    first answer, whatever the repair says about it. An entry that fails
    twice leaves its intent without a pipeline and the others with theirs."""
    phantom = Pipeline.build(4, [("phantom_xapp", {})])
    first_node = truths[3].nodes[0]
    other_3 = Pipeline.build(3, [(first_node.xapp_id, first_node.directive_map)])
    assert other_3 != truths[3]
    ctx = _ctx(bundle, 1, Mode.NR, truths)
    intents = [bundle.intents[3], bundle.intents[4]]
    first = _answer({3: truths[3], 4: phantom})
    transport = ScriptedTransport([first, _answer({3: other_3, 4: truths[4]})])

    answer = _reason(ctx, intents, transport)
    assert answer.entries == {3: truths[3], 4: truths[4]}
    assert answer.errors == {}
    assert transport.calls == [(REASONING, (3, 4)), (REASONING, (4,))]
    assert transport.requests[1].payload["intents"] == (bundle.intents[4],)
    *sent, feedback = transport.seen_messages[1]
    assert tuple(sent) == transport.seen_messages[0] + ({"role": "assistant", "content": first},)
    assert feedback["role"] == "user"
    assert "- intent 4: unregistered xApp ids ['phantom_xapp']" in feedback["content"]
    assert feedback["content"].endswith("as a JSON object keyed by intent id: 4.")
    assert "3" not in feedback["content"]

    transport = ScriptedTransport([first])  # the same answer again
    answer = _reason(ctx, intents, transport)
    assert answer.entries == {3: truths[3]}
    assert list(answer.errors) == [4] and "unregistered" in answer.errors[4][0]
    assert transport.calls == [(REASONING, (3, 4)), (REASONING, (4,))]


def test_repair_reprompt_on_unknown_xapp_id(bundle, truths):
    bad = _answer({3: Pipeline.build(3, [("phantom_xapp", {})])})
    transport = ScriptedTransport([bad, _answer({3: truths[3]})])
    ctx = _ctx(bundle, 1, Mode.NR, truths)
    answer = _reason(ctx, [bundle.intents[3]], transport)
    assert answer.entries == {3: truths[3]}
    assert len(transport.calls) == 2
    # The repair prompt must carry the validation errors back to the model.
    repair_user_message = transport.seen_messages[1][-1]
    assert repair_user_message["role"] == "user"
    assert "unregistered" in repair_user_message["content"]


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_repair_reprompt_on_a_constant_that_is_no_json_value(bundle, truths, constant):
    """json.dumps writes a float NaN or infinity as the bare constant, which RFC
    8259 does not allow; the answer holding one gets the repair re-prompt."""
    conditions = {"max_load": float(constant)}
    bad = json.dumps({"3": {**pipeline_to_policy_doc(truths[3]), "deployment_conditions": conditions}})
    transport = ScriptedTransport([bad, _answer({3: truths[3]})])
    answer = _reason(_ctx(bundle, 1, Mode.NR, truths), [bundle.intents[3]], transport)
    assert answer.entries == {3: truths[3]}
    assert len(transport.calls) == 2
    assert f"{constant} is not a JSON value" in transport.seen_messages[1][-1]["content"]


def test_an_answer_past_the_float_range_is_a_failed_call(bundle, truths):
    """1e400 decodes to an infinity that no later prompt or memory line could
    carry as JSON. The answer gets the repair re-prompt naming it and, sent
    again, fails the call (AgentCallError, what the benchmark counts); a loop
    fed only such answers keeps no candidate and ends without a crash."""
    doc = {**pipeline_to_policy_doc(truths[3]), "deployment_conditions": {"max_load": "?"}}
    bad = _answer({3: doc}).replace('"?"', "1e400")
    transport = ScriptedTransport([bad])
    with pytest.raises(AgentCallError, match="1e400 is past the float range"):
        _reason(_ctx(bundle, 1, Mode.SA, truths), [bundle.intents[3]], transport)
    assert len(transport.calls) == 2
    assert "1e400 is past the float range" in transport.seen_messages[1][-1]["content"]

    transport = ScriptedTransport([bad])
    ctx = replace(_ctx(bundle, 1, Mode.SA, truths), max_iterations=1)
    memory = MemoryBuffer()
    outcome = orchestrate_batch(ctx, transport, memory, VectorStore(), bundle.setup(1).oracle)
    assert transport.calls == [(REASONING, (3, 4))] * 2  # one batched request and its repair
    assert outcome.best.candidates == {} and not outcome.converged
    assert not memory.entries


def test_enforce_monotonicity_rules():
    better = Solution({}, frozenset(), SolutionScore(3, 3, 3, 0, -6))
    worse = Solution({}, frozenset(), SolutionScore(2, 3, 3, -1, -6))
    equal = Solution({}, frozenset(), SolutionScore(3, 3, 3, 0, -6))
    assert enforce_monotonicity(worse, better) is better
    assert enforce_monotonicity(better, worse) is better
    assert enforce_monotonicity(better, equal) is equal
    assert enforce_monotonicity(None, worse) is worse


_TX_POWER_WRITER = Pipeline.build(5, [("uplink_power_control_agent", {"tx_power": "auto"})])
# A wrong first answer for intent 3 that writes tx_power, as the active
# reference of intent 2 does: a record names it once it is a candidate.
_CLASHING_3 = Pipeline.build(3, [("uplink_power_control_agent", {"tx_power": "auto"})])


def _clashing_ctx(bundle, truths, mode: Mode) -> RunContext:
    """Scenario 1 with one more active pipeline, for intent 5 (outside the
    scenario), that writes tx_power as the active reference of intent 2
    does, so the conflict graph holds a record of the active set alone
    from the first iteration."""
    ctx = _ctx(bundle, 1, mode, truths)
    return replace(ctx, pre=DeploymentState((*ctx.pre, _TX_POWER_WRITER)))


class ClashingFirstAnswer(OracleTransport):
    """The oracle backend, except that its first reasoning answer gives
    intent 3 _CLASHING_3 and its first refinement answer keeps it as it is,
    so the first iteration leaves intent 3 unsolved, with a clash."""

    def _respond(self, request):
        text = super()._respond(request)
        if request.role == PERCEPTION or request.role in [role for role, _ in self.calls[:-1]]:
            return text
        doc = json.loads(text)
        kept = RefinementDoc(_CLASHING_3, ()).to_dict()
        doc["3"] = pipeline_to_policy_doc(_CLASHING_3) if request.role == REASONING else kept
        return dump_doc(doc)


def _own_oracle(bundle, truths, ctx: RunContext):
    """The oracle of ctx's own batch: its new intents' references beside ctx.pre."""
    candidates = {intent.id: truths[intent.id] for intent in ctx.intents}
    return max_conflict_free_subset(candidates, ctx.pre, bundle.intents, bundle.matrix, bundle.registry)


def _call_roles(bundle, truths, ctx: RunContext, backend=OracleTransport) -> list[str]:
    transport = backend(_mock_bundle(bundle, truths))
    memory = MemoryBuffer()
    orchestrate_batch(ctx, transport, memory, VectorStore(), _own_oracle(bundle, truths, ctx))
    return [role for role, _ in transport.calls]


def test_mode_algebra_call_traces(bundle, truths):
    """One reasoning request asks intents 3 and 4 together, and one
    refinement request reviews both candidates. The modes that use
    perception ask it only when a record names a candidate of an unsolved
    intent: never in the first iteration, whose graph holds no candidate,
    even when the active set clashes with itself, and in the second after a
    first answer for intent 3 that clashes, which reasoning then asks
    about alone."""
    first = {
        Mode.F5: ["reasoning", "refinement"],
        Mode.SA: ["reasoning"],
        Mode.NR: ["reasoning"],
        Mode.NP: ["reasoning", "refinement"],
        Mode.FCFS: ["reasoning", "refinement"],
    }
    for mode, roles in first.items():
        again = ["perception", *roles] if mode.uses_perception else roles
        clashing = _clashing_ctx(bundle, truths, mode)
        assert _call_roles(bundle, truths, clashing, ClashingFirstAnswer) == roles + again, mode
        assert _call_roles(bundle, truths, clashing) == roles, mode
        assert _call_roles(bundle, truths, _ctx(bundle, 1, mode, truths)) == roles, mode


def test_oracle_transport_converges_in_one_iteration_every_mode(bundle, truths):
    oracle = bundle.setup(2).oracle
    for mode in Mode:
        ctx = _ctx(bundle, 2, mode, truths)
        transport = OracleTransport(_mock_bundle(bundle, truths))
        outcome = orchestrate_batch(ctx, transport, MemoryBuffer(), VectorStore(), oracle)
        assert outcome.converged
        assert outcome.iterations_to_synthesis == 1
        assert outcome.iterations_to_deployment == 1


def _catalog_run(catalog, mode: Mode):
    """The RunContext, references and oracle of one run over a generated
    catalog's new intents beside its active ones, as perfbench's
    wide-catalog workload sets them up."""
    truths = {
        i: synthesize_ground_truth(intent, catalog.registry, catalog.matrix)
        for i, intent in sorted(catalog.intents.items())
    }
    pre = DeploymentState(tuple(truths[i] for i in catalog.pre_intents))
    candidates = {i: truths[i] for i in catalog.new_intents}
    oracle = max_conflict_free_subset(
        candidates, pre, catalog.intents, catalog.matrix, catalog.registry, truths=candidates
    )
    ctx = RunContext(
        mode=mode,
        intents=tuple(catalog.intents[i] for i in catalog.new_intents),
        pre=pre,
        registry=catalog.registry,
        matrix=catalog.matrix,
        intent_catalog=catalog.intents,
        max_iterations=10,
    )
    return ctx, truths, oracle


@pytest.mark.parametrize("mode", [Mode.F5, Mode.NP, Mode.NR, Mode.SA], ids=lambda mode: mode.value)
def test_the_oracle_converges_at_once_on_bridged_catalogs(monkeypatch, mode):
    """On 8 small bridged catalogs, whose bridged intent's reference needs a
    spacer, the flawless mock converges in one iteration at accuracy and
    deployment success 1 in every mode but fcfs. While the refiner stripped
    the spacer, f5 and np converged on none of the 8."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from wide_catalog import CatalogParams, generate_catalog

    params = CatalogParams(xapps=16, capabilities=12, kpis=10, new_intents=4, pre_intents=4)
    for seed in range(8):
        catalog = generate_catalog(seed, params, bridged=True)
        ctx, truths, oracle = _catalog_run(catalog, mode)
        chat = OracleTransport(MockBundle(catalog.registry, catalog.intents, catalog.matrix, truths))
        outcome = orchestrate_batch(ctx, chat, MemoryBuffer(), VectorStore(), oracle)
        assert (outcome.converged, len(outcome.score_history)) == (True, 1), f"catalog {seed}"
        assert outcome.best.correct == frozenset(catalog.new_intents)
        assert outcome.best.score.correct_deployed == oracle.objective_value


def test_a_converged_run_reports_the_solution_it_converged_to(monkeypatch):
    """On 8 generated 50-xApp catalogs with 12 new and 12 active intents,
    under the noisy mock, every f5 run converges and reports accuracy 1:
    its best solution holds a correct candidate for every new intent and
    deploys the oracle's number of them. While the score ranked deployments
    and conflicts above correct candidates, catalogs 1 and 6 converged but
    reported an earlier iteration, at accuracy 0.917 and 0.833."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from wide_catalog import generate_catalog

    for seed in range(8):
        catalog = generate_catalog(seed)
        ctx, truths, oracle = _catalog_run(catalog, Mode.F5)
        chat = NoisyTransport(MockBundle(catalog.registry, catalog.intents, catalog.matrix, truths), seed)
        outcome = orchestrate_batch(ctx, chat, MemoryBuffer(), VectorStore(), oracle)
        assert outcome.converged, f"catalog {seed}"
        best = outcome.best
        assert best.correct == frozenset(catalog.new_intents), f"catalog {seed}"
        assert all(is_correct_candidate(best.candidates[i], truths[i], catalog.registry) for i in best.correct)
        assert best.score.correct_deployed == oracle.objective_value


def test_orchestrate_clears_memory_at_start(bundle, truths):
    from ranweave.memory import OutcomeRecord

    memory = MemoryBuffer()
    memory.add(
        bundle.intents[1],
        truths[1],
        OutcomeRecord(deployed=True, correct=True, conflicts=()),
    )
    ctx = _ctx(bundle, 1, Mode.F5, truths)
    oracle = bundle.setup(1).oracle
    orchestrate_batch(ctx, OracleTransport(_mock_bundle(bundle, truths)), memory, VectorStore(), oracle)
    assert all(entry.intent.id in (3, 4) for entry in memory.entries)


def test_iteration_cap_with_always_invalid_pipelines(bundle, truths):
    ctx = replace(_ctx(bundle, 1, Mode.NP, truths), max_iterations=50)
    oracle = bundle.setup(1).oracle
    outcome = orchestrate_batch(
        ctx, UnregisteredPipelineTransport(), MemoryBuffer(), VectorStore(), oracle
    )
    assert not outcome.converged
    assert len(outcome.score_history) == 50
    assert outcome.iterations_to_synthesis is None
    assert outcome.iterations_to_deployment is None


def test_noisy_transport_is_reproducible(bundle, truths):
    mock = _mock_bundle(bundle, truths)
    first = NoisyTransport(mock, seed=7)
    second = NoisyTransport(mock, seed=7)
    request_payload = {"intents": (bundle.intents[1], bundle.intents[2]), "perception_present": False}
    from ranweave.transport import AgentRequest

    r1 = first.complete(AgentRequest(role="reasoning", render=tuple, payload=request_payload))
    r2 = second.complete(AgentRequest(role="reasoning", render=tuple, payload=request_payload))
    assert r1 == r2
    different_seed = NoisyTransport(mock, seed=8)
    r3 = different_seed.complete(AgentRequest(role="reasoning", render=tuple, payload=request_payload))
    assert isinstance(r3, str)


def test_noisy_perception_injects_spurious_conflict(bundle, truths):
    """The noisy report holds the engine's records and one more: an
    actuator contention between two distinct refs that says it is speculative."""
    from ranweave.transport import AgentRequest

    x, y = bundle.registry.ids[:2]
    engine = (
        ConflictRecord(ConflictKind.ACTUATOR_CONTENTION, frozenset({("3", x), ("pre:1", x)}), x, "engine"),
        ConflictRecord(ConflictKind.PARAMETER_COUPLING, frozenset({("3", x), ("4", y)}), "tx_power", "engine"),
    )
    transport = NoisyTransport(_mock_bundle(bundle, truths), seed=7)
    text = transport.complete(AgentRequest(role="perception", render=tuple, payload={"conflicts": engine}))
    records = list(parse_perception_doc(text).records)
    for record in engine:
        records.remove(record)
    [spurious] = records
    assert spurious.kind is ConflictKind.ACTUATOR_CONTENTION
    assert len(spurious.refs()) == 2
    assert spurious.explanation.startswith("speculative contention")


@pytest.mark.parametrize("mode", list(Mode))
def test_solved_intents_are_not_asked_again(bundle, truths, mode, monkeypatch):
    """Once an intent is in an iteration's correct set, no later agent call
    names it, memory gets no later entry for it, and its candidate is the
    same object in every later iteration."""
    from ranweave import agents

    # (transport calls made by the iteration's end, memory entries made
    # before it, its Solution): an iteration adds its entries after this call.
    iterations = []
    original = agents.enforce_monotonicity

    def recording(previous_best, current):
        iterations.append((len(transport.calls), len(memory.entries), current))
        return original(previous_best, current)

    monkeypatch.setattr(agents, "enforce_monotonicity", recording)
    kept = 0
    for scenario_id, seed in product((2, 4), (1, 2, 3)):
        iterations.clear()
        transport = NoisyTransport(_mock_bundle(bundle, truths), seed)
        memory = MemoryBuffer()
        ctx = _ctx(bundle, scenario_id, mode, truths, seed)
        orchestrate_batch(ctx, transport, memory, VectorStore(), bundle.setup(scenario_id).oracle)
        for number, (end, _, solution) in enumerate(iterations, start=1):
            assert not _named(transport.calls[end:]) & solution.correct
            if number < len(iterations):
                later_entries = memory.entries[iterations[number][1]:]
                assert not any(e.intent.id in solution.correct for e in later_entries)
            for _, _, later in iterations[number:]:
                for intent_id in solution.correct:
                    assert later.candidates[intent_id] is solution.candidates[intent_id]
                    kept += 1
    assert kept  # some intent was solved before the last iteration of some run


def _noisy_reasoning(transport, intent_ids, perception_present: bool) -> dict:
    """Each asked intent's entry of one reasoning answer, as canonical JSON."""
    intents = tuple(transport.bundle.intents[i] for i in intent_ids)
    payload = {"intents": intents, "perception_present": perception_present}
    text = transport.complete(AgentRequest(role=REASONING, render=tuple, payload=payload))
    return {int(key): dump_doc(entry) for key, entry in json.loads(text).items()}


def _noisy_perception(transport) -> str:
    return transport.complete(AgentRequest(role=PERCEPTION, render=tuple, payload={"conflicts": ()}))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32), data=st.data())
def test_a_noisy_answer_reads_only_its_own_asks(bundle, truths, seed, data):
    """The noisy mock's entry for intent i at reasoning's n-th ask about i is
    byte-identical whatever perception calls and asks about other intents
    came before it, and whatever else its request asks; the spurious record
    of its n-th perception call is too, whatever reasoning asked before.
    So a call the loop skips or adds moves no other answer. Another seed
    changes some answer."""
    mock = _mock_bundle(bundle, truths)
    ids = sorted(bundle.intents)
    # None is a perception call; a pair is a reasoning request's intents and perception_present.
    calls = data.draw(st.lists(
        st.none() | st.tuples(st.lists(st.sampled_from(ids), min_size=1, unique=True), st.booleans()),
        max_size=10,
    ))
    target = data.draw(st.sampled_from(ids))
    last = data.draw(st.lists(st.sampled_from(ids), unique=True)) + [target]
    present = data.draw(st.booleans())

    busy = NoisyTransport(mock, seed)
    for call in calls:
        if call is None:
            _noisy_perception(busy)
        else:
            _noisy_reasoning(busy, *call)
    entry = _noisy_reasoning(busy, sorted(set(last)), present)[target]
    report = _noisy_perception(busy)

    alone = NoisyTransport(mock, seed)
    for _, present_before in [call for call in calls if call is not None and target in call[0]]:
        _noisy_reasoning(alone, [target], present_before)
    assert _noisy_reasoning(alone, [target], present)[target] == entry
    for _ in range(sum(call is None for call in calls)):
        _noisy_perception(alone)
    assert _noisy_perception(alone) == report

    other = data.draw(st.integers(0, 2**32).filter(lambda s: s != seed))
    first, second = NoisyTransport(mock, seed), NoisyTransport(mock, other)
    assert any(
        _noisy_reasoning(first, ids, False) != _noisy_reasoning(second, ids, False) for _ in range(3)
    )


def test_the_report_handed_in_place_of_perception_is_the_flawless_answer(bundle, truths):
    """About a graph with no record, the flawless perception answer parses
    to PerceptionDoc(()), so reasoning renders the same report table whether
    perception was asked or skipped."""
    ctx = _ctx(bundle, 1, Mode.F5, truths)
    oracle = OracleTransport(_mock_bundle(bundle, truths))
    answer = parse_perception_doc(oracle.complete(assemble_perception_request(ctx, {}, (), ())))
    assert answer == PerceptionDoc(())
    assert _render_report(PerceptionDoc(())) == _render_report(answer)


def test_perception_is_asked_exactly_when_a_record_names_an_unsolved_candidate(bundle, monkeypatch):
    """Over the bundled grid (scenarios 1-4, every mode, seeds 0-2) under
    both mocks, and over one generated catalog, an iteration sends a
    perception request exactly when its mode uses perception and a record
    of the conflict graph it starts from (the active set's before the first
    iteration, the previous iteration's after it) names the candidate of an
    intent outside the previous iteration's correct set. The request is
    shown exactly those records."""
    from ranweave import agents

    monkeypatch.syspath_prepend(str(PERFBENCH))
    from wide_catalog import generate_catalog

    graphs: list = []  # every graph the loop builds, in order
    ends: list[tuple[int, frozenset]] = []  # per iteration: transport calls made by its end, its correct set
    sent: list[AgentRequest] = []  # every request, in call order
    build, evaluate, ratchet = agents.build_conflict_graph, agents.evaluate_conflicts, agents.enforce_monotonicity
    complete = ChatTransport.complete

    def building(*args):
        graphs.append(build(*args))
        return graphs[-1]

    def evaluating(*args):
        evaluation = evaluate(*args)
        graphs.append(evaluation.graph)
        return evaluation

    def ratcheting(previous, current):
        ends.append((len(sent), current.correct))
        return ratchet(previous, current)

    def sending(self, request):
        sent.append(request)
        return complete(self, request)

    monkeypatch.setattr(agents, "build_conflict_graph", building)
    monkeypatch.setattr(agents, "evaluate_conflicts", evaluating)
    monkeypatch.setattr(agents, "enforce_monotonicity", ratcheting)
    monkeypatch.setattr(ChatTransport, "complete", sending)
    tally = Counter()

    def check(mode: Mode, intent_ids, run: Callable[[], object]) -> None:
        graphs.clear()
        ends.clear()
        sent.clear()
        run()
        starts = [(0, frozenset()), *ends]
        for (start, correct), (end, _), graph in zip(starts, ends, graphs):
            unsolved = {candidate_ref(i) for i in intent_ids if i not in correct}
            named = [r for r in graph.all_records() if r.refs() & unsolved]
            handed = [list(r.payload["conflicts"]) for r in sent[start:end] if r.role == PERCEPTION]
            assert handed == ([named] if mode.uses_perception and named else []), mode
            tally[mode.uses_perception, bool(named), len(named) < len(graph.all_records())] += 1

    for transport, seeds in (("mock-noisy", (0, 1, 2)), ("mock-oracle", (0,))):
        for scenario_id, mode, seed in product(sorted(bundle.scenarios), Mode, seeds):
            chat = make_transport(transport, bundle, seed)
            intent_ids = bundle.scenarios[scenario_id].new_intents
            check(mode, intent_ids, lambda: run_scenario(bundle, scenario_id, mode, chat, seed=seed))
    catalog = generate_catalog(7)
    for mode in Mode:
        ctx, truths, oracle = _catalog_run(catalog, mode)
        mock = MockBundle(catalog.registry, catalog.intents, catalog.matrix, truths)
        for chat in (NoisyTransport(mock, 7), OracleTransport(mock)):
            check(mode, catalog.new_intents, lambda: orchestrate_batch(ctx, chat, MemoryBuffer(), VectorStore(), oracle))
    # Perception was both asked and skipped in modes that use it, and some
    # record was left out both of an asked request and of a skipped one.
    assert tally[True, True, True] and tally[True, False, True]


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
    oracle = bundle.setup(1).oracle
    outcome = orchestrate_batch(ctx, transport, MemoryBuffer(), VectorStore(), oracle)
    assert outcome.converged
    assert len(outcome.score_history) >= 2


@pytest.mark.parametrize("failing_role", ["perception", "reasoning", "refinement"])
def test_failed_call_fallbacks(bundle, truths, failing_role):
    """A failed attempt falls back by role, in the second iteration: the
    first leaves intent 3 with a candidate that clashes and intent 4 with a
    wrong one, so perception is asked, about the records that name them and
    not the active set's own. A failed perception call means no reasoning
    call in that iteration; a reasoning entry that fails twice skips only
    its intent; a refinement entry that fails twice keeps its intent's
    unrefined candidate, and the other entry's revision is kept. Each repair
    asks only about the failed entries."""
    from ranweave.conflicts import build_conflict_graph
    from ranweave.schemas import EditKind

    bad = "not json"
    report = dump_doc(conflict_report([]))
    t3, t4 = truths[3], truths[4]
    duplicated = Pipeline.build(3, [(n.xapp_id, n.directive_map) for n in t3.nodes + t3.nodes[:1]])
    duplicated_4 = Pipeline.build(4, [(n.xapp_id, n.directive_map) for n in t4.nodes + t4.nodes[:1]], t4.edges)
    refined_4 = RefinementDoc(t4, ()).to_dict()
    deduplicated_4 = RefinementDoc(t4, ((EditKind.REMOVE_DUPLICATE, "selected twice"),)).to_dict()
    kept = {"3": RefinementDoc(_CLASHING_3, ()).to_dict(), "4": RefinementDoc(duplicated_4, ()).to_dict()}
    first = [_answer({3: _CLASHING_3, 4: duplicated_4}), dump_doc(kept)]
    first_calls = [("reasoning", (3, 4)), ("refinement", (3, 4))]
    responses, calls, candidates = {
        "perception": ([bad, bad], [("perception", None)] * 2, {3: _CLASHING_3, 4: duplicated_4}),
        "reasoning": (
            [report, _answer({3: bad, 4: t4}), _answer({3: bad}), dump_doc({"4": refined_4})],
            [("perception", None), ("reasoning", (3, 4)), ("reasoning", (3,)), ("refinement", (4,))],
            {3: _CLASHING_3, 4: t4},
        ),
        "refinement": (
            [report, _answer({3: duplicated, 4: duplicated_4}), dump_doc({"3": bad, "4": deduplicated_4}),
             dump_doc({"3": bad})],
            [("perception", None), ("reasoning", (3, 4)), ("refinement", (3, 4)), ("refinement", (3,))],
            {3: duplicated, 4: t4},
        ),
    }[failing_role]

    transport = ScriptedTransport(first + responses)
    ctx = replace(_clashing_ctx(bundle, truths, Mode.F5), max_iterations=2)
    oracle = _own_oracle(bundle, truths, ctx)
    outcome = orchestrate_batch(ctx, transport, MemoryBuffer(), VectorStore(), oracle)
    assert transport.calls == first_calls + calls
    assert transport.index == len(first + responses)
    assert outcome.best.candidates == candidates

    handed = transport.requests[2].payload["conflicts"]
    graph = build_conflict_graph({3: _CLASHING_3, 4: duplicated_4}, oracle.memo.copy())
    assert handed == tuple(r for r in graph.all_records() if r.refs() & {"3", "4"})
    assert handed and len(handed) < len(graph.all_records())


class RepairOutage(ScriptedTransport):
    """Replays canned responses, but its second call, the repair, fails in transport."""

    def _respond(self, request) -> str:
        if self.index == 1:
            self.index += 1
            raise TransportError("backend unavailable")
        return super()._respond(request)


def test_a_repair_lost_in_transport_keeps_the_entries_that_passed(bundle, truths):
    """The first reasoning answer holds an invalid entry for intent 3 and the
    reference for intent 4, and the repair about intent 3 fails in transport.
    Intent 4 keeps its candidate, as when the repair fails validation; a
    whole-answer repair that fails in transport fails the call."""
    transport = RepairOutage([_answer({3: "not a policy", 4: truths[4]}), _answer({3: truths[3]})])
    ctx = replace(_ctx(bundle, 1, Mode.NR, truths), max_iterations=1)
    outcome = orchestrate_batch(ctx, transport, MemoryBuffer(), VectorStore(), bundle.setup(1).oracle)
    assert transport.calls == [(REASONING, (3, 4)), (REASONING, (3,))]
    assert outcome.best.candidates == {4: truths[4]}

    transport = RepairOutage(["not json", _answer({3: truths[3]})])
    with pytest.raises(TransportError):
        _reason(ctx, [bundle.intents[3]], transport)
    assert transport.calls == [(REASONING, (3,))] * 2


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
    oracle = bundle.setup(1).oracle
    orchestrate_batch(ctx, transport, MemoryBuffer(), store, oracle)
    assert any(".md:" in text for text in transport.seen_user_messages)


def test_perception_reads_the_graph_the_previous_iteration_left(bundle, truths):
    """The first iteration's graph, of the active set alone, holds no
    record, so it sends no perception call. The second iteration's does:
    its perception call carries the conflict graph of every candidate of
    iteration 1, the structurally invalid one included."""
    from ranweave.conflicts import ConflictMemo, build_conflict_graph

    invalid = Pipeline.build(2, [("traffic_steering_a", {"steering_policy": "latency"})] * 2)
    report = dump_doc(conflict_report(()))
    transport = ScriptedTransport([_answer({1: truths[1], 2: invalid, 7: truths[7]}), report])
    ctx = replace(_ctx(bundle, 2, Mode.NR, truths), max_iterations=2)
    orchestrate_batch(ctx, transport, MemoryBuffer(), VectorStore(), bundle.setup(2).oracle)

    handed = [r.payload["conflicts"] for r in transport.requests if r.role == "perception"]
    after_first = {1: truths[1], 2: invalid, 7: truths[7]}
    inputs = (bundle.intents, bundle.matrix, bundle.registry, ctx.pre)
    expected = build_conflict_graph(after_first, ConflictMemo(*inputs))
    assert any("2" in r.refs() for r in expected.all_records()), "the invalid candidate should conflict"
    assert not build_conflict_graph({}, ConflictMemo(*inputs)).all_records()
    assert transport.calls[:2] == [("reasoning", (1, 2, 7)), ("perception", None)]
    assert [list(records) for records in handed] == [expected.all_records()]


class RecordingNoisyTransport(NoisyTransport):
    """The noisy backend, keeping every request it answers."""

    def __init__(self, mock, seed):
        super().__init__(mock, seed)
        self.requests: list = []

    def _respond(self, request):
        self.requests.append(request)
        return super()._respond(request)


def test_a_run_embeds_its_retrieval_query_once(bundle, truths, monkeypatch):
    """The query text is the same every iteration, so one embedding and one
    ranking serve the run: each chunk is scored once."""
    from collections import Counter

    from ranweave import retrieval

    scored: Counter[int] = Counter()
    similarity = retrieval.similarity

    def counting_similarity(a, b):
        scored[id(b)] += 1
        return similarity(a, b)

    monkeypatch.setattr(retrieval, "similarity", counting_similarity)

    store = VectorStore()
    store.add_directory(bundle.knowledge_dir)
    # Built before the patch, so the buffer's own embeddings are not counted.
    memory = MemoryBuffer()
    embedded: list[str] = []
    embed = retrieval.embed

    def counting_embed(text):
        embedded.append(text)
        return embed(text)

    monkeypatch.setattr(retrieval, "embed", counting_embed)
    transport = RecordingNoisyTransport(_mock_bundle(bundle, truths), 0)
    ctx = _ctx(bundle, 1, Mode.SA, truths)
    outcome = orchestrate_batch(ctx, transport, memory, store, bundle.setup(1).oracle)

    assert len(outcome.score_history) > 2
    assert len(embedded) == 1
    chunk_vectors = {id(chunk.vector) for chunk in store.chunks}
    assert len(chunk_vectors) == len(store)
    assert [scored[key] for key in chunk_vectors] == [1] * len(store)
    assert transport.requests
    assert not any(
        "## Retrieved context\n(no retrieved context)" in r.messages[1]["content"] for r in transport.requests
    )


def _wide_run(monkeypatch):
    """The context, oracle and noisy transport (seed 7) of an f5 run over
    generated catalog 7: 50 xApps, 12 new and 12 active intents."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from wide_catalog import generate_catalog

    catalog = generate_catalog(7)
    ctx, truths, oracle = _catalog_run(catalog, Mode.F5)
    chat = NoisyTransport(MockBundle(catalog.registry, catalog.intents, catalog.matrix, truths), 7)
    return ctx, oracle, chat


def test_a_wide_run_checks_only_the_pairs_that_can_conflict(bundle, monkeypatch):
    """Pins the conflict checks and agent calls of one orchestrate_batch run
    over a generated 50-xApp catalog with 12 new and 12 active intents. The
    run's memo starts from the oracle's, the memo keeps one entry per
    pipeline value, and only a pair whose PipelineFacts meet is checked, so
    pairwise_conflicts runs 3 times (3 find a conflict), internal_conflicts
    3 times and validate_pipeline_structure 30 times. Perception is asked
    once: only one iteration starts from a record that names an unsolved
    intent's candidate."""
    from ranweave import agents, conflicts

    ctx, oracle, chat = _wide_run(monkeypatch)
    found: list[bool] = []
    calls = {"internal": 0, "structure": 0}
    pairwise_conflicts = conflicts.pairwise_conflicts
    internal_conflicts = conflicts.internal_conflicts
    validate_pipeline_structure = agents.validate_pipeline_structure

    def counted_pairwise(*args, **kwargs):
        records = pairwise_conflicts(*args, **kwargs)
        found.append(bool(records))
        return records

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(conflicts, "pairwise_conflicts", counted_pairwise)
    monkeypatch.setattr(conflicts, "internal_conflicts", counted("internal", internal_conflicts))
    monkeypatch.setattr(
        agents, "validate_pipeline_structure", counted("structure", validate_pipeline_structure)
    )
    outcome = orchestrate_batch(ctx, chat, MemoryBuffer(), build_knowledge_store(bundle), oracle)

    assert outcome.converged
    assert (len(found), sum(found)) == (3, 3)
    assert calls == {"internal": 3, "structure": 30}
    assert Counter(role for role, _ in chat.calls) == {PERCEPTION: 1, REASONING: 3, REFINEMENT: 3}


def test_a_wide_run_keeps_no_pair_of_a_row(monkeypatch):
    """A row is kept once per (ref, pipeline value), so the pairs it checks
    are not kept again in the memo's pair table: after the wide run, the
    rows it added name active pipelines, and no pair it added does."""
    from ranweave import agents

    ctx, oracle, chat = _wide_run(monkeypatch)
    memos: list = []
    evaluate_conflicts = agents.evaluate_conflicts

    def recorded(candidates, eligible, memo):
        memos.append(memo)
        return evaluate_conflicts(candidates, eligible, memo)

    monkeypatch.setattr(agents, "evaluate_conflicts", recorded)
    assert orchestrate_batch(ctx, chat, MemoryBuffer(), VectorStore(), oracle).converged
    memo = memos[-1]
    rows = [edge for key in memo.rows.keys() - oracle.memo.rows.keys() for edge in memo.rows[key]]
    assert any(ref.startswith("pre:") for (_, ref), _ in rows)
    added = memo.pairs.keys() - oracle.memo.pairs.keys()
    assert not [key for key in added if key[0].startswith("pre:") or key[1].startswith("pre:")]


@pytest.mark.parametrize("scenario_id", [1, 2, 3, 4])
def test_oracle_answers_are_stored_as_the_oracles_truth_objects(bundle, truths, scenario_id, monkeypatch):
    """Each parsed answer is a new object equal to its truth, conditions
    included, so the run's memo, a copy of the oracle's, finds every answer
    under the oracle's entries, which the truth objects key: the run adds
    no memo entry."""
    from ranweave import agents

    memos: list = []
    evaluate_conflicts = agents.evaluate_conflicts

    def recorded(candidates, eligible, memo):
        memos.append(memo)
        return evaluate_conflicts(candidates, eligible, memo)

    monkeypatch.setattr(agents, "evaluate_conflicts", recorded)
    oracle = bundle.setup(scenario_id).oracle
    memory = MemoryBuffer()
    ctx = _ctx(bundle, scenario_id, Mode.F5, truths)
    outcome = orchestrate_batch(ctx, OracleTransport(_mock_bundle(bundle, truths)), memory, VectorStore(), oracle)
    assert outcome.converged
    assert outcome.best.candidates
    memo = memos[0]
    assert memo is not oracle.memo and all(m is memo for m in memos)
    assert [memo.pairs, memo.facts, memo.internals, memo.rows] == [
        oracle.memo.pairs, oracle.memo.facts, oracle.memo.internals, oracle.memo.rows
    ]
    for intent_id, candidate in outcome.best.candidates.items():
        truth = oracle.per_intent_truth[intent_id]
        assert candidate == truth and candidate is not truth
        [key] = [key for key in memo.facts if key == candidate]
        assert key is truth
    assert all(entry.pipeline == oracle.per_intent_truth[entry.intent.id] for entry in memory.entries)


def test_an_equal_answer_with_other_condition_bytes_keeps_its_own_object(bundle, truths):
    """1 and true compare (and hash) equal as Python values, but the two
    answers for intent 3 carry different condition bytes and are distinct
    pipelines; the memo must not key them as one value, and the run must
    store the second as sent, or the next prompt would show "max_load":1
    where the backend sent true."""

    first_node = truths[3].nodes[0]
    wrong = [(first_node.xapp_id, first_node.directive_map)]
    as_int, as_bool = (Pipeline.build(3, wrong, (), dump_doc({"max_load": v})) for v in (1, True))
    assert as_int != as_bool and not pipelines_equal(as_int, truths[3])
    # NR: one reasoning request about the unsolved intents; 4 is solved at
    # once. No candidate clashes, so the graph stays empty and perception is
    # not asked.
    transport = ScriptedTransport([_answer({3: as_int, 4: truths[4]}), _answer({3: as_bool})])
    memory = MemoryBuffer()
    ctx = replace(_ctx(bundle, 1, Mode.NR, truths), max_iterations=3)
    orchestrate_batch(ctx, transport, memory, VectorStore(), bundle.setup(1).oracle)

    assert transport.calls == [("reasoning", (3, 4)), ("reasoning", (3,)), ("reasoning", (3,))]
    first, second = [e.pipeline for e in memory.entries if e.intent.id == 3][:2]
    assert first != second
    assert first.deployment_conditions == '{"max_load":1}'
    assert second.deployment_conditions == '{"max_load":true}'
    # The third request shows the candidates as the second iteration left them.
    third = transport.requests[2].messages[1]["content"]
    candidates = third.split("## Candidate policies\n")[1].split("\n\n## ")[0]
    assert '"max_load":true' in candidates and '"max_load":1' not in candidates


def test_one_oracle_serves_two_runs_alike(bundle, truths):
    """Two runs from one OracleResult, on fresh transports with one seed,
    give byte-identical reports, and neither adds to the oracle's memo. Two
    run_scenario runs read that same oracle, the scenario's kept one, and
    report the same bytes, leaving its memo as it was too."""
    spec = bundle.scenarios[3]
    oracle = bundle.setup(3).oracle
    memo = oracle.memo
    tables = (memo.pairs, memo.facts, memo.internals, memo.rows)
    sizes = [len(table) for table in tables]
    reports = []
    for _ in range(2):
        ctx = replace(_ctx(bundle, 3, Mode.F5, truths), max_iterations=10)
        transport = NoisyTransport(_mock_bundle(bundle, truths), 5)
        outcome = orchestrate_batch(ctx, transport, MemoryBuffer(), build_knowledge_store(bundle), oracle)
        report = harness._report_from_outcome(
            spec, ctx.mode, transport, 5, oracle, outcome, ctx.max_iterations
        )
        reports.append(json.dumps(report.to_dict(), sort_keys=True))
        assert len(outcome.score_history) > 1
    for _ in range(2):
        transport = NoisyTransport(_mock_bundle(bundle, truths), 5)
        report = run_scenario(bundle, 3, Mode.F5, transport, seed=5, max_iterations=10)
        reports.append(json.dumps(report.to_dict(), sort_keys=True))
    assert bundle.setup(3).oracle is oracle
    assert len(set(reports)) == 1
    assert [len(table) for table in tables] == sizes



@pytest.mark.parametrize("other", ["batch", "intents", "matrix", "registry", "pre"])
def test_a_run_refuses_an_oracle_built_for_other_inputs(bundle, truths, other):
    """The oracle's truths and objective are its own batch's, and its memo
    holds facts about its own intents, matrix, registry and active set, so
    orchestrate_batch refuses an oracle built for others with a ValueError
    before any call: another batch, another intent catalog, another matrix,
    another registry object, even one listing the same profiles, or another
    active set. An equal active set built as a new object, as ctx's is, is
    the run's own and is accepted."""
    ctx = _ctx(bundle, 1, Mode.F5, truths)
    inputs = {
        "batch": [intent.id for intent in ctx.intents],
        "intents": bundle.intents,
        "matrix": bundle.matrix,
        "registry": bundle.registry,
        "pre": ctx.pre,
    }
    inputs[other] = {
        "batch": [1, 5, 6, 7],
        "intents": {**bundle.intents, 1: bundle.intents[2]},
        "matrix": VendorCompatibilityMatrix.of(),
        "registry": Registry(list(bundle.registry)),
        "pre": DeploymentState(),
    }[other]
    candidates = {i: truths[i] for i in inputs["batch"]}
    oracle = max_conflict_free_subset(
        candidates, inputs["pre"], inputs["intents"], inputs["matrix"], inputs["registry"]
    )
    transport = OracleTransport(_mock_bundle(bundle, truths))
    with pytest.raises(ValueError, match="oracle was built for another"):
        orchestrate_batch(ctx, transport, MemoryBuffer(), VectorStore(), oracle)
    assert transport.calls == []

    kept = bundle.setup(1)
    assert kept.pre == ctx.pre and kept.pre is not ctx.pre
    assert [p.intent_id for p in ctx.pre] == [2]
    assert orchestrate_batch(ctx, transport, MemoryBuffer(), VectorStore(), kept.oracle).converged

class IntentSwapTransport(OracleTransport):
    """The oracle backend, except that its answers in one role for intent 3
    name intent_id instead. A swapped revision also lists an edit, so that
    it reads as a real revision."""

    def __init__(self, mock, role: str, intent_id):
        super().__init__(mock)
        self.role = role
        self.intent_id = intent_id

    def _respond(self, request):
        text = super()._respond(request)
        if request.role != self.role or 3 not in _named(self.calls[-1:]):  # this request's record
            return text
        doc = json.loads(text)
        if self.role == REASONING:
            doc["3"]["intent_id"] = self.intent_id
        else:
            doc["3"]["revised_policy"]["intent_id"] = self.intent_id
            doc["3"]["edits"] = [["reorder_stage", "renamed"]]
        return dump_doc(doc)


# 5 is an intent of the catalog outside scenario 1; true equals 1 in Python.
_FOREIGN_INTENT_IDS = [999, "x", True, 5]


@pytest.mark.parametrize("intent_id", _FOREIGN_INTENT_IDS, ids=repr)
def test_reasoning_answer_for_another_intent_fails_the_call(bundle, truths, intent_id):
    """Scenario 1 asks for intents 3 and 4. An answer for 3 that names any
    other intent fails validation twice, so intent 3 is never correct."""
    transport = IntentSwapTransport(_mock_bundle(bundle, truths), REASONING, intent_id)
    report = run_scenario(bundle, 1, Mode.F5, transport, max_iterations=2)
    assert report.generation_accuracy == 0.5
    assert not report.converged
    # Two iterations, each with one repair that asks about intent 3 alone.
    assert [call for call in transport.calls if call[0] == REASONING] == [
        (REASONING, (3, 4)), (REASONING, (3,)), (REASONING, (3,)), (REASONING, (3,)),
    ]


@pytest.mark.parametrize("intent_id", _FOREIGN_INTENT_IDS, ids=repr)
def test_refinement_revision_for_another_intent_keeps_the_candidate(bundle, truths, intent_id):
    """A revision that names another intent fails validation twice; the
    unrefined reference pipeline stays the candidate, so the run converges.
    The repair asks about intent 3 alone."""
    transport = IntentSwapTransport(_mock_bundle(bundle, truths), REFINEMENT, intent_id)
    memory = MemoryBuffer()
    report = run_scenario(bundle, 1, Mode.F5, transport, max_iterations=2, memory=memory)
    assert report.generation_accuracy == 1.0
    assert report.converged
    assert [e.pipeline for e in memory.entries if e.intent.id == 3] == [truths[3]]
    assert [call for call in transport.calls if call[0] == REFINEMENT] == [(REFINEMENT, (3, 4)), (REFINEMENT, (3,))]


# json_values alone draws mostly lists and objects; an id replaced by a
# scalar is the likelier crash, so scalars get half the draws.
_ANY_JSON = json_scalars | json_values


class OneValueTransport(OracleTransport):
    """The oracle backend; half of its answers get one value, anywhere in
    the document, replaced with arbitrary JSON. A reasoning or refinement
    answer, which holds one entry per asked intent, may instead lose one
    entry or gain one under a key of no asked intent."""

    def __init__(self, mock, draw):
        super().__init__(mock)
        self.draw = draw

    def _respond(self, request):
        text = super()._respond(request)
        if not self.draw(st.booleans()):
            return text
        doc = json.loads(text)
        keyed = request.role in (REASONING, REFINEMENT)
        edit = self.draw(st.sampled_from(["value", "drop", "add"] if keyed else ["value"]))
        if edit == "drop":
            del doc[self.draw(st.sampled_from(sorted(doc)))]
        elif edit == "add":
            doc[self.draw(st.sampled_from(["999", "x", "03", ""]))] = self.draw(_ANY_JSON)
        else:
            doc = replace_one_value(self.draw, doc, _ANY_JSON)
        return json.dumps(doc)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    scenario=st.sampled_from([1, 2, 3]),
    mode=st.sampled_from([Mode.F5, Mode.SA, Mode.NP, Mode.FCFS]),
    data=st.data(),
)
def test_any_backend_answer_is_a_counted_failure(bundle, truths, scenario, mode, data):
    """Whatever the backend answers, whole or in part, the run ends with a
    report. Each reasoning request asks about a subset of the intents the
    one before it asked about: a repair asks only about failed entries, and
    a solved intent is not asked again. Each refinement request asks about a
    subset of the intents its iteration's reasoning request asked about."""
    transport = OneValueTransport(_mock_bundle(bundle, truths), data.draw)
    report = run_scenario(bundle, scenario, mode, transport, max_iterations=2)
    assert 0.0 <= report.generation_accuracy <= 1.0
    assert 0.0 <= report.deployment_success <= 1.0
    asked = [set(ids) for role, ids in transport.calls if role == REASONING]
    assert all(later <= earlier for earlier, later in zip(asked, asked[1:]))
    reasoned = set()
    for (role, ids), (previous, _) in zip(transport.calls, [(None, None), *transport.calls]):
        if role == REASONING and previous != REASONING:  # not a repair
            reasoned = set(ids)
        if role == REFINEMENT:
            assert set(ids) <= reasoned
