from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranweave.conflicts import (
    ConflictKind,
    ConflictMemo,
    PipelineFacts,
    VendorCompatibilityMatrix,
    build_conflict_graph,
    canonical_sort,
    detect_actuator_contention,
    detect_internal_coupling,
    detect_internal_vendor,
    detect_objective_interference,
    detect_parameter_coupling,
    detect_vendor_conflicts,
    evaluate_conflicts,
    internal_conflicts,
    labelled,
    pairwise_conflicts,
    validity,
)
from ranweave.model import DeploymentState, Intent, Pipeline, Registry, Stage, XAppProfile, stage_chain
from ranweave.planner import max_conflict_free_subset
from ranweave.schemas import conflict_report, dump_doc, parse_perception_doc

from .helpers import (
    DIALECT_POOL,
    PARAM_POOL,
    SparseBatch,
    all_pairs_conflict_graph,
    brute_actuator_subjects,
    brute_coupling_subjects,
    brute_interference_subjects,
    brute_vendor_pairs,
    random_intent,
    random_matrix,
    random_pipeline,
    random_registry,
)

NO_CLASH = VendorCompatibilityMatrix.of()


def _intent(intent_id, **targets) -> Intent:
    return Intent.build(
        intent_id, f"intent {intent_id}", target_kpis=targets, required_capabilities=["any"]
    )


def _inputs(registry: Registry, *pipelines: Pipeline) -> list[PipelineFacts]:
    return [PipelineFacts.of(p, _intent(p.intent_id, kpi=1), registry, NO_CLASH) for p in pipelines]


def test_actuator_contention_on_differing_directives(truths):
    a = Pipeline.build(10, [("traffic_steering_a", {"steering_policy": "load"})])
    b = Pipeline.build(11, [("traffic_steering_a", {"steering_policy": "latency"})])
    records = detect_actuator_contention(a, b, a_ref="10", b_ref="11")
    assert len(records) == 1
    assert records[0].kind is ConflictKind.ACTUATOR_CONTENTION
    assert records[0].subject == "traffic_steering_a"


def test_actuator_sharing_with_identical_directive_is_clean():
    a = Pipeline.build(10, [("wireless_anomaly_detector", {})])
    b = Pipeline.build(11, [("wireless_anomaly_detector", {})])
    assert detect_actuator_contention(a, b, a_ref="10", b_ref="11") == []


def test_actuator_disjoint_nodes_clean():
    a = Pipeline.build(10, [("x", {"p": "1"})])
    b = Pipeline.build(11, [("y", {"p": "2"})])
    assert detect_actuator_contention(a, b, a_ref="10", b_ref="11") == []


def test_parameter_coupling_on_tx_power(bundle):
    a = Pipeline.build(10, [("power_saving_controller", {"tx_power": "auto"})])
    b = Pipeline.build(11, [("uplink_power_control_agent", {"tx_power": "auto"})])
    records = detect_parameter_coupling(*_inputs(bundle.registry, a, b), a_ref="10", b_ref="11")
    assert [r.subject for r in records] == ["tx_power"]


def test_parameter_coupling_disjoint_params_clean(bundle):
    a = Pipeline.build(10, [("massive_mimo_beamformer", {})])
    b = Pipeline.build(11, [("admission_control_manager", {})])
    assert detect_parameter_coupling(*_inputs(bundle.registry, a, b), a_ref="10", b_ref="11") == []


def test_internal_coupling_exempted_by_edge(bundle):
    pipeline = Pipeline.build(
        10,
        [("power_saving_controller", {}), ("uplink_power_control_agent", {})],
        [("power_saving_controller", "uplink_power_control_agent")],
    )
    assert detect_internal_coupling(pipeline, bundle.registry, ref="10") == []


def test_internal_coupling_without_path(bundle):
    pipeline = Pipeline.build(
        10, [("power_saving_controller", {}), ("uplink_power_control_agent", {})], []
    )
    records = detect_internal_coupling(pipeline, bundle.registry, ref="10")
    assert [r.subject for r in records] == ["tx_power"]


def test_objective_interference_scheduler_vs_throughput_intent(bundle, truths):
    latency_pipeline = Pipeline.build(
        30, [("latency_aware_mac_scheduler", {"scheduling_weights": "deadline"})]
    )
    throughput_intent = bundle.intents[5]
    other_intent = _intent(30, latency=-1)
    throughput, latency = _inputs(bundle.registry, truths[5], latency_pipeline)
    records = detect_objective_interference(
        throughput, throughput_intent, latency, other_intent, a_ref="5", b_ref="30"
    )
    assert any(
        r.subject == "throughput" and ("30", "latency_aware_mac_scheduler") in r.participants
        for r in records
    )


def test_objective_interference_aligned_intents_clean(bundle, truths):
    inputs_3, inputs_6 = _inputs(bundle.registry, truths[3], truths[6])
    records = detect_objective_interference(
        inputs_3, bundle.intents[3], inputs_6, bundle.intents[6], a_ref="3", b_ref="6"
    )
    assert records == []


def test_objective_interference_opposed_intent_directions():
    registry = Registry(
        [XAppProfile.build("n", capabilities=["c"], kpi_effects={})],
        kpi_catalog=["kpi"],
    )
    a = Pipeline.build(1, [("n", {})])
    b = Pipeline.build(2, [("n", {})])
    inputs_a, inputs_b = _inputs(registry, a, b)
    records = detect_objective_interference(
        inputs_a, _intent(1, kpi=1), inputs_b, _intent(2, kpi=-1), a_ref="1", b_ref="2"
    )
    assert [r.subject for r in records] == ["kpi"]
    assert {ref for ref, _ in records[0].participants} == {"1", "2"}


def test_vendor_conflict_between_slicing_variants(bundle):
    a = Pipeline.build(10, [("ran_slicing_manager_a", {"slice_quota": "auto"})])
    b = Pipeline.build(11, [("ran_slicing_manager_b", {"slice_quota": "auto"})])
    records = detect_vendor_conflicts(*_inputs(bundle.registry, a, b), bundle.matrix, a_ref="10", b_ref="11")
    assert len(records) == 1
    assert records[0].subject == "slicing-a|slicing-b"


def test_vendor_conflict_requires_contact():
    registry = Registry(
        [
            XAppProfile.build("p", dialect="d1", capabilities=["c1"], controlled_params=["x"]),
            XAppProfile.build("q", dialect="d2", capabilities=["c2"], controlled_params=["y"]),
        ]
    )
    matrix = VendorCompatibilityMatrix.of(("d1", "d2"))
    a = Pipeline.build(1, [("p", {"x": "1"})])
    b = Pipeline.build(2, [("q", {"y": "1"})])
    assert detect_vendor_conflicts(*_inputs(registry, a, b), matrix, a_ref="1", b_ref="2") == []


def test_vendor_conflict_compatible_dialects_clean(bundle, truths):
    records = detect_vendor_conflicts(
        *_inputs(bundle.registry, truths[1], truths[4]), bundle.matrix, a_ref="1", b_ref="4"
    )
    assert records == []


def test_a_matrix_pair_holds_two_distinct_dialects_however_it_is_built():
    """Direct construction meets the rule of of() and from_dict: a pair of
    one dialect or of three is refused, so no dialect clashes with itself."""
    for pair, message in (
        (frozenset({"a"}), "dialect 'a' cannot be incompatible with itself"),
        (frozenset({"b", "c", "d"}), r"an incompatible pair must hold two dialects, found \['b', 'c', 'd'\]"),
    ):
        with pytest.raises(ValueError, match=message):
            VendorCompatibilityMatrix(frozenset({frozenset({"x", "y"}), pair}))
    with pytest.raises(ValueError, match="dialect 'a' cannot be incompatible with itself"):
        VendorCompatibilityMatrix.of(("a", "a"))
    with pytest.raises(ValueError, match=r"must hold two dialects, found \['a', 'b', 'b'\]"):
        VendorCompatibilityMatrix.from_dict({"incompatible": [["a", "b", "b"]]})


def test_internal_vendor_on_adjacent_edge():
    registry = Registry(
        [
            XAppProfile.build("p", dialect="d1", capabilities=["c1"], stage="decide"),
            XAppProfile.build("q", dialect="d2", capabilities=["c2"], stage="act"),
        ]
    )
    matrix = VendorCompatibilityMatrix.of(("d1", "d2"))
    pipeline = Pipeline.build(1, [("p", {}), ("q", {})], [("p", "q")])
    records = detect_internal_vendor(pipeline, matrix, registry, ref="1")
    assert len(records) == 1


def _stage_chain(rng: random.Random) -> tuple[Pipeline, Registry, VendorCompatibilityMatrix]:
    """(chain, registry, matrix): a registry of 1-8 xApps with drawn stages,
    dialects and written parameters, a matrix over the dialects, and the
    stage chain of some of its xApps."""
    registry = Registry(
        XAppProfile.build(
            f"x{k}",
            dialect=rng.choice(DIALECT_POOL),
            capabilities=["any"],
            controlled_params=rng.sample(PARAM_POOL, rng.randint(0, 3)),
            stage=rng.choice(list(Stage)),
        )
        for k in range(rng.randint(1, 8))
    )
    matrix = VendorCompatibilityMatrix.of(
        *((a, b) for i, a in enumerate(DIALECT_POOL) for b in DIALECT_POOL[i + 1 :] if rng.random() < 0.3)
    )
    ordered, edges = stage_chain(rng.sample(registry.ids, rng.randint(1, len(registry))), registry)
    return Pipeline.build(1, [(x, {}) for x in ordered], edges), registry, matrix


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_a_stage_chain_is_clean_exactly_when_no_neighbours_clash(seed):
    """A chain orders every pair of its nodes, so no two writers of a
    parameter are unordered and only its edges' dialects can conflict."""
    chain, registry, matrix = _stage_chain(random.Random(seed))
    dialects = [registry[x].dialect for x in chain.node_ids]
    clash = any(matrix.clashes(a, b) for a, b in zip(dialects, dialects[1:]))
    assert bool(internal_conflicts(chain, matrix, registry, ref="1")) == clash


def test_validity_vacuous_context(bundle, truths):
    ok, records = validity(truths[1], [], bundle.intents, bundle.matrix, bundle.registry)
    assert ok
    assert records == []


def test_validity_blocks_contending_duplicate(bundle, truths):
    contending = Pipeline.build(21, [("ran_slicing_manager_a", {"slice_quota": "strict"})])
    intents = dict(bundle.intents)
    intents[21] = _intent(21, slice_isolation=1)
    ok, records = validity(
        contending, [truths[7]], intents, bundle.matrix, bundle.registry
    )
    assert not ok
    assert records[0].kind is ConflictKind.ACTUATOR_CONTENTION


def test_validity_scenario3_ground_truths_mutually_valid(bundle, truths):
    members = [2, 4, 5, 6, 3, 7]
    for intent_id in members:
        others = [truths[other] for other in members if other != intent_id]
        ok, records = validity(
            truths[intent_id], others, bundle.intents, bundle.matrix, bundle.registry
        )
        assert ok, records


def test_validity_monotone_in_context():
    rng = random.Random(5)
    saw_invalid = False
    for _ in range(40):
        registry = random_registry(rng, 6)
        matrix = random_matrix(rng)
        intents = {i: random_intent(rng, i) for i in range(1, 5)}
        target = random_pipeline(rng, registry, 1)
        others = [random_pipeline(rng, registry, i) for i in (2, 3)]
        extra = [random_pipeline(rng, registry, 4)]
        ok_small, _ = validity(target, others, intents, matrix, registry)
        ok_large, _ = validity(target, others + extra, intents, matrix, registry)
        if not ok_small:
            saw_invalid = True
            assert not ok_large
    assert saw_invalid


def test_symmetry_of_pairwise_detectors():
    rng = random.Random(17)
    for _ in range(50):
        registry = random_registry(rng, 6)
        matrix = random_matrix(rng)
        intents = {1: random_intent(rng, 1), 2: random_intent(rng, 2)}
        a = random_pipeline(rng, registry, 1)
        b = random_pipeline(rng, registry, 2)
        forward = pairwise_conflicts(a, b, intents, matrix, registry, a_ref="1", b_ref="2")
        backward = pairwise_conflicts(b, a, intents, matrix, registry, a_ref="2", b_ref="1")
        assert {(r.kind, r.subject, r.participants) for r in forward} == {
            (r.kind, r.subject, r.participants) for r in backward
        }


REFS = st.text(max_size=6)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    same_intent=st.booleans(),
    refs=st.tuples(REFS, REFS, REFS, REFS),
)
def test_pairwise_conflict_verdict_ignores_order_and_refs(seed, same_intent, refs):
    """Whether two pipelines conflict depends on neither argument order nor refs."""
    rng = random.Random(seed)
    registry = random_registry(rng, rng.randint(2, 8))
    matrix = random_matrix(rng)
    intents = {1: random_intent(rng, 1), 2: random_intent(rng, 2)}
    a = random_pipeline(rng, registry, 1)
    b = random_pipeline(rng, registry, 1 if same_intent else 2)
    ref_1, ref_2, ref_3, ref_4 = refs
    verdict = bool(pairwise_conflicts(a, b, intents, matrix, registry, a_ref="1", b_ref="2"))
    assert bool(
        pairwise_conflicts(a, b, intents, matrix, registry, a_ref=ref_1, b_ref=ref_2)
    ) is verdict
    assert bool(
        pairwise_conflicts(b, a, intents, matrix, registry, a_ref=ref_3, b_ref=ref_4)
    ) is verdict


def test_validity_decomposes_into_detectors(bundle, truths):
    target = Pipeline.build(
        20,
        [("power_saving_controller", {"tx_power": "min"}), ("uplink_power_control_agent", {"tx_power": "max"})],
    )
    intents = dict(bundle.intents)
    intents[20] = _intent(20, energy_efficiency=1)
    others = [truths[5]]
    ok, records = validity(target, others, intents, bundle.matrix, bundle.registry)
    rebuilt = detect_internal_coupling(target, bundle.registry, ref="20")
    rebuilt += detect_internal_vendor(target, bundle.matrix, bundle.registry, ref="20")
    rebuilt += pairwise_conflicts(
        target, truths[5], intents, bundle.matrix, bundle.registry, a_ref="20", b_ref="pre:5"
    )
    assert not ok
    assert sorted(r.sort_key() for r in records) == sorted(r.sort_key() for r in rebuilt)


def test_detector_output_is_deterministic():
    rng = random.Random(3)
    registry = random_registry(rng, 6)
    matrix = random_matrix(rng)
    intents = {1: random_intent(rng, 1), 2: random_intent(rng, 2)}
    a = random_pipeline(rng, registry, 1)
    b = random_pipeline(rng, registry, 2)
    first = pairwise_conflicts(a, b, intents, matrix, registry, a_ref="1", b_ref="2")
    second = pairwise_conflicts(a, b, intents, matrix, registry, a_ref="1", b_ref="2")
    assert [r.to_dict() for r in first] == [r.to_dict() for r in second]


def test_conflict_graph_empty_for_disjoint_aligned_pipelines(bundle, truths):
    memo = ConflictMemo(bundle.intents, bundle.matrix, bundle.registry, DeploymentState())
    graph = build_conflict_graph({3: truths[3], 5: truths[5]}, memo)
    assert graph.edges == ()
    assert set(graph.vertices) == {"3", "5"}


def test_conflict_graph_single_candidate(bundle, truths):
    memo = ConflictMemo(bundle.intents, bundle.matrix, bundle.registry, DeploymentState())
    graph = build_conflict_graph({1: truths[1]}, memo)
    assert graph.vertices == ("1",)
    assert graph.edges == ()


def test_conflict_graph_matches_pairwise_union(bundle, truths):
    candidates = {i: truths[i] for i in (1, 2, 3, 4, 5, 6, 7)}
    pre = DeploymentState((truths[2],))
    graph = build_conflict_graph(candidates, ConflictMemo(bundle.intents, bundle.matrix, bundle.registry, pre))
    for (ref_a, ref_b), records in graph.edges:
        assert records
        assert {ref_a, ref_b} <= set(graph.vertices)
    # ground truths are mutually clean; the only possible edges involve pre-copies
    assert all("pre:" in ref_a or "pre:" in ref_b for (ref_a, ref_b), _ in graph.edges)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), crowded=st.booleans())
def test_gated_graph_equals_the_all_pairs_loop(seed, crowded):
    """Over rounds that replace a random subset of the candidates, the
    key-gated graph, built fresh or through one shared ConflictMemo, equals
    the all-pairs loop edge for edge and record for record; and validity
    equals its ungated sum of detectors. A crowded batch's active set
    outnumbers its candidates and conflicts within itself. Between rounds
    the shared memo may be swapped for its copy; a memo holds one active
    set, so a round that swaps the active set for a new object, equal or
    with one pipeline redrawn, starts a new memo."""
    batch = SparseBatch.draw(random.Random(seed), crowded)
    rng, intents, matrix, registry = batch.rng, batch.intents, batch.matrix, batch.registry
    memo = ConflictMemo(intents, matrix, registry, batch.pre)
    for _ in range(rng.randint(1, 4)):
        expected = all_pairs_conflict_graph(batch.candidates, batch.pre, intents, matrix, registry)
        fresh = ConflictMemo(intents, matrix, registry, batch.pre)
        assert build_conflict_graph(batch.candidates, fresh) == expected
        assert build_conflict_graph(batch.candidates, memo) == expected
        assert all((ref, replace(p)) in memo.rows for ref, p in labelled(batch.candidates, batch.pre))
        for intent_id in batch.candidates:
            if rng.random() < 0.5:
                batch.candidates[intent_id] = batch.pipeline(intent_id)
        if rng.random() < 0.5:
            memo = memo.copy()
        roll = rng.random()
        if roll < 0.2:
            batch.pre = DeploymentState(batch.pre.active)
            memo = ConflictMemo(intents, matrix, registry, batch.pre)
        elif roll < 0.4 and batch.pre.active:
            active = list(batch.pre.active)
            k = rng.randrange(len(active))
            active[k] = batch.pipeline(active[k].intent_id)
            batch.pre = DeploymentState(tuple(active))
            memo = ConflictMemo(intents, matrix, registry, batch.pre)
    for intent_id, pipeline in batch.candidates.items():
        ref = str(intent_id)
        ungated = internal_conflicts(pipeline, matrix, registry, ref=ref)
        for other_ref, other in labelled({}, batch.pre):
            ungated += pairwise_conflicts(pipeline, other, intents, matrix, registry, a_ref=ref, b_ref=other_ref)
        assert validity(pipeline, batch.pre, intents, matrix, registry) == (not ungated, canonical_sort(ungated))


def _tables(memo: ConflictMemo) -> tuple:
    return (memo.pairs, memo.facts, memo.internals, memo.rows)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_a_memo_seeded_from_the_oracle_equals_fresh_evaluations(seed):
    """Rounds start from a copy of the memo max_conflict_free_subset returns.
    Between rounds some candidates get a new object of a new value, others
    a new object equal to the old one, others an object they held before.
    Through the shared memo,
    evaluate_conflicts equals a fresh call field for field, its records
    hold each eligible candidate's internal conflicts, the copy holds a
    row under an equal new object of every candidate it evaluated, and the
    oracle's memo keeps exactly the entries it had."""
    batch = SparseBatch.draw(random.Random(seed))
    rng, intents, matrix, registry = batch.rng, batch.intents, batch.matrix, batch.registry
    oracle = max_conflict_free_subset(batch.candidates, batch.pre, intents, matrix, registry)
    seeded = tuple(map(dict, _tables(oracle.memo)))
    memo = oracle.memo.copy()
    held = {intent_id: [pipeline] for intent_id, pipeline in batch.candidates.items()}
    for _ in range(rng.randint(1, 4)):
        eligible = [i for i in sorted(batch.candidates) if rng.random() < 0.8]
        args = (batch.candidates, eligible)
        fresh = evaluate_conflicts(*args, ConflictMemo(intents, matrix, registry, batch.pre))
        assert evaluate_conflicts(*args, memo) == fresh
        for intent_id in eligible:
            own = internal_conflicts(batch.candidates[intent_id], matrix, registry, ref=str(intent_id))
            assert set(own) <= set(fresh.records)
            assert (intent_id in fresh.usable) <= (not own)
        for intent_id, pipeline in batch.candidates.items():
            roll = rng.random()
            if roll < 0.4:
                batch.candidates[intent_id] = batch.pipeline(intent_id)
            elif roll < 0.6:
                batch.candidates[intent_id] = replace(pipeline)
            elif roll < 0.8:
                batch.candidates[intent_id] = rng.choice(held[intent_id])
            held[intent_id].append(batch.candidates[intent_id])
    # The last pipeline held per intent was drawn after the last evaluation.
    evaluated = [(str(i), p) for i, pipelines in held.items() for p in pipelines[:-1]]
    assert all((ref, replace(p)) in memo.rows for ref, p in evaluated)
    assert _tables(oracle.memo) == seeded


def test_a_candidate_that_comes_back_to_an_earlier_object_is_not_checked_again(bundle, truths, monkeypatch):
    """X -> Y -> X -> Y: the memo keeps an entry per value, so once both
    values have been met, neither is checked again under its ref: no
    pairwise_conflicts, no internal_conflicts and no PipelineFacts.of. The
    active intent-2 pipeline gives X's first xApp another directive, so
    the gate lets one pair of each value through."""
    from ranweave import conflicts

    calls: list[str] = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for name in ("pairwise_conflicts", "internal_conflicts"):
        monkeypatch.setattr(conflicts, name, counted(name, getattr(conflicts, name)))
    of = classmethod(counted("PipelineFacts.of", conflicts.PipelineFacts.of.__func__))
    monkeypatch.setattr(conflicts.PipelineFacts, "of", of)
    x = truths[1]
    rival = Pipeline.build(2, [(x.nodes[0].xapp_id, {"mode": "boost"})])
    pre = DeploymentState((rival, *(truths[i] for i in (3, 4, 5, 6, 7))))
    memo = ConflictMemo(bundle.intents, bundle.matrix, bundle.registry, pre)
    y = Pipeline.build(1, [(n.xapp_id, n.directive_map) for n in x.nodes], x.edges, dump_doc({"max_load": 1}))
    met = []
    for candidate in (x, y, x, y):
        calls.clear()
        evaluate_conflicts({1: candidate}, [1], memo)
        met.append(sorted(set(calls)))
    assert met[0] == met[1] == ["PipelineFacts.of", "internal_conflicts", "pairwise_conflicts"]
    assert met[2] == met[3] == []


def test_a_second_evaluation_against_one_active_set_meets_only_the_candidate_pairs(monkeypatch):
    """evaluate_conflicts twice with one memo, the same candidate objects and
    the same DeploymentState object: the memo keeps every batch member's row
    against that object, so the second call gates no candidate against the
    active set again and makes at most one PipelineFacts.meets per candidate
    pair. Crowded batches hold 5-10 active pipelines."""
    meetings = 0
    meets = PipelineFacts.meets

    def counted(self, other):
        nonlocal meetings
        meetings += 1
        return meets(self, other)

    monkeypatch.setattr(PipelineFacts, "meets", counted)
    for seed in range(20):
        batch = SparseBatch.draw(random.Random(seed), crowded=seed % 2 == 1)
        memo = ConflictMemo(batch.intents, batch.matrix, batch.registry, batch.pre)
        args = (batch.candidates, sorted(batch.candidates))
        first = evaluate_conflicts(*args, memo)
        meetings = 0
        assert evaluate_conflicts(*args, memo) == first
        n = len(batch.candidates)
        assert meetings <= n * (n - 1) // 2, (seed, meetings)


def test_an_equal_copy_finds_every_memo_entry_and_condition_bytes_key_apart(bundle, truths):
    """The memo keys its four tables by pipeline value: a new object equal
    to a met pipeline finds its facts, pair, internal and row entries and
    adds none. 1, 1.0 and true render as three different condition bytes,
    so those pipelines are three values with entries of their own; a copy
    finds the entries the memo had, and keeps the ones it adds."""
    memo = ConflictMemo(bundle.intents, bundle.matrix, bundle.registry, DeploymentState((truths[2],)))
    nodes = [(node.xapp_id, node.directive_map) for node in truths[1].nodes]
    as_int, as_float, as_bool = (
        Pipeline.build(1, nodes, truths[1].edges, dump_doc({"max_load": v})) for v in (1, 1.0, True)
    )
    assert len({as_int, as_float, as_bool}) == 3

    def meet(pipeline: Pipeline, memo: ConflictMemo) -> tuple:
        return (
            memo.facts_of(pipeline),
            memo.pair("1", pipeline, "pre:2", truths[2]),
            memo.internal("1", pipeline),
            memo.row("1", pipeline),
        )

    def sizes(memo: ConflictMemo) -> list[int]:
        return [len(table) for table in (memo.facts, memo.pairs, memo.internals, memo.rows)]

    met = meet(as_int, memo)
    before = sizes(memo)
    again = meet(replace(as_int), memo)
    assert again == met and again[0] is met[0] and sizes(memo) == before
    meet(as_float, memo)
    meet(as_bool, memo)
    assert sizes(memo) == [n + 2 for n in before]
    twin = memo.copy()
    assert meet(replace(as_bool), twin)[0] is memo.facts[as_bool] and sizes(twin) == sizes(memo)
    other = Pipeline.build(1, nodes[:1])
    meet(other, twin)
    assert other not in memo.facts and sizes(twin) == [n + 1 for n in sizes(memo)]


def _keys(batch: SparseBatch, pipeline: Pipeline) -> PipelineFacts:
    return PipelineFacts.of(pipeline, batch.intents[pipeline.intent_id], batch.registry, batch.matrix)


def _reach(batch: SparseBatch, pipeline: Pipeline) -> set[str]:
    """The untyped gate the typed keys replaced: node xApp ids, registered
    xApps' written parameters and moved KPIs, and the intent's target KPIs."""
    names = {kpi for kpi, _ in batch.intents[pipeline.intent_id].target_kpis}
    for node in pipeline.nodes:
        names.add(node.xapp_id)
        profile = batch.registry.get(node.xapp_id)
        if profile is not None:
            names |= profile.controlled_params
            names.update(kpi for kpi, direction in profile.kpi_effects if direction)
    return names


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), crowded=st.booleans())
def test_conflicting_pipelines_have_meeting_keys(seed, crowded):
    """The gate's premise: whenever pairwise_conflicts returns a record, in
    either argument order, the two pipelines' PipelineFacts meet. And the
    gate is exact where no xApp repeats: when neither pipeline holds one
    xApp twice, they meet only if pairwise_conflicts returns a record."""
    batch = SparseBatch.draw(random.Random(seed), crowded)
    intents, matrix, registry = batch.intents, batch.matrix, batch.registry
    labelled_batch = labelled(batch.candidates, batch.pre)
    for i, (ref_a, a) in enumerate(labelled_batch):
        for ref_b, b in labelled_batch[i + 1 :]:
            forward = pairwise_conflicts(a, b, intents, matrix, registry, a_ref=ref_a, b_ref=ref_b)
            backward = pairwise_conflicts(b, a, intents, matrix, registry, a_ref=ref_b, b_ref=ref_a)
            meets = _keys(batch, a).meets(_keys(batch, b))
            if forward or backward:
                assert meets
            if len(set(a.node_ids)) == len(a.node_ids) and len(set(b.node_ids)) == len(b.node_ids):
                assert meets == bool(forward)


def test_sparse_batches_hold_every_case_the_gate_meets():
    """The draws of the properties above: pairs the gate skips and
    conflicting pairs are both common, and unregistered xApps, repeated
    nodes, dangling edges, an active pipeline sharing a candidate's intent
    and, in crowded batches, conflicts within the active set all occur. The
    typed keys let through no pair whose reaches are disjoint, and fewer
    pairs in all."""
    pairs = skipped = conflicting = passed = reached = 0
    seen = set()
    for seed in range(100):
        crowded = seed % 2 == 1
        batch = SparseBatch.draw(random.Random(seed), crowded)
        intents, registry = batch.intents, batch.registry
        labelled_batch = labelled(batch.candidates, batch.pre)
        for i, (ref_a, a) in enumerate(labelled_batch):
            keys_a, reach_a = _keys(batch, a), _reach(batch, a)
            for ref_b, b in labelled_batch[i + 1 :]:
                meets = keys_a.meets(_keys(batch, b))
                shares = not reach_a.isdisjoint(_reach(batch, b))
                assert shares or not meets
                pairs += 1
                passed += meets
                reached += shares
                records = pairwise_conflicts(a, b, intents, batch.matrix, registry, a_ref=ref_a, b_ref=ref_b)
                conflicting += bool(records)
                skipped += not meets
                if records and crowded and ref_a.startswith("pre:"):
                    seen.add("active conflict")
        for _, p in labelled_batch:
            if any(x not in registry for x in p.node_ids):
                seen.add("unregistered")
            if len(set(p.node_ids)) < len(p.node_ids):
                seen.add("repeated")
            if any(not {a, b} <= set(p.node_ids) for a, b in p.edges):
                seen.add("dangling")
        if any(p.intent_id in batch.candidates for p in batch.pre):
            seen.add("shared intent")
    assert seen == {"unregistered", "repeated", "dangling", "shared intent", "active conflict"}
    assert skipped > pairs / 4 and conflicting > pairs / 4, (pairs, skipped, conflicting)
    assert passed < reached, (passed, reached)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_conflict_lists_and_graph_come_in_canonical_order(seed):
    """The order contract no caller re-sorts: pairwise_conflicts and
    internal_conflicts return canonical lists, labelled gives the batch in
    ref order, and build_conflict_graph's vertices are labelled's refs and
    its edges come in ref order. Ids reach past 9, so string and integer
    order differ, and active pipelines may share a candidate's intent."""
    rng = random.Random(seed)
    registry = random_registry(rng, rng.randint(3, 10))
    matrix = random_matrix(rng)
    ids = rng.sample(range(1, 25), rng.randint(1, 7))
    pre_ids = rng.sample(range(1, 25), rng.randint(0, 3))
    intents = {i: random_intent(rng, i) for i in set(ids) | set(pre_ids)}
    candidates = {i: random_pipeline(rng, registry, i) for i in ids}
    pre = DeploymentState(tuple(random_pipeline(rng, registry, i, max_nodes=2) for i in pre_ids))

    batch = labelled(candidates, pre)
    for ref_a, a in batch:
        own = internal_conflicts(a, matrix, registry, ref=ref_a)
        assert own == canonical_sort(own)
        for ref_b, b in batch:
            records = pairwise_conflicts(a, b, intents, matrix, registry, a_ref=ref_a, b_ref=ref_b)
            assert records == canonical_sort(records)

    refs = [ref for ref, _ in batch]
    assert refs == sorted(refs)
    assert dict(batch) == {str(i): p for i, p in candidates.items()} | {f"pre:{p.intent_id}": p for p in pre}
    graph = build_conflict_graph(candidates, ConflictMemo(intents, matrix, registry, pre))
    assert graph.vertices == tuple(refs)
    edge_refs = [pair for pair, _ in graph.edges]
    assert edge_refs == sorted(edge_refs)
    assert all(ref_a < ref_b for ref_a, ref_b in edge_refs)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_every_record_parses_back_and_validity_matches_the_evaluation(seed):
    """Each record of validity, build_conflict_graph and evaluate_conflicts
    survives a round trip through the perception report, so no record names
    fewer than two participants; and validity(p, others) finds a conflict
    exactly when evaluate_conflicts, with others as the active set, leaves p
    unusable. Ids come from a small pool, so an active pipeline often shares
    a candidate's intent."""
    rng = random.Random(seed)
    registry = random_registry(rng, rng.randint(2, 8))
    matrix = random_matrix(rng)
    ids = rng.sample(range(1, 7), rng.randint(1, 4))
    pre_ids = rng.sample(range(1, 7), rng.randint(0, 3))
    intents = {i: random_intent(rng, i) for i in set(ids) | set(pre_ids)}
    candidates = {i: random_pipeline(rng, registry, i) for i in ids}
    pre = DeploymentState(tuple(random_pipeline(rng, registry, i) for i in pre_ids))

    def survives(records):
        records = canonical_sort(records)
        assert list(parse_perception_doc(dump_doc(conflict_report(records))).records) == records

    survives(build_conflict_graph(candidates, ConflictMemo(intents, matrix, registry, pre)).all_records())
    survives(evaluate_conflicts(candidates, sorted(ids), ConflictMemo(intents, matrix, registry, pre)).records)
    for intent_id, pipeline in candidates.items():
        ok, records = validity(pipeline, pre, intents, matrix, registry)
        survives(records)
        fresh = ConflictMemo(intents, matrix, registry, pre)
        alone = evaluate_conflicts({intent_id: pipeline}, [intent_id], fresh)
        assert ok is (intent_id in alone.usable)


def test_brute_force_oracle_equivalence_small():
    rng = random.Random(41)
    for _ in range(60):
        registry = random_registry(rng, 6)
        matrix = random_matrix(rng)
        intent_a, intent_b = random_intent(rng, 1), random_intent(rng, 2)
        a = random_pipeline(rng, registry, 1)
        b = random_pipeline(rng, registry, 2)
        inputs_a, inputs_b = _inputs(registry, a, b)

        assert {
            r.subject for r in detect_actuator_contention(a, b, a_ref="1", b_ref="2")
        } == brute_actuator_subjects(a, b)
        assert {
            r.subject for r in detect_parameter_coupling(inputs_a, inputs_b, a_ref="1", b_ref="2")
        } == brute_coupling_subjects(a, b, registry)
        assert {
            r.subject
            for r in detect_objective_interference(inputs_a, intent_a, inputs_b, intent_b, a_ref="1", b_ref="2")
        } == brute_interference_subjects(a, intent_a, b, intent_b, registry)
        engine_pairs = {
            (next(x for ref, x in r.participants if ref == "1"),
             next(x for ref, x in r.participants if ref == "2"))
            for r in detect_vendor_conflicts(inputs_a, inputs_b, matrix, a_ref="1", b_ref="2")
        }
        assert engine_pairs == brute_vendor_pairs(a, b, matrix, registry)
