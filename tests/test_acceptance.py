"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines alongside the pytest output.
"""

from __future__ import annotations

import json
import random
import string
import time

from ranweave.agents import Mode
from ranweave.conflicts import (
    PipelineFacts,
    detect_actuator_contention,
    detect_objective_interference,
    detect_parameter_coupling,
    detect_vendor_conflicts,
    internal_conflicts,
    pairwise_conflicts,
)
from ranweave.harness import run_scenario, validate_fixture_soundness
from ranweave.memory import MemoryBuffer
from ranweave.model import DeploymentState, Pipeline
from ranweave.planner import max_conflict_free_subset
from ranweave.retrieval import chunk_document, chunk_spans, k_schedule
from ranweave.schemas import dump_doc, pipeline_to_policy_doc

from .helpers import (
    brute_actuator_subjects,
    brute_coupling_subjects,
    brute_interference_subjects,
    brute_max_independent_set,
    brute_vendor_pairs,
    decode_policy,
    random_intent,
    random_matrix,
    random_pipeline,
    random_registry,
    reconstruct,
)


def _verdict(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {criterion}: {status}{suffix}")


def test_criterion_01_detector_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(10_001)
    mismatches = 0
    refs = {"a_ref": "1", "b_ref": "2"}
    for _ in range(200):
        registry = random_registry(rng, rng.randint(2, 6))
        matrix = random_matrix(rng)
        intent_a, intent_b = random_intent(rng, 1), random_intent(rng, 2)
        a = random_pipeline(rng, registry, 1, max_nodes=3)
        b = random_pipeline(rng, registry, 2, max_nodes=3)
        inputs_a = PipelineFacts.of(a, intent_a, registry, matrix)
        inputs_b = PipelineFacts.of(b, intent_b, registry, matrix)

        if {r.subject for r in detect_actuator_contention(a, b, **refs)} != brute_actuator_subjects(a, b):
            mismatches += 1
        if {
            r.subject for r in detect_parameter_coupling(inputs_a, inputs_b, **refs)
        } != brute_coupling_subjects(a, b, registry):
            mismatches += 1
        if {
            r.subject for r in detect_objective_interference(inputs_a, intent_a, inputs_b, intent_b, **refs)
        } != brute_interference_subjects(a, intent_a, b, intent_b, registry):
            mismatches += 1
        engine_pairs = {
            (
                next(x for ref, x in record.participants if ref == "1"),
                next(x for ref, x in record.participants if ref == "2"),
            )
            for record in detect_vendor_conflicts(inputs_a, inputs_b, matrix, **refs)
        }
        if engine_pairs != brute_vendor_pairs(a, b, matrix, registry):
            mismatches += 1
    elapsed = time.monotonic() - started
    _verdict(
        "criterion 1 detector oracle equivalence",
        mismatches == 0 and elapsed < 10.0,
        f"{mismatches} mismatches over 200 cases in {elapsed:.2f}s",
    )
    assert mismatches == 0
    assert elapsed < 10.0


def test_criterion_02_max_subset_exactness():
    started = time.monotonic()
    rng = random.Random(20_002)
    mismatches = 0
    for _ in range(100):
        registry = random_registry(rng, rng.randint(4, 8))
        matrix = random_matrix(rng)
        count = rng.randint(2, 10)
        intents = {i: random_intent(rng, i) for i in range(1, count + 1)}
        candidates = {i: random_pipeline(rng, registry, i, max_nodes=3) for i in range(1, count + 1)}

        usable = [
            i for i in candidates if not internal_conflicts(candidates[i], matrix, registry, ref=str(i))
        ]
        edges = set()
        for index, a in enumerate(usable):
            for b in usable[index + 1 :]:
                if pairwise_conflicts(
                    candidates[a], candidates[b], intents, matrix, registry, a_ref=str(a), b_ref=str(b)
                ):
                    edges.add(frozenset((a, b)))
        expected = brute_max_independent_set(usable, edges)
        result = max_conflict_free_subset(candidates, DeploymentState(), intents, matrix, registry)
        if result.objective_value != expected:
            mismatches += 1
    elapsed = time.monotonic() - started
    _verdict(
        "criterion 2 max-subset exactness",
        mismatches == 0 and elapsed < 30.0,
        f"{mismatches} mismatches over 100 graphs in {elapsed:.2f}s",
    )
    assert mismatches == 0
    assert elapsed < 30.0


def test_criterion_03_fixture_soundness_gate(bundle):
    problems = validate_fixture_soundness(bundle)
    objectives = {
        spec.id: bundle.setup(spec.id).oracle.objective_value == len(spec.new_intents)
        for spec in bundle.scenarios.values()
    }
    passed = not problems and all(objectives.values())
    _verdict(
        "criterion 3 fixture soundness gate",
        passed,
        f"problems={problems or 'none'}, full-objective per scenario={objectives}",
    )
    assert problems == []
    assert all(objectives.values())


def test_criterion_04_oracle_transport_convergence(bundle):
    started = time.monotonic()
    failures = []
    for scenario_id in (1, 2, 3, 4):
        for mode in (Mode.F5, Mode.SA, Mode.NR, Mode.NP):
            report = run_scenario(bundle, scenario_id, mode, "mock-oracle", seed=0)
            if not (
                report.generation_accuracy == 1.0
                and report.deployment_success == 1.0
                and report.iterations_to_synthesis == 1
                and report.iterations_to_deployment == 1
            ):
                failures.append((scenario_id, mode.value))
    elapsed = time.monotonic() - started
    _verdict(
        "criterion 4 oracle-transport convergence (non-greedy modes)",
        not failures and elapsed < 5.0,
        f"failures={failures or 'none'} in {elapsed:.2f}s",
    )
    assert failures == []
    assert elapsed < 5.0


def test_criterion_04_fcfs_greedy_shortfall(bundle):
    """Requires FCFS deployment_success < 1.0 on some scenario 2..4 under the
    oracle transport.

    With the fixture gate holding (every scenario's reference pipelines are
    jointly conflict-free, which criterion 3 enforces and scenario 4 makes
    global across all seven intents), greedy order-based deployment of exact
    reference pipelines can never hit a conflict and therefore always reaches
    1.0. The assertion below is kept as stated and is expected to fail; the
    greedy selector's shortfall on actually-conflicting candidates is covered
    by test_fcfs_greedy_is_suboptimal_on_conflicting_candidates.
    """
    successes = {
        scenario_id: run_scenario(bundle, scenario_id, Mode.FCFS, "mock-oracle", seed=0).deployment_success
        for scenario_id in (2, 3, 4)
    }
    shortfall = any(value < 1.0 for value in successes.values())
    _verdict(
        "criterion 4 FCFS greedy shortfall under oracle transport",
        shortfall,
        f"deployment_success={successes}; incompatible with the fixture soundness gate",
    )
    assert shortfall, (
        "FCFS deployed every reference pipeline: with jointly conflict-free "
        f"reference deployments (gate of criterion 3), greedy order cannot fail; got {successes}"
    )


def test_fcfs_greedy_is_suboptimal_on_conflicting_candidates(bundle, truths):
    """The greedy-order selector itself is exercised on a genuinely
    conflicting candidate set: an early candidate that blocks two later ones
    halves FCFS's deployment while exhaustive selection stays optimal."""
    from ranweave.agents import RunContext, _select_deployment
    from ranweave.conflicts import ConflictMemo, evaluate_conflicts
    from ranweave.model import Intent

    blocker = Pipeline.build(2, [("ran_slicing_manager_b", {"slice_quota": "auto"})])
    victim_a = Pipeline.build(5, [("ran_slicing_manager_a", {"slice_quota": "auto"})])
    victim_b = Pipeline.build(
        6, [("ran_slicing_manager_a", {"slice_quota": "auto"}), ("urllc_guard", {"preemption_policy": "auto"})],
        [("ran_slicing_manager_a", "urllc_guard")],
    )
    catalog = dict(bundle.intents)
    catalog[2] = Intent.build(2, "slice via b", target_kpis={"slice_isolation": 1}, required_capabilities=["slice_management"])
    catalog[5] = Intent.build(5, "slice via a", target_kpis={"slice_isolation": 1}, required_capabilities=["slice_management"])
    catalog[6] = Intent.build(6, "slice via a guarded", target_kpis={"slice_isolation": 1}, required_capabilities=["slice_management"])
    candidates = {2: blocker, 5: victim_a, 6: victim_b}

    def ctx_for(mode: Mode) -> RunContext:
        return RunContext(
            mode=mode,
            intents=tuple(catalog[i] for i in (2, 5, 6)),
            pre=DeploymentState(),
            registry=bundle.registry,
            matrix=bundle.matrix,
            intent_catalog=catalog,
        )

    evaluation = evaluate_conflicts(
        candidates, [2, 5, 6], ConflictMemo(catalog, bundle.matrix, bundle.registry, DeploymentState())
    )
    usable, clashes = evaluation.usable, evaluation.clashes
    greedy = _select_deployment(ctx_for(Mode.FCFS), usable, clashes, set())
    optimal = _select_deployment(ctx_for(Mode.F5), usable, clashes, set())
    assert greedy == frozenset({2})
    assert optimal == frozenset({5, 6})
    assert len(greedy) < len(optimal)


def test_criterion_05_monotonic_score_sequences(bundle):
    violations = 0
    for seed in range(1, 21):
        for scenario_id in (1, 2, 3, 4):
            report = run_scenario(bundle, scenario_id, Mode.F5, "mock-noisy", seed=seed)
            history = report.score_history
            if history != sorted(history):
                violations += 1
    _verdict(
        "criterion 5 monotonic improvement",
        violations == 0,
        f"{violations} violating runs out of 80",
    )
    assert violations == 0


def test_criterion_06_ablation_direction(bundle):
    seeds = range(1, 21)
    means: dict[tuple[int, str], float] = {}
    for scenario_id in (1, 4):
        for mode in (Mode.F5, Mode.NR, Mode.SA):
            iterations = [
                run_scenario(bundle, scenario_id, mode, "mock-noisy", seed=seed).iterations_to_deployment
                for seed in seeds
            ]
            means[(scenario_id, mode.value)] = sum(iterations) / len(iterations)
    ordered = all(
        means[(scenario_id, "f5")] < means[(scenario_id, "sa")] for scenario_id in (1, 4)
    )
    _verdict(
        "criterion 6 ablation direction (mean iterations to deployment)",
        ordered,
        ", ".join(
            f"S{scenario_id}: f5={means[(scenario_id, 'f5')]:.1f} nr={means[(scenario_id, 'nr')]:.1f} sa={means[(scenario_id, 'sa')]:.1f}"
            for scenario_id in (1, 4)
        ),
    )
    assert ordered


def test_criterion_07_retrieval_exactness():
    spans_ok = chunk_spans(1000) == [(0, 500), (450, 950), (900, 1000)]
    schedule_ok = k_schedule(1) == 10 and all(k_schedule(i) == 50 for i in range(5, 60))
    rng = random.Random(70_007)
    alphabet = string.ascii_letters + string.digits + " .,\n"
    reconstruction_ok = True
    for _ in range(50):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 4000)))
        if reconstruct(chunk_document("doc", text)) != text:
            reconstruction_ok = False
            break
    passed = spans_ok and schedule_ok and reconstruction_ok
    _verdict(
        "criterion 7 retrieval exactness",
        passed,
        f"spans={spans_ok}, schedule={schedule_ok}, reconstruction={reconstruction_ok}",
    )
    assert passed


def test_criterion_08_run_determinism(bundle):
    """Two runs of one configuration give the same report bytes and equal
    memory entries: intents, pipelines (condition bytes included), flags and
    conflict records, in the same order."""
    configurations = [(2, Mode.F5, 5), (3, Mode.FCFS, 3), (1, Mode.SA, 12)]
    identical = True
    for scenario_id, mode, seed in configurations:
        snapshots = []
        for _ in range(2):
            memory = MemoryBuffer()
            report = run_scenario(bundle, scenario_id, mode, "mock-noisy", seed=seed, memory=memory)
            snapshots.append((json.dumps(report.to_dict(), sort_keys=True).encode(), memory.entries))
        if snapshots[0] != snapshots[1]:
            identical = False
    _verdict("criterion 8 determinism", identical, f"{len(configurations)} paired runs compared")
    assert identical


def test_criterion_09_iteration_cap(bundle):
    from .test_agents import UnregisteredPipelineTransport

    report = run_scenario(bundle, 1, Mode.NP, UnregisteredPipelineTransport(), seed=0)
    passed = not report.converged and report.iterations_to_deployment == 50
    _verdict(
        "criterion 9 iteration cap",
        passed,
        f"converged={report.converged}, iterations={report.iterations_to_deployment}",
    )
    assert not report.converged
    assert report.iterations_to_deployment == 50
    assert report.iterations_to_synthesis == 50


def test_criterion_10_schema_roundtrip():
    rng = random.Random(100_010)
    failures = 0
    for _ in range(500):
        registry = random_registry(rng, rng.randint(2, 8))
        pipeline = random_pipeline(rng, registry, rng.randint(1, 30), max_nodes=5)
        if rng.random() < 0.5:
            pipeline = Pipeline.build(
                pipeline.intent_id,
                [(n.xapp_id, n.directive_map) for n in pipeline.nodes],
                pipeline.edges,
                conditions=dump_doc({"max_load": rng.randint(1, 99), "windows": ["night"]}),
            )
        doc = json.loads(json.dumps(pipeline_to_policy_doc(pipeline)))
        if decode_policy(doc) != pipeline:
            failures += 1
    _verdict("criterion 10 schema round trip", failures == 0, f"{failures} failures out of 500")
    assert failures == 0
