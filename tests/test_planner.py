from __future__ import annotations

import json
import random
from dataclasses import replace
from itertools import combinations, groupby
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranweave import planner
from ranweave.agents import Mode, RunContext, _select_deployment
from ranweave.conflicts import (
    ConflictMemo,
    VendorCompatibilityMatrix,
    evaluate_conflicts,
    internal_conflicts,
    validity,
)
from ranweave.model import DeploymentState, Intent, Pipeline, Registry, Stage, XAppProfile
from ranweave.planner import (
    InfeasibleIntentError,
    SolutionScore,
    max_conflict_free_subset,
    refine_pipeline,
    score_solution,
    select_subset,
    synthesize_ground_truth,
)

from .helpers import (
    CAP_POOL,
    DIALECT_POOL,
    KPI_POOL,
    PARAM_POOL,
    PERFBENCH,
    brute_best_subset,
    brute_ground_truth,
    brute_refinement,
    clique_best_subset,
    random_intent,
    random_matrix,
    random_pipeline,
    random_registry,
)

NO_CLASH = VendorCompatibilityMatrix.of()


def test_ground_truth_intent_1_is_predictor_into_steering_a(bundle, truths):
    assert truths[1].node_ids == ("mobility_predictor", "traffic_steering_a")
    assert truths[1].edges == frozenset({("mobility_predictor", "traffic_steering_a")})


def test_ground_truth_intent_7_uses_vendor_a_never_b(bundle, truths):
    assert "ran_slicing_manager_a" in truths[7].node_ids
    assert "ran_slicing_manager_b" not in truths[7].node_ids


def test_infeasible_intent_raises(bundle):
    hopeless = Intent.build(
        99, "impossible objective", target_kpis={"latency": -1},
        required_capabilities=["quantum_teleportation"],
    )
    with pytest.raises(InfeasibleIntentError):
        synthesize_ground_truth(hopeless, bundle.registry, bundle.matrix)


def test_ground_truth_is_registry_order_insensitive(bundle):
    reversed_registry = Registry(list(bundle.registry)[::-1], bundle.registry.kpi_catalog)
    for intent in bundle.intents.values():
        a = synthesize_ground_truth(intent, bundle.registry, bundle.matrix)
        b = synthesize_ground_truth(intent, reversed_registry, bundle.matrix)
        assert a == b


def test_ground_truth_is_idempotent(bundle):
    for intent in bundle.intents.values():
        first = synthesize_ground_truth(intent, bundle.registry, bundle.matrix)
        second = synthesize_ground_truth(intent, bundle.registry, bundle.matrix)
        assert first == second


def test_ground_truths_are_internally_clean(bundle, truths):
    for pipeline in truths.values():
        assert internal_conflicts(pipeline, bundle.matrix, bundle.registry, ref=str(pipeline.intent_id)) == []


def _abc_candidates():
    """Three single-node pipelines where A and B contend on one xApp."""
    registry = Registry(
        [
            XAppProfile.build("shared", capabilities=["c1"], controlled_params=["p"]),
            XAppProfile.build("solo", capabilities=["c2"], controlled_params=["q"]),
        ]
    )
    intents = {
        1: Intent.build(1, "a", target_kpis={"latency": -1}, required_capabilities=["c1"]),
        2: Intent.build(2, "b", target_kpis={"latency": -1}, required_capabilities=["c1"]),
        3: Intent.build(3, "c", target_kpis={"latency": -1}, required_capabilities=["c2"]),
    }
    candidates = {
        1: Pipeline.build(1, [("shared", {"p": "one"})]),
        2: Pipeline.build(2, [("shared", {"p": "two"})]),
        3: Pipeline.build(3, [("solo", {"q": "x"})]),
    }
    return registry, intents, candidates


def test_max_subset_all_compatible(bundle, truths):
    candidates = {i: truths[i] for i in (3, 4, 5)}
    result = max_conflict_free_subset(
        candidates, DeploymentState(), bundle.intents, bundle.matrix, bundle.registry
    )
    assert result.max_subset == frozenset({3, 4, 5})
    assert result.objective_value == 3


def test_max_subset_single_conflict_pair_prefers_low_ids():
    registry, intents, candidates = _abc_candidates()
    result = max_conflict_free_subset(candidates, DeploymentState(), intents, NO_CLASH, registry)
    assert result.max_subset == frozenset({1, 3})
    assert result.objective_value == 2


def test_max_subset_all_pairs_conflicting_picks_lowest_singleton():
    registry = Registry([XAppProfile.build("shared", capabilities=["c"], controlled_params=["p"])])
    intents = {
        i: Intent.build(i, f"intent {i}", target_kpis={"latency": -1}, required_capabilities=["c"])
        for i in (1, 2, 3)
    }
    candidates = {
        i: Pipeline.build(i, [("shared", {"p": f"mode{i}"})]) for i in (1, 2, 3)
    }
    result = max_conflict_free_subset(candidates, DeploymentState(), intents, NO_CLASH, registry)
    assert result.max_subset == frozenset({1})


def test_max_subset_empty_candidates(bundle):
    result = max_conflict_free_subset(
        {}, DeploymentState(), bundle.intents, bundle.matrix, bundle.registry
    )
    assert result.max_subset == frozenset()
    assert result.objective_value == 0


def test_max_subset_respects_pre_deployed(bundle, truths):
    contending = Pipeline.build(
        1, [("ran_slicing_manager_b", {"slice_quota": "auto"})]
    )
    intents = dict(bundle.intents)
    intents[1] = Intent.build(
        1, "slicing via b", target_kpis={"slice_isolation": 1}, required_capabilities=["slice_management"]
    )
    result = max_conflict_free_subset(
        {1: contending, 2: truths[2]},
        DeploymentState((truths[7],)),
        intents,
        bundle.matrix,
        bundle.registry,
    )
    assert result.max_subset == frozenset({2})


def test_max_subset_candidate_cap():
    # There is none. 20 candidates set one parameter to one of three values,
    # by id mod 3; those that differ clash. Ids 1, 4, .., 19 and 2, 5, .., 20
    # tie at seven members, and the smaller id sequence wins.
    registry = Registry([XAppProfile.build("shared", capabilities=["c"], controlled_params=["p"])])
    intents = {
        i: Intent.build(i, f"intent {i}", target_kpis={"latency": -1}, required_capabilities=["c"])
        for i in range(1, 21)
    }
    candidates = {i: Pipeline.build(i, [("shared", {"p": f"mode{i % 3}"})]) for i in intents}
    result = max_conflict_free_subset(candidates, DeploymentState(), intents, NO_CLASH, registry)
    assert result.max_subset == frozenset(range(1, 21, 3))


def test_score_perfect_solution(truths):
    proposed = {i: truths[i] for i in (3, 4)}
    score = score_solution(proposed, {3, 4}, {3, 4}, conflict_total=0)
    assert score == SolutionScore(2, 2, 2, 0, -(truths[3].size() + truths[4].size()))


_DIALECT_PAIRS = [(a, b) for i, a in enumerate(DIALECT_POOL) for b in DIALECT_POOL[i + 1 :]]


@st.composite
def _cover_problems(draw):
    """(intent, registry, matrix, cap) for the cover search, cap a MAX_COVER of 1 to 5.

    Up to 12 random xApps in shuffled insertion order, mandatory xApps, and
    now and then an unregistered mandatory xApp or an unoffered capability.
    A forced-spacer problem turns two xApps into the only holders of the
    intent's two capabilities, a sense-stage and an act-stage one whose
    dialects clash, so every feasible cover needs a third xApp between them
    that covers nothing. A sparse problem has 13 to 20 xApps of which at
    most four hold any of the intent's capabilities, so the mandatory xApps
    and the spacers mostly hold none: the regime where the walk passes runs
    of zero-mask positions over whole.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    sparse = rng.random() < 0.35
    size = rng.randint(13, 20) if sparse else rng.randint(2, 12)
    profiles = draw(st.permutations(list(random_registry(rng, size))))
    pairs = rng.sample(_DIALECT_PAIRS, rng.randint(0, 2))
    capabilities = rng.sample(CAP_POOL, rng.randint(1, 4))
    spacer = rng.random() < 0.3
    if spacer:
        ends = rng.sample(range(len(profiles)), 2)
        dialects = rng.choice(_DIALECT_PAIRS)
        pairs.append(dialects)
        capabilities = ["bridge-a", "bridge-b"]
        for index, stage, dialect, capability in zip(ends, (Stage.SENSE, Stage.ACT), dialects, capabilities):
            profiles[index] = replace(
                profiles[index], stage=stage, dialect=dialect,
                capabilities=profiles[index].capabilities | {capability},
            )
    if sparse:
        holders = set(ends) if spacer else set(rng.sample(range(len(profiles)), rng.randint(1, 4)))
        for index, profile in enumerate(profiles):
            held = profile.capabilities - set(capabilities)
            if index in holders:
                held = profile.capabilities | {rng.choice(capabilities)}
            profiles[index] = replace(profile, capabilities=held or frozenset({"filler"}))
    if rng.random() < 0.1:
        capabilities.append("unoffered")
    mandatory = rng.sample([p.id for p in profiles], rng.randint(0, 1 if spacer else 2))
    if rng.random() < 0.1:
        mandatory.append("unregistered")
    intent = Intent.build(
        1, "cover me", target_kpis={"latency": -1},
        required_capabilities=capabilities, required_xapps=mandatory,
    )
    registry = Registry(profiles, KPI_POOL)
    return intent, registry, VendorCompatibilityMatrix.of(*pairs), rng.randint(2 if spacer else 1, 5)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(problem=_cover_problems())
def test_cover_search_matches_level_scan_reference(problem):
    """The pruned walk returns the level scan's pipeline, or fails as it does,
    under each cap: a smaller MAX_COVER makes more intents infeasible."""
    intent, registry, matrix, cap = problem
    expected = brute_ground_truth(intent, registry, matrix, cap)
    with mock.patch.object(planner, "MAX_COVER", cap):
        if expected is None:
            with pytest.raises(InfeasibleIntentError):
                synthesize_ground_truth(intent, registry, matrix)
        else:
            assert synthesize_ground_truth(intent, registry, matrix) == expected


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_the_cover_walk_yields_the_covering_combinations_in_order(data):
    """_covers over sparse masks yields exactly the position tuples that
    combinations() meets, size by size, whose masks hold every bit and that
    hold every mandatory position, in the order it meets them."""
    n = data.draw(st.integers(0, 14))
    bits = data.draw(st.integers(0, 3))
    masks = data.draw(
        st.dictionaries(st.integers(0, n - 1), st.integers(1, (1 << bits) - 1), max_size=4)
        if n and bits
        else st.just({})
    )
    mandatory = data.draw(st.sets(st.integers(0, n - 1), max_size=2) if n else st.just(set()))
    sizes = range(data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4)) + 1)
    full = (1 << bits) - 1
    expected = [
        combo
        for size in sizes
        for combo in combinations(range(n), size)
        if mandatory <= set(combo) and _union(masks, combo) == full
    ]
    assert list(planner._covers(masks, n, full, mandatory, sizes)) == expected


def _union(masks, positions) -> int:
    union = 0
    for p in positions:
        union |= masks.get(p, 0)
    return union


@pytest.mark.parametrize("bridged", [False, True], ids=["plain", "bridged"])
def test_cover_search_matches_the_reference_on_wide_catalogs(monkeypatch, bridged):
    """Every intent of a generated 50-xApp catalog; a bridged one needs a spacer."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from wide_catalog import generate_catalog

    catalog = generate_catalog(7, bridged=bridged)
    spacers = 0
    for intent in catalog.intents.values():
        truth = synthesize_ground_truth(intent, catalog.registry, catalog.matrix)
        assert truth == brute_ground_truth(intent, catalog.registry, catalog.matrix)
        spacers += any(
            not catalog.registry[x].capabilities & intent.required_capabilities for x in truth.node_ids
        )
    if bridged:
        assert spacers, "the bridged intent's reference holds no spacer"


@pytest.fixture(scope="module")
def wide_catalogs():
    """Four generated 50-xApp catalogs, every other one bridged."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        from wide_catalog import generate_catalog
    return [generate_catalog(seed, bridged=seed % 2 == 0) for seed in range(4)]


def _refinement_problem(rng: random.Random, catalogs) -> tuple[Pipeline, Intent, Registry, VendorCompatibilityMatrix]:
    """(candidate, intent, registry, matrix) for the refiner.

    Half the time an intent of a generated catalog, the bridged one when
    there is one half of those times, with some of its holders and up to 8
    other xApps. Otherwise a registry of 8-14 xApps, 2-4 of them holders of
    the one required capability whose dialects, most of the time, alternate
    across a clashing pair along their stage chain, so that every gap of
    the chain clashes; the candidate is the whole registry half the time,
    holds every holder most of the time, and now and then a mandatory
    xApp. Either candidate may repeat an xApp.
    """
    if rng.random() < 0.5:
        catalog = rng.choice(catalogs)
        registry, matrix = catalog.registry, catalog.matrix
        intents = list(catalog.intents.values())
        bridged = [intent for intent in intents if "bridge-a" in intent.required_capabilities]
        intent = bridged[0] if bridged and rng.random() < 0.5 else rng.choice(intents)
        holders = [x for x in registry.ids if registry[x].capabilities & intent.required_capabilities]
        chosen = rng.sample(holders, rng.randint(1, min(4, len(holders))))
        chosen += rng.sample(registry.ids, rng.randint(0, 8))
    else:
        ids = rng.sample([f"x{k:02d}" for k in range(20)], rng.randint(8, 14))
        holders = ids[: rng.choice((2, 3, 3, 4))]
        stage = {x: rng.choice(list(Stage)) for x in ids}
        clash = rng.choice(_DIALECT_PAIRS)
        dialect = {x: rng.choice(DIALECT_POOL) for x in ids}
        if rng.random() < 0.8:
            chain = sorted(holders, key=lambda x: (stage[x], x))
            dialect.update((x, clash[p % 2]) for p, x in enumerate(chain))
        registry = Registry(
            XAppProfile.build(
                x, dialect=dialect[x], capabilities=["need" if x in holders else rng.choice(CAP_POOL)],
                controlled_params=rng.sample(PARAM_POOL, rng.randint(0, 2)), stage=stage[x],
            )
            for x in ids
        )
        matrix = VendorCompatibilityMatrix.of(clash, *rng.sample(_DIALECT_PAIRS, rng.randint(0, 1)))
        chosen = rng.sample(ids, rng.randint(1, len(ids)) if rng.random() < 0.5 else len(ids))
        if rng.random() < 0.8:
            chosen += [x for x in holders if x not in chosen]
        intent = Intent.build(
            1, "refine me", target_kpis={"latency": -1}, required_capabilities=["need"],
            required_xapps=chosen[:1] if rng.random() < 0.2 else (),
        )
    if rng.random() < 0.2:
        chosen.append(rng.choice(chosen))
    return Pipeline.build(intent.id, [(x, {}) for x in chosen]), intent, registry, matrix


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), cap=st.integers(1, 5))
def test_the_refiner_keeps_what_an_exhaustive_search_keeps(wide_catalogs, seed, cap):
    """refine_pipeline keeps the xApp set of brute_refinement under each cap:
    the holders, plus the fewest spacers, first in ascending id order, whose
    stage chain is clean, or the holders alone when no such set fits."""
    candidate, intent, registry, matrix = _refinement_problem(random.Random(seed), wide_catalogs)
    with mock.patch.object(planner, "MAX_COVER", cap):
        revised, _ = refine_pipeline(candidate, intent, registry, matrix)
    assert set(revised.node_ids) == brute_refinement(candidate, intent, registry, matrix, cap)


def test_refinement_problems_hold_every_case_the_spacer_search_meets(wide_catalogs):
    """The drawn problems keep a spacer in a bridged intent, spacers in two
    gaps of one chain, and a chain that no set within the cap makes clean."""
    bridged = several_gaps = unclean = 0
    for seed in range(300):
        candidate, intent, registry, matrix = _refinement_problem(random.Random(seed), wide_catalogs)
        revised, _ = refine_pipeline(candidate, intent, registry, matrix)
        # revised.node_ids runs along the stage chain, so each run of spacers fills one gap.
        spacer = [not registry[x].capabilities & intent.required_capabilities for x in revised.node_ids]
        bridged += any(spacer) and "bridge-a" in intent.required_capabilities
        several_gaps += sum(is_spacer for is_spacer, _ in groupby(spacer)) >= 2
        unclean += bool(internal_conflicts(revised, matrix, registry, ref="1"))
    assert bridged and several_gaps and unclean, (bridged, several_gaps, unclean)


def test_an_intent_no_five_xapps_cover_builds_no_candidate(monkeypatch):
    """Seven capabilities, no two held by one xApp: the registry offers them
    all, but a cover needs seven xApps, so none is wired or checked."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from wide_catalog import generate_catalog

    catalog = generate_catalog(1)
    registry = catalog.registry
    chosen: list[str] = []
    for capability in sorted({c for p in registry for c in p.capabilities}):
        if not any(capability in p.capabilities and p.capabilities & set(chosen) for p in registry):
            chosen.append(capability)
    chosen = chosen[:7]
    assert len(chosen) == 7
    intent = Intent.build(99, "seven needs", target_kpis={"kpi00": 1}, required_capabilities=chosen)
    checked = []
    monkeypatch.setattr(planner, "internal_conflicts", lambda *args, **kwargs: checked.append(args) or [])
    with pytest.raises(InfeasibleIntentError) as excinfo:
        synthesize_ground_truth(intent, registry, catalog.matrix)
    assert str(excinfo.value) == f"no xApp subset of size <= 5 covers capabilities {chosen} for intent 99"
    assert checked == []


def test_score_nothing_deployed(truths):
    proposed = {3: truths[3]}
    score = score_solution(proposed, set(), {3}, conflict_total=2)
    assert score.as_tuple() == (0, 1, 0, -2, -truths[3].size())


def test_score_rejects_deploying_unproposed(truths):
    with pytest.raises(ValueError):
        score_solution({3: truths[3]}, {4}, {3}, conflict_total=0)


def test_score_is_totally_ordered():
    """Correct candidates rank second: d deploys more, with fewer
    conflicts, but holds one correct candidate fewer than c."""
    a = SolutionScore(3, 3, 3, 0, -6)
    b = SolutionScore(2, 3, 3, -1, -6)
    c = SolutionScore(2, 3, 3, -1, -7)
    d = SolutionScore(2, 2, 4, 0, -6)
    assert a > b > c > d
    assert sorted([c, d, a, b]) == [d, c, b, a]


def test_scenario1_oracle_score_dominates_partial_deployments(bundle, truths):
    proposed = {i: truths[i] for i in (3, 4)}
    full = score_solution(proposed, {3, 4}, {3, 4}, conflict_total=0)
    for withheld in (3, 4):
        partial = score_solution(proposed, {withheld}, {3, 4}, conflict_total=0)
        assert full > partial


def test_subset_matches_brute_force_independent_set():
    """Both selector entry points against a brute-force reference.

    Ids are drawn on both sides of 10, so numeric and string order differ;
    about half the candidates match their truth, so correct and size pull
    apart; an active pipeline may block candidates outright.
    """
    from .helpers import brute_best_subset, brute_max_independent_set
    from ranweave.conflicts import pairwise_conflicts

    rng = random.Random(99)
    for _ in range(80):
        registry = random_registry(rng, rng.randint(8, 14))
        matrix = random_matrix(rng)
        ids = rng.sample(range(1, 40), rng.randint(2, 10))
        pre_ids = rng.sample(range(40, 50), rng.randint(0, 1))
        intents = {i: random_intent(rng, i) for i in ids + pre_ids}
        candidates = {i: random_pipeline(rng, registry, i, max_nodes=2) for i in ids}
        pre = DeploymentState(tuple(random_pipeline(rng, registry, i, max_nodes=2) for i in pre_ids))
        truths = {i: candidates[i] for i in ids if rng.random() < 0.5}

        usable = [
            i
            for i in ids
            if not internal_conflicts(candidates[i], matrix, registry, ref=str(i))
            and not any(
                pairwise_conflicts(
                    candidates[i], p, intents, matrix, registry, a_ref=str(i), b_ref=f"pre:{p.intent_id}"
                )
                for p in pre
            )
        ]
        edges = set()
        for index, a in enumerate(usable):
            for b in usable[index + 1 :]:
                if pairwise_conflicts(
                    candidates[a], candidates[b], intents, matrix, registry, a_ref=str(a), b_ref=str(b)
                ):
                    edges.add(frozenset((a, b)))

        result = max_conflict_free_subset(candidates, pre, intents, matrix, registry)
        assert result.objective_value == brute_max_independent_set(usable, edges)
        assert result.max_subset == brute_best_subset(usable, edges, set(usable))

        expected = brute_best_subset(usable, edges, set(truths))
        result = max_conflict_free_subset(candidates, pre, intents, matrix, registry, truths=truths)
        assert result.max_subset == expected

        ctx = RunContext(
            mode=Mode.F5,
            intents=tuple(intents[i] for i in ids),
            pre=pre,
            registry=registry,
            matrix=matrix,
            intent_catalog=intents,
        )
        evaluation = evaluate_conflicts(candidates, sorted(ids), ConflictMemo(intents, matrix, registry, pre))
        assert evaluation.usable == tuple(sorted(usable))
        assert _select_deployment(ctx, evaluation.usable, evaluation.clashes, set(truths)) == expected


def _clashes(ids, edges):
    return {i: {j for edge in edges if i in edge for j in edge if j != i} for i in ids}


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_select_subset_matches_brute_force_in_any_order(data):
    """The branch and bound keeps the documented key on random clash graphs,
    whatever the order of usable. Ids lie on both sides of 10, so numeric
    and string order differ; correct is any subset, so correct and size
    pull apart."""
    ids = data.draw(st.lists(st.integers(1, 30), unique=True, max_size=12))
    pairs = [frozenset((a, b)) for k, a in enumerate(ids) for b in ids[k + 1 :]]
    edges = data.draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    correct = data.draw(st.sets(st.sampled_from(ids))) if ids else set()
    clashes = _clashes(ids, edges)
    expected = brute_best_subset(ids, edges, correct)
    assert select_subset(ids, clashes, correct) == expected
    assert select_subset(data.draw(st.permutations(ids)), clashes, correct) == expected


def test_select_subset_is_exact_at_48_candidates():
    """48 ids in disjoint components of at most 8, interleaved in id order.

    The key adds up over components, and the smallest id sequence of a
    union is the union of the smallest ones, so the answer is the union of
    each component's brute-force best.
    """
    rng = random.Random(48)
    for _ in range(10):
        ids = rng.sample(range(1, 200), 48)
        components = []
        while ids:
            size = min(rng.randint(1, 8), len(ids))
            components.append(ids[:size])
            ids = ids[size:]
        expected, edges, correct = set(), set(), set()
        for members in components:
            density = rng.random()
            own = {
                frozenset((a, b))
                for k, a in enumerate(members)
                for b in members[k + 1 :]
                if rng.random() < density
            }
            own_correct = {i for i in members if rng.random() < 0.5}
            expected |= brute_best_subset(members, own, own_correct)
            edges |= own
            correct |= own_correct
        usable = [i for members in components for i in members]
        assert select_subset(usable, _clashes(usable, edges), correct) == expected


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_select_subset_matches_a_max_weight_clique_past_brute_force(data):
    """At 20-60 ids, past what brute force enumerates, the branch and bound
    equals a second exact reference by another algorithm: the heaviest
    clique of the clash graph's complement under the key's integer weights
    (helpers.clique_best_subset). The clash graphs are sparse, of mean
    degree 1-3, and about 80% of the ids are correct."""
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    ids = rng.sample(range(1, 500), data.draw(st.integers(20, 60)))
    pairs = [frozenset((a, b)) for k, a in enumerate(ids) for b in ids[k + 1 :]]
    edges = set(rng.sample(pairs, round(data.draw(st.floats(1, 3)) * len(ids) / 2)))
    correct = {i for i in ids if rng.random() < 0.8}
    clashes = _clashes(ids, edges)
    assert select_subset(ids, clashes, correct) == clique_best_subset(ids, clashes, correct)


def test_select_subset_takes_a_clash_free_batch_whole():
    usable = random.Random(7).sample(range(1000), 1000)
    clashes = {i: set() for i in usable}
    assert select_subset(usable, clashes, set(range(0, 1000, 3))) == frozenset(usable)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_evaluation_ignores_order_and_every_selection_is_valid(seed, data):
    """evaluate_conflicts does not depend on the order of candidates or of
    eligible, and every subset a selector deploys passes conflicts.validity,
    the readable specification, against the active set and its co-members."""
    rng = random.Random(seed)
    registry = random_registry(rng, rng.randint(4, 12))
    matrix = random_matrix(rng)
    ids = rng.sample(range(1, 40), rng.randint(1, 8))
    pre_ids = rng.sample(range(40, 50), rng.randint(0, 2))
    intents = {i: random_intent(rng, i) for i in ids + pre_ids}
    candidates = {i: random_pipeline(rng, registry, i) for i in ids}
    pre = DeploymentState(tuple(random_pipeline(rng, registry, i, max_nodes=2) for i in pre_ids))
    eligible = [i for i in sorted(ids) if rng.random() < 0.8]
    correct = {i for i in eligible if rng.random() < 0.5}

    reference = evaluate_conflicts(candidates, eligible, ConflictMemo(intents, matrix, registry, pre))
    inserted = {i: candidates[i] for i in data.draw(st.permutations(ids))}
    order = data.draw(st.permutations(eligible))
    shuffled = evaluate_conflicts(inserted, order, ConflictMemo(intents, matrix, registry, pre))
    assert shuffled.records == reference.records
    assert shuffled.clashes == reference.clashes
    assert set(shuffled.usable) == set(reference.usable)
    for evaluation, given_order in ((reference, eligible), (shuffled, order)):
        assert list(evaluation.usable) == [i for i in given_order if i in evaluation.usable]

    def valid_together(subset):
        return all(
            validity(
                candidates[i], [*pre, *(candidates[j] for j in subset if j != i)], intents, matrix, registry
            )[0]
            for i in subset
        )

    ctx = RunContext(
        mode=Mode.FCFS,
        intents=tuple(intents[i] for i in ids),
        pre=pre,
        registry=registry,
        matrix=matrix,
        intent_catalog=intents,
    )
    assert valid_together(select_subset(reference.usable, reference.clashes, correct))
    assert valid_together(_select_deployment(ctx, reference.usable, reference.clashes, correct))


def test_oracle_solution_score_dominates_every_alternative_subset(bundle, truths):
    from itertools import combinations

    for spec in bundle.scenarios.values():
        proposed = {i: truths[i] for i in spec.new_intents}
        oracle = bundle.oracle(spec.id)
        best = score_solution(proposed, oracle.max_subset, set(proposed), conflict_total=0)
        for size in range(len(spec.new_intents) + 1):
            for subset in combinations(spec.new_intents, size):
                alternative = score_solution(proposed, set(subset), set(proposed), conflict_total=0)
                assert best >= alternative


def test_oracle_result_serializes(bundle, truths):
    result = max_conflict_free_subset(
        {3: truths[3], 4: truths[4]}, DeploymentState(), bundle.intents, bundle.matrix, bundle.registry
    )
    payload = json.loads(json.dumps(result.to_dict()))
    assert payload["objective_value"] == 2
    assert payload["max_subset"] == [3, 4]
    assert set(payload["per_intent_truth"]) == {"3", "4"}
