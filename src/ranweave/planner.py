"""Exact reference algorithms for pipeline synthesis and deployment.

Everything here is exhaustive and deterministic: ground-truth pipelines are
minimum-size capability covers over the registry, and the deployable set is
found by full subset enumeration, which max_conflict_free_subset refuses
with TooManyCandidatesError past MAX_SUBSET_CANDIDATES (12) candidates.
The generated catalogs of the benchmark's wide-catalog workload, with 12
new intents each, sit exactly at that bound. Intent ids are integers and
order as such: of equally good subsets, the one whose ascending id
sequence is smallest wins. These outputs are the yardstick the iterative
agents are measured against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import AbstractSet, Iterable, Mapping, Sequence

from .conflicts import (
    ConflictGraph,
    VendorCompatibilityMatrix,
    candidate_ref,
    evaluate_conflicts,
    internal_conflicts,
)
from .model import (
    DeploymentState,
    Intent,
    Pipeline,
    Registry,
    default_directive,
    pipelines_equal,
    stage_chain,
)
from .schemas import pipeline_to_policy_doc

MAX_SUBSET_CANDIDATES = 12


class InfeasibleIntentError(ValueError):
    """No xApp subset in the registry can cover the intent."""


class TooManyCandidatesError(ValueError):
    """A batch has more candidates than max_conflict_free_subset enumerates."""


@dataclass(frozen=True, slots=True, order=True)
class SolutionScore:
    """Lexicographic quality of a proposed batch solution.

    Field order is comparison order: correctly deployed pipelines first,
    then deployment count, then fewer conflicts, then smaller pipelines.
    """

    correct_deployed: int
    deployed: int
    neg_conflicts: int
    neg_total_nodes: int

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.correct_deployed, self.deployed, self.neg_conflicts, self.neg_total_nodes)


@dataclass(frozen=True)
class OracleResult:
    """Reference answer for one intent batch.

    graph is the conflict graph the answer was computed from; it is not
    serialized.
    """

    per_intent_truth: dict[int, Pipeline]
    max_subset: frozenset[int]
    objective_value: int
    graph: ConflictGraph = field(repr=False, compare=False)

    def to_dict(self) -> dict[str, object]:
        return {
            "per_intent_truth": {
                str(intent_id): pipeline_to_policy_doc(p)
                for intent_id, p in sorted(self.per_intent_truth.items(), key=lambda kv: str(kv[0]))
            },
            "max_subset": sorted(self.max_subset),
            "objective_value": self.objective_value,
        }


def synthesize_ground_truth(
    intent: Intent,
    registry: Registry,
    matrix: VendorCompatibilityMatrix,
    max_len: int = 5,
) -> Pipeline:
    """Minimum-size, internally conflict-free pipeline fulfilling an intent.

    Enumerates xApp subsets up to max_len, smallest first, and returns the
    first that contains the intent's mandatory xApps, covers its required
    capabilities and, wired as model.stage_chain, has no internal
    conflict (ties between equal sizes go to the smaller node-id sequence).
    """
    if max_len < 1 or max_len > 5:
        raise ValueError("max_len must be between 1 and 5")
    pool = registry.ids
    missing = intent.required_xapps - set(pool)
    if missing:
        raise InfeasibleIntentError(
            f"intent {intent.id!r} mandates unregistered xApps {sorted(missing)}"
        )

    # registry.ids is sorted, so combinations() yields each size's subsets
    # in ascending node-id order and the first feasible one is the answer.
    for size in range(max(1, len(intent.required_xapps)), max_len + 1):
        for combo in combinations(pool, size):
            if not intent.required_xapps <= set(combo):
                continue
            covered = set()
            for xapp_id in combo:
                covered |= registry[xapp_id].capabilities
            if not intent.required_capabilities <= covered:
                continue
            ordered, edges = stage_chain(combo, registry)
            nodes = [(x, default_directive(registry[x])) for x in ordered]
            pipeline = Pipeline.build(intent.id, nodes, edges)
            if not internal_conflicts(pipeline, matrix, registry, ref=candidate_ref(intent.id)):
                return pipeline

    raise InfeasibleIntentError(
        f"no xApp subset of size <= {max_len} covers capabilities "
        f"{sorted(intent.required_capabilities)} for intent {intent.id!r}"
    )


def max_conflict_free_subset(
    candidates: Mapping[int, Pipeline],
    pre: DeploymentState,
    intents: Mapping[int, Intent],
    matrix: VendorCompatibilityMatrix,
    registry: Registry,
    truths: Mapping[int, Pipeline] | None = None,
) -> OracleResult:
    """Best candidate subset deployable together with the active set.

    Every candidate is eligible; evaluate_conflicts gives the usable ids and
    clash sets, and select_subset picks among them. A candidate counts as
    correct when it equals its reference in truths; without truths every
    candidate does, so the answer is the largest conflict-free subset: the
    scenario oracle's candidates are the truths, so it passes none. The empty
    subset is always feasible.
    """
    ids = sorted(candidates)
    if len(ids) > MAX_SUBSET_CANDIDATES:
        raise TooManyCandidatesError(
            f"subset enumeration is bounded at {MAX_SUBSET_CANDIDATES} candidates, got {len(ids)}"
        )

    evaluation = evaluate_conflicts(candidates, ids, pre, intents, matrix, registry)
    usable = evaluation.usable
    correct = (
        set(usable)
        if truths is None
        else {i for i in usable if i in truths and pipelines_equal(candidates[i], truths[i])}
    )
    subset = select_subset(usable, evaluation.clashes, correct)
    return OracleResult(
        per_intent_truth=dict(candidates),
        max_subset=subset,
        objective_value=len(subset),
        graph=evaluation.graph,
    )


def select_subset(
    usable: Sequence[int],
    clashes: Mapping[int, AbstractSet[int]],
    correct: AbstractSet[int],
) -> frozenset[int]:
    """The exact deployment selector: the best usable subset with no clashing pair.

    Exhaustive over the subsets of usable. One key decides: most correct
    members first, then most members, then the smallest ascending sequence
    of intent ids. Correct comes first because the
    deployment-success metric counts correctly deployed pipelines, not
    deployed ones.
    """
    ids = sorted(usable)
    correct_total = sum(intent_id in correct for intent_id in ids)
    best: AbstractSet[int] = frozenset()
    best_key = (0, 0)
    for size in range(len(ids), 0, -1):
        if best_key >= (min(size, correct_total), size):
            break  # no subset of this size or smaller can beat the best
        # combinations() yields subsets in ascending key-sequence order, so
        # the first subset to reach a key wins its ties.
        for combo in combinations(ids, size):
            chosen = set(combo)
            if any(clashes[i] & chosen for i in combo):
                continue
            key = (len(chosen & correct), size)
            if key > best_key:
                best, best_key = chosen, key
    return frozenset(best)


def score_solution(
    proposed: Mapping[int, Pipeline],
    deployed: Iterable[int],
    correct: AbstractSet[int],
    conflict_total: int,
) -> SolutionScore:
    """Score a batch proposal for the monotonic-improvement ratchet.

    correct is the iteration's set of correct candidate ids (see
    agents.is_correct_candidate); the score counts the deployed ones.
    """
    deployed_set = set(deployed)
    unknown = deployed_set - set(proposed)
    if unknown:
        raise ValueError(f"deployed intents {sorted(unknown)} are not in the proposal")
    return SolutionScore(
        correct_deployed=len(deployed_set & correct),
        deployed=len(deployed_set),
        neg_conflicts=-conflict_total,
        neg_total_nodes=-sum(p.size() for p in proposed.values()),
    )
