"""Exact reference algorithms for pipeline synthesis and deployment.

Everything here is exact and deterministic. Ground-truth pipelines are
minimum-size capability covers over the registry, found by a depth-first
cover search that skips only subsets that cannot cover. The deployable set
is found by select_subset, a depth-first branch and bound with no cap on
the number of candidates. It walks the ascending ids on an explicit stack,
taking each id before leaving it out; taking one drops the ids it clashes
with. Equally good subsets are thus met in ascending id-sequence order, so
keeping only a strictly better one is the tie-break. The bound is a greedy
clique cover of the ids left, in the style of the colouring bounds of
Tomita and Seki's MCQ and Ostergard's cliquer: no conflict-free set takes
two members of one clique. A cover of singletons means the ids left clash
with none of each other, and the branch takes them all. Intent ids are
integers and order as such. These outputs are the yardstick the iterative
agents are measured against.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import AbstractSet, Iterable, Iterator, Mapping, Sequence

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


class InfeasibleIntentError(ValueError):
    """No xApp subset in the registry can cover the intent."""


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

    The answer is the first xApp subset of at most max_len members, smallest
    size first and, within a size, in ascending node-id sequence, that
    contains the intent's mandatory xApps, covers its required capabilities
    and, wired as model.stage_chain, has no internal conflict. _covers
    yields the subsets that contain and cover in exactly that order, so
    only those are wired and checked; an xApp that covers nothing is still
    tried in a free slot, as the spacer a clashing pair may need.
    """
    if max_len < 1 or max_len > 5:
        raise ValueError("max_len must be between 1 and 5")
    pool = registry.ids
    missing = intent.required_xapps - set(pool)
    if missing:
        raise InfeasibleIntentError(
            f"intent {intent.id!r} mandates unregistered xApps {sorted(missing)}"
        )

    bit = {cap: 1 << k for k, cap in enumerate(sorted(intent.required_capabilities))}
    masks = [sum(bit.get(cap, 0) for cap in registry[x].capabilities) for x in pool]
    mandatory = {p for p, x in enumerate(pool) if x in intent.required_xapps}
    sizes = range(max(1, len(mandatory)), max_len + 1)
    for positions in _covers(masks, (1 << len(bit)) - 1, mandatory, sizes):
        ordered, edges = stage_chain([pool[p] for p in positions], registry)
        nodes = [(x, default_directive(registry[x])) for x in ordered]
        pipeline = Pipeline.build(intent.id, nodes, edges)
        if not internal_conflicts(pipeline, matrix, registry, ref=candidate_ref(intent.id)):
            return pipeline

    raise InfeasibleIntentError(
        f"no xApp subset of size <= {max_len} covers capabilities "
        f"{sorted(intent.required_capabilities)} for intent {intent.id!r}"
    )


def _covers(
    masks: Sequence[int], full: int, mandatory: AbstractSet[int], sizes: Iterable[int]
) -> Iterator[tuple[int, ...]]:
    """Every position tuple whose masks together hold full and that holds the
    mandatory positions, in the order combinations(range(len(masks)), size)
    yields them, for each size in turn.

    A depth-first walk fills the slots with ascending positions. It cuts a
    branch only when the branch holds no such tuple: the positions left
    cannot hold the bits still missing (reach), the free slots cannot either
    even if each took as many bits as the widest mask left (widest), or a
    mandatory position was passed over (stop, owed). Since reach and widest
    only shrink as the position grows, a cut also ends the loop it is in.
    The last slot takes only positions whose mask holds every missing bit,
    from a per-need index. When the whole registry cannot cover, each size
    ends at its first position, so such an intent costs no search.
    """
    n = len(masks)
    reach = [0] * (n + 1)  # reach[p]: the union of masks[p:]
    widest = [0] * (n + 1)  # widest[p]: the most bits one of masks[p:] holds
    owed = [0] * (n + 1)  # owed[p]: mandatory positions at p or after
    stop = [n] * (n + 1)  # stop[p]: the first mandatory position at p or after
    for p in range(n - 1, -1, -1):
        reach[p] = reach[p + 1] | masks[p]
        widest[p] = max(widest[p + 1], masks[p].bit_count())
        owed[p] = owed[p + 1] + (p in mandatory)
        stop[p] = p if p in mandatory else stop[p + 1]
    holders: dict[int, list[int]] = {}  # need -> positions whose mask holds it

    def walk(start: int, covered: int, free: int, chosen: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if owed[start] > free:
            return
        need = full & ~covered
        if free == 1:
            if owed[start]:
                if masks[stop[start]] & need == need:
                    yield chosen + (stop[start],)
                return
            if need not in holders:
                holders[need] = [p for p, mask in enumerate(masks) if mask & need == need]
            row = holders[need]
            for p in row[bisect_left(row, start):]:
                yield chosen + (p,)
            return
        for p in range(start, min(n - free, stop[start]) + 1):
            if reach[p] & need != need or need.bit_count() > free * widest[p]:
                break
            yield from walk(p + 1, covered | masks[p], free - 1, chosen + (p,))

    for size in sizes:
        yield from walk(0, 0, size, ())


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

    One key decides: most correct members first, then most members, then
    the smallest ascending sequence of intent ids. Correct comes first
    because the deployment-success metric counts correctly deployed
    pipelines, not deployed ones. clashes holds each clashing pair both ways
    round, as evaluate_conflicts builds it. The module docstring gives the
    search.
    """
    ids = sorted(usable)
    bit = {intent_id: 1 << p for p, intent_id in enumerate(ids)}
    # adjacent[p]: the mask of the usable ids that ids[p] clashes with
    adjacent = [sum(bit[j] for j in clashes[i] if j in bit) for i in ids]
    correct_mask = sum(bit[i] for i in ids if i in correct)

    best, best_key = 0, (0, 0)
    stack = [(0, 0, 0, (1 << len(ids)) - 1)]  # (chosen, its size, its correct count, ids left)
    while stack:
        chosen, size, good, rest = stack.pop()
        cliques = _clique_cover(rest, adjacent)
        rest_correct = rest & correct_mask
        good_cliques = cliques if rest_correct == rest else _clique_cover(rest_correct, adjacent)
        bound = (good + good_cliques, size + cliques)
        if bound <= best_key:
            continue
        if cliques == rest.bit_count():  # rest is clash-free: bound is the key of chosen | rest
            best, best_key = chosen | rest, bound
            continue
        head = rest & -rest
        rest ^= head
        stack.append((chosen, size, good, rest))
        clear = rest & ~adjacent[head.bit_length() - 1]
        stack.append((chosen | head, size + 1, good + bool(head & correct_mask), clear))
    return frozenset(i for i in ids if bit[i] & best)


def _clique_cover(members: int, adjacent: Sequence[int]) -> int:
    """The number of cliques of a greedy clique cover of the members mask.

    Each member, lowest first, joins the first clique whose members it all
    clashes with. Building the cliques one at a time, each from the lowest
    member not yet covered, gives the same cover.
    """
    cliques = 0
    while members:
        cliques += 1
        joinable = members
        while joinable:
            member = joinable & -joinable
            members ^= member
            joinable = (joinable ^ member) & adjacent[member.bit_length() - 1]
    return cliques


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
