"""Exact reference algorithms for pipeline synthesis and deployment.

Everything here is exact and deterministic. Ground-truth pipelines are
minimum-size capability covers over the registry, found by a depth-first
cover search that skips only subsets that cannot cover. It reads the
registry's capability index (Registry.holders), so its masks come from the
holders of the intent's capabilities alone, and it keeps its bounds only
where a mask is nonzero or a position mandatory. The deployable set
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
agents are measured against. refine_pipeline, the mocks' refinement
reviewer, restores the spacers such a cover needs through the cover search
itself (_clean_cover), under the same cap and tie-break.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, replace
from typing import AbstractSet, Iterable, Iterator, Mapping, Sequence

from .conflicts import (
    ConflictMemo,
    VendorCompatibilityMatrix,
    candidate_ref,
    evaluate_conflicts,
    internal_conflicts,
)
from .model import (
    DeploymentState,
    Intent,
    Pipeline,
    PipelineNode,
    Registry,
    default_directive,
    pipelines_equal,
    stage_chain,
)
from .schemas import EditKind, pipeline_to_policy_doc


class InfeasibleIntentError(ValueError):
    """No xApp subset in the registry can cover the intent."""


@dataclass(frozen=True, slots=True, order=True)
class SolutionScore:
    """Lexicographic quality of a proposed batch solution.

    Field order is comparison order: correctly deployed pipelines first,
    then correct candidates, then deployment count, then fewer conflicts,
    then smaller pipelines. The best solution has the greatest score, so at
    equal correct deployments no wrong candidate outranks a correct one.
    """

    correct_deployed: int
    correct: int
    deployed: int
    neg_conflicts: int
    neg_total_nodes: int

    def as_tuple(self) -> tuple[int, int, int, int, int]:
        return (self.correct_deployed, self.correct, self.deployed, self.neg_conflicts, self.neg_total_nodes)


@dataclass(frozen=True)
class OracleResult:
    """Reference answer for one intent batch.

    memo is the ConflictMemo the answer was computed through: the batch's
    intents, matrix, registry and active set, and the facts, pair, internal
    and row entries of the truths and the active set. A run over the same
    batch seeds its own memo from a copy (agents.orchestrate_batch), which
    refuses a memo of other inputs. It is not serialized.
    """

    per_intent_truth: dict[int, Pipeline]
    max_subset: frozenset[int]
    memo: ConflictMemo = field(repr=False, compare=False)

    @property
    def objective_value(self) -> int:
        return len(self.max_subset)

    def to_dict(self) -> dict[str, object]:
        return {
            "per_intent_truth": {
                str(intent_id): pipeline_to_policy_doc(p)
                for intent_id, p in sorted(self.per_intent_truth.items(), key=lambda kv: str(kv[0]))
            },
            "max_subset": sorted(self.max_subset),
            "objective_value": self.objective_value,
        }


# The largest cover synthesize_ground_truth tries. An intent whose every clean
# cover is larger is infeasible: the cap bounds the search for such an intent,
# whose subsets of size k number C(n, k) in an n-xApp catalog.
MAX_COVER = 5


def synthesize_ground_truth(intent: Intent, registry: Registry, matrix: VendorCompatibilityMatrix) -> Pipeline:
    """Minimum-size, internally conflict-free pipeline fulfilling an intent.

    The answer is _clean_cover over the registry's ascending ids: the first
    xApp subset of at most MAX_COVER members, smallest size first and,
    within a size, in ascending node-id sequence, that contains the intent's
    mandatory xApps, covers its required capabilities and, wired as
    model.stage_chain, has no internal conflict. An xApp that covers nothing
    is still tried in a free slot, as the spacer a clashing pair may need.
    The masks are built from registry.holders of the intent's capabilities,
    so an xApp that holds none of them costs nothing until a free slot takes
    it, and the mandatory xApps are found by bisection in the sorted ids.
    Only the winning chain gets default directives. refine_pipeline restores
    such a spacer through the same search, so it returns every reference
    unchanged.
    """
    pool = registry.ids
    missing = {x for x in intent.required_xapps if x not in registry}
    if missing:
        raise InfeasibleIntentError(
            f"intent {intent.id!r} mandates unregistered xApps {sorted(missing)}"
        )

    masks: dict[int, int] = {}  # position -> its nonzero mask
    for k, cap in enumerate(sorted(intent.required_capabilities)):
        for p in registry.holders.get(cap, ()):
            masks[p] = masks.get(p, 0) | 1 << k
    mandatory = {bisect_left(pool, x) for x in intent.required_xapps}
    full = (1 << len(intent.required_capabilities)) - 1
    chain = _clean_cover(intent.id, pool, masks, full, mandatory, registry, matrix)
    if chain is None:
        raise InfeasibleIntentError(
            f"no xApp subset of size <= {MAX_COVER} covers capabilities "
            f"{sorted(intent.required_capabilities)} for intent {intent.id!r}"
        )
    ordered, edges = chain
    return Pipeline.build(intent.id, [(x, default_directive(registry[x])) for x in ordered], edges)


def _clean_cover(
    intent_id: int,
    pool: Sequence[str],
    masks: Mapping[int, int],
    full: int,
    mandatory: AbstractSet[int],
    registry: Registry,
    matrix: VendorCompatibilityMatrix,
) -> tuple[tuple[str, ...], frozenset[tuple[str, str]]] | None:
    """The stage chain of the first tuple of positions in pool, an ascending
    id sequence, that _covers yields with at most MAX_COVER members and that
    internal_conflicts finds clean; None when there is none. The tried
    chains carry no directives, as no internal detector reads one.
    """
    ref = candidate_ref(intent_id)
    sizes = range(max(1, len(mandatory)), MAX_COVER + 1)
    for positions in _covers(masks, len(pool), full, mandatory, sizes):
        ordered, edges = stage_chain([pool[p] for p in positions], registry)
        bare = Pipeline(intent_id, tuple(PipelineNode(x, ()) for x in ordered), edges)
        if not internal_conflicts(bare, matrix, registry, ref=ref):
            return ordered, edges
    return None


def _covers(
    masks: Mapping[int, int], n: int, full: int, mandatory: AbstractSet[int], sizes: Iterable[int]
) -> Iterator[tuple[int, ...]]:
    """Every tuple of positions below n whose masks together hold full and
    that holds the mandatory positions, in the order combinations(range(n),
    size) yields them, for each size in turn. masks holds the nonzero masks;
    a position it lacks has mask 0.

    A depth-first walk fills the slots with ascending positions. It cuts a
    branch only when the branch holds no such tuple: the positions left
    cannot hold the bits still missing (reach), the free slots cannot either
    even if each took as many bits as the widest mask left (widest), or a
    mandatory position was passed over (stop, owed). Since reach and widest
    only shrink as the position grows, a cut also ends the loop it is in.
    The four bounds are kept only at the key positions, those with a nonzero
    mask or mandatory, since they are constant between two of them. The
    zero-mask positions before a key position are free-slot spacers that no
    bound tells apart, so the walk takes each of them only when one slot
    fewer can still hold the missing bits and the mandatory positions left,
    and otherwise passes the whole run over. The last slot takes only positions
    whose mask holds every missing bit, from a per-need index. When the
    masks cannot cover, each size ends at its first position, so such an
    intent costs no search.
    """
    keys = sorted(masks.keys() | mandatory)
    keys.append(n)  # a sentinel past every position, where every bound is empty
    reach = [0] * len(keys)  # reach[k]: the union of the masks at keys[k] or after
    widest = [0] * len(keys)  # widest[k]: the most bits one of those masks holds
    owed = [0] * len(keys)  # owed[k]: mandatory positions at keys[k] or after
    stop = [n] * len(keys)  # stop[k]: the first mandatory position at keys[k] or after
    for k in range(len(keys) - 2, -1, -1):
        p, mask = keys[k], masks.get(keys[k], 0)
        reach[k] = reach[k + 1] | mask
        widest[k] = max(widest[k + 1], mask.bit_count())
        owed[k] = owed[k + 1] + (p in mandatory)
        stop[k] = p if p in mandatory else stop[k + 1]
    holders: dict[int, Sequence[int]] = {0: range(n)}  # need -> positions whose mask holds it

    def walk(start: int, covered: int, free: int, chosen: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        k = bisect_left(keys, start)  # the first key position at start or after
        if owed[k] > free:
            return
        need = full & ~covered
        if free == 1:
            if owed[k]:
                if masks.get(stop[k], 0) & need == need:
                    yield chosen + (stop[k],)
                return
            if need not in holders:
                holders[need] = sorted(p for p, mask in masks.items() if mask & need == need)
            row = holders[need]
            for p in row[bisect_left(row, start):]:
                yield chosen + (p,)
            return
        last, p = min(n - free, stop[k]), start
        while p <= last:
            if reach[k] & need != need or need.bit_count() > free * widest[k]:
                break
            if p < keys[k]:  # the spacers p .. keys[k] - 1
                end = min(keys[k] - 1, last)
                if owed[k] < free and need.bit_count() <= (free - 1) * widest[k]:
                    for q in range(p, end + 1):
                        yield from walk(q + 1, covered, free - 1, chosen + (q,))
                p = end + 1
            else:
                yield from walk(p + 1, covered | masks.get(p, 0), free - 1, chosen + (p,))
                p, k = p + 1, k + 1

    for size in sizes:
        yield from walk(0, 0, size, ())


def refine_pipeline(
    candidate: Pipeline, intent: Intent, registry: Registry, matrix: VendorCompatibilityMatrix
) -> tuple[Pipeline, list[tuple[EditKind, str]]]:
    """Deterministic structural review of a candidate pipeline.

    Removes duplicate nodes, drops xApps that contribute none of the
    intent's required capabilities (mandatory xApps stay), and orders and
    links the rest as model.stage_chain. The dropped xApps that stay as
    spacers are those of the cover search's first clean chain over the
    candidate's ids that holds every kept xApp (_clean_cover, with no
    capability to cover): none when the kept chain is clean, else the
    fewest that make it clean, first in ascending id order, at most
    MAX_COVER members in all. So a reference pipeline, spacers and all,
    comes back unchanged and with no edits. The refiner adds no xApp the
    candidate does not hold. Precondition: every xApp id of the candidate
    is registered; parse_policy_doc and parse_refinement_doc both reject
    any other, so every pipeline an agent returns meets it.
    """
    edits: list[tuple[EditKind, str]] = []

    deduped: dict[str, PipelineNode] = {}
    for node in candidate.nodes:
        if node.xapp_id in deduped:
            edits.append((EditKind.REMOVE_DUPLICATE, f"{node.xapp_id} was selected twice"))
            continue
        deduped[node.xapp_id] = node

    dropped = {
        x
        for x in deduped
        if x not in intent.required_xapps and not registry[x].capabilities & intent.required_capabilities
    }
    if len(dropped) == len(deduped):
        # Refusing to empty the pipeline; keep the deduplicated nodes.
        dropped = set()
    elif dropped:
        pool = sorted(deduped)
        held = {p for p, x in enumerate(pool) if x not in dropped}
        spaced = _clean_cover(intent.id, pool, {}, 0, held, registry, matrix)
        if spaced is not None:
            dropped -= set(spaced[0])
    edits.extend(
        (EditKind.DROP_SUPERFLUOUS, f"{x} covers no required capability") for x in deduped if x in dropped
    )
    kept = [x for x in deduped if x not in dropped]

    ordered, chain = stage_chain(kept, registry)
    # Re-sorting the nodes into stage order is an edit even when the edges
    # already form the chain: the revised document differs from the input.
    if chain != candidate.edges or ordered != tuple(kept):
        edits.append((EditKind.REORDER_STAGE, "edges rebuilt as a stage-consistent chain"))

    revised = replace(candidate, nodes=tuple(deduped[x] for x in ordered), edges=chain)
    return revised, edits


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
    subset is always feasible. The evaluation runs through a fresh
    ConflictMemo of intents, matrix, registry and pre, returned on the result.
    """
    ids = sorted(candidates)
    memo = ConflictMemo(intents, matrix, registry, pre)
    evaluation = evaluate_conflicts(candidates, ids, memo)
    usable = evaluation.usable
    correct = (
        set(usable)
        if truths is None
        else {i for i in usable if i in truths and pipelines_equal(candidates[i], truths[i])}
    )
    subset = select_subset(usable, evaluation.clashes, correct)
    return OracleResult(per_intent_truth=dict(candidates), max_subset=subset, memo=memo)


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
    agents.is_correct_candidate); the score counts them, and the deployed
    ones among them.
    """
    deployed_set = set(deployed)
    unknown = deployed_set - set(proposed)
    if unknown:
        raise ValueError(f"deployed intents {sorted(unknown)} are not in the proposal")
    return SolutionScore(
        correct_deployed=len(deployed_set & correct),
        correct=len(correct),
        deployed=len(deployed_set),
        neg_conflicts=-conflict_total,
        neg_total_nodes=-sum(p.size() for p in proposed.values()),
    )
