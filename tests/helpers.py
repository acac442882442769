"""Seeded generators and independent brute-force predicates for testing.

The brute-force functions re-state each conflict class definition directly
and naively; they share no code path with the engine they check.
"""

from __future__ import annotations

import random
import zlib
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from hypothesis import strategies as st

from ranweave.conflicts import (
    ConflictGraph,
    VendorCompatibilityMatrix,
    internal_conflicts,
    labelled,
    pairwise_conflicts,
)
from ranweave.model import DeploymentState, Intent, Pipeline, Registry, Stage, XAppProfile, stage_chain
from ranweave.planner import MAX_COVER
from ranweave.retrieval import EMBEDDING_DIM, DocChunk
from ranweave.schemas import REPORT_GROUPS, SchemaValidationError, dump_doc, parse_policy_doc

CAP_POOL = ["steering", "sensing", "slicing", "power", "scheduling", "beam"]
PARAM_POOL = ["tx_power", "prb_quota", "weights", "beam_set", "steer_mode"]
KPI_POOL = ["latency", "throughput", "energy", "reliability"]
DIALECT_POOL = ["d-north", "d-south", "d-east", "d-west"]
SETTING_POOL = ["auto", "eco", "turbo"]

# The benchmark's directory: tests import its catalog generator, read-only.
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

WIRE_KEYS = [
    "intent_id", "selected_xapps", "edges", "deployment_conditions", "conflicts", "notes",
    "actuator", "parameter", "objective", "vendor", "kind", "participants", "subject",
    "explanation", "revised_policy", "edits", "load", "windows", "id", "text", "target_kpis",
    "required_capabilities", "required_xapps",
]
# Any JSON value, biased towards the keys and strings of the wire documents.
json_scalars = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.sampled_from(["actuator_contention", "mobility_predictor", "remove_duplicate", "auto"])
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(WIRE_KEYS) | st.text(max_size=4), children, max_size=5),
    max_leaves=30,
)


def replace_one_value(draw, document: object, values: st.SearchStrategy) -> object:
    """document (modified in place) with one value, at a random depth, drawn
    from values; the whole document when the walk stops at the root."""
    parent, key, node = None, None, document
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        parent, node = node, node[key]
    if parent is None:
        return draw(values)
    parent[key] = draw(values)
    return document


def table_rows(table: Mapping) -> list[dict]:
    """The documents of a schemas.table_doc table: each row zipped with the columns."""
    assert table.keys() == {"columns", "rows"}
    return [dict(zip(table["columns"], row, strict=True)) for row in table["rows"]]


def policies_of_table(table: Mapping) -> dict[str, dict]:
    """The ref map of a policies table: each row's policy document under its "ref"."""
    return {doc.pop("ref"): doc for doc in table_rows(table)}


def report_of_table(report: Mapping) -> dict:
    """The conflict_report shape of a schemas.report_table document: each
    group's rows under the header, with the group's kind put back, and the
    groups left out as empty lists."""
    assert report.keys() == {"columns", "conflicts", "notes"}
    kinds = {group: kind.value for kind, group in REPORT_GROUPS.items()}
    groups: dict[str, list] = {group: [] for group in kinds}
    for group, rows in report["conflicts"].items():
        assert rows, f"{group} is listed without a record"
        records = table_rows({"columns": report["columns"], "rows": rows})
        groups[group] = [{"kind": kinds[group], **record} for record in records]
    return {"conflicts": groups, "notes": report["notes"]}


def random_registry(rng: random.Random, size: int) -> Registry:
    profiles = []
    for index in range(size):
        profiles.append(
            XAppProfile.build(
                f"x{index:02d}",
                vendor=rng.choice(["acme", "borealis"]),
                dialect=rng.choice(DIALECT_POOL),
                capabilities=rng.sample(CAP_POOL, rng.randint(1, 2)),
                controlled_params=rng.sample(PARAM_POOL, rng.randint(0, 2)),
                kpi_effects={
                    kpi: rng.choice([-1, 0, 1])
                    for kpi in rng.sample(KPI_POOL, rng.randint(0, 3))
                },
                stage=rng.choice(list(Stage)),
            )
        )
    return Registry(profiles, KPI_POOL)


def random_matrix(rng: random.Random) -> VendorCompatibilityMatrix:
    pairs = []
    for a_index in range(len(DIALECT_POOL)):
        for b_index in range(a_index + 1, len(DIALECT_POOL)):
            if rng.random() < 0.3:
                pairs.append((DIALECT_POOL[a_index], DIALECT_POOL[b_index]))
    return VendorCompatibilityMatrix.of(*pairs)


def random_intent(rng: random.Random, intent_id: int) -> Intent:
    return Intent.build(
        intent_id,
        f"objective {intent_id}",
        target_kpis={
            kpi: rng.choice([-1, 1]) for kpi in rng.sample(KPI_POOL, rng.randint(1, 2))
        },
        required_capabilities=[rng.choice(CAP_POOL)],
    )


def random_pipeline(
    rng: random.Random, registry: Registry, intent_id: int, max_nodes: int = 3
) -> Pipeline:
    """Structurally valid pipeline: unique nodes, stage-consistent forward edges."""
    count = rng.randint(1, min(max_nodes, len(registry)))
    chosen = rng.sample(list(registry.ids), count)
    chosen.sort(key=lambda x: (registry[x].stage, x))
    nodes = []
    for xapp_id in chosen:
        directive = {
            param: rng.choice(SETTING_POOL)
            for param in sorted(registry[xapp_id].controlled_params)
        }
        nodes.append((xapp_id, directive))
    edges = []
    for a_index in range(count):
        for b_index in range(a_index + 1, count):
            if rng.random() < 0.5:
                edges.append((chosen[a_index], chosen[b_index]))
    return Pipeline.build(intent_id, nodes, edges)


@dataclass
class SparseBatch:
    """A batch over wide resource pools, so that many pipeline pairs share nothing.

    The registry holds 2-20 xApps; the parameter and KPI pools grow with it,
    so most xApps write and move their own few. Pipelines may name an
    unregistered xApp, repeat a node, and carry an edge to a node they do
    not hold, and one active pipeline often shares a candidate's intent. A
    crowded batch has 1-3 candidates and 5-10 active pipelines over a
    registry of 2-8 xApps, so the active set outnumbers the candidates and
    its pipelines often conflict with each other.
    """

    rng: random.Random
    registry: Registry
    matrix: VendorCompatibilityMatrix
    intents: dict[int, Intent]
    candidates: dict[int, Pipeline]
    pre: DeploymentState

    @classmethod
    def draw(cls, rng: random.Random, crowded: bool = False) -> "SparseBatch":
        size = rng.randint(2, 8) if crowded else rng.randint(2, 20)
        params = [f"param{i:02d}" for i in range(2 * size)]
        kpis = [f"kpi{i:02d}" for i in range(2 * size)]
        profiles = [
            XAppProfile.build(
                f"x{index:02d}",
                dialect=rng.choice(DIALECT_POOL),
                capabilities=["any"],
                controlled_params=rng.sample(params, rng.randint(0, 2)),
                kpi_effects={kpi: rng.choice([-1, 0, 1]) for kpi in rng.sample(kpis, rng.randint(0, 2))},
            )
            for index in range(size)
        ]
        matrix = VendorCompatibilityMatrix.of(
            *((a, b) for i, a in enumerate(DIALECT_POOL) for b in DIALECT_POOL[i + 1 :] if rng.random() < 0.5)
        )
        ids = rng.sample(range(1, 13), rng.randint(1, 3) if crowded else rng.randint(1, 6))
        pre_ids = rng.sample(range(1, 13), rng.randint(5, 10) if crowded else rng.randint(0, 4))
        shared = rng.choice(ids)
        if shared not in pre_ids and rng.random() < 0.5:
            pre_ids.append(shared)
        intents = {
            i: Intent.build(
                i,
                f"objective {i}",
                target_kpis={kpi: rng.choice([-1, 1]) for kpi in rng.sample(kpis, rng.randint(1, 2))},
                required_capabilities=["any"],
            )
            for i in set(ids) | set(pre_ids)
        }
        batch = cls(rng, Registry(profiles, kpis), matrix, intents, {}, DeploymentState())
        batch.candidates = {i: batch.pipeline(i) for i in ids}
        batch.pre = DeploymentState(tuple(batch.pipeline(i) for i in pre_ids))
        return batch

    def pipeline(self, intent_id: int) -> Pipeline:
        """A fresh random pipeline for intent_id."""
        rng, registry = self.rng, self.registry
        chosen = rng.choices(list(registry.ids) + ["unregistered"], k=rng.randint(1, 3))
        nodes = []
        for xapp_id in chosen:
            # A node that writes nothing still gets a directive, so that any
            # shared node, the unregistered one included, can contend.
            written = registry[xapp_id].controlled_params if xapp_id in registry else ()
            directive = {p: rng.choice(SETTING_POOL) for p in sorted(written)}
            nodes.append((xapp_id, directive or {"mode": rng.choice(SETTING_POOL)}))
        edges = [tuple(rng.sample(chosen + ["dangling"], 2)) for _ in range(rng.randint(0, 2))]
        return Pipeline.build(intent_id, nodes, edges)


def all_pairs_conflict_graph(
    candidates: dict[int, Pipeline],
    pre: DeploymentState,
    intents: dict[int, Intent],
    matrix: VendorCompatibilityMatrix,
    registry: Registry,
) -> ConflictGraph:
    """The conflict graph by pairwise_conflicts over every unordered pair of
    labelled's batch, with no gate and no memo."""
    batch = labelled(candidates, pre)
    edges = []
    for i, (ref_a, pipe_a) in enumerate(batch):
        for ref_b, pipe_b in batch[i + 1 :]:
            records = pairwise_conflicts(pipe_a, pipe_b, intents, matrix, registry, a_ref=ref_a, b_ref=ref_b)
            if records:
                edges.append(((ref_a, ref_b), tuple(records)))
    return ConflictGraph(vertices=tuple(ref for ref, _ in batch), edges=tuple(edges))


def brute_actuator_subjects(a: Pipeline, b: Pipeline) -> set[str]:
    out = set()
    for na in a.nodes:
        for nb in b.nodes:
            if na.xapp_id == nb.xapp_id and dict(na.directive) != dict(nb.directive):
                out.add(na.xapp_id)
    return out


def brute_coupling_subjects(a: Pipeline, b: Pipeline, registry: Registry) -> set[str]:
    out = set()
    for na in a.nodes:
        for nb in b.nodes:
            if na.xapp_id == nb.xapp_id:
                continue
            shared = registry[na.xapp_id].controlled_params & registry[nb.xapp_id].controlled_params
            out.update(shared)
    return out


def brute_interference_subjects(
    a: Pipeline, intent_a: Intent, b: Pipeline, intent_b: Intent, registry: Registry
) -> set[str]:
    out = set()
    kpis = set(intent_a.targets) | set(intent_b.targets)
    for kpi in kpis:
        da = intent_a.targets.get(kpi)
        db = intent_b.targets.get(kpi)
        if da is not None and db is not None and da == -db:
            out.add(kpi)
            continue
        if da is not None and any(
            dict(registry[n.xapp_id].kpi_effects).get(kpi, 0) == -da for n in b.nodes
        ):
            out.add(kpi)
            continue
        if db is not None and any(
            dict(registry[n.xapp_id].kpi_effects).get(kpi, 0) == -db for n in a.nodes
        ):
            out.add(kpi)
    return out


def brute_vendor_pairs(
    a: Pipeline, b: Pipeline, matrix: VendorCompatibilityMatrix, registry: Registry
) -> set[tuple[str, str]]:
    out = set()
    for na in a.nodes:
        for nb in b.nodes:
            pa, pb = registry[na.xapp_id], registry[nb.xapp_id]
            if not matrix.clashes(pa.dialect, pb.dialect):
                continue
            shared_params = pa.controlled_params & pb.controlled_params
            kpis_a = {k for k, v in pa.kpi_effects if v != 0}
            kpis_b = {k for k, v in pb.kpi_effects if v != 0}
            if shared_params or (kpis_a & kpis_b):
                out.add((na.xapp_id, nb.xapp_id))
    return out


def brute_max_independent_set(vertices: list, edges: set[frozenset]) -> int:
    """Independence number by direct enumeration of all vertex subsets."""
    best = 0
    n = len(vertices)
    for mask in range(1 << n):
        members = [vertices[i] for i in range(n) if mask >> i & 1]
        if any(
            frozenset((u, v)) in edges
            for i, u in enumerate(members)
            for v in members[i + 1 :]
        ):
            continue
        best = max(best, len(members))
    return best


def brute_best_subset(vertices: list, edges: set[frozenset], correct: set) -> frozenset:
    """The selector's documented key, by direct enumeration of all vertex subsets.

    Among conflict-free subsets: most correct members, then most members,
    then the smallest ascending id tuple (ids are ints, compared numerically).
    """
    best_key, best = None, frozenset()
    n = len(vertices)
    for mask in range(1 << n):
        members = [vertices[i] for i in range(n) if mask >> i & 1]
        if any(
            frozenset((u, v)) in edges
            for i, u in enumerate(members)
            for v in members[i + 1 :]
        ):
            continue
        key = (-len(correct & set(members)), -len(members), tuple(sorted(members)))
        if best_key is None or key < best_key:
            best_key, best = key, frozenset(members)
    return best


def brute_ground_truth(
    intent: Intent, registry: Registry, matrix: VendorCompatibilityMatrix, max_len: int = 5
) -> Pipeline | None:
    """Reference cover search: every feasible subset of each size, then the least.

    A subset is feasible when it holds the mandatory xApps, covers the
    required capabilities and, wired as a stage-sorted chain with default
    directives, has no internal conflict. Returns the smallest feasible
    subset with the smallest sorted id tuple, or None.
    """
    if not intent.required_xapps <= set(registry.ids):
        return None
    for size in range(max(1, len(intent.required_xapps)), max_len + 1):
        feasible = []
        for combo in combinations(list(registry.ids), size):
            covered = set().union(*(registry[x].capabilities for x in combo))
            if not intent.required_xapps <= set(combo) or not intent.required_capabilities <= covered:
                continue
            ordered = sorted(combo, key=lambda x: (registry[x].stage, x))
            pipeline = Pipeline.build(
                intent.id,
                [(x, {p: "auto" for p in registry[x].controlled_params}) for x in ordered],
                list(zip(ordered, ordered[1:])),
            )
            if not internal_conflicts(pipeline, matrix, registry, ref=str(intent.id)):
                feasible.append((tuple(sorted(combo)), pipeline))
        if feasible:
            return min(feasible, key=lambda item: item[0])[1]
    return None


def brute_refinement(
    candidate: Pipeline,
    intent: Intent,
    registry: Registry,
    matrix: VendorCompatibilityMatrix,
    max_len: int = MAX_COVER,
) -> set[str]:
    """Reference refinement: the xApp set the refiner should keep.

    The kept set is the candidate's distinct xApps that are mandatory or
    hold a required capability (all of them when none does: the refiner
    never empties a pipeline). The answer is the smallest superset of it
    within the candidate's xApps, of at most max_len members, whose stage
    chain has no internal conflict; among equally small ones, the first in
    ascending-id combinations order. With no such superset, the kept set.
    """
    distinct = sorted(set(candidate.node_ids))
    kept = {
        x for x in distinct
        if x in intent.required_xapps or registry[x].capabilities & intent.required_capabilities
    } or set(distinct)
    for size in range(len(kept), max_len + 1):
        for combo in combinations(distinct, size):
            if not kept <= set(combo):
                continue
            ordered, edges = stage_chain(combo, registry)
            pipeline = Pipeline.build(intent.id, [(x, {}) for x in ordered], edges)
            if not internal_conflicts(pipeline, matrix, registry, ref=str(intent.id)):
                return set(combo)
    return kept


def brute_after_cycles(nodes: list[str], edges: set[tuple[str, str]]) -> set[str]:
    """Nodes on a directed cycle or reachable from one, by transitive closure.

    A node lies on a cycle when it reaches itself in one or more steps.
    """
    reach = {n: {b for a, b in edges if a == n} for n in nodes}
    changed = True
    while changed:
        changed = False
        for n in nodes:
            wider = reach[n].union(*(reach[m] for m in reach[n]))
            if wider != reach[n]:
                reach[n], changed = wider, True
    on_cycle = {n for n in nodes if n in reach[n]}
    return on_cycle.union(*(reach[n] for n in on_cycle))


def reference_embed(text: str) -> dict[int, int]:
    """The trigram embedder as a plain loop: one signed integer increment per
    gram, then every bucket that did not cancel."""
    counts = [0] * EMBEDDING_DIM
    normalized = text.casefold()
    if not normalized:
        return {}
    grams = (
        [normalized[i : i + 3] for i in range(len(normalized) - 2)]
        if len(normalized) >= 3
        else [normalized]
    )
    for gram in grams:
        digest = zlib.crc32(gram.encode("utf-8"))
        counts[digest % EMBEDDING_DIM] += 1 if (digest >> 8) & 1 else -1
    return {bucket: count for bucket, count in enumerate(counts) if count}


def reference_similarity(query: Mapping[int, int], candidate: Mapping[int, int]) -> Fraction:
    """The cosine order of one query's candidates as an exact fraction,
    dot·|dot| / |candidate|²; a zero vector on either side scores exactly 0."""
    if not any(query.values()) or not any(candidate.values()):
        return Fraction(0)
    dot = sum(count * candidate.get(bucket, 0) for bucket, count in query.items())
    return Fraction(dot * abs(dot), sum(count * count for count in candidate.values()))


def reference_rank(chunks, query_vector: Mapping[int, int], k: int) -> list:
    """The store's ranking as first written: every chunk scored on every
    query, then a full sort by (-score, doc_id, start)."""
    scored = [
        (-reference_similarity(query_vector, chunk.vector), chunk.doc_id, chunk.start, chunk)
        for chunk in chunks
    ]
    scored.sort(key=lambda item: item[:3])
    return [chunk for _, _, _, chunk in scored[:k]]


def decode_policy(doc: object) -> Pipeline:
    """doc's pipeline as parse_policy_doc, the decoder of every reasoning
    answer, reads it: as the answer for the intent doc names (0 when it
    names no integer one), with every xApp doc selects registered. A doc
    that fails a check raises SchemaValidationError with its entry's errors."""
    fields = doc if isinstance(doc, dict) else {}
    intent_id = fields.get("intent_id")
    if isinstance(intent_id, bool) or not isinstance(intent_id, int):
        intent_id = 0
    selected = fields.get("selected_xapps")
    xapp_ids = {
        item[0] for item in (selected if isinstance(selected, list) else ())
        if isinstance(item, (list, tuple)) and item and isinstance(item[0], str) and item[0]
    }
    registry = Registry(XAppProfile.build(xapp_id, capabilities=["c"]) for xapp_id in xapp_ids)
    answer = parse_policy_doc(dump_doc({str(intent_id): doc}), registry, [intent_id])
    if intent_id in answer.errors:
        raise SchemaValidationError("policy document", answer.errors[intent_id])
    return answer.entries[intent_id]


def reconstruct(chunks: Iterable[DocChunk]) -> str:
    """Rebuild the original document from its overlapping chunks.

    The chunks must be of one document and cover it from offset 0 without a
    gap, and each must agree with the text before it where they overlap;
    anything else raises ValueError rather than returning part of it.
    """
    ordered = sorted(chunks, key=lambda c: c.start)
    doc_ids = sorted({chunk.doc_id for chunk in ordered})
    if len(doc_ids) > 1:
        raise ValueError(f"chunks of more than one document: {doc_ids}")
    if ordered and ordered[0].start != 0:
        raise ValueError(f"first chunk starts at {ordered[0].start}, not 0")
    text = ""
    for chunk in ordered:
        if chunk.start > len(text):
            raise ValueError(f"gap between offsets {len(text)} and {chunk.start}")
        overlap = chunk.text[: len(text) - chunk.start]
        if overlap != text[chunk.start : chunk.start + len(overlap)]:
            raise ValueError(f"chunk at offset {chunk.start} disagrees with the text before it")
        text += chunk.text[len(overlap) :]
    return text
