"""Seeded generators and independent brute-force predicates for testing.

The brute-force functions re-state each conflict class definition directly
and naively; they share no code path with the engine they check.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from ranweave.conflicts import (
    ConflictGraph,
    VendorCompatibilityMatrix,
    internal_conflicts,
    labelled,
    pairwise_conflicts,
)
from ranweave.model import DeploymentState, Intent, Pipeline, Registry, Stage, XAppProfile
from ranweave.retrieval import EMBEDDING_DIM

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
    "explanation", "revised_policy", "edits", "load", "windows",
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
    not hold, and one active pipeline often shares a candidate's intent.
    """

    rng: random.Random
    registry: Registry
    matrix: VendorCompatibilityMatrix
    intents: dict[int, Intent]
    candidates: dict[int, Pipeline]
    pre: DeploymentState

    @classmethod
    def draw(cls, rng: random.Random) -> "SparseBatch":
        size = rng.randint(2, 20)
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
        ids = rng.sample(range(1, 13), rng.randint(1, 6))
        pre_ids = rng.sample(range(1, 13), rng.randint(0, 4))
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
            registry[n.xapp_id].effect_on(kpi) == -da for n in b.nodes
        ):
            out.add(kpi)
            continue
        if db is not None and any(
            registry[n.xapp_id].effect_on(kpi) == -db for n in a.nodes
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


def reference_embed(text: str) -> np.ndarray:
    """The trigram embedder as a plain loop: one signed increment per gram."""
    vector = np.zeros(EMBEDDING_DIM, dtype=np.float64)
    normalized = text.casefold()
    if not normalized:
        return vector
    grams = (
        [normalized[i : i + 3] for i in range(len(normalized) - 2)]
        if len(normalized) >= 3
        else [normalized]
    )
    for gram in grams:
        digest = zlib.crc32(gram.encode("utf-8"))
        vector[digest % EMBEDDING_DIM] += 1.0 if (digest >> 8) & 1 else -1.0
    norm = float(np.linalg.norm(vector))
    if norm == 0.0:
        return vector
    return vector / norm


def reference_cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine as first written: a zero vector on either side scores exactly 0.0."""
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    if not np.any(a) or not np.any(b):
        return 0.0
    return float(np.dot(a, b))


def reference_rank(chunks, query_vector: np.ndarray, k: int) -> list:
    """The store's ranking as first written: every chunk scored on every
    query, then a full sort by (-score, doc_id, start)."""
    scored = [
        (-reference_cosine(query_vector, chunk.vector), chunk.doc_id, chunk.start, chunk)
        for chunk in chunks
    ]
    scored.sort(key=lambda item: item[:3])
    return [chunk for _, _, _, chunk in scored[:k]]
