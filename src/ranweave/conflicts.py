"""Coordination-conflict detection between rApp pipelines.

Four conflict classes are modeled as deterministic predicates:

* actuator contention - two pipelines configure the same xApp with
  different directives (identical directives are legal sharing),
* parameter coupling - distinct xApps write the same network parameter,
* objective interference - opposing pressure on a shared KPI,
* vendor interoperability - incompatible control dialects in contact.

Detectors are pure and symmetric; a fixed canonical ordering of the
resulting records makes every derived artifact byte-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable, Mapping, Sequence

from .model import DeploymentState, Intent, Pipeline, Registry, has_directed_path, string_array

PIPELINE_LEVEL = "*"


class ConflictKind(str, Enum):
    ACTUATOR_CONTENTION = "actuator_contention"
    PARAMETER_COUPLING = "parameter_coupling"
    OBJECTIVE_INTERFERENCE = "objective_interference"
    VENDOR_INTEROP = "vendor_interop"


_KIND_ORDER = {kind: index for index, kind in enumerate(ConflictKind)}


@dataclass(frozen=True, slots=True)
class ConflictRecord:
    """One detected conflict, with the pipelines and xApps implicated.

    Participants are (pipeline-ref, xapp_id) pairs; the pipeline-level
    marker "*" stands in when a whole intent, not a specific xApp, is the
    implicated party (intent-vs-intent objective opposition).
    """

    kind: ConflictKind
    participants: frozenset[tuple[str, str]]
    subject: str
    explanation: str

    def sort_key(self) -> tuple:
        return (_KIND_ORDER[self.kind], self.subject, tuple(sorted(self.participants)))

    def refs(self) -> set[str]:
        return {ref for ref, _ in self.participants}

    def to_dict(self) -> dict[str, object]:
        return {
            "kind": self.kind.value,
            "participants": [list(p) for p in sorted(self.participants)],
            "subject": self.subject,
            "explanation": self.explanation,
        }


def canonical_sort(records: Iterable[ConflictRecord]) -> list[ConflictRecord]:
    return sorted(records, key=ConflictRecord.sort_key)


@dataclass(frozen=True)
class VendorCompatibilityMatrix:
    """Unordered dialect pairs that cannot execute reliably together."""

    incompatible: frozenset[frozenset[str]]

    @classmethod
    def of(cls, *pairs: tuple[str, str]) -> "VendorCompatibilityMatrix":
        for a, b in pairs:
            if a == b:
                raise ValueError(f"dialect {a!r} cannot be incompatible with itself")
        return cls(frozenset(frozenset(pair) for pair in pairs))

    def clashes(self, dialect_a: str, dialect_b: str) -> bool:
        return frozenset((dialect_a, dialect_b)) in self.incompatible

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "VendorCompatibilityMatrix":
        pairs = [string_array(pair, "an incompatible pair") for pair in data["incompatible"]]
        for pair in pairs:
            if len(pair) != 2:
                raise ValueError(f"an incompatible pair must hold two dialects, found {pair!r}")
        return cls.of(*pairs)


def detect_actuator_contention(a: Pipeline, b: Pipeline, *, a_ref: str, b_ref: str) -> list[ConflictRecord]:
    """Same xApp in both pipelines with differing directives.

    Reusing one xApp with an identical directive is allowed: identical
    instructions cannot contend at the actuator.
    """
    records = []
    directives_b = {node.xapp_id: node.directive for node in b.nodes}
    for node in a.nodes:
        other = directives_b.get(node.xapp_id)
        if other is not None and other != node.directive:
            records.append(
                ConflictRecord(
                    kind=ConflictKind.ACTUATOR_CONTENTION,
                    participants=frozenset({(a_ref, node.xapp_id), (b_ref, node.xapp_id)}),
                    subject=node.xapp_id,
                    explanation=(
                        f"pipelines {a_ref} and {b_ref} push different directives to xApp {node.xapp_id}"
                    ),
                )
            )
    return canonical_sort(records)


def detect_parameter_coupling(
    a: Pipeline, b: Pipeline, registry: Registry, *, a_ref: str, b_ref: str
) -> list[ConflictRecord]:
    """Distinct xApps across pipelines writing the same network parameter.

    Overlap through the very same xApp is actuator contention's business
    and is not reported here.
    """
    writers_a = _param_writers(a, registry)
    writers_b = _param_writers(b, registry)
    records = []
    for param in sorted(set(writers_a) & set(writers_b)):
        xa, xb = writers_a[param], writers_b[param]
        if not any(w1 != w2 for w1 in xa for w2 in xb):
            continue
        participants = {(a_ref, x) for x in xa} | {(b_ref, x) for x in xb}
        records.append(
            ConflictRecord(
                kind=ConflictKind.PARAMETER_COUPLING,
                participants=frozenset(participants),
                subject=param,
                explanation=f"parameter {param} is written from both pipeline {a_ref} and pipeline {b_ref}",
            )
        )
    return canonical_sort(records)


def detect_internal_coupling(pipeline: Pipeline, registry: Registry, *, ref: str) -> list[ConflictRecord]:
    """Two xApps of one pipeline writing the same parameter without ordering.

    A directed path between the writers means the DAG sequences their
    actuation, which is exactly what edges are for; only unordered pairs
    are conflicts.
    """
    writers = _param_writers(pipeline, registry)
    records = []
    for param, xapps in sorted(writers.items()):
        ordered = sorted(xapps)
        for i, x1 in enumerate(ordered):
            for x2 in ordered[i + 1 :]:
                if has_directed_path(pipeline, x1, x2) or has_directed_path(pipeline, x2, x1):
                    continue
                records.append(
                    ConflictRecord(
                        kind=ConflictKind.PARAMETER_COUPLING,
                        participants=frozenset({(ref, x1), (ref, x2)}),
                        subject=param,
                        explanation=(
                            f"xApps {x1} and {x2} both write {param} inside pipeline {ref} "
                            "with no ordering between them"
                        ),
                    )
                )
    return canonical_sort(records)


def _param_writers(pipeline: Pipeline, registry: Registry) -> dict[str, list[str]]:
    writers: dict[str, list[str]] = {}
    for node in pipeline.nodes:
        profile = registry.get(node.xapp_id)
        if profile is None:
            continue
        for param in profile.controlled_params:
            writers.setdefault(param, []).append(node.xapp_id)
    return writers


def detect_objective_interference(
    a: Pipeline,
    intent_a: Intent,
    b: Pipeline,
    intent_b: Intent,
    registry: Registry,
    *,
    a_ref: str,
    b_ref: str,
) -> list[ConflictRecord]:
    """Opposing pressure on a shared KPI.

    Fires when the two intents demand opposite directions on a KPI, or when
    an xApp on one side strictly pushes a KPI against the other intent's
    target. Neutral (zero) effects never interfere.
    """
    targets_a, targets_b = intent_a.targets, intent_b.targets
    records = []
    for kpi in sorted(set(targets_a) | set(targets_b)):
        dir_a, dir_b = targets_a.get(kpi), targets_b.get(kpi)
        opposed_intents = dir_a is not None and dir_b is not None and dir_a == -dir_b
        against_a = _opposing_nodes(b, registry, kpi, dir_a)
        against_b = _opposing_nodes(a, registry, kpi, dir_b)
        if not (opposed_intents or against_a or against_b):
            continue
        participants = {(b_ref, x) for x in against_a} | {(a_ref, x) for x in against_b}
        if opposed_intents or not any(r == a_ref for r, _ in participants):
            participants.add((a_ref, PIPELINE_LEVEL))
        if opposed_intents or not any(r == b_ref for r, _ in participants):
            participants.add((b_ref, PIPELINE_LEVEL))
        records.append(
            ConflictRecord(
                kind=ConflictKind.OBJECTIVE_INTERFERENCE,
                participants=frozenset(participants),
                subject=kpi,
                explanation=f"pipelines {a_ref} and {b_ref} exert opposing pressure on KPI {kpi}",
            )
        )
    return canonical_sort(records)


def _opposing_nodes(pipeline: Pipeline, registry: Registry, kpi: str, wanted: int | None) -> list[str]:
    if wanted is None:
        return []
    out = []
    for node in pipeline.nodes:
        profile = registry.get(node.xapp_id)
        if profile is not None and profile.effect_on(kpi) == -wanted:
            out.append(node.xapp_id)
    return out


def detect_vendor_conflicts(
    a: Pipeline,
    b: Pipeline,
    matrix: VendorCompatibilityMatrix,
    registry: Registry,
    *,
    a_ref: str,
    b_ref: str,
) -> list[ConflictRecord]:
    """Incompatible dialects that actually touch.

    Cross-pipeline, incompatibility only matters on contact: the two xApps
    must share a controlled parameter or a (nonzero) KPI effect.
    """
    records = []
    for node_a in a.nodes:
        pa = registry.get(node_a.xapp_id)
        if pa is None:
            continue
        for node_b in b.nodes:
            pb = registry.get(node_b.xapp_id)
            if pb is None or not matrix.clashes(pa.dialect, pb.dialect):
                continue
            shared_params = pa.controlled_params & pb.controlled_params
            shared_kpis = _touched_kpis(pa) & _touched_kpis(pb)
            if not shared_params and not shared_kpis:
                continue
            records.append(
                ConflictRecord(
                    kind=ConflictKind.VENDOR_INTEROP,
                    participants=frozenset({(a_ref, node_a.xapp_id), (b_ref, node_b.xapp_id)}),
                    subject=_dialect_pair(pa.dialect, pb.dialect),
                    explanation=(
                        f"xApps {node_a.xapp_id} and {node_b.xapp_id} use incompatible "
                        f"dialects and act on shared resources"
                    ),
                )
            )
    return canonical_sort(records)


def detect_internal_vendor(
    pipeline: Pipeline, matrix: VendorCompatibilityMatrix, registry: Registry, *, ref: str
) -> list[ConflictRecord]:
    """Adjacent pipeline nodes whose dialects cannot interoperate."""
    records = []
    for a, b in sorted(pipeline.edges):
        pa, pb = registry.get(a), registry.get(b)
        if pa is None or pb is None or not matrix.clashes(pa.dialect, pb.dialect):
            continue
        records.append(
            ConflictRecord(
                kind=ConflictKind.VENDOR_INTEROP,
                participants=frozenset({(ref, a), (ref, b)}),
                subject=_dialect_pair(pa.dialect, pb.dialect),
                explanation=f"edge ({a}, {b}) inside pipeline {ref} crosses incompatible dialects",
            )
        )
    return canonical_sort(records)


def _touched_kpis(profile) -> set[str]:
    return {kpi for kpi, direction in profile.kpi_effects if direction != 0}


def _dialect_pair(d1: str, d2: str) -> str:
    return "|".join(sorted((d1, d2)))


def pairwise_conflicts(
    a: Pipeline,
    b: Pipeline,
    intents: Mapping[int, Intent],
    matrix: VendorCompatibilityMatrix,
    registry: Registry,
    *,
    a_ref: str,
    b_ref: str,
) -> list[ConflictRecord]:
    """All four detectors over one unordered pipeline pair, canonically
    ordered: each detector's list is, and they run in ConflictKind order."""
    records = detect_actuator_contention(a, b, a_ref=a_ref, b_ref=b_ref)
    records += detect_parameter_coupling(a, b, registry, a_ref=a_ref, b_ref=b_ref)
    records += detect_objective_interference(
        a, intents[a.intent_id], b, intents[b.intent_id], registry, a_ref=a_ref, b_ref=b_ref
    )
    records += detect_vendor_conflicts(a, b, matrix, registry, a_ref=a_ref, b_ref=b_ref)
    return records


def reach(pipeline: Pipeline, intent: Intent, registry: Registry) -> set[str]:
    """Every resource through which the pipeline can conflict with another.

    Its node xApp ids, its registered xApps' written parameters and the KPIs
    they move (nonzero effects), and its intent's target KPIs; an
    unregistered node adds its id alone. Each conflict class needs a shared
    resource, so two pipelines whose reaches are disjoint have no conflict:
    actuator contention a shared xApp, parameter coupling a shared
    parameter, objective interference a KPI one side targets and the other
    targets or moves, and vendor contact a shared parameter or a KPI both
    move. The three kinds of name share one set; a name that is an xApp on
    one side and a KPI on the other only lets an extra pair through.
    """
    keys = {kpi for kpi, _ in intent.target_kpis}
    for node in pipeline.nodes:
        keys.add(node.xapp_id)
        profile = registry.get(node.xapp_id)
        if profile is not None:
            keys |= profile.controlled_params
            keys.update(kpi for kpi, direction in profile.kpi_effects if direction)
    return keys


def internal_conflicts(
    pipeline: Pipeline, matrix: VendorCompatibilityMatrix, registry: Registry, *, ref: str
) -> list[ConflictRecord]:
    """Both internal detectors, canonically ordered as in pairwise_conflicts."""
    records = detect_internal_coupling(pipeline, registry, ref=ref)
    records += detect_internal_vendor(pipeline, matrix, registry, ref=ref)
    return records


def validity(
    pipeline: Pipeline,
    others: Iterable[Pipeline],
    intents: Mapping[int, Intent],
    matrix: VendorCompatibilityMatrix,
    registry: Registry,
) -> tuple[bool, list[ConflictRecord]]:
    """Can this pipeline deploy safely alongside the given active set?

    Returns the verdict together with every conflict record found; the
    record list is exactly the concatenation of the four detectors plus the
    pipeline's own internal checks, canonically ordered. labelled names the
    pipeline as a candidate and others as the active set. The facts come
    from a fresh ConflictMemo of the three inputs, through the gate of
    build_conflict_graph: an active pipeline whose reach misses the
    pipeline's is skipped, since the detectors could find nothing there.
    """
    memo = ConflictMemo(intents, matrix, registry)
    ref = candidate_ref(pipeline.intent_id)
    records = list(memo.internal(ref, pipeline))
    own = memo.reach(pipeline)
    for other_ref, other in labelled({}, DeploymentState(tuple(others))):
        if not own.isdisjoint(memo.reach(other)):
            records += memo.pair(ref, pipeline, other_ref, other)
    records = canonical_sort(records)
    return (not records, records)


@dataclass(frozen=True)
class ConflictGraph:
    """Pipelines as vertices, detected conflicts as labeled edges."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[tuple[str, str], tuple[ConflictRecord, ...]], ...]

    def all_records(self) -> list[ConflictRecord]:
        return canonical_sort(r for _, records in self.edges for r in records)


@dataclass
class ConflictMemo:
    """A run's conflict inputs and what has been worked out from them.

    intents, matrix and registry are the inputs every fact depends on; the
    memo's methods are the one way to a reach, a pair's records or a
    pipeline's internal records. Every entry is kept per object, and one
    holding records under their refs too: reaches maps id(p) to (p, its
    reach), pairs maps (ref_a, ref_b, id(a), id(b)) to (a, b, the pair's
    records) and internals maps (ref, id(p)) to (p, its internal_conflicts
    records). Each entry holds its objects, so no id in its key is reused
    while it lasts, and a candidate that comes back to an earlier object
    (X -> Y -> X) finds its entries again. interned maps each pipeline
    value to its first object (see intern).
    """

    intents: Mapping[int, Intent]
    matrix: VendorCompatibilityMatrix
    registry: Registry
    pairs: dict[tuple[str, str, int, int], tuple[Pipeline, Pipeline, tuple[ConflictRecord, ...]]] = field(
        default_factory=dict
    )
    reaches: dict[int, tuple[Pipeline, set[str]]] = field(default_factory=dict)
    internals: dict[tuple[str, int], tuple[Pipeline, tuple[ConflictRecord, ...]]] = field(default_factory=dict)
    interned: dict[Pipeline, Pipeline] = field(default_factory=dict)

    def copy(self) -> "ConflictMemo":
        """A memo of the same inputs and entries whose later entries stay its own."""
        return replace(
            self,
            pairs=dict(self.pairs),
            reaches=dict(self.reaches),
            internals=dict(self.internals),
            interned=dict(self.interned),
        )

    def intern(self, pipeline: Pipeline) -> Pipeline:
        """The first object interned with pipeline's value, pipeline itself if none was."""
        return self.interned.setdefault(pipeline, pipeline)

    def reach(self, pipeline: Pipeline) -> set[str]:
        """reach() of pipeline, worked out once per object."""
        if id(pipeline) not in self.reaches:
            self.reaches[id(pipeline)] = (pipeline, reach(pipeline, self.intents[pipeline.intent_id], self.registry))
        return self.reaches[id(pipeline)][1]

    def pair(self, ref_a: str, a: Pipeline, ref_b: str, b: Pipeline) -> tuple[ConflictRecord, ...]:
        """pairwise_conflicts of a under ref_a and b under ref_b, worked out once per pair of objects."""
        key = (ref_a, ref_b, id(a), id(b))
        if key not in self.pairs:
            records = pairwise_conflicts(a, b, self.intents, self.matrix, self.registry, a_ref=ref_a, b_ref=ref_b)
            self.pairs[key] = (a, b, tuple(records))
        return self.pairs[key][2]

    def internal(self, ref: str, pipeline: Pipeline) -> tuple[ConflictRecord, ...]:
        """internal_conflicts of pipeline under ref, worked out once per object."""
        key = (ref, id(pipeline))
        if key not in self.internals:
            records = internal_conflicts(pipeline, self.matrix, self.registry, ref=ref)
            self.internals[key] = (pipeline, tuple(records))
        return self.internals[key][1]


def candidate_ref(intent_id: int) -> str:
    """A candidate pipeline's ref: its intent id."""
    return str(intent_id)


def active_ref(intent_id: int) -> str:
    """An active pipeline's ref: "pre:" and its intent id, never a candidate's ref."""
    return f"pre:{intent_id}"


def labelled(candidates: Mapping[int, Pipeline], pre: DeploymentState) -> list[tuple[str, Pipeline]]:
    """The batch's (ref, pipeline) pairs, in ref order: the one place refs are decided.

    Refs sort as strings, so "10" comes before "9" and every candidate
    before every active pipeline.
    """
    pairs = [(candidate_ref(intent_id), p) for intent_id, p in candidates.items()]
    pairs += [(active_ref(p.intent_id), p) for p in pre]
    return sorted(pairs, key=lambda pair: pair[0])


def build_conflict_graph(
    candidates: Mapping[int, Pipeline], pre: DeploymentState, memo: ConflictMemo
) -> ConflictGraph:
    """Run all four detectors over every unordered pipeline pair that can conflict.

    The vertices are labelled's refs; walking its ref-ordered pairs i < j
    yields the edges in ref order. A pair whose reaches are disjoint is
    skipped without asking memo.pair: reach holds one necessary resource per
    conflict class, so every skipped pair has no records, and the graph is
    the all-pairs graph. memo supplies the inputs and keeps the facts across
    calls: a reach once per object, the records of a pair the gate lets
    through once per pair of objects under their refs.
    """
    batch = labelled(candidates, pre)
    reaches = [memo.reach(p) for _, p in batch]
    edges = []
    for i, (ref_a, pipe_a) in enumerate(batch):
        reach_a = reaches[i]
        for (ref_b, pipe_b), reach_b in zip(batch[i + 1 :], reaches[i + 1 :]):
            if reach_a.isdisjoint(reach_b):
                continue
            records = memo.pair(ref_a, pipe_a, ref_b, pipe_b)
            if records:
                edges.append(((ref_a, ref_b), records))
    return ConflictGraph(vertices=tuple(ref for ref, _ in batch), edges=tuple(edges))


@dataclass(frozen=True)
class ConflictEvaluation:
    """One candidate set checked against the active set; see evaluate_conflicts."""

    graph: ConflictGraph
    records: tuple[ConflictRecord, ...]
    usable: tuple[int, ...]
    clashes: Mapping[int, set[int]]


def evaluate_conflicts(
    candidates: Mapping[int, Pipeline],
    eligible: Sequence[int],
    pre: DeploymentState,
    memo: ConflictMemo,
) -> ConflictEvaluation:
    """The one conflict evaluation of a candidate set, read by every consumer.

    eligible lists the candidate ids that may deploy, in intent order. The
    graph covers every candidate and the active set; the rest speaks only of
    eligible ids. records are the graph's edges whose two ends are eligible
    or active, plus each eligible candidate's internal conflicts, canonically
    sorted. usable keeps the eligible ids that no internal conflict and no
    active pipeline blocks; clashes maps each eligible id to the eligible ids
    it conflicts with. An edge to an ineligible candidate neither blocks nor
    counts. memo is the run's ConflictMemo, the source of every fact: the
    graph reads its reach and pair entries, and each eligible candidate's
    internal records come from its internal entries.
    """
    graph = build_conflict_graph(candidates, pre, memo)
    by_ref = {candidate_ref(intent_id): intent_id for intent_id in eligible}
    active = {ref for ref, _ in labelled({}, pre)}
    records: list[ConflictRecord] = []
    blocked: set[int] = set()
    clashes: dict[int, set[int]] = {intent_id: set() for intent_id in eligible}
    for (ref_a, ref_b), edge_records in graph.edges:
        a, b = by_ref.get(ref_a), by_ref.get(ref_b)
        if (a is None and ref_a not in active) or (b is None and ref_b not in active):
            continue
        records += edge_records
        if a is not None and b is not None:
            clashes[a].add(b)
            clashes[b].add(a)
        elif a is not None or b is not None:
            blocked.add(a if a is not None else b)
    for intent_id in eligible:
        own = memo.internal(candidate_ref(intent_id), candidates[intent_id])
        if own:
            blocked.add(intent_id)
            records += own
    return ConflictEvaluation(
        graph=graph,
        records=tuple(canonical_sort(records)),
        usable=tuple(i for i in eligible if i not in blocked),
        clashes=clashes,
    )
