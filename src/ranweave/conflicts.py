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

import copy
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

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
    """Unordered pairs of two distinct dialects that cannot execute reliably together."""

    incompatible: frozenset[frozenset[str]]

    def __post_init__(self) -> None:
        for pair in self.incompatible:
            if len(pair) == 1:
                raise ValueError(f"dialect {next(iter(pair))!r} cannot be incompatible with itself")
            if len(pair) != 2:
                raise ValueError(f"an incompatible pair must hold two dialects, found {sorted(pair)!r}")

    @classmethod
    def of(cls, *pairs: tuple[str, str]) -> "VendorCompatibilityMatrix":
        return cls(frozenset(frozenset(pair) for pair in pairs))

    def clashes(self, dialect_a: str, dialect_b: str) -> bool:
        return dialect_b in self.partners.get(dialect_a, ())

    @cached_property
    def partners(self) -> dict[str, frozenset[str]]:
        """Each dialect of a pair mapped to the dialects it clashes with, worked out once per matrix."""
        partners: dict[str, frozenset[str]] = {}
        for pair in self.incompatible:
            for dialect in pair:
                partners[dialect] = partners.get(dialect, frozenset()) | (pair - {dialect})
        return partners

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "VendorCompatibilityMatrix":
        pairs = [string_array(pair, "an incompatible pair") for pair in data["incompatible"]]
        for pair in pairs:
            if len(pair) != 2:
                raise ValueError(f"an incompatible pair must hold two dialects, found {pair!r}")
        return cls.of(*pairs)


@dataclass(frozen=True, slots=True)
class PipelineFacts:
    """What the pairwise detectors and the pair gate read of one pipeline, for its intent.

    writers maps each written parameter to the xApp ids of the nodes that
    write it, pushes each (KPI, nonzero direction) to those of the nodes
    whose xApp moves the KPI that way, and contacts holds each node's (xApp
    id, dialect, written parameters, moved KPIs); all in node order. A node
    whose xApp is not registered adds nothing, and a repeated node adds
    itself again. The gate's keys (see meets) hold, per conflict class,
    what one side must meet of the other:
    * actuator contention a shared xApp of another directive: an xApp held
      once is a name, ("xapp", id) valued by its node's directive;
    * parameter coupling a shared parameter of another writer: a parameter
      one node writes is a name, ("param", name) valued by that writer; a
      repeated xApp and a parameter of two or more writers are probed for,
      and every xApp and written parameter is offered, by name;
    * objective interference a target (KPI, d) of one side meeting a target
      or move (KPI, -d) of the other: a target probes ("kpi", KPI, -d), and
      targets and moves offer ("kpi", KPI, direction);
    * vendor contact a clashing dialect pair on a shared parameter, or on a
      KPI both xApps move: a node offers ("dialect-param", its dialect,
      parameter) and ("dialect-kpi", its dialect, KPI), and probes the same
      keys under every dialect that clashes with its own.
    """

    writers: dict[str, list[str]]
    pushes: dict[tuple[str, int], list[str]]
    contacts: tuple[tuple[str, str, frozenset[str], frozenset[str]], ...]
    probe: frozenset[tuple]
    offer: frozenset[tuple]
    named: frozenset[tuple[tuple, object]]
    names: frozenset[tuple]

    @classmethod
    def of(
        cls, pipeline: Pipeline, intent: Intent, registry: Registry, matrix: VendorCompatibilityMatrix
    ) -> "PipelineFacts":
        pushes: dict[tuple[str, int], list[str]] = {}
        contacts = []
        for node in pipeline.nodes:
            profile = registry.get(node.xapp_id)
            if profile is None:
                continue
            moved = []
            for kpi, direction in profile.kpi_effects:
                if direction:
                    pushes.setdefault((kpi, direction), []).append(node.xapp_id)
                    moved.append(kpi)
            contacts.append((node.xapp_id, profile.dialect, profile.controlled_params, frozenset(moved)))
        writers, held = _param_writers(pipeline, registry), pipeline.node_ids
        named = {("xapp", node.xapp_id): node.directive for node in pipeline.nodes if held.count(node.xapp_id) == 1}
        named.update((("param", param), xapps[0]) for param, xapps in writers.items() if len(xapps) == 1)
        offer = {("xapp", xapp_id) for xapp_id in held} | {("param", param) for param in writers}
        probe = offer - named.keys()
        for kpi, direction in intent.target_kpis:
            probe.add(("kpi", kpi, -direction))
            offer.add(("kpi", kpi, direction))
        offer.update(("kpi", kpi, direction) for kpi, direction in pushes)
        for _, dialect, params, kpis in contacts:
            partners = matrix.partners.get(dialect, ())
            for kind, resources in (("dialect-param", params), ("dialect-kpi", kpis)):
                for resource in resources:
                    offer.add((kind, dialect, resource))
                    for partner in partners:
                        probe.add((kind, partner, resource))
        keys = (frozenset(probe), frozenset(offer), frozenset(named.items()), frozenset(named))
        return cls(writers, pushes, tuple(contacts), *keys)

    def meets(self, other: "PipelineFacts") -> bool:
        """Whether one side's probe keys meet the other's offer keys, or the two share a name of another value.

        pairwise_conflicts finds a record only for a pair that meets, in
        either order; when neither pipeline repeats an xApp, every pair that
        meets has one, since each meeting is then a record's condition."""
        if not self.probe.isdisjoint(other.offer) or not other.probe.isdisjoint(self.offer):
            return True
        if self.names.isdisjoint(other.names):
            return False
        return len(self.named & other.named) < len(self.names & other.names)


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
    a: PipelineFacts, b: PipelineFacts, *, a_ref: str, b_ref: str
) -> list[ConflictRecord]:
    """Distinct xApps across pipelines writing the same network parameter.

    Overlap through the very same xApp is actuator contention's business
    and is not reported here.
    """
    records = []
    for param in sorted(a.writers.keys() & b.writers.keys()):
        xa, xb = a.writers[param], b.writers[param]
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
    a: PipelineFacts,
    intent_a: Intent,
    b: PipelineFacts,
    intent_b: Intent,
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
        against_a = b.pushes.get((kpi, -dir_a), ()) if dir_a is not None else ()
        against_b = a.pushes.get((kpi, -dir_b), ()) if dir_b is not None else ()
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


def detect_vendor_conflicts(
    a: PipelineFacts,
    b: PipelineFacts,
    matrix: VendorCompatibilityMatrix,
    *,
    a_ref: str,
    b_ref: str,
) -> list[ConflictRecord]:
    """Incompatible dialects that actually touch.

    Cross-pipeline, incompatibility only matters on contact: the two xApps
    must share a controlled parameter or a (nonzero) KPI effect.
    """
    records = []
    for xa, dialect_a, params_a, kpis_a in a.contacts:
        for xb, dialect_b, params_b, kpis_b in b.contacts:
            if params_a.isdisjoint(params_b) and kpis_a.isdisjoint(kpis_b):
                continue
            if not matrix.clashes(dialect_a, dialect_b):
                continue
            records.append(
                ConflictRecord(
                    kind=ConflictKind.VENDOR_INTEROP,
                    participants=frozenset({(a_ref, xa), (b_ref, xb)}),
                    subject=_dialect_pair(dialect_a, dialect_b),
                    explanation=f"xApps {xa} and {xb} use incompatible dialects and act on shared resources",
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
    inputs: tuple[PipelineFacts, PipelineFacts] | None = None,
) -> list[ConflictRecord]:
    """All four detectors over one unordered pipeline pair, canonically
    ordered: each detector's list is, and they run in ConflictKind order.
    inputs, when given, are the PipelineFacts of a and of b, as a
    ConflictMemo keeps them; otherwise they are worked out here."""
    intent_a, intent_b = intents[a.intent_id], intents[b.intent_id]
    facts_a, facts_b = inputs or [PipelineFacts.of(p, intents[p.intent_id], registry, matrix) for p in (a, b)]
    records = detect_actuator_contention(a, b, a_ref=a_ref, b_ref=b_ref)
    records += detect_parameter_coupling(facts_a, facts_b, a_ref=a_ref, b_ref=b_ref)
    records += detect_objective_interference(facts_a, intent_a, facts_b, intent_b, a_ref=a_ref, b_ref=b_ref)
    records += detect_vendor_conflicts(facts_a, facts_b, matrix, a_ref=a_ref, b_ref=b_ref)
    return records


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
    from a fresh ConflictMemo whose active set is others: the pipeline's
    internal records and its row, whose gate skips only active pipelines
    the detectors could find nothing with.
    """
    memo = ConflictMemo(intents, matrix, registry, DeploymentState(tuple(others)))
    ref = candidate_ref(pipeline.intent_id)
    records = list(memo.internal(ref, pipeline))
    for _, edge_records in memo.row(ref, pipeline):
        records += edge_records
    records = canonical_sort(records)
    return (not records, records)


Edge = tuple[tuple[str, str], tuple[ConflictRecord, ...]]
Member = tuple[str, Pipeline, PipelineFacts]


@dataclass(frozen=True)
class ConflictGraph:
    """Pipelines as vertices, detected conflicts as labeled edges."""

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    def all_records(self) -> list[ConflictRecord]:
        return canonical_sort(r for _, records in self.edges for r in records)


@dataclass
class ConflictMemo:
    """A run's conflict inputs and what has been worked out from them.

    intents, matrix, registry and pre, the active set, are the inputs every
    fact depends on; the memo's methods are the one way to a pipeline's
    facts, a pair's records, a pipeline's internal records or its row
    against the active set. members holds the (ref, pipeline, facts) of
    each active pipeline in ref order, worked out once per memo and shared
    by its copies. Every table is keyed by pipeline value (Pipeline ==), and
    by refs where records name them: facts maps p to its PipelineFacts,
    pairs maps (ref_a, ref_b, a, b) to the pair's records, internals maps
    (ref, p) to its internal_conflicts records and rows maps (ref, p) to
    p's edges to the members that sort after ref. A row's pairs are kept in
    its row entry alone, since a row is worked out once. So a pipeline
    equal to one met before (X -> Y -> X) finds its entries again.
    """

    intents: Mapping[int, Intent]
    matrix: VendorCompatibilityMatrix
    registry: Registry
    pre: DeploymentState
    pairs: dict[tuple[str, str, Pipeline, Pipeline], tuple[ConflictRecord, ...]] = field(default_factory=dict)
    facts: dict[Pipeline, PipelineFacts] = field(default_factory=dict)
    internals: dict[tuple[str, Pipeline], tuple[ConflictRecord, ...]] = field(default_factory=dict)
    rows: dict[tuple[str, Pipeline], tuple[Edge, ...]] = field(default_factory=dict)
    members: tuple[Member, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.members = tuple((ref, p, self.facts_of(p)) for ref, p in labelled({}, self.pre))

    def copy(self) -> "ConflictMemo":
        """A memo of the same inputs, members and entries whose later entries stay its own."""
        twin = copy.copy(self)
        for name in ("pairs", "facts", "internals", "rows"):
            setattr(twin, name, dict(getattr(self, name)))
        return twin

    def facts_of(self, pipeline: Pipeline) -> PipelineFacts:
        """PipelineFacts.of pipeline for its intent, worked out once per value."""
        if (found := self.facts.get(pipeline)) is None:
            intent = self.intents[pipeline.intent_id]
            found = self.facts[pipeline] = PipelineFacts.of(pipeline, intent, self.registry, self.matrix)
        return found

    def pair(self, ref_a: str, a: Pipeline, ref_b: str, b: Pipeline) -> tuple[ConflictRecord, ...]:
        """pairwise_conflicts of a under ref_a and b under ref_b, worked out once per pair of values."""
        key = (ref_a, ref_b, a, b)
        if (found := self.pairs.get(key)) is None:
            found = self.pairs[key] = self.unkept_pair(ref_a, a, ref_b, b)
        return found

    def unkept_pair(self, ref_a: str, a: Pipeline, ref_b: str, b: Pipeline) -> tuple[ConflictRecord, ...]:
        """pairwise_conflicts of a under ref_a and b under ref_b, worked out
        afresh and kept in no table: a row's pairs, which its own entry keeps."""
        facts = (self.facts_of(a), self.facts_of(b))
        records = pairwise_conflicts(
            a, b, self.intents, self.matrix, self.registry, a_ref=ref_a, b_ref=ref_b, inputs=facts
        )
        return tuple(records)

    def internal(self, ref: str, pipeline: Pipeline) -> tuple[ConflictRecord, ...]:
        """internal_conflicts of pipeline under ref, worked out once per value."""
        key = (ref, pipeline)
        if (found := self.internals.get(key)) is None:
            found = self.internals[key] = tuple(internal_conflicts(pipeline, self.matrix, self.registry, ref=ref))
        return found

    def row(self, ref: str, pipeline: Pipeline) -> tuple[Edge, ...]:
        """The edges of pipeline under ref to the members that sort after
        ref, in ref order; worked out once per (ref, value)."""
        key = (ref, pipeline)
        if (found := self.rows.get(key)) is None:
            after = [member for member in self.members if member[0] > ref]
            found = self.rows[key] = _edges((ref, pipeline, self.facts_of(pipeline)), after, self.unkept_pair)
        return found


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


def _edges(member: Member, others: Iterable[Member], pair: Callable[..., tuple]) -> tuple[Edge, ...]:
    """The edges of member, a (ref, pipeline, facts), to each of others, in
    their order, asking pair (a memo's pair or unkept_pair) only of a pair
    whose facts meet."""
    ref, pipeline, facts = member
    edges = []
    for other_ref, other, other_facts in others:
        if facts.meets(other_facts) and (records := pair(ref, pipeline, other_ref, other)):
            edges.append(((ref, other_ref), records))
    return tuple(edges)


def build_conflict_graph(candidates: Mapping[int, Pipeline], memo: ConflictMemo) -> ConflictGraph:
    """Run all four detectors over every unordered pipeline pair that can conflict.

    The vertices are labelled's refs of the candidates and memo's active
    set, and the edges come in ref order: labelled puts every candidate
    before every active pipeline, so a candidate's edges are those to the
    later candidates, then its row (memo.row), and an active pipeline's
    edges are its row. A pair whose PipelineFacts do not meet has no
    records and is not checked, so the graph is the all-pairs graph.
    memo keeps the facts across calls: a pipeline's facts once per value,
    the records of a candidate pair that meets once per pair of values
    under their refs (memo.pair), and a row once per (ref, value), so a
    later build over equal candidates visits only the candidate pairs.
    """
    heads = [(ref, p, memo.facts_of(p)) for ref, p in labelled(candidates, DeploymentState())]
    edges: list[Edge] = []
    for i, (ref, pipeline, _) in enumerate(heads):
        edges += _edges(heads[i], heads[i + 1 :], memo.pair)
        edges += memo.row(ref, pipeline)
    for ref, pipeline, _ in memo.members:
        edges += memo.row(ref, pipeline)
    return ConflictGraph(vertices=tuple(ref for ref, _, _ in (*heads, *memo.members)), edges=tuple(edges))


@dataclass(frozen=True)
class ConflictEvaluation:
    """One candidate set checked against the active set; see evaluate_conflicts."""

    graph: ConflictGraph
    records: tuple[ConflictRecord, ...]
    usable: tuple[int, ...]
    clashes: Mapping[int, set[int]]


def evaluate_conflicts(
    candidates: Mapping[int, Pipeline], eligible: Sequence[int], memo: ConflictMemo
) -> ConflictEvaluation:
    """The one conflict evaluation of a candidate set, read by every consumer.

    eligible lists the candidate ids that may deploy, in intent order. The
    graph covers every candidate and memo's active set; the rest speaks only
    of eligible ids. records are the graph's edges whose two ends are
    eligible or active, plus each eligible candidate's internal conflicts,
    canonically sorted. usable keeps the eligible ids that no internal
    conflict and no active pipeline blocks; clashes maps each eligible id to
    the eligible ids it conflicts with. An edge to an ineligible candidate
    neither blocks nor counts. memo is the run's ConflictMemo, the source of
    the active set and of every fact: the graph reads its facts, pair and
    row entries, and each eligible candidate's internal records come from
    its internal entries.
    """
    graph = build_conflict_graph(candidates, memo)
    by_ref = {candidate_ref(intent_id): intent_id for intent_id in eligible}
    active = {ref for ref, _, _ in memo.members}
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
