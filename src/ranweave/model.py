"""Core Open RAN entities: xApp profiles, intents, pipelines, deployment state.

All types are immutable value objects; every operation in this module is a
pure function. Structural problems in a pipeline are reported as data
(Violation records), never as exceptions, so validation is total.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterable, Iterator, Mapping


class Stage(IntEnum):
    """Pipeline stage class. Edges must not run against this order."""

    SENSE = 0
    DECIDE = 1
    ACT = 2

    @classmethod
    def parse(cls, value: str) -> "Stage":
        try:
            return cls[value.upper()]
        except KeyError:
            raise ValueError(f"unknown stage {value!r}; expected sense, decide or act") from None

    @property
    def label(self) -> str:
        return self.name.lower()


Directive = tuple[tuple[str, str], ...]


def normalize_directive(directive: Mapping[str, str]) -> Directive:
    """Canonical form of a directive: sorted (param, setting) pairs."""
    items = list(directive.items())
    for param, setting in items:
        if not isinstance(param, str) or not isinstance(setting, str):
            raise ValueError(f"directive entries must be string pairs, got ({param!r}, {setting!r})")
    return tuple(sorted(items))


def string_field(value: object, name: str) -> str:
    """A loaded JSON string that encodes as UTF-8; a lone surrogate, number or other value is refused."""
    if not isinstance(value, str):
        raise TypeError(f"{name} must be a string, found {value!r}")
    if not value.isascii() and any("\ud800" <= char <= "\udfff" for char in value):
        raise ValueError(f"{name} must be UTF-8 text, found {value!r} with a lone surrogate")
    return value


def check_integer_id(value: object) -> None:
    """Refuse an intent or scenario id that is not an int; type(), so a bool is refused too."""
    if type(value) is not int:
        raise TypeError(f"expected an integer id, found {value!r}")


def string_array(value: object, name: str) -> list[str]:
    """A loaded JSON array of string_field strings; a string or any other value is refused."""
    if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
        raise TypeError(f"{name} must be an array of strings, found {value!r}")
    return [string_field(item, name) for item in value]


def json_object(value: object, name: str) -> dict:
    """A loaded JSON object; an array or any other value is refused."""
    if not isinstance(value, dict):
        raise TypeError(f"{name} must be an object, found {value!r}")
    return value


# What a from_dict constructor raises on a malformed entry, a missing field included.
ENTRY_ERRORS = (AttributeError, KeyError, TypeError, ValueError)


@dataclass(frozen=True, slots=True)
class XAppProfile:
    """Registry entry for one near-real-time control function."""

    id: str
    name: str
    vendor: str
    dialect: str
    capabilities: frozenset[str]
    controlled_params: frozenset[str]
    kpi_effects: tuple[tuple[str, int], ...]
    stage: Stage
    interfaces: frozenset[str]

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("xApp id must be nonempty")
        if not self.capabilities:
            raise ValueError(f"xApp {self.id!r} declares no capabilities")
        for kpi, direction in self.kpi_effects:
            if type(direction) is not int or direction not in (-1, 0, 1):  # type(): a bool is refused too
                raise ValueError(
                    f"xApp {self.id!r}: effect on {kpi!r} must be -1, 0 or +1, found {direction!r}"
                )

    @classmethod
    def build(
        cls,
        id: str,
        *,
        name: str = "",
        vendor: str = "generic",
        dialect: str = "generic-std",
        capabilities: Iterable[str] = (),
        controlled_params: Iterable[str] = (),
        kpi_effects: Mapping[str, int] | None = None,
        stage: Stage | str = Stage.ACT,
        interfaces: Iterable[str] = ("nearrt-api",),
    ) -> "XAppProfile":
        return cls(
            id=id,
            name=name or id,
            vendor=vendor,
            dialect=dialect,
            capabilities=frozenset(capabilities),
            controlled_params=frozenset(controlled_params),
            kpi_effects=tuple(sorted((kpi_effects or {}).items())),
            stage=stage if isinstance(stage, Stage) else Stage.parse(stage),
            interfaces=frozenset(interfaces),
        )

    def to_dict(self) -> dict[str, object]:
        return {
            "id": self.id,
            "name": self.name,
            "vendor": self.vendor,
            "dialect": self.dialect,
            "capabilities": sorted(self.capabilities),
            "controlled_params": sorted(self.controlled_params),
            "kpi_effects": dict(self.kpi_effects),
            "stage": self.stage.label,
            "interfaces": sorted(self.interfaces),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "XAppProfile":
        return cls.build(
            string_field(data["id"], "id"),
            name=string_field(data.get("name", data["id"]), "name"),
            vendor=string_field(data["vendor"], "vendor"),
            dialect=string_field(data["dialect"], "dialect"),
            capabilities=string_array(data["capabilities"], "capabilities"),
            controlled_params=string_array(data["controlled_params"], "controlled_params"),
            kpi_effects=json_object(data["kpi_effects"], "kpi_effects"),
            stage=string_field(data["stage"], "stage"),
            interfaces=string_array(data["interfaces"], "interfaces"),
        )


class Registry:
    """Immutable xApp catalog with id lookup, a capability index and a KPI catalog.

    The KPI catalog defaults to every KPI any profile declares an effect on;
    a wider catalog may be supplied when intents reference extra KPIs.
    """

    def __init__(self, profiles: Iterable[XAppProfile], kpi_catalog: Iterable[str] = ()):
        by_id: dict[str, XAppProfile] = {}
        for profile in profiles:
            if profile.id in by_id:
                raise ValueError(f"duplicate xApp id {profile.id!r} in registry")
            by_id[profile.id] = profile
        self._by_id = dict(sorted(by_id.items()))
        # Ascending id order, so "registry order" is what a plain sorted() gives.
        self.ids: tuple[str, ...] = tuple(self._by_id)
        holders: dict[str, list[int]] = {}
        for position, profile in enumerate(self._by_id.values()):
            for capability in profile.capabilities:
                holders.setdefault(capability, []).append(position)
        # capability -> the ascending positions in ids of the xApps that hold it
        self.holders: dict[str, tuple[int, ...]] = {cap: tuple(ps) for cap, ps in holders.items()}
        declared = {kpi for p in self._by_id.values() for kpi, _ in p.kpi_effects}
        self.kpi_catalog = frozenset(kpi_catalog) | declared

    def __contains__(self, xapp_id: str) -> bool:
        return xapp_id in self._by_id

    def __getitem__(self, xapp_id: str) -> XAppProfile:
        return self._by_id[xapp_id]

    def __iter__(self) -> Iterator[XAppProfile]:
        return iter(self._by_id.values())

    def __len__(self) -> int:
        return len(self._by_id)

    def get(self, xapp_id: str) -> XAppProfile | None:
        return self._by_id.get(xapp_id)


@dataclass(frozen=True, slots=True)
class Intent:
    """A high-level service objective submitted for orchestration."""

    id: int
    text: str
    target_kpis: tuple[tuple[str, int], ...]
    required_capabilities: frozenset[str]
    required_xapps: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        check_integer_id(self.id)
        if not self.target_kpis:
            raise ValueError(f"intent {self.id!r} targets no KPIs")
        if not self.required_capabilities:
            raise ValueError(f"intent {self.id!r} requires no capabilities")
        for kpi, direction in self.target_kpis:
            if type(direction) is not int or direction not in (-1, 1):
                raise ValueError(
                    f"intent {self.id!r}: target direction on {kpi!r} must be -1 or +1, found {direction!r}"
                )

    @classmethod
    def build(
        cls,
        id: int,
        text: str,
        *,
        target_kpis: Mapping[str, int],
        required_capabilities: Iterable[str],
        required_xapps: Iterable[str] = (),
    ) -> "Intent":
        return cls(
            id=id,
            text=text,
            target_kpis=tuple(sorted(target_kpis.items())),
            required_capabilities=frozenset(required_capabilities),
            required_xapps=frozenset(required_xapps),
        )

    @property
    def targets(self) -> dict[str, int]:
        return dict(self.target_kpis)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Intent":
        return cls.build(
            data["id"],
            string_field(data["text"], "text"),
            target_kpis=json_object(data["target_kpis"], "target_kpis"),
            required_capabilities=string_array(data["required_capabilities"], "required_capabilities"),
            required_xapps=string_array(data.get("required_xapps", []), "required_xapps"),
        )


@dataclass(frozen=True, slots=True)
class PipelineNode:
    xapp_id: str
    directive: Directive

    @property
    def directive_map(self) -> dict[str, str]:
        return dict(self.directive)


@dataclass(frozen=True, slots=True)
class Pipeline:
    """An rApp policy: a DAG of configured xApps plus deployment conditions.

    The conditions are opaque here: the object as canonical JSON text, in the
    form schemas.dump_doc gives it, which schemas.py checks, encodes and decodes.
    == is sameness: intent, nodes in order, edge set and condition bytes.
    The hash is kept in _hash on first use; copies and pickles are rebuilt
    through the constructor, as a hash holds only in its own process.
    """

    intent_id: int
    nodes: tuple[PipelineNode, ...]
    edges: frozenset[tuple[str, str]]
    deployment_conditions: str = "{}"
    _hash: int = field(init=False, repr=False, compare=False)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash((self.intent_id, self.nodes, self.edges, self.deployment_conditions)))
            return self._hash

    def __reduce__(self) -> tuple:
        return (type(self), (self.intent_id, self.nodes, self.edges, self.deployment_conditions))

    @classmethod
    def build(
        cls,
        intent_id: int,
        nodes: Iterable[tuple[str, Mapping[str, str]]],
        edges: Iterable[tuple[str, str]] = (),
        conditions: str = "{}",
    ) -> "Pipeline":
        """The normalizing constructor: sorted directives, an edge set, the conditions as given."""
        return cls(
            intent_id=intent_id,
            nodes=tuple(PipelineNode(x, normalize_directive(d)) for x, d in nodes),
            edges=frozenset((str(a), str(b)) for a, b in edges),
            deployment_conditions=conditions,
        )

    @property
    def node_ids(self) -> tuple[str, ...]:
        return tuple(node.xapp_id for node in self.nodes)

    def size(self) -> int:
        return len(self.nodes)


DEFAULT_DIRECTIVE_SETTING = "auto"


def default_directive(profile: XAppProfile) -> dict[str, str]:
    """Reference setting for every parameter an xApp controls.

    Settings are symbolic; the reference policy always requests the managed
    default, so two intents reusing one xApp agree byte-for-byte.
    """
    return {param: DEFAULT_DIRECTIVE_SETTING for param in sorted(profile.controlled_params)}


def stage_chain(
    xapp_ids: Iterable[str], registry: Registry
) -> tuple[tuple[str, ...], frozenset[tuple[str, str]]]:
    """The canonical pipeline shape over distinct registered xApps.

    Nodes sorted by (stage, id), each linked to the next: the chain every
    reference pipeline has and every refined candidate is rebuilt to.
    """
    ordered = tuple(sorted(xapp_ids, key=lambda x: (registry[x].stage, x)))
    return ordered, frozenset(zip(ordered, ordered[1:]))


@dataclass(frozen=True, slots=True)
class DeploymentState:
    """The set of currently active rApp pipelines."""

    active: tuple[Pipeline, ...] = ()

    def __len__(self) -> int:
        return len(self.active)

    def __iter__(self) -> Iterator[Pipeline]:
        return iter(self.active)


@dataclass(frozen=True, slots=True)
class Violation:
    """One structural defect found in a pipeline."""

    code: str
    detail: str

    def __str__(self) -> str:
        return f"{self.code}: {self.detail}"


def validate_pipeline_structure(pipeline: Pipeline, registry: Registry) -> tuple[Violation, ...]:
    """Full structural check: every violation found, crash-free; empty when the pipeline is valid."""
    violations: list[Violation] = []

    if not pipeline.nodes:
        violations.append(Violation("empty_pipeline", "pipeline has no nodes"))

    seen: set[str] = set()
    for node in pipeline.nodes:
        if node.xapp_id in seen:
            violations.append(Violation("duplicate_node", f"xApp {node.xapp_id!r} appears more than once"))
        seen.add(node.xapp_id)
        if node.xapp_id not in registry:
            violations.append(Violation("unknown_xapp", f"xApp {node.xapp_id!r} is not registered"))

    node_ids = set(pipeline.node_ids)
    usable_edges: list[tuple[str, str]] = []
    for a, b in sorted(pipeline.edges):
        if a not in node_ids or b not in node_ids:
            violations.append(Violation("dangling_edge", f"edge ({a!r}, {b!r}) references a missing node"))
            continue
        usable_edges.append((a, b))
        profile_a, profile_b = registry.get(a), registry.get(b)
        if profile_a is not None and profile_b is not None and profile_a.stage > profile_b.stage:
            violations.append(
                Violation(
                    "stage_order",
                    f"edge ({a!r}, {b!r}) runs {profile_a.stage.label} -> {profile_b.stage.label}",
                )
            )

    cycle_nodes = _peel(node_ids, usable_edges)
    if cycle_nodes:
        violations.append(Violation("cycle", f"cycle through {sorted(cycle_nodes)}"))

    return tuple(violations)


def _peel(node_ids: Iterable[str], edges: Iterable[tuple[str, str]]) -> set[str]:
    """Kahn's peel: the nodes it leaves, those on a cycle or reachable from one.

    Which nodes are left does not depend on the order the ready ones are peeled.
    """
    indegree = {n: 0 for n in node_ids}
    successors: dict[str, list[str]] = {n: [] for n in indegree}
    for a, b in edges:
        indegree[b] += 1
        successors[a].append(b)
    ready = [n for n, d in indegree.items() if d == 0]
    left = set(indegree)
    while ready:
        node = ready.pop()
        left.remove(node)
        for nxt in successors[node]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                ready.append(nxt)
    return left


def pipelines_equal(p: Pipeline, q: Pipeline) -> bool:
    """Ground-truth equality: nodes with directives and the edge set.

    Deployment conditions are deliberately excluded; they only need to exist
    and be schema-valid, there is no reference value to compare against.
    """
    p_nodes = {node.xapp_id: node.directive for node in p.nodes}
    q_nodes = {node.xapp_id: node.directive for node in q.nodes}
    return p_nodes == q_nodes and p.edges == q.edges


def has_directed_path(pipeline: Pipeline, source: str, target: str) -> bool:
    """True when target is reachable from source along pipeline edges."""
    if source == target:
        return True
    successors: dict[str, list[str]] = {}
    for a, b in pipeline.edges:
        successors.setdefault(a, []).append(b)
    stack = [source]
    visited: set[str] = set()
    while stack:
        node = stack.pop()
        if node == target:
            return True
        if node in visited:
            continue
        visited.add(node)
        stack.extend(successors.get(node, ()))
    return False
