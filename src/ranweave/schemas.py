"""JSON document schemas shared by the agents and the conflict engine.

This module is the wire spec. Four documents exist: the perception
conflict report, the reasoning answer (one policy document per asked
intent, keyed by its id), the refinement answer (one revision document per
asked candidate, keyed by its intent's id) and the saved memory line.
Parsing is strict - unknown keys are rejected and every violation is
reported with its path so a malformed response can be re-prompted with
concrete errors. Both keyed answers share one decoder and are checked entry
by entry (an EntryDoc). Each entry of a reasoning answer and each revised
policy of a refinement answer pass one policy check: registered xApps only,
and the intent that was asked for; a memory line's pipeline must be of the
line's intent.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Generic, Iterable, Mapping, TypeVar

from .conflicts import ConflictKind, ConflictRecord, canonical_sort
from .model import ENTRY_ERRORS, Intent, Pipeline, Registry

# The conflict report groups its records by class under these keys.
REPORT_GROUPS = {
    ConflictKind.ACTUATOR_CONTENTION: "actuator",
    ConflictKind.PARAMETER_COUPLING: "parameter",
    ConflictKind.OBJECTIVE_INTERFERENCE: "objective",
    ConflictKind.VENDOR_INTEROP: "vendor",
}

T = TypeVar("T")


class SchemaValidationError(ValueError):
    def __init__(self, doc_name: str, errors: list[str]):
        self.doc_name = doc_name
        self.errors = list(errors)
        super().__init__(f"{doc_name}: " + "; ".join(errors))


class EditKind(str, Enum):
    REMOVE_DUPLICATE = "remove_duplicate"
    DROP_SUPERFLUOUS = "drop_superfluous"
    REORDER_STAGE = "reorder_stage"
    REPLACE_XAPP = "replace_xapp"
    ADJUST_CONDITIONS = "adjust_conditions"


def conflict_report(records: Iterable[ConflictRecord], notes: str = "") -> dict[str, object]:
    """Serialize records into the conflict-report shape, canonically sorted."""
    groups: dict[str, list[dict[str, object]]] = {name: [] for name in REPORT_GROUPS.values()}
    for record in canonical_sort(records):
        groups[REPORT_GROUPS[record.kind]].append(record.to_dict())
    return {"conflicts": groups, "notes": notes}


@dataclass(frozen=True)
class PerceptionDoc:
    records: tuple[ConflictRecord, ...]
    notes: str = ""

    def to_dict(self) -> dict[str, object]:
        return conflict_report(self.records, self.notes)


@dataclass(frozen=True)
class RefinementDoc:
    revised: Pipeline
    edits: tuple[tuple[EditKind, str], ...]

    def to_dict(self) -> dict[str, object]:
        return {
            "revised_policy": pipeline_to_policy_doc(self.revised),
            "edits": [[kind.value, rationale] for kind, rationale in self.edits],
        }


def pipeline_to_policy_doc(pipeline: Pipeline) -> dict[str, object]:
    """Lossless JSON form of a pipeline (node order preserved)."""
    return {
        "intent_id": pipeline.intent_id,
        "selected_xapps": [[node.xapp_id, node.directive_map] for node in pipeline.nodes],
        "edges": sorted([a, b] for a, b in pipeline.edges),
        "deployment_conditions": json.loads(pipeline.deployment_conditions),
    }


def policy_doc_to_pipeline(data: dict[str, object]) -> Pipeline:
    """Shape-checked pipeline of a decoded policy document, for round trips."""
    return _pipeline(data, _policy_shape_errors(data))


def _pipeline(data: dict[str, object], errors: list[str]) -> Pipeline:
    if errors:
        raise SchemaValidationError("policy document", errors)
    return Pipeline.build(
        data["intent_id"], data["selected_xapps"], data["edges"], dump_doc(data["deployment_conditions"])
    )


_POLICY_KEYS = {"intent_id", "selected_xapps", "edges", "deployment_conditions"}
_SCALAR_TYPES = (str, int, float, bool)


def _policy_doc_errors(data: object, registry: Registry, intent_id: int) -> list[str]:
    """The one check of an agent's pipeline: shape, registry, requested intent."""
    errors = _policy_shape_errors(data)
    if errors:
        return errors
    unknown = sorted({xapp_id for xapp_id, _ in data["selected_xapps"] if xapp_id not in registry})
    if unknown:
        errors.append(f"unregistered xApp ids {unknown}")
    return errors + _requested_intent_errors(data, intent_id)


def _requested_intent_errors(data: dict[str, object], intent_id: int) -> list[str]:
    """A shape-checked policy document must be of the intent intent_id."""
    if data["intent_id"] != intent_id:
        return [f"intent_id {data['intent_id']!r} is not the requested intent {intent_id!r}"]
    return []


def _policy_shape_errors(data: object) -> list[str]:
    if not isinstance(data, dict):
        return [f"expected a JSON object, got {type(data).__name__}"]
    errors = _key_errors(data, _POLICY_KEYS, _POLICY_KEYS, "")
    if not data.keys() >= _POLICY_KEYS:
        return errors

    # bool is an int subclass; true is not an intent id.
    if isinstance(data["intent_id"], bool) or not isinstance(data["intent_id"], int):
        errors.append("intent_id must be an integer")

    xapps = data["selected_xapps"]
    if not isinstance(xapps, list):
        errors.append("selected_xapps must be a list")
    else:
        for index, item in enumerate(xapps):
            if not (isinstance(item, (list, tuple)) and len(item) == 2):
                errors.append(f"selected_xapps[{index}] must be an [xapp_id, directive] pair")
                continue
            xapp_id, directive = item
            if not isinstance(xapp_id, str):
                errors.append(f"selected_xapps[{index}] xapp id must be a string")
            if not isinstance(directive, dict) or not all(
                isinstance(k, str) and isinstance(v, str) for k, v in directive.items()
            ):
                errors.append(f"selected_xapps[{index}] directive must map strings to strings")

    edges = data["edges"]
    if not isinstance(edges, list) or not all(
        isinstance(e, (list, tuple)) and len(e) == 2 and all(isinstance(x, str) for x in e)
        for e in edges
    ):
        errors.append("edges must be a list of [from, to] id pairs")

    # Deployment conditions are a flat object of scalars and lists of scalars;
    # their meaning is never interpreted, only their shape.
    conditions = data["deployment_conditions"]
    if not isinstance(conditions, dict):
        errors.append("deployment_conditions must be an object")
        return errors
    for key, value in conditions.items():
        if not isinstance(key, str) or not key:
            errors.append(f"condition keys must be nonempty strings, got {key!r}")
        if not isinstance(value, _SCALAR_TYPES) and not (
            isinstance(value, list) and all(isinstance(v, _SCALAR_TYPES) for v in value)
        ):
            errors.append(f"condition {key!r} must map to a scalar or list of scalars")
    return errors


@dataclass(frozen=True)
class EntryDoc(Generic[T]):
    """A keyed answer, checked entry by entry: each asked intent is in
    entries, when its entry passed its check, or in errors."""

    entries: dict[int, T]
    errors: dict[int, list[str]]


def _parse_keyed(
    text: str, doc_name: str, intent_ids: Iterable[int], entry: Callable[[object, int], T]
) -> EntryDoc[T]:
    """The rules both keyed answers share.

    The response is one JSON object keyed by the decimal id of each asked
    intent. It is decoded once, and entry checks and builds each value on
    its own, raising SchemaValidationError for an invalid one, so a missing
    or invalid entry fails only its intent. A text that is no such object,
    or that holds a key of no asked intent, raises SchemaValidationError.
    """
    data = _load_json(text, doc_name, "response")
    if not isinstance(data, dict):
        raise SchemaValidationError(doc_name, [f"expected a JSON object, got {type(data).__name__}"])
    keys = {str(intent_id): intent_id for intent_id in intent_ids}
    unknown = sorted(set(data) - keys.keys())
    if unknown:
        raise SchemaValidationError(doc_name, [f"keys {unknown} name no asked intent"])
    entries: dict[int, T] = {}
    errors: dict[int, list[str]] = {}
    for key, intent_id in keys.items():
        if key not in data:
            errors[intent_id] = [f"no entry for intent {intent_id}"]
            continue
        try:
            entries[intent_id] = entry(data[key], intent_id)
        except SchemaValidationError as exc:
            errors[intent_id] = exc.errors
    return EntryDoc(entries, errors)


def parse_policy_doc(text: str, registry: Registry, intent_ids: Iterable[int]) -> EntryDoc[Pipeline]:
    """Parse and validate a reasoning response for the intents intent_ids:
    each entry is that intent's policy document.

    Registry membership of the selected xApps is part of the schema check;
    structural validity of the pipeline itself is deliberately not, those
    violations are surfaced to refinement instead of being rejected here.
    """
    return _parse_keyed(
        text,
        "reasoning answer",
        intent_ids,
        lambda data, intent_id: _pipeline(data, _policy_doc_errors(data, registry, intent_id)),
    )


def parse_perception_doc(text: str) -> PerceptionDoc:
    data = _load_json(text, "conflict report", "response")
    if not isinstance(data, dict):
        raise SchemaValidationError("conflict report", ["expected a JSON object"])
    errors = _key_errors(data, {"conflicts", "notes"}, set(), "")
    conflicts = data.get("conflicts")
    if not isinstance(conflicts, dict):
        errors.append("conflicts must be an object grouping records by class")
        raise SchemaValidationError("conflict report", errors)

    group_names = set(REPORT_GROUPS.values())
    unknown_groups = sorted(set(conflicts) - group_names)
    if unknown_groups:
        errors.append(f"unknown conflict groups {unknown_groups}")
    kind_by_group = {group: kind for kind, group in REPORT_GROUPS.items()}

    records: list[ConflictRecord] = []
    for group in sorted(set(conflicts) & group_names):
        items = conflicts[group]
        if not isinstance(items, list):
            errors.append(f"conflicts.{group} must be a list")
            continue
        for index, item in enumerate(items):
            record, item_errors = _parse_record(item, f"conflicts.{group}[{index}]")
            if item_errors:
                errors.extend(item_errors)
                continue
            assert record is not None
            if record.kind != kind_by_group[group]:
                errors.append(
                    f"conflicts.{group}[{index}] kind {record.kind.value!r} does not match its group"
                )
                continue
            records.append(record)

    notes = data.get("notes", "")
    if not isinstance(notes, str):
        errors.append("notes must be a string")
    if errors:
        raise SchemaValidationError("conflict report", errors)
    return PerceptionDoc(records=tuple(canonical_sort(records)), notes=notes)


_RECORD_KEYS = {"kind", "participants", "subject", "explanation"}


def _parse_record(item: object, path: str) -> tuple[ConflictRecord | None, list[str]]:
    if not isinstance(item, dict):
        return None, [f"{path} must be an object"]
    errors = _key_errors(item, _RECORD_KEYS, _RECORD_KEYS, path)
    if not item.keys() >= _RECORD_KEYS:
        return None, errors
    try:
        kind = ConflictKind(str(item["kind"]))
    except ValueError:
        return None, errors + [f"{path} has unknown kind {item['kind']!r}"]
    participants = item["participants"]
    if not isinstance(participants, list) or not all(
        isinstance(p, (list, tuple)) and len(p) == 2 and all(isinstance(x, str) for x in p)
        for p in participants
    ):
        return None, errors + [f"{path} participants must be [pipeline_ref, xapp_id] pairs"]
    # Distinct pairs: a record holds a set, so a repeated pair counts once.
    participants = frozenset(map(tuple, participants))
    if len(participants) < 2:
        errors.append(f"{path} needs at least 2 participants")
    if not isinstance(item["subject"], str) or not isinstance(item["explanation"], str):
        errors.append(f"{path} subject and explanation must be strings")
    if errors:
        return None, errors
    return ConflictRecord(kind, participants, item["subject"], item["explanation"]), []


_REFINEMENT_KEYS = {"revised_policy", "edits"}


def parse_refinement_doc(
    text: str, originals: Mapping[int, Pipeline], registry: Registry
) -> EntryDoc[RefinementDoc]:
    """Parse and validate a refinement response for the candidates
    originals, keyed by intent id: each entry is the revision document of
    that intent's candidate, checked against it alone."""
    return _parse_keyed(
        text,
        "refinement answer",
        originals,
        lambda data, intent_id: _revision(data, originals[intent_id], registry),
    )


def _revision(data: object, original: Pipeline, registry: Registry) -> RefinementDoc:
    """The revision passes the same policy check as a reasoning answer.

    One SchemaValidationError carries every error found: the document's
    keys, the revised policy's and the edits'.
    """
    if not isinstance(data, dict):
        raise SchemaValidationError("refinement document", ["expected a JSON object"])
    errors = _key_errors(data, _REFINEMENT_KEYS, _REFINEMENT_KEYS, "")
    revised: Pipeline | None = None
    if "revised_policy" in data:
        policy_errors = _policy_doc_errors(data["revised_policy"], registry, original.intent_id)
        errors.extend(policy_errors)
        if not policy_errors:
            revised = _pipeline(data["revised_policy"], [])

    edits_raw = data.get("edits", [])
    edits: list[tuple[EditKind, str]] = []
    if not isinstance(edits_raw, list):
        errors.append("edits must be a list")
    else:
        for index, item in enumerate(edits_raw):
            if not (isinstance(item, (list, tuple)) and len(item) == 2):
                errors.append(f"edits[{index}] must be an [edit_kind, rationale] pair")
                continue
            kind_raw, rationale = item
            try:
                kind = EditKind(str(kind_raw))
            except ValueError:
                errors.append(f"edits[{index}] has unknown edit kind {kind_raw!r}")
                continue
            if not isinstance(rationale, str):
                errors.append(f"edits[{index}] rationale must be a string")
                continue
            edits.append((kind, rationale))

    if revised is not None and "edits" in data:
        changed = pipeline_to_policy_doc(revised) != pipeline_to_policy_doc(original)
        if changed and not edits:
            errors.append("revised policy differs from the input but edits is empty")
        if not changed and edits:
            errors.append("edits listed but the revised policy is unchanged")
    if errors:
        raise SchemaValidationError("refinement document", errors)
    return RefinementDoc(revised=revised, edits=tuple(edits))


_LINE_KEYS = {"intent", "pipeline", "outcome", "sequence_no"}
_OUTCOME_KEYS = {"deployed", "correct", "conflicts", "iteration", "score"}


def parse_memory_line(text: str, doc_name: str) -> tuple[dict, Intent, Pipeline, tuple[ConflictRecord, ...]]:
    """A saved memory line: its object, intent, pipeline and outcome records, each built once.

    One SchemaValidationError carries every error found: keys, the intent, the pipeline
    (which must be of that intent), the records, and the outcome's flags and counters,
    which the caller reads from the returned object.
    """
    data = _load_json(text, doc_name, "line")
    if not isinstance(data, dict):
        raise SchemaValidationError(doc_name, ["expected a JSON object"])
    errors = _key_errors(data, _LINE_KEYS, _LINE_KEYS, "")
    outcome = data.get("outcome")
    if isinstance(outcome, dict):
        errors += _key_errors(outcome, _OUTCOME_KEYS, _OUTCOME_KEYS, "outcome")
    elif "outcome" in data:
        errors.append("outcome must be an object")
    if not (data.keys() >= _LINE_KEYS and isinstance(outcome, dict) and outcome.keys() >= _OUTCOME_KEYS):
        raise SchemaValidationError(doc_name, errors)

    intent = None
    try:
        intent = Intent.from_dict(data["intent"])
    except KeyError as exc:
        errors.append(f"intent is missing field {exc}")
    except ENTRY_ERRORS as exc:
        errors.append(f"intent: {exc}")
    pipeline_errors = _policy_shape_errors(data["pipeline"])
    if not pipeline_errors and intent is not None:
        pipeline_errors = _requested_intent_errors(data["pipeline"], intent.id)
    errors += [f"pipeline: {error}" for error in pipeline_errors]

    records = []
    if not isinstance(outcome["conflicts"], list):
        errors.append("outcome.conflicts must be a list")
    else:
        for index, item in enumerate(outcome["conflicts"]):
            record, item_errors = _parse_record(item, f"outcome.conflicts[{index}]")
            errors += item_errors
            records.append(record)
    for path, value, kind in (
        ("outcome.deployed", outcome["deployed"], bool),
        ("outcome.correct", outcome["correct"], bool),
        ("outcome.iteration", outcome["iteration"], int),
        ("sequence_no", data["sequence_no"], int),
    ):
        if type(value) is not kind:  # type(): a bool is not a counter
            errors.append(f"{path} must be {'a boolean' if kind is bool else 'an integer'}, found {value!r}")
    score = outcome["score"]
    if not (isinstance(score, list) and len(score) == 4 and all(type(n) is int for n in score)):
        errors.append(f"outcome.score must be four integers, found {score!r}")
    if errors:
        raise SchemaValidationError(doc_name, errors)
    return data, intent, _pipeline(data["pipeline"], []), tuple(records)


def _key_errors(
    data: dict[str, object], allowed: set[str], required: set[str], path: str
) -> list[str]:
    """Unknown and missing keys of one JSON object; path prefixes the errors."""
    errors = []
    unknown = sorted(set(data) - allowed)
    if unknown:
        errors.append(f"{path} has unknown keys {unknown}" if path else f"unknown keys {unknown}")
    missing = sorted(required - set(data))
    if missing:
        errors.append(f"{path} is missing keys {missing}" if path else f"missing keys {missing}")
    return errors


def _reject_constant(name: str):
    """NaN, Infinity and -Infinity are no JSON values (RFC 8259, section 6)."""
    raise ValueError(f"{name} is not a JSON value")


def _finite_float(literal: str) -> float:
    """A JSON number with a fraction or exponent as a float. One past the float
    range (1e400) would decode to an infinity, which no JSON text can carry on,
    so it is refused as _reject_constant refuses the literal Infinity."""
    value = float(literal)
    if not math.isfinite(value):
        raise ValueError(f"{literal} is past the float range")
    return value


# Built once: json.loads and json.dumps build a new decoder or encoder on
# every call that passes a hook or an option. Neither keeps state between calls.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant, parse_float=_finite_float)
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)


def load_doc(text: str) -> object:
    """The one strict JSON decoder, of every backend response, saved memory
    line and fixture file. Malformed JSON (a leading byte order mark
    included), NaN or Infinity, a number past the float range and an integer
    past the digit limit raise ValueError; nesting deeper than the decoder
    can follow raises RecursionError."""
    return _DECODER.decode(text)


def _load_json(text: str, doc_name: str, subject: str) -> object:
    """The decoded text of doc_name; subject names the text in the error: response or line."""
    try:
        return load_doc(text)
    except (ValueError, RecursionError) as exc:
        raise SchemaValidationError(doc_name, [f"{subject} is not valid JSON: {exc}"]) from exc


def dump_doc(data: object) -> str:
    """The one JSON encoder, of every prompt section, every mock response and
    every pipeline's deployment conditions. A NaN or infinite float raises
    ValueError: its bare constant is no JSON value, so no decoder here would
    read the text back."""
    return _ENCODER.encode(data)
