from __future__ import annotations

import json
import math
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ranweave.conflicts import ConflictKind, ConflictMemo, ConflictRecord, build_conflict_graph
from ranweave.model import DeploymentState, Pipeline, Registry, XAppProfile
from ranweave.schemas import (
    EditKind,
    SchemaValidationError,
    conflict_report,
    dump_doc,
    load_doc,
    parse_perception_doc,
    parse_policy_doc,
    parse_refinement_doc,
    pipeline_to_policy_doc,
    report_table,
    table_doc,
)

from .helpers import (
    decode_policy,
    json_values,
    policies_of_table,
    random_pipeline,
    random_registry,
    replace_one_value,
    report_of_table,
    table_rows,
)

# The xApps "a" and "b" of the hand-written refinement documents below.
_AB = Registry(XAppProfile.build(x, capabilities=["c"]) for x in ("a", "b"))


def test_policy_doc_roundtrip_simple():
    pipeline = Pipeline.build(
        3,
        [("baseband_placement_scheduler", {"placement_map": "auto"}), ("urllc_guard", {"preemption_policy": "auto"})],
        [("baseband_placement_scheduler", "urllc_guard")],
        conditions=dump_doc({"load": "any", "windows": ["night", "weekend"]}),
    )
    doc = pipeline_to_policy_doc(pipeline)
    assert decode_policy(json.loads(json.dumps(doc))) == pipeline


def test_policy_doc_roundtrip_500_random_pipelines():
    rng = random.Random(2024)
    for _ in range(500):
        registry = random_registry(rng, rng.randint(2, 8))
        pipeline = random_pipeline(rng, registry, rng.randint(1, 40), max_nodes=5)
        if rng.random() < 0.5:
            pipeline = Pipeline.build(
                pipeline.intent_id,
                [(n.xapp_id, n.directive_map) for n in pipeline.nodes],
                pipeline.edges,
                conditions=dump_doc({"max_load": rng.randint(1, 99), "slices": ["embb", "urllc"]}),
            )
        doc = json.loads(json.dumps(pipeline_to_policy_doc(pipeline)))
        assert decode_policy(doc) == pipeline


def test_policy_doc_rejects_unknown_keys():
    doc = pipeline_to_policy_doc(Pipeline.build(1, [("a", {})]))
    doc["surprise"] = True
    with pytest.raises(SchemaValidationError, match="unknown keys"):
        decode_policy(doc)


def test_policy_doc_rejects_missing_keys():
    with pytest.raises(SchemaValidationError, match="missing keys"):
        decode_policy({"intent_id": 1})


def test_policy_doc_rejects_bad_directive():
    doc = pipeline_to_policy_doc(Pipeline.build(1, [("a", {})]))
    doc["selected_xapps"] = [["a", {"p": 42}]]
    with pytest.raises(SchemaValidationError, match="directive"):
        decode_policy(doc)


@pytest.mark.parametrize("intent_id", ["3", True, 3.0, None], ids=repr)
def test_policy_doc_refuses_an_intent_id_that_is_not_an_integer(intent_id):
    """Intent ids are JSON integers end to end; a string one would load as
    an id that no integer id matches, and true is not 1."""
    doc = pipeline_to_policy_doc(Pipeline.build(3, [("a", {})]))
    doc["intent_id"] = intent_id
    with pytest.raises(SchemaValidationError, match="intent_id must be an integer"):
        decode_policy(doc)


def test_policy_doc_rejects_nested_conditions():
    doc = pipeline_to_policy_doc(Pipeline.build(1, [("a", {})]))
    doc["deployment_conditions"] = {"nested": {"too": "deep"}}
    with pytest.raises(SchemaValidationError):
        decode_policy(doc)


# Flat condition objects: scalars, among them the values that compare equal
# but encode apart (1, 1.0 and true; 0, 0.0, -0.0 and false), and lists of them.
_SCALARS = st.one_of(
    st.sampled_from([1, 1.0, True, 0, 0.0, -0.0, False]),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
)
_CONDITIONS = st.dictionaries(
    st.sampled_from(["load", "window"]) | st.text(min_size=1, max_size=4),
    _SCALARS | st.lists(_SCALARS, max_size=3),
    max_size=3,
)


def _policy_with(conditions: dict) -> dict:
    return {"intent_id": 1, "selected_xapps": [["a", {}]], "edges": [], "deployment_conditions": conditions}


def _answer_for_1(doc: object, registry: Registry = _AB):
    """The reasoning answer of a response holding doc as intent 1's entry."""
    return parse_policy_doc(dump_doc({"1": doc}), registry, [1])


def _revision_of(payload: object, original: Pipeline, registry: Registry = _AB):
    """The refinement answer of a response holding payload as the entry of original's intent."""
    return parse_refinement_doc(dump_doc({str(original.intent_id): payload}), {original.intent_id: original}, registry)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(conditions=_CONDITIONS)
def test_a_parsed_policy_gives_back_its_bytes(conditions):
    doc = _policy_with(conditions)
    assert dump_doc(pipeline_to_policy_doc(_answer_for_1(doc).entries[1])) == dump_doc(doc)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(a=_CONDITIONS, b=_CONDITIONS)
@example(a={"load": 1}, b={"load": 1.0})
@example(a={"load": 0.0}, b={"load": -0.0})
@example(a={"window": [1, 0]}, b={"window": [True, False]})
def test_parsed_pipelines_are_equal_exactly_when_their_condition_bytes_are(a, b):
    """A pipeline's identity is its bytes: == and hashing tell 1 from 1.0 and true."""
    p, q = (_answer_for_1(_policy_with(c)).entries[1] for c in (a, b))
    assert (p == q) == (dump_doc(a) == dump_doc(b))
    assert p == _answer_for_1(_policy_with(a)).entries[1]


def test_parse_policy_checks_registry_membership(bundle):
    doc = pipeline_to_policy_doc(Pipeline.build(1, [("not_registered", {})]))
    answer = _answer_for_1(doc, bundle.registry)
    assert answer.entries == {}
    assert answer.errors == {1: ["unregistered xApp ids ['not_registered']"]}


def test_parse_policy_tolerates_structural_defects(bundle):
    # Duplicates or bad edges are surfaced later by structural validation,
    # not rejected at the schema boundary.
    pipeline = Pipeline.build(
        1, [("mobility_predictor", {}), ("mobility_predictor", {})], []
    )
    parsed = _answer_for_1(pipeline_to_policy_doc(pipeline), bundle.registry).entries[1]
    assert parsed.node_ids == ("mobility_predictor", "mobility_predictor")


def test_parse_policy_rejects_invalid_json(bundle):
    with pytest.raises(SchemaValidationError, match="not valid JSON"):
        parse_policy_doc("pipelines { when ready }", bundle.registry, [1])


def test_a_reasoning_answer_fails_each_entry_on_its_own(bundle, truths):
    """A missing or invalid entry fails its intent alone; a key of no asked
    intent, or a document that is no object, fails the whole answer."""
    good = {str(i): pipeline_to_policy_doc(truths[i]) for i in (1, 2)}
    answer = parse_policy_doc(dump_doc({**good, "7": {**good["1"], "intent_id": 1}}), bundle.registry, [1, 2, 7, 3])
    assert answer.entries == {1: truths[1], 2: truths[2]}
    assert answer.errors == {
        7: ["intent_id 1 is not the requested intent 7"],
        3: ["no entry for intent 3"],
    }
    for text, match in (
        (dump_doc({**good, "01": good["1"]}), r"keys \['01'\] name no asked intent"),
        (dump_doc([good["1"]]), "expected a JSON object, got list"),
    ):
        with pytest.raises(SchemaValidationError, match=match):
            parse_policy_doc(text, bundle.registry, [1, 2])


def test_perception_doc_roundtrip_from_engine(bundle, truths):
    contending = Pipeline.build(9, [("ran_slicing_manager_b", {"slice_quota": "auto"})])
    intents = dict(bundle.intents)
    intents[9] = bundle.intents[7]
    graph = build_conflict_graph(
        {7: truths[7], 9: contending}, ConflictMemo(intents, bundle.matrix, bundle.registry, DeploymentState())
    )
    payload = conflict_report(graph.all_records(), notes="engine output")
    doc = parse_perception_doc(dump_doc(payload))
    assert doc.notes == "engine output"
    assert [r.to_dict() for r in doc.records] == [r.to_dict() for r in graph.all_records()]


def test_perception_doc_rejects_unknown_group():
    payload = {"conflicts": {"actuator": [], "parameter": [], "objective": [], "vendor": [], "psychic": []}, "notes": ""}
    with pytest.raises(SchemaValidationError, match="unknown conflict groups"):
        parse_perception_doc(dump_doc(payload))


def test_perception_doc_rejects_misfiled_record():
    record = {
        "kind": "vendor_interop",
        "participants": [["1", "x"], ["2", "y"]],
        "subject": "d1|d2",
        "explanation": "filed under the wrong group",
    }
    payload = {"conflicts": {"actuator": [record], "parameter": [], "objective": [], "vendor": []}, "notes": ""}
    with pytest.raises(SchemaValidationError, match="does not match its group"):
        parse_perception_doc(dump_doc(payload))


def test_perception_doc_rejects_single_participant():
    record = {
        "kind": "actuator_contention",
        "participants": [["1", "x"]],
        "subject": "x",
        "explanation": "lonely",
    }
    payload = {"conflicts": {"actuator": [record], "parameter": [], "objective": [], "vendor": []}, "notes": ""}
    with pytest.raises(SchemaValidationError, match="at least 2 participants"):
        parse_perception_doc(dump_doc(payload))


# (record field, a value it is set to, the message the error carries)
_BAD_RECORD_FIELDS = [
    ("participants", [[3, "x"], [4, "y"]], "participants must be [pipeline_ref, xapp_id] pairs"),
    ("participants", [["1", "x"]], "needs at least 2 participants"),
    ("participants", [["1", "x"], ["1", "x"]], "needs at least 2 participants"),
    ("subject", 5, "subject and explanation must be strings"),
    ("explanation", None, "subject and explanation must be strings"),
    ("kind", "telepathy", "has unknown kind 'telepathy'"),
]


@pytest.mark.parametrize(
    "field, value, match",
    _BAD_RECORD_FIELDS,
    ids=["unpaired", "one", "repeated", "subject-5", "explanation-null", "kind-unknown"],
)
def test_perception_doc_refuses_a_record_field_of_the_wrong_form(field, value, match):
    """A participant is a [ref, xApp] pair of strings, a repeated pair counts
    once, subject and explanation are strings and the kind is a known one;
    nothing is coerced."""
    record = {
        "kind": "actuator_contention",
        "participants": [["1", "x"], ["2", "x"]],
        "subject": "x",
        "explanation": "clash",
        field: value,
    }
    payload = {"conflicts": {"actuator": [record]}, "notes": ""}
    with pytest.raises(SchemaValidationError, match=rf"conflicts\.actuator\[0\] {re.escape(match)}"):
        parse_perception_doc(dump_doc(payload))


@pytest.mark.parametrize(
    "group, match",
    [
        ({"kind": "actuator_contention"}, "conflicts.actuator must be a list"),
        (["clash"], "conflicts.actuator[0] must be an object"),
        (
            [{"kind": "actuator_contention", "participants": [["1", "x"], ["2", "x"]], "subject": "x"}],
            "conflicts.actuator[0] is missing keys ['explanation']",
        ),
    ],
    ids=["group-object", "record-string", "record-without-explanation"],
)
def test_perception_doc_refuses_a_malformed_group_or_record(group, match):
    with pytest.raises(SchemaValidationError, match=re.escape(match)):
        parse_perception_doc(dump_doc({"conflicts": {"actuator": group}, "notes": ""}))


def test_perception_doc_empty_groups_parse():
    payload = {"conflicts": {"actuator": [], "parameter": [], "objective": [], "vendor": []}, "notes": "clear"}
    doc = parse_perception_doc(dump_doc(payload))
    assert doc.records == ()


def test_refinement_doc_unchanged_with_empty_edits():
    pipeline = Pipeline.build(1, [("a", {"p": "auto"})])
    payload = {"revised_policy": pipeline_to_policy_doc(pipeline), "edits": []}
    doc = _revision_of(payload, pipeline).entries[1]
    assert doc.revised == pipeline
    assert doc.edits == ()


def test_refinement_doc_requires_edits_when_changed():
    original = Pipeline.build(1, [("a", {"p": "auto"}), ("a", {"p": "auto"})])
    revised = Pipeline.build(1, [("a", {"p": "auto"})])
    payload = {"revised_policy": pipeline_to_policy_doc(revised), "edits": []}
    assert _revision_of(payload, original).errors == {1: ["revised policy differs from the input but edits is empty"]}


def test_refinement_doc_rejects_phantom_edits():
    pipeline = Pipeline.build(1, [("a", {"p": "auto"})])
    payload = {
        "revised_policy": pipeline_to_policy_doc(pipeline),
        "edits": [["remove_duplicate", "nothing was actually removed"]],
    }
    assert _revision_of(payload, pipeline).errors == {1: ["edits listed but the revised policy is unchanged"]}


def test_refinement_doc_rejects_unknown_edit_kind():
    original = Pipeline.build(1, [("a", {"p": "auto"}), ("b", {})])
    revised = Pipeline.build(1, [("a", {"p": "auto"})])
    payload = {
        "revised_policy": pipeline_to_policy_doc(revised),
        "edits": [["transmogrify", "not a thing"]],
    }
    assert _revision_of(payload, original).errors == {
        1: [
            "edits[0] has unknown edit kind 'transmogrify'",
            "revised policy differs from the input but edits is empty",
        ]
    }


@pytest.mark.parametrize("rationale", [5, None, ["dropped b"]], ids=["int", "null", "list"])
def test_refinement_doc_refuses_a_rationale_that_is_not_a_string(rationale):
    original = Pipeline.build(1, [("a", {"p": "auto"}), ("b", {})])
    revised = Pipeline.build(1, [("a", {"p": "auto"})])
    payload = {"revised_policy": pipeline_to_policy_doc(revised), "edits": [["drop_superfluous", rationale]]}
    assert _revision_of(payload, original).errors == {
        1: ["edits[0] rationale must be a string", "revised policy differs from the input but edits is empty"]
    }


def test_refinement_doc_valid_edit_roundtrip():
    original = Pipeline.build(1, [("a", {"p": "auto"}), ("a", {"p": "auto"})])
    revised = Pipeline.build(1, [("a", {"p": "auto"})])
    payload = {
        "revised_policy": pipeline_to_policy_doc(revised),
        "edits": [["remove_duplicate", "a appeared twice"]],
    }
    answer = _revision_of(payload, original)
    assert answer.errors == {}
    assert answer.entries[1].edits == ((EditKind.REMOVE_DUPLICATE, "a appeared twice"),)


@pytest.mark.parametrize("before, after", [(1, True), (True, 1), (1, 1.0)], ids=repr)
def test_a_revision_of_a_condition_to_an_equal_number_is_a_change(before, after):
    """1, 1.0 and true encode apart, so a revision from one to another
    changed the pipeline: it parses with an edit listed and is refused
    without one."""
    original = Pipeline.build(1, [("a", {"p": "auto"})], conditions=dump_doc({"max_load": before}))
    revised = dict(pipeline_to_policy_doc(original), deployment_conditions={"max_load": after})
    edited = _revision_of({"revised_policy": revised, "edits": [["adjust_conditions", "a flag"]]}, original)
    assert edited.errors == {}
    assert edited.entries[1].revised.deployment_conditions == dump_doc({"max_load": after})
    silent = _revision_of({"revised_policy": revised, "edits": []}, original)
    assert silent.errors == {1: ["revised policy differs from the input but edits is empty"]}


# Equal under == in Python, three values in a condition.
_ONE = (1, 1.0, True)


@st.composite
def _revision_pairs(draw):
    """An original pipeline of intent 1 over the xApps a and b, and a
    revision policy drawn from it: condition values flipped among 1, 1.0
    and true, nodes reordered, dropped or added, an edge added or dropped,
    each or none."""
    xapp = st.sampled_from(["a", "b"])
    directive = st.dictionaries(st.sampled_from(["p", "q"]), st.sampled_from(["auto", "off"]), max_size=1)
    nodes = draw(st.lists(st.tuples(xapp, directive), max_size=3))
    edges = draw(st.lists(st.tuples(xapp, xapp), max_size=2))
    conditions = draw(st.dictionaries(st.sampled_from(["load", "window"]), st.sampled_from([*_ONE, 0, "peak"])))
    original = Pipeline.build(1, nodes, edges, dump_doc(conditions))
    flipped = {
        key: draw(st.sampled_from(_ONE)) if value in _ONE and draw(st.booleans()) else value
        for key, value in conditions.items()
    }
    changes = draw(st.sets(st.sampled_from(["reverse", "drop", "add", "link", "unlink"]), max_size=2))
    if "reverse" in changes:
        nodes = nodes[::-1]
    if "drop" in changes:
        nodes = nodes[1:]
    if "add" in changes:
        nodes = [*nodes, draw(st.tuples(xapp, directive))]
    if "link" in changes:
        edges = [*edges, draw(st.tuples(xapp, xapp))]
    if "unlink" in changes:
        edges = edges[1:]
    revision = {
        "intent_id": 1,
        "selected_xapps": [[x, d] for x, d in nodes],
        "edges": [list(edge) for edge in edges],
        "deployment_conditions": flipped,
    }
    return original, revision


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(pair=_revision_pairs())
@example(
    pair=(
        Pipeline.build(1, [("a", {})], conditions='{"max_load":1}'),
        _policy_with({"max_load": True}),
    )
)
def test_a_revision_lists_edits_exactly_when_it_is_not_equal_to_its_original(pair):
    """A revision with edits parses exactly when revised != original, and
    one without edits exactly when the two are equal; != is the byte
    inequality of the two policy documents."""
    original, revision = pair
    revised = decode_policy(revision)
    changed = revised != original
    assert changed == (dump_doc(pipeline_to_policy_doc(revised)) != dump_doc(pipeline_to_policy_doc(original)))
    edited = _revision_of({"revised_policy": revision, "edits": [["adjust_conditions", "drawn"]]}, original)
    silent = _revision_of({"revised_policy": revision, "edits": []}, original)
    assert (edited.entries.keys() == {1}) == changed
    assert (silent.entries.keys() == {1}) == (not changed)
    assert [doc.revised for doc in (*edited.entries.values(), *silent.entries.values())] == [revised]


def test_refinement_doc_reports_every_error_at_once(truths, registry):
    """Document-level errors are reported beside the revised policy's, and
    the edits are still checked."""
    answer = parse_refinement_doc('{"3": {"revised_policy": {}, "edits": [], "extra": 1}}', {3: truths[3]}, registry)
    assert answer.entries == {}
    assert answer.errors == {
        3: [
            "unknown keys ['extra']",
            "missing keys ['deployment_conditions', 'edges', 'intent_id', 'selected_xapps']",
        ]
    }

    bad_policy = dict(pipeline_to_policy_doc(truths[3]), selected_xapps=[["phantom", {}]])
    payload = {"revised_policy": bad_policy, "edits": [["transmogrify", "x"], "y"], "extra": 1}
    assert _revision_of(payload, truths[3], registry).errors[3] == [
        "unknown keys ['extra']",
        "unregistered xApp ids ['phantom']",
        "edits[0] has unknown edit kind 'transmogrify'",
        "edits[1] must be an [edit_kind, rationale] pair",
    ]
    assert _revision_of({"edits": 3}, truths[3], registry).errors[3] == [
        "missing keys ['revised_policy']", "edits must be a list"
    ]
    assert _revision_of([], truths[3], registry).errors[3] == ["expected a JSON object"]


def test_a_refinement_answer_checks_each_entry_against_its_own_original():
    """Each revision is checked against the candidate of its own intent, so
    one bad entry fails only its intent; a missing entry fails its intent,
    and a key of no asked intent, or a text that is no object, fails the
    whole answer."""
    twice = Pipeline.build(1, [("a", {"p": "auto"}), ("a", {"p": "auto"})])
    once = Pipeline.build(1, [("a", {"p": "auto"})])
    other = Pipeline.build(2, [("b", {})])
    originals = {1: twice, 2: other, 3: Pipeline.build(3, [("b", {})])}
    good = {"revised_policy": pipeline_to_policy_doc(once), "edits": [["remove_duplicate", "a twice"]]}
    phantom = {"revised_policy": pipeline_to_policy_doc(other), "edits": [["remove_duplicate", "none"]]}
    answer = parse_refinement_doc(dump_doc({"1": good, "2": phantom}), originals, _AB)
    assert {i: doc.revised for i, doc in answer.entries.items()} == {1: once}
    assert answer.errors == {
        2: ["edits listed but the revised policy is unchanged"],
        3: ["no entry for intent 3"],
    }
    for text, match in (
        (dump_doc({"1": good, "4": good}), r"keys \['4'\] name no asked intent"),
        (dump_doc([good]), "expected a JSON object, got list"),
    ):
        with pytest.raises(SchemaValidationError, match=match) as caught:
            parse_refinement_doc(text, originals, _AB)
        assert caught.value.doc_name == "refinement answer"


_POLICY = pipeline_to_policy_doc(
    Pipeline.build(
        1,
        [("mobility_predictor", {}), ("traffic_steering_a", {"steering_policy": "auto"})],
        [("mobility_predictor", "traffic_steering_a")],
        conditions=dump_doc({"load": "any", "windows": ["night"]}),
    )
)
_RECORD = {
    "kind": "actuator_contention",
    "participants": [["1", "x"], ["2", "x"]],
    "subject": "x",
    "explanation": "clash",
}
_TEMPLATES = [
    {"1": _POLICY},
    {"conflicts": {"actuator": [_RECORD], "parameter": []}, "notes": ""},
    {"1": {"revised_policy": _POLICY, "edits": [["remove_duplicate", "twice"]]}},
]


@st.composite
def _near_valid_documents(draw):
    """A valid wire document with one value, at a random depth, replaced."""
    document = json.loads(json.dumps(draw(st.sampled_from(_TEMPLATES))))
    return replace_one_value(draw, document, json_values)


def _parsers(bundle):
    original = Pipeline.build(1, [("mobility_predictor", {})])
    return (
        lambda text: parse_policy_doc(text, bundle.registry, [1]),
        parse_perception_doc,
        lambda text: parse_refinement_doc(text, {1: original}, bundle.registry),
    )


# A policy document whose condition holds a number no float carries on: one
# of the constants json.loads accepts by default, though RFC 8259 has no NaN
# or Infinity, or a literal past the float range, which decodes to an infinity.
_CONSTANTS = ["NaN", "Infinity", "-Infinity"]
_PAST_RANGE = ["1e400", "-1e400", "0.2e309"]


def _policy_holding(literal: str) -> str:
    return dump_doc({**_POLICY, "deployment_conditions": {"max_load": "?"}}).replace('"?"', literal)


@pytest.mark.parametrize(
    "text, match",
    [("[" * 100_000 + "]" * 100_000, "recursion"), ("1" * 4301, "digits")]
    + [(_policy_holding(c), f"{c} is not a JSON value") for c in _CONSTANTS]
    + [(_policy_holding(n), f"{n} is past the float range") for n in _PAST_RANGE],
    ids=["deeply-nested", "long-integer"] + [f"policy-{c}" for c in _CONSTANTS + _PAST_RANGE],
)
def test_parsers_reject_hostile_json_as_schema_errors(bundle, text, match):
    for parse in _parsers(bundle):
        with pytest.raises(SchemaValidationError, match=match):
            parse(text)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=repr)
def test_dump_doc_refuses_a_float_no_json_text_holds(value):
    """json.dumps would write the bare constant NaN or Infinity, text that no
    decoder of the package reads back; dump_doc raises instead."""
    with pytest.raises(ValueError, match="not JSON compliant"):
        dump_doc({"deployment_conditions": {"max_load": value}})


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a JSON value")


def _refuse_past_range(literal: str) -> float:
    value = float(literal)
    if not math.isfinite(value):
        raise ValueError(f"{literal} is past the float range")
    return value


def _outcome(call, *args) -> str:
    """repr of what call returns, so 1, 1.0 and True differ, or the kind of error it raises."""
    try:
        return repr(call(*args))
    except (ValueError, RecursionError) as exc:
        return type(exc).__name__


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(value=json_values, text=st.text() | json_values.map(json.dumps))
@example(value=float("nan"), text="\ufeff{}")
def test_the_kept_codec_is_json_with_the_strict_options(value, text):
    """dump_doc is json.dumps and load_doc json.loads with the options each
    is built with, or both raise. A leading byte order mark is refused by
    both, as "Unexpected UTF-8 BOM" by json.loads and "Expecting value" by load_doc."""
    assert _outcome(dump_doc, value) == _outcome(
        lambda v: json.dumps(v, sort_keys=True, separators=(",", ":"), allow_nan=False), value
    )
    assert _outcome(load_doc, text) == _outcome(
        lambda t: json.loads(t, parse_constant=_refuse_constant, parse_float=_refuse_past_range), text
    )


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(document=st.text() | (json_values | _near_valid_documents()).map(json.dumps))
def test_parsers_are_total(bundle, document):
    """On any text, each parser returns or raises SchemaValidationError."""
    for parse in _parsers(bundle):
        try:
            parse(document)
        except SchemaValidationError:
            pass


def _encodable(value: object) -> bool:
    """value has a JSON text: it holds no NaN or infinite float."""
    try:
        dump_doc(value)
    except ValueError:
        return False
    return True


# An asked id past 4 has no entry in _reasoning_answers; one up to 4 may have.
_ASKED = st.lists(st.integers(1, 6), max_size=4, unique=True)


@st.composite
def _reasoning_answers(draw):
    """A reasoning answer for some of intents 1-4, with one value replaced."""
    ids = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True))
    document = json.loads(json.dumps({str(i): {**_POLICY, "intent_id": i} for i in ids}))
    return replace_one_value(draw, document, json_values)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(document=st.text() | (json_values | _reasoning_answers()).map(json.dumps), asked=_ASKED)
def test_the_reasoning_parser_is_total(bundle, document, asked):
    """On any text, parse_policy_doc gives each asked intent a pipeline of
    that intent or a nonempty list of errors, or raises SchemaValidationError."""
    try:
        answer = parse_policy_doc(document, bundle.registry, asked)
    except SchemaValidationError:
        return
    assert not answer.entries.keys() & answer.errors.keys()
    assert answer.entries.keys() | answer.errors.keys() == set(asked)
    assert all(pipeline.intent_id == i for i, pipeline in answer.entries.items())
    assert all(errors for errors in answer.errors.values())


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(rng=st.randoms(use_true_random=False), data=st.data())
def test_a_corrupt_entry_leaves_the_others_as_parsed_alone(rng, data):
    """Replacing one value of one entry changes nothing for the other
    entries: every entry of the answer parses as the answer holding it alone."""
    registry = random_registry(rng, rng.randint(2, 8))
    ids = sorted(rng.sample(range(1, 30), rng.randint(2, 5)))
    doc = {str(i): pipeline_to_policy_doc(random_pipeline(rng, registry, i)) for i in ids}
    victim = str(data.draw(st.sampled_from(ids)))
    doc[victim] = replace_one_value(data.draw, doc[victim], json_values.filter(_encodable))

    answer = parse_policy_doc(dump_doc(doc), registry, ids)
    for i in ids:
        alone = parse_policy_doc(dump_doc({str(i): doc[str(i)]}), registry, [i])
        assert answer.entries.get(i) == alone.entries.get(i)
        assert answer.errors.get(i) == alone.errors.get(i)
        if str(i) != victim:
            assert answer.entries[i] == decode_policy(doc[str(i)])


_KEYS = st.text(max_size=4)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    refs=st.lists(st.text(max_size=6), max_size=6, unique=True),
    keys=st.lists(_KEYS, max_size=5, unique=True),
    data=st.data(),
)
def test_a_table_decodes_to_exactly_the_documents_that_went_in(seed, refs, keys, data):
    """Through the JSON text a prompt carries, the table of profile documents
    gives back the list, the table of ref-labelled policy documents the ref
    map, and the table of any same-shaped documents the list; no documents
    give an empty table."""
    rng = random.Random(seed)
    profiles = [p.to_dict() for p in random_registry(rng, rng.randint(0, 8))]
    assert table_rows(load_doc(dump_doc(table_doc(profiles)))) == profiles

    registry = random_registry(rng, rng.randint(1, 8))
    policies = {ref: pipeline_to_policy_doc(random_pipeline(rng, registry, rng.randint(1, 40))) for ref in refs}
    table = load_doc(dump_doc(table_doc([{"ref": ref, **doc} for ref, doc in policies.items()])))
    assert policies_of_table(table) == policies

    shaped = st.fixed_dictionaries({key: json_values.filter(_encodable) for key in keys})
    docs = data.draw(st.lists(shaped, max_size=4))
    table = table_doc(docs)
    assert table["columns"] == (sorted(keys) if docs else [])
    assert table_rows(load_doc(dump_doc(table))) == docs


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    keys=st.lists(_KEYS, min_size=1, max_size=4, unique=True),
    count=st.integers(2, 5),
    change=st.sampled_from(["add", "remove", "rename"]),
    data=st.data(),
)
def test_a_table_refuses_documents_whose_keys_differ(keys, count, change, data):
    """One document with a key more, a key fewer or a key renamed is refused."""
    docs = [{key: 0 for key in keys} for _ in range(count)]
    odd = docs[data.draw(st.integers(0, count - 1))]
    if change != "add":
        del odd[keys[0]]
    if change != "remove":
        odd[data.draw(_KEYS.filter(lambda key: key not in keys))] = 0
    with pytest.raises(ValueError, match="not the columns"):
        table_doc(docs)


_RECORDS = st.lists(
    st.builds(
        ConflictRecord,
        st.sampled_from(list(ConflictKind)),
        st.frozensets(st.tuples(st.text(max_size=3), st.text(max_size=3)), min_size=2, max_size=4),
        st.text(max_size=6),
        st.text(max_size=8),
    ),
    max_size=8,
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(records=_RECORDS, notes=st.text(max_size=8))
def test_the_report_table_decodes_to_the_conflict_report(records, notes):
    """Each group's rows under the one header, with the group's kind put back
    and the absent groups empty, are exactly conflict_report's object."""
    table = load_doc(dump_doc(report_table(records, notes)))
    assert report_of_table(table) == conflict_report(records, notes)


def test_an_empty_report_table_is_shorter_than_the_report():
    """A report with no records lists no group, so it does not grow."""
    assert report_table((), "") == {"columns": [], "conflicts": {}, "notes": ""}
    assert len(dump_doc(report_table((), ""))) < len(dump_doc(conflict_report(())))
