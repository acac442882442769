from __future__ import annotations

import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ranweave.conflicts import ConflictKind, ConflictRecord
from ranweave.memory import MemoryBuffer, MemoryEntry, OutcomeRecord
from ranweave.model import Intent, Pipeline
from ranweave.planner import SolutionScore
from ranweave.retrieval import embed
from ranweave.schemas import SchemaValidationError, dump_doc

from .helpers import json_values, reference_cosine


def _intent(intent_id: int, text: str) -> Intent:
    return Intent.build(
        intent_id, text, target_kpis={"latency": -1}, required_capabilities=["cap"]
    )


def _pipeline(intent_id: int, xapp: str = "x") -> Pipeline:
    return Pipeline.build(intent_id, [(xapp, {"p": "auto"})])


def _outcome(*, deployed=True, correct=True, conflicts=(), iteration=1) -> OutcomeRecord:
    return OutcomeRecord(
        deployed=deployed,
        correct=correct,
        conflicts=tuple(conflicts),
        iteration=iteration,
        score=SolutionScore(0, 0, 0, 0),
    )


def _contention(xapp: str) -> ConflictRecord:
    return ConflictRecord(
        kind=ConflictKind.ACTUATOR_CONTENTION,
        participants=frozenset({("1", xapp), ("2", xapp)}),
        subject=xapp,
        explanation="directive clash",
    )


def test_fresh_buffer_is_empty():
    assert len(MemoryBuffer()) == 0


def test_add_increments_size_and_sequence():
    buffer = MemoryBuffer()
    first = buffer.add(_intent(1, "a"), _pipeline(1), _outcome())
    second = buffer.add(_intent(1, "a"), _pipeline(1), _outcome())
    assert len(buffer) == 2
    assert (first.sequence_no, second.sequence_no) == (1, 2)


def test_duplicate_intents_are_both_retained():
    buffer = MemoryBuffer()
    buffer.add(_intent(1, "a"), _pipeline(1), _outcome())
    buffer.add(_intent(1, "a"), _pipeline(1), _outcome())
    assert len(buffer) == 2


def test_record_rejects_non_monotone_sequence():
    buffer = MemoryBuffer()
    entry = buffer.add(_intent(1, "a"), _pipeline(1), _outcome())
    with pytest.raises(ValueError):
        buffer.record(
            MemoryEntry(entry.intent, entry.pipeline, entry.outcome, sequence_no=1)
        )


def test_retrieve_returns_success_for_same_intent():
    buffer = MemoryBuffer()
    intent = _intent(1, "steer traffic for fast trains")
    buffer.add(intent, _pipeline(1), _outcome())
    assert buffer.retrieve_analogues(intent, k=3) == [(intent, _pipeline(1))]


def test_retrieve_filters_failures():
    buffer = MemoryBuffer()
    intent = _intent(1, "a")
    buffer.add(intent, _pipeline(1), _outcome(correct=False))
    assert buffer.retrieve_analogues(intent, k=3) == []


def test_retrieve_k_zero_is_empty():
    buffer = MemoryBuffer()
    intent = _intent(1, "a")
    buffer.add(intent, _pipeline(1), _outcome())
    assert buffer.retrieve_analogues(intent, k=0) == []


def test_retrieve_exact_intent_match_ranks_first():
    buffer = MemoryBuffer()
    near = _intent(2, "reduce handover failures for high speed users")
    exact = _intent(1, "improve energy efficiency at night")
    buffer.add(near, _pipeline(2, "steer"), _outcome())
    buffer.add(exact, _pipeline(1, "power"), _outcome())
    results = buffer.retrieve_analogues(_intent(1, "improve energy efficiency at night"), k=2)
    assert results[0][0].id == 1


def test_retrieve_similarity_then_recency():
    buffer = MemoryBuffer()
    close = _intent(2, "minimise ran energy use during quiet hours")
    far = _intent(3, "maximise beamforming gain for stadium events")
    buffer.add(far, _pipeline(3, "beam"), _outcome())
    buffer.add(close, _pipeline(2, "power"), _outcome())
    query = _intent(9, "minimise ran energy use during off-peak hours")
    results = buffer.retrieve_analogues(query, k=2)
    assert [r[0].id for r in results] == [2, 3]


def test_failure_summary_empty_buffer():
    buffer = MemoryBuffer()
    text = buffer.failure_summary(_intent(4, "whatever"))
    assert text == "No prior failures recorded for intent 4."


def test_failure_summary_groups_by_kind_and_xapp():
    buffer = MemoryBuffer()
    intent = _intent(1, "a")
    for _ in range(2):
        buffer.add(
            intent,
            _pipeline(1, "traffic_steering_a"),
            _outcome(deployed=False, correct=False, conflicts=[_contention("traffic_steering_a")]),
        )
    text = buffer.failure_summary(intent)
    assert "2 failed attempt(s)" in text
    assert "actuator_contention involving traffic_steering_a (seen 2x)" in text


def test_failure_summary_ignores_other_intents():
    buffer = MemoryBuffer()
    buffer.add(_intent(2, "b"), _pipeline(2), _outcome(correct=False, deployed=False))
    assert buffer.failure_summary(_intent(1, "a")) == "No prior failures recorded for intent 1."


def test_failure_summary_is_reproducible():
    buffer = MemoryBuffer()
    intent = _intent(1, "a")
    buffer.add(
        intent,
        _pipeline(1),
        _outcome(deployed=False, correct=False, conflicts=[_contention("x"), _contention("y")]),
    )
    assert buffer.failure_summary(intent) == buffer.failure_summary(intent)


def test_clear_empties_buffer():
    buffer = MemoryBuffer()
    buffer.add(_intent(1, "a"), _pipeline(1), _outcome())
    buffer.clear()
    assert len(buffer) == 0


def test_each_distinct_text_is_embedded_once_per_buffer(monkeypatch):
    from collections import Counter

    from ranweave import retrieval

    embedded: Counter[str] = Counter()

    def counting_embed(text):
        embedded[text] += 1
        return embed(text)

    monkeypatch.setattr(retrieval, "embed", counting_embed)
    buffer = MemoryBuffer()
    texts = ["steer traffic away from busy cells", "save energy at night", "save energy at night"]
    for intent_id, text in enumerate(texts, start=1):
        buffer.add(_intent(intent_id, text), _pipeline(intent_id), _outcome())
    for text in texts * 3:
        buffer.retrieve_analogues(_intent(9, text), k=3)
    assert embedded == Counter(set(texts))

    buffer.clear()
    buffer.add(_intent(1, texts[0]), _pipeline(1), _outcome())
    buffer.retrieve_analogues(_intent(9, texts[0]), k=1)
    assert embedded[texts[0]] == 2, "clear() must empty the embedding cache"


# "aafq" embeds to the zero vector.
_texts = st.sampled_from(["", "a", "aafq", "ß", "save energy at night", "steer traffic at night"]) | st.text(max_size=20)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.tuples(st.integers(1, 4), _texts, st.booleans()), max_size=10),
    st.integers(1, 5),
    _texts,
    st.integers(0, 6),
)
@example([(2, "aafq", True), (3, "", True), (4, "save energy at night", True)], 1, "aafq", 3)
@example([(2, "steer traffic at night", True), (3, "", True), (4, "a", True)], 1, "", 3)
def test_analogues_rank_as_the_reference_sort(attempts, intent_id, text, k):
    """Same order as a sort keyed on the cosine that tests for zero vectors."""
    buffer = MemoryBuffer()
    for attempt_id, attempt_text, correct in attempts:
        buffer.add(_intent(attempt_id, attempt_text), _pipeline(attempt_id), _outcome(correct=correct))
    query = _intent(intent_id, text)
    ranked = sorted(
        (e for e in buffer.entries if e.outcome.correct),
        key=lambda e: (
            e.intent.id != intent_id,
            -reference_cosine(embed(text), embed(e.intent.text)),
            -e.sequence_no,
        ),
    )
    expected = [(e.intent, e.pipeline) for e in ranked[:k]] if k > 0 else []
    assert buffer.retrieve_analogues(query, k) == expected


def test_buffer_replay_roundtrip(tmp_path):
    buffer = MemoryBuffer()
    intent = _intent(1, "replay me")
    buffer.add(intent, _pipeline(1), _outcome())
    buffer.add(
        intent,
        _pipeline(1, "other"),
        _outcome(deployed=False, correct=False, conflicts=[_contention("other")]),
    )
    path = tmp_path / "memory.jsonl"
    buffer.save(path)

    reloaded = MemoryBuffer.load(path)
    assert len(reloaded) == len(buffer)
    assert reloaded.retrieve_analogues(intent, k=3) == buffer.retrieve_analogues(intent, k=3)
    assert reloaded.failure_summary(intent) == buffer.failure_summary(intent)

    second = tmp_path / "memory2.jsonl"
    reloaded.save(second)
    assert path.read_bytes() == second.read_bytes()


def _saved_line(tmp_path) -> dict:
    """The one line a buffer of one failed attempt, with two conflict records, saves."""
    intent = Intent.build(
        3, "replay me", target_kpis={"latency": -1, "energy": 1}, required_capabilities=["cap"], required_xapps=["x"]
    )
    pipeline = Pipeline.build(
        3, [("x", {"p": "auto"}), ("y", {})], [("x", "y")], conditions={"load": "any", "windows": ["night", "day"]}
    )
    outcome = OutcomeRecord(False, True, (_contention("x"), _contention("y")), 2, SolutionScore(1, 0, -2, -2))
    buffer = MemoryBuffer()
    buffer.add(intent, pipeline, outcome)
    path = tmp_path / "saved.jsonl"
    buffer.save(path)
    return json.loads(path.read_text(encoding="utf-8"))


def test_save_writes_one_compact_line_per_entry(tmp_path):
    line = _saved_line(tmp_path)
    assert (tmp_path / "saved.jsonl").read_text(encoding="utf-8") == dump_doc(line) + "\n"


@pytest.mark.parametrize("ensure_ascii", [True, False], ids=["escaped", "raw"])
def test_load_reads_spaced_lines_and_a_raw_line_separator(tmp_path, ensure_ascii):
    """Spaced lines, as saved before lines were compact, still load, and so
    does a U+2028 written raw inside a JSON string: only "\\n" ends a line."""
    line = _saved_line(tmp_path)
    line["intent"]["text"] = "replay\u2028me"
    path = tmp_path / "spaced.jsonl"
    path.write_text(json.dumps(line, ensure_ascii=ensure_ascii) + "\n", encoding="utf-8")
    [entry] = MemoryBuffer.load(path).entries
    assert entry.intent.text == "replay\u2028me"
    assert entry.outcome.conflicts == (_contention("x"), _contention("y"))


# (field, a value it is set to, a message the error carries). A dotted
# field names nested keys; a digit, a list index.
_WRONG_TYPES = [
    ("pipeline.intent_id", "3", "intent_id must be an integer"),
    ("pipeline.intent_id", True, "intent_id must be an integer"),
    ("intent.id", "3", "expected an integer id, found '3'"),
    ("intent.id", True, "expected an integer id, found True"),
    ("outcome.deployed", "false", "deployed must be a boolean"),
    ("outcome.correct", 1, "correct must be a boolean"),
    ("outcome.iteration", 2.9, "iteration must be an integer"),
    ("outcome.iteration", True, "iteration must be an integer"),
    ("outcome.score", [0, 0, 0], "score must be four integers"),
    ("outcome.score", [0, 0, 0, "0"], "score must be four integers"),
    ("sequence_no", "1", "sequence_no must be an integer"),
    ("pipeline.intent_id", 2, "intent_id 2 is not the requested intent 3"),
    ("outcome.conflicts.0.participants", [[3, "x"], [4, "y"]], "participants must be [pipeline_ref, xapp_id] pairs"),
    ("outcome.conflicts.0.participants", [["1", "x"]], "needs at least 2 participants"),
    ("outcome.conflicts.0.participants", [["1", "x"], ["1", "x"]], "needs at least 2 participants"),
    ("outcome.conflicts.0.subject", 5, "subject and explanation must be strings"),
    ("outcome.conflicts.0.explanation", None, "subject and explanation must be strings"),
    ("outcome.conflicts", {}, "outcome.conflicts must be a list"),
    ("intent.target_kpis", ["latency"], "target_kpis must be an object, found ['latency']"),
    ("extra", 1, "unknown keys ['extra']"),
    ("outcome.extra", 1, "outcome has unknown keys ['extra']"),
    ("outcome", [], "outcome must be an object"),
    ("pipeline.deployment_conditions.load", float("nan"), "NaN is not a JSON value"),
]


@pytest.mark.parametrize(
    "field, value, match", _WRONG_TYPES, ids=[f"{f}={v!r}" for f, v, _ in _WRONG_TYPES]
)
def test_load_refuses_a_value_of_the_wrong_type(tmp_path, field, value, match):
    """A memory line holding a value of the wrong type is refused, with an
    error that names the file, the line and the field, not coerced: "3" would
    load as an intent or pipeline id that no integer id matches, "false" as
    True, 2.9 as 2, a participant 3 as "3"."""
    line = _saved_line(tmp_path)
    *parents, key = field.split(".")
    target = line
    for parent in parents:
        target = target[int(parent) if parent.isdigit() else parent]
    target[int(key) if key.isdigit() else key] = value
    path = tmp_path / "memory.jsonl"
    path.write_text(json.dumps(line) + "\n", encoding="utf-8")
    with pytest.raises(SchemaValidationError, match=rf"^{re.escape(str(path))} line 1: .*{re.escape(match)}"):
        MemoryBuffer.load(path)


def test_load_names_a_missing_intent_field(tmp_path):
    line = _saved_line(tmp_path)
    del line["intent"]["text"]
    path = tmp_path / "memory.jsonl"
    path.write_text(dump_doc(line) + "\n", encoding="utf-8")
    with pytest.raises(SchemaValidationError, match="line 1: intent is missing field 'text'$"):
        MemoryBuffer.load(path)


@pytest.mark.parametrize(
    "text, match",
    [
        ("[]", "expected a JSON object"),
        ("{}", "missing keys ['intent', 'outcome', 'pipeline', 'sequence_no']"),
        ("{nope", "response is not valid JSON"),
    ],
    ids=["array", "empty-object", "not-json"],
)
def test_load_refuses_a_line_that_is_no_entry(tmp_path, text, match):
    """The error names the line by its number in the file, blank lines counted."""
    line = _saved_line(tmp_path)
    path = tmp_path / "memory.jsonl"
    path.write_text(f"{dump_doc(line)}\n\n{text}\n", encoding="utf-8")
    with pytest.raises(SchemaValidationError, match=rf"^{re.escape(str(path))} line 3: {re.escape(match)}"):
        MemoryBuffer.load(path)


def test_load_refuses_a_sequence_number_that_does_not_grow(tmp_path):
    line = _saved_line(tmp_path)
    path = tmp_path / "memory.jsonl"
    path.write_text(f"{dump_doc(line)}\n{dump_doc(line)}\n", encoding="utf-8")
    with pytest.raises(SchemaValidationError) as caught:
        MemoryBuffer.load(path)
    assert caught.value.doc_name == f"{path} line 2"
    assert caught.value.errors == ["sequence_no 1 is not after 1"]


def _below(node: object, prefix: tuple = ()):
    """(key path, value) of every value below node."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield prefix + (key,), child
        yield from _below(child, prefix + (key,))


@st.composite
def _edited_lines(draw, line):
    """Any JSON value, or line with one value below the top deleted or
    replaced: by any JSON value, or by one of the line's own scalars, so
    that many edited lines are still entries."""
    edit = draw(st.sampled_from(["whole", "delete", "any value", "own scalar"]))
    if edit == "whole":
        return draw(json_values)
    below = list(_below(line))
    document = json.loads(json.dumps(line))
    *parents, key = draw(st.sampled_from([path for path, _ in below]))
    target = document
    for parent in parents:
        target = target[parent]
    if edit == "delete":
        del target[key]
    elif edit == "any value":
        target[key] = draw(json_values)
    else:
        target[key] = draw(st.sampled_from([v for _, v in below if not isinstance(v, (dict, list))]))
    return document


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_load_refuses_or_round_trips_an_edited_line(tmp_path_factory, data):
    """On an edited saved line, load raises SchemaValidationError or returns a
    buffer whose saved bytes a second load and save reproduce. A drawn NaN or
    infinity is written by dump_doc as NaN or Infinity, which no JSON document
    may hold, so such a line is refused rather than round-tripped."""
    directory = tmp_path_factory.getbasetemp()
    path = directory / "edited.jsonl"
    path.write_text(dump_doc(data.draw(_edited_lines(_saved_line(directory)))) + "\n", encoding="utf-8")
    try:
        loaded = MemoryBuffer.load(path)
    except SchemaValidationError:
        return
    first, second = directory / "first.jsonl", directory / "second.jsonl"
    loaded.save(first)
    MemoryBuffer.load(first).save(second)
    assert first.read_bytes() == second.read_bytes()
