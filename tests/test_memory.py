from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ranweave.conflicts import ConflictKind, ConflictRecord
from ranweave.memory import MemoryBuffer, OutcomeRecord
from ranweave.model import Intent, Pipeline
from ranweave.retrieval import embed

from .helpers import reference_embed, reference_similarity


def _intent(intent_id: int, text: str) -> Intent:
    return Intent.build(
        intent_id, text, target_kpis={"latency": -1}, required_capabilities=["cap"]
    )


def _pipeline(intent_id: int, xapp: str = "x") -> Pipeline:
    return Pipeline.build(intent_id, [(xapp, {"p": "auto"})])


def _outcome(*, deployed=True, correct=True, conflicts=()) -> OutcomeRecord:
    return OutcomeRecord(deployed=deployed, correct=correct, conflicts=tuple(conflicts))


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
    second = buffer.add(_intent(2, "b"), _pipeline(2), _outcome(correct=False))
    assert len(buffer) == 2
    assert buffer.entries == (first, second)


def test_duplicate_intents_are_both_retained():
    buffer = MemoryBuffer()
    buffer.add(_intent(1, "a"), _pipeline(1), _outcome())
    buffer.add(_intent(1, "a"), _pipeline(1), _outcome())
    assert len(buffer) == 2


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
    """Each text is embedded, and each (query text, entry text) pair scored,
    once per buffer; clear() empties both caches."""
    from collections import Counter

    from ranweave import retrieval

    embedded: Counter[str] = Counter()
    scored: list[tuple] = []
    similarity = retrieval.similarity

    def counting_embed(text):
        embedded[text] += 1
        return embed(text)

    def counting_similarity(query, candidate):
        scored.append((query, candidate))
        return similarity(query, candidate)

    monkeypatch.setattr(retrieval, "embed", counting_embed)
    monkeypatch.setattr(retrieval, "similarity", counting_similarity)
    buffer = MemoryBuffer()
    texts = ["steer traffic away from busy cells", "save energy at night", "save energy at night"]
    for intent_id, text in enumerate(texts, start=1):
        buffer.add(_intent(intent_id, text), _pipeline(intent_id), _outcome())
    for text in texts * 3:
        buffer.retrieve_analogues(_intent(9, text), k=3)
    assert embedded == Counter(set(texts))
    assert len(scored) == len(set(texts)) ** 2

    buffer.clear()
    buffer.add(_intent(1, texts[0]), _pipeline(1), _outcome())
    buffer.retrieve_analogues(_intent(9, texts[0]), k=1)
    assert embedded[texts[0]] == 2, "clear() must empty the embedding cache"
    assert len(scored) == len(set(texts)) ** 2 + 1, "clear() must empty the score cache"


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
    """Same order as a sort keyed on the exact reference similarity, which
    tests for zero vectors."""
    buffer = MemoryBuffer()
    for attempt_id, attempt_text, correct in attempts:
        buffer.add(_intent(attempt_id, attempt_text), _pipeline(attempt_id), _outcome(correct=correct))
    query = _intent(intent_id, text)
    ranked = sorted(
        ((position, e) for position, e in enumerate(buffer.entries) if e.outcome.correct),
        key=lambda pe: (
            pe[1].intent.id != intent_id,
            -reference_similarity(reference_embed(text), reference_embed(pe[1].intent.text)),
            -pe[0],
        ),
    )
    expected = [(e.intent, e.pipeline) for _, e in ranked[:k]] if k > 0 else []
    assert buffer.retrieve_analogues(query, k) == expected


def test_an_exact_similarity_tie_goes_to_the_more_recent_success():
    """Intents 11 and 16 of a generated wide catalog (perfbench/wide_catalog.py,
    seed 1) are exactly as similar to intent 3; their cosines after float
    normalisation differ in the last bit, which used to order them."""
    buffer = MemoryBuffer()
    buffer.add(_intent(16, "Intent 16: drive kpi12 up using cap10, cap24."), _pipeline(16), _outcome())
    buffer.add(_intent(11, "Intent 11: drive kpi12 up using cap12, cap39."), _pipeline(11), _outcome())
    query = _intent(3, "Intent 3: drive kpi26 down using cap07, cap27, cap33.")
    assert [i.id for i, _ in buffer.retrieve_analogues(query, k=3)] == [11, 16]
