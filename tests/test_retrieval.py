from __future__ import annotations

import random
import string

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ranweave import retrieval
from ranweave.retrieval import (
    CHUNK_OVERLAP,
    CHUNK_SIZE,
    EMBEDDING_DIM,
    DocChunk,
    VectorStore,
    chunk_document,
    chunk_spans,
    cosine,
    embed,
    k_schedule,
    rank,
    reconstruct,
)

from .helpers import reference_embed, reference_rank


def test_chunk_spans_for_1000_chars():
    assert chunk_spans(1000) == [(0, 500), (450, 950), (900, 1000)]


def test_chunk_short_document_single_span():
    assert chunk_spans(300) == [(0, 300)]


def test_chunk_empty_document():
    assert chunk_spans(0) == []
    assert chunk_document("doc", "") == []


def test_consecutive_chunks_overlap_exactly():
    for length in (500, 501, 949, 950, 951, 1360, 4321):
        spans = chunk_spans(length)
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 - s2 == CHUNK_OVERLAP
            assert e1 - s1 <= CHUNK_SIZE


def test_reconstruction_roundtrip_random_documents():
    rng = random.Random(7)
    alphabet = string.ascii_letters + string.digits + " \n"
    for _ in range(50):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 3000)))
        chunks = chunk_document("doc", text)
        assert reconstruct(chunks) == text


_TEXT_2000 = "".join(random.Random(11).choice(string.ascii_letters) for _ in range(2000))


@pytest.mark.parametrize(
    "chunks, message",
    [
        # (0,500) and (900,1400): the text in between is missing.
        (
            [
                DocChunk("doc", start, end, _TEXT_2000[start:end], embed(_TEXT_2000[start:end]))
                for start, end in [(0, 500), (900, 1400)]
            ],
            "gap between offsets 500 and 900",
        ),
        # Every chunk from 450 on: neither the document nor a suffix.
        ([c for c in chunk_document("doc", _TEXT_2000) if c.start >= 450], "first chunk starts at 450, not 0"),
        (chunk_document("a", "alpha " * 100) + chunk_document("b", "bravo " * 100), "more than one document"),
        # Chunks 0 and 2 of one text around chunk 1 of another, all under one id.
        (
            [
                chunk_document("d", letter * 1000)[k]
                for letter, k in [("a", 0), ("b", 1), ("a", 2)]
            ],
            "chunk at offset 450 disagrees with the text before it",
        ),
    ],
    ids=["gap", "no-start", "two-docs", "other-overlap"],
)
def test_reconstruct_refuses_what_is_not_one_whole_document(chunks, message):
    with pytest.raises(ValueError, match=message):
        reconstruct(chunks)


def test_reconstruct_accepts_any_order_and_repeated_chunks():
    chunks = chunk_document("doc", _TEXT_2000)
    assert reconstruct(reversed(chunks + chunks[:2])) == _TEXT_2000
    assert reconstruct([]) == ""


def test_embed_is_deterministic():
    first = embed("steer traffic away from congested cells")
    second = embed("steer traffic away from congested cells")
    assert np.array_equal(first, second)


def test_embed_empty_is_zero_vector():
    vector = embed("")
    assert not np.any(vector)


# Short texts, and long ones made by repeating a drawn piece.
_texts = st.text(max_size=12) | st.builds(
    lambda piece, times: piece * times, st.text(min_size=1, max_size=40), st.integers(10, 60)
)


@settings(max_examples=300, deadline=None)
@given(_texts)
@example("")
@example("a")
@example("ab")
@example("ß")  # case-folds to "ss": one character, one two-letter gram
@example("İ")  # case-folds to two code points
@example("ßİ")
@example("x" * 5000)
def test_embed_matches_the_reference_loop_bit_for_bit(text):
    assert embed(text).tobytes() == reference_embed(text).tobytes()


def test_bundled_corpus_embeds_as_the_reference_loop_does(bundle):
    assert bundle.knowledge
    for chunk in bundle.knowledge:
        assert chunk.vector.tobytes() == reference_embed(chunk.text).tobytes()


def test_embed_is_normalized():
    vector = embed("energy saving during off-peak windows")
    assert abs(float(np.linalg.norm(vector)) - 1.0) <= 1e-9


def test_cosine_self_similarity_is_one():
    vector = embed("slice isolation")
    assert cosine(vector, vector) == pytest.approx(1.0)


def test_cosine_zero_vector_convention():
    assert cosine(embed(""), embed("anything")) == 0.0
    zero, negative = np.zeros(EMBEDDING_DIM), -np.abs(embed("anything"))
    assert cosine(zero, negative) == 0.0
    assert cosine(negative, zero) == 0.0
    assert cosine(zero, zero) == 0.0


def test_cosine_dimension_mismatch():
    with pytest.raises(ValueError):
        cosine(np.zeros(4), np.zeros(5))


def test_cosine_is_symmetric():
    a, b = embed("alpha beta gamma"), embed("gamma delta epsilon")
    assert cosine(a, b) == pytest.approx(cosine(b, a))
    assert -1.0 <= cosine(a, b) <= 1.0


def test_k_schedule_start_interior_and_cap():
    assert k_schedule(1) == 10
    assert k_schedule(3) == 30
    assert k_schedule(5) == 50
    assert k_schedule(20) == 50
    with pytest.raises(ValueError):
        k_schedule(0)


def test_k_schedule_is_nondecreasing():
    values = [k_schedule(i) for i in range(1, 60)]
    assert values == sorted(values)
    assert max(values) == 50


def test_query_returns_whole_store_when_small():
    store = VectorStore()
    store.add_document("a", "alpha bravo charlie delta")
    assert len(store.query("alpha", iteration=1)) == len(store)


def test_query_identical_text_ranks_first():
    store = VectorStore()
    store.add_document("target", "beam weights maximise downlink signal quality")
    store.add_document("noise1", "admission control for surging slices")
    store.add_document("noise2", "sleep schedule for underutilised cells")
    top = store.query("beam weights maximise downlink signal quality", iteration=1)[0]
    assert top.doc_id == "target"


def test_query_tie_break_by_doc_then_offset():
    store = VectorStore()
    store.add_document("b", "identical words here")
    store.add_document("a", "identical words here")
    results = store.query("identical words here", iteration=1)
    assert [c.doc_id for c in results[:2]] == ["a", "b"]


def test_query_stability_under_unrelated_insert():
    store = VectorStore()
    store.add_document("one", "traffic steering for mobility robustness")
    store.add_document("two", "energy saving power control at night")
    before = [(c.doc_id, c.start) for c in store.query("traffic steering", iteration=1)]
    store.add_document("zzz", "0xDEADBEEF 0xCAFEBABE unrelated hexdump")
    after = [(c.doc_id, c.start) for c in store.query("traffic steering", iteration=1)]
    filtered = [item for item in after if item[0] != "zzz"]
    assert filtered == before


def test_query_respects_k_schedule():
    store = VectorStore()
    for index in range(30):
        store.add_document(f"doc{index:02d}", f"document number {index} about networks")
    assert len(store.query("networks", iteration=1)) == 10
    assert len(store.query("networks", iteration=2)) == 20
    assert len(store.query("networks", iteration=5)) == 30


def test_query_keeps_the_last_embedding(monkeypatch):
    """Asking the same text again reuses its embedding; asking another drops it."""
    store = VectorStore()
    for index in range(4):
        store.add_document(f"doc{index}.md", f"notes {index} on traffic steering and slicing " * (index + 1))
    calls: list[str] = []

    def counting_embed(text):
        calls.append(text)
        return embed(text)

    monkeypatch.setattr(retrieval, "embed", counting_embed)
    for iteration, text in [(1, "traffic steering"), (2, "traffic steering"), (3, "slicing"), (4, "traffic steering")]:
        got, expected = store.query(text, iteration), reference_rank(store.chunks, embed(text), k_schedule(iteration))
        assert [(c.doc_id, c.start) for c in got] == [(c.doc_id, c.start) for c in expected]
    assert calls == ["traffic steering", "slicing", "traffic steering"]


def test_a_store_starts_from_a_kept_ranking(monkeypatch):
    """A store given (text, rank(chunks, text)) answers that text without
    embedding it; another text, or a document added, ranks afresh."""
    chunks = [c for i in range(3) for c in chunk_document(f"doc{i}.md", f"notes {i} on traffic steering " * (i + 2))]
    kept = rank(chunks, "traffic steering")
    assert list(kept) == reference_rank(chunks, embed("traffic steering"), len(chunks))
    calls: list[str] = []

    def counting_embed(text):
        calls.append(text)
        return embed(text)

    monkeypatch.setattr(retrieval, "embed", counting_embed)
    store = VectorStore(chunks, ("traffic steering", kept))
    assert store.query("traffic steering", 2) == kept[:20]
    assert calls == []
    assert list(store.query("slicing")) == reference_rank(chunks, embed("slicing"), 10)
    assert calls == ["slicing"]
    store.add_document("extra.md", "traffic steering")
    assert store.query("traffic steering")[0].doc_id == "extra.md"
    assert calls == ["slicing", "traffic steering", "traffic steering"]


# "aafq" embeds to the zero vector: its two trigrams cancel in one bucket.
_ZERO_TEXT = "aafq"
_DOC_IDS = st.sampled_from(["a.md", "b.md", "c.md"])
_doc_texts = (
    st.sampled_from(["", "a", "ab", _ZERO_TEXT, "ß", "İ", "traffic steering", "énergie économisée"])
    | st.text(max_size=30)
    | st.builds(lambda piece, times: piece * times, st.text(min_size=1, max_size=20), st.integers(20, 80))
)
_query_texts = st.sampled_from(["", "a", _ZERO_TEXT, "traffic steering", "steering ß"]) | st.text(max_size=12)
_steps = st.lists(
    st.tuples(st.just("query"), _query_texts, st.integers(1, 6))
    | st.tuples(st.just("add"), _DOC_IDS, _doc_texts),
    min_size=1,
    max_size=12,
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(_DOC_IDS, _doc_texts), max_size=6), _steps)
@example(
    [("b.md", "identical words"), ("a.md", "identical words"), ("a.md", "identical words"), ("c.md", _ZERO_TEXT)],
    [("query", "identical words", 1), ("query", "identical words", 2), ("query", _ZERO_TEXT, 3), ("query", "", 6)],
)
@example(
    [("a.md", "traffic steering " * 40)],
    [("query", "steering", 1), ("add", "b.md", "steering"), ("query", "steering", 2), ("query", "steering", 3)],
)
def test_query_ranks_as_the_reference_loop(corpus, steps):
    """The kept ranking, sliced per iteration, equals a fresh per-chunk sort
    on every query, chunk for chunk; adding a document in between is seen."""
    store = VectorStore()
    for doc_id, text in corpus:
        store.add_document(doc_id, text)
    for step in steps:
        if step[0] == "add":
            store.add_document(*step[1:])
            continue
        _, text, iteration = step
        got = store.query(text, iteration)
        expected = reference_rank(store.chunks, embed(text), k_schedule(iteration))
        assert len(got) == len(expected)
        assert all(a is b for a, b in zip(got, expected))


def test_store_loads_bundled_knowledge(bundle):
    store = VectorStore()
    count = store.add_directory(bundle.knowledge_dir)
    assert count >= 4
    results = store.query("conflict classes for policy coordination", iteration=1)
    assert results
