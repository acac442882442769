"""Document chunking, embedding and exact similarity top-k retrieval.

Documents are split into 500-character segments with 50-character overlaps
and ranked by cosine similarity, compared exactly. The reference embedder
hashes character trigrams into 256 buckets and keeps each bucket's signed
integer count, unnormalised, so retrieval is integer arithmetic on the
standard library: fully deterministic, with no rounding to decide a tie, and
no network.

The number of chunks injected per query grows with the iteration count:
top-10 on the first attempt, +10 per attempt, capped at 50. A run asks the
same question every iteration, so the store ranks the whole corpus once per
query text and each later attempt takes a longer prefix of that ranking. A
store can also start from a ranking made elsewhere (rank) over the same chunks,
so runs that ask one question share its ranking.
"""

from __future__ import annotations

import zlib
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import mul
from pathlib import Path
from typing import Iterable

EMBEDDING_DIM = 256
CHUNK_SIZE = 500
CHUNK_OVERLAP = 50
CORPUS_SUFFIXES = (".md", ".txt")
K_START = 10
K_STEP = 10
K_CAP = 50


class UndecodableDocument(ValueError):
    """A corpus file that is not UTF-8 text; the one argument is its doc id."""


@dataclass(frozen=True)
class DocChunk:
    doc_id: str
    start: int
    end: int
    text: str
    vector: Embedding


def chunk_spans(length: int) -> list[tuple[int, int]]:
    """CHUNK_SIZE character spans covering [0, length), each CHUNK_OVERLAP into the one before."""
    if length <= 0:
        return []
    stride = CHUNK_SIZE - CHUNK_OVERLAP
    spans = []
    start = 0
    while True:
        end = min(start + CHUNK_SIZE, length)
        spans.append((start, end))
        if end == length:
            return spans
        start += stride


def chunk_document(doc_id: str, text: str) -> list[DocChunk]:
    chunks = []
    for start, end in chunk_spans(len(text)):
        piece = text[start:end]
        chunks.append(DocChunk(doc_id=doc_id, start=start, end=end, text=piece, vector=embed(piece)))
    return chunks


class Embedding(Mapping):
    """Read-only signed trigram counts by bucket, the zero counts left out;
    norm2 is their sum of squares, computed once."""

    __slots__ = ("_counts", "_norm2")

    def __init__(self, counts: dict[int, int]):
        self._counts = {bucket: count for bucket, count in counts.items() if count}
        self._norm2 = sum(count * count for count in self._counts.values())

    @property
    def norm2(self) -> int:
        return self._norm2

    def __getitem__(self, bucket: int) -> int:
        return self._counts[bucket]

    def __iter__(self) -> Iterator[int]:
        return iter(self._counts)

    def __len__(self) -> int:
        return len(self._counts)


def embed(text: str) -> Embedding:
    """Deterministic character-trigram feature hashing, as integer counts.

    Each gram's crc32 of its UTF-8 bytes picks a bucket and, by bit 8, a
    sign; a bucket whose grams cancel is left out. Empty text embeds to the
    zero vector, the empty mapping.
    """
    normalized = text.casefold()
    if not normalized:
        return Embedding({})
    grams = (
        [normalized[i : i + 3] for i in range(len(normalized) - 2)]
        if len(normalized) >= 3
        else [normalized]
    )
    counts: dict[int, int] = {}
    for digest in map(zlib.crc32, map(str.encode, grams)):
        bucket = digest % EMBEDDING_DIM
        counts[bucket] = counts.get(bucket, 0) + (1 if digest >> 8 & 1 else -1)
    return Embedding(counts)


def similarity(query: Embedding, candidate: Embedding) -> Fraction:
    """dot(q, c)·|dot(q, c)| / ‖c‖², which orders the candidates of one query
    exactly as their cosines do: ‖q‖ is the same for each of them, and the
    signed square keeps the order. A zero vector on either side scores 0.
    """
    if not candidate.norm2:
        return Fraction(0)
    # Each candidate count times the query's count in its bucket, 0 where
    # the query has none.
    counts = candidate._counts
    dot = sum(map(mul, counts.values(), map(query._counts.get, counts, repeat(0))))
    return Fraction(dot * abs(dot), candidate.norm2)


def rank(chunks: Iterable[DocChunk], query_text: str) -> tuple[DocChunk, ...]:
    """Every chunk by descending similarity to the embedded query, ties broken by (doc_id, start)."""
    query_vector = embed(query_text)
    # A reverse sort keeps the order of equal keys, so a tie stays in (doc_id, start) order.
    ordered = sorted(chunks, key=lambda c: (c.doc_id, c.start))
    return tuple(sorted(ordered, key=lambda c: similarity(query_vector, c.vector), reverse=True))


def k_schedule(iteration: int) -> int:
    """Retrieval width for a given attempt: 10, 20, ..., capped at 50."""
    if iteration < 1:
        raise ValueError(f"iteration must be >= 1, got {iteration}")
    return min(K_START + K_STEP * (iteration - 1), K_CAP)


class VectorStore:
    """In-memory chunk index queried by exact similarity.

    The store starts from chunks, which must be embedded by embed. The
    last query's text and its full ranking are kept, so a run that asks the
    same question every iteration embeds it and scores each chunk once;
    later attempts slice the kept ranking. A store may start with a kept
    ranking, a (text, rank(chunks, text)) pair over the chunks it is given;
    a query of another text ranks afresh. Adding a document drops it.
    """

    def __init__(
        self, chunks: Iterable[DocChunk] = (), ranking: tuple[str, tuple[DocChunk, ...]] | None = None
    ):
        self._chunks: list[DocChunk] = list(chunks)
        self._last_query = ranking

    def __len__(self) -> int:
        return len(self._chunks)

    @property
    def chunks(self) -> tuple[DocChunk, ...]:
        return tuple(self._chunks)

    def add_document(self, doc_id: str, text: str) -> int:
        added = chunk_document(doc_id, text)
        self._chunks.extend(added)
        self._last_query = None
        return len(added)

    def add_directory(self, path: str | Path) -> int:
        """Load every knowledge file (one with a CORPUS_SUFFIXES suffix) under a directory."""
        root = Path(path)
        count = 0
        for file in sorted(root.rglob("*")):
            if file.suffix in CORPUS_SUFFIXES and file.is_file():
                try:
                    count += self.add_document(str(file.relative_to(root)), file.read_text(encoding="utf-8"))
                except UnicodeDecodeError:
                    raise UndecodableDocument(str(file.relative_to(root))) from None
        return count

    def query(self, query_text: str, iteration: int = 1) -> tuple[DocChunk, ...]:
        """Top chunks for this attempt, ties broken by (doc_id, start)."""
        k = k_schedule(iteration)
        if self._last_query is None or self._last_query[0] != query_text:
            self._last_query = (query_text, rank(self._chunks, query_text))
        return self._last_query[1][:k]
