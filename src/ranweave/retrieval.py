"""Document chunking, embedding and cosine top-k retrieval.

Documents are split into 500-character segments with 50-character overlaps
and ranked by cosine similarity. The reference embedder hashes character
trigrams into a fixed 256-dimensional unit vector, so retrieval is fully
deterministic and needs no network.

The number of chunks injected per query grows with the iteration count:
top-10 on the first attempt, +10 per attempt, capped at 50. A run asks the
same question every iteration, so the store ranks the whole corpus once per
query text and each later attempt takes a longer prefix of that ranking. A
store can also start from a ranking made elsewhere (rank) over the same chunks,
so runs that ask one question share its ranking.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

EMBEDDING_DIM = 256
CHUNK_SIZE = 500
CHUNK_OVERLAP = 50
CORPUS_SUFFIXES = (".md", ".txt")
K_START = 10
K_STEP = 10
K_CAP = 50


@dataclass(frozen=True)
class DocChunk:
    doc_id: str
    start: int
    end: int
    text: str
    vector: np.ndarray


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


def reconstruct(chunks: Iterable[DocChunk]) -> str:
    """Rebuild the original document from its overlapping chunks.

    The chunks must be of one document and cover it from offset 0 without a
    gap, and each must agree with the text before it where they overlap;
    anything else raises ValueError rather than returning part of it.
    """
    ordered = sorted(chunks, key=lambda c: c.start)
    doc_ids = sorted({chunk.doc_id for chunk in ordered})
    if len(doc_ids) > 1:
        raise ValueError(f"chunks of more than one document: {doc_ids}")
    if ordered and ordered[0].start != 0:
        raise ValueError(f"first chunk starts at {ordered[0].start}, not 0")
    text = ""
    for chunk in ordered:
        if chunk.start > len(text):
            raise ValueError(f"gap between offsets {len(text)} and {chunk.start}")
        overlap = chunk.text[: len(text) - chunk.start]
        if overlap != text[chunk.start : chunk.start + len(overlap)]:
            raise ValueError(f"chunk at offset {chunk.start} disagrees with the text before it")
        text += chunk.text[len(overlap) :]
    return text


def embed(text: str) -> np.ndarray:
    """Deterministic character-trigram feature hashing, L2-normalized.

    Empty text embeds to the zero vector.
    """
    normalized = text.casefold()
    if not normalized:
        return np.zeros(EMBEDDING_DIM, dtype=np.float64)
    grams = (
        [normalized[i : i + 3] for i in range(len(normalized) - 2)]
        if len(normalized) >= 3
        else [normalized]
    )
    # Each gram's crc32 of its UTF-8 bytes picks a bucket and, by bit 8, a
    # sign. The bucket sums are small integers, so float64 holds them exactly.
    digests = np.fromiter(map(zlib.crc32, map(str.encode, grams)), dtype=np.uint32, count=len(grams))
    signs = ((digests >> 8) & 1) * 2.0 - 1.0
    vector = np.bincount(digests % EMBEDDING_DIM, weights=signs, minlength=EMBEDDING_DIM)
    norm = float(np.linalg.norm(vector))
    if norm == 0.0:
        return vector
    return vector / norm


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product of normalized vectors; zero vectors score 0 by convention.

    embed returns finite vectors, and a zero vector's inner product
    with a finite one is +0.0 or -0.0, both equal to 0.0; so the convention
    needs no test of its own.
    """
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.dot(a, b))


def rank(chunks: Iterable[DocChunk], query_text: str) -> tuple[DocChunk, ...]:
    """Every chunk by descending cosine with the embedded query, ties broken by (doc_id, start)."""
    # Per-chunk np.dot, not one matrix product: BLAS rounds differently and
    # would reorder near-ties.
    query_vector = embed(query_text)
    return tuple(sorted(chunks, key=lambda c: (-cosine(query_vector, c.vector), c.doc_id, c.start)))


def k_schedule(iteration: int) -> int:
    """Retrieval width for a given attempt: 10, 20, ..., capped at 50."""
    if iteration < 1:
        raise ValueError(f"iteration must be >= 1, got {iteration}")
    return min(K_START + K_STEP * (iteration - 1), K_CAP)


class VectorStore:
    """In-memory chunk index queried by cosine similarity.

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
                count += self.add_document(str(file.relative_to(root)), file.read_text(encoding="utf-8"))
        return count

    def query(self, query_text: str, iteration: int = 1) -> tuple[DocChunk, ...]:
        """Top chunks for this attempt, ties broken by (doc_id, start)."""
        k = k_schedule(iteration)
        if self._last_query is None or self._last_query[0] != query_text:
            self._last_query = (query_text, rank(self._chunks, query_text))
        return self._last_query[1][:k]
