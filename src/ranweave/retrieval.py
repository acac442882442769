"""Document chunking, embedding and cosine top-k retrieval.

Documents are split into 500-character segments with 50-character overlaps
and ranked by cosine similarity. The reference embedder hashes character
trigrams into a fixed 256-dimensional unit vector, so retrieval is fully
deterministic and needs no network; a remote HTTP embedder with the same
interface can be plugged in instead.

The number of chunks injected per query grows with the iteration count:
top-10 on the first attempt, +10 per attempt, capped at 50. A run asks the
same question every iteration, so the store ranks the whole corpus once per
query text and each later attempt takes a longer prefix of that ranking.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable

import numpy as np

from .transport import post_json

EMBEDDING_DIM = 256
CHUNK_SIZE = 500
CHUNK_OVERLAP = 50
CORPUS_SUFFIXES = (".md", ".txt")
K_START = 10
K_STEP = 10
K_CAP = 50

EMBED_BASE_URL_ENV = "RANWEAVE_EMBED_BASE_URL"
EMBED_MODEL_ENV = "RANWEAVE_EMBED_MODEL"
EMBED_API_KEY_ENV = "RANWEAVE_EMBED_API_KEY"
DEFAULT_REMOTE_EMBED_MODEL = "text-embedding-3-small"


class RetrievalUnavailableError(RuntimeError):
    """The remote embedding backend could not be reached or answered badly."""


@dataclass(frozen=True)
class DocChunk:
    doc_id: str
    start: int
    end: int
    text: str
    vector: np.ndarray


def chunk_spans(length: int, size: int = CHUNK_SIZE, overlap: int = CHUNK_OVERLAP) -> list[tuple[int, int]]:
    """Character spans covering [0, length) with a fixed overlap stride."""
    if overlap < 0 or overlap >= size:
        raise ValueError(f"overlap must satisfy 0 <= overlap < size, got {overlap} and {size}")
    if length <= 0:
        return []
    stride = size - overlap
    spans = []
    start = 0
    while True:
        end = min(start + size, length)
        spans.append((start, end))
        if end == length:
            return spans
        start += stride


def chunk_document(
    doc_id: str,
    text: str,
    size: int = CHUNK_SIZE,
    overlap: int = CHUNK_OVERLAP,
    embed_fn: Callable[[str], np.ndarray] | None = None,
) -> list[DocChunk]:
    embedder = embed_fn or embed
    chunks = []
    for start, end in chunk_spans(len(text), size, overlap):
        piece = text[start:end]
        chunks.append(DocChunk(doc_id=doc_id, start=start, end=end, text=piece, vector=embedder(piece)))
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

    Both embedders return finite vectors, and a zero vector's inner product
    with a finite one is +0.0 or -0.0, both equal to 0.0; so the convention
    needs no test of its own.
    """
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.dot(a, b))


def k_schedule(iteration: int) -> int:
    """Retrieval width for a given attempt: 10, 20, ..., capped at 50."""
    if iteration < 1:
        raise ValueError(f"iteration must be >= 1, got {iteration}")
    return min(K_START + K_STEP * (iteration - 1), K_CAP)


class VectorStore:
    """In-memory chunk index queried by cosine similarity.

    The store starts from chunks, which must be embedded by embed_fn. The
    last query's text and its full ranking are kept, so a run that asks the
    same question every iteration embeds it and scores each chunk once;
    later attempts slice the kept ranking. Adding a document drops it.
    """

    def __init__(
        self, embed_fn: Callable[[str], np.ndarray] | None = None, chunks: Iterable[DocChunk] = ()
    ):
        self._embed = embed_fn or embed
        self._chunks: list[DocChunk] = list(chunks)
        self._last_query: tuple[str, list[DocChunk]] | None = None

    def __len__(self) -> int:
        return len(self._chunks)

    @property
    def chunks(self) -> tuple[DocChunk, ...]:
        return tuple(self._chunks)

    def add_document(self, doc_id: str, text: str) -> int:
        added = chunk_document(doc_id, text, embed_fn=self._embed)
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

    def query(self, query_text: str, iteration: int = 1) -> list[DocChunk]:
        """Top chunks for this attempt, ties broken by (doc_id, start)."""
        k = k_schedule(iteration)
        if self._last_query is None or self._last_query[0] != query_text:
            # A failed embedding or a dimension mismatch raises before
            # anything is kept. Per-chunk np.dot, not one matrix product:
            # BLAS rounds differently and would reorder near-ties.
            query_vector = self._embed(query_text)
            ranked = sorted(
                self._chunks, key=lambda c: (-cosine(query_vector, c.vector), c.doc_id, c.start)
            )
            self._last_query = (query_text, ranked)
        return self._last_query[1][:k]


class RemoteEmbedder:
    """HTTP embedding backend, interface-compatible with the reference one.

    Configuration comes from the environment unless passed explicitly; any
    transport or protocol failure surfaces as RetrievalUnavailableError. So
    does a vector whose length differs from the first answer's, since the
    store could not compare it with the chunks it holds.
    """

    def __init__(
        self,
        base_url: str | None = None,
        model: str | None = None,
        api_key: str | None = None,
        timeout: float = 30.0,
    ):
        self.base_url = (base_url or os.environ.get(EMBED_BASE_URL_ENV, "")).rstrip("/")
        self.model = model or os.environ.get(EMBED_MODEL_ENV, DEFAULT_REMOTE_EMBED_MODEL)
        self.api_key = api_key or os.environ.get(EMBED_API_KEY_ENV, "")
        self.timeout = timeout
        self._length: int | None = None
        if not self.base_url:
            raise RetrievalUnavailableError(
                f"no embedding endpoint configured; set {EMBED_BASE_URL_ENV}"
            )

    def __call__(self, text: str) -> np.ndarray:
        payload = {"model": self.model, "input": [text]}
        vector = post_json(
            f"{self.base_url}/embeddings", self.api_key, payload, self.timeout,
            self._vector, RetrievalUnavailableError, "embedding request",
        )
        norm = float(np.linalg.norm(vector))
        return vector / norm if norm else vector

    def _vector(self, body: Any) -> np.ndarray:
        vector = np.asarray(body["data"][0]["embedding"], dtype=np.float64)
        if vector.ndim != 1 or not vector.size or not np.isfinite(vector).all():
            raise ValueError(f"expected a non-empty finite vector, got shape {vector.shape}")
        self._length = self._length or vector.size
        if vector.size != self._length:
            raise ValueError(f"expected {self._length} components, as in the first answer, got {vector.size}")
        return vector
