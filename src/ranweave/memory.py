"""Episodic memory of (intent, pipeline, outcome) attempts.

The buffer is append-only within one orchestration run and cleared at run
start, so it lives only in memory: nothing writes it out or reads it back.
Successful attempts feed analogical few-shot retrieval; failed ones feed
templated failure summaries consumed by the refinement step. Both outputs
are pure functions of the buffer contents.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass

from .conflicts import ConflictRecord, PIPELINE_LEVEL
from .model import Intent, Pipeline
from . import retrieval


@dataclass(frozen=True, slots=True)
class OutcomeRecord:
    """What the harness observed after attempting one pipeline."""

    deployed: bool
    correct: bool
    conflicts: tuple[ConflictRecord, ...]


@dataclass(frozen=True, slots=True)
class MemoryEntry:
    intent: Intent
    pipeline: Pipeline
    outcome: OutcomeRecord

    @property
    def failed(self) -> bool:
        return not (self.outcome.correct and self.outcome.deployed)


class MemoryBuffer:
    """Single-run episodic buffer with similarity-ranked recall."""

    def __init__(self) -> None:
        # Each distinct text is embedded, and each (query text, entry text)
        # pair scored, once per buffer; clear() empties both caches. The
        # caches hold no reference to the buffer, so it is freed when dropped.
        embed = self._embed = functools.cache(retrieval.embed)
        self._similarity = functools.cache(
            lambda query_text, text: retrieval.similarity(embed(query_text), embed(text))
        )
        self._entries: list[MemoryEntry] = []

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> tuple[MemoryEntry, ...]:
        return tuple(self._entries)

    def clear(self) -> None:
        self._entries.clear()
        self._embed.cache_clear()
        self._similarity.cache_clear()

    def add(self, intent: Intent, pipeline: Pipeline, outcome: OutcomeRecord) -> MemoryEntry:
        """Append a new attempt; entries keeps the order of the attempts."""
        entry = MemoryEntry(intent=intent, pipeline=pipeline, outcome=outcome)
        self._entries.append(entry)
        return entry

    def retrieve_analogues(self, intent: Intent, k: int) -> list[tuple[Intent, Pipeline]]:
        """Up to k past successes, most similar intents first.

        Exact matches on the queried intent id outrank everything; after
        that, the similarity of the intent texts (retrieval.similarity, the
        cosine order compared exactly) decides, and only an exact tie goes
        to the more recent attempt.
        """
        if k <= 0:
            return []
        successes = [e for e in self._entries if e.outcome.correct]
        # Stable sorts, last key first: most recent first, then most similar
        # first, then exact id matches first. A reverse sort keeps the order
        # of equal keys, so a similarity tie stays most recent first.
        ranked = sorted(
            reversed(successes), key=lambda e: self._similarity(intent.text, e.intent.text), reverse=True
        )
        ranked.sort(key=lambda e: e.intent.id == intent.id, reverse=True)
        return [(e.intent, e.pipeline) for e in ranked[:k]]

    def failure_summary(self, intent: Intent) -> str:
        """Recurring failure patterns for exactly this intent, templated.

        Groups the failed attempts' conflict records by (kind, xApp) and
        lists them most frequent first; the rendering is byte-stable.
        """
        failures = [e for e in self._entries if e.intent.id == intent.id and e.failed]
        if not failures:
            return f"No prior failures recorded for intent {intent.id}."

        patterns: Counter[tuple[str, str]] = Counter()
        for entry in failures:
            for record in entry.outcome.conflicts:
                implicated = {x for _, x in record.participants if x != PIPELINE_LEVEL}
                for xapp_id in sorted(implicated):
                    patterns[(record.kind.value, xapp_id)] += 1
        mismatches = sum(1 for e in failures if not e.outcome.correct)

        lines = [f"{len(failures)} failed attempt(s) recorded for intent {intent.id}."]
        if mismatches:
            lines.append(f"{mismatches} attempt(s) did not match the reference pipeline.")
        if patterns:
            lines.append("Recurring conflict patterns, most frequent first:")
            ordered = sorted(patterns.items(), key=lambda kv: (-kv[1], kv[0]))
            for (kind, xapp_id), count in ordered:
                lines.append(f"- {kind} involving {xapp_id} (seen {count}x)")
        return "\n".join(lines)
