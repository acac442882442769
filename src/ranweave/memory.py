"""Episodic memory of (intent, pipeline, outcome) attempts.

The buffer is append-only within one orchestration run and cleared at run
start. Successful attempts feed analogical few-shot retrieval; failed ones
feed templated failure summaries consumed by the refinement step. Both
outputs are pure functions of the buffer contents.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .conflicts import ConflictRecord, PIPELINE_LEVEL
from .model import Intent, Pipeline
from .planner import SolutionScore
from .schemas import pipeline_to_policy_doc, policy_doc_to_pipeline
from . import retrieval


@dataclass(frozen=True, slots=True)
class OutcomeRecord:
    """What the harness observed after attempting one pipeline."""

    deployed: bool
    correct: bool
    conflicts: tuple[ConflictRecord, ...]
    iteration: int
    score: SolutionScore


@dataclass(frozen=True, slots=True)
class MemoryEntry:
    intent: Intent
    pipeline: Pipeline
    outcome: OutcomeRecord
    sequence_no: int

    @property
    def failed(self) -> bool:
        return not (self.outcome.correct and self.outcome.deployed)


class MemoryBuffer:
    """Single-run episodic buffer with similarity-ranked recall."""

    def __init__(self) -> None:
        # Each distinct text is embedded once per buffer; clear() empties the cache.
        self._embed = functools.cache(retrieval.embed)
        self._entries: list[MemoryEntry] = []

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> tuple[MemoryEntry, ...]:
        return tuple(self._entries)

    def clear(self) -> None:
        self._entries.clear()
        self._embed.cache_clear()

    def record(self, entry: MemoryEntry) -> None:
        if self._entries and entry.sequence_no <= self._entries[-1].sequence_no:
            raise ValueError(
                f"sequence_no {entry.sequence_no} is not after {self._entries[-1].sequence_no}"
            )
        self._entries.append(entry)

    def add(self, intent: Intent, pipeline: Pipeline, outcome: OutcomeRecord) -> MemoryEntry:
        """Append a new attempt, assigning the next sequence number."""
        next_no = self._entries[-1].sequence_no + 1 if self._entries else 1
        entry = MemoryEntry(intent=intent, pipeline=pipeline, outcome=outcome, sequence_no=next_no)
        self._entries.append(entry)
        return entry

    def retrieve_analogues(self, intent: Intent, k: int = 3) -> list[tuple[Intent, Pipeline]]:
        """Up to k past successes, most similar intents first.

        Exact matches on the queried intent id outrank everything; after
        that, cosine similarity of the intent texts decides, with more
        recent attempts winning ties.
        """
        if k <= 0:
            return []
        successes = [e for e in self._entries if e.outcome.correct]
        if not successes:
            return []
        query_vector = self._embed(intent.text)
        ranked = sorted(
            successes,
            key=lambda e: (
                0 if e.intent.id == intent.id else 1,
                -retrieval.cosine(query_vector, self._embed(e.intent.text)),
                -e.sequence_no,
            ),
        )
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

    def save(self, path: str | Path) -> None:
        """Persist one JSON object per entry for post-hoc inspection."""
        with Path(path).open("w", encoding="utf-8") as handle:
            for entry in self._entries:
                handle.write(json.dumps(_entry_to_dict(entry), sort_keys=True))
                handle.write("\n")

    @classmethod
    def load(cls, path: str | Path) -> "MemoryBuffer":
        buffer = cls()
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            if line.strip():
                buffer.record(_entry_from_dict(json.loads(line)))
        return buffer


def _entry_to_dict(entry: MemoryEntry) -> dict[str, object]:
    return {
        "intent": entry.intent.to_dict(),
        "pipeline": pipeline_to_policy_doc(entry.pipeline),
        "outcome": {
            "deployed": entry.outcome.deployed,
            "correct": entry.outcome.correct,
            "conflicts": [r.to_dict() for r in entry.outcome.conflicts],
            "iteration": entry.outcome.iteration,
            "score": list(entry.outcome.score.as_tuple()),
        },
        "sequence_no": entry.sequence_no,
    }


def _entry_from_dict(data: dict) -> MemoryEntry:
    outcome = data["outcome"]
    return MemoryEntry(
        intent=Intent.from_dict(data["intent"]),
        pipeline=policy_doc_to_pipeline(data["pipeline"]),
        outcome=OutcomeRecord(
            deployed=_field(outcome, "deployed", "a boolean", _is_bool),
            correct=_field(outcome, "correct", "a boolean", _is_bool),
            conflicts=tuple(ConflictRecord.from_dict(r) for r in outcome["conflicts"]),
            iteration=_field(outcome, "iteration", "an integer", _is_int),
            score=SolutionScore(*_field(outcome, "score", "four integers", _is_score)),
        ),
        sequence_no=_field(data, "sequence_no", "an integer", _is_int),
    )


def _field(data: dict, name: str, expected: str, ok: Callable[[object], bool]):
    """data[name], refused with a TypeError that names the field unless ok(value)."""
    value = data[name]
    if not ok(value):
        raise TypeError(f"{name} must be {expected}, found {value!r}")
    return value


def _is_bool(value: object) -> bool:
    return type(value) is bool


def _is_int(value: object) -> bool:
    return type(value) is int  # type(): a bool is not a counter


def _is_score(value: object) -> bool:
    return isinstance(value, list) and len(value) == 4 and all(map(_is_int, value))
