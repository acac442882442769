"""Episodic memory of (intent, pipeline, outcome) attempts.

The buffer is append-only within one orchestration run and cleared at run
start. Successful attempts feed analogical few-shot retrieval; failed ones
feed templated failure summaries consumed by the refinement step. Both
outputs are pure functions of the buffer contents.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .conflicts import ConflictRecord, PIPELINE_LEVEL
from .model import Intent, Pipeline
from .planner import SolutionScore
from .schemas import SchemaValidationError, dump_doc, parse_memory_line, pipeline_to_policy_doc
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

    def save(self, path: str | Path) -> None:
        """Persist one JSON object per entry for post-hoc inspection."""
        with Path(path).open("w", encoding="utf-8") as handle:
            for entry in self._entries:
                handle.write(dump_doc(_entry_to_dict(entry)))
                handle.write("\n")

    @classmethod
    def load(cls, path: str | Path) -> "MemoryBuffer":
        """A saved file's entries; a bad line raises one SchemaValidationError naming it."""
        buffer = cls()
        # "\n" alone ends a line: splitlines() also splits at U+2028, which a JSON string may hold.
        for number, line in enumerate(Path(path).read_text(encoding="utf-8").split("\n"), start=1):
            if not line.strip():
                continue
            doc_name = f"{path} line {number}"
            data, intent, pipeline, conflicts = parse_memory_line(line, doc_name)
            outcome = data["outcome"]
            score = SolutionScore(*outcome["score"])
            kept = OutcomeRecord(outcome["deployed"], outcome["correct"], conflicts, outcome["iteration"], score)
            entry = MemoryEntry(intent, pipeline, kept, data["sequence_no"])
            try:
                buffer.record(entry)
            except ValueError as exc:
                raise SchemaValidationError(doc_name, [str(exc)]) from exc
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

