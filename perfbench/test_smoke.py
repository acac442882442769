"""Smoke test of the benchmark: every workload at a tiny size, both passes.

Run from the repository root with ``python -m pytest perfbench``. Each run
is a separate interpreter, as the benchmark is run for real, so the report
digests also check that runs repeat across processes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"

END_TO_END = {
    "setup_s": "s",
    "run_ms.p50": "ms",
    "run_ms.p90": "ms",
    "runs_per_s": "1/s",
    "agent_calls.per_run": "calls",
    "prompt_kchars.per_run": "kchars",
    "prompt_uncached_kchars.per_run": "kchars",
    "iters.mean": "iterations",
    "converged_frac": "ratio",
    "deploy_success.mean": "ratio",
    "gen_accuracy.mean": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = [
    "harness.ground_truths.calls",
    "harness.build_knowledge_store.ms",
    "harness.make_transport.ms",
    "harness.load_fixtures.ms",
    "planner.synthesize_ground_truth.calls",
    "planner.synthesize_ground_truth.ms",
    "planner.synthesize_ground_truth.unique_ratio",
    "planner.max_conflict_free_subset.calls",
    "planner.max_conflict_free_subset.ms",
    "conflicts.pairwise_conflicts.calls",
    "conflicts.pairwise_conflicts.ms",
    "conflicts.pairwise_conflicts.unique_ratio",
    "conflicts.internal_conflicts.calls",
    "conflicts.internal_conflicts.ms",
    "conflicts.build_conflict_graph.calls",
    "conflicts.build_conflict_graph.ms",
    "agents.render.perception.ms",
    "agents.render.reasoning.ms",
    "agents.render.refinement.ms",
    "agents.select_deployment.ms",
    "agents.conflict_records.ms",
    "agents.orchestrate_batch.self_ms",
    "agents.repair.count",
    "agents.call_failed.count",
    "transport.calls.perception",
    "transport.calls.reasoning",
    "transport.calls.refinement",
    "transport.complete.ms",
    "transport.prompt_chars.perception",
    "transport.prompt_chars.reasoning",
    "transport.prompt_chars.refinement",
    "transport.response_chars",
    "schemas.parse.calls",
    "schemas.parse.ms",
    "schemas.parse.ok_ratio",
    "memory.retrieve_analogues.calls",
    "memory.retrieve_analogues.ms",
    "memory.embed.calls",
    "memory.embed.unique_ratio",
    "memory.add.ms",
    "memory.failure_summary.ms",
    "retrieval.embed.calls",
    "retrieval.embed.ms",
    "retrieval.store_build.ms",
    "retrieval.query.calls",
    "retrieval.query.ms",
    "model.validate_pipeline_structure.calls",
    "model.validate_pipeline_structure.ms",
    "model.pipelines_equal.calls",
    "trace.unspanned.ms",
    "trace.bookkeeping.ms",
    "trace.overhead_ratio",
]


def bench(workload: str, trace: int) -> tuple[dict, str]:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    digest = next(line.split()[-1] for line in lines if line.startswith("report digest:"))
    return json.loads(lines[-1]), digest


@pytest.mark.parametrize("workload", ["ablation-noisy", "oracle-sweep", "wide-catalog"])
def test_workload_prints_every_metric_and_repeats(workload):
    plain, plain_digest = bench(workload, 0)
    traced, traced_digest = bench(workload, 1)

    for result in (plain, traced):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in plain["metrics"].items()} == END_TO_END
    missing = [name for name in PER_LAYER if name not in traced["metrics"]]
    assert not missing
    assert all(m["unit"] for m in traced["metrics"].values())
    # Same seed, separate processes, traced or not: the same reports.
    assert plain_digest == traced_digest
