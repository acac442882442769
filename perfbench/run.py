"""The ranweave benchmark: three workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ablation-noisy --seed 1 --seconds 10 --trace 0

Each workload is a fixed list of runs ("a pass") drawn from ``--seed``. One
process runs them with one sequential closed-loop client: a run starts only
after the previous one returned. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced pass. The last line of
standard output is one JSON object; see README.md for every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"

WORKLOADS = ("ablation-noisy", "oracle-sweep", "wide-catalog")
MODES = ("f5", "sa", "nr", "np", "fcfs")
SCENARIOS = (1, 2, 3, 4)

# Runs per pass. A bundled pass is scenarios x modes x this many seeds; a
# wide pass is this many catalogs, one in WIDE_BRIDGED_EVERY with a bridged
# intent, so the spacer defect sits in every pass at the same 25% rate.
SEEDS_PER_CELL = {"ablation-noisy": 50, "oracle-sweep": 25}
WIDE_CATALOGS = 64
WIDE_BRIDGED_EVERY = 4
# A wide run that never converges would loop 50 times at about 0.2 s per
# iteration; 10 keeps such a run near 1 s, so a pass holds enough runs.
WIDE_MAX_ITERATIONS = 10
# Prompt counting and tracing cover this prefix of the pass: whole rounds of
# the bundled grid, and whole groups of four catalogs.
PREFIX_RUNS = {"ablation-noisy": 140, "oracle-sweep": 100, "wide-catalog": 20}
SETUP_PROBES = 5

SMOKE_SEEDS_PER_CELL = 1


def import_ranweave():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "ranweave" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ranweave sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ranweave

    if Path(ranweave.__file__).resolve().parent != SRC / "ranweave":
        sys.exit(f"perfbench: imported ranweave from {ranweave.__file__}, not {SRC}")
    return ranweave


@dataclass
class OpResult:
    report: dict
    agent_calls: int
    problems: list[str]


@dataclass
class Workload:
    name: str
    ops: list
    run_op: Callable[[object], Callable[[], object]]
    finish: Callable[[object, object], OpResult]
    prefix: list


# -- workloads ---------------------------------------------------------------


def setup(name: str, seed: int, smoke: bool) -> Workload:
    """Everything before the first run: import, fixtures, generated inputs."""
    import_ranweave()
    from ranweave import harness

    bundle = harness.load_fixtures()
    rng = random.Random(f"{name}:{seed}")
    if name == "wide-catalog":
        return _wide_workload(bundle, rng, smoke)
    kind = "mock-noisy" if name == "ablation-noisy" else "mock-oracle"
    # One round holds every (scenario, mode) cell once, in a shuffled order,
    # so the prefix that is counted and traced has the mix of the whole pass.
    ops = []
    for _ in range(SMOKE_SEEDS_PER_CELL if smoke else SEEDS_PER_CELL[name]):
        cells = [(scenario, mode) for scenario in SCENARIOS for mode in MODES]
        rng.shuffle(cells)
        ops += [(scenario, mode, rng.randrange(1 << 30)) for scenario, mode in cells]

    def run_op(op):
        scenario, mode, run_seed = op

        def call():
            chat = harness.make_transport(kind, bundle, run_seed)
            return chat, harness.run_scenario(bundle, scenario, mode, chat, run_seed)

        return call

    def finish(op, output):
        chat, report = output
        problems = _common_checks(report)
        if name == "oracle-sweep" and not (
            report.converged
            and len(report.score_history) == 1
            and report.generation_accuracy == report.deployment_success == 1.0
        ):
            problems.append("oracle run did not converge in one iteration at full accuracy")
        return OpResult(report.to_dict(), len(chat.calls), problems)

    return Workload(name, ops, run_op, finish, ops if smoke else ops[: PREFIX_RUNS[name]])


def _wide_workload(bundle, rng, smoke: bool) -> Workload:
    from wide_catalog import CatalogParams, generate_catalog

    from ranweave import agents, conflicts, harness, memory, planner, transport
    from ranweave.harness import RunReport
    from ranweave.model import DeploymentState

    params = (
        CatalogParams(xapps=16, capabilities=12, kpis=10, new_intents=4, pre_intents=4)
        if smoke
        else CatalogParams()
    )
    count = WIDE_BRIDGED_EVERY if smoke else WIDE_CATALOGS
    ops = [
        (
            index,
            generate_catalog(rng.randrange(1 << 30), params, bridged=index % WIDE_BRIDGED_EVERY == 0),
            rng.randrange(1 << 30),
        )
        for index in range(count)
    ]

    def run_op(op):
        index, catalog, run_seed = op

        def call():
            # The steps of harness.run_scenario, once each, through public calls.
            truths = {
                i: planner.synthesize_ground_truth(catalog.intents[i], catalog.registry, catalog.matrix)
                for i in sorted(catalog.intents)
            }
            pre = DeploymentState(tuple(truths[i] for i in catalog.pre_intents))
            candidates = {i: truths[i] for i in catalog.new_intents}
            oracle = planner.max_conflict_free_subset(
                candidates, pre, catalog.intents, catalog.matrix, catalog.registry, truths=candidates
            )
            chat = transport.NoisyTransport(
                transport.MockBundle(catalog.registry, catalog.intents, catalog.matrix, truths), run_seed
            )
            store = harness.build_knowledge_store(bundle)
            ctx = agents.RunContext(
                mode=agents.Mode.F5,
                intents=tuple(catalog.intents[i] for i in catalog.new_intents),
                pre=pre,
                registry=catalog.registry,
                matrix=catalog.matrix,
                intent_catalog=catalog.intents,
                seed=run_seed,
                max_iterations=WIDE_MAX_ITERATIONS,
                scenario_id=index,
            )
            outcome = agents.orchestrate_batch(ctx, chat, memory.MemoryBuffer(), store, oracle)
            best = outcome.best
            correct = sum(
                1
                for i in catalog.new_intents
                if i in best.candidates
                and agents.is_correct_candidate(best.candidates[i], truths[i], catalog.registry)
            )
            objective = oracle.objective_value
            report = RunReport(
                scenario_id=index,
                mode=ctx.mode.value,
                generation_accuracy=correct / len(catalog.new_intents),
                deployment_success=best.score.correct_deployed / objective if objective else 1.0,
                iterations_to_synthesis=outcome.iterations_to_synthesis or ctx.max_iterations,
                iterations_to_deployment=outcome.iterations_to_deployment or ctx.max_iterations,
                converged=outcome.converged,
                seed=run_seed,
                transport=chat.describe(),
                score_history=[s.as_tuple() for s in outcome.score_history],
            )
            return chat, pre, best, report

        return call

    def finish(op, output):
        index, catalog, run_seed = op
        chat, pre, best, report = output
        problems = _common_checks(report)
        deployed = {i: best.candidates[i] for i in best.deployed}
        for i, pipeline in sorted(deployed.items()):
            others = list(pre) + [p for j, p in sorted(deployed.items()) if j != i]
            ok, records = conflicts.validity(
                pipeline, others, catalog.intents, catalog.matrix, catalog.registry
            )
            if not ok:
                problems.append(f"deployed pipeline {i} is not valid: {records[0].explanation}")
        return OpResult(report.to_dict(), len(chat.calls), problems)

    prefix = ops if smoke else ops[: PREFIX_RUNS["wide-catalog"]]
    return Workload("wide-catalog", ops, run_op, finish, prefix)


def _common_checks(report) -> list[str]:
    problems = []
    history = report.score_history
    if any(later < earlier for earlier, later in zip(history, history[1:])):
        problems.append("score_history decreased")
    if not 0.0 <= report.deployment_success <= 1.0:
        problems.append(f"deployment_success {report.deployment_success} outside [0, 1]")
    return problems


# -- machine speed -----------------------------------------------------------

# The benchmark's host shares its cores with other machines. Its speed flips
# between a fast and a slow state, about 1.5x apart, in spells of seconds to
# minutes, so the same pass can take 33 s or 41 s. Timed passes therefore
# time a fixed reference task every PROBE_INTERVAL_S and report each run at
# a nominal machine speed: its wall time times REFERENCE_NOMINAL_S over the
# mean of the reference times measured just before and just after it.
REFERENCE_NOMINAL_S = 0.0025
PROBE_INTERVAL_S = 0.25


def reference_task() -> int:
    """Fixed interpreter work like ranweave's: strings, dicts, a sort, JSON, small numpy."""
    import numpy as np

    rng = random.Random(0)
    words = ["".join(rng.choice("abcdefghij") for _ in range(8)) for _ in range(400)]
    table = {word + str(i): len(word) * i for i, word in enumerate(words)}
    text = json.dumps(sorted(table.items(), key=lambda item: item[1]))
    vector = np.zeros(256)
    for i in range(300):
        vector[(i * 7) % 256] += 1.0
        float(np.dot(vector, vector))
    return len(text)


class SpeedProbe:
    """Reference-task times taken between runs, at most every PROBE_INTERVAL_S."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self, force: bool = False) -> int:
        """Time the reference task if a sample is due; return the latest sample's index."""
        if force or time.perf_counter() - self._last >= PROBE_INTERVAL_S:
            times = []
            for _ in range(2):
                t0 = time.perf_counter()
                reference_task()
                times.append(time.perf_counter() - t0)
            self.samples.append(min(times))
            self._last = time.perf_counter()
        return len(self.samples) - 1

    def scale(self, index: int) -> float:
        """Nominal over measured speed between sample ``index`` and the next one."""
        return REFERENCE_NOMINAL_S / statistics.fmean(self.samples[index:index + 2])


# -- passes ------------------------------------------------------------------


class Pass:
    """Runs ops in order, timing each run and checking its outputs.

    ``wall`` is the time of the pass less the time spent in the checks and
    the speed probes, so that it holds only the program's work and the loop
    around it. With a ``SpeedProbe``, ``nominal_seconds`` and
    ``nominal_wall`` give the same times at the nominal machine speed.
    """

    def __init__(self, workload: Workload, expected: list[str] = ()):
        self.workload = workload
        # Reports of an earlier pass over the same runs, which this one must repeat.
        self.expected = expected
        self.reports: list[str] = []
        self.run_seconds: list[float | None] = []
        self.nominal_seconds: list[float | None] = []
        self.agent_calls: list[int] = []
        self.outcomes: list[dict] = []
        self.failed = 0
        self.wall = 0.0
        self.nominal_wall = 0.0

    def execute(self, ops, around=None, deadline=None, probe=None) -> "Pass":
        """Run ``ops`` in order, stopping early once ``deadline`` has passed."""
        started = time.perf_counter()
        overhead = 0.0
        marks = []
        for position, op in enumerate(ops):
            if deadline is not None and time.perf_counter() >= deadline:
                break
            if probe:
                probe_started = time.perf_counter()
                marks.append(probe.sample())
                overhead += time.perf_counter() - probe_started
            call = self.workload.run_op(op)
            try:
                with around.run() if around else contextlib.nullcontext():
                    t0 = time.perf_counter()
                    output = call()
                    elapsed = time.perf_counter() - t0
                checks_started = time.perf_counter()
                with around.paused() if around else contextlib.nullcontext():
                    result = self.workload.finish(op, output)
            except Exception as exc:  # a crashing run is a failed run, not a crashed benchmark
                print(f"perfbench: run {op!r:.80} raised {exc!r}", file=sys.stderr)
                self.failed += 1
                self.reports.append("")
                self.run_seconds.append(None)
                continue
            canonical = json.dumps(result.report, sort_keys=True)
            if position < len(self.expected) and canonical != self.expected[position]:
                result.problems.append("report differs from the first pass over the same run")
            for problem in result.problems:
                print(f"perfbench: run {op!r:.80}: {problem}", file=sys.stderr)
            self.failed += bool(result.problems)
            self.reports.append(canonical)
            self.run_seconds.append(elapsed)
            self.agent_calls.append(result.agent_calls)
            self.outcomes.append(result.report)
            overhead += time.perf_counter() - checks_started
        self.wall = time.perf_counter() - started - overhead
        if probe:
            # Every run has a sample before it and, after this one, a sample after it.
            probe.sample(force=True)
            self.nominal_seconds = [
                None if s is None else s * probe.scale(mark)
                for s, mark in zip(self.run_seconds, marks)
            ]
            raw = sum(s for s in self.run_seconds if s is not None)
            nominal = sum(s for s in self.nominal_seconds if s is not None)
            self.nominal_wall = self.wall * nominal / raw if raw else self.wall
        return self

    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.reports).encode("utf-8")).hexdigest()


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure_setup(name: str, seed: int, smoke: bool) -> float:
    """Median seconds from process start to ready, over fresh interpreters."""
    samples = []
    for _ in range(1 if smoke else SETUP_PROBES):
        command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                   "--workload", name, "--seed", str(seed)] + (["--smoke"] if smoke else [])
        t0 = time.perf_counter()
        child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        try:
            line = child.stdout.readline()
            samples.append(time.perf_counter() - t0)
            child.stdout.close()
        finally:
            child.wait(timeout=120)
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"setup probe failed with exit code {child.returncode}")
    return statistics.median(samples)


def end_to_end(name: str, seed: int, seconds: float, smoke: bool) -> tuple[dict, int, int, str]:
    setup_s = measure_setup(name, seed, smoke)
    workload = setup(name, seed, smoke)
    from span_trace import PromptCounter

    # A first pass over the prefix warms the process up and counts prompts;
    # it is untimed, because reading the prompts forces them to be rendered.
    counter = PromptCounter()
    with counter.installed():
        counted = Pass(workload).execute(workload.prefix, around=counter)
    probe = SpeedProbe()
    for _ in range(10):  # the reference task warms up too
        reference_task()
    # The first timed pass is always whole, for the run outcomes; then the
    # runs go on from the start of the list until ``seconds`` have passed.
    deadline = time.perf_counter() + seconds
    timed = [Pass(workload, counted.reports).execute(workload.ops, probe=probe)]
    while time.perf_counter() < deadline:
        timed.append(Pass(workload, timed[0].reports).execute(workload.ops, deadline=deadline, probe=probe))
    runs = [s for p in timed for s in p.nominal_seconds if s is not None]
    measured = [s for p in timed for s in p.run_seconds if s is not None]
    if not counted.outcomes or not timed[0].outcomes:
        raise RuntimeError("no run completed")
    if sum(counter.calls.values()) != sum(counted.agent_calls):
        raise RuntimeError("prompt counter and transport.calls disagree on the number of calls")
    outcomes = timed[0].outcomes
    n, n_counted = len(outcomes), len(counted.outcomes)
    metrics = {
        "setup_s": (setup_s, "s"),
        "run_ms.p50": (percentile(runs, 50) * 1e3, "ms"),
        "run_ms.p90": (percentile(runs, 90) * 1e3, "ms"),
        "runs_per_s": (len(runs) / sum(p.nominal_wall for p in timed), "1/s"),
        "agent_calls.per_run": (sum(timed[0].agent_calls) / n, "calls"),
        "prompt_kchars.per_run": (sum(counter.prompt_chars.values()) / n_counted / 1e3, "kchars"),
        "prompt_uncached_kchars.per_run": (counter.uncached_chars / n_counted / 1e3, "kchars"),
        "iters.mean": (statistics.fmean(len(o["score_history"]) for o in outcomes), "iterations"),
        "converged_frac": (statistics.fmean(bool(o["converged"]) for o in outcomes), "ratio"),
        "deploy_success.mean": (statistics.fmean(o["deployment_success"] for o in outcomes), "ratio"),
        "gen_accuracy.mean": (statistics.fmean(o["generation_accuracy"] for o in outcomes), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"samples: {len(runs)} timed runs, {len(workload.ops)} of them distinct; "
          f"prompts counted over {n_counted} runs")
    print(f"as measured, before scaling to the nominal speed: "
          f"run_ms.p50 {percentile(measured, 50) * 1e3:.6f}, run_ms.p90 {percentile(measured, 90) * 1e3:.6f}, "
          f"runs_per_s {len(measured) / sum(p.wall for p in timed):.6f}; "
          f"reference task {statistics.median(probe.samples) * 1e3:.4f} ms median "
          f"over {len(probe.samples)} samples")
    attempted = len(counted.reports) + sum(len(p.reports) for p in timed)
    failed = counted.failed + sum(p.failed for p in timed)
    return metrics, attempted, failed, timed[0].digest()


def per_layer(name: str, seed: int, seconds: float, smoke: bool) -> tuple[dict, int, int, str]:
    workload = setup(name, seed, smoke)
    from span_trace import Tracer

    from ranweave import harness

    ops = workload.prefix
    loader = Tracer()
    with loader.installed(), loader.run():
        harness.load_fixtures()
    Pass(workload).execute(ops[:1])  # warm-up

    tracer = Tracer()
    untraced: list[Pass] = []
    traced: list[Pass] = []
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < seconds:
        untraced.append(Pass(workload, untraced[0].reports if untraced else ()).execute(ops))
        with tracer.installed():
            traced.append(Pass(workload, untraced[0].reports).execute(ops, around=tracer))

    runs = tracer.runs
    if runs == 0:
        raise RuntimeError("no traced run completed")
    self_s, calls = tracer.self_times()
    traced_wall = sum(p.wall for p in traced)
    # Self times sum to the root spans' time by construction, so what is
    # checked is that the spans nest: then self times plus the time no
    # span covers account for the traced wall time.
    problems = tracer.check_spans()
    if tracer.root_seconds() > traced_wall:
        problems.append(f"root spans take {tracer.root_seconds()} s of a {traced_wall} s pass")
    if problems:
        raise RuntimeError("spans do not nest: " + "; ".join(problems[:5]))
    outside = traced_wall - tracer.root_seconds()
    print(f"spans: {len(tracer.spans)} closed and nested, with non-negative self time; "
          f"{outside / traced_wall:.2%} of the traced wall time is outside every span")

    def ms(span):
        return (self_s.get(span, 0.0) / runs * 1e3, "ms/run")

    def count(span):
        return (calls.get(span, 0) / runs, "calls/run")

    def ratio(numerator, denominator):
        return (numerator / denominator if denominator else 1.0, "ratio")

    prompts = tracer.prompts
    metrics = {
        "harness.ground_truths.calls": count("harness.ground_truths"),
        "harness.build_knowledge_store.ms": ms("harness.build_knowledge_store"),
        "harness.make_transport.ms": ms("harness.make_transport"),
        "harness.load_fixtures.ms": (loader.self_times()[0]["harness.load_fixtures"] * 1e3, "ms"),
        "planner.synthesize_ground_truth.calls": count("planner.synthesize_ground_truth"),
        "planner.synthesize_ground_truth.ms": ms("planner.synthesize_ground_truth"),
        "planner.synthesize_ground_truth.unique_ratio": ratio(
            tracer.unique["planner.synthesize_ground_truth"], calls["planner.synthesize_ground_truth"]),
        "planner.max_conflict_free_subset.calls": count("planner.max_conflict_free_subset"),
        "planner.max_conflict_free_subset.ms": ms("planner.max_conflict_free_subset"),
        "conflicts.pairwise_conflicts.calls": count("conflicts.pairwise_conflicts"),
        "conflicts.pairwise_conflicts.ms": ms("conflicts.pairwise_conflicts"),
        "conflicts.pairwise_conflicts.unique_ratio": ratio(
            tracer.unique["conflicts.pairwise_conflicts"], calls["conflicts.pairwise_conflicts"]),
        "conflicts.internal_conflicts.calls": count("conflicts.internal_conflicts"),
        "conflicts.internal_conflicts.ms": ms("conflicts.internal_conflicts"),
        "conflicts.build_conflict_graph.calls": count("conflicts.build_conflict_graph"),
        "conflicts.build_conflict_graph.ms": ms("conflicts.build_conflict_graph"),
        "agents.render.perception.ms": ms("agents.render.perception"),
        "agents.render.reasoning.ms": ms("agents.render.reasoning"),
        "agents.render.refinement.ms": ms("agents.render.refinement"),
        "agents.select_deployment.ms": ms("agents.select_deployment"),
        "agents.conflict_records.ms": ms("agents.conflict_records"),
        "agents.orchestrate_batch.self_ms": ms("agents.orchestrate_batch"),
        "agents.call_with_repair.ms": ms("agents.call_with_repair"),
        "agents.repair.count": (prompts.repairs / runs, "calls/run"),
        "agents.call_failed.count": (tracer.outcomes["agents.call_failed"] / runs, "calls/run"),
        "transport.complete.ms": ms("transport.complete"),
        "transport.response_chars": (prompts.response_chars / runs, "chars/run"),
        "schemas.parse.calls": count("schemas.parse"),
        "schemas.parse.ms": ms("schemas.parse"),
        "schemas.parse.ok_ratio": ratio(tracer.outcomes["schemas.parse.ok"], calls["schemas.parse"]),
        "memory.retrieve_analogues.calls": count("memory.retrieve_analogues"),
        "memory.retrieve_analogues.ms": ms("memory.retrieve_analogues"),
        "memory.embed.calls": count("memory.embed"),
        "memory.embed.ms": ms("memory.embed"),
        "memory.embed.unique_ratio": ratio(tracer.unique["memory.embed"], calls["memory.embed"]),
        "memory.add.ms": ms("memory.add"),
        "memory.failure_summary.ms": ms("memory.failure_summary"),
        "retrieval.embed.calls": count("retrieval.embed"),
        "retrieval.embed.ms": ms("retrieval.embed"),
        "retrieval.store_build.ms": ms("retrieval.store_build"),
        "retrieval.query.calls": count("retrieval.query"),
        "retrieval.query.ms": ms("retrieval.query"),
        "model.validate_pipeline_structure.calls": count("model.validate_pipeline_structure"),
        "model.validate_pipeline_structure.ms": ms("model.validate_pipeline_structure"),
        "model.pipelines_equal.calls": count("model.pipelines_equal"),
        "trace.unspanned.ms": ((self_s.get("bench.op", 0.0) + outside) / runs * 1e3, "ms/run"),
        "trace.bookkeeping.ms": ms("trace.bookkeeping"),
        "trace.overhead_ratio": (traced_wall / sum(p.wall for p in untraced), "ratio"),
    }
    for role in ("perception", "reasoning", "refinement"):
        metrics[f"transport.calls.{role}"] = (prompts.calls[role] / runs, "calls/run")
        metrics[f"transport.prompt_chars.{role}"] = (prompts.prompt_chars[role] / runs, "chars/run")
    print(f"samples: {runs} traced runs in {len(traced)} pass(es) of {len(ops)} runs")
    attempted = 1 + sum(len(p.reports) for p in untraced + traced)
    failed = sum(p.failed for p in untraced + traced)
    return metrics, attempted, failed, untraced[0].digest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny passes, for the smoke test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_ranweave()
    if args.setup_probe:
        setup(args.workload, args.seed, args.smoke)
        print("ready", flush=True)
        return 0

    measure = per_layer if args.trace else end_to_end
    metrics, attempted, failed, digest = measure(args.workload, args.seed, args.seconds, args.smoke)
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:16.6f} {unit}")
    print(f"report digest: {digest}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
