"""Command-line entry points: run scenarios, inspect the oracle, validate fixtures."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .agents import DEFAULT_ANALOGUES, MAX_ITERATIONS, Mode
from .harness import (
    FixtureBundle,
    FixtureError,
    RunReport,
    emit_report,
    load_fixtures,
    run_scenario,
    validate_fixture_soundness,
)
from .planner import InfeasibleIntentError
from .transport import TransportError

ALL_MODES = [m.value for m in Mode]


def positive_int(value: str) -> int:
    if int(value) < 1:
        raise argparse.ArgumentTypeError(f"{value} is not a positive integer")
    return int(value)


def non_negative_int(value: str) -> int:
    if int(value) < 0:
        raise argparse.ArgumentTypeError(f"{value} is not a non-negative integer")
    return int(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ranweave", description=__doc__)
    parser.add_argument("--fixtures", default=None, help="fixture directory (default: bundled catalog)")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one or more orchestration scenarios")
    run.add_argument("--scenario", default="all", help="scenario id of the catalog or 'all'")
    run.add_argument("--mode", default="f5", choices=[*ALL_MODES, "all"])
    run.add_argument(
        "--transport",
        default="mock-oracle",
        choices=["http", "mock-oracle", "mock-noisy"],
    )
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--max-iters", type=positive_int, default=MAX_ITERATIONS)
    run.add_argument("--analogues", type=non_negative_int, default=DEFAULT_ANALOGUES)
    run.add_argument("--report", default=None, help="write reports to this path")
    run.add_argument("--format", default="json", choices=["json", "csv"])

    oracle = sub.add_parser("oracle", help="print reference pipelines and the max deployable subset")
    oracle.add_argument("--scenario", required=True, help="scenario id of the catalog")

    fixtures = sub.add_parser("fixtures", help="fixture tooling")
    fixtures.add_argument("action", choices=["validate"])

    return parser


def _scenario_ids(bundle: FixtureBundle, value: str, allow_all: bool = False) -> list[int]:
    known = sorted(bundle.scenarios)
    if allow_all and value == "all":
        return known
    if value not in {str(i) for i in known}:
        expected = f"one of {known}" + (" or 'all'" if allow_all else "")
        raise FixtureError("scenarios.json", f"unknown scenario {value!r}; expected {expected}")
    return [int(value)]


def cmd_run(args: argparse.Namespace) -> int:
    if args.report and not Path(args.report).parent.is_dir():
        raise FileNotFoundError(f"no directory to write the report {args.report} into")
    if args.report and Path(args.report).is_dir():
        raise IsADirectoryError(f"the report path {args.report} is a directory")
    bundle = load_fixtures(args.fixtures)
    modes = ALL_MODES if args.mode == "all" else [args.mode]
    reports: list[RunReport] = []
    for scenario_id in _scenario_ids(bundle, args.scenario, allow_all=True):
        for mode in modes:
            report = run_scenario(
                bundle,
                scenario_id,
                mode,
                args.transport,
                seed=args.seed,
                max_iterations=args.max_iters,
                analogue_count=args.analogues,
            )
            reports.append(report)
            print(
                f"scenario {report.scenario_id} mode {report.mode:<4} "
                f"gen_acc {report.generation_accuracy:.2f} "
                f"deploy {report.deployment_success:.2f} "
                f"iters {report.iterations_to_synthesis}/{report.iterations_to_deployment} "
                f"{'converged' if report.converged else 'NOT CONVERGED'}"
            )
    if args.report:
        if not reports:
            raise FixtureError("scenarios.json", "no scenarios, so no report to write")
        path = emit_report(reports, args.format, args.report)
        print(f"wrote {len(reports)} report(s) to {path}")
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    bundle = load_fixtures(args.fixtures)
    (scenario_id,) = _scenario_ids(bundle, args.scenario)
    result = bundle.setup(scenario_id).oracle
    print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    return 0


def cmd_fixtures(args: argparse.Namespace) -> int:
    bundle = load_fixtures(args.fixtures)
    problems = validate_fixture_soundness(bundle)
    if problems:
        for problem in problems:
            print(f"FAIL {problem}")
        return 1
    print(
        f"fixtures sound: {len(bundle.registry)} xApps, {len(bundle.intents)} intents, "
        f"{len(bundle.scenarios)} scenarios, all reference deployments conflict-free"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    commands = {"run": cmd_run, "oracle": cmd_oracle, "fixtures": cmd_fixtures}
    try:
        return commands[args.command](args)
    except (FixtureError, InfeasibleIntentError, TransportError, OSError) as exc:
        print(f"ranweave: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
