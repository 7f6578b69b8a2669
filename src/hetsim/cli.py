"""Command-line entry points: run a campaign, validate a config, or run
the small-instance oracle comparison suite."""

from __future__ import annotations

import argparse
import sys

from hetsim.harness import (
    CampaignError,
    Scenario,
    float_list,
    load_scenario,
    percentile_line,
    run_campaign,
    run_oracle_suite,
    scenario_to_ini,
    str_list,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hetsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a Monte Carlo campaign")
    run_p.add_argument("--config", help="scenario file (INI); defaults apply if omitted")
    run_p.add_argument("--drops", type=int, help="override drop count")
    run_p.add_argument("--seed", type=int, dest="master_seed", metavar="SEED", help="override master seed")
    run_p.add_argument("--out", dest="output_dir", metavar="OUT", help="output directory")
    run_p.add_argument("--strategies", type=str_list, help="comma list, e.g. rsrp,pl,cre:6,interference")
    run_p.add_argument("--alphas", type=float_list, help="comma list of compensation factors")
    run_p.add_argument("--picos-per-sector", type=int, dest="picos_per_sector")
    run_p.add_argument("--workers", type=int, help="parallel drop workers")

    val_p = sub.add_parser("validate", help="resolve and print a scenario without simulating")
    val_p.add_argument("--config", required=True)

    orc_p = sub.add_parser("oracle", help="brute-force comparison suite on small instances")
    orc_p.add_argument("--instances", type=int, default=200)
    orc_p.add_argument("--seed", type=int, default=0)

    return parser


def _scenario_from_args(args) -> Scenario:
    # every run option but --config overrides the Scenario field named by its dest
    overrides = {k: v for k, v in vars(args).items() if k not in ("command", "config") and v is not None}
    if args.config:
        return load_scenario(args.config, overrides)
    return Scenario(**overrides).validate()


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            scenario = _scenario_from_args(args)
            report, _ = run_campaign(scenario)
            for row in report.percentile_table():
                print(percentile_line(row))
            if scenario.output_dir:
                print(f"outputs written to {scenario.output_dir}")
            return 0
        if args.command == "validate":
            scenario = load_scenario(args.config)
            print(scenario_to_ini(scenario), end="")
            return 0
        if args.command == "oracle":
            if args.instances < 1:
                raise ValueError(f"--instances must be >= 1, got {args.instances}")
            if args.seed < 0:
                raise ValueError(f"--seed must be >= 0, got {args.seed}")
            result = run_oracle_suite(instances=args.instances, seed=args.seed)
            rate = result.converged / result.instances
            print(
                f"instances={result.instances} converged={result.converged} "
                f"({rate:.1%}) containment_failures={result.containment_failures}"
            )
            if result.non_converged_instances:
                print(f"non-converged instance ids: {result.non_converged_instances}")
            return 1 if result.containment_failures else 0
    except CampaignError as exc:
        print(f"error: campaign aborted: {'; '.join(exc.failures)}", file=sys.stderr)
        return 2
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
