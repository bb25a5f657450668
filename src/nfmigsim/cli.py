"""Command-line entry point: simulate, sweep, policy-table.

A command runs with the cyclic garbage collector paused: a run builds only acyclic records.
"""

from __future__ import annotations

import argparse
import copy
import gc
import itertools
import json
import sys
from pathlib import Path

from .errors import ScenarioParseError, SimulatorError, os_error_text, shown
from .policy import policy_table_text
from .runner import export_metrics, run_scenario
from .scenario import Objective, build_scenario, load_scenario, read_document


def _one_line(text: str) -> str:
    """``text`` with each non-printable character escaped as ``repr`` writes it.

    So a name or a label prints on one line; printable text is returned as it is.
    """
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in text)


def _set_dotted(data: dict, dotted_key: str, value) -> None:
    parts = dotted_key.split(".")
    node = data
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ScenarioParseError(f"cannot override through non-object key '{part}'")
    node[parts[-1]] = value


def _parse_param(spec: str) -> tuple[str, list]:
    if "=" not in spec:
        raise ScenarioParseError(f"--param expects KEY=V1,V2,... (got {shown(spec)})")
    key, _, raw_values = spec.partition("=")
    values = []
    for chunk in raw_values.split(","):
        try:
            values.append(json.loads(chunk))
        except (ValueError, RecursionError):  # ValueError covers JSONDecodeError
            values.append(chunk)
    return key, values


def _cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.objective is not None:
        scenario = scenario._replace(objective=Objective(args.objective))
    bundle = run_scenario(scenario, seed=args.seed)
    paths = export_metrics(bundle, args.out)
    print(f"scenario '{_one_line(bundle.scenario_name)}' seed={bundle.seed}")
    print(f"migrations: {len(bundle.reports)}, rtt samples: {len(bundle.rtt_series)}")
    for name in ("migrations", "rtt", "trace", "summary"):
        print(f"wrote {_one_line(str(paths[name]))}")
    return 0


def _cmd_sweep(args) -> int:
    base = read_document(args.scenario)
    build_scenario(base, source=str(args.scenario))  # a bad base fails before any variant
    axes = [_parse_param(spec) for spec in args.param]
    # Every variant is built before any runs, so a bad one fails before any output.
    variants = {}  # output directory name -> (label, scenario)
    for combo in itertools.product(*(values for _, values in axes)):
        data = copy.deepcopy(base)
        label_parts = []
        for (key, _), value in zip(axes, combo):
            _set_dotted(data, key, value)
            label_parts.append(f"{key.split('.')[-1]}={value}")
        label = ",".join(label_parts)
        directory = label.replace("/", "_")
        if directory in variants:
            first = variants[directory][0]
            raise ScenarioParseError(
                f"variants {shown(first)} and {shown(label)} would write the same directory"
            )
        scenario = build_scenario(data, source=str(args.scenario))
        if "\0" in directory or len(directory.encode()) > 255:  # NAME_MAX on Linux and macOS
            raise ScenarioParseError(f"variant {shown(label)} cannot name a directory")
        variants[directory] = (label, scenario)
    out_root = Path(args.out)
    print(f"{'variant':<56}{'migrations':>11}{'downtime_us':>13}{'bytes':>14}")
    for directory, (label, scenario) in variants.items():
        bundle = run_scenario(scenario, seed=args.seed)
        export_metrics(bundle, out_root / directory)
        totals = bundle.totals_by_kind().values()
        downtime = sum(kind["downtime_us"] for kind in totals)
        total_bytes = sum(kind["bytes"] + kind["sync_bytes"] for kind in totals)
        print(f"{_one_line(label):<56}{len(bundle.reports):>11}{downtime:>13}{total_bytes:>14}")
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nfmigsim",
        description="Simulate live migration of virtualized 5G core functions "
        "across edge hosts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim_parser = sub.add_parser("simulate", help="run one scenario and export metrics")
    sim_parser.add_argument("scenario", type=Path, help="scenario file (JSON)")
    sim_parser.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    sim_parser.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    sim_parser.add_argument(
        "--objective",
        choices=[o.value for o in Objective],
        default=None,
        help="override the scenario objective",
    )

    sweep_parser = sub.add_parser(
        "sweep", help="run a scenario across parameter variants"
    )
    sweep_parser.add_argument("scenario", type=Path)
    sweep_parser.add_argument(
        "--param",
        action="append",
        required=True,
        metavar="KEY=V1,V2,...",
        help="dotted scenario key and comma-separated values; repeatable "
        "(variants form the cross product)",
    )
    sweep_parser.add_argument("--seed", type=int, default=None)
    sweep_parser.add_argument("--out", type=Path, default=Path("out"))

    sub.add_parser("policy-table", help="print the strategy decision grid")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # tests/test_runner.py pins that a run leaves no cyclic garbage, so the pause defers nothing.
    collecting = gc.isenabled()
    gc.disable()
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        print(policy_table_text(), end="")
        return 0
    except SimulatorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {os_error_text(exc)}", file=sys.stderr)
        return 3
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
