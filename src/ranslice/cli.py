"""Command-line interface.

Exit codes: 0 on success, 1 on descriptor problems (syntax, duplicate
ids, validation findings), 2 on configuration, orchestration or I/O
errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import yaml

from .config import load_anchors, load_sim_config, resource_params_to_dict
from .descriptors import (
    DescriptorSet,
    DescriptorSyntaxError,
    DuplicateIdError,
    parse_descriptor_set,
    validate,
)
from .orchestrator import DescriptorInvalidError, OrchestrationError
from .resources import (
    CalibrationError,
    ResourceModelParams,
    UnderdeterminedError,
    calibrate_params,
)
from .sim import ConfigError, compare_scenarios, export, run
from .topology import Scenario

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_CONFIG = 2

DESCRIPTOR_SUFFIXES = (".yaml", ".yml", ".json")


def _load_descriptors(directory: str) -> DescriptorSet:
    root = Path(directory)
    if not root.is_dir():
        raise OSError(f"{directory}: not a directory")
    files = sorted(p for p in root.iterdir()
                   if p.is_file() and p.suffix in DESCRIPTOR_SUFFIXES)
    texts = []
    for p in files:
        try:
            texts.append(p.read_text(encoding="utf-8"))
        except UnicodeDecodeError as exc:
            raise DescriptorSyntaxError(str(p), f"not UTF-8 text: {exc}") from exc
    return parse_descriptor_set(texts, names=[str(p) for p in files])


def _validated_descriptors(directory: str) -> DescriptorSet:
    ds = _load_descriptors(directory)
    report = validate(ds)
    if not report.ok:
        raise DescriptorInvalidError(report)
    return ds


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--descriptors", required=True, metavar="DIR",
                        help="directory with descriptor documents")
    parser.add_argument("--config", required=True, metavar="FILE",
                        help="simulation config file (YAML)")
    parser.add_argument("--ticks", type=int, metavar="N", help="override config ticks")
    parser.add_argument("--seed", type=int, metavar="N", help="override config seed")
    parser.add_argument("--out", required=True, metavar="PATH", help="output file")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ranslice",
        description="Orchestrate and simulate RAN slice subnets sharing gNB components.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one scenario and export the trace")
    _add_common(p_sim)
    p_sim.add_argument("--scenario", choices=("s1", "s2", "s3", "s4"),
                       help="sharing scenario (overrides config)")

    p_cmp = sub.add_parser("compare", help="run several scenarios on one demand seed")
    _add_common(p_cmp)
    p_cmp.add_argument("--scenarios", default="s1,s2,s3,s4", metavar="LIST",
                       help="comma-separated scenarios (default: all four)")

    p_val = sub.add_parser("validate", help="validate a descriptor directory")
    p_val.add_argument("--descriptors", required=True, metavar="DIR")

    p_cal = sub.add_parser("calibrate", help="fit c0/k to observed vCPU anchors")
    p_cal.add_argument("--anchors", required=True, metavar="FILE",
                       help="YAML list of {snssai, prbs, modulation_order, "
                            "code_rate, observed}")
    p_cal.add_argument("--beta", type=float, help="fix the modulation exponent")
    p_cal.add_argument("--out", metavar="FILE",
                       help="write the fitted resource section as YAML")
    return parser


def _cmd_simulate(args: argparse.Namespace) -> int:
    ds = _validated_descriptors(args.descriptors)
    config = load_sim_config(args.config)
    if args.scenario:
        config = dataclasses.replace(config, scenario=Scenario.from_str(args.scenario))
    if args.ticks is not None:
        config = dataclasses.replace(config, ticks=args.ticks)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    trace = run(config, ds)
    export(trace, args.format, args.out)
    print(f"wrote {args.format} trace ({len(trace.rows)} ticks) to {args.out}")
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    ds = _validated_descriptors(args.descriptors)
    config = load_sim_config(args.config)
    if args.ticks is not None:
        config = dataclasses.replace(config, ticks=args.ticks)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    try:
        scenarios = [Scenario.from_str(s.strip()) for s in args.scenarios.split(",") if s.strip()]
    except ValueError as exc:
        raise ConfigError("scenarios", str(exc)) from exc
    table = compare_scenarios(config, ds, scenarios)
    export(table, args.format, args.out)
    print(f"wrote {args.format} summary ({len(table.summaries)} scenarios) to {args.out}")
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    ds = _load_descriptors(args.descriptors)
    report = validate(ds)
    if report.ok:
        print(f"OK: {len(ds)} descriptors, no findings")
        return EXIT_OK
    print(report)
    return EXIT_FINDINGS


def _cmd_calibrate(args: argparse.Namespace) -> int:
    anchors = load_anchors(args.anchors)
    result = calibrate_params(anchors, base=ResourceModelParams(), beta=args.beta)
    p = result.params
    print(f"fitted c0={p.c0:.9g} k={p.k:.9g} (beta={p.beta:.9g})")
    for i, r in enumerate(result.residuals):
        print(f"anchor[{i}] residual {r:+.3e}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            yaml.safe_dump({"resource": resource_params_to_dict(p)}, fh, sort_keys=True)
        print(f"wrote resource section to {args.out}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "compare": _cmd_compare,
        "validate": _cmd_validate,
        "calibrate": _cmd_calibrate,
    }
    try:
        return handlers[args.command](args)
    except (DescriptorSyntaxError, DuplicateIdError, DescriptorInvalidError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FINDINGS
    except (ConfigError, OrchestrationError, UnderdeterminedError, CalibrationError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
