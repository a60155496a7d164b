"""Batch command-line entry points: run, validate, synth."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import load_config
from .errors import ConfigError, RecoveryTrackError
from .pipeline import STAGES, run, validate
from .synth import ScenarioSpec, generate


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recovery-track",
        description=(
            "Compute post-disaster activity recovery milestones, the integrated "
            "recovery metric, and spatial inequality statistics from trip and "
            "transaction CSVs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run the pipeline and write the report bundle")
    run_parser.add_argument("--config", required=True, help="pipeline config JSON")
    run_parser.add_argument("--only", choices=STAGES, help="run a single stage")
    run_parser.add_argument("--out", type=Path, help="override the config's output directory")
    run_parser.add_argument("--permutations", type=int, help="Moran's I permutation count")
    run_parser.add_argument("--yates", action="store_true", default=None,
                            help="apply the continuity correction to chi-square tests")
    run_parser.add_argument("--seed", type=int, help="seed for permutation inference")

    validate_parser = sub.add_parser("validate", help="report input diagnostics without running")
    validate_parser.add_argument("--config", required=True, help="pipeline config JSON")

    synth_parser = sub.add_parser("synth", help="generate a synthetic scenario with ground truth")
    synth_parser.add_argument("--spec", required=True, help="scenario spec JSON")
    synth_parser.add_argument("--out", required=True, help="output directory")
    return parser


def _cmd_run(args) -> int:
    config = load_config(args.config).with_overrides(
        permutations=args.permutations,
        yates=args.yates,
        seed=args.seed,
        output_dir=args.out,
    )
    result = run(config, only=args.only)
    for name in result.written:
        print(f"wrote {result.output_dir / name}")
    return 0


def _cmd_validate(args) -> int:
    config = load_config(args.config)
    diagnostics = validate(config)
    print(json.dumps(diagnostics, indent=2))
    return 0


def _cmd_synth(args) -> int:
    spec = ScenarioSpec.from_json(args.spec)
    paths = generate(spec, args.out)
    for name in sorted(paths):
        print(f"wrote {paths[name]}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "validate": _cmd_validate, "synth": _cmd_synth}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RecoveryTrackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
