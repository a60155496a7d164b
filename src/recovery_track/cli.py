"""Batch command-line entry points: run, validate, synth.

A command imports the modules it runs at its start, before any fork
(processes.beside), and no others: `generate` imports `synth`, so `run` and
`validate` never load it, and `pipeline` imports the parsers and the
statistics in the stages that call them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .config import load_config
from .errors import ConfigError, RecoveryTrackError
from .pipeline import STAGES, run, validate


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

    validate_parser = sub.add_parser("validate", help="list every refusal and finding of a run, writing nothing")
    validate_parser.add_argument("--config", required=True, help="pipeline config JSON")

    synth_parser = sub.add_parser("synth", help="generate a synthetic scenario with ground truth")
    synth_parser.add_argument("--spec", required=True, help="scenario spec JSON")
    synth_parser.add_argument("--out", required=True, help="output directory")
    return parser


def _cmd_run(args) -> str:
    config = load_config(args.config).with_overrides(
        permutations=args.permutations,
        yates=args.yates,
        seed=args.seed,
        output_dir=args.out,
    )
    written = run(config, only=args.only)
    return "".join(f"wrote {config.output_dir / name}\n" for name in written)


def _cmd_validate(args) -> str:
    config = load_config(args.config)
    return json.dumps(validate(config), indent=2) + "\n"


def generate(spec_path, out_dir) -> dict:
    """synth.generate of the scenario spec file at `spec_path`, importing synth, which no other
    command loads. perfbench/tracer.py times the synth command by this name."""
    from . import synth

    return synth.generate(synth.ScenarioSpec.from_json(spec_path), out_dir)


def _cmd_synth(args) -> str:
    paths = generate(args.spec, args.out)
    return "".join(f"wrote {paths[name]}\n" for name in sorted(paths))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "validate": _cmd_validate, "synth": _cmd_synth}
    try:
        report = handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RecoveryTrackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:  # processes.staged has left the output directory as it was
        print(f"error: out of memory in {args.command}", file=sys.stderr)
        return 1
    try:
        sys.stdout.write(report)
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout's reader has gone; what the command wrote stays written. Python's
        # note on SIGPIPE: point stdout at devnull, so the flush at exit is quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
