"""Command-line entry point.

    swirlfem mesh    --config run.yaml [--set key=value ...] [--out DIR]
    swirlfem run     --config run.yaml [--set ...] [--out DIR] [--max-steps N]
    swirlfem analyze --config run.yaml SNAPSHOT.vtk [...] [--out DIR]
    swirlfem verify  [--config run.yaml] [--out DIR]

Exit codes: 0 ok, 1 user error (config/files), 2 internal error.
"""

import argparse
import sys

from .config import ConfigError, RunConfig, load_config, parse_config
from . import pipeline


def _add_common(p):
    p.add_argument("--config", metavar="PATH",
                   help="YAML run config (defaults apply when omitted)")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE", help="override a config key (dotted path)")
    p.add_argument("--out", metavar="DIR",
                   help="output directory (default: config output.directory)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swirlfem",
        description="swirling-flow simulation and vortex diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mesh", help="generate the mesh and export VTK")
    _add_common(p)

    p = sub.add_parser("run", help="advance the simulation")
    _add_common(p)
    p.add_argument("--max-steps", type=int, default=None,
                   help="stop after N >= 0 new steps (interruption testing)")

    p = sub.add_parser("analyze", help="recompute diagnostics from snapshots")
    _add_common(p)
    p.add_argument("snapshots", nargs="+", metavar="SNAPSHOT.vtk")

    p = sub.add_parser("verify", help="manufactured-solution convergence study")
    _add_common(p)
    return parser


def _load(args) -> RunConfig:
    if args.config is not None:
        return load_config(args.config, overrides=args.overrides)
    return parse_config("", overrides=args.overrides)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.command == "mesh":
            path = pipeline.cmd_mesh(cfg, args.out)
            print(f"wrote {path}")
        elif args.command == "run":
            state = pipeline.cmd_run(cfg, args.out, max_steps=args.max_steps)
            print(f"finished at step {state.step_index} (t={state.time:g})")
        elif args.command == "analyze":
            path = pipeline.cmd_analyze(cfg, args.snapshots, args.out)
            print(f"wrote {path}")
        elif args.command == "verify":
            report = pipeline.cmd_verify(cfg, args.out)
            print(report.format(), end="")
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - map anything else to exit 2
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
