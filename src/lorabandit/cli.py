"""Command-line entry point.

Verbs:
  run <config.json> [--out DIR] [--seed INT] [--parallel K]
  tables <manifest.json>
  validate <config.json>

--seed replaces the config's base_seed: any integer, used mod 2**64.

Exit codes: 0 success, 2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import sys

from .config import load_config
from .params import ConfigError
from .sweep import RunManifest, emit_tables, run_sweep

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lorabandit",
        description="Bandit-driven LoRa transmission parameter selection experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a full experiment sweep")
    run_p.add_argument("config", help="JSON config file ({} uses all defaults)")
    run_p.add_argument("--out", default="results", help="output directory (default: ./results)")
    run_p.add_argument("--seed", type=int, default=None, help="override base seed")
    run_p.add_argument("--parallel", type=int, default=1, help="worker processes (default: 1)")

    tab_p = sub.add_parser("tables", help="re-emit CSV tables from a manifest")
    tab_p.add_argument("manifest", help="manifest.json written by `run`")

    val_p = sub.add_parser("validate", help="parse and validate a config file")
    val_p.add_argument("config", help="JSON config file")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            cfg = load_config(args.config)
            print(f"ok: {len(cfg.policies)} policies, "
                  f"device counts {cfg.device_counts}, "
                  f"{cfg.runs_per_point} runs per point, hash {cfg.config_hash()[:12]}")
            return EXIT_OK

        if args.command == "run":
            cfg = load_config(args.config)
            if args.seed is not None:
                cfg.base_seed = args.seed
            manifest = run_sweep(cfg, args.out, parallel=args.parallel)
            print(f"wrote {len(manifest.runs)} runs under {manifest.out_dir} "
                  f"(config hash {manifest.config_hash[:12]})")
            return EXIT_OK

        if args.command == "tables":
            manifest = RunManifest.load(args.manifest)
            for path in emit_tables(manifest):
                print(path)
            return EXIT_OK

        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # runtime failures, I/O, missing artifacts
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
