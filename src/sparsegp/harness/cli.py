"""Command-line entry point.

Subcommands: fixed-m, m-sweep, log-schedule, dispersion, oracle-suite.
Exit codes: 0 all invariants hold, 1 a flagged violation or failed oracle
check, 2 usage/configuration error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import replace

from ..errors import ConfigError, SparseGPError
from . import runners
from .config import KINDS, parse_config
from .emit import PlotSpec, emit_csv, emit_selection_csv, emit_svg

_PLOTS = {
    "fixed-m": PlotSpec(
        x="n", ys=("kl_exact", "lemma2_lo", "lemma2_hi"), log_x=True, log_y=True,
        title="Expected KL growth at fixed M",
    ),
    "m-sweep": PlotSpec(
        x="m", ys=("kl_exact", "upper", "thm3", "thm4"), log_x=False, log_y=True,
        title="Convergence as M grows",
    ),
    "log-schedule": PlotSpec(
        x="n", ys=("kl_exact", "thm4"), log_x=True, log_y=True,
        title="KL decay with M = C log N",
    ),
}


@functools.cache  # main() may run many times in one process; build the parser once
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsegp",
        description="Sparse variational GP regression with certified bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in KINDS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument(
            "--config", required=True, help="experiment config file (INI; see CONFIG.md)"
        )
        p.add_argument("--seed-offset", type=int, default=0)
        p.add_argument("--out-dir", default=".")
    p = sub.add_parser("oracle-suite", help="run the independent oracle checks")
    p.add_argument("--fast", action="store_true", help="reduced budgets")
    return parser


def _load_experiments(args) -> list:
    cfgs = [c for c in parse_config(args.config) if c.kind == args.command]
    if not cfgs:
        raise SparseGPError(
            f"config {args.config!r} defines no experiment of kind {args.command!r}"
        )
    if args.seed_offset:
        cfgs = [replace(c, seeds=[s + args.seed_offset for s in c.seeds]) for c in cfgs]
        if min(s for c in cfgs for s in c.seeds) < 0:
            raise ConfigError(f"--seed-offset {args.seed_offset} makes a seed negative")
    seen = {}  # output file -> the experiment that writes it
    for cfg in cfgs:
        for path in filter(None, (cfg.out_csv, cfg.out_svg)):
            key = os.path.normpath(path)
            if key in seen:
                raise ConfigError(f"experiments {seen[key]!r} and {cfg.name!r} both write {path!r}")
            seen[key] = cfg.name
    return cfgs


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "oracle-suite":
        from .oracle_suite import run_oracle_suite

        checks = run_oracle_suite(fast=args.fast)
        for check in checks:
            print(f"{'PASS' if check.passed else 'FAIL'} {check.name}: {check.detail}")
        return 0 if all(c.passed for c in checks) else 1

    any_violation = False
    try:
        cfgs = _load_experiments(args)
        os.makedirs(args.out_dir, exist_ok=True)
        for cfg in cfgs:
            csv_path = os.path.join(args.out_dir, cfg.out_csv)
            if args.command == "dispersion":
                selections, nn = runners.run_dispersion_demo(cfg)
                emit_selection_csv(selections, csv_path)
                for label, dist in sorted(nn.items()):
                    print(f"{cfg.name}: mean nearest-neighbour distance {label}: {dist:.4f}")
                print(f"{cfg.name}: wrote {csv_path}")
                continue
            rows = runners.run_grid(cfg)
            emit_csv(rows, csv_path)
            if cfg.out_svg:
                emit_svg(rows, _PLOTS[args.command], os.path.join(args.out_dir, cfg.out_svg))
            flagged = [r for r in rows if r.violation]
            any_violation = any_violation or bool(flagged)
            print(
                f"{cfg.name}: {len(rows)} rows -> {csv_path}"
                + (f" ({len(flagged)} flagged rows)" if flagged else "")
            )
    except (SparseGPError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if any_violation else 0


if __name__ == "__main__":
    sys.exit(main())
