"""CLI: regenerate paper figures and ablations.

Examples::

    python -m repro.tools.figures 3a
    python -m repro.tools.figures 3c --clients 1 8 20 --iterations 8
    python -m repro.tools.figures all
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from repro.bench import figures as F
from repro.util.sizes import human_size


def _run_3a(args: argparse.Namespace) -> str:
    fig = F.fig3a_metadata_read()
    return F.render_series_table(fig, x_format=human_size)


def _run_3b(args: argparse.Namespace) -> str:
    fig = F.fig3b_metadata_write()
    return F.render_series_table(fig, x_format=human_size)


def _run_3c(args: argparse.Namespace) -> str:
    fig = F.fig3c_throughput(
        client_counts=tuple(args.clients), iterations=args.iterations
    )
    return F.render_series_table(fig, y_format=lambda v: f"{v:.1f}")


def _run_abl_a(args: argparse.Namespace) -> str:
    fig = F.ablation_lockfree(
        client_counts=tuple(args.clients[:4]) or (1, 4, 8),
        iterations=args.iterations,
    )
    return F.render_series_table(fig, y_format=lambda v: f"{v:.1f}")


def _run_abl_b(args: argparse.Namespace) -> str:
    fig = F.ablation_metadata(
        client_counts=tuple(args.clients[:4]) or (1, 4, 8),
        iterations=args.iterations,
    )
    return F.render_series_table(fig, y_format=lambda v: f"{v:.1f}")


def _run_abl_c(args: argparse.Namespace) -> str:
    return F.render_series_table(F.ablation_rpc_aggregation(), x_format=human_size)


def _run_abl_d(args: argparse.Namespace) -> str:
    return F.render_series_table(F.ablation_pagesize(), x_format=human_size)


RUNNERS: dict[str, Callable[[argparse.Namespace], str]] = {
    "3a": _run_3a,
    "3b": _run_3b,
    "3c": _run_3c,
    "ablA": _run_abl_a,
    "ablB": _run_abl_b,
    "ablC": _run_abl_c,
    "ablD": _run_abl_d,
}


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser of ``python -m repro.tools.figures``."""
    parser = argparse.ArgumentParser(
        prog="repro.tools.figures",
        description="Regenerate the paper's evaluation figures on the "
        "simulated cluster.",
    )
    parser.add_argument(
        "figure",
        choices=[*RUNNERS, "all"],
        help="which figure/ablation to regenerate",
    )
    parser.add_argument(
        "--clients",
        type=int,
        nargs="+",
        default=[1, 8, 20],
        help="client counts for concurrency figures (default: 1 8 20)",
    )
    parser.add_argument(
        "--iterations",
        type=int,
        default=8,
        help="access-loop iterations per client (default: 8)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Command-line entry (regenerate paper figures); returns the exit code."""
    args = build_parser().parse_args(argv)
    targets = list(RUNNERS) if args.figure == "all" else [args.figure]
    for name in targets:
        print(RUNNERS[name](args))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
