"""``python -m repro.tools.trace`` — trace an operation, export timelines.

Two subcommands:

``run`` launches a loopback TCP cluster (real node-agent OS processes —
every span crosses a process boundary, so the export's clock alignment
is exercised for real), executes a traced §VI-style write (and optional
reads), collects the spans from every actor through the ``telemetry``
control, aligns the per-process clocks, and exports::

    # Chrome trace-event JSON (open in chrome://tracing or Perfetto)
    python -m repro.tools.trace run --chrome out.json

    # the per-operation critical-path breakdown, plus self-validation
    python -m repro.tools.trace run --critical-path --check

``attach`` scrapes whatever spans a *live* cluster's actors currently
hold (uncounted control messages — attaching never perturbs the
workload) and exports them without alignment; serving-side spans from
one process share a clock domain, so per-actor timelines are exact and
cross-actor offsets are whatever the domains imply::

    python -m repro.tools.trace attach --endpoints @cluster.json \\
        --chrome attached.json

``--check`` (run mode) validates the whole chain — span schema, Chrome
document, ≥ 95 % op-window coverage after alignment, and the
histogram-vs-span reconciliation — and exits nonzero on any failure;
CI runs exactly this. ``main(argv)`` is a plain function, unit-testable
without a subprocess.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.core.config import DeploymentSpec
from repro.errors import ConfigError, RemoteError
from repro.obs.export import (
    align_spans,
    chrome_trace,
    coverage,
    render_critical_path,
    service_totals,
    validate_chrome,
    validate_spans,
)
from repro.obs.metrics import collect_spans, reconcile, scrape_driver
from repro.obs.spans import CALLER, trace_operation
from repro.tools.metrics import attach

#: the acceptance bar --check enforces on the traced op's coverage
COVERAGE_FLOOR = 0.95


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser of ``python -m repro.tools.trace``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.trace",
        description="Span-trace operations and export cross-process "
        "timelines (Chrome trace JSON, critical-path summaries).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run",
        help="launch a loopback TCP cluster, run a traced write workload, "
        "export its timeline",
    )
    run.add_argument(
        "--data", type=int, default=4, help="data providers (default: 4)"
    )
    run.add_argument(
        "--meta", type=int, default=4, help="metadata providers (default: 4)"
    )
    run.add_argument(
        "--size",
        type=int,
        default=256 * 1024,
        help="bytes per traced write (default: 256 KiB)",
    )
    run.add_argument(
        "--pagesize", type=int, default=16384, help="page size (default: 16384)"
    )
    run.add_argument(
        "--reads",
        type=int,
        default=1,
        metavar="N",
        help="traced reads after the write (default: 1)",
    )
    _export_args(run)
    run.add_argument(
        "--check",
        action="store_true",
        help="validate span schema, Chrome document, >=95%% op coverage "
        "after alignment, and histogram reconciliation; exit 1 on failure",
    )

    attach = sub.add_parser(
        "attach",
        help="scrape the spans a live cluster currently holds and export "
        "them (read-only; control messages only)",
    )
    attach.add_argument(
        "--endpoints",
        required=True,
        metavar="JSON",
        help="actor-to-endpoint map, e.g. '{\"data/0\": \"host:7000\"}'; "
        "@FILE reads the map from disk",
    )
    attach.add_argument(
        "--timeout",
        type=float,
        default=5.0,
        help="connect/scrape timeout per peer, seconds (default: 5)",
    )
    _export_args(attach)
    return parser


def _export_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--chrome",
        metavar="OUT.json",
        default=None,
        help="write the timeline as Chrome trace-event JSON (loadable in "
        "chrome://tracing and Perfetto)",
    )
    sub.add_argument(
        "--spans",
        metavar="OUT.json",
        default=None,
        help="write the raw aligned repro.spans/1 list as JSON",
    )
    sub.add_argument(
        "--critical-path",
        action="store_true",
        help="print the per-operation critical-path breakdown",
    )


def _export(args: argparse.Namespace, spans: list[dict]) -> None:
    if args.chrome:
        with open(args.chrome, "w") as fh:
            json.dump(chrome_trace(spans), fh)
        print(f"chrome trace: {args.chrome} ({len(spans)} spans)")
    if args.spans:
        with open(args.spans, "w") as fh:
            json.dump(spans, fh)
        print(f"spans: {args.spans}")
    if args.critical_path:
        print(render_critical_path(spans))


def _run(args: argparse.Namespace) -> int:
    from repro.deploy.tcp import build_tcp

    spec = DeploymentSpec(n_data=args.data, n_meta=args.meta)
    ops: list[tuple[str, int]] = []
    with build_tcp(spec) as dep:
        client = dep.client("trace-client")
        blob = client.alloc(
            max(args.size * 4, args.pagesize * 4), args.pagesize
        )
        # one untraced warm-up write: connection setup and allocator
        # first-touch happen here, so the traced op is steady-state
        client.write_virtual(blob, 0, args.size)
        CALLER.clear()
        with trace_operation(f"write-{args.size}B") as tid:
            client.write_virtual(blob, 0, args.size)
        ops.append((f"write-{args.size}B", tid))
        for i in range(args.reads):
            with trace_operation(f"read-{args.size}B") as tid:
                client.read(blob, 0, args.size, with_data=False)
            ops.append((f"read-{args.size}B", tid))
        doc = dep.metrics()
    spans = collect_spans(doc) + CALLER.snapshot()
    aligned, offsets = align_spans(spans)
    cov = coverage(aligned)
    domains = len(offsets)
    print(
        f"traced {len(ops)} op(s): {len(spans)} spans across "
        f"{domains} clock domain(s)"
    )
    for name, tid in ops:
        print(f"  {name}: trace {tid}, coverage {cov.get(tid, 0.0):.1%}")
    _export(args, aligned)
    if args.check:
        return _check(doc, aligned, cov, ops)
    return 0


def _check(
    doc: dict, aligned: list[dict], cov: dict[int, float], ops: list
) -> int:
    problems = [f"schema: {p}" for p in validate_spans(aligned)]
    problems += [
        f"chrome: {p}" for p in validate_chrome(chrome_trace(aligned))
    ]
    problems += [f"reconcile: {p}" for p in reconcile(doc)]
    for name, tid in ops:
        c = cov.get(tid, 0.0)
        if c < COVERAGE_FLOOR:
            problems.append(
                f"coverage: {name} (trace {tid}) covers {c:.1%} of the op "
                f"window, below the {COVERAGE_FLOOR:.0%} floor"
            )
    # every serving span must nest inside its parent rpc span's window
    by_id = {s["span"]: s for s in aligned}
    for s in aligned:
        if s["kind"] != "server":
            continue
        parent = by_id.get(s["parent"])
        if parent is None:
            continue
        if s["start_ns"] < parent["start_ns"] or \
                s["end_ns"] > parent["end_ns"]:
            problems.append(
                f"nesting: server span {s['name']}@{s['actor']} escapes its "
                f"rpc window after alignment"
            )
    for problem in problems:
        print(f"check: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(f"check: OK ({len(aligned)} spans)", file=sys.stderr)
    return 0


def _attach(args: argparse.Namespace) -> int:
    try:
        with attach(args.endpoints, args.timeout) as driver:
            doc = scrape_driver(driver, source="tcp")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TimeoutError, RemoteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    spans = collect_spans(doc)
    domains = {s["domain"] for s in spans}
    traces = {s["trace"] for s in spans}
    print(
        f"attached: {len(spans)} spans, {len(traces)} trace(s), "
        f"{len(domains)} clock domain(s) (exported unaligned)"
    )
    totals = service_totals(spans)
    for method in sorted(totals):
        row = totals[method]
        print(
            f"  {method:<26} {row['count']:>5}x  "
            f"service {row['service_ns'] / 1e6:>9.3f} ms"
        )
    _export(args, spans)
    return 0


def main(argv: list[str] | None = None) -> int:
    """Command-line entry (span-trace operations); returns the exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _run(args)
    return _attach(args)


if __name__ == "__main__":
    sys.exit(main())
