"""``python -m repro.tools.metrics`` — scrape a live cluster's telemetry.

Dials every actor of a running TCP cluster (the same ``ClusterMap``
endpoint grammar the other tools use), round-trips the ``telemetry``
control on each, and prints the unified per-actor/per-method quantile
table (or the raw ``repro.metrics/1`` document with ``--json``). The
scrape is **read-only and invisible**: telemetry travels as a control
message, which neither side counts as a wire RPC, and the driver hangs
up with ``abort()`` — the operator's agents keep serving::

    # table against a 2-node loopback cluster
    python -m repro.tools.metrics \\
        --endpoints '{"data/0": "127.0.0.1:7000", "meta/0": "127.0.0.1:7000",
                      "data/1": "127.0.0.1:7001", "meta/1": "127.0.0.1:7001"}'

    # machine-readable, endpoints from a file, with the reconciliation
    # check (per-method histogram counts must equal served sub-calls)
    python -m repro.tools.metrics --endpoints @cluster.json --json --check

    # live operation: re-scrape every 2 s, reprinting the table with a
    # Δcount column against the previous scrape (Ctrl-C to stop)
    python -m repro.tools.metrics --endpoints @cluster.json --watch 2

``main(argv)`` is a plain function, unit-testable without a subprocess.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.errors import RemoteError, ReproError
from repro.net.address import ClusterMap
from repro.net.threaded import ThreadedDriver
from repro.obs.metrics import reconcile, render_metrics, scrape_driver


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser of ``python -m repro.tools.metrics``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.metrics",
        description="Scrape per-RPC latency telemetry from a live cluster.",
    )
    parser.add_argument(
        "--endpoints",
        required=True,
        metavar="JSON",
        help="actor-to-endpoint map, e.g. '{\"data/0\": \"host:7000\"}'; "
        "@FILE (or a bare path to a .json file) reads the map from disk",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit the raw repro.metrics/1 document instead of the table",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify the reconciliation invariant (histogram sample totals "
        "== served sub-calls per actor); exit 1 if any actor disagrees",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=5.0,
        help="connect/scrape timeout per peer, seconds (default: 5)",
    )
    parser.add_argument(
        "--slow",
        type=int,
        default=8,
        metavar="N",
        help="slow spans shown in the table (default: 8)",
    )
    parser.add_argument(
        "--watch",
        type=float,
        default=None,
        metavar="SECONDS",
        help="keep the connections open and re-scrape every SECONDS, "
        "reprinting the table with a Δcount column of calls recorded "
        "since the previous scrape (Ctrl-C to stop)",
    )
    parser.add_argument(
        "--iterations",
        type=int,
        default=None,
        help=argparse.SUPPRESS,  # test hook: stop --watch after N rescrapes
    )
    return parser


def load_endpoints(spec: str) -> dict[str, str]:
    """Parse the ``--endpoints`` argument: inline JSON, ``@FILE``, or a
    bare path ending in ``.json``."""
    if spec.startswith("@"):
        spec = open(spec[1:]).read()
    elif spec.endswith(".json"):
        spec = open(spec).read()
    endpoints = json.loads(spec)
    if not isinstance(endpoints, dict) or not endpoints:
        raise ValueError(f"--endpoints must be a non-empty JSON object")
    return endpoints


def main(argv: list[str] | None = None) -> int:
    """Command-line entry (scrape a live cluster's telemetry); returns the exit code."""
    args = build_parser().parse_args(argv)
    try:
        cluster_map = ClusterMap.from_spec(load_endpoints(args.endpoints))
    except (OSError, ValueError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    driver = ThreadedDriver(connect_timeout=args.timeout)
    try:
        driver.register_map(cluster_map)
        try:
            driver.wait_connected(timeout=args.timeout)
            metrics = scrape_driver(driver, source="tcp")
            if args.as_json:
                json.dump(metrics, sys.stdout, indent=2)
                print()
            else:
                print(render_metrics(metrics, slow_limit=args.slow))
            # --watch: live operation — re-scrape on a cadence and reprint
            # with deltas against the previous scrape. Still control-only
            # traffic: watching never perturbs the workload counters.
            iterations = args.iterations
            while args.watch is not None and (
                iterations is None or iterations > 0
            ):
                time.sleep(args.watch)
                previous, metrics = metrics, scrape_driver(
                    driver, source="tcp"
                )
                if args.as_json:
                    json.dump(metrics, sys.stdout, indent=2)
                    print()
                else:
                    print(
                        render_metrics(
                            metrics, slow_limit=args.slow, prev=previous
                        )
                    )
                if iterations is not None:
                    iterations -= 1
        except (TimeoutError, RemoteError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except KeyboardInterrupt:
            pass  # Ctrl-C ends a --watch session cleanly
    finally:
        # hang up without shutdown controls: scraping an operator's
        # cluster must never stop it
        driver.abort()
    if args.check:
        problems = reconcile(metrics)
        for problem in problems:
            print(f"reconcile: {problem}", file=sys.stderr)
        if problems:
            return 1
        print(
            f"reconcile: OK ({len(metrics['actors'])} actor(s))",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
