"""CLI: segment-tree introspection on a demo write history.

Builds a small in-process deployment, applies a scripted write history and
shows the machinery from the inside: per-version ASCII trees (with the
weaving links), structural-sharing statistics, the version manager's patch
catalog, and a structural diff between two snapshots.

Example::

    python -m repro.tools.inspect --pages 8 --writes 0:2 4:2 0:1 --diff 1 3
"""

from __future__ import annotations

import argparse
import sys

from repro.core.config import DeploymentSpec
from repro.deploy.inproc import build_inproc
from repro.metadata.inspect import TreeInspector
from repro.util.sizes import KB
from repro.version.diff import changed_ranges


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser of ``python -m repro.tools.inspect``."""
    parser = argparse.ArgumentParser(
        prog="repro.tools.inspect",
        description="Dump segment trees and sharing stats for a scripted "
        "write history.",
    )
    parser.add_argument("--pages", type=int, default=8,
                        help="blob size in 4 KB pages (power of two)")
    parser.add_argument(
        "--writes",
        nargs="+",
        default=["0:2", "4:2", "0:1"],
        metavar="PAGE:COUNT",
        help="write script: each entry patches COUNT pages at PAGE; "
        "a '!' suffix (e.g. 2:1!) simulates a writer that crashes after "
        "its version was assigned but before completing — the stuck "
        "assignment that blocks later versions from publishing",
    )
    parser.add_argument("--diff", type=int, nargs=2, metavar=("V1", "V2"),
                        default=None, help="show changed ranges between versions")
    parser.add_argument(
        "--stuck-writes",
        action="store_true",
        help="show the version manager's in-flight assignments with their "
        "age (completions elsewhere since assignment) — the operator view "
        "for diagnosing a wedged publish chain (see docs/OPERATIONS.md)",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the telemetry quantile table (per-actor/per-method "
        "service-time p50/p95/p99) recorded while the write history ran "
        "— the same repro.metrics/1 view repro.tools.metrics scrapes "
        "from a live cluster (see 'Observability' in docs/OPERATIONS.md)",
    )
    parser.add_argument(
        "--rebalance",
        action="store_true",
        help="elastic-membership view: run the write history on the "
        "hash_ring strategy, join a new provider mid-run, print the pm's "
        "migration plan (per-move table and per-provider load before/"
        "after), execute it and drain the newcomer back out "
        "(see 'Scale out / drain' in docs/OPERATIONS.md)",
    )
    return parser


def _print_loads(dep, label: str) -> None:
    print(f"  load {label}:")
    for pid in sorted(dep.data):
        prov = dep.data[pid]
        print(f"    data/{pid}: {prov.page_count} page(s)")


def show_rebalance(dep) -> None:
    """Join a provider, show and execute the pm's migration plan, drain."""
    from repro.providers.rebalance import (
        collect_manifests, drain_provider, execute_rebalance,
    )

    print("\nelastic rebalance (hash_ring placement):")
    _print_loads(dep, "before join")
    new_id = dep.add_data_provider()
    print(f"  -> provider data/{new_id} joined the running cluster")

    manifests = collect_manifests(dep.driver, sorted(dep.data))
    plan = dep.pm.plan_rebalance(manifests)
    if plan is None:
        print("  migration plan: empty (every page already at its home)")
        return
    print(f"  migration plan #{plan['plan']}: {plan['total']} move(s)")
    for index, kind, key, src, dst, nbytes in plan["moves"]:
        arrow = f"data/{src} -> data/{dst}" if kind == "copy" else f"data/{src}"
        print(f"    [{index:3d}] {kind:4s} page {tuple(key)[2]:3d} "
              f"{arrow} ({nbytes} B)")
    summary = execute_rebalance(dep.driver, sorted(dep.data))
    print(f"  executed {summary['executed']} move(s), "
          f"committed={summary['committed']}")
    _print_loads(dep, "after rebalance")

    summary = drain_provider(dep.driver, sorted(dep.data), new_id)
    del dep.data[new_id]
    print(f"  -> drained data/{new_id} back out "
          f"({summary['executed']} move(s)); membership restored")
    _print_loads(dep, "after drain")


def main(argv: list[str] | None = None) -> int:
    """Command-line entry (dump a scripted blob's trees); returns the exit code."""
    args = build_parser().parse_args(argv)
    pagesize = 4 * KB
    total = args.pages * pagesize
    if total & (total - 1):
        print("error: --pages must be a power of two", file=sys.stderr)
        return 2

    strategy = "hash_ring" if args.rebalance else "round_robin"
    dep = build_inproc(DeploymentSpec(n_data=4, n_meta=4, strategy=strategy))
    client = dep.client("inspector")
    blob = client.alloc(total, pagesize)
    inspector = TreeInspector(client)

    for step, entry in enumerate(args.writes, start=1):
        crashed = entry.endswith("!")
        page_str, count_str = entry.rstrip("!").split(":")
        page, count = int(page_str), int(count_str)
        if crashed:
            # a writer that dies between assign and complete: its version
            # stays in flight and every later version waits on it
            ticket = dep.vm.assign(blob, page * pagesize, count * pagesize)
            print(f"write #{step}: pages [{page}, {page + count}) -> "
                  f"version {ticket.version} assigned, writer crashed "
                  f"(never completes)")
            continue
        data = bytes([step % 251 + 1]) * (count * pagesize)
        res = client.write(blob, data, page * pagesize)
        published = "" if res.published else " [unpublished: blocked]"
        print(f"write #{step}: pages [{page}, {page + count}) -> "
              f"version {res.version} ({res.nodes_written} new nodes)"
              f"{published}")

    latest = client.latest(blob)
    print()
    for version in range(1, latest + 1):
        print(inspector.dump(blob, version))
        stats = inspector.sharing_stats(blob, version)
        print(f"  sharing: {stats.own_nodes} own + {stats.shared_nodes} "
              f"inherited nodes ({stats.sharing_ratio:.0%} reused)\n")

    print("version manager patch catalog:")
    for version, offset, size in dep.vm.patches(blob):
        print(f"  v{version}: [{offset}, +{size})")

    if args.stuck_writes:
        print("\nstuck writes (assigned, never completed):")
        rows = dep.vm.stuck_writes(blob)
        for version, offset, size, age in rows:
            print(f"  v{version}: patch [{offset}, +{size}), "
                  f"age {age} completion(s)")
        if not rows:
            print("  (none)")
        else:
            print("  -> later versions cannot publish past the gap; see "
                  "'Stuck writes' in docs/OPERATIONS.md")

    if args.rebalance:
        show_rebalance(dep)

    if args.metrics:
        from repro.obs.metrics import render_metrics, scrape_driver

        print()
        print(render_metrics(scrape_driver(dep.driver, source="inproc")))

    if args.diff:
        v1, v2 = args.diff
        ranges = changed_ranges(client, blob, v1, v2)
        print(f"\nchanged ranges v{v1} -> v{v2}:")
        for iv in ranges:
            print(f"  [{iv.offset}, +{iv.size})")
        if not ranges:
            print("  (none)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
