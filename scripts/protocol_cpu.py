"""``python scripts/protocol_cpu.py [--ops N] [--repeat N]``: µs of pure client-protocol CPU
per READ and per WRITE for each perfbench workload: every op is recorded against in-process
actors, then replayed from its canned replies with no driver or transport (best of --repeat)."""

import argparse
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.workloads import WORKLOADS  # noqa: E402
from repro.core.protocol import read_protocol, write_protocol  # noqa: E402
from repro.metadata import MetadataCache, MetadataProvider, StaticRouter, TreeGeometry  # noqa: E402
from repro.net.sansio import step  # noqa: E402
from repro.providers.page import PagePayload  # noqa: E402
from repro.version.manager import VersionManager  # noqa: E402


def run(make, answer) -> list:  # each Batch answered by answer(calls); returns the replies
    proto, replies = make(), []
    try:
        batch = step(proto)
        while True:
            replies.append(value := answer(batch.calls))
            batch = step(proto, value)
    except StopIteration:
        return replies


def workload_us(w, n_ops: int, repeat: int, rng: random.Random) -> dict[str, float]:
    geom, router = TreeGeometry(w.blob_size, w.pagesize), StaticRouter(range(4))
    vm, meta, page = VersionManager(), MetadataProvider(0), PagePayload.real(bytes(w.pagesize))
    blob, cache = vm.alloc(w.blob_size, w.pagesize), MetadataCache() if w.cache_capacity else None

    def live(calls):  # the vm and one metadata store answer; pm and data are canned
        handle = {"vm": vm.handle, "meta": meta.handle, "pm": lambda m, args: [(0,)] * args[3],
                  "data": lambda m, args: page if m == "data.get_page" else True}
        return [handle[c.method.partition(".")[0]](c.method, c.args) for c in calls]

    def write(offset, size, uid):
        pages = [page] * (size // w.pagesize)
        return lambda: write_protocol(blob, geom, offset, pages, router, uid)

    run(write(0, w.window, "populate"), live)
    ops: dict[str, list] = {"read": [], "write": []}
    for i in range(n_ops):
        make = write(rng.randrange(w.window // w.op_size) * w.op_size, w.op_size, f"w#{i}")
        ops["write"].append((make, run(make, live)))
        offset = rng.randrange(w.window // w.op_size) * w.op_size
        make = lambda o=offset: read_protocol(blob, geom, o, w.op_size, router, cache=cache)  # noqa: E731
        run(make, live)  # a cached workload reads with its cache warm
        ops["read"].append((make, run(make, live)))

    def replay_us(recorded: list) -> float:
        t0 = time.process_time()
        for make, replies in recorded:
            run(make, lambda calls, canned=iter(replies): next(canned))
        return (time.process_time() - t0) / len(recorded) * 1e6
    return {kind: min(replay_us(recorded) for _ in range(repeat)) for kind, recorded in ops.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ops", type=int, default=200, help="ops per kind")
    parser.add_argument("--repeat", type=int, default=20)
    args = parser.parse_args()
    print(f"{'workload':<20} {'read_us':>9} {'write_us':>9}")
    for w in WORKLOADS.values():
        us = workload_us(w, args.ops, args.repeat, random.Random(1))
        print(f"{w.name:<20} {us['read']:>9.1f} {us['write']:>9.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
