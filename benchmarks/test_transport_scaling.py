"""Transport scaling: N writers × M readers on inproc vs threaded vs tcp.

The benchmark behind the claim that timing needs separate processes. The
three real deployments execute the *same* client programs against the
*same* actor code; the only variable is the execution substrate:

- ``inproc``   — one thread, sequential: the no-concurrency baseline;
- ``threaded`` — real client threads, one service thread per actor, but
  one GIL shared by everything: concurrency without parallelism;
- ``tcp``      — ``build_tcp(spec)``: every node's provider actors in a
  node-agent OS process on loopback, behind the pickle-frame wire codec:
  concurrency *with* parallelism.

The workload runs in integrity mode (``page_checksums=True``): providers
checksum pages on put and verify on get with a pure-Python Fletcher-64
(see ``repro.providers.page.page_checksum``) standing in for the per-byte
CPU a real storage node burns on checksums/compression/encryption. That
work serializes on the GIL under the threaded driver no matter how many
actors exist — which is precisely why the paper-style throughput claims
need a deployment of separate processes to mean anything.

Readers run in the paper's steady-state cached-metadata regime (caches
pre-warmed over the window, like Figure 3(c)'s cached series), so the
measured op is version-resolve + one parallel page batch.

Numbers are host wall-clock (NOT simulated, NOT deterministic): results
are printed and written to ``benchmarks/out`` but deliberately **never
pinned in benchmarks/baseline/** — see the baseline README policy.

The threaded and tcp deployments are measured interleaved (A/B/A/B…) and
compared as the median of *paired per-round ratios* — temporally adjacent
rounds see the same host weather, so the pairing cancels CPU-speed drift
that would swamp a comparison of independent medians. The headline
assertion is the GIL-escape claim: on a multi-core host, tcp-deployment
throughput must exceed threaded-deployment throughput. Inproc runs once
as the no-concurrency reference line.
"""

from __future__ import annotations

import multiprocessing
import os
import statistics
import threading
import time

from repro.bench.figures import Series
from repro.core.config import DeploymentSpec
from repro.core.protocol import read_protocol
from repro.deploy.inproc import build_inproc
from repro.deploy.tcp import build_tcp
from repro.deploy.threaded import build_threaded
from repro.metadata.cache import MetadataCache
from repro.util.sizes import KB, MB

PAGE = 64 * KB
SEGMENT = 16 * PAGE  # 1 MB per operation
WINDOW = 16 * MB  # pre-populated read window
TOTAL = 128 * MB

JOIN_TIMEOUT = 300.0


def _profile_knobs(profile):
    if profile.full:
        return dict(writers=1, readers=3, ops=16, repeats=7)
    return dict(writers=1, readers=3, ops=8, repeats=5)


def _probe_burn(n: int) -> int:
    """Pure-Python CPU burn for :func:`parallel_speedup_probe`."""
    acc = 0
    for i in range(n):
        acc = (acc + i * i) & 0xFFFFFFFF
    return acc


def _probe_worker(inbox, outbox) -> None:
    while True:
        n = inbox.get()
        if n is None:
            return
        outbox.put(_probe_burn(n))


def parallel_speedup_probe(n: int = 3_000_000) -> float:
    """Measured speedup of two worker processes over one thread on pure
    CPU work: the host's *effective* parallel headroom right now.

    ``os.cpu_count()`` reports installed cores; on shared/virtualized
    hosts what matters is how many are actually schedulable this minute.
    It decides whether the "tcp beats threaded on a multi-core host"
    assertion's premise — a multi-core host — is even satisfied. Returns
    ~1.0 on an effectively single-core host, ~2.0 on two free cores.

    The workers are persistent (started, warmed, *then* timed), so
    process start-up cost never pollutes the measurement.
    """
    ctx = multiprocessing.get_context("spawn")
    inbox = ctx.SimpleQueue()
    outbox = ctx.SimpleQueue()
    procs = [
        ctx.Process(target=_probe_worker, args=(inbox, outbox), daemon=True)
        for _ in range(2)
    ]
    try:
        for p in procs:
            p.start()
        for _ in procs:  # handshake: both workers booted and responsive
            inbox.put(1000)
        for _ in procs:
            outbox.get()
        start = time.perf_counter()
        _probe_burn(n)
        _probe_burn(n)
        serial = time.perf_counter() - start
        start = time.perf_counter()
        inbox.put(n)
        inbox.put(n)
        outbox.get()
        outbox.get()
        parallel = time.perf_counter() - start
        return serial / parallel if parallel > 0 else 1.0
    finally:
        for _ in procs:
            inbox.put(None)
        for p in procs:
            p.join(timeout=10)
            if p.is_alive():  # pragma: no cover - stuck probe
                p.kill()


def _spec():
    # one storage node per core (capped): on the tcp deployment each
    # becomes one OS process of genuinely parallel provider CPU
    n_data = max(2, min(os.cpu_count() or 2, 8))
    return DeploymentSpec(
        n_data=n_data, n_meta=2, page_checksums=True, cache_capacity=0
    )


class _Harness:
    """One live deployment plus its prepared blob and warm cache template."""

    def __init__(self, name, dep, concurrent):
        self.name = name
        self.dep = dep
        self.concurrent = concurrent
        setup = dep.client(f"{name}-setup")
        self.blob = setup.alloc(TOTAL, PAGE)
        self.geom = setup.open(self.blob)
        for off in range(WINDOW, 2 * WINDOW, SEGMENT):
            setup.write(self.blob, b"\x11" * SEGMENT, off)
        # steady-state cached readers (the paper's Fig 3(c) cached regime):
        # one warm sweep builds a template every reader clones at C speed
        self.template = MetadataCache(1 << 20)
        self.dep.driver.run(
            read_protocol(
                self.blob, self.geom, WINDOW, WINDOW, self.dep.router,
                cache=self.template,
            )
        )
        self.rep = 0

    def measure(self, writers, readers, ops) -> float:
        """One timed round; returns aggregate MB/s."""
        rep = self.rep = self.rep + 1
        blob, geom, dep = self.blob, self.geom, self.dep

        def reader(j):
            cache = MetadataCache(1 << 20)
            cache.preload_from(self.template)
            for k in range(ops):
                off = WINDOW + (j * SEGMENT + k * 3 * SEGMENT) % (WINDOW - SEGMENT)
                dep.driver.run(
                    read_protocol(blob, geom, off, SEGMENT, dep.router, cache=cache)
                )

        def writer(i):
            client = dep.client(f"{self.name}-w{i}-r{rep}")
            data = bytes([((rep * 16 + i) % 255) + 1]) * SEGMENT
            span = WINDOW // writers // PAGE * PAGE
            for k in range(ops):
                offset = i * span + (k * SEGMENT) % (span - SEGMENT + PAGE)
                client.write(blob, data, offset)

        programs = [lambda j=j: reader(j) for j in range(readers)]
        programs += [lambda i=i: writer(i) for i in range(writers)]
        start = time.perf_counter()
        if self.concurrent:
            threads = [
                threading.Thread(target=f, name=f"{self.name}-prog-{n}")
                for n, f in enumerate(programs)
            ]
            for t in threads:
                t.start()
            deadline = start + JOIN_TIMEOUT
            for t in threads:
                t.join(timeout=max(0.0, deadline - time.perf_counter()))
                assert not t.is_alive(), f"{self.name}: {t.name} stalled"
        else:
            for f in programs:
                f()
        wall = time.perf_counter() - start
        return (writers + readers) * ops * SEGMENT / MB / wall

    def close(self):
        close = getattr(self.dep, "close", None)
        if close is not None:
            close()


#: extra interleaved pairs measured one at a time while the paired-ratio
#: median is below this bar (adaptive sampling, pytest-benchmark style:
#: noisy hosts buy confidence with more rounds, quiet hosts stay fast)
_EXTEND_BELOW = 1.1
_MAX_EXTRA_PAIRS = 4


def run_transport_scaling(writers, readers, ops, repeats):
    spec = _spec()
    # effective parallel headroom *before* anything else runs: installed
    # cores are not schedulable cores on shared hosts, and the headline
    # assertion is only meaningful when the host can actually run two
    # processes at once
    headroom = parallel_speedup_probe()
    inproc = _Harness("inproc", build_inproc(spec), concurrent=False)
    threaded = _Harness("threaded", build_threaded(spec), concurrent=True)
    tcp = _Harness("tcp", build_tcp(spec), concurrent=True)
    try:
        samples = {"inproc": [], "threaded": [], "tcp": []}
        # inproc is the sequential reference: one round is representative
        samples["inproc"].append(inproc.measure(writers, readers, ops))
        # one untimed warmup round each: first-touch costs (allocator
        # growth, socket buffer autotuning) are not steady-state signal
        threaded.measure(writers, readers, 2)
        tcp.measure(writers, readers, 2)

        def pair():
            # interleaved: adjacent rounds see the same host weather
            samples["threaded"].append(threaded.measure(writers, readers, ops))
            samples["tcp"].append(tcp.measure(writers, readers, ops))

        for _ in range(repeats):
            pair()
        ratios = lambda: [  # noqa: E731 - tiny local recompute
            p / t for t, p in zip(samples["threaded"], samples["tcp"])
        ]
        extra = 0
        while statistics.median(ratios()) < _EXTEND_BELOW and extra < _MAX_EXTRA_PAIRS:
            pair()
            extra += 1
        medians = {name: statistics.median(s) for name, s in samples.items()}
        stats = tcp.dep.transport_stats()
    finally:
        inproc.close()
        threaded.close()
        tcp.close()
    return samples, medians, ratios(), stats, spec, headroom


def test_transport_scaling(benchmark, publish, publish_json, profile):
    knobs = _profile_knobs(profile)
    t0 = time.perf_counter()
    samples, medians, ratios, transport, spec, headroom = benchmark.pedantic(
        run_transport_scaling,
        kwargs=knobs,
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    wall = time.perf_counter() - t0

    order = ["inproc", "threaded", "tcp"]
    ratio = statistics.median(ratios)
    lines = [
        "Transport scaling: "
        f"{knobs['writers']} writers x {knobs['readers']} readers, "
        f"{knobs['ops']} x {SEGMENT // MB} MB ops each, integrity checksums on, "
        f"{spec.n_data} data providers, {len(ratios)} interleaved rounds",
        "  (host wall-clock throughput — NOT pinned in the perf baseline)",
    ]
    for name in order:
        runs = "  ".join(f"{s:7.1f}" for s in samples[name])
        lines.append(f"  {name:>8}: {medians[name]:7.1f} MB/s   runs: {runs}")
    lines.append(
        f"  tcp/threaded, median of paired rounds: {ratio:.2f}x"
        "  (the GIL escape, paid for by the wire codec)"
    )
    lines.append(
        f"  effective parallel headroom probe: {headroom:.2f}x "
        f"(os.cpu_count={os.cpu_count()})"
    )
    publish("transport_scaling", "\n".join(lines))
    publish_json(
        "transport_scaling",
        "Transport scaling",
        [Series(name, list(range(1, len(samples[name]) + 1)), samples[name])
         for name in order],
        wall,
        {f"tcp_{k}": v for k, v in transport.items()},
    )

    # sanity: every deployment moved every byte
    for name in ("threaded", "tcp"):
        assert len(samples[name]) >= knobs["repeats"]
        assert all(s > 0 for s in samples[name])

    # the GIL-escape claim: real parallelism must
    # beat GIL-bound threading on a multi-core host once provider-side
    # CPU work is on the table (median of paired interleaved rounds —
    # robust to the host speeding up or slowing down across the run).
    # The premise "multi-core host" is checked against *measured* headroom,
    # not the installed core count: a CI box whose second core is stolen
    # by a noisy neighbour is, for this claim, a single-core host.
    if headroom >= 1.4:
        assert statistics.median(ratios) > 1.0, (
            "tcp deployment did not out-scale threaded: "
            f"paired ratios {[f'{r:.2f}' for r in ratios]}, {medians}, "
            f"headroom {headroom:.2f}x"
        )
