"""Cross-driver conformance: inproc vs threaded vs TCP (both control-plane
layouts) vs aio vs simulated.

The paper's claim only holds if the *deployment substrate* is
interchangeable: the same sans-io WRITE/READ protocols must produce the
same blobs whether they are dispatched directly (inproc), over real
per-actor service threads (threaded), over real TCP connections to
node-agent OS processes through the pickle-frame wire codec (tcp — with
the vm/pm in the parent, and again fully remote with the control plane on
its own agents and zero in-parent actors), from a single-threaded asyncio
event loop multiplexing every agent socket (aio — the high-concurrency
client tier), or on the discrete-event cluster model (simulated). This
suite replays identical seeded workloads — built once as driver-agnostic
composite protocol generators — on every configuration of the
``BUILDERS`` table (``tests/conftest.py``; with the two fault scripts
below, kill-restart-replay and elastic join/drain, the eight certified
configurations) and asserts:

- **serial phase** (deterministic, single client): bit-identical page
  contents *and placement*, bit-identical metadata trees (every node
  record), identical version chains (`vm.patches`), exact
  read-your-writes / snapshot equality against a reference replay model,
  and identical per-actor wire-RPC / sub-call counts on every driver
  with a wire layer, the simulator included;
- **concurrent phase** (N clients, disjoint ranges; every driver's
  ``spawn`` — threads, coroutines or simulated processes —, a seeded
  linearization on inproc): identical page dictionaries (page key ->
  bytes, placement-independent), identical leaf page references,
  identical final blob bytes, per-driver prefix-replay serializability
  of every published snapshot, and monotonic read-your-writes inside
  every client program.

Everything here is wall-clock bounded: thread joins carry explicit
timeouts and name the stalled worker instead of hanging the suite.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.core.config import DeploymentSpec
from repro.core.protocol import (
    alloc_protocol,
    read_protocol,
    split_pages,
    write_protocol,
)
from repro.deploy.tcp import build_tcp
from repro.errors import RemoteError
from repro.metadata.tree import TreeGeometry
from repro.net.sansio import Batch
from repro.util.sizes import KB
from repro.version.manager import LATEST
from tests.conftest import BUILDERS

SEED = 0xC04F
TOTAL = 64 * KB
PAGE = 4 * KB
NPAGES = TOTAL // PAGE

N_SERIAL_OPS = 10
N_CLIENTS = 4
WRITES_PER_CLIENT = 5
PAGES_PER_CLIENT = NPAGES // N_CLIENTS

JOIN_TIMEOUT = 120.0

SPEC = DeploymentSpec(n_data=4, n_meta=3, n_clients=N_CLIENTS, cache_capacity=0)
GEOM = TreeGeometry(TOTAL, PAGE)

OTHER_DRIVERS = tuple(name for name in BUILDERS if name != "inproc")


# ---------------------------------------------------------------------------
# the table: one configuration at a time, run by two functions
# ---------------------------------------------------------------------------


def across_table(phase):
    """``{name: phase(name, dep)}`` over every configuration of the table,
    each closed before the next is built, so only one cluster of OS
    processes is ever alive at once."""
    results = {}
    for name, build in BUILDERS.items():
        with build(SPEC) as dep:
            if name == "tcp-remote":
                # the paper's layout in full: no actor in the client parent
                assert dep.in_parent_actors() == []
            results[name] = phase(name, dep)
    return results


def run(dep, proto):
    """Run one protocol to completion on any configuration."""
    return dep.driver.run(proto)


def run_concurrently(dep, factories):
    """Run one client program per factory, concurrently where the
    substrate has concurrency: ``driver.spawn`` (threads, coroutines or
    simulated processes) on every driver but inproc. Inproc has none: it
    executes whole programs in a seeded linearization order (any serial
    order is a valid linearization of programs touching disjoint
    ranges)."""
    if not hasattr(dep.driver, "spawn"):
        order = list(range(len(factories)))
        random.Random(SEED ^ 0xABCD).shuffle(order)
        results = [None] * len(factories)
        for i in order:
            results[i] = dep.driver.run(factories[i]())
        return results
    futures = [dep.driver.spawn(f()) for f in factories]
    results, stalled = [], []
    for i, fut in enumerate(futures):
        try:
            results.append(fut.result(timeout=JOIN_TIMEOUT))
        except TimeoutError:
            stalled.append(f"program-{i}")
    assert not stalled, f"programs stalled: {stalled}"
    return results


@pytest.mark.parametrize("name", list(BUILDERS))
def test_named_client_round_trip(name):
    """``dep.client(name)`` takes the client's name first on every
    configuration, and that client writes and reads back."""
    with BUILDERS[name](DeploymentSpec(n_data=2, n_meta=2)) as dep:
        client = dep.client("named")
        assert client.name == "named"
        blob_id = client.alloc(TOTAL, PAGE)
        client.write(blob_id, b"n" * PAGE, PAGE)
        assert client.read_bytes(blob_id, PAGE, PAGE) == b"n" * PAGE


def recorded(proto, calls):
    """Wrap a protocol: append each batch's sorted method names to
    ``calls`` (what it puts on the wire, one entry per round trip)."""
    op = next(proto)
    try:
        while True:
            if isinstance(op, Batch):
                calls.append(sorted(c.method for c in op.calls))
            op = proto.send((yield op))
    except StopIteration as stop:
        return stop.value


def step_write(dep, proto, fail_at=None):
    """Step a WRITE protocol by hand, each batch run on ``dep``'s driver;
    a batch calling ``fail_at`` gets a ``RemoteError`` thrown at it
    instead. Returns the nodes the WRITE stored and its outcome."""

    def one(batch):
        return (yield batch)

    stored = []
    op = next(proto)
    try:
        while True:
            if not isinstance(op, Batch):  # a Compute marker: no reply
                op = proto.send(None)
                continue
            methods = {c.method for c in op.calls}
            if fail_at in methods:
                op = proto.throw(RemoteError("PeerUnavailable", f"{fail_at} lost"))
                continue
            if methods & {"meta.put_nodes", "meta.put_node"}:
                for c in op.calls:
                    arg = c.args[0]
                    stored += arg if isinstance(arg, list) else [arg]
            op = proto.send(run(dep, one(op)))
    except StopIteration as stop:
        return stored, stop.value
    except RemoteError as exc:
        return stored, exc


@pytest.mark.parametrize("name", list(BUILDERS))
def test_a_cached_writer_reads_its_write_with_no_metadata_round_trip(name):
    """A client's completed WRITE leaves the nodes it wove in its cache:
    its READ of LATEST fetches no node — every node on the path is a
    hit — and skips the metadata batch, while a cold client's READ of the
    same range still walks the providers. A WRITE whose ``vm.complete``
    batch fails caches nothing."""
    with BUILDERS[name](DeploymentSpec(n_data=2, n_meta=2)) as dep:
        writer, cold = dep.client("writer"), dep.client("cold")
        blob_id = writer.alloc(TOTAL, PAGE)
        data = bytes(range(256)) * (3 * PAGE // 256)
        writer.write(blob_id, data, PAGE)
        geom = writer.open(blob_id)

        def read(client):
            calls = []
            result = run(dep, recorded(read_protocol(
                blob_id, geom, PAGE, 3 * PAGE, dep.router, cache=client.cache,
            ), calls))
            return result, calls

        own, own_calls = read(writer)
        far, far_calls = read(cold)
        assert own.data == far.data == data
        assert own.nodes_fetched == 0
        assert own.cache_hits == far.nodes_fetched > 0
        pages = ["data.get_page"] * 3
        assert own_calls == [["vm.resolve_read"], pages]
        assert far_calls[0] == own_calls[0] and far_calls[-1] == pages
        assert len(far_calls) == 3 and set(far_calls[1]) == {"meta.get_subtree"}

        # a WRITE whose report fails leaves the cache as it was...
        cached = len(writer.cache)
        stored, outcome = step_write(dep, write_protocol(
            blob_id, geom, 0, split_pages(data[:PAGE], PAGE), dep.router,
            "writer#failed", writer.cache,
        ), fail_at="vm.complete")
        assert isinstance(outcome, RemoteError) and stored
        assert len(writer.cache) == cached
        assert not any(node.key in writer.cache for node in stored)
        # ...and the same steps with the report answered fill it
        stored, outcome = step_write(dep, write_protocol(
            blob_id, geom, 0, split_pages(data[:PAGE], PAGE), dep.router,
            "writer#done", writer.cache,
        ))
        assert outcome.nodes_written == len(stored)
        assert all(node.key in writer.cache for node in stored)


# ---------------------------------------------------------------------------
# state fingerprints
# ---------------------------------------------------------------------------


def page_dict(dep, blob_id):
    """Union of stored pages: page key -> bytes (placement-independent)."""
    pages = {}
    for dp in dep.data.values():
        for key, payload in dp.iter_pages(blob_id):
            assert key not in pages, f"page {key} stored twice (replication=1)"
            pages[key] = payload.as_bytes()
    return pages


def page_placements(dep, blob_id):
    """Stored pages *with* placement: sorted (key, provider_id, bytes)."""
    return sorted(
        (key, pid, payload.as_bytes())
        for pid, dp in dep.data.items()
        for key, payload in dp.iter_pages(blob_id)
    )


def node_records(dep, blob_id):
    """Every stored metadata node as a sorted comparable record."""
    return sorted(
        (n.key, n.left_version, n.right_version, n.providers, n.write_uid)
        for n in dep.blob_nodes(blob_id)
    )


def leaf_page_refs(dep, blob_id):
    """Version-independent leaf references: (write_uid, offset, size)."""
    return sorted(
        (n.write_uid, n.key.offset, n.key.size)
        for n in dep.blob_nodes(blob_id)
        if n.is_leaf
    )


# ---------------------------------------------------------------------------
# serial phase: one deterministic client, full bit-equality
# ---------------------------------------------------------------------------


def serial_program(blob_id, router):
    """Seeded writes, appends and snapshot reads; returns the replay model.

    Driver-agnostic: a composite sans-io generator (write/read protocols
    chained with plain Python in between) that any driver can execute.
    Mismatches are collected, not raised, so a failure surfaces as a clean
    assertion in the test rather than an exception inside a driver loop.
    """
    rng = random.Random(SEED)
    states = [bytes(TOTAL)]  # reference state per version
    versions = []
    errors = []
    hwm = 0  # high-water mark driving append ops

    for step in range(N_SERIAL_OPS):
        append = hwm < TOTAL and rng.random() < 0.4
        npages = rng.choice((1, 1, 2, 4))
        if append:
            offset = hwm
            npages = min(npages, (TOTAL - hwm) // PAGE)
        else:
            offset = rng.randrange(0, NPAGES - npages + 1) * PAGE
        data = rng.randbytes(npages * PAGE)
        hwm = max(hwm, offset + len(data))

        res = yield from write_protocol(
            blob_id, GEOM, offset, split_pages(data, PAGE), router,
            f"serial-{step}",
        )
        versions.append(res.version)
        state = bytearray(states[-1])
        state[offset : offset + len(data)] = data
        states.append(bytes(state))

        # read-your-writes: this client is alone, so its version is
        # published on completion and must read back exactly
        snap = yield from read_protocol(
            blob_id, GEOM, 0, TOTAL, router, version=res.version
        )
        if snap.data != states[res.version]:
            errors.append(f"step {step}: snapshot v{res.version} mismatch")

        # random historical snapshot, random subrange
        v = rng.randrange(0, len(states))
        sz = rng.randrange(1, TOTAL)
        off = rng.randrange(0, TOTAL - sz)
        part = yield from read_protocol(
            blob_id, GEOM, off, sz, router, version=v
        )
        if part.data != states[v][off : off + sz]:
            errors.append(f"step {step}: partial read of v{v} mismatch")

    return {"versions": versions, "states": states, "errors": errors}


def _run_serial(name, dep):
    blob_id = run(dep, alloc_protocol(TOTAL, PAGE))
    outcome = run(dep, serial_program(blob_id, dep.router))
    assert outcome["errors"] == [], f"{name}: {outcome['errors']}"
    # Snapshot wire counters *before* the fingerprint reads below: on the
    # tcp deployments the inspection surface itself issues RPCs
    # (data.dump_pages / meta.dump_nodes), which would otherwise fold the
    # act of measuring into the measured workload. ``workload_stats``
    # subtracts the build's own setup traffic (fully-remote control plane:
    # provider registration + the builder's registration poll).
    return {
        "wire": dep.workload_stats(),
        "blob_id": blob_id,
        "outcome": outcome,
        "patches": dep.vm.patches(blob_id),
        "latest": dep.vm.get_latest(blob_id),
        "pages": page_placements(dep, blob_id),
        "nodes": node_records(dep, blob_id),
    }


@pytest.fixture(scope="module")
def serial_results():
    """The serial workload on every configuration, run once and shared by
    the bit-identity and the wire-count tests."""
    return across_table(_run_serial)


def test_serial_workload_bit_identical_across_drivers(serial_results):
    results = serial_results
    ref = results["inproc"]
    assert ref["latest"] == N_SERIAL_OPS
    for name in OTHER_DRIVERS:
        got = results[name]
        assert got["blob_id"] == ref["blob_id"]
        assert got["outcome"]["versions"] == ref["outcome"]["versions"]
        assert got["outcome"]["states"] == ref["outcome"]["states"], (
            f"{name}: replay states diverged from inproc"
        )
        assert got["patches"] == ref["patches"], f"{name}: version chain differs"
        assert got["latest"] == ref["latest"]
        assert got["pages"] == ref["pages"], (
            f"{name}: stored pages (content or placement) differ"
        )
        assert got["nodes"] == ref["nodes"], f"{name}: metadata tree differs"


def test_transport_batching_equivalent_sub_calls(serial_results):
    """The threaded, both TCP, the aio and the simulated drivers must issue
    identical per-actor wire-RPC and sub-call counts for an identical
    serial workload — all five execute exactly the groups
    `plan_wire_groups` plans (shared framing); for the TCP and aio drivers
    the counts are
    reported by the node agents themselves over the control channel. For
    the fully-remote configuration this also proves the vm/pm *workload*
    traffic is identical whether they are parent service threads or
    agents on other machines; for the aio configuration it proves the
    event-loop transport frames nothing differently from the per-peer
    thread pairs."""
    results = serial_results
    assert results["inproc"]["wire"] is None  # inproc has no wire layer
    threaded = results["threaded"]["wire"]
    for name in ("tcp", "aio", "tcp-remote", "simulated"):
        assert results[name]["wire"] == threaded, (
            f"{name} and threaded drivers framed the same workload differently"
        )


# ---------------------------------------------------------------------------
# concurrent phase: N clients, disjoint ranges, real interleavings
# ---------------------------------------------------------------------------


def client_patch(c: int, k: int) -> tuple[int, bytes]:
    """Deterministic patch ``k`` of client ``c``: (offset, data).

    Computable out of order so any driver's version assignment can be
    replayed. Clients own disjoint page ranges; data is a recognizable
    unique fill."""
    rng = random.Random(SEED ^ (c * 1009 + k * 9176))
    base_page = c * PAGES_PER_CLIENT
    npages = 1 + (k % 2)
    page = base_page + rng.randrange(0, PAGES_PER_CLIENT - npages + 1)
    tag = c * WRITES_PER_CLIENT + k + 1
    data = bytes([tag]) * (npages * PAGE)
    return page * PAGE, data


def own_range_states(c: int) -> list[bytes]:
    """Client ``c``'s own-range contents after 0..K of its writes."""
    lo = c * PAGES_PER_CLIENT * PAGE
    hi = lo + PAGES_PER_CLIENT * PAGE
    state = bytearray(PAGES_PER_CLIENT * PAGE)
    out = [bytes(state)]
    for k in range(WRITES_PER_CLIENT):
        offset, data = client_patch(c, k)
        state[offset - lo : offset - lo + len(data)] = data
        out.append(bytes(state))
    assert hi - lo == len(state)
    return out


def concurrent_program(blob_id, router, c: int):
    """Client ``c``: seeded writes to its own range with snapshot checks."""

    def prog():
        lo = c * PAGES_PER_CLIENT * PAGE
        span = PAGES_PER_CLIENT * PAGE
        prefixes = own_range_states(c)
        got_versions = []
        errors = []
        last_prefix = 0
        for k in range(WRITES_PER_CLIENT):
            offset, data = client_patch(c, k)
            res = yield from write_protocol(
                blob_id, GEOM, offset, split_pages(data, PAGE), router,
                f"c{c}-k{k}",
            )
            got_versions.append(res.version)

            if res.published:
                # strict read-your-writes: our version is published, so a
                # snapshot read of it must contain all our k+1 patches
                snap = yield from read_protocol(
                    blob_id, GEOM, lo, span, router, version=res.version
                )
                if snap.data != prefixes[k + 1]:
                    errors.append(f"c{c} k{k}: own snapshot v{res.version} wrong")
                last_prefix = k + 1
            else:
                # our write is complete but unpublished (predecessors in
                # flight): LATEST must show a *monotonic prefix* of our own
                # writes — linearizable-snapshot semantics on our range
                snap = yield from read_protocol(
                    blob_id, GEOM, lo, span, router, version=LATEST
                )
                try:
                    prefix = prefixes.index(snap.data)
                except ValueError:
                    errors.append(f"c{c} k{k}: torn own-range read")
                    continue
                if prefix < last_prefix:
                    errors.append(
                        f"c{c} k{k}: own-range prefix went backwards "
                        f"({last_prefix} -> {prefix})"
                    )
                last_prefix = max(last_prefix, prefix)
        return {"client": c, "versions": got_versions, "errors": errors}

    return prog


def _run_concurrent(name, dep):
    blob_id = run(dep, alloc_protocol(TOTAL, PAGE))
    router = dep.router
    factories = [
        concurrent_program(blob_id, router, c) for c in range(N_CLIENTS)
    ]
    outcomes = run_concurrently(dep, factories)
    for outcome in outcomes:
        assert outcome["errors"] == [], f"{name}: {outcome['errors']}"

    total = N_CLIENTS * WRITES_PER_CLIENT
    assert dep.vm.get_latest(blob_id) == total, f"{name}: not all published"

    # every version assigned exactly once, to the expected patch geometry
    version_of = {}
    for outcome in outcomes:
        for k, v in enumerate(outcome["versions"]):
            version_of[v] = (outcome["client"], k)
    assert sorted(version_of) == list(range(1, total + 1))
    patch_geoms = {
        v: (off, len(data))
        for v, (c, k) in version_of.items()
        for off, data in [client_patch(c, k)]
    }
    assert {
        (v, off, size) for v, (off, size) in patch_geoms.items()
    } == set(dep.vm.patches(blob_id)), f"{name}: vm patch chain disagrees"

    # per-driver linearizable snapshots: every published version equals the
    # prefix replay of that driver's version order
    state = bytearray(TOTAL)
    for v in range(1, total + 1):
        c, k = version_of[v]
        offset, data = client_patch(c, k)
        state[offset : offset + len(data)] = data
        snap = run(dep, read_protocol(blob_id, GEOM, 0, TOTAL, router, version=v))
        assert snap.data == bytes(state), (
            f"{name}: snapshot v{v} != prefix replay"
        )
    final = bytes(state)

    return {
        "blob_id": blob_id,
        "final": final,
        "pages": page_dict(dep, blob_id),
        "leaf_refs": leaf_page_refs(dep, blob_id),
    }


def test_concurrent_workload_equivalent_across_drivers():
    results = across_table(_run_concurrent)
    ref = results["inproc"]

    # the final blob is fully determined by the workload (disjoint ranges),
    # so all drivers must converge to the same bytes
    expected_final = bytearray(TOTAL)
    for c in range(N_CLIENTS):
        lo = c * PAGES_PER_CLIENT * PAGE
        expected_final[lo : lo + PAGES_PER_CLIENT * PAGE] = own_range_states(c)[-1]
    assert ref["final"] == bytes(expected_final)

    for name in OTHER_DRIVERS:
        got = results[name]
        assert got["final"] == ref["final"], f"{name}: final blob bytes differ"
        # page identity is placement- and version-order-independent:
        # (blob, write_uid, index) -> bytes must match bit for bit
        assert got["pages"] == ref["pages"], f"{name}: stored pages differ"
        # every write's pages are referenced by leaves at the same intervals
        assert got["leaf_refs"] == ref["leaf_refs"], (
            f"{name}: leaf page references differ"
        )


# ---------------------------------------------------------------------------
# fault scripts: a durable cluster interrupted between two workload phases
# ---------------------------------------------------------------------------

N_DURABLE_STEPS = 10
KILL_AFTER_STEP = 5  # phase 1 = steps [0, 5), phase 2 = steps [5, 10)

ELASTIC_SPEC = replace(SPEC, strategy="hash_ring")


def durable_step_program(blob_id, router, states, step):
    """One step of the durable workload: a seeded write plus snapshot reads.

    Unlike :func:`serial_program`, each step carries its *own* rng (seeded
    from the step number), so the workload can be split across a control
    plane kill+restart and still be byte-for-byte the workload an
    uninterrupted run executes. ``states`` is the caller-held replay model
    (reference bytes per version), appended to in place. Returns a list of
    mismatch descriptions (empty = step verified). The pm's strategy
    decides placement, so the same step runs the elastic configuration."""
    rng = random.Random(SEED ^ (0xD00B + step * 7919))
    errors = []
    npages = rng.choice((1, 1, 2, 4))
    offset = rng.randrange(0, NPAGES - npages + 1) * PAGE
    data = rng.randbytes(npages * PAGE)

    res = yield from write_protocol(
        blob_id, GEOM, offset, split_pages(data, PAGE), router,
        f"durable-{step}",
    )
    if res.version != len(states):
        errors.append(
            f"step {step}: expected version {len(states)}, got {res.version}"
        )
    state = bytearray(states[-1])
    state[offset : offset + len(data)] = data
    states.append(bytes(state))

    # read-your-writes on the just-published version
    snap = yield from read_protocol(
        blob_id, GEOM, 0, TOTAL, router, version=res.version
    )
    if snap.data != states[res.version]:
        errors.append(f"step {step}: snapshot v{res.version} mismatch")

    # a historical snapshot — after a restart this reads *recovered*
    # version history, the whole point of the configuration
    v = rng.randrange(0, len(states))
    sz = rng.randrange(1, TOTAL)
    off = rng.randrange(0, TOTAL - sz)
    part = yield from read_protocol(blob_id, GEOM, off, sz, router, version=v)
    if part.data != states[v][off : off + sz]:
        errors.append(f"step {step}: partial read of v{v} mismatch")
    return errors


def _durable_run(dep, script, storage_untouched):
    """Steps ``[0, KILL_AFTER_STEP)``, then ``script(dep, blob_id,
    states)`` (unless None), then the remaining steps; returns the run's
    fingerprint."""
    blob_id = dep.driver.run(alloc_protocol(TOTAL, PAGE))
    states = [bytes(TOTAL)]
    for step in range(N_DURABLE_STEPS):
        if step == KILL_AFTER_STEP and script is not None:
            script(dep, blob_id, states)
        errs = dep.driver.run(
            durable_step_program(blob_id, dep.router, states, step)
        )
        assert errs == [], errs
    storage = None
    if storage_untouched:
        # the *storage* actors' workload counters, taken before the
        # fingerprint reads below add their own RPCs. Control-actor
        # counters reset when an agent restarts, so they cannot be
        # compared across an interrupted and an uninterrupted run
        storage = {
            a: counts
            for a, counts in dep.workload_stats().items()
            if isinstance(a, tuple)  # ("data", i) / ("meta", i)
        }
    return {
        "blob_id": blob_id,
        "states": states,
        "storage": storage,
        "patches": dep.vm.patches(blob_id),
        "latest": dep.vm.get_latest(blob_id),
        "pages": page_placements(dep, blob_id),
        "nodes": node_records(dep, blob_id),
    }


def run_fault_script(spec, state_dir, script, *, storage_untouched=False):
    """One row of the fault table: the fully-remote TCP cluster with a
    durable control plane (``state_dir``) runs the durable workload with
    ``script`` between its two phases. Its pages (content *and*
    placement), metadata node records and version chains — and, with
    ``storage_untouched``, the storage actors' wire counters — must be
    bit-identical to an uninterrupted run of the same spec."""
    runs = []
    for run_dir, run_script in ((None, None), (state_dir, script)):
        with build_tcp(spec, control_plane="agents", state_dir=run_dir) as dep:
            assert dep.in_parent_actors() == []
            runs.append(_durable_run(dep, run_script, storage_untouched))
    ref, got = runs
    assert ref["latest"] == N_DURABLE_STEPS
    assert got["blob_id"] == ref["blob_id"]
    assert got["states"] == ref["states"]
    assert got["patches"] == ref["patches"], "version chain differs"
    assert got["latest"] == ref["latest"]
    assert got["pages"] == ref["pages"], (
        "stored pages (content or placement) differ from the uninterrupted run"
    )
    assert got["nodes"] == ref["nodes"], "metadata tree differs"
    assert got["storage"] == ref["storage"], (
        "the fault leaked wire traffic to storage nodes"
    )


def kill_and_restart_control_plane(dep, blob_id, states):
    """SIGKILL the vm and pm agents, then restart them on their state
    dirs."""
    vm_i = dep.agent_index_for("vm")
    pm_i = dep.agent_index_for("pm")
    dep.kill_agent(vm_i)
    dep.kill_agent(pm_i)

    # the outage is fail-fast and typed, and (because a WRITE talks to
    # the pm before any storage node) leaves zero storage traffic
    probe = dep.client("outage-probe")
    with pytest.raises(RemoteError):
        probe.write(blob_id, bytes(PAGE), 0)

    dep.restart_agent(vm_i)
    dep.restart_agent(pm_i)
    dep.driver.peer("vm").wait_connected(timeout=JOIN_TIMEOUT)
    dep.driver.peer("pm").wait_connected(timeout=JOIN_TIMEOUT)

    # the restarted vm resumed the same incarnation: recovered history
    # answers before any phase-2 write happens
    assert dep.vm.get_latest(blob_id) == KILL_AFTER_STEP


def _verify_snapshots(dep, blob_id, states):
    """Every published version still reads back its reference bytes
    (relocation-aware: pages may have migrated off the providers their
    metadata records)."""
    for v, want in enumerate(states):
        res = dep.driver.run(
            read_protocol(blob_id, GEOM, 0, TOTAL, dep.router, version=v)
        )
        assert res.data == want, f"snapshot v{v} diverged"


def join_migrate_and_drain(dep, blob_id, states):
    """A fifth storage agent joins, pages migrate with the pm SIGKILLed
    mid-migration, and the newcomer is drained back out."""
    # a fifth agent joins the running cluster and pages start
    # migrating toward their new hash homes...
    new_id = dep.add_agent()
    assert new_id == ELASTIC_SPEC.n_data
    partial = dep.rebalance(limit_moves=2)
    assert partial["executed"] == 2 and not partial["committed"]

    # ...when the pm is SIGKILLed mid-migration. Recovery replays the
    # journaled plan (with the already-completed moves marked done)
    # and the rebalance resumes instead of restarting or double-moving
    pm_i = dep.agent_index_for("pm")
    dep.kill_agent(pm_i)
    dep.restart_agent(pm_i)
    dep.driver.peer("pm").wait_connected(timeout=JOIN_TIMEOUT)
    resumed = dep.rebalance()
    assert resumed["committed"], "recovered pm failed to finish the plan"
    assert resumed["plan"] == partial["plan"], "recovery lost the plan"

    # the newcomer now holds real pages, and every published snapshot
    # still reads back exactly (locate fallback covers moved pages)
    assert dep.data[new_id].page_count > 0
    _verify_snapshots(dep, blob_id, states)

    # drain the newcomer: its pages move to their hash homes over the
    # surviving members, it deregisters, its agent shuts down
    drained = dep.drain_agent(new_id)
    assert drained["committed"] and drained["drain"] == new_id
    assert new_id not in dep.pm.providers()
    assert new_id not in dep.data
    _verify_snapshots(dep, blob_id, states)


def test_kill_restart_replay_matches_uninterrupted_run(tmp_path):
    """The kill-restart-replay configuration: the fully-remote TCP cluster
    with a durable control plane (``state_dir``), its vm and pm agents
    SIGKILLed mid-workload and restarted on their state dirs. The final
    pages (content *and* placement), metadata node records and version
    chains must be bit-identical to the uninterrupted tcp-remote run,
    with the outage visible to clients only as fast typed failures."""
    run_fault_script(
        SPEC, tmp_path, kill_and_restart_control_plane, storage_untouched=True
    )


def test_elastic_join_drain_matches_static_cluster(tmp_path):
    """The elastic configuration: the fully-remote TCP cluster on
    consistent-hash placement admits a new storage agent *mid-workload*,
    migrates pages to their new hash homes (with the pm SIGKILLed mid-
    migration and recovered from its journal), serves snapshot reads
    throughout the joined epoch, then drains the newcomer back out. The
    finished workload — stored pages (content *and* placement), metadata
    node records and version chains — must be bit-identical to the same
    workload on a static cluster that never changed membership."""
    run_fault_script(ELASTIC_SPEC, tmp_path, join_migrate_and_drain)
