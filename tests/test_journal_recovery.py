"""Durable control plane: journal framing, crash-point fault injection,
vm/pm recovery semantics and state-dir locking.

The centerpiece is the crash-point sweep: a seeded random vm workload is
journaled once to learn every record boundary, then re-run with the
journal's ``fail_after`` hook killing the write at every boundary (clean
cut) and inside every record (torn tail). Recovery must always land on a
*valid prefix*: the state an uninterrupted vm reaches after exactly the
ops whose records fit before the crash point, with every unpublished
assignment rolled back — never a half-applied record, never a fatal
error from a torn tail.
"""

from __future__ import annotations

import gc
import logging
import random
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core.config import DeploymentSpec
from repro.core.journal import (
    Journal,
    JournalCrashed,
    JournalError,
    StateDirLock,
)
from repro.deploy.tcp import build_tcp
from repro.errors import ConfigError, ReproError
from repro.providers.manager import ProviderManager
from repro.tools.node import main as node_main
from repro.util.sizes import KB
from repro.version.manager import VersionManager

TOTAL = 32 * KB
PAGE = 4 * KB
NPAGES = TOTAL // PAGE
SEED = 0x1A6B


# ---------------------------------------------------------------------------
# journal framing units
# ---------------------------------------------------------------------------


class TestJournalFraming:
    def test_append_replay_roundtrip(self, tmp_path):
        j = Journal(tmp_path)
        assert j.open() == (None, [])
        records = [("alloc", 1, 2), ("assign", "b", 0, 4096), ("x", [1, 2])]
        for r in records:
            j.append(r)
        j.close()
        state, replayed = Journal(tmp_path).open()
        assert state is None
        assert replayed == records

    def test_torn_tail_is_truncated_and_logged(self, tmp_path, caplog):
        j = Journal(tmp_path)
        j.open()
        j.append(("keep", 1))
        j.append(("keep", 2))
        clean = j.tail_offset
        j.close()
        wal = tmp_path / "wal.log"
        wal.write_bytes(wal.read_bytes() + b"\x99\x00torn-garbage")
        j2 = Journal(tmp_path)
        with caplog.at_level(logging.WARNING, logger="repro.journal"):
            _, replayed = j2.open()
        assert replayed == [("keep", 1), ("keep", 2)]
        assert j2.truncated_bytes == len(b"\x99\x00torn-garbage")
        assert any("torn tail" in r.message for r in caplog.records)
        # the truncation is physical: the next open sees a clean log
        assert wal.stat().st_size == clean
        j3 = Journal(tmp_path)
        assert j3.open()[1] == [("keep", 1), ("keep", 2)]

    def test_iter_frames_stops_where_open_truncates(self, tmp_path):
        """A crash can leave zeroed bytes past the last frame (a zero
        length with a matching zero checksum): tooling reads the clean
        prefix recovery keeps instead of raising on the empty pickle."""
        j = Journal(tmp_path)
        j.open()
        j.append(("keep", 1))
        j.append(("keep", 2))
        j.close()
        wal = tmp_path / "wal.log"
        wal.write_bytes(wal.read_bytes() + bytes(16))
        frames = list(Journal(tmp_path).iter_frames())
        assert frames == [(1, ("keep", 1)), (2, ("keep", 2))]
        j2 = Journal(tmp_path)
        assert j2.open()[1] == [record for _, record in frames]
        assert j2.truncated_bytes == 16
        j2.close()

    def test_corrupted_record_body_stops_replay_at_prefix(self, tmp_path):
        j = Journal(tmp_path)
        j.open()
        j.append(("a",))
        keep = j.tail_offset
        j.append(("b",))
        j.close()
        raw = bytearray((tmp_path / "wal.log").read_bytes())
        raw[-1] ^= 0xFF  # flip a byte inside the second record's body
        (tmp_path / "wal.log").write_bytes(raw)
        _, replayed = Journal(tmp_path).open()
        assert replayed == [("a",)]
        assert (tmp_path / "wal.log").stat().st_size == keep

    def test_compact_skips_covered_records(self, tmp_path):
        j = Journal(tmp_path)
        j.open()
        j.append(("old", 1))
        j.compact({"n": 1})
        j.append(("new", 2))
        j.close()
        state, replayed = Journal(tmp_path).open()
        assert state == {"n": 1}
        assert replayed == [("new", 2)]

    def test_crash_between_snapshot_and_truncate_never_double_applies(
        self, tmp_path
    ):
        """The compaction crash window: the snapshot is published but the
        log still holds the records it covers. Seqnos must dedupe."""
        j = Journal(tmp_path)
        j.open()
        j.append(("r", 1))
        j.append(("r", 2))
        wal_with_records = (tmp_path / "wal.log").read_bytes()
        j.compact({"applied": 2})
        j.close()
        # simulate the crash: restore the pre-truncate log next to the
        # already-published snapshot
        (tmp_path / "wal.log").write_bytes(wal_with_records)
        state, replayed = Journal(tmp_path).open()
        assert state == {"applied": 2}
        assert replayed == []  # both records are covered by the snapshot

    def test_should_compact_policy(self, tmp_path):
        j = Journal(tmp_path, snapshot_every=3)
        j.open()
        for i in range(2):
            j.append(("r", i))
            assert not j.should_compact()
        j.append(("r", 2))
        assert j.should_compact()
        j.compact({})
        assert not j.should_compact()
        assert Journal(tmp_path, snapshot_every=None).open() == ({}, [])

    def test_unreadable_snapshot_is_fatal_not_silent(self, tmp_path):
        j = Journal(tmp_path)
        j.open()
        j.compact({"real": True})
        j.close()
        (tmp_path / "snapshot.pkl").write_bytes(b"not a pickle")
        with pytest.raises(JournalError, match="snapshot"):
            Journal(tmp_path).open()

    def test_bad_config_knobs_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="fsync"):
            Journal(tmp_path, fsync="sometimes")
        with pytest.raises(ConfigError, match="snapshot_every"):
            Journal(tmp_path, snapshot_every=0)

    def test_fsync_always_roundtrip(self, tmp_path):
        j = Journal(tmp_path, fsync="always")
        j.open()
        j.append(("durable", 1))
        j.compact({"s": 1})
        j.append(("durable", 2))
        j.close()
        assert Journal(tmp_path).open() == ({"s": 1}, [("durable", 2)])


class TestFaultInjection:
    def test_fail_after_tears_exactly_at_the_limit(self, tmp_path):
        j = Journal(tmp_path, fail_after=27)
        j.open()
        with pytest.raises(JournalCrashed):
            j.append(("record", "x" * 50))
        # the torn bytes ARE on disk, exactly up to the crash point —
        # like a real power cut mid-write
        assert (tmp_path / "wal.log").stat().st_size == 27

    def test_crashed_journal_stays_dead(self, tmp_path):
        j = Journal(tmp_path, fail_after=1)
        j.open()
        with pytest.raises(JournalCrashed):
            j.append(("r",))
        with pytest.raises(JournalCrashed):
            j.append(("r",))
        with pytest.raises(JournalCrashed):
            j.compact({})


# ---------------------------------------------------------------------------
# crash-point sweep: recovery is always a valid prefix
# ---------------------------------------------------------------------------


def build_vm_ops(seed: int, n: int = 40) -> list[tuple]:
    """A seeded random-but-valid vm workload over up to 3 blobs.

    Ops are ``("alloc", total, page)``, ``("assign", blob_idx, offset,
    size)``, ``("complete", blob_idx, version)`` and ``("abandon",
    blob_idx, version)`` — validity (version in flight, abandon only the
    most recent) is guaranteed by shadowing the vm's bookkeeping here, so
    every op appends exactly one journal record when executed.
    """
    rng = random.Random(seed)
    ops: list[tuple] = []
    blobs: list[dict] = []  # shadow: {"next": int, "in_flight": set}
    for _ in range(n):
        choices = []
        if len(blobs) < 3:
            choices.append("alloc")
        if blobs:
            choices += ["assign", "assign"]
        if any(b["in_flight"] for b in blobs):
            choices += ["complete", "complete", "complete"]
        if any((b["next"] - 1) in b["in_flight"] for b in blobs):
            choices.append("abandon")
        op = rng.choice(choices)
        if op == "alloc":
            blobs.append({"next": 1, "in_flight": set()})
            ops.append(("alloc", TOTAL, PAGE))
        elif op == "assign":
            i = rng.randrange(len(blobs))
            npages = rng.choice((1, 1, 2))
            offset = rng.randrange(0, NPAGES - npages + 1) * PAGE
            ops.append(("assign", i, offset, npages * PAGE))
            blobs[i]["in_flight"].add(blobs[i]["next"])
            blobs[i]["next"] += 1
        elif op == "complete":
            i = rng.choice([k for k, b in enumerate(blobs) if b["in_flight"]])
            v = rng.choice(sorted(blobs[i]["in_flight"]))
            ops.append(("complete", i, v))
            blobs[i]["in_flight"].discard(v)
        else:  # abandon the most recent assignment of an eligible blob
            i = rng.choice(
                [k for k, b in enumerate(blobs)
                 if (b["next"] - 1) in b["in_flight"]]
            )
            v = blobs[i]["next"] - 1
            ops.append(("abandon", i, v))
            blobs[i]["in_flight"].discard(v)
            blobs[i]["next"] -= 1
    return ops


def apply_ops(vm: VersionManager, ops: list[tuple]) -> None:
    """Execute ops; raises JournalCrashed where the fault injection hits."""
    blob_ids: list[str] = []
    for op in ops:
        if op[0] == "alloc":
            blob_ids.append(vm.alloc(op[1], op[2]))
        elif op[0] == "assign":
            vm.assign(blob_ids[op[1]], op[2], op[3])
        elif op[0] == "complete":
            vm.complete(blob_ids[op[1]], op[2])
        else:
            vm.abandon(blob_ids[op[1]], op[2])


def vm_fingerprint(vm: VersionManager) -> dict:
    return {
        "counters": (vm.assigns, vm.completions),
        "blobs": {
            b: (vm.stat(b), vm.patches(b), vm.in_flight_versions(b))
            for b in vm.blob_ids()
        },
    }


def prefix_reference(ops: list[tuple], k: int) -> dict:
    """What recovery must produce after the first ``k`` ops: the
    uninterrupted state machine, with the unpublished tail resolved."""
    vm = VersionManager()
    apply_ops(vm, ops[:k])
    vm.rollback_unpublished()
    return vm_fingerprint(vm)


def test_crash_point_sweep_every_boundary_recovers_a_valid_prefix(tmp_path):
    ops = build_vm_ops(SEED)

    # pass 1: journal the whole workload once to learn record boundaries
    learn_dir = tmp_path / "learn"
    vm = VersionManager(journal=Journal(learn_dir))
    boundaries = [vm.journal.tail_offset]  # offset 0: crash before any record
    blob_ids: list[str] = []
    for op in ops:
        # inline apply to capture the boundary after each op
        if op[0] == "alloc":
            blob_ids.append(vm.alloc(op[1], op[2]))
        elif op[0] == "assign":
            vm.assign(blob_ids[op[1]], op[2], op[3])
        elif op[0] == "complete":
            vm.complete(blob_ids[op[1]], op[2])
        else:
            vm.abandon(blob_ids[op[1]], op[2])
        boundaries.append(vm.journal.tail_offset)
    vm.journal.close()
    assert len(boundaries) == len(ops) + 1
    assert sorted(set(boundaries)) == boundaries, "ops must append monotonically"

    # pass 2: the sweep — for every boundary, crash exactly on it (clean
    # cut after op k) and inside the following record (torn record k+1);
    # recovery must equal the resolved prefix of exactly k ops either way
    sweep: list[tuple[int, int]] = []
    for k, at in enumerate(boundaries):
        sweep.append((k, at))
        if k < len(ops):
            width = boundaries[k + 1] - at
            sweep.append((k, at + 1))            # torn: header cut short
            sweep.append((k, at + width - 1))    # torn: one byte missing
    for k, fail_after in sweep:
        d = tmp_path / f"crash-{k}-{fail_after}"
        crashed = VersionManager(journal=Journal(d, fail_after=fail_after))
        try:
            apply_ops(crashed, ops)
            # only the final boundary fits the whole workload: that sweep
            # point is "SIGKILL immediately after the last append"
            assert k == len(ops), f"fail_after={fail_after} never crashed"
            crashed.journal.close()
        except JournalCrashed:
            pass
        recovered = VersionManager(journal=Journal(d))
        expected = prefix_reference(ops, k)
        got = vm_fingerprint(recovered)
        assert got == expected, (
            f"crash at byte {fail_after} (prefix {k}): recovered state is "
            f"not the resolved prefix"
        )
        for b in recovered.blob_ids():
            assert recovered.in_flight_versions(b) == []
        recovered.journal.close()


def test_recovered_vm_continues_the_workload(tmp_path):
    """After a mid-workload crash and recovery, the surviving prefix is a
    fully functional vm: new assignments take the next version numbers
    and publish in order on the recovered history."""
    ops = build_vm_ops(SEED, n=25)
    vm = VersionManager(journal=Journal(tmp_path, fail_after=600))
    with pytest.raises(JournalCrashed):
        apply_ops(vm, ops)
    vm2 = VersionManager(journal=Journal(tmp_path))
    for b in vm2.blob_ids():
        latest = vm2.get_latest(b)
        t = vm2.assign(b, 0, PAGE)
        assert t.version == latest + 1
        assert vm2.complete(b, t.version) == t.version
    vm2.close()
    # clean shutdown compacted: a third incarnation replays zero records
    vm3 = VersionManager(journal=Journal(tmp_path))
    assert vm3.replayed_records == 0
    assert vm_fingerprint(vm3) == vm_fingerprint(vm2)


def test_clean_shutdown_replays_nothing(tmp_path):
    vm = VersionManager(journal=Journal(tmp_path))
    b = vm.alloc(TOTAL, PAGE)
    t = vm.assign(b, 0, PAGE)
    vm.complete(b, t.version)
    vm.close()
    vm2 = VersionManager(journal=Journal(tmp_path))
    assert vm2.replayed_records == 0 and vm2.rolled_back == 0
    assert vm2.get_latest(b) == 1


def test_clean_close_of_an_in_parent_durable_control_plane(tmp_path):
    """``build_tcp(state_dir=...)`` keeps a journaled vm and pm in the
    parent by default. A clean close compacts and closes both, as a node
    agent does on the shutdown control: the next incarnation replays
    nothing, and no journal file is left open."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        spec = DeploymentSpec(n_data=2, n_meta=2, cache_capacity=0)
        with build_tcp(spec, state_dir=tmp_path) as dep:
            assert dep.in_parent_actors() == ["vm", "pm"]
            client = dep.client()
            blob = client.alloc(TOTAL, PAGE)
            client.write(blob, bytes(PAGE), 0)
        del dep, client
        gc.collect()
    assert [str(w.message) for w in caught if w.category is ResourceWarning] == []
    vm = VersionManager(journal=Journal(tmp_path / "vm"))
    pm = ProviderManager(journal=Journal(tmp_path / "pm"))
    assert (vm.replayed_records, pm.replayed_records) == (0, 0)
    assert (vm.get_latest(blob), pm.providers()) == (1, [0, 1])
    vm.close()
    pm.close()


def test_runtime_compaction_is_transparent(tmp_path):
    vm = VersionManager(journal=Journal(tmp_path, snapshot_every=5))
    b = vm.alloc(TOTAL, PAGE)
    for _ in range(20):
        t = vm.assign(b, 0, PAGE)
        vm.complete(b, t.version)
    assert vm.journal.records_since_snapshot < 5
    vm.journal.close()  # unclean: recovery goes through snapshot + tail
    vm2 = VersionManager(journal=Journal(tmp_path, snapshot_every=5))
    assert vm_fingerprint(vm2) == vm_fingerprint(vm)


def test_vm_refuses_a_snapshot_of_another_layout(tmp_path):
    """A snapshot state without the vm's ``format`` tag (the layout whose
    patch histories were keyed by ``Interval`` objects) or with another
    one is refused, naming the directory — never misread as a history in
    which every lookup misses and every border ref comes back 0."""
    vm = VersionManager(journal=Journal(tmp_path))
    b = vm.alloc(TOTAL, PAGE)
    vm.complete(b, vm.assign(b, 0, PAGE).version)
    state = vm._snapshot_state()
    vm.close()
    untagged = {k: v for k, v in state.items() if k != "format"}
    for stale in (untagged, dict(state, format="repro.vm/1")):
        journal = Journal(tmp_path)
        journal.open()
        journal.compact(stale)
        journal.close()
        with pytest.raises(JournalError, match=re.escape(str(tmp_path))):
            VersionManager(journal=Journal(tmp_path))


def test_pm_refuses_a_snapshot_of_another_layout(tmp_path, capsys):
    """A pm snapshot state without the pm's ``format`` tag or with
    another one is refused, naming the directory and the format found —
    never restored as a placement that would desynchronize; a pm agent
    started on it exits 2 with that one line."""
    pm_dir = tmp_path / "pm"
    pm = ProviderManager(journal=Journal(pm_dir))
    for i in range(3):
        pm.register(i)
    pm.get_providers("b", "u", 0, 4)
    state = pm._snapshot()
    pm.close()
    assert state["format"] == "repro.pm/3"
    untagged = {k: v for k, v in state.items() if k != "format"}
    for stale, found in ((untagged, "None"), (dict(state, format="repro.pm/2"),
                                              "'repro.pm/2'")):
        journal = Journal(pm_dir)
        journal.open()
        journal.compact(stale)
        journal.close()
        with pytest.raises(JournalError, match=re.escape(str(pm_dir))) as err:
            ProviderManager(journal=Journal(pm_dir))
        assert f"format {found}" in str(err.value)
        assert node_main(["--actor", "pm", "--state-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: provider manager snapshot in")
        assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# provider manager recovery
# ---------------------------------------------------------------------------


class TestProviderManagerRecovery:
    def make(self, d):
        return ProviderManager(journal=Journal(d))

    def test_membership_load_and_cursor_survive(self, tmp_path):
        pm = self.make(tmp_path)
        for i in range(5):
            pm.register(i)
        pm.deregister(4)
        first = pm.get_providers("b", "u", 0, 5)
        pm.journal.close()  # crash

        ref = ProviderManager("round_robin")
        for i in range(5):
            ref.register(i)
        ref.deregister(4)
        assert ref.get_providers("b", "u", 0, 5) == first

        pm2 = self.make(tmp_path)
        assert pm2.providers() == [0, 1, 2, 3]
        # the round-robin cursor resumed: placement continues where the
        # dead incarnation stopped, not from provider 0
        assert pm2.get_providers("b", "v", 0, 3) == ref.get_providers("b", "v", 0, 3)

    @pytest.mark.parametrize(
        "strategy, replication",
        [("round_robin", 2), ("hash_ring", 1)],
        ids=["replication", "strategy"],
    )
    def test_settings_mismatch_refuses_loudly(
        self, tmp_path, strategy, replication
    ):
        pm = self.make(tmp_path)
        pm.register(0)
        pm.journal.close()
        with pytest.raises(ConfigError, match="refusing"):
            ProviderManager(
                strategy,
                replication=replication,
                journal=Journal(tmp_path),
            )


# ---------------------------------------------------------------------------
# validate before append: a refused request leaves no record, and a
# restart answers like the live actor
# ---------------------------------------------------------------------------


def durable_vm(directory) -> VersionManager:
    return VersionManager(journal=Journal(directory))


def durable_pm(directory) -> ProviderManager:
    return ProviderManager("hash_ring", journal=Journal(directory))


def pm_fingerprint(pm: ProviderManager) -> tuple:
    return (
        pm.providers(),
        pm.allocations,
        pm.pending_rebalance(),
        pm.draining(),
        pm.config(),
    )


def published_vm(directory) -> tuple[VersionManager, str]:
    """A durable vm holding one published write and nothing in flight."""
    vm = durable_vm(directory)
    blob = vm.alloc(TOTAL, PAGE)
    vm.complete(blob, vm.assign(blob, 0, PAGE).version)
    return vm, blob


def draining_pm(directory) -> tuple[ProviderManager, int]:
    """A durable hash-ring pm with an active plan draining provider 3."""
    pm = durable_pm(directory)
    for i in range(4):
        pm.register(i)
    manifests: dict[int, list] = {i: [] for i in range(4)}
    for page, group in enumerate(pm.get_providers("b", "u", 0, 80)):
        for pid in group:
            manifests[pid].append((("b", "u", page), PAGE))
    plan = pm.plan_rebalance(sorted(manifests.items()), 3)
    assert plan["total"] >= 20
    return pm, plan["plan"]


@pytest.mark.parametrize(
    "setup, refused, error",
    [
        pytest.param(
            published_vm, lambda vm, blob: vm.assign(blob, 0, 4096.0),
            TypeError, id="vm.assign-float-size",
        ),
        pytest.param(
            draining_pm, lambda pm, _: pm.get_providers("b", "u", 0, 2.0),
            TypeError, id="pm.get_providers-float-npages",
        ),
        pytest.param(
            draining_pm, lambda pm, _: pm.get_providers("b", "u", "0", 2),
            TypeError, id="pm.get_providers-str-first_page",
        ),
        pytest.param(
            draining_pm, lambda pm, _: pm.get_providers("b", 7, 0, 2),
            TypeError, id="pm.get_providers-int-write_uid",
        ),
        pytest.param(
            draining_pm, lambda pm, _: pm.register([1]),
            TypeError, id="pm.register-list",
        ),
        pytest.param(
            draining_pm, lambda pm, plan: pm.migration_done(plan, 999),
            ValueError, id="pm.migration_done-out-of-range",
        ),
    ],
)
def test_a_refused_request_leaves_no_record(tmp_path, setup, refused, error):
    """A journaled entry point validates its arguments before it appends:
    a request it refuses raises a typed error and logs nothing, so the
    next incarnation on the state dir starts, with the state unchanged.
    (A record that failed to apply stayed in the log and failed again at
    every restart.)"""
    actor, arg = setup(tmp_path)
    is_vm = isinstance(actor, VersionManager)
    fingerprint = vm_fingerprint if is_vm else pm_fingerprint
    before, tail = fingerprint(actor), actor.journal.tail_offset
    with pytest.raises(error):
        refused(actor, arg)
    assert actor.journal.tail_offset == tail
    actor.journal.close()  # crash: the restart replays the raw log
    reopened = (durable_vm if is_vm else durable_pm)(tmp_path)
    assert fingerprint(reopened) == before
    reopened.close()


#: argument pools mixing well-formed values with floats, strings, lists,
#: negatives and out-of-range values
PAGES = st.integers(0, NPAGES - 1).map(lambda n: n * PAGE)
OFFSETS = st.one_of(PAGES, PAGES, st.sampled_from([TOTAL, -PAGE, 1.0, None]))
SIZES = st.one_of(
    st.sampled_from([PAGE, 2 * PAGE]),
    st.sampled_from([PAGE, 2 * PAGE]),
    st.sampled_from([0, -PAGE, 3, 4096.0, "4096", [PAGE]]),
)
VERSIONS = st.one_of(st.integers(-1, 6), st.sampled_from([1.0, "1", [1]]))
PIDS = st.one_of(st.integers(0, 5), st.sampled_from([1.0, "1", [1], None]))
COUNTS = st.one_of(
    st.integers(1, 4), st.integers(-1, 4), st.sampled_from([1, 2.0, "2", [2]])
)
RESTART_SETTINGS = settings(
    derandomize=True,
    database=None,
    max_examples=25,
    stateful_step_count=20,
    deadline=None,
)


class RestartMachine(RuleBasedStateMachine):
    """Well-formed and malformed RPCs from one durable actor's table;
    after every step, the actor recovered from a copy of its state dir
    answers like the live one (``Journal.open`` compacts and truncates,
    so the live files are never reopened)."""

    def __init__(self) -> None:
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="restart-"))
        self.actor = self.durable(self.root / "live")

    def call(self, method: str, *args):
        """Serve one RPC; a refusal must be a typed error (an IndexError
        or KeyError would be an argument the actor failed to check)."""
        try:
            return self.actor.handle(method, args)
        except (ReproError, TypeError, ValueError):
            return None

    @invariant()
    def a_restart_answers_like_the_live_actor(self) -> None:
        copy = self.root / "copy"
        shutil.copytree(self.root / "live", copy)
        restarted = self.durable(copy)
        try:
            self.check_alike(restarted)
        finally:
            restarted.close()
            shutil.rmtree(copy)

    def teardown(self) -> None:
        self.actor.close()
        shutil.rmtree(self.root)


class VmRestart(RestartMachine):
    durable = staticmethod(durable_vm)

    @initialize()
    def populate(self) -> None:
        self.blobs = [self.actor.alloc(TOTAL, PAGE)]

    # one rule that draws the wire name: hypothesis switches whole rules
    # off per example, and every example should mix every RPC
    @rule(
        method=st.sampled_from(
            ["vm.alloc", "vm.assign", "vm.assign", "vm.complete", "vm.abandon"]
        ),
        pick=st.integers(0, 3),
        total=st.sampled_from([TOTAL, 4096.0, 3, "x"]),
        offset=OFFSETS,
        size=SIZES,
        version=VERSIONS,
        live=st.booleans(),
    )
    def rpc(self, method, pick, total, offset, size, version, live) -> None:
        """``pick`` 3 names an unknown blob; ``live`` completes the oldest
        or abandons the newest version in flight, when there is one."""
        if method == "vm.alloc":
            blob = self.call(method, total, PAGE)
            if blob is not None:
                self.blobs.append(blob)
            return
        blob = "blob-none" if pick == 3 else self.blobs[pick % len(self.blobs)]
        if method == "vm.assign":
            self.call(method, blob, offset, size)
            return
        in_flight = self.actor.in_flight_versions(blob) if pick < 3 else []
        if live and in_flight:
            version = in_flight[0 if method == "vm.complete" else -1]
        self.call(method, blob, version)

    def check_alike(self, vm: VersionManager) -> None:
        """``stat``, ``get_latest`` and the patches up to the latest
        published version, with nothing in flight after the restart."""
        live = self.actor
        assert vm.blob_ids() == live.blob_ids()
        for blob in live.blob_ids():
            latest = live.get_latest(blob)
            assert vm.stat(blob) == live.stat(blob)
            assert vm.get_latest(blob) == latest
            assert vm.patches(blob) == [
                p for p in live.patches(blob) if p[0] <= latest
            ]
            assert vm.in_flight_versions(blob) == []


class PmRestart(RestartMachine):
    durable = staticmethod(durable_pm)

    @initialize()
    def populate(self) -> None:
        self.pages: dict[tuple, tuple] = {}  # hashed page key -> holders
        for pid in range(4):
            self.actor.register(pid)

    @rule(
        method=st.sampled_from(
            ["pm.register", "pm.deregister",
             "pm.get_providers", "pm.get_providers",
             "pm.plan_rebalance", "pm.migration_done", "pm.migration_done",
             "pm.migration_commit"]
        ),
        pid=PIDS,
        first=COUNTS,
        npages=COUNTS,
        uid=st.sampled_from(["u", "u", "u", b"u"]),
        index=st.one_of(st.integers(-1, 12), st.sampled_from([999, 1.0, "1", [1]])),
        live=st.booleans(),
    )
    def rpc(self, method, pid, first, npages, uid, index, live) -> None:
        """``live`` names the active plan and its first pending move;
        otherwise the plan id is the next one, which does not exist."""
        pending = self.actor.pending_rebalance()
        plan = pending["plan"] if pending else 1
        if method in ("pm.register", "pm.deregister"):
            self.call(method, pid)
        elif method == "pm.get_providers":
            groups = self.call(method, "b", uid, first, npages)
            for i, group in enumerate(groups or ()):
                self.pages[("b", uid, first + i)] = group
        elif method == "pm.plan_rebalance":
            manifests: dict[int, list] = {}
            for key, group in self.pages.items():
                for holder in group:
                    manifests.setdefault(holder, []).append((key, PAGE))
            drain = pid if live else None
            self.call(method, sorted(manifests.items()), drain)
        elif method == "pm.migration_done":
            if live and pending and pending["moves"]:
                index = pending["moves"][0][0]
            self.call(method, plan if live else plan + 1, index)
        else:
            self.call(method, plan if live else plan + 1)

    def check_alike(self, pm: ProviderManager) -> None:
        assert pm_fingerprint(pm) == pm_fingerprint(self.actor)


TestVmRestart = VmRestart.TestCase
TestVmRestart.settings = RESTART_SETTINGS
TestPmRestart = PmRestart.TestCase
TestPmRestart.settings = RESTART_SETTINGS


# ---------------------------------------------------------------------------
# state-dir locking and the CLI
# ---------------------------------------------------------------------------


class TestStateDirLock:
    def test_exclusive_within_and_across_acquires(self, tmp_path):
        lock = StateDirLock(tmp_path).acquire()
        assert lock.held
        with pytest.raises(ConfigError, match="locked by a live agent"):
            StateDirLock(tmp_path).acquire()
        lock.release()
        assert not lock.held
        StateDirLock(tmp_path).acquire().release()  # free after release

    def test_lock_names_the_holder_pid(self, tmp_path):
        import os

        lock = StateDirLock(tmp_path).acquire()
        try:
            with pytest.raises(ConfigError, match=str(os.getpid())):
                StateDirLock(tmp_path).acquire()
        finally:
            lock.release()


class TestNodeCliStateDir:
    def test_state_dir_that_is_a_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "occupied"
        path.write_text("i am a file")
        code = node_main(["--actor", "vm", "--state-dir", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_locked_state_dir_exits_2(self, tmp_path, capsys):
        lock = StateDirLock(tmp_path).acquire()
        try:
            code = node_main(["--actor", "vm", "--state-dir", str(tmp_path)])
        finally:
            lock.release()
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "locked by a live agent" in err

    def test_state_dir_is_created_and_locked_for_real_agents(self, tmp_path):
        """Two real CLI processes on one state dir: the second must exit 2
        with the one-line error while the first is alive."""
        import os

        state = tmp_path / "vm-state"
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        argv = [sys.executable, "-m", "repro.tools.node",
                "--actor", "vm", "--port", "0", "--state-dir", str(state)]
        first = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=env, text=True,
        )
        try:
            assert first.stdout.readline().startswith("READY")
            assert state.is_dir() and (state / "agent.lock").exists()
            second = subprocess.run(
                argv, capture_output=True, text=True, timeout=30, env=env,
            )
            assert second.returncode == 2
            assert "locked by a live agent" in second.stderr
            assert second.stderr.strip().count("\n") == 0
        finally:
            first.kill()
            first.wait(10)

