"""Provider manager.

Keeps the registry of live data providers (each registers on entering the
system, paper §III.A) and answers each WRITE's allocation request with one
provider per fresh page — or ``replication`` providers per page when page
replication is enabled (our implementation of the paper's future-work fault
tolerance item).

RPC surface: the ``handle`` table at the end of :class:`ProviderManager`.

Placement (:mod:`repro.providers.strategies`) is the pm's alone:
``pm.get_providers`` is the one allocation verb, and a client names only
the pages it writes. A ``round_robin`` pm cycles a cursor over the sorted
live set; a ``hash_ring`` pm places each page at its consistent-hash home
(:class:`~repro.providers.strategies.HashRing`, key ``(blob, write_uid,
page)``). Either way the successors of each primary hold its replicas.

Elastic membership (PR 7): on a ``hash_ring`` pm, admitting or draining a
provider implies a computable, minimal set of page moves. The pm plans
those moves from provider manifests (``pm.plan_rebalance``, whose
``drain`` empties one provider), journals the plan and every completed move
(idempotent, resumable — a pm crash mid-rebalance recovers the plan from
its WAL and the executor finishes it), tracks moved pages in a relocation
table served via ``pm.locate`` (the read path's fallback when a page left
its recorded provider), and keeps draining providers out of fresh
allocations until their last replica is handed off and they deregister.

Durability (PR 6): with a :class:`~repro.core.journal.Journal` attached,
membership and allocation follow the WAL discipline of
:class:`~repro.core.journal.Journaled`, the body it shares with the
version manager. Allocation records log only the *inputs* (blob, write
uid, first page, page count, and the live-provider list placement saw);
replay re-drives placement, which reproduces the exact groups **and** the
round-robin cursor for the next incarnation. Snapshots carry the cursor,
and a ``config`` record pins strategy/replication so a restart with
different settings fails loudly (:class:`~repro.errors.ConfigError`)
instead of silently desynchronizing placement.
"""

from __future__ import annotations

import logging
import operator
from typing import Any

from repro.core.journal import Journaled
from repro.errors import ConfigError, NotEnoughProviders
from repro.net.sansio import rpc_handler
from repro.providers.strategies import STRATEGIES, HashRing

logger = logging.getLogger("repro.pm")


class ProviderManager(Journaled):
    """Tracks providers and allocates storage targets for fresh pages."""

    kind = "provider manager"
    #: version 3: one ``alloc`` record per WRITE,
    #: ``(blob, write_uid, first_page, npages, live)``
    snapshot_format = "repro.pm/3"

    def __init__(
        self,
        strategy: str = "round_robin",
        replication: int = 1,
        journal=None,
    ) -> None:
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
            )
        if replication < 1:
            raise ValueError(f"replication must be >= 1, got {replication}")
        self.strategy = strategy
        self.replication = replication
        self._ring = HashRing() if strategy == "hash_ring" else None
        self._providers: set[int] = set()
        self._cursor = 0  # round-robin position of the next page
        self.allocations = 0
        # elastic membership: pages whose holders differ from the groups
        # recorded in metadata (moved by a rebalance), the active
        # migration plan, providers being drained, and the plan counter
        self._relocated: dict[tuple, tuple[int, ...]] = {}
        self._migration: dict[str, Any] | None = None
        self._draining: set[int] = set()
        self._plan_seq = 0
        self._attach(journal)

    # -- durability -----------------------------------------------------

    def _config_tuple(self) -> tuple:
        return (self.strategy, self.replication)

    def _snapshot_state(self) -> dict[str, Any]:
        return {
            "providers": self._providers,
            "allocations": self.allocations,
            "cursor": self._cursor,
            "config": self._config_tuple(),
            "relocated": self._relocated,
            "migration": self._migration,
            "draining": self._draining,
            "plan_seq": self._plan_seq,
        }

    def _restore(self, state: dict[str, Any]) -> None:
        self._check_config(state["config"], "snapshot")
        self._providers = state["providers"]
        self.allocations = state["allocations"]
        self._cursor = state["cursor"]
        self._relocated = state["relocated"]
        self._migration = state["migration"]
        self._draining = state["draining"]
        self._plan_seq = state["plan_seq"]

    def _check_config(self, recorded: tuple, origin: str) -> None:
        if tuple(recorded) != self._config_tuple():
            raise ConfigError(
                f"pm state dir was written with settings {tuple(recorded)!r} "
                f"but this agent was started with {self._config_tuple()!r} "
                f"({origin}); placement would desynchronize — refusing"
            )

    def _apply_config(self, recorded: tuple) -> None:
        self._check_config(recorded, "log")

    def _recovered(self, fresh: bool) -> None:
        """Pin the settings on a fresh directory."""
        if fresh:
            self.journal.append(("config", self._config_tuple()))
        logger.info(
            "pm recovery: %d provider(s), %d log record(s) replayed",
            len(self._providers), self.replayed_records,
        )

    # -- membership -----------------------------------------------------

    def register(self, provider_id: int) -> int:
        """Admit a provider; returns the provider count."""
        return self._log_and_apply(("register", operator.index(provider_id)))

    def _apply_register(self, provider_id: int) -> int:
        self._providers.add(provider_id)
        return len(self._providers)

    def deregister(self, provider_id: int) -> int:
        """Remove a provider; returns the remaining count."""
        return self._log_and_apply(("deregister", operator.index(provider_id)))

    def _apply_deregister(self, provider_id: int) -> int:
        self._providers.discard(provider_id)
        self._draining.discard(provider_id)
        return len(self._providers)

    def providers(self) -> list[int]:
        """The live provider ids, sorted."""
        return sorted(self._providers)

    # -- allocation ------------------------------------------------------

    def get_providers(
        self, blob_id: str, write_uid: str, first_page: int, npages: int
    ) -> list[tuple[int, ...]]:
        """Choose ``replication`` distinct providers for each fresh page of
        one WRITE (pages ``first_page`` onward of ``write_uid``): ``npages``
        tuples of ``replication`` provider ids, placed by this pm's
        strategy over the providers registered and not draining."""
        if type(write_uid) is not str:
            raise TypeError(f"write_uid must be a str, got {write_uid!r}")
        first_page, npages = operator.index(first_page), operator.index(npages)
        if first_page < 0 or npages < 1:
            raise ValueError(
                f"need first_page >= 0 and npages >= 1, got {first_page}, {npages}"
            )
        live = tuple(p for p in sorted(self._providers) if p not in self._draining)
        if len(live) < self.replication:
            raise NotEnoughProviders(
                f"need {self.replication} providers, have {len(live)}"
            )
        return self._log_and_apply(
            ("alloc", blob_id, write_uid, first_page, npages, live)
        )

    def _apply_alloc(
        self,
        blob_id: str,
        write_uid: str,
        first_page: int,
        npages: int,
        live: tuple[int, ...],
    ) -> list[tuple[int, ...]]:
        r = self.replication
        self.allocations += npages
        if self._ring is not None:
            # each page at its consistent-hash home: placement depends only
            # on the page key and the live set, so a membership change
            # implies a computable set of page moves
            place = self._ring.place_key
            return [
                tuple(place((blob_id, write_uid, first_page + i), live, r))
                for i in range(npages)
            ]
        m = len(live)
        groups: list[tuple[int, ...]] = []
        for _ in range(npages):
            # the primary at the cursor, its replicas on the successors:
            # distinct and deterministic
            first = self._cursor % m
            self._cursor += 1
            groups.append(tuple(live[(first + step) % m] for step in range(r)))
        return groups

    # -- elastic membership: rebalance, relocation, drain -----------------

    def _place_key(self):
        if self._ring is None:
            raise ConfigError(
                f"strategy {self.strategy!r} is not hash-aware; elastic "
                "rebalancing requires a key-addressable placement "
                "(strategy 'hash_ring')"
            )
        return self._ring.place_key

    def locate(self, keys: list) -> list[tuple[int, ...]]:
        """Current holders of pages a rebalance moved; ``()`` = not moved.

        The read path's fallback: when every provider recorded in a tree
        node answers PageMissing, the client asks the pm where the page
        went. Keys are normalized to plain tuples so PageKey objects and
        bare tuples address the same relocation entry.
        """
        return [self._relocated.get(tuple(k), ()) for k in keys]

    def plan_rebalance(
        self, manifests: list, drain: int | None = None
    ) -> dict[str, Any] | None:
        """Plan page moves restoring hash placement over the live set.

        ``manifests`` is ``[(pid, [(key, nbytes), ...]), ...]`` — what
        each provider actually holds. With ``drain`` set, that provider
        is excluded from the target set (and durably marked draining, so
        fresh allocations skip it) and every page it holds moves off.

        Returns the pending-plan view (see :meth:`pending_rebalance`), or
        ``None`` when placement is already consistent and nothing is
        draining. If a plan is already active it is returned as-is — the
        executor must finish and commit it first (this is also the resume
        path after a pm crash mid-rebalance: the recovered plan comes
        back minus the moves whose ``mig_done`` records survived).
        """
        if self._migration is not None:
            return self.pending_rebalance()
        place = self._place_key()
        if drain is not None:
            drain = operator.index(drain)
            if drain not in self._providers:
                raise ConfigError(f"cannot drain unknown provider {drain}")
        live = sorted(
            p
            for p in self._providers
            if p not in self._draining and p != drain
        )
        if len(live) < self.replication:
            raise NotEnoughProviders(
                f"draining would leave {len(live)} providers, "
                f"replication needs {self.replication}"
            )
        moves = self._compute_moves(manifests, live, place)
        if not moves and drain is None:
            return None
        plan_id = self._plan_seq + 1
        self._log_and_apply(("mig_plan", plan_id, tuple(moves), drain))
        return self.pending_rebalance()

    def _compute_moves(self, manifests: list, live: list[int], place) -> list:
        """Minimal move list: per key, copies (src kept until the copy
        lands everywhere) then reclaims — the ring's copy-then-reclaim
        order, as journal records. Each move carries the holder tuple
        that is true once it completes, so replaying ``mig_done`` records
        rebuilds the relocation table exactly."""
        holders_by_key: dict[tuple, list[int]] = {}
        nbytes_by_key: dict[tuple, int] = {}
        originals: dict[tuple, Any] = {}
        for pid, entries in manifests:
            for key, nbytes in entries:
                k = tuple(key)
                holders_by_key.setdefault(k, []).append(pid)
                nbytes_by_key[k] = nbytes
                originals[k] = key
        moves: list[tuple] = []
        for k in sorted(holders_by_key):
            holders = sorted(holders_by_key[k])
            desired = list(place(k, live, self.replication))
            to_add = [p for p in desired if p not in holders]
            to_del = [p for p in holders if p not in desired]
            if not to_add and not to_del:
                continue
            key, nbytes = originals[k], nbytes_by_key[k]
            src = next((p for p in holders if p in desired), holders[0])
            current = [p for p in desired if p in holders]
            for dst in to_add:
                current = current + [dst]
                moves.append(
                    ("copy", key, src, dst, nbytes,
                     tuple(p for p in desired if p in current))
                )
            remaining = [p for p in current if p in desired] + to_del
            for pid in to_del:
                remaining = [p for p in remaining if p != pid]
                moves.append(("free", key, pid, None, nbytes, tuple(remaining)))
        return moves

    def _apply_mig_plan(
        self, plan_id: int, moves: tuple, drain: int | None
    ) -> bool:
        self._plan_seq = plan_id
        self._migration = {
            "id": plan_id,
            "moves": list(moves),
            "done": set(),
            "drain": drain,
        }
        if drain is not None:
            self._draining.add(drain)
        return True

    def migration_done(self, plan_id: int, index: int) -> bool:
        """Record one completed move (idempotent — safe to re-report
        after an executor or pm restart; duplicates are not re-journaled)."""
        mig = self._migration
        index = operator.index(index)
        if mig is None or mig["id"] != plan_id or index in mig["done"]:
            return True
        if not 0 <= index < len(mig["moves"]):
            raise ValueError(
                f"migration plan {plan_id} has no move {index} "
                f"(it has {len(mig['moves'])})"
            )
        return self._log_and_apply(("mig_done", plan_id, index))

    def _apply_mig_done(self, plan_id: int, index: int) -> bool:
        mig = self._migration
        if mig is None or mig["id"] != plan_id or index in mig["done"]:
            return True
        _kind, key, _src, _dst, _nbytes, holders_after = mig["moves"][index]
        self._relocated[tuple(key)] = tuple(holders_after)
        mig["done"].add(index)
        return True

    def migration_commit(self, plan_id: int) -> bool:
        """Close the plan once every move is done (idempotent). Draining
        marks persist until the drained provider deregisters."""
        mig = self._migration
        if mig is None or mig["id"] != plan_id:
            return True
        pending = len(mig["moves"]) - len(mig["done"])
        if pending:
            raise ConfigError(
                f"migration plan {plan_id} has {pending} unfinished move(s)"
            )
        return self._log_and_apply(("mig_commit", plan_id))

    def _apply_mig_commit(self, plan_id: int) -> bool:
        if self._migration is not None and self._migration["id"] == plan_id:
            self._migration = None
        return True

    def pending_rebalance(self) -> dict[str, Any] | None:
        """The active migration plan, executor- and operator-readable:
        remaining moves keep their plan indices so ``migration_done``
        reports land on the right record after a resume."""
        mig = self._migration
        if mig is None:
            return None
        return {
            "plan": mig["id"],
            "drain": mig["drain"],
            "total": len(mig["moves"]),
            "done": len(mig["done"]),
            "moves": [
                (i, kind, key, src, dst, nbytes)
                for i, (kind, key, src, dst, nbytes, _after) in enumerate(
                    mig["moves"]
                )
                if i not in mig["done"]
            ],
        }

    def draining(self) -> list[int]:
        return sorted(self._draining)

    def config(self) -> dict[str, Any]:
        """Deployment-visible allocation settings.

        Exposed over the wire (``pm.config``) so a cluster builder can
        verify a *remote* pm agent was started with the strategy and
        replication the client's ``DeploymentSpec`` assumes — a silent
        replication mismatch would surface only as data loss at the
        first storage-node failure.
        """
        return {"replication": self.replication, "strategy": self.strategy}

    handle = rpc_handler(
        kind,
        {
            "pm.get_providers": get_providers,
            "pm.register": register,
            "pm.deregister": deregister,
            "pm.providers": providers,
            "pm.config": config,
            "pm.locate": locate,
            "pm.plan_rebalance": plan_rebalance,
            "pm.migration_done": migration_done,
            "pm.migration_commit": migration_commit,
            "pm.pending_rebalance": pending_rebalance,
            "pm.draining": draining,
        },
    )
