"""Page-allocation strategies for the provider manager.

The paper requires "some strategy that favors global load balancing"
(§III.A). Three implementations are provided; all are deterministic given
their construction parameters so experiments are reproducible.

A strategy maps ``(npages, providers, load)`` to a list of provider ids,
one per fresh page, where ``load`` is the manager's view of allocated bytes
per provider.
"""

from __future__ import annotations

import hashlib
import heapq
from abc import ABC, abstractmethod
from bisect import bisect_right
from typing import Sequence

from repro.util.rng import substream


def _sha1_int(data: bytes) -> int:
    return int.from_bytes(hashlib.sha1(data).digest(), "big")


def key_id(key: object) -> int:
    """Position of a key on the 160-bit ring (SHA-1 of its ``repr``)."""
    return _sha1_int(repr(key).encode())


def node_id(name: str) -> int:
    """Position of a named ring member (SHA-1 of ``node:<name>``)."""
    return _sha1_int(f"node:{name}".encode())


class AllocationStrategy(ABC):
    """Strategy interface: choose a provider for each fresh page."""

    #: config-file / CLI name (the key in :func:`make_strategy`'s table);
    #: exposed over the wire via ``pm.config`` so a deployment builder can
    #: verify a remote pm agrees with the client's DeploymentSpec
    name = ""

    @abstractmethod
    def allocate(
        self,
        npages: int,
        providers: Sequence[int],
        load: dict[int, int],
    ) -> list[int]:
        """Return ``npages`` provider ids (repetition allowed)."""

    def reset(self) -> None:
        """Forget internal state (e.g. round-robin cursor)."""

    def params(self) -> dict:
        """Effective constructor parameters (defaults resolved).

        Travels in ``pm.config`` next to :attr:`name` so two strategy
        instances can be compared for *placement equivalence* across
        processes — same class and same params means the same
        deterministic allocation sequence.
        """
        return {}


class RoundRobin(AllocationStrategy):
    """Cycle through providers; simple and perfectly balanced in aggregate.

    This matches the uniform dispersal the paper's experiments rely on: a
    segment of n pages lands on n distinct providers whenever n <= provider
    count, maximizing parallel transfer.
    """

    name = "round_robin"

    def __init__(self) -> None:
        self._cursor = 0

    def allocate(
        self, npages: int, providers: Sequence[int], load: dict[int, int]
    ) -> list[int]:
        out = []
        m = len(providers)
        for _ in range(npages):
            out.append(providers[self._cursor % m])
            self._cursor += 1
        return out

    def reset(self) -> None:
        self._cursor = 0


class LeastLoaded(AllocationStrategy):
    """Greedy: each page goes to the provider with the fewest allocated
    bytes (counting pages allocated earlier in the same request)."""

    name = "least_loaded"

    def __init__(self, pagesize_hint: int = 1) -> None:
        self.pagesize_hint = max(1, pagesize_hint)

    def allocate(
        self, npages: int, providers: Sequence[int], load: dict[int, int]
    ) -> list[int]:
        # (load, provider_id) heap; stable for equal loads via provider id.
        heap = [(load.get(p, 0), p) for p in providers]
        heapq.heapify(heap)
        out = []
        for _ in range(npages):
            current, p = heapq.heappop(heap)
            out.append(p)
            heapq.heappush(heap, (current + self.pagesize_hint, p))
        return out

    def params(self) -> dict:
        return {"pagesize_hint": self.pagesize_hint}


class RandomK(AllocationStrategy):
    """Power-of-k-choices: sample k candidates, take the least loaded.

    ``k=1`` degenerates to uniform random placement; ``k=2`` already gives
    near-optimal balance with high probability (classic balls-into-bins
    result), at lower bookkeeping cost than :class:`LeastLoaded`.
    """

    name = "random_k"

    def __init__(self, k: int = 2, seed: int = 0) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self._rng = substream(seed, "randomk")
        self._seed = seed

    def allocate(
        self, npages: int, providers: Sequence[int], load: dict[int, int]
    ) -> list[int]:
        out = []
        local = dict(load)
        m = len(providers)
        for _ in range(npages):
            picks = self._rng.integers(0, m, size=min(self.k, m))
            best = min((providers[int(i)] for i in picks), key=lambda p: local.get(p, 0))
            out.append(best)
            local[best] = local.get(best, 0) + 1
        return out

    def reset(self) -> None:
        self._rng = substream(self._seed, "randomk")

    def params(self) -> dict:
        return {"k": self.k, "seed": self._seed}


class HashRing(AllocationStrategy):
    """Consistent-hash placement on a virtual-node ring (elastic clusters).

    Each provider occupies ``vnodes`` positions on the 160-bit SHA-1 ring
    (:func:`node_id`); a page key's home is the first position clockwise
    of :func:`key_id` of the key as a plain tuple, so a ``PageKey`` and the
    equal tuple share a home. Because a provider's positions depend
    only on its id, admitting or draining one provider moves only the keys
    whose home interval it gains or loses — the property the elastic
    rebalancer relies on to compute minimal page migrations
    (:meth:`place_key` is the single placement truth shared by the
    allocation path and the migration planner).

    ``allocate`` (the keyless strategy surface) walks providers in ring
    order with a cursor — deterministic and replay-safe like RoundRobin —
    so the strategy stays usable anywhere a strategy is accepted; the
    hash-aware pm allocation path calls :meth:`place_key` instead.
    """

    name = "hash_ring"

    def __init__(self, vnodes: int = 64) -> None:
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = vnodes
        self._cursor = 0
        # ring cache per provider set: (sorted positions, position -> pid)
        self._rings: dict[tuple[int, ...], tuple[list[int], dict[int, int]]] = {}

    def _ring(
        self, providers: Sequence[int]
    ) -> tuple[list[int], dict[int, int]]:
        key = tuple(sorted(providers))
        cached = self._rings.get(key)
        if cached is not None:
            return cached
        owner: dict[int, int] = {}
        for pid in key:
            for v in range(self.vnodes):
                owner[node_id(f"provider:{pid}#{v}")] = pid
        positions = sorted(owner)
        if len(self._rings) >= 64:  # membership sets are few; stay bounded
            self._rings.clear()
        self._rings[key] = (positions, owner)
        return positions, owner

    def place_key(
        self, key: tuple, providers: Sequence[int], count: int = 1
    ) -> list[int]:
        """``count`` distinct providers for ``key``, in ring order.

        Position 0 is the key's home (primary); the rest are the next
        distinct providers clockwise — the replica set.
        """
        positions, owner = self._ring(providers)
        want = min(count, len(set(owner.values())))
        start = bisect_right(positions, key_id(tuple(key)))
        out: list[int] = []
        for i in range(len(positions)):
            pid = owner[positions[(start + i) % len(positions)]]
            if pid not in out:
                out.append(pid)
                if len(out) == want:
                    break
        return out

    def allocate(
        self, npages: int, providers: Sequence[int], load: dict[int, int]
    ) -> list[int]:
        ring_sorted = sorted(providers, key=lambda p: node_id(f"provider:{p}#0"))
        out = []
        m = len(ring_sorted)
        for _ in range(npages):
            out.append(ring_sorted[self._cursor % m])
            self._cursor += 1
        return out

    def reset(self) -> None:
        self._cursor = 0

    def params(self) -> dict:
        return {"vnodes": self.vnodes}


def make_strategy(name: str, **kwargs: object) -> AllocationStrategy:
    """Factory used by deployment configs: ``round_robin`` / ``least_loaded``
    / ``random_k`` / ``hash_ring``."""
    table = {
        "round_robin": RoundRobin,
        "least_loaded": LeastLoaded,
        "random_k": RandomK,
        "hash_ring": HashRing,
    }
    try:
        cls = table[name]
    except KeyError:
        raise ValueError(
            f"unknown strategy {name!r}; expected one of {sorted(table)}"
        ) from None
    return cls(**kwargs)  # type: ignore[arg-type]
