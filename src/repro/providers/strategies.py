"""Page placement for the provider manager.

The paper requires "some strategy that favors global load balancing"
(§III.A). A pm runs one of two rules, named by :data:`STRATEGIES`:

- ``round_robin`` — allocation cycles a cursor over the sorted live set,
  the uniform dispersal the paper's experiments rely on (a segment of n
  pages lands on n distinct providers whenever n <= provider count); the
  cursor lives in the pm;
- ``hash_ring`` — places each page key at its consistent-hash home
  (:class:`HashRing`), which elastic membership needs to compute minimal
  page moves.

The pm applies its rule inside its one allocation verb,
``pm.get_providers``, so no client knows which rule it runs. Both rules
are deterministic, so placement replays exactly from the pm's journal.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from typing import Sequence

#: the placement rules a pm (``DeploymentSpec.strategy``, ``--strategy``)
#: accepts
STRATEGIES = ("round_robin", "hash_ring")

#: ring positions per provider
VNODES = 64


def _sha1_int(data: bytes) -> int:
    return int.from_bytes(hashlib.sha1(data).digest(), "big")


def key_id(key: object) -> int:
    """Position of a key on the 160-bit ring (SHA-1 of its ``repr``)."""
    return _sha1_int(repr(key).encode())


def node_id(name: str) -> int:
    """Position of a named ring member (SHA-1 of ``node:<name>``)."""
    return _sha1_int(f"node:{name}".encode())


class HashRing:
    """Consistent-hash placement on a virtual-node ring (elastic clusters).

    Each provider occupies :data:`VNODES` positions on the 160-bit SHA-1
    ring (:func:`node_id`); a page key's home is the first position
    clockwise of :func:`key_id` of the key as a plain tuple, so a
    ``PageKey`` and the equal tuple share a home. Because a provider's
    positions depend only on its id, admitting or draining one provider
    moves only the keys whose home interval it gains or loses — the
    property the elastic rebalancer relies on to compute minimal page
    migrations (:meth:`place_key` is the single placement truth shared by
    the allocation path and the migration planner).
    """

    def __init__(self) -> None:
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
            for v in range(VNODES):
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
