"""Cluster addressing: actor names, endpoints, and the cluster map.

The in-memory drivers address actors with Python values — ``"vm"`` or
``("data", 3)`` — which never leave the interpreter. A multi-host cluster
needs the same addresses in three portable forms:

- **actor names**: the canonical textual spelling of an actor address
  (``"vm"``, ``"data/3"``), stable across processes and usable on a
  command line (``python -m repro.tools.node --actor data/3``) and in the
  TCP handshake that tells a node agent which actor a fresh connection
  serves;
- **endpoints**: ``host:port`` pairs naming where a node agent listens;
- the :class:`ClusterMap`: the actor → endpoint registry a driver's
  remote actors are registered from
  (:meth:`~repro.net.threaded.PeerRegistry.register_map`), parseable
  from plain ``{"data/0": "10.0.0.5:7000"}`` dicts (the form
  :class:`~repro.core.config.DeploymentSpec.endpoints` carries) so the
  exact same deployment code drives loopback CI ports and real hosts.

Invariants (the actor-name grammar, pinned by
``tests/test_tcp_transport.py``):

- only the two actor shapes the system actually uses are representable —
  a bare string kind (``vm``, ``pm``) and a ``(kind, index)`` pair with
  ``index >= 0`` — which is what makes the textual form total and
  unambiguous; ``format_actor``/``parse_actor`` are exact inverses on
  every representable address;
- the control-plane actors ``vm`` and ``pm`` are first-class addresses:
  a cluster map may bind them to endpoints exactly like ``data/N``
  (:meth:`ClusterMap.has_control_plane` asks whether a map describes a
  fully distributed control plane), which is how a deployment runs with
  no actor in the client parent;
- a :class:`ClusterMap` never maps one actor twice, so every driver dial
  has exactly one destination.
"""

from __future__ import annotations

from typing import Hashable, Iterator, Mapping, NamedTuple

from repro.errors import ConfigError

Address = Hashable

#: separator between kind and index in an actor name ("data/3")
_ACTOR_SEP = "/"

#: the deployment-singleton actors: the version manager (the system's one
#: serialization point) and the provider manager (the allocation authority)
CONTROL_ACTORS = ("vm", "pm")


class Endpoint(NamedTuple):
    """Where a node agent listens: a resolvable host and a TCP port."""

    host: str
    port: int

    def __str__(self) -> str:
        return f"{self.host}:{self.port}"


def parse_endpoint(text: str | Endpoint) -> Endpoint:
    """``"host:port"`` → :class:`Endpoint` (IPv6 hosts use ``[...]:port``)."""
    if isinstance(text, Endpoint):
        return text
    if isinstance(text, tuple) and len(text) == 2:
        return Endpoint(str(text[0]), int(text[1]))
    if not isinstance(text, str):
        raise ConfigError(f"endpoint must be 'host:port', got {text!r}")
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ConfigError(f"endpoint must be 'host:port', got {text!r}")
    if host.startswith("[") and host.endswith("]"):  # bracketed IPv6
        host = host[1:-1]
    try:
        port_num = int(port)
    except ValueError:
        raise ConfigError(f"endpoint port must be an integer, got {text!r}") from None
    if not 0 <= port_num <= 65535:
        raise ConfigError(f"endpoint port out of range in {text!r}")
    return Endpoint(host, port_num)


def format_actor(address: Address) -> str:
    """Canonical actor name: ``"vm"`` stays, ``("data", 3)`` → ``"data/3"``."""
    if isinstance(address, str):
        if not address or _ACTOR_SEP in address:
            raise ConfigError(f"bad actor address {address!r}")
        return address
    if (
        isinstance(address, tuple)
        and len(address) == 2
        and isinstance(address[0], str)
        and isinstance(address[1], int)
    ):
        kind, index = address
        if not kind or _ACTOR_SEP in kind or index < 0:
            raise ConfigError(f"bad actor address {address!r}")
        return f"{kind}{_ACTOR_SEP}{index}"
    raise ConfigError(
        f"actor address must be a string or (kind, index) tuple, got {address!r}"
    )


def parse_actor(name: str) -> Address:
    """Inverse of :func:`format_actor`: ``"data/3"`` → ``("data", 3)``."""
    if not isinstance(name, str) or not name:
        raise ConfigError(f"bad actor name {name!r}")
    kind, sep, index = name.partition(_ACTOR_SEP)
    if not sep:
        return kind
    if not kind or not index:
        raise ConfigError(f"bad actor name {name!r}")
    try:
        index_num = int(index)
    except ValueError:
        raise ConfigError(f"actor index must be an integer in {name!r}") from None
    if index_num < 0:
        raise ConfigError(f"actor index must be >= 0 in {name!r}")
    return (kind, index_num)


class ClusterMap:
    """Actor → endpoint registry for one cluster deployment.

    Accepts addresses in either form (Python values or actor names) and
    keeps the canonical Python form internally, so driver code never
    string-parses and CLI/config code never tuples."""

    def __init__(
        self, entries: Mapping[Address | str, Endpoint | str] | None = None
    ) -> None:
        self._endpoints: dict[Address, Endpoint] = {}
        for address, endpoint in (entries or {}).items():
            self.add(address, endpoint)

    @classmethod
    def from_spec(cls, endpoints: Mapping[str, str]) -> "ClusterMap":
        """Build from the plain-string dict ``DeploymentSpec.endpoints``."""
        cmap = cls()
        for name, endpoint in endpoints.items():
            cmap.add(parse_actor(name), parse_endpoint(endpoint))
        return cmap

    def add(self, address: Address | str, endpoint: Endpoint | str) -> None:
        if isinstance(address, str) and _ACTOR_SEP in address:
            address = parse_actor(address)
        format_actor(address)  # validate the shape
        if address in self._endpoints:
            raise ConfigError(f"actor {format_actor(address)!r} mapped twice")
        self._endpoints[address] = parse_endpoint(endpoint)

    def endpoint_for(self, address: Address) -> Endpoint:
        try:
            return self._endpoints[address]
        except KeyError:
            raise ConfigError(
                f"no endpoint for actor {format_actor(address)!r}"
            ) from None

    def actors_at(self, endpoint: Endpoint | str) -> list[Address]:
        """Every actor a given agent endpoint hosts (colocation view)."""
        endpoint = parse_endpoint(endpoint)
        return [a for a, e in self._endpoints.items() if e == endpoint]

    def endpoints(self) -> list[Endpoint]:
        """Distinct agent endpoints, in first-mapped order."""
        seen: dict[Endpoint, None] = {}
        for endpoint in self._endpoints.values():
            seen.setdefault(endpoint, None)
        return list(seen)

    def has_control_plane(self) -> bool:
        """True when the map binds *both* control-plane actors (``vm`` and
        ``pm``) to endpoints — i.e. it describes a fully distributed
        deployment where no actor lives in the client parent."""
        return all(actor in self._endpoints for actor in CONTROL_ACTORS)

    def to_spec(self) -> dict[str, str]:
        """Plain-string form suitable for ``DeploymentSpec.endpoints``."""
        return {
            format_actor(a): str(e) for a, e in self._endpoints.items()
        }

    def __iter__(self) -> Iterator[Address]:
        return iter(self._endpoints)

    def __len__(self) -> int:
        return len(self._endpoints)

    def __contains__(self, address: Address) -> bool:
        return address in self._endpoints

    def items(self) -> Iterator[tuple[Address, Endpoint]]:
        return iter(self._endpoints.items())

    def __repr__(self) -> str:
        return f"ClusterMap({self.to_spec()!r})"
