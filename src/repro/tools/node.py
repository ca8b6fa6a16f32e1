"""``python -m repro.tools.node`` — run one cluster node agent.

The deployment unit of the TCP cluster: starts a
:class:`~repro.net.node.NodeAgent` hosting the requested actors and
serves until every one of them receives the driver's ``shutdown``
control, then exits 0. The same invocation works bound to a loopback
port (single-host CI clusters, which :func:`repro.deploy.tcp.build_tcp`
launches automatically) and bound to a real interface on a cluster host
(the operator runbook is ``docs/OPERATIONS.md``):

    # node 3 of a cluster: one data + one metadata provider, paper layout
    python -m repro.tools.node --host 10.0.0.13 --port 7000 \\
        --actor data/3 --actor meta/3 --pm 10.0.0.9:7002

    # the control plane on its own machines (the paper's layout)
    python -m repro.tools.node --host 10.0.0.8 --port 7001 --actor vm
    python -m repro.tools.node --host 10.0.0.9 --port 7002 --actor pm

    # ephemeral port: the agent prints "READY <host> <port>" on stdout
    python -m repro.tools.node --port 0 --actor data/0

``--pm`` gives a data-hosting agent the provider manager's endpoint: the
agent registers each hosted data provider with the pm at start (retrying
with backoff until the pm is reachable), which is how a restarted
storage node rejoins the allocation pool with no operator action.

The ``READY`` line is the launch protocol: it is printed (and flushed)
only once the listener is bound, so a launcher may connect the moment it
reads the line. ``main(argv)`` is a plain function, unit-testable
without a subprocess.
"""

from __future__ import annotations

import argparse
import logging
import sys

from repro.core.journal import JournalError
from repro.errors import ConfigError
from repro.net.node import NodeAgent, build_actor
from repro.obs.logconfig import configure_logging
from repro.providers.strategies import STRATEGIES


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser of ``python -m repro.tools.node``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.node",
        description="Serve blob-store actors on one TCP endpoint.",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface to bind (default: loopback; use the node's "
        "cluster-facing address on real deployments)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port to bind; 0 picks an ephemeral port, announced on "
        "the READY line (default: 0)",
    )
    parser.add_argument(
        "--actor",
        action="append",
        dest="actors",
        metavar="NAME",
        default=[],
        help="actor to host: data/N, meta/N, vm or pm; repeatable "
        "(the paper's layout colocates data/i and meta/i per storage "
        "node and gives vm and pm their own hosts)",
    )
    parser.add_argument(
        "--pm",
        metavar="HOST:PORT",
        default=None,
        help="endpoint of the provider manager's agent; hosted data "
        "providers register themselves there at start (retried with "
        "backoff, so start order does not matter)",
    )
    parser.add_argument(
        "--checksum",
        action="store_true",
        help="data providers checksum pages on put and verify on get "
        "(DeploymentSpec.page_checksums integrity mode)",
    )
    parser.add_argument(
        "--strategy",
        default="round_robin",
        choices=STRATEGIES,
        help="page placement of a hosted pm actor (hash_ring enables "
        "elastic membership; default: round_robin)",
    )
    parser.add_argument(
        "--replication",
        type=int,
        default=1,
        help="copies of each page a hosted pm allocates (default: 1, "
        "the paper's setting)",
    )
    parser.add_argument(
        "--state-dir",
        metavar="DIR",
        default=None,
        help="durable state directory for hosted vm/pm actors (created "
        "if missing, locked against concurrent agents); restarting the "
        "agent on the same directory resumes its incarnation",
    )
    parser.add_argument(
        "--fsync",
        choices=("never", "always"),
        default="never",
        help="fsync policy for --state-dir journals: 'never' flushes "
        "to the OS only (survives agent kill), 'always' fsyncs every "
        "record (survives power loss; default: never)",
    )
    parser.add_argument(
        "--snapshot-every",
        type=int,
        default=1024,
        metavar="N",
        help="compact the journal into a snapshot every N records "
        "(0 disables compaction; default: 1024)",
    )
    parser.add_argument(
        "--flight-recorder",
        metavar="DIR",
        default=None,
        help="sample this agent's metrics into a size-bounded JSONL "
        "segment ring in DIR (created if missing); a crashed agent "
        "leaves its last seconds of metrics there for post-mortem "
        "(default: off)",
    )
    parser.add_argument(
        "--flight-interval",
        type=float,
        default=1.0,
        metavar="SEC",
        help="seconds between flight-recorder samples (default: 1.0)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Command-line entry (serve actors on one TCP endpoint); returns the exit code."""
    args = build_parser().parse_args(argv)
    if not args.actors:
        print("error: at least one --actor is required", file=sys.stderr)
        return 2
    # Surface the repro loggers on stderr: recovery summaries (INFO on
    # repro.vm / repro.pm), torn-tail truncations (WARNING on
    # repro.journal) and slow-span telemetry (DEBUG on repro.obs) are
    # operator signals — without a handler Python drops everything below
    # WARNING. The handler goes on the "repro" root only (never the
    # global root, so an embedding program's logging config is untouched)
    # and stdout stays reserved for READY. Programmatic NodeAgent users
    # get the same behavior with one repro.obs.configure_logging() call.
    configure_logging(logging.INFO)
    lock = None
    try:
        if args.state_dir is not None:
            # Validate and lock the state dir up front — BEFORE any
            # journal opens — so two agents can never interleave log
            # appends on the same directory.
            from pathlib import Path

            from repro.core.journal import StateDirLock

            state_path = Path(args.state_dir)
            try:
                state_path.mkdir(parents=True, exist_ok=True)
            except (OSError, NotADirectoryError) as exc:
                raise ConfigError(
                    f"--state-dir {args.state_dir}: not a usable directory "
                    f"({exc})"
                ) from None
            lock = StateDirLock(state_path).acquire()
        actors = dict(
            build_actor(
                name,
                checksum=args.checksum,
                strategy=args.strategy,
                replication=args.replication,
                state_dir=args.state_dir,
                fsync=args.fsync,
                snapshot_every=args.snapshot_every or None,
            )
            for name in args.actors
        )
        if len(actors) != len(args.actors):
            raise ConfigError(f"duplicate --actor in {args.actors}")
        agent = NodeAgent(
            actors, host=args.host, port=args.port, pm_endpoint=args.pm
        )
    except (ConfigError, JournalError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if lock is not None:
            lock.release()
        return 2
    recorder = None
    try:
        if args.flight_recorder is not None:
            from repro.obs.metrics import agent_metrics
            from repro.obs.recorder import FlightRecorder

            recorder = FlightRecorder(
                args.flight_recorder,
                lambda: agent_metrics(agent),
                interval_s=args.flight_interval,
            ).start()
        print(f"READY {agent.endpoint.host} {agent.endpoint.port}", flush=True)
        agent.serve_forever()
    finally:
        if recorder is not None:
            recorder.stop()
        if lock is not None:
            lock.release()
    return 0


if __name__ == "__main__":
    sys.exit(main())
