"""Multi-process Consumer Grid deployment over the TCP transport.

This is the "real" counterpart of :class:`~repro.grid.ConsumerGrid`:
the same :class:`~repro.grid.GridNode` assembly from the same
:class:`~repro.config.GridConfig`, with the roles spread across OS
processes connected by :class:`~repro.transport.tcp.TcpTransport`.

* :class:`ControllerNode` — runs in the launching process and co-hosts
  two peers behind one listening port, exactly like the paper's portal
  machine: ``portal`` (module repository + central discovery index) and
  ``controller`` (the Triana controller service).
* :class:`WorkerNode` — one volunteer process hosting a single worker
  peer.  Launched via ``python -m repro.deployment`` (see
  :func:`worker_main`), which receives the config as its bootstrap
  payload — a worker is built from exactly what the controller is.
* :func:`run_tcp_localhost` — the one-call launcher: spawns N worker
  subprocesses, waits for their advertisements to reach the index, runs
  a task graph through the unchanged controller/policy/recovery stack,
  shuts the workers down, and returns the ordinary
  :class:`~repro.service.controller.RunReport`.

Everything above the transport — discovery, deployment retries, module
fetching, heartbeats, integrity, distribution policies — is the same
code the simulator runs; only the substrate and the clock differ.

Quickstart (two terminals) is documented in ``docs/deployment.md``.
"""

from __future__ import annotations

import argparse
import base64
import functools
import json
import os
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .config import GridConfig
from .core.registry import UnitRegistry
from .core.taskgraph import TaskGraph
from .grid import CONTROLLER_ID, PORTAL_ID, GridNode
from .p2p.network import LAN_PROFILE
from .service.controller import RunReport
from .transport import decode, encode

__all__ = [
    "DEPLOYMENT_DEFAULTS",
    "WorkerNode",
    "ControllerNode",
    "run_tcp_localhost",
    "worker_main",
]

Address = Tuple[str, int]

#: Protocol kind asking a worker process to exit its serve loop.
SHUTDOWN_KIND = "node-shutdown"

#: What a deployment is built from unless told otherwise: the socket
#: fabric, LAN peers, two workers, and wall-clock timings — the config's
#: own defaults model consumer DSL in simulated time and would have a
#: real run wait minutes (query window 2 s, heartbeat 60 s, retry
#: 900 / 300 s).
DEPLOYMENT_DEFAULTS = GridConfig().replace(
    transport="tcp",
    n_workers=2,
    worker_profile=LAN_PROFILE,
    controller_profile=LAN_PROFILE,
    query_window=0.5,
    heartbeat_interval=10.0,
    retry_timeout=120.0,
    retry_interval=30.0,
)


class WorkerNode(GridNode):
    """One volunteer OS process: a worker peer + Triana service daemon."""

    #: seconds between advertisement keep-alives
    ADVERT_INTERVAL = 2.0

    def __init__(
        self,
        peer_id: str,
        port: int,
        peers: Dict[str, Address],
        config: GridConfig = DEPLOYMENT_DEFAULTS,
        host: str = "127.0.0.1",
    ):
        super().__init__(config, (peer_id,), host=host, port=port, peers=peers)
        self.peer = self.worker_peers[peer_id]
        self.service = self.workers[peer_id]
        self._shutdown = self.sim.event()
        self.peer.on(SHUTDOWN_KIND, lambda _msg: self._shutdown.succeed(None))

    def _advertise_loop(self):
        # Re-publish until shutdown: the assembly's first publish may race
        # the portal process binding its socket, and the index replaces
        # records keyed by (type, name, publisher), so this is an
        # idempotent keep-alive rather than duplicate registration.
        while not self._shutdown.triggered:
            yield self.sim.timeout(self.ADVERT_INTERVAL)
            self.discovery.publish(self.peer, self.service.advertisement())

    def serve(self) -> None:
        """Process protocol traffic (and keep advertising) until told to exit."""
        self.sim.process(self._advertise_loop(), name=f"advertise/{self.peer.peer_id}")
        try:
            self.sim.run(until=self._shutdown)
        finally:
            self.transport.close()


class ControllerNode(GridNode):
    """The launching process: portal peer + controller peer, one port.

    Keyword settings are changes to ``config``, as on
    :class:`~repro.grid.ConsumerGrid` (``ControllerNode(port, peers, seed=7)``).
    """

    def __init__(
        self,
        port: int,
        peers: Dict[str, Address],
        config: GridConfig = DEPLOYMENT_DEFAULTS,
        host: str = "127.0.0.1",
        registry: Optional[UnitRegistry] = None,
        **changes,
    ):
        super().__init__(
            config.replace(**changes), (PORTAL_ID, CONTROLLER_ID), registry,
            host=host, port=port, peers=peers,
        )
        #: everyone else in the address map (who a timed-out wait names)
        self.worker_ids = sorted(set(peers) - {PORTAL_ID, CONTROLLER_ID})

    def wait_for_workers(self, expect: int, deadline_s: float = 30.0) -> List[str]:
        """Sleep until ``expect`` workers have advertised, or raise.

        One discovery query per advertisement the index hears, not a
        poll: a worker's first publish or its keep-alive wakes this.
        """
        deadline = time.monotonic() + deadline_s
        while True:
            # Listen before asking: a publish that lands while the query
            # is in flight has already fired ``heard``.
            heard = self.discovery.next_publish(self.portal)
            found = self.discover_workers()
            if len(found) >= expect:
                return found
            left = deadline - time.monotonic()
            if left <= 0:
                missing = [w for w in self.worker_ids if w not in found]
                raise TimeoutError(
                    f"only {len(found)}/{expect} workers discovered within "
                    f"{deadline_s:g}s: found {found}, never heard from {missing}"
                )
            self.sim.run(until=self.sim.any_of([heard, self.sim.timeout(left)]))

    def shutdown_workers(self, workers: List[str]) -> None:
        """Ask every worker process to exit, then flush the frames out."""
        for worker in workers:
            self.controller_peer.send(worker, SHUTDOWN_KIND, size_bytes=32)
        self.sim.run()  # settle: let the writer tasks drain

    def close(self) -> None:
        self.transport.close()


# ---------------------------------------------------------------------------
# launcher
# ---------------------------------------------------------------------------


def _free_ports(count: int, host: str = "127.0.0.1") -> List[int]:
    """Reserve ``count`` distinct free TCP ports (best effort)."""
    sockets, ports = [], []
    try:
        for _ in range(count):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.bind((host, 0))
            sockets.append(sock)
            ports.append(sock.getsockname()[1])
    finally:
        for sock in sockets:
            sock.close()
    return ports


def _worker_env() -> Dict[str, str]:
    """Subprocess environment with this package importable."""
    env = dict(os.environ)
    src_dir = str(Path(__file__).resolve().parent.parent)
    existing = env.get("PYTHONPATH", "")
    if src_dir not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            src_dir + (os.pathsep + existing if existing else "")
        )
    return env


@functools.lru_cache(maxsize=8)
def config_payload(config: GridConfig) -> str:
    """``config`` as the ``--config`` argument of ``python -m repro.deployment``.

    The canonical wire encoding, base64 for the command line.  Cached on
    the (hashable) config, so a fleet's payload is produced once.
    """
    return base64.b64encode(encode(config)).decode("ascii")


def launch_worker(
    peer_id: str,
    port: int,
    peers: Dict[str, Address],
    efficiency: Optional[float] = None,
    config: GridConfig = DEPLOYMENT_DEFAULTS,
    python: str = sys.executable,
) -> subprocess.Popen:
    """Spawn one :class:`WorkerNode` OS process built from ``config``.

    ``efficiency`` is shorthand for ``config.replace(worker_efficiency=...)``.
    """
    if efficiency is not None:
        config = config.replace(worker_efficiency=efficiency)
    argv = [
        python,
        "-m",
        "repro.deployment",
        "--peer-id", peer_id,
        "--port", str(port),
        "--peers", json.dumps({k: list(v) for k, v in peers.items()}),
        "--config", config_payload(config),
    ]
    return subprocess.Popen(argv, env=_worker_env())


def run_tcp_localhost(
    graph: TaskGraph,
    iterations: int,
    config: GridConfig = DEPLOYMENT_DEFAULTS,
    dispatch: str = "round_robin",
    probes: Tuple[str, ...] = (),
    verification: str = "none",
    startup_deadline: float = 30.0,
    registry: Optional[UnitRegistry] = None,
    **changes,
) -> RunReport:
    """Run ``graph`` across ``1 + config.n_workers`` OS processes on localhost.

    The calling process hosts the portal and controller peers; each
    worker is a separate Python subprocess built from the same
    ``config`` (keyword settings are changes to it:
    ``run_tcp_localhost(graph, 4, n_workers=3, seed=7)``).  Module code
    reaches the workers through the ordinary repository protocol (fetch
    → cache → sandbox → local engine), so nothing about the graph needs
    to be pre-installed on the worker side beyond the package itself.
    """
    config = config.replace(**changes)
    host = "127.0.0.1"
    ports = _free_ports(1 + config.n_workers, host)
    addresses: Dict[str, Address] = {
        PORTAL_ID: (host, ports[0]),
        CONTROLLER_ID: (host, ports[0]),
    }
    worker_ids = [f"worker-{i}" for i in range(config.n_workers)]
    for worker_id, port in zip(worker_ids, ports[1:]):
        addresses[worker_id] = (host, port)

    procs: List[subprocess.Popen] = []
    node: Optional[ControllerNode] = None
    asked_to_exit = False
    try:
        for worker_id in worker_ids:
            procs.append(launch_worker(
                worker_id, addresses[worker_id][1], addresses, config=config
            ))
        # Inside the try: the reserved port can be taken before the bind,
        # and a failed controller must not orphan the workers.
        node = ControllerNode(ports[0], addresses, config, registry=registry)
        workers = node.wait_for_workers(config.n_workers, deadline_s=startup_deadline)
        report = node.run(
            graph, iterations, workers,
            dispatch=dispatch, probes=probes, verification=verification,
        )
        node.shutdown_workers(workers)
        asked_to_exit = True
        return report
    finally:
        if node is not None:
            node.close()
        if not asked_to_exit:
            # Nobody told them to leave; they would advertise for ever.
            for proc in procs:
                proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10.0)


# ---------------------------------------------------------------------------
# worker process entry point
# ---------------------------------------------------------------------------


def worker_main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.deployment`` — serve one worker node."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.deployment",
        description="Serve one Consumer Grid worker over TCP.",
    )
    parser.add_argument("--peer-id", required=True, help="worker peer id")
    parser.add_argument("--port", type=int, required=True, help="listen port")
    parser.add_argument(
        "--peers",
        required=True,
        help='JSON address map, e.g. {"portal": ["127.0.0.1", 9000], ...}',
    )
    parser.add_argument(
        "--config",
        default=None,
        help="the grid's GridConfig as printed by repro.deployment."
             "config_payload (default: DEPLOYMENT_DEFAULTS)",
    )
    args = parser.parse_args(argv)

    peers = {
        peer_id: (str(entry[0]), int(entry[1]))
        for peer_id, entry in json.loads(args.peers).items()
    }
    config = DEPLOYMENT_DEFAULTS
    if args.config is not None:
        config = decode(base64.b64decode(args.config))
        if not isinstance(config, GridConfig):
            parser.error(f"--config decodes to {type(config).__name__}, not GridConfig")
    WorkerNode(args.peer_id, args.port, peers, config).serve()
    return 0


if __name__ == "__main__":
    sys.exit(worker_main())
