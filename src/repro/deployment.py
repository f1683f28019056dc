"""Multi-process Consumer Grid deployment over the TCP transport.

This is the "real" counterpart of :class:`~repro.grid.ConsumerGrid`:
the same portal / controller / worker assembly, but spread across OS
processes connected by :class:`~repro.transport.tcp.TcpTransport`.

* :class:`ControllerNode` — runs in the launching process and co-hosts
  two peers behind one listening port, exactly like the paper's portal
  machine: ``portal`` (module repository + central discovery index) and
  ``controller`` (the Triana controller service).
* :class:`WorkerNode` — one volunteer process hosting a single worker
  peer with a :class:`~repro.service.worker.TrianaService`.  Launched
  via ``python -m repro.deployment`` (see :func:`worker_main`).
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
import json
import os
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .core.registry import UnitRegistry, global_registry
from .core.taskgraph import TaskGraph
from .mobility.repository import ModuleRepository
from .p2p.discovery import CentralIndexDiscovery
from .p2p.network import LAN_PROFILE, NodeProfile
from .p2p.peer import Peer
from .service.controller import RunReport, TrianaController
from .service.worker import TrianaService
from .transport import RealtimeSimulator, TcpTransport

__all__ = [
    "WorkerNode",
    "ControllerNode",
    "run_tcp_localhost",
    "worker_main",
]

Address = Tuple[str, int]

#: Discovery index + module repository live on this co-hosted peer.
PORTAL_ID = "portal"
CONTROLLER_ID = "controller"
#: Protocol kind asking a worker process to exit its serve loop.
SHUTDOWN_KIND = "node-shutdown"


class WorkerNode:
    """One volunteer OS process: a worker peer + Triana service daemon."""

    def __init__(
        self,
        peer_id: str,
        port: int,
        peers: Dict[str, Address],
        seed: int = 0,
        efficiency: float = 1.0,
        query_window: float = 0.5,
        host: str = "127.0.0.1",
        profile: Optional[NodeProfile] = None,
        advert_interval: float = 2.0,
    ):
        self.sim = RealtimeSimulator(seed=seed)
        self.transport = TcpTransport(self.sim, host=host, port=port, peers=peers)
        self.peer = Peer(peer_id, self.transport, profile=profile or LAN_PROFILE)
        self.discovery = CentralIndexDiscovery(query_window=query_window)
        self.discovery.attach(self.peer)
        self.discovery.set_index_id(PORTAL_ID)
        self.service = TrianaService(
            self.peer, repository_host=PORTAL_ID, efficiency=efficiency
        )
        self.advert_interval = advert_interval
        self._shutdown = self.sim.event()
        self.peer.on(SHUTDOWN_KIND, lambda _msg: self._shutdown.succeed(None))

    def _advertise_loop(self):
        # Re-publish until shutdown: the first publish may race the
        # portal process binding its socket, and the index replaces
        # records keyed by (type, name, publisher), so this is an
        # idempotent keep-alive rather than duplicate registration.
        while not self._shutdown.triggered:
            self.discovery.publish(self.peer, self.service.advertisement())
            yield self.sim.timeout(self.advert_interval)

    def serve(self) -> None:
        """Publish, then process protocol traffic until told to exit."""
        self.sim.process(self._advertise_loop(), name=f"advertise/{self.peer.peer_id}")
        try:
            self.sim.run(until=self._shutdown)
        finally:
            self.transport.close()


class ControllerNode:
    """The launching process: portal peer + controller peer, one port."""

    def __init__(
        self,
        port: int,
        peers: Dict[str, Address],
        seed: int = 0,
        query_window: float = 0.5,
        heartbeat_interval: float = 10.0,
        retry_timeout: float = 120.0,
        retry_interval: float = 30.0,
        host: str = "127.0.0.1",
        registry: Optional[UnitRegistry] = None,
    ):
        self.sim = RealtimeSimulator(seed=seed)
        self.transport = TcpTransport(self.sim, host=host, port=port, peers=peers)
        self.discovery = CentralIndexDiscovery(query_window=query_window)

        self.portal = Peer(PORTAL_ID, self.transport, profile=LAN_PROFILE)
        self.discovery.attach(self.portal)
        self.repository = ModuleRepository(
            self.portal, registry if registry is not None else global_registry()
        )

        self.controller_peer = Peer(CONTROLLER_ID, self.transport, profile=LAN_PROFILE)
        self.discovery.attach(self.controller_peer)
        self.discovery.set_index(self.portal)

        self.controller = TrianaController(
            self.controller_peer,
            self.discovery,
            retry_timeout=retry_timeout,
            retry_interval=retry_interval,
            heartbeat_interval=heartbeat_interval,
        )

    def wait_for_workers(self, expect: int, deadline_s: float = 30.0) -> List[str]:
        """Query discovery until ``expect`` workers advertise, or raise."""
        deadline = time.monotonic() + deadline_s
        found: List[str] = []
        while time.monotonic() < deadline:
            ev = self.controller.discover_workers()
            found = self.sim.run(until=ev)
            if len(found) >= expect:
                return found
        raise TimeoutError(
            f"only {len(found)}/{expect} workers discovered within "
            f"{deadline_s:.0f}s: {found}"
        )

    def run(
        self,
        graph: TaskGraph,
        iterations: int,
        workers: List[str],
        dispatch: str = "round_robin",
        probes: Tuple[str, ...] = (),
        verification: str = "none",
    ) -> RunReport:
        """Run ``graph`` over the discovered workers; blocks until done."""
        done = self.controller.run_distributed(
            graph, iterations, workers, probes,
            dispatch=dispatch, verification=verification,
        )
        return self.sim.run(until=done)

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


def launch_worker(
    peer_id: str,
    port: int,
    peers: Dict[str, Address],
    efficiency: float = 1.0,
    query_window: float = 0.5,
    python: str = sys.executable,
) -> subprocess.Popen:
    """Spawn one :class:`WorkerNode` OS process."""
    argv = [
        python,
        "-m",
        "repro.deployment",
        "--peer-id", peer_id,
        "--port", str(port),
        "--peers", json.dumps({k: list(v) for k, v in peers.items()}),
        "--efficiency", repr(efficiency),
        "--query-window", repr(query_window),
    ]
    return subprocess.Popen(argv, env=_worker_env())


def run_tcp_localhost(
    graph: TaskGraph,
    iterations: int,
    n_workers: int = 2,
    dispatch: str = "round_robin",
    probes: Tuple[str, ...] = (),
    verification: str = "none",
    seed: int = 0,
    query_window: float = 0.5,
    heartbeat_interval: float = 10.0,
    worker_efficiency: float = 1.0,
    startup_deadline: float = 30.0,
    registry: Optional[UnitRegistry] = None,
) -> RunReport:
    """Run ``graph`` across ``1 + n_workers`` OS processes on localhost.

    The calling process hosts the portal and controller peers; each
    worker is a separate Python subprocess.  Module code reaches the
    workers through the ordinary repository protocol (fetch → cache →
    sandbox → local engine), so nothing about the graph needs to be
    pre-installed on the worker side beyond the package itself.
    """
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    host = "127.0.0.1"
    ports = _free_ports(1 + n_workers, host)
    addresses: Dict[str, Address] = {
        PORTAL_ID: (host, ports[0]),
        CONTROLLER_ID: (host, ports[0]),
    }
    worker_ids = [f"worker-{i}" for i in range(n_workers)]
    for worker_id, port in zip(worker_ids, ports[1:]):
        addresses[worker_id] = (host, port)

    procs: List[subprocess.Popen] = []
    node: Optional[ControllerNode] = None
    asked_to_exit = False
    try:
        for worker_id in worker_ids:
            procs.append(launch_worker(
                worker_id,
                addresses[worker_id][1],
                addresses,
                efficiency=worker_efficiency,
                query_window=query_window,
            ))
        # Inside the try: the reserved port can be taken before the bind,
        # and a failed controller must not orphan the workers.
        node = ControllerNode(
            ports[0],
            addresses,
            seed=seed,
            query_window=query_window,
            heartbeat_interval=heartbeat_interval,
            registry=registry,
        )
        workers = node.wait_for_workers(n_workers, deadline_s=startup_deadline)
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
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--efficiency", type=float, default=1.0)
    parser.add_argument("--query-window", type=float, default=0.5)
    args = parser.parse_args(argv)

    peers = {
        peer_id: (str(entry[0]), int(entry[1]))
        for peer_id, entry in json.loads(args.peers).items()
    }
    node = WorkerNode(
        args.peer_id,
        args.port,
        peers,
        seed=args.seed,
        efficiency=args.efficiency,
        query_window=args.query_window,
    )
    node.serve()
    return 0


if __name__ == "__main__":
    sys.exit(worker_main())
