"""The sim side of the fabric seam: ``SimNetwork`` *is* the transport.

There is no adapter: peers sit on the :class:`SimNetwork` itself, the
grid holds it once (``grid.transport``), and the two-entry backend
table names it beside :class:`TcpTransport`.
"""

import pytest

from repro import ConsumerGrid
from repro.apps.galaxy import build_galaxy_graph, generate_snapshots
from repro.faults import chaos
from repro.p2p import Transport as P2PTransport
from repro.p2p.network import SimNetwork
from repro.simkernel import Simulator
from repro.transport import (
    TRANSPORTS,
    RealtimeSimulator,
    TcpTransport,
    Transport,
    transport_names,
)
from repro.transport.wire import result_checksum


class TestRegistry:
    def test_both_backends_registered(self):
        assert transport_names() == ["sim", "tcp"]
        assert TRANSPORTS.lookup("sim") is SimNetwork
        assert TRANSPORTS.lookup("tcp") is TcpTransport

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown transport"):
            TRANSPORTS.lookup("carrier-pigeon")

    def test_summaries_present(self):
        for cls in TRANSPORTS:
            assert cls.__doc__.strip(), f"{cls.__name__} has no summary line"
            assert issubclass(cls, Transport)


class TestOneInterface:
    def test_transport_is_defined_once_in_p2p(self):
        assert Transport is P2PTransport
        assert Transport.__module__ == "repro.p2p.network"

    def test_both_fabrics_implement_it(self):
        assert isinstance(SimNetwork(Simulator(seed=1)), Transport)
        tcp = TcpTransport(RealtimeSimulator(seed=1))
        try:
            assert isinstance(tcp, Transport)
        finally:
            tcp.close()

    def test_supports_all_discovery_backends(self):
        assert set(SimNetwork.supported_discovery) == {
            "central", "flooding", "rendezvous",
        }
        assert TcpTransport.supported_discovery == ("central",)


class TestGridWiring:
    def test_grid_holds_one_fabric_and_every_peer_sits_on_it(self):
        grid = ConsumerGrid(n_workers=2, seed=0)
        assert isinstance(grid.transport, SimNetwork)
        fabrics = [k for k, v in vars(grid).items() if isinstance(v, Transport)]
        assert fabrics == ["transport"]
        peers = [grid.portal, grid.controller_peer, *grid.worker_peers.values()]
        assert len(peers) == 4
        assert all(peer.network is grid.transport for peer in peers)

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError, match="transport"):
            ConsumerGrid(n_workers=2, transport="smoke-signals")

    def test_tcp_rejects_chaos_knobs(self):
        plan = chaos("mild", workers=["worker-0"])
        for knob in ({"contention": True}, {"fault_plan": plan}):
            with pytest.raises(ValueError, match="simulation apparatus.*tcp"):
                ConsumerGrid(n_workers=1, transport="tcp", **knob)
        # the grid's misbehaviour is its fault plan: no static knobs left
        for knob in ("loss_fraction", "jitter_fraction", "corrupt_fraction",
                     "duplicate_fraction", "reorder_fraction"):
            with pytest.raises(TypeError, match="unknown grid setting"):
                ConsumerGrid(n_workers=1, transport="tcp", **{knob: 0.1})

    def test_tcp_rejects_sim_only_discovery(self):
        with pytest.raises(ValueError, match="discovery"):
            ConsumerGrid(n_workers=1, transport="tcp", discovery="flooding")

    def test_sim_runs_are_reproducible_via_checksum(self):
        generate_snapshots(
            n_frames=3, n_particles=60, seed=11, register_as="sim-repro"
        )
        graph = build_galaxy_graph("sim-repro", resolution=8)
        digests = []
        for _ in range(2):
            grid = ConsumerGrid(n_workers=2, seed=3)
            report = grid.run(graph, iterations=3)
            digests.append(result_checksum(report.group_results))
        assert digests[0] == digests[1]
