"""Tests for random message loss and end-to-end resilience to it."""

import pytest

from repro import ConsumerGrid
from repro.p2p import LAN_PROFILE, Message, NetworkError, SimNetwork
from repro.simkernel import Simulator
from tests.test_service_run import stateless_pipeline


class TestLossModel:
    def test_loss_fraction_validated(self):
        sim = Simulator()
        with pytest.raises(NetworkError):
            SimNetwork(sim, loss_fraction=1.0)
        with pytest.raises(NetworkError):
            SimNetwork(sim, loss_fraction=-0.1)

    def test_loss_rate_approximately_honoured(self):
        sim = Simulator(seed=5)
        net = SimNetwork(sim, jitter_fraction=0.0, loss_fraction=0.2)
        got = []
        net.add_node("a", lambda m: None)
        net.add_node("b", got.append)
        for _ in range(2000):
            net.send(Message(kind="x", src="a", dst="b", size_bytes=10))
        sim.run()
        assert net.stats.dropped_loss == pytest.approx(400, rel=0.2)
        assert len(got) == 2000 - net.stats.dropped_loss

    def test_zero_loss_by_default(self):
        sim = Simulator(seed=5)
        net = SimNetwork(sim, jitter_fraction=0.0)
        net.add_node("a", lambda m: None)
        net.add_node("b", lambda m: None)
        for _ in range(100):
            net.send(Message(kind="x", src="a", dst="b"))
        sim.run()
        assert net.stats.dropped_loss == 0

    def test_loss_deterministic_per_seed(self):
        def run():
            sim = Simulator(seed=9)
            net = SimNetwork(sim, jitter_fraction=0.0, loss_fraction=0.3)
            net.add_node("a", lambda m: None)
            net.add_node("b", lambda m: None)
            for _ in range(200):
                net.send(Message(kind="x", src="a", dst="b"))
            sim.run()
            return net.stats.dropped_loss

        assert run() == run()


class TestEndToEndUnderLoss:
    def test_farm_completes_on_lossy_network(self):
        """5% message loss: deploy retries + exec re-dispatch absorb it."""
        grid = ConsumerGrid(
            n_workers=3,
            seed=131,
            worker_profile=LAN_PROFILE,
            controller_profile=LAN_PROFILE,
            worker_efficiency=1e-5,
            loss_fraction=0.05,
            retry_timeout=3.0,
            retry_interval=1.0,
        )
        report = grid.run(stateless_pipeline(), iterations=12, run_until=3_000.0)
        assert len(report.group_results) == 12
        assert grid.transport.stats.dropped_loss > 0  # loss actually occurred

    def test_heavy_loss_still_completes(self):
        grid = ConsumerGrid(
            n_workers=3,
            seed=132,
            worker_profile=LAN_PROFILE,
            controller_profile=LAN_PROFILE,
            worker_efficiency=1e-5,
            loss_fraction=0.15,
            retry_timeout=2.0,
            retry_interval=0.5,
        )
        report = grid.run(stateless_pipeline(), iterations=8, run_until=3_000.0)
        assert len(report.group_results) == 8

    def test_results_correct_despite_loss(self):
        import numpy as np

        from repro.core import LocalEngine

        grid = ConsumerGrid(
            n_workers=3,
            seed=133,
            worker_profile=LAN_PROFILE,
            controller_profile=LAN_PROFILE,
            worker_efficiency=1e-5,
            loss_fraction=0.08,
            retry_timeout=2.0,
            retry_interval=0.5,
        )
        report = grid.run(
            stateless_pipeline(), iterations=6, probes=("Power",),
            run_until=3_000.0,
        )
        local = LocalEngine(stateless_pipeline())
        probe = local.attach_probe("Power")
        local.run(6)
        for dist, loc in zip(report.probe_values["Power"], probe.values):
            np.testing.assert_allclose(dist.data, loc.data)
