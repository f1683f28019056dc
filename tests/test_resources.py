"""Tests for availability models and accounts."""

import pytest

from repro.p2p import Peer, SimNetwork
from repro.resources import (
    CertificateAuthority,
    GlobusAccountManager,
    PoissonChurn,
    ResourceError,
    ScreensaverCycle,
    VirtualAccountManager,
)
from repro.simkernel import Simulator


def make_peer():
    sim = Simulator(seed=11)
    net = SimNetwork(sim, jitter_fraction=0.0)
    return sim, Peer("volunteer", net)


class TestAvailability:
    def test_poisson_churn_toggles(self):
        sim, peer = make_peer()
        model = PoissonChurn(mean_uptime=100.0, mean_downtime=50.0)
        downs, ups = [], []
        model.on_down(lambda p: downs.append(sim.now))
        model.on_up(lambda p: ups.append(sim.now))
        model.install(peer)
        sim.run(until=10_000.0)
        assert len(downs) > 10
        assert len(ups) > 10
        assert model.expected_availability() == pytest.approx(2 / 3)

    def test_poisson_long_run_availability_near_expected(self):
        sim, peer = make_peer()
        model = PoissonChurn(mean_uptime=300.0, mean_downtime=100.0)
        model.install(peer)
        sim.run(until=500_000.0)
        assert model.stats.availability == pytest.approx(0.75, abs=0.05)

    def test_poisson_validation(self):
        with pytest.raises(ResourceError):
            PoissonChurn(mean_uptime=0, mean_downtime=1)

    def test_poisson_deterministic_per_seed(self):
        def first_down():
            sim, peer = make_peer()
            model = PoissonChurn(mean_uptime=100.0, mean_downtime=50.0)
            downs = []
            model.on_down(lambda p: downs.append(sim.now))
            model.install(peer)
            sim.run(until=1_000.0)
            return downs[0]

        assert first_down() == first_down()

    def test_screensaver_cycle_availability(self):
        sim, peer = make_peer()
        model = ScreensaverCycle(idle_fraction=0.5, day_seconds=1000.0)
        model.install(peer)
        sim.run(until=100_000.0)
        assert model.stats.availability == pytest.approx(0.5, abs=0.02)

    def test_screensaver_full_idle(self):
        sim, peer = make_peer()
        model = ScreensaverCycle(idle_fraction=1.0, day_seconds=1000.0)
        model.install(peer)
        sim.run(until=5_000.0)
        assert model.stats.offline_seconds <= 1000.0  # only the phase-in

    def test_screensaver_validation(self):
        with pytest.raises(ResourceError):
            ScreensaverCycle(idle_fraction=0.0)


class TestAccounts:
    def test_globus_admin_cost_scales_with_users(self):
        ca = CertificateAuthority("ca")
        mgr = GlobusAccountManager(ca)
        for i in range(100):
            mgr.create_account(f"user-{i}")
        assert mgr.admin_operations == 100

    def test_globus_duplicate_account(self):
        mgr = GlobusAccountManager(CertificateAuthority("ca"))
        mgr.create_account("a")
        with pytest.raises(ResourceError):
            mgr.create_account("a")

    def test_virtual_account_is_self_service(self):
        mgr = VirtualAccountManager("my-pc")
        for i in range(100):
            mgr.charge(f"user-{i}", 10.0)
        assert mgr.admin_operations == 1  # daemon install only
        assert sum(r.cpu_seconds for r in mgr.billing.values()) == pytest.approx(1000.0)

    def test_virtual_account_billing_lines(self):
        mgr = VirtualAccountManager("my-pc")
        mgr.charge("heavy", 100.0)
        mgr.charge("light", 1.0)
        mgr.charge("heavy", 50.0)
        heavy = mgr.billing["heavy"]
        assert heavy.principal == "heavy"
        assert heavy.cpu_seconds == 150.0
        assert heavy.jobs == 2
