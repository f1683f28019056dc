"""Tests for availability models, batch queue and accounts."""

import pytest

from repro.p2p import NodeProfile, Peer, SimNetwork
from repro.resources import (
    AlwaysOn,
    AuthenticationError,
    BatchQueue,
    CertificateAuthority,
    Credential,
    GlobusAccountManager,
    GramGateway,
    JobSpec,
    PoissonChurn,
    QueueError,
    ResourceError,
    ScreensaverCycle,
    VirtualAccountManager,
    fleet_availability,
)
from repro.simkernel import Simulator


def make_peer():
    sim = Simulator(seed=11)
    net = SimNetwork(sim, jitter_fraction=0.0)
    return sim, Peer("volunteer", net)


class TestAvailability:
    def test_always_on(self):
        sim, peer = make_peer()
        model = AlwaysOn()
        model.install(peer)
        sim.run(until=1000.0)
        assert peer.online
        assert model.expected_availability() == 1.0

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

    def test_fleet_availability(self):
        models = [AlwaysOn(), PoissonChurn(100, 100)]
        assert fleet_availability(models) == pytest.approx(0.75)
        assert fleet_availability([]) == 0.0


class TestBatchQueue:
    def test_fifo_execution(self):
        sim = Simulator()
        q = BatchQueue(sim, nodes=1, cores_per_node=1, cpu_flops=1e9)
        q.submit(JobSpec(flops=1e9))
        done = q.submit(JobSpec(flops=1e9))
        sim.run(until=done)
        assert sim.now == pytest.approx(2.0)
        assert q.stats.completed == 2
        assert q.stats.total_wait == pytest.approx(1.0)

    def test_parallel_slots(self):
        sim = Simulator()
        q = BatchQueue(sim, nodes=2, cores_per_node=2, cpu_flops=1e9)
        jobs = [q.submit(JobSpec(flops=1e9)) for _ in range(4)]
        sim.run()
        assert sim.now == pytest.approx(1.0)

    def test_wall_limit_kills(self):
        sim = Simulator()
        q = BatchQueue(sim, cpu_flops=1e9)
        done = q.submit(JobSpec(flops=10e9, wall_limit=5.0))
        with pytest.raises(QueueError):
            sim.run(until=done)
        assert q.stats.killed_wall_limit == 1

    def test_job_validation(self):
        with pytest.raises(QueueError):
            JobSpec(flops=0)
        sim = Simulator()
        with pytest.raises(QueueError):
            BatchQueue(sim, nodes=0)


class TestAccounts:
    def test_ca_issue_and_verify(self):
        ca = CertificateAuthority("cardiff-ca")
        cred = ca.issue("alice", now=0.0, lifetime=100.0)
        ca.verify(cred, now=50.0)
        with pytest.raises(AuthenticationError):
            ca.verify(cred, now=150.0)  # expired

    def test_ca_rejects_forged_signature(self):
        ca = CertificateAuthority("ca")
        cred = ca.issue("alice", now=0.0)
        forged = Credential(cred.subject, cred.issuer, cred.expires_at, cred.signature + 1)
        with pytest.raises(AuthenticationError):
            ca.verify(forged, now=0.0)

    def test_ca_rejects_wrong_issuer(self):
        ca1, ca2 = CertificateAuthority("ca1"), CertificateAuthority("ca2", secret=1)
        cred = ca2.issue("mallory", now=0.0)
        with pytest.raises(AuthenticationError):
            ca1.verify(cred, now=0.0)

    def test_globus_needs_admin_created_account(self):
        ca = CertificateAuthority("ca")
        mgr = GlobusAccountManager(ca)
        cred = ca.issue("alice", now=0.0)
        with pytest.raises(AuthenticationError):
            mgr.authorise(cred, now=0.0)
        mgr.create_account("alice")
        assert mgr.authorise(cred, now=0.0).principal == "alice"
        assert mgr.admin_operations == 1

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
        assert mgr.total_cpu_seconds() == pytest.approx(1000.0)

    def test_virtual_account_billing_lines(self):
        mgr = VirtualAccountManager("my-pc")
        mgr.charge("heavy", 100.0)
        mgr.charge("light", 1.0)
        mgr.charge("heavy", 50.0)
        invoice = mgr.invoice()
        assert invoice[0].principal == "heavy"
        assert invoice[0].cpu_seconds == 150.0
        assert invoice[0].jobs == 2


class TestGramGateway:
    def build(self):
        sim = Simulator()
        ca = CertificateAuthority("ca")
        accounts = GlobusAccountManager(ca)
        queue = BatchQueue(sim, cpu_flops=1e9)
        return sim, ca, accounts, GramGateway(queue, ca, accounts)

    def test_authorised_submission_runs_and_bills(self):
        sim, ca, accounts, gw = self.build()
        accounts.create_account("alice")
        cred = ca.issue("alice", now=0.0)
        done = gw.submit(JobSpec(flops=2e9, user="alice"), cred)
        sim.run(until=done)
        assert accounts.accounts["alice"].cpu_seconds == pytest.approx(2.0)

    def test_unauthorised_rejected(self):
        sim, ca, accounts, gw = self.build()
        cred = ca.issue("stranger", now=0.0)
        with pytest.raises(AuthenticationError):
            gw.submit(JobSpec(flops=1e9, user="stranger"), cred)
        assert gw.rejected == 1
