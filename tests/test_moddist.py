"""Tests for module distribution (E18).

Covers the mechanisms layered on the seed mobility protocol:
content-addressed packages, fixed-size chunked transfers, and peer
transfer: the portal's repository sends each fetch to the source that
finishes first (itself, or a peer it has shipped the digest to) where
links serialise, and a holder that bounces or goes quiet sends the
requester back to the portal.
"""

import numpy as np
import pytest

from repro import ConsumerGrid
from repro.analysis import fig1_grouped
from repro.core import LocalEngine, global_registry
from repro.faults import Fault, FaultPlan
from repro.mobility import ModuleCache, ModulePackage, ModuleRepository
from repro.mobility.repository import content_digest
from repro.p2p import NodeProfile, Peer, SimNetwork
from repro.p2p.network import chunk_sizes
from repro.simkernel import Simulator
from repro.transport.wire import result_checksum
from tests.test_service_run import stateless_pipeline


def repo_pair(repo_kwargs=None, cache_kwargs=None, contention=False, seed=7):
    """Portal + one device."""
    sim = Simulator(seed=seed)
    net = SimNetwork(sim, jitter_fraction=0.0, contention=contention)
    portal = Peer("portal", net)
    device = Peer("device", net)
    repo = ModuleRepository(portal, global_registry(), **(repo_kwargs or {}))
    cache = ModuleCache(device, "portal", **(cache_kwargs or {}))
    return sim, net, repo, cache


def holder_grid(n_devices, contention=True, portal_profile=None):
    """Portal (repository) and ``n_devices`` caches on DSL links."""
    sim = Simulator(seed=7)
    net = SimNetwork(sim, jitter_fraction=0.0, contention=contention)
    portal = Peer("portal", net, profile=portal_profile)
    repo = ModuleRepository(portal, global_registry())
    caches = [
        ModuleCache(Peer(f"device{i}", net), "portal") for i in range(n_devices)
    ]
    return sim, net, repo, caches


class TestContentAddress:
    def test_digest_is_deterministic(self):
        assert content_digest("FFT", "1.0", 20_000) == content_digest(
            "FFT", "1.0", 20_000
        )

    def test_digest_changes_with_identity(self):
        base = content_digest("FFT", "1.0", 20_000)
        assert content_digest("FFT", "2.0", 20_000) != base
        assert content_digest("FFT", "1.0", 20_001) != base
        assert content_digest("Wave", "1.0", 20_000) != base

    def test_package_autofills_digest(self):
        pkg = ModulePackage(name="FFT", version="1.0", code_size=20_000, cls=object)
        assert pkg.digest == content_digest("FFT", "1.0", 20_000)

    def test_same_identity_same_content_everywhere(self):
        """Two builds of the same release are interchangeable replicas."""
        a = ModulePackage(name="FFT", version="1.0", code_size=20_000, cls=object)
        b = ModulePackage(name="FFT", version="1.0", code_size=20_000, cls=object)
        assert a.digest == b.digest


class TestChunkedTransfer:
    def test_chunk_sizes_cover_payload(self):
        sizes = chunk_sizes(100_000, 64_000)
        assert sum(sizes) == 100_000
        assert all(s <= 64_000 for s in sizes)
        assert chunk_sizes(1_000, 64_000) == [1_000]

    def test_chunked_repo_transfer_reassembles(self):
        sim, net, repo, cache = repo_pair(repo_kwargs={"chunk_bytes": 8_000})
        pkg = sim.run(until=cache.ensure("Wave"))
        assert pkg.name == "Wave"
        assert repo.stats.chunks_sent == 3  # 20 KB in 8 KB chunks
        assert cache.stats.bytes_downloaded == pkg.code_size
        assert list(cache._cached) == ["Wave"]

    @pytest.mark.parametrize("seed", range(8))
    def test_duplicated_chunks_do_not_stand_in_for_missing_ones(self, seed):
        """A contended FFT fetch (20 KB) in 1 KB chunks while 30 % of
        messages are duplicated settles only once all 20 distinct chunks
        have arrived."""
        sim, net, repo, cache = repo_pair(
            repo_kwargs={"chunk_bytes": 1_000}, contention=True, seed=seed
        )
        net.duplicate_fraction = 0.3
        seen, at_settle = set(), []
        on_chunk = cache._on_chunk

        def logged(message):
            seen.add(message.payload[3])
            on_chunk(message)

        cache.peer.replace_handler("module-chunk", logged)
        ev = cache.ensure("FFT")
        ev.callbacks.append(lambda _ev: at_settle.append(len(seen)))
        sim.run(until=ev)
        assert net.stats.duplicated > 0
        assert at_settle == [20]

    def test_small_package_is_not_chunked(self):
        sim, net, repo, cache = repo_pair(repo_kwargs={"chunk_bytes": 64_000})
        sim.run(until=cache.ensure("Wave"))
        assert repo.stats.chunks_sent == 0


class TestPeerReplicas:
    def test_replica_serves_second_device(self):
        # The portal's uplink is a quarter of a device's: a device that
        # holds the digest finishes first, so the portal forwards to it.
        slow = NodeProfile(up_bps=8e3)
        sim, net, repo, (c0, c1) = holder_grid(2, portal_profile=slow)
        first = sim.run(until=c0.ensure("Wave"))
        second = sim.run(until=c1.ensure("Wave"))
        assert second.digest == first.digest
        assert repo.stats.forwards == 1
        assert c1.stats.peer_fetches == 1
        assert c0.stats.peer_serves == 1
        assert c0.stats.bytes_served == first.code_size
        assert repo.stats.packages_served == 1  # the portal shipped bytes once

    def test_portal_forwards_to_the_holder_that_finishes_first(self):
        sim, net, repo, (c0, c1, c2) = holder_grid(3)
        # Three at once: the portal ships the first two; the third would
        # queue behind them on its uplink, so device0 relays it instead.
        events = [c.ensure("Wave") for c in (c0, c1, c2)]
        sim.run(until=sim.all_of(events))
        first = events[0].value
        assert all(ev.value.digest == first.digest for ev in events)
        assert repo.stats.packages_served == 2
        assert repo.stats.forwards == 1
        assert c2.stats.peer_fetches == 1
        assert c0.stats.peer_serves == 1
        assert c0.stats.bytes_served == first.code_size

    def test_a_tie_goes_to_the_portal(self):
        sim, net, repo, (c0, c1) = holder_grid(2)
        sim.run(until=c0.ensure("Wave"))
        # The portal's uplink is idle again: equal links, equal finish.
        sim.run(until=c1.ensure("Wave"))
        assert repo.stats.forwards == 0
        assert repo.stats.packages_served == 2

    def test_replica_miss_falls_back_to_repository(self):
        sim, net, repo, (c0, c1, c2) = holder_grid(3)
        first = sim.run(until=c0.ensure("Wave"))
        # The holder no longer has what the portal remembers it has.
        del c0._cached["Wave"]
        events = [c1.ensure("Wave"), c2.ensure("Wave")]
        sim.run(until=sim.all_of(events))
        assert all(ev.value.name == "Wave" for ev in events)
        assert repo.stats.forwards == 1
        assert c0.stats.peer_serve_misses == 1
        assert c2.stats.peer_fallbacks == 1
        assert repo.stats.packages_served == 3
        assert "device0" not in repo._holders[first.digest]

    def test_remote_requester_parks_on_inflight_download(self):
        sim, net, repo, cache = repo_pair()
        b = Peer("b", net)
        got = []
        b.on("module-package", lambda m: got.append(m.payload))
        ev = cache.ensure("Wave")
        sim.call_at(
            0.05,
            lambda: b.send(
                "device", "module-peer-fetch",
                payload=("b", 999, "Wave", None), size_bytes=96,
            ),
        )
        pkg = sim.run(until=ev)
        sim.run()  # drain: the parked requester is served after absorb
        assert cache.stats.remote_coalesced == 1
        assert cache.stats.peer_serves == 1
        assert cache.stats.bytes_served == pkg.code_size
        assert got and got[0][2].digest == pkg.digest

    def test_offline_requester_does_not_break_serving(self):
        sim, net, repo, (c0, c1) = holder_grid(2)
        sim.run(until=c0.ensure("Wave"))
        c1.peer.send(
            "device0", "module-peer-fetch",
            payload=("device1", 999, "FFT", "bogusdigest"), size_bytes=96,
        )
        sim.run()
        assert c0.stats.peer_serve_misses == 1

    def test_an_uncontended_portal_serves_every_fetch(self):
        sim, net, repo, caches = holder_grid(3, contention=False)
        sim.run(until=sim.all_of([c.ensure("Wave") for c in caches]))
        assert repo.stats.forwards == 0
        assert repo.stats.packages_served == 3
        assert repo._holders == {}


def deploy_log(contention, n_workers=4):
    """Run fig. 1; return the grid, its report and ``(what, worker, t)``
    for each ``triana-deploy`` sent and each ``deploy-ack`` received."""
    grid = ConsumerGrid(n_workers=n_workers, seed=11, contention=contention)
    sim, net, log = grid.sim, grid.transport, []
    send = net.send

    def logged_send(message):
        if message.kind == "triana-deploy":
            log.append(("deploy", message.dst, sim.now))
        return send(message)

    on_ack = grid.controller.deployer._on_ack

    def logged_ack(message):
        log.append(("ack", message.src, sim.now))
        on_ack(message)

    net.send = logged_send
    grid.controller_peer.replace_handler("deploy-ack", logged_ack)
    report = grid.run(fig1_grouped(), iterations=6, probes=("Accum",))
    return grid, report, log


class TestOnePath:
    def test_the_knob_is_gone(self):
        with pytest.raises(TypeError):
            ConsumerGrid(n_workers=1, module_replicas=1)

    @pytest.mark.parametrize("contention", [False, True])
    def test_every_deploy_goes_out_at_once(self, contention):
        _grid, _report, log = deploy_log(contention)
        assert [what for what, _w, _t in log[:4]] == ["deploy"] * 4
        assert len({t for what, _w, t in log if what == "deploy"}) == 1

    def test_an_uncontended_grid_is_the_seed_protocol(self):
        grid = ConsumerGrid(n_workers=2, seed=12)
        grid.run(fig1_grouped(), iterations=2)
        assert grid.repository.stats.forwards == 0
        assert grid.transport.stats.by_kind.get("module-peer-fetch", 0) == 0
        for service in grid.workers.values():
            assert service.cache.stats.peer_fetches == 0

    def test_a_contended_grid_computes_the_same_and_ships_less(self):
        g0, r0, _ = deploy_log(contention=False)
        g1, r1, _ = deploy_log(contention=True)
        assert len(r1.probe_values["Accum"]) == 6
        for a, b in zip(r0.probe_values["Accum"], r1.probe_values["Accum"]):
            np.testing.assert_array_equal(a.data, b.data)
        assert (
            g1.repository.stats.packages_served
            < g0.repository.stats.packages_served
        )
        workers = list(g1.workers.values())
        assert sum(s.cache.stats.peer_fetches for s in workers) > 0
        # the removed lead-wave protocol's best deploy here (k = 0)
        assert r1.deploy_time <= 5.361

    def test_a_holder_that_crashes_mid_relay_falls_back_to_the_portal(self):
        """worker-2's FFT is forwarded to worker-0 while worker-0 is still
        downloading it; worker-0 crashes, so its download never lands and
        worker-2's parked fetch times out and goes back to the portal."""
        plan = FaultPlan([
            Fault(kind="crash", at=0.5, duration=5.0, targets=("worker-0",)),
        ])
        grid = ConsumerGrid(
            n_workers=4, seed=11, contention=True, fault_plan=plan, trace=True
        )
        report = grid.run(stateless_pipeline(), iterations=6, probes=("Power",))

        local = LocalEngine(stateless_pipeline())
        probe = local.attach_probe("Power")
        local.run(6)
        assert result_checksum(report.probe_values["Power"]) == result_checksum(
            probe.values
        )
        forwards = [
            dict(e.attrs) for e in grid.sim.tracer.events if e.name == "repo.forward"
        ]
        assert {"unit": "FFT", "requester": "worker-2", "holder": "worker-0"} in forwards
        assert grid.workers["worker-2"].cache.stats.peer_fallbacks == 1
        assert grid.workers["worker-0"].cache.stats.peer_serves == 0
        (fft,) = [
            s for s in grid.sim.tracer.spans
            if s.name == "module.fetch" and s.track == "worker-2"
            and s.attrs["unit"] == "FFT"
        ]
        assert fft.attrs["source"] == "repo"  # the portal served the fallback
        fft_digest = grid.repository.package("FFT").digest
        assert "worker-0" not in grid.repository._holders[fft_digest]
