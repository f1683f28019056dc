"""A worker's deployments are its lease.

A worker beats toward a controller exactly while it holds a deployment
from it, and each beat names those deployments.  A run releases every
deployment it asked for when it ends (``triana-release``, one per
worker), and the controller answers a beat naming a deployment it does
not hold with a release.  So a drained grid holds nothing, and a worker
whose release was lost stops within one heartbeat interval plus one
round trip of its controller being reachable again.
"""

import gc

import pytest

from repro import ConsumerGrid
from repro.analysis import fig1_grouped
from repro.faults import Fault, FaultPlan
from repro.p2p import LAN_PROFILE
from repro.service import DeploymentError
from tests.test_service_run import stateless_pipeline


def record_beats(grid):
    """Every beat the controller receives, as ``(t, worker, ids)``; the
    controller still handles each one."""
    beats = []
    controller = grid.controller

    def on_beat(message):
        beats.append((grid.sim.now, *message.payload))
        controller._on_heartbeat(message)

    grid.controller_peer.replace_handler("triana-heartbeat", on_beat)
    return beats


def beats_sent(grid):
    return [w.stats.heartbeats_sent for w in grid.workers.values()]


def test_a_drained_grid_holds_no_deployment():
    grid = ConsumerGrid(n_workers=2, seed=5)
    for _ in range(5):
        grid.run(fig1_grouped(), iterations=8)
        sent = beats_sent(grid)
        grid.sim.run()
        # the release lands before the first beat is due: none is sent
        assert beats_sent(grid) == sent
    assert [len(w.deployments) for w in grid.workers.values()] == [0, 0]


def test_fifty_runs_leave_nothing_to_collect():
    """Each run's deployments, engines and result caches go with its
    release: after 50 runs the heap is the heap after run 2, give or
    take 100 objects (one unreleased run's deployments are ~90)."""
    grid = ConsumerGrid(n_workers=2, seed=5)
    counts = []
    for _ in range(50):
        grid.run(fig1_grouped(), iterations=8)
        grid.sim.run()
        gc.collect()
        counts.append(len(gc.get_objects()))
    assert abs(counts[-1] - counts[1]) <= 100


def test_a_stray_deployment_is_released_within_one_beat():
    # worker-1 sits on every deploy for 30 s: the controller gives up on
    # it at t~3 and the farm runs on worker-0.  The run's release reaches
    # worker-1 before the deploy it names, so the deployment that lands
    # at t~30 is a stray: its first beat draws a release.
    grid = ConsumerGrid(n_workers=2, seed=7, heartbeat_interval=5.0, trace=True)
    grid.controller.deployer.deploy_timeout = 3.0
    peer, sim = grid.worker_peers["worker-1"], grid.sim
    service = grid.workers["worker-1"]
    deploy = service._on_deploy
    peer.replace_handler(
        "triana-deploy", lambda m: sim.call_at(sim.now + 30.0, deploy, m)
    )
    beats = record_beats(grid)
    landed = []
    ack = service._ack_deploy

    def ack_and_note(spec, error=None, final=False):
        landed.append(sim.now)  # the first ack; later ones answer re-asks
        ack(spec, error, final)

    service._ack_deploy = ack_and_note
    done = grid.controller.run_distributed(
        stateless_pipeline(), 4, ["worker-0", "worker-1"], ()
    )
    report = sim.run(until=done)
    assert set(report.placements.values()) == {"worker-0"}
    sim.run()  # drains: the stray is released and worker-1 falls silent
    assert 30.0 < landed[0] < 40.0
    assert service.deployments == {}
    # the run's own release came first and found nothing; the stray's
    # first beat drew the second
    released = [
        e.time for e in sim.tracer.events
        if e.name == "net.recv" and e.track == "worker-1"
        and e.info["kind"] == "triana-release"
    ]
    assert len(released) == 2 and released[0] < landed[0] < released[1]
    net, interval = grid.transport, 5.0
    rtt = net.transfer_time("worker-1", "controller", 48) + net.transfer_time(
        "controller", "worker-1", 48
    )
    assert released[1] <= landed[0] + interval + rtt
    stray = [t for t, worker, _ids in beats if worker == "worker-1"]
    assert len(stray) == service.stats.heartbeats_sent == 1


def test_a_release_lost_to_a_controller_crash_is_drawn_by_the_next_beat():
    # The controller is down from t=0.1 to t=10.1: every deploy-ack is
    # lost, the asks give up, and the failed run's releases are lost with
    # them.  The deployments land and beat into the void until it returns.
    crash = Fault(kind="crash", at=0.1, duration=10.0, targets=("controller",))
    grid = ConsumerGrid(
        n_workers=2, seed=5, heartbeat_interval=1.0, fault_plan=FaultPlan([crash])
    )
    grid.controller.deployer.deploy_timeout = 3.0
    beats = record_beats(grid)
    with pytest.raises(DeploymentError, match="no worker left"):
        grid.run(fig1_grouped(), iterations=4, workers=sorted(grid.workers))
    grid.sim.run(until=10.0)
    assert all(len(w.deployments) == 1 for w in grid.workers.values())
    assert beats == [] and min(beats_sent(grid)) >= 7
    grid.sim.run()  # drains
    assert all(w.deployments == {} for w in grid.workers.values())
    # each worker's first beat after the return drew the release
    back = 10.1
    for worker in grid.workers:
        heard = [t for t, w, _ids in beats if w == worker]
        assert len(heard) == 1 and back <= heard[0] <= back + 1.0 + 0.1
    # the two the run sent while down were lost; the two beats drew two
    assert grid.transport.stats.by_kind["triana-release"] == 2


def test_an_offline_askers_attempts_end_at_three_distinct_deadlines():
    # The controller is offline: every deploy send raises.  Each attempt
    # still waits out its own deadline, like a lost reply.
    grid = ConsumerGrid(n_workers=1, seed=5)
    deployer = grid.controller.deployer
    deployer.deploy_timeout = 3.0
    sends = []
    send = deployer._send

    def recording_send(worker, spec):
        sends.append(grid.sim.now)
        return send(worker, spec)

    deployer._send = recording_send
    grid.controller_peer.go_offline()
    t0 = grid.sim.now
    with pytest.raises(DeploymentError, match="after 3 attempts"):
        grid.run(fig1_grouped(), iterations=1, workers=["worker-0"])
    assert sends == pytest.approx([t0, t0 + 1.0, t0 + 2.0])
    assert grid.sim.now == pytest.approx(t0 + 3.0)


def test_a_long_pipeline_keeps_every_stage_beating_until_its_release():
    # 1 s beats and a p2p run of ~40 s: forty intervals, where a beat
    # lease of ten would have run out
    grid = ConsumerGrid(
        n_workers=2, seed=3, heartbeat_interval=1.0, worker_profile=LAN_PROFILE,
        controller_profile=LAN_PROFILE, worker_efficiency=2e-6,
    )
    beats = record_beats(grid)
    report = grid.run(fig1_grouped("p2p"), iterations=8)
    end = grid.sim.now
    assert report.makespan > 10.0
    for worker in sorted(set(report.placements.values())):
        times = [t for t, w, _ids in beats if w == worker]
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert max(gaps) == pytest.approx(1.0)
        assert end - times[-1] <= 1.0
    grid.sim.run()
    assert all(w.deployments == {} for w in grid.workers.values())
