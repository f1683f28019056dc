"""A worker's heartbeat loop and a farm's recovery loop are driven by
``Simulator.drive``: one scheduled call per wait, not a ``Process``
resumed by a fresh ``Timeout``.

The reference below runs every driven loop as such a process, the way
both loops ran before: the same beat and release times, suspicions,
redispatches, counters, results and byte-identical traces, on generated
deployments with releases, lost releases and offline windows, on
generated farms with a chaos storm, and on the hostile farm.  What
differs is the kernel's event count, by exactly one per loop that
ended (the completion event of a process nobody waits on) and one per
wake-up that joined a drive cohort (the timeout a process waits on
alone).
"""

import hashlib
import math
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import ConsumerGrid, TaskGraph, chaos
from repro.apps.inspiral import build_inspiral_graph
from repro.core.xml_io import graph_to_string
from repro.observe.export import jsonl_lines
from repro.p2p import LAN_PROFILE
from repro.service.worker import DeploymentSpec
from repro.simkernel import SimTimeError, Simulator
from repro.transport.wire import result_checksum
from tests.test_exec_loop import filter_chain
from tests.test_simkernel_sim import counting_cohort_joins

# -- the reference: a driven loop as a Process on Timeouts -------------------------------


class ProcessDrive:
    """Stands in for ``Simulator.drive``: runs the loop as a kernel
    ``Process`` that waits on ``sim.timeout(delay)`` for each delay the
    loop yields, created at the moment the loop yields it.  ``ended``
    counts the loops that finished, each of which leaves one completion
    event the driven loop does not schedule."""

    def __init__(self):
        self.ended = 0

    def drive(self, sim, loop):
        sim.process(self._as_process(sim, loop))

    def _as_process(self, sim, loop):
        try:
            delay = loop.send(None)
            while True:
                try:
                    timeout = sim.timeout(delay)
                except SimTimeError as exc:
                    delay = loop.throw(exc)
                    continue
                yield timeout
                delay = loop.send(None)
        except StopIteration:
            self.ended += 1
        except Exception:
            self.ended += 1
            raise


@contextmanager
def process_driven():
    """Inside the block, every ``sim.drive`` loop runs as a process."""
    reference = ProcessDrive()
    saved = Simulator.drive
    Simulator.drive = lambda sim, loop: reference.drive(sim, loop)
    try:
        yield reference
    finally:
        Simulator.drive = saved


def assert_same_schedule(build_and_run):
    """Run once on the reference and once driven; everything observed
    matches and the event counts differ by the loops that ended and the
    loops that joined a drive cohort.  Returns what the driven run
    observed and how many loops ended."""
    with process_driven() as reference:
        ref, ref_events = build_and_run()
    with counting_cohort_joins() as joins:
        new, new_events = build_and_run()
    for key in ref:
        assert new[key] == ref[key], key
    assert ref_events - new_events == reference.ended + joins[0]
    return new, reference.ended


def trace_digest(grid) -> str:
    return hashlib.sha256("\n".join(jsonl_lines(grid.sim.tracer)).encode()).hexdigest()


# -- a worker beats while it holds a deployment --------------------------------------------

WORKERS = ["worker-0", "worker-1"]

deploy = st.tuples(
    st.floats(0.0, 60.0),  # when the controller sends it
    st.sampled_from(WORKERS),
    st.sampled_from([0.25, 0.5, 1.0, 1.5, 3.0]),  # its heartbeat interval
    st.floats(0.0, 40.0),  # how long the controller holds it
    st.booleans(),  # whether the release that ends the hold is lost
)
offline = st.tuples(
    st.floats(0.0, 60.0), st.sampled_from(WORKERS), st.floats(0.1, 20.0)
)


def held_spec(dep_id, controller, interval):
    """A one-unit deployment that beats every ``interval`` seconds."""
    graph = TaskGraph("held")
    graph.add_task("Source", "Wave", samples=8)
    return DeploymentSpec(
        deployment_id=dep_id, controller=controller, xml=graph_to_string(graph),
        external_inputs=(), output_spec=(), heartbeat_interval=interval,
    )


def lease_outcome(seed, deploys, offline_windows, horizon):
    """Two idle workers; the controller deploys onto them, holds each
    deployment for a while and then releases it, some releases lost,
    while the workers drop offline and return.  A beat naming a
    deployment the controller no longer holds draws another release."""
    grid = ConsumerGrid(n_workers=len(WORKERS), seed=seed, trace=True)
    sim, net = grid.sim, grid.transport
    controller = grid.controller.peer
    deployer = grid.controller.deployer
    start = sim.now
    beats, releases = [], []

    def on_beat(message):
        beats.append((sim.now, message.src, message.payload[1]))
        grid.controller._on_heartbeat(message)

    controller.replace_handler("triana-heartbeat", on_beat)
    for worker in WORKERS:
        service = grid.workers[worker]

        def on_release(message, service=service):
            ended = sorted(set(message.payload) & set(service.deployments))
            releases.append((sim.now, service.peer.peer_id, ended))
            service._on_release(message)

        grid.worker_peers[worker].replace_handler("triana-release", on_release)

    def send_deploy(spec, worker):
        deployer._held.add(spec.deployment_id)
        controller.send(worker, "triana-deploy", spec, len(spec.xml))

    def end_hold(dep_id, worker, lost):
        deployer._held.discard(dep_id)
        if not lost:
            deployer._release(worker, [dep_id])

    for i, (at, worker, interval, hold, lost) in enumerate(deploys):
        spec = held_spec(f"dep-{i}", controller.peer_id, interval)
        sim.call_at(start + at, send_deploy, spec, worker)
        sim.call_at(start + at + hold, end_hold, spec.deployment_id, worker, lost)
    for at, worker, duration in offline_windows:
        sim.call_at(start + at, net.set_online, worker, False)
        sim.call_at(start + at + duration, net.set_online, worker, True)
    sim.run(until=start + horizon)
    services = [grid.workers[w] for w in WORKERS]
    observed = {
        "beats": beats,
        "releases": releases,
        "sent": [s.stats.heartbeats_sent for s in services],
        "running": [s._hb_running for s in services],
        "held": [sorted(s.deployments) for s in services],
        "trace": trace_digest(grid),
    }
    return observed, sim.events_executed


@given(
    seed=st.integers(0, 2**16),
    deploys=st.lists(deploy, min_size=1, max_size=8),
    offline_windows=st.lists(offline, max_size=4),
)
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_driven_heartbeats_are_the_process_heartbeats(seed, deploys, offline_windows):
    new, ended = assert_same_schedule(
        lambda: lease_outcome(seed, deploys, offline_windows, horizon=300.0)
    )
    # Every deployment has been released by the horizon, a lost release
    # by the release a later beat drew, and each loop that started ended.
    assert new["held"] == [[], []]
    assert new["running"] == [False, False]
    assert ended >= (1 if new["beats"] else 0)
    # A deployment a release ended is never named by a beat sent after it.
    for at, worker, dep_ids in new["releases"]:
        assert not any(
            t > at + 1.0 and src == worker and set(ids) & set(dep_ids)
            for t, src, ids in new["beats"]
        )


# -- recovery loops -----------------------------------------------------------------------

VOLUNTEERS = [f"worker-{i}" for i in range(4)]


@given(
    policy=st.sampled_from(["parallel", "chunked"]),
    iterations=st.integers(1, 30),
    heartbeat=st.sampled_from([0.5, 1.0, 2.0]),
    retry_interval=st.sampled_from([1.0, 2.0, 5.0]),
    adversity=st.sampled_from(["none", "replicate-3", "chaos", "crash"]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_driven_recovery_is_the_process_recovery(
    policy, iterations, heartbeat, retry_interval, adversity, seed,
):
    def build_and_run():
        level = "heavy" if adversity == "crash" else "moderate"
        plan = (
            chaos(level, seed=seed, workers=VOLUNTEERS, start=1.0, horizon=8.0)
            if adversity in ("chaos", "crash") else None
        )
        grid = ConsumerGrid(
            n_workers=len(VOLUNTEERS), seed=seed, trace=True,
            worker_profile=LAN_PROFILE, controller_profile=LAN_PROFILE,
            worker_efficiency=1e-5, heartbeat_interval=heartbeat,
            suspect_after_missed=2, retry_timeout=30.0, retry_interval=retry_interval,
            fault_plan=plan,
        )
        verification = "replicate-3" if adversity == "replicate-3" else "none"
        try:
            report = grid.run(
                filter_chain(policy, 2), iterations, verification=verification,
                run_until=100_000,
            )
        except TimeoutError:
            report = None
        observed = {
            "finished": report is not None,
            "checksum": report and result_checksum(report.group_results),
            "makespan": report and report.makespan,
            "recovery": report and report.recovery,
            "suspicions": sum(
                rec.suspicions for rec in grid.controller.detector.workers.values()
            ),
            "heartbeats": [w.stats.heartbeats_sent for w in grid.workers.values()],
            "now": grid.sim.now,
            "trace": trace_digest(grid),
        }
        return observed, grid.sim.events_executed

    new, ended = assert_same_schedule(build_and_run)
    assert ended >= 1  # the recovery loop, at least
    if adversity == "none":
        assert new["finished"]


N_HOSTILE = 8


def traced_hostile_farm(seed):
    """The gridbench shape of the Case 2 farm, traced: 8 LAN workers with
    1 s heartbeats, lying volunteers, replicate-3 voting, 20 chunks."""
    grid = ConsumerGrid(
        n_workers=N_HOSTILE, seed=seed, worker_profile=LAN_PROFILE,
        controller_profile=LAN_PROFILE, worker_efficiency=5e-3,
        heartbeat_interval=1.0, trace=True,
        fault_plan=chaos(
            "hostile", seed=5, workers=[f"worker-{i}" for i in range(N_HOSTILE)],
            start=0.01, horizon=1e6,
        ),
    )
    graph = build_inspiral_graph(n_templates=8, chunk_seconds=4.0, seed=seed)
    report = grid.run(graph, 20, verification="replicate-3", run_until=1e7)
    observed = {
        "checksum": result_checksum(report.group_results),
        "makespan": report.makespan,
        "integrity": report.integrity,
        "recovery": report.recovery,
        "heartbeats": [w.stats.heartbeats_sent for w in grid.workers.values()],
        "trace": trace_digest(grid),
    }
    return observed, grid.sim.events_executed


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_the_hostile_farm_is_unchanged(seed):
    _, ended = assert_same_schedule(lambda: traced_hostile_farm(seed))
    assert ended == N_HOSTILE + 1  # eight heartbeat loops and the recovery loop


# -- a deployment with a bad interval -----------------------------------------------------


def beats_toward(grid):
    """The beat times the controller receives, relative to now."""
    sim, start, beats = grid.sim, grid.sim.now, []
    grid.controller.peer.replace_handler(
        "triana-heartbeat", lambda message: beats.append(sim.now - start)
    )
    return beats


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
def test_a_bad_interval_does_not_silence_the_worker(bad):
    """A deployment with a malformed interval arrives off the wire at
    t=3.5 beside one that beats every second; the worker beats each
    second until both are released at t=40, and then stops."""
    grid = ConsumerGrid(n_workers=1, seed=2)
    sim, controller = grid.sim, grid.controller.peer.peer_id
    (service,) = grid.workers.values()
    start = sim.now
    beats = beats_toward(grid)
    for at, dep_id, interval in ((0.0, "dep-good", 1.0), (3.5, "dep-bad", bad)):
        sim.call_at(
            start + at, grid.controller_peer.send, "worker-0", "triana-deploy",
            held_spec(dep_id, controller, interval),
        )
    sim.call_at(
        start + 40.0, grid.controller_peer.send, "worker-0", "triana-release",
        ("dep-good", "dep-bad"),
    )
    sim.run(until=start + 60.0)
    assert service.stats.heartbeats_sent == len(beats) >= 38
    assert 39.0 < max(beats) < 41.0
    assert service._hb_interval == 1.0 and not service._hb_running
    assert service.deployments == {}


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
def test_a_bad_first_interval_starts_no_loop(bad):
    grid = ConsumerGrid(n_workers=1, seed=2)
    (service,) = grid.workers.values()
    beats = beats_toward(grid)
    grid.controller_peer.send(
        "worker-0", "triana-deploy",
        held_spec("dep-bad", grid.controller.peer.peer_id, bad),
    )
    grid.sim.run(until=grid.sim.now + 30.0)
    assert list(service.deployments) == ["dep-bad"]
    assert not service._hb_running
    assert service.stats.heartbeats_sent == 0 == len(beats)
