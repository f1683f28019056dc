"""A worker's exec loop is a generator the kernel drives with scheduled
calls, not a ``Process`` blocked on a ``Store``.

The process-on-a-store loop is kept below as the reference the driven
loop must be indistinguishable from: the same results, makespans,
messages, bytes and byte-identical traces, on generated pipelines and
farms with and without replication and a chaos storm, with a cluster
peer in the fleet and across a chain migration.  What differs is the
kernel's event count, by exactly one per iteration that went through a
queue and one per deployment: the event ``Store.put`` pushed and nobody
awaited, and the ``Process``'s start-up event.
"""

from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.grid
from repro import ConsumerGrid, TaskGraph, chaos
from repro.core import UnitRegistry
from repro.core.toolbox import Grapher, Wave
from repro.core.units import Unit
from repro.observe.export import jsonl_lines
from repro.p2p import LAN_PROFILE
from repro.resources.gram import BatchQueue, JobSpec
from repro.service.cluster import ClusterTrianaService
from repro.service.worker import TrianaService
from repro.simkernel import Store
from repro.transport.wire import result_checksum
from tests.test_service_migration import stateful_chain_graph

# -- the reference: the exec loop as a Process on a Store ----------------------------


class StoreLoop:
    """Runs ``_exec_loop`` as a kernel ``Process`` that blocks on a
    ``Store``, the way workers executed before the loop was driven.

    The store's item deque *is* ``dep.queue``, so draining, migration and
    telemetry read the same queue either way.  ``puts`` and ``loops``
    count the two events the driven loop does not schedule.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.puts = self.loops = 0

    def _drive(self, dep, item=None):
        # Reached once per deployment, from _deploy_proc.
        dep.store = Store(self.sim)
        dep.store.items = dep.queue
        self.loops += 1
        self.sim.process(self._exec_loop(dep), name=f"exec/{dep.spec.deployment_id}")

    def _enqueue(self, dep, item):
        self.puts += 1
        dep.store.put(item)


class StoreService(StoreLoop, TrianaService):
    def _exec_loop(self, dep):
        while True:
            iteration, inputs = yield dep.store.get()
            speed = (
                self.peer.profile.cpu_flops
                * self.efficiency
                * self.peer.network.speed_factor(self.peer.peer_id)
            )
            outputs, flops, span = self._step(dep, iteration, inputs)
            duration = flops / speed
            yield self.sim.timeout(duration)
            self._complete(dep, iteration, outputs, duration, span)


class StoreCluster(StoreLoop, ClusterTrianaService):
    def _exec_loop(self, dep):
        while True:
            iteration, inputs = yield dep.store.get()
            outputs, flops, span = self._step(dep, iteration, inputs)
            job = self.gateway.submit(
                JobSpec(flops=max(flops, 1.0), user=self.grid_user),
                self.credential,
            )

            def on_done(ev, iteration=iteration, outputs=outputs, span=span):
                if ev.ok:
                    self._complete(dep, iteration, outputs, ev.value, span)

            job.callbacks.append(on_done)


@contextmanager
def reference_services():
    """Grids built inside the block host the reference services."""
    saved = repro.grid.TrianaService, repro.grid.ClusterTrianaService
    repro.grid.TrianaService, repro.grid.ClusterTrianaService = StoreService, StoreCluster
    try:
        yield
    finally:
        repro.grid.TrianaService, repro.grid.ClusterTrianaService = saved


# -- generated runs ---------------------------------------------------------------------

VOLUNTEERS = [f"worker-{i}" for i in range(4)]


def filter_chain(policy, stages):
    """Wave → ``stages`` alternating LowPass/HighPass filters grouped under
    ``policy`` → Grapher, on 64-sample frames."""
    g = TaskGraph(f"filters-{policy}-{stages}")
    g.add_task("Source", "Wave", samples=64)
    names, prev = [], "Source"
    for i in range(stages):
        name = f"Stage{i}"
        if i % 2 == 0:
            g.add_task(name, "LowPass", cutoff=400.0 - i)
        else:
            g.add_task(name, "HighPass", cutoff=1.0 + i)
        g.connect(prev, 0, name, 0)
        names.append(name)
        prev = name
    g.add_task("Sink", "Grapher")
    g.connect(prev, 0, "Sink", 0)
    g.group_tasks("Chain", names, policy=policy)
    return g


def slow_grid(seed, plan=None, cluster=True):
    """Four compute-bound volunteers and, with ``cluster``, a two-slot
    cluster peer."""
    grid = ConsumerGrid(
        n_workers=len(VOLUNTEERS), seed=seed, trace=True,
        worker_profile=LAN_PROFILE, controller_profile=LAN_PROFILE,
        worker_efficiency=1e-5, heartbeat_interval=1.0,
        suspect_after_missed=2, retry_timeout=30.0, retry_interval=2.0,
        fault_plan=plan,
    )
    if cluster:
        # add_cluster_worker settles by draining the queue, which would fire
        # a fault plan before the run; settle only the advertisement.
        queue = BatchQueue(grid.sim, nodes=1, cores_per_node=2,
                           cpu_flops=LAN_PROFILE.cpu_flops * 1e-5)
        grid.add_worker("cluster-0", LAN_PROFILE, queue)
        grid.sim.run(until=0.5)
    return grid


def outcome(grid, run):
    """What one run shows, the events it executed, and how many of them
    a reference service scheduled that the driven loop does not."""
    try:
        report = run()
    except TimeoutError:
        report = None
    services = grid.workers.values()
    observed = {
        "finished": report is not None,
        "checksum": report and result_checksum(report.group_results),
        "makespan": report and report.makespan,
        "traffic": report and (report.messages_sent, report.bytes_sent),
        "now": grid.sim.now,
        "executed": [svc.stats.iterations for svc in services],
        "trace": "\n".join(jsonl_lines(grid.sim.tracer)),
    }
    skipped = sum(getattr(s, "puts", 0) + getattr(s, "loops", 0) for s in services)
    return observed, grid.sim.events_executed, skipped


def assert_same_schedule(build_and_run):
    with reference_services():
        ref, ref_events, skipped = build_and_run()
    new, new_events, _ = build_and_run()
    assert skipped > 0
    for key in ref:
        assert new[key] == ref[key], key
    assert ref_events - new_events == skipped
    return new


@given(
    policy=st.sampled_from(["p2p", "parallel", "chunked"]),
    stages=st.integers(1, 6),
    iterations=st.integers(1, 40),
    adversity=st.sampled_from(["none", "replicate-3", "chaos"]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_driven_loop_is_the_store_loop_schedule(policy, stages, iterations, adversity, seed):
    def build_and_run():
        plan = (
            chaos("moderate", seed=seed, workers=VOLUNTEERS, start=1.0, horizon=8.0)
            if adversity == "chaos" else None
        )
        grid = slow_grid(seed, plan)
        verification = "replicate-3" if adversity == "replicate-3" else "none"
        return outcome(grid, lambda: grid.run(
            filter_chain(policy, stages), iterations, verification=verification,
            run_until=100_000,
        ))

    new = assert_same_schedule(build_and_run)
    if adversity == "none":
        assert new["finished"]


def test_a_drained_queue_resumes_on_the_new_home_identically():
    """Chain migration: the first stage's home drains with iterations
    queued behind the one executing, and the new home resumes them."""
    drained = []

    def build_and_run():
        grid = slow_grid(52, cluster=False)
        old_home = grid.workers["worker-0"]

        def spy(message):
            drained.append(len(old_home.deployments[message.payload[1]].queue))
            old_home._on_drain(message)

        grid.worker_peers["worker-0"].replace_handler("triana-drain", spy)
        done = grid.controller.run_distributed(
            stateful_chain_graph(), 24, ["worker-0", "worker-1"]
        )
        grid.sim.call_at(
            0.05, lambda: grid.controller.migrate_stage(0, "worker-2", settle=0.05)
        )
        return outcome(grid, lambda: grid.sim.run(until=done))

    new = assert_same_schedule(build_and_run)
    assert new["finished"]
    assert drained[0] == drained[1] > 0  # both drains had work queued


# -- a unit that raises on a worker -------------------------------------------------------


class FailsOnThird(Unit):
    """Passes frames through and raises on its third."""

    def reset(self):
        self.calls = 0

    def process(self, inputs):
        self.calls += 1
        if self.calls == 3:
            raise ValueError("third frame")
        return list(inputs)


def failing_farm():
    registry = UnitRegistry()
    registry.register(Wave, category="signal")
    registry.register(Grapher, category="output")
    registry.register(FailsOnThird, category="test")
    g = TaskGraph("fails", registry=registry)
    g.add_task("Wave", "Wave", samples=64)
    g.add_task("Fail", "FailsOnThird")
    g.add_task("Sink", "Grapher")
    g.connect("Wave", 0, "Fail", 0)
    g.connect("Fail", 0, "Sink", 0)
    g.group_tasks("G", ["Fail"], policy="parallel")
    return g, registry


def assert_stopped_after_failure(grid):
    (svc,) = grid.workers.values()
    (dep,) = svc.deployments.values()
    assert svc.stats.iterations == 2  # nothing executes after the third
    assert dep.queue and not dep.idle  # later iterations wait, unserved
    assert 2 in dep.pending


def test_a_unit_raising_stops_its_deployment_and_the_run_times_out():
    def build_and_run():
        graph, registry = failing_farm()
        grid = ConsumerGrid(n_workers=1, seed=4, registry=registry, trace=True)
        with pytest.raises(TimeoutError):
            grid.run(graph, 6, run_until=500.0)
        assert grid.sim.now == 500.0
        assert_stopped_after_failure(grid)
        return outcome(grid, lambda: None)

    with reference_services():
        ref = build_and_run()[0]
    new = build_and_run()[0]
    assert new == ref


def test_a_unit_raising_over_tcp_stops_its_deployment_only():
    graph, registry = failing_farm()
    grid = ConsumerGrid(
        n_workers=1, seed=4, registry=registry, transport="tcp",
        query_window=0.4, heartbeat_interval=5.0,
    )
    try:
        horizon = grid.sim.now + 3.0
        with pytest.raises(TimeoutError):
            grid.run(graph, 6, run_until=horizon)
        assert grid.sim.now >= horizon  # the clock follows the wall past it
        assert_stopped_after_failure(grid)
    finally:
        grid.transport.close()

