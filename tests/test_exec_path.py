"""The exec path, once: a single iteration is a batch of one.

``group-exec`` carries ``(deployment_id, [(iteration, inputs), ...])``
from policy to wire to worker; ``parallel`` is the farm with
``chunk_size = 1``.  These tests pin the fold on generated inputs: the
same numbers whatever the batch size, one message per filled buffer,
replication batch-wise, a tombstone forwarding a batch whole, and an
old-shape frame refused loudly instead of mis-executed.
"""

import math
from contextlib import contextmanager

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import ConsumerGrid
from repro.core.types import SampleSet
from repro.observe import Tracer
from repro.service import ChunkedFarmPolicy, global_policy_registry
from repro.service.integrity import ReplicationVoting
from repro.transport.wire import result_checksum
from tests.test_service_policies import farm_graph
from tests.test_transport_tcp import pump_until


@contextmanager
def registered_chunk_policy(chunk_size):
    """A third-party ``ChunkedFarmPolicy`` subclass with a drawn batch size."""

    class DrawnChunkPolicy(ChunkedFarmPolicy):
        """Chunked farm with a generated batch size."""

        name = "drawn-chunk"

        def __init__(self):
            super().__init__(chunk_size=chunk_size)

    global_policy_registry().register(DrawnChunkPolicy)
    try:
        yield DrawnChunkPolicy.name
    finally:
        global_policy_registry().unregister(DrawnChunkPolicy.name)


def run_farm(policy, iterations, n_workers, dealing, **run_kw):
    grid = ConsumerGrid(n_workers=n_workers, seed=31, trace=True)
    report = grid.run(
        farm_graph(policy), iterations=iterations, dispatch=dealing, **run_kw
    )
    return grid, report


def net_sends(grid):
    return [
        (e.time, e.track, e.attrs)
        for e in grid.sim.tracer.events
        if e.name == "net.send"
    ]


# -- (a) the fold, on generated farms -------------------------------------------------


@given(
    chunk_size=st.integers(1, 12),
    iterations=st.integers(1, 40),
    n_workers=st.integers(1, 5),
    dealing=st.sampled_from(["round_robin", "weighted"]),
)
@settings(max_examples=30, deadline=None)
def test_any_chunk_size_is_the_same_farm(chunk_size, iterations, n_workers, dealing):
    par_grid, par = run_farm("parallel", iterations, n_workers, dealing)
    with registered_chunk_policy(chunk_size) as name:
        chk_grid, chk = run_farm(name, iterations, n_workers, dealing)
    assert result_checksum(chk.group_results) == result_checksum(par.group_results)
    # Fault-free, a worker executes exactly what it was dealt: one message
    # per filled buffer plus one for each remainder.
    dealt = [svc.stats.iterations for svc in chk_grid.workers.values()]
    assert sum(dealt) == iterations
    assert chk_grid.transport.stats.by_kind["group-exec"] == sum(
        math.ceil(d / chunk_size) for d in dealt
    )
    assert par_grid.transport.stats.by_kind["group-exec"] == iterations
    if chunk_size == 1:
        assert (chk.makespan, chk.messages_sent, chk.bytes_sent) == (
            par.makespan, par.messages_sent, par.bytes_sent
        )
        assert net_sends(chk_grid) == net_sends(par_grid)


# -- (b) replication under a batching farm --------------------------------------------


def test_replicate3_under_chunked_replicates_batch_wise():
    iterations = 24
    grid, report = run_farm(
        "chunked", iterations, 4, "round_robin", verification="replicate-3"
    )
    assert report.integrity["replicas_issued"] == 2 * iterations
    replicated = [
        e.info for e in grid.sim.tracer.events if e.name == "verify.replicate"
    ]
    # 24 iterations over 4 replicas = one six-item message each, copied twice.
    assert [info["batched"] for info in replicated] == [6] * 8
    clean = run_farm("chunked", iterations, 4, "round_robin")[1]
    assert result_checksum(report.group_results) == result_checksum(clean.group_results)


class _VotingCtx:
    """The slice of a ``DispatchContext`` ``ReplicationVoting`` dispatches through."""

    chain = ()
    replica_hosts = ["w0", "w1", "w2", "w3"]
    dep_ids = ["d0", "d1", "d2", "d3"]

    def __init__(self):
        self.sends = []

        class _Sim:
            now = 0.0
            tracer = Tracer()

        class _Peer:
            peer_id = "controller"

        class _Detector:
            @staticmethod
            def is_dispatchable(host, now):
                return True

        self.sim, self.peer, self.detector = _Sim(), _Peer(), _Detector()

    def is_online(self, host):
        return True

    def send_exec(self, worker, deployment_id, items, verify=True):
        self.sends.append((worker, deployment_id, list(items), verify))


def test_redispatch_from_a_batch_adds_one_voter_to_that_ballot_only():
    ctx = _VotingCtx()
    voting = ReplicationVoting(3)
    voting.start(ctx)
    batch = [(0, ["a"]), (1, ["b"]), (2, ["c"])]
    voting.on_dispatch(ctx, "w0", "d0", batch)
    # The batch replicates as a batch, outside the verification hook.
    assert ctx.sends == [("w1", "d1", batch, False), ("w2", "d2", batch, False)]
    assert voting.stats["replicas_issued"] == 6
    assert all(voting.ballots[it].targets == {"w0", "w1", "w2"} for it in range(3))
    instants = [e.info for e in ctx.sim.tracer.events if e.name == "verify.replicate"]
    assert [(i["worker"], i["iteration"], i["batched"]) for i in instants] == [
        ("w1", 0, 3), ("w2", 0, 3)
    ]

    voting.on_dispatch(ctx, "w3", "d3", [(1, ["b"])])  # recovery: travels alone
    assert len(ctx.sends) == 2  # a known iteration is not replicated again
    assert voting.ballots[1].targets == {"w0", "w1", "w2", "w3"}
    assert voting.ballots[0].targets == voting.ballots[2].targets == {"w0", "w1", "w2"}

    voting.on_dispatch(ctx, "w0", "d0", [(3, ["d"])])  # a single stays a single
    assert ctx.sends[2:] == [
        ("w1", "d1", [(3, ["d"])], False), ("w2", "d2", [(3, ["d"])], False)
    ]
    last = [e.info for e in ctx.sim.tracer.events if e.name == "verify.replicate"][-1]
    assert "batched" not in last


# -- (c) a tombstone forwards a batch whole -------------------------------------------


def test_tombstone_forwards_a_three_item_exec_as_one_message():
    grid = ConsumerGrid(n_workers=2, seed=9)
    grid.run(farm_graph(), iterations=2)
    old_home, new_home = grid.workers["worker-0"], grid.workers["worker-1"]
    (new_dep,) = new_home.deployments
    old_home._tombstones["dep-moved"] = ("worker-1", new_dep)
    forwarded = []
    accept = new_home._on_exec

    def capture(message):
        forwarded.append(message)
        accept(message)

    grid.worker_peers["worker-1"].replace_handler("group-exec", capture)
    frame = SampleSet(data=np.arange(64.0), sampling_rate=64.0)
    items = [(100 + i, [frame]) for i in range(3)]
    done_before = new_home.stats.iterations
    grid.controller_peer.send(
        "worker-0", "group-exec", payload=("dep-moved", items), size_bytes=777
    )
    grid.sim.run()
    (message,) = forwarded
    assert (message.src, message.size_bytes) == ("worker-0", 777)
    assert message.payload == (new_dep, items)
    assert new_home.stats.iterations == done_before + 3
    assert old_home.stats.iterations + new_home.stats.iterations == 2 + 3


# -- (e) an old-shape frame is refused, not mis-executed ------------------------------


def test_old_shape_exec_over_tcp_is_counted_and_the_worker_keeps_serving():
    grid = ConsumerGrid(
        n_workers=1, seed=0, transport="tcp", query_window=0.4,
        heartbeat_interval=5.0,
    )

    try:
        grid.run(farm_graph(), iterations=2)
        worker = grid.workers["worker-0"]
        (dep_id,) = worker.deployments
        frame = SampleSet(data=np.arange(64.0), sampling_rate=64.0)
        stats = grid.transport.stats
        corrupted, done = stats.corrupted, worker.stats.iterations

        grid.controller_peer.send(
            "worker-0", "group-exec", payload=(dep_id, 50, [frame]), size_bytes=576
        )
        pump_until([grid.sim], lambda: stats.corrupted == corrupted + 1)
        assert worker.stats.iterations == done
        assert not worker.deployments[dep_id].pending

        grid.controller_peer.send(
            "worker-0", "group-exec", payload=(dep_id, [(50, [frame])]),
            size_bytes=576,
        )
        pump_until([grid.sim], lambda: worker.stats.iterations == done + 1)
        assert stats.corrupted == corrupted + 1
    finally:
        grid.transport.close()
