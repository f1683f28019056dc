"""One way to ask a peer: ``Peer.ask`` and the worker that leaves a run.

Discovery, deploy and module fetch all re-ask through ``Peer.ask``; a
worker whose deploy is never acked, or is refused, leaves the run's
worker set, and the run fails only when a group can no longer be hosted.
"""

import pytest

from repro import ConsumerGrid
from repro.analysis import fig1_grouped
from repro.p2p import Peer, SimNetwork
from repro.p2p.errors import RequestFailed
from repro.p2p.peer import ASK_ATTEMPTS
from repro.service import DeploymentError, SchedulingError
from repro.simkernel import Simulator
from repro.transport.wire import result_checksum
from tests.test_service_run import stateless_pipeline

LOST = object()  #: the server never answers this ping


class Rig:
    """An asker and a server; the server answers the n-th ping with
    ``script[n]`` (a value, an exception, or LOST) after ``delay``.
    Each reply event fails on its own ``deadline``."""

    def __init__(self, script, deadline=1.0, delay=0.0):
        self.sim = Simulator(seed=0)
        net = SimNetwork(self.sim)
        self.asker = Peer("asker", net)
        server = Peer("server", net)
        self.replies = {}
        self.deadline = deadline

        def on_ping(message):
            answer = script[message.payload]
            if answer is not LOST:
                self.sim.call_at(
                    self.sim.now + delay, server.send, "asker", "pong",
                    (message.payload, answer),
                )

        def on_pong(message):
            n, answer = message.payload
            reply = self.replies[n]
            if reply.triggered:
                return  # late: its deadline already failed it
            if isinstance(answer, Exception):
                reply.fail(answer)
            else:
                reply.succeed(answer)

        server.on("ping", on_ping)
        self.asker.on("pong", on_pong)

    def attempt(self):
        n = len(self.replies)
        reply = self.replies[n] = self.sim.event()
        self.asker.send("server", "ping", payload=n)
        self.sim.call_at(self.sim.now + self.deadline, self._expire, reply)
        return reply

    @staticmethod
    def _expire(reply):
        if not reply.triggered:
            reply.fail(TimeoutError("no pong"))

    def ask(self):
        """The ask's process, run to its end."""
        proc = self.sim.process(self.asker.ask(self.attempt, "a ping"))
        self.sim.run()
        return proc


class TestAsk:
    @pytest.mark.parametrize(
        "miss", [LOST, ValueError("refused"), [], None],
        ids=["lost", "failed", "empty-list", "none"],
    )
    def test_each_kind_of_miss_is_asked_again(self, miss):
        rig = Rig([miss, "pong"])
        assert rig.ask().value == "pong"
        assert len(rig.replies) == 2

    def test_a_success_on_the_last_attempt_returns_its_value(self):
        script = [LOST, ValueError("busy"), ["hello"]]
        assert len(script) == ASK_ATTEMPTS
        rig = Rig(script)
        assert rig.ask().value == ["hello"]
        assert len(rig.replies) == ASK_ATTEMPTS

    def test_giving_up_names_peer_request_time_and_last_cause(self):
        rig = Rig([LOST, [], ValueError("refused")])
        proc = rig.sim.process(rig.asker.ask(rig.attempt, "a ping"))
        with pytest.raises(RequestFailed) as info:
            rig.sim.run(until=proc)
        text = str(info.value)
        assert "'asker'" in text
        assert "a ping" in text
        assert f"after {ASK_ATTEMPTS} attempts" in text
        assert "ValueError: refused" in text
        t = float(text.split("t=")[1].split()[0])
        assert t == pytest.approx(rig.sim.now)  # the last miss ends the ask

    def test_the_deadline_is_the_replys_own(self):
        rig = Rig([LOST] * ASK_ATTEMPTS, deadline=2.5)
        proc = rig.ask()
        with pytest.raises(RequestFailed, match="TimeoutError: no pong"):
            proc.value
        assert rig.sim.now == pytest.approx(ASK_ATTEMPTS * 2.5)

    def test_a_reply_after_the_give_up_raises_nothing(self):
        # Every pong lands 5 s after its ping, past the 1 s deadline; the
        # ask has given up by t=3 and the three late pongs are dropped.
        rig = Rig(["late"] * ASK_ATTEMPTS, delay=5.0)
        proc = rig.ask()
        assert rig.sim.now > 5.0  # the late pongs were delivered
        with pytest.raises(RequestFailed):
            proc.value

    def test_a_late_deploy_ack_raises_nothing(self):
        # worker-1 sits on every deploy for 30 s: the controller gives up
        # on it at t~3, the farm runs on worker-0, and worker-1's acks
        # then arrive for asks that are over.
        grid = ConsumerGrid(n_workers=2, seed=7)
        grid.controller.deployer.deploy_timeout = 3.0
        peer, sim = grid.worker_peers["worker-1"], grid.sim
        deploy = grid.workers["worker-1"]._on_deploy
        peer.replace_handler(
            "triana-deploy", lambda m: sim.call_at(sim.now + 30.0, deploy, m)
        )
        done = grid.controller.run_distributed(
            stateless_pipeline(), 4, ["worker-0", "worker-1"], ()
        )
        report = sim.run(until=done)
        assert set(report.placements.values()) == {"worker-0"}
        sim.run(until=sim.now + 60.0)  # the late acks land here
        assert grid.workers["worker-1"].stats.deployments == 1
        assert grid.controller.deployer._ack_events == {}


def dropping(n_workers, offline, seed=5, deploy_timeout=9.0):
    """A grid whose ``offline`` workers never see their deploys, and the
    progress instants it emits."""
    grid = ConsumerGrid(n_workers=n_workers, seed=seed)
    grid.controller.deployer.deploy_timeout = deploy_timeout
    seen = []
    grid.sim.tracer.subscribe(seen.append, category="progress")
    for worker in offline:
        grid.worker_peers[worker].go_offline()
    return grid, seen


def drops(seen):
    return [e.info for e in seen if e.name == "worker-dropped"]


def run(grid, graph, iterations, **kwargs):
    workers = sorted(grid.workers)
    done = grid.controller.run_distributed(graph, iterations, workers, (), **kwargs)
    return grid.sim.run(until=done)


class TestDroppedWorker:
    def test_a_drop_is_one_notice_and_never_watched(self):
        grid, seen = dropping(3, ["worker-1"])
        report = run(grid, stateless_pipeline(), 6)
        (drop,) = drops(seen)
        assert drop["worker"] == "worker-1"
        assert drop["deployment"] not in report.placements
        assert drop["deployment"] in drop["cause"]
        assert "no deploy-ack within 3s" in drop["cause"]
        assert "worker-1" not in grid.controller.detector.workers
        assert sorted(report.placements.values()) == ["worker-0", "worker-2"]
        clean = ConsumerGrid(n_workers=3, seed=5).run(stateless_pipeline(), 6)
        assert result_checksum(report.group_results) == result_checksum(
            clean.group_results
        )

    def test_a_run_without_failure_emits_no_drop(self):
        grid, seen = dropping(3, [])
        run(grid, stateless_pipeline(), 6)
        assert drops(seen) == []
        assert sorted(grid.controller.detector.workers) == [
            "worker-0", "worker-1", "worker-2"
        ]

    def test_a_refused_deploy_drops_its_worker(self):
        # worker-1 cannot reach the portal: its module fetches fail, it
        # refuses the deploy, and the farm runs on worker-0.
        grid, seen = dropping(2, [])
        grid.workers["worker-1"].cache.fetch_timeout = 0.5
        for kind in ("module-package", "module-chunk"):
            grid.worker_peers["worker-1"].replace_handler(kind, lambda m: None)
        report = run(grid, stateless_pipeline(), 4)
        (drop,) = drops(seen)
        assert drop["worker"] == "worker-1"
        assert "RepositoryUnreachable" in drop["cause"]
        assert set(report.placements.values()) == {"worker-0"}
        # A portal that did not answer may answer the next ask: unlike a
        # sandbox refusal, this one is asked again.
        assert grid.workers["worker-1"].stats.deploy_failures == ASK_ATTEMPTS

    def test_a_farm_with_no_worker_left_fails_attributed(self):
        grid, seen = dropping(2, ["worker-0", "worker-1"])
        with pytest.raises(DeploymentError, match="no worker left") as info:
            run(grid, fig1_grouped(), 2)
        for drop in drops(seen):
            assert drop["deployment"] in str(info.value)
        assert len(drops(seen)) == 2

    def test_a_p2p_chain_that_loses_a_stage_fails_attributed(self):
        grid, seen = dropping(2, ["worker-1"])
        with pytest.raises(DeploymentError, match="lost a stage") as info:
            run(grid, fig1_grouped(policy="p2p"), 2)
        (drop,) = drops(seen)
        text = str(info.value)
        assert drop["deployment"] in text
        assert "'worker-1'" in text
        assert "no deploy-ack within 3s" in text

    def test_replicate_3_keeps_its_quorum_on_two_hosts(self):
        # replicate-3's quorum is 2 matching votes: one dropped host of
        # three leaves a group the existing quorum rule accepts.
        grid, seen = dropping(3, ["worker-2"])
        report = run(grid, stateless_pipeline(), 4, verification="replicate-3")
        assert len(drops(seen)) == 1
        assert report.integrity["quorum_accepts"] == 4

    def test_replicate_3_on_one_host_is_refused_by_the_quorum_rule(self):
        grid, seen = dropping(3, ["worker-1", "worker-2"])
        with pytest.raises(SchedulingError, match="needs a quorum of 2"):
            run(grid, stateless_pipeline(), 4, verification="replicate-3")
        assert [d["worker"] for d in drops(seen)] == ["worker-1", "worker-2"]
