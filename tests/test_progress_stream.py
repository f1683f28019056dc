"""The progress stream (§3.2): the controller's ``progress`` instants, read
by a plain tracer subscriber on a default (untraced) grid."""

from repro import ConsumerGrid
from repro.analysis import fig1_grouped
from repro.p2p import LAN_PROFILE
from tests.test_service_run import stateless_pipeline


def subscribe(grid):
    """The controller's progress instants, in arrival order."""
    seen = []
    grid.sim.tracer.subscribe(seen.append, category="progress")
    return seen


def controller_events(seen):
    return [e for e in seen if e.track == "controller"]


def run_with_subscriber(iterations=5, seed=61):
    grid = ConsumerGrid(n_workers=2, seed=seed)
    seen = subscribe(grid)
    grid.run(fig1_grouped(), iterations=iterations)
    return controller_events(seen)


def of_kind(events, kind):
    return [e for e in events if e.name == kind]


class TestEventStream:
    def test_event_sequence(self):
        events = run_with_subscriber()
        kinds = [e.name for e in events]
        assert kinds[0] == "run-started"
        assert kinds[-1] == "run-finished"
        assert kinds.count("deployed") == 2
        assert kinds.count("iteration-complete") == 5

    def test_events_carry_data(self):
        events = run_with_subscriber()
        started = of_kind(events, "run-started")[0]
        assert started.info["iterations"] == 5
        assert started.info["policy"] == "parallel"
        deployed = of_kind(events, "deployed")
        assert {e.info["worker"] for e in deployed} == {"worker-0", "worker-1"}

    def test_event_times_monotone(self):
        events = run_with_subscriber()
        times = [e.time for e in events]
        assert times == sorted(times)

    def test_no_monitor_is_free(self):
        """A grid nobody subscribes to carries no subscriber and still runs."""
        grid = ConsumerGrid(n_workers=2, seed=62)
        assert grid.sim.tracer._subs == []
        report = grid.run(fig1_grouped(), iterations=3)
        assert report.iterations == 3


def test_churn_redispatch_reaches_the_stream():
    grid = ConsumerGrid(
        n_workers=3, seed=63, retry_timeout=5.0, retry_interval=1.0,
        worker_profile=LAN_PROFILE, controller_profile=LAN_PROFILE,
        worker_efficiency=1e-5,
    )
    seen = subscribe(grid)
    workers = grid.discover_workers()
    done = grid.controller.run_distributed(stateless_pipeline(), 9, workers)
    grid.sim.call_at(0.3, lambda: grid.worker_peers["worker-1"].go_offline())
    report = grid.sim.run(until=done)
    redispatched = of_kind(controller_events(seen), "redispatch")
    assert len(redispatched) == report.recovery["redispatches"] >= 1
    for event in redispatched:
        assert {"iteration", "worker", "reason"} <= set(event.info)
        assert event.info["worker"] != "worker-1"
