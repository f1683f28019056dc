"""Deterministic budgets for the message path, an idle peer and a stage hop.

Every simulated message and timer crosses ``Simulator.call_at`` and
``SimNetwork.send``; on a 10k-peer heap what they *allocate* decides how
often the collector runs.  Unlike wall clock, a count of GC-tracked
objects or of kernel events does not depend on the machine, so it can
gate: the budget and the counting live in
``benchmarks/microbench_events.py`` (which also writes the numbers into
the CI artifact) and are asserted here.
"""

import gc
import importlib.util
import pathlib

import pytest

from repro.p2p import CentralIndexDiscovery, FloodingDiscovery, RendezvousDiscovery

_BENCH = (
    pathlib.Path(__file__).resolve().parent.parent
    / "benchmarks" / "microbench_events.py"
)


@pytest.fixture(scope="module")
def microbench():
    spec = importlib.util.spec_from_file_location("microbench_events_under_test", _BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counter_sees_what_an_op_keeps_alive(microbench):
    kept = []
    assert microbench.live_objects_per_op(lambda: kept.append([])) == 1.0
    assert microbench.live_objects_per_op(lambda: [[]]) == 0.0
    assert gc.isenabled()


def test_pending_call_at_stays_within_budget(microbench):
    # The event and its args tuple; no closure, no callbacks list.
    assert microbench.allocs_per_call_at() <= microbench.ALLOC_BUDGET["allocs_per_call_at"]


def test_in_flight_message_stays_within_budget(microbench):
    # The Message, the scheduled delivery and its args tuple.
    assert microbench.allocs_per_message() <= microbench.ALLOC_BUDGET["allocs_per_message"]


@pytest.mark.parametrize(
    "strategy", [CentralIndexDiscovery, FloodingDiscovery, RendezvousDiscovery]
)
def test_idle_peer_stays_within_budget(microbench, strategy):
    # The peer, its handler table, its cache and the cache's records dict,
    # and the network's bound _dispatch; discovery handlers are shared.
    assert microbench.allocs_per_peer(strategy) <= microbench.ALLOC_BUDGET["allocs_per_peer"]


def test_stage_hop_schedules_three_events(microbench):
    # The group-exec arrival, the exec loop's start and its finish.
    assert microbench.events_per_hop() <= microbench.ALLOC_BUDGET["events_per_hop"]


def test_a_replicated_iteration_is_computed_once(microbench):
    # replicate-3 executes each iteration on three workers; the host runs
    # the stateless filter once and the other two replicas reuse it.
    assert (
        microbench.computes_per_replicated_iteration()
        <= microbench.ALLOC_BUDGET["computes_per_replicated_iteration"]
    )


def test_nothing_shared_outlives_a_replicated_run(microbench):
    assert (
        microbench.shared_entries_after_run()
        <= microbench.ALLOC_BUDGET["shared_entries_after_run"]
    )
