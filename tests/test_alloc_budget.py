"""Deterministic budgets for the message path, an idle peer, a burst, a
message on serialising links, a stage hop, a replicated iteration, a
heartbeat, a heartbeat round, a chaos send and a traced event.

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
    # The sends share an instant: each keeps its Message, and the one
    # scheduled burst holds them all.
    assert microbench.allocs_per_message() <= microbench.ALLOC_BUDGET["allocs_per_message"]


def test_a_same_instant_burst_is_one_event(microbench):
    # 100 sends onto one instant: one arrival event delivers them all.
    assert microbench.events_per_burst() <= microbench.ALLOC_BUDGET["events_per_burst"]


def test_a_serialising_link_schedules_no_process(microbench):
    # Per instant of the ring: one entry into the downlinks and one
    # arrival burst, for the four messages that share it.
    assert (
        microbench.events_per_contended_message()
        <= microbench.ALLOC_BUDGET["events_per_contended_message"]
    )


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


def test_a_heartbeat_allocates_no_timeout(microbench):
    # The loop is driven by one scheduled call per beat, not a Process
    # resumed by a fresh Timeout.
    assert microbench.timeouts_per_beat() <= microbench.ALLOC_BUDGET["timeouts_per_beat"]


def test_a_heartbeat_round_is_one_timer_and_one_burst(microbench):
    # Eight workers beat on the same instants: one drive cohort resumes
    # every loop, and their beats land in one arrival burst.
    assert (
        microbench.events_per_beat_round()
        <= microbench.ALLOC_BUDGET["events_per_beat_round"]
    )


def test_a_chaos_send_looks_up_no_stream(microbench):
    # Its five draws come from block-drawn streams claimed at construction.
    assert (
        microbench.rng_lookups_per_chaos_send()
        <= microbench.ALLOC_BUDGET["rng_lookups_per_chaos_send"]
    )


def test_a_traced_event_leaves_nothing_in_the_tracer(microbench):
    # The per-event hook only polls the sampler; what the tracer holds
    # after a run is its sim.run span, not a record per event.
    assert (
        microbench.tracer_bytes_per_event()
        <= microbench.ALLOC_BUDGET["tracer_bytes_per_event"]
    )
