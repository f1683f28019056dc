"""The outside-in tracer: identity, passivity, clean removal."""

import pytest

from repro.p2p.peer import Peer
from repro.simkernel import Simulator
from repro.transport import tcp as tcp_mod
from repro.transport import wire as wire_mod

from gridbench.harness import ReferenceSpin, one_rep, run_traced
from gridbench.metrics import COUNTERS, TRACE_LAYERS
from gridbench.trace import LayerTracer, layer_of
from gridbench.workloads import make_workload

SPIN = ReferenceSpin()

PATCHED = [
    (Simulator, "run"), (Peer, "on"), (Peer, "send"),
    (wire_mod, "encode_message"), (tcp_mod, "decode_message"),
]


@pytest.mark.parametrize("name", ["sim_swarm", "sim_pipeline", "sim_hostile_farm"])
def test_traced_sim_run_is_the_same_run(name):
    w = make_workload(name, quick=True)
    ref = w.reference(5)
    plain = one_rep(w, 5, ref, SPIN)
    tracer = LayerTracer("t")
    with tracer:
        traced = one_rep(w, 5, ref, SPIN, tracer=tracer)
    assert traced.outcome.ops_failed == 0
    assert traced.outcome.checksum == plain.outcome.checksum
    assert traced.outcome.counters == plain.outcome.counters
    assert traced.outcome.sim_makespan_s == plain.outcome.sim_makespan_s


def test_self_times_add_up_to_the_root_span():
    w = make_workload("sim_pipeline", quick=True)
    tracer = LayerTracer("t")
    with tracer:
        one_rep(w, 5, w.reference(5), SPIN, tracer=tracer)
    layer, start, end, parent, _self = tracer.root_span
    assert parent == -1 and layer == "other"
    assert sum(s[4] for s in tracer.spans) == pytest.approx(end - start, rel=1e-9)
    shares = tracer.layer_stats()
    assert sum(s["self_share"] for s in shares.values()) == pytest.approx(1.0)
    # every span but the root has a parent that encloses it
    for layer, s, e, parent, _ in tracer.spans[1:]:
        ps, pe = tracer.spans[parent][1:3]
        assert ps <= s <= e <= pe


def test_wrappers_are_removed_afterwards():
    before = [vars(owner)[name] for owner, name in PATCHED]
    with LayerTracer("t"):
        during = [vars(owner)[name] for owner, name in PATCHED]
    after = [vars(owner)[name] for owner, name in PATCHED]
    assert all(d is not b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(after, before))


def test_layer_attribution_follows_the_design():
    def shares(name):
        result, metrics = run_traced(make_workload(name, quick=True), 5, untraced_reps=1)
        assert result.correct, result.problems
        assert set(metrics) >= {f"{l}.self_share" for l in TRACE_LAYERS}
        assert set(metrics) >= {c.name for c in COUNTERS}
        assert "bench.trace_overhead_pct" in metrics
        return metrics

    swarm = shares("sim_swarm")
    kernel_p2p = sum(swarm[f"{l}.self_share"] for l in
                     ("simkernel", "p2p.network", "p2p.peer", "p2p.discovery"))
    assert kernel_p2p > 0.8
    for layer in ("service.worker", "core.engine", "apps", "transport.wire"):
        assert swarm[f"{layer}.calls"] == 0
    galaxy = shares("sim_galaxy_farm")
    assert galaxy["apps.self_share"] == max(
        galaxy[f"{l}.self_share"] for l in TRACE_LAYERS)
    assert galaxy["transport.wire.frames"] == 0 == galaxy["transport.tcp.calls"]
    tcp = shares("tcp_pipeline")
    assert tcp["transport.wire.frames"] > 0 and tcp["transport.tcp.calls"] > 0
    assert tcp["p2p.network.calls"] == 0


def test_layer_of_maps_modules_to_the_fixed_layer_list():
    for module in ("repro.simkernel.sim", "repro.p2p.pipes", "repro.service.deploy",
                   "repro.service.policies.parallel", "repro.core.toolbox.signal",
                   "repro.apps.galaxy", "repro.mobility.cache",
                   "repro.transport.runtime", "repro.deployment"):
        assert layer_of(module) in TRACE_LAYERS
    assert layer_of("gridbench.workloads") is None
