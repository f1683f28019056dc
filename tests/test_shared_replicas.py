"""A replicated execution is computed once, in the simulator only.

Replicated verification deals one input object to several workers; on
the simulator those are engines in one process, and a unit that keeps
no per-run state computes it once while every other replica reuses the
outputs (:func:`repro.core.engine.share`).  These tests pin the three
things that rests on:

* the contract — every registered unit the memo accepts is a pure
  function of its inputs and parameters that leaves its inputs alone;
* exactness — sharing changes host work only: results, makespan and
  every counter equal a run with sharing switched off, while over TCP
  every replica still computes its own copy;
* lifetime — nothing outlives the run: with the grid gone both tables
  are empty.
"""

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.apps.galaxy  # noqa: F401  (registers the app units)
from repro import ConsumerGrid, chaos
from repro.analysis.workloads import pipeline_graph
from repro.apps.database import QueryResult
from repro.apps.inspiral import InspiralSearch, build_inspiral_graph
from repro.core import TaskGraph, Unit, global_registry
from repro.core import engine
from repro.core.errors import UnitError
from repro.core.types import (
    ComplexSpectrum,
    Const,
    ParticleSnapshot,
    SampleSet,
    TableData,
    VectorType,
)
from repro.p2p import LAN_PROFILE
from repro.service.policies.base import DispatchContext
from repro.transport.wire import result_checksum

from tests.test_engine_schedule import FIXTURES


def memoized_units() -> list[str]:
    """Every registered unit whose firings on shared inputs are reused."""
    registry = global_registry()
    classes = {name: registry.lookup(name).cls for name in registry.names()}
    return [name for name, cls in classes.items() if engine._memoizable(cls, cls.NUM_INPUTS)]


# -- the stateless-unit contract ----------------------------------------------------
#: Parameters that make a unit do real work on the drawn fixtures (a
#: default that trims to more samples than drawn only ever raises) or
#: keep it small.
PARAMS = {
    "InspiralSearch": {"n_templates": 4},
    "ColumnDensity": {"resolution": 16},
    "DataManipulate": {"manipulate": ["topk", "y", 5]},
    "DataVisualise": {"x_column": "x", "y_column": "y"},
    "DataVerify": {"expect_min_rows": 3},
}

_floats = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def payload(draw, kind, n):
    """One payload of ``kind``; 1-D kinds have length ``n`` so that
    two-input units (``Mixer``) see matching shapes."""
    vec = np.array(draw(st.lists(_floats, min_size=n, max_size=n)), dtype=float)
    if kind is SampleSet:
        rate = draw(st.sampled_from([64.0, 512.0, 2048.0]))
        return SampleSet(vec, sampling_rate=rate, t0=draw(st.floats(0, 100)))
    if kind is ComplexSpectrum:
        return ComplexSpectrum(vec + 1j * vec[::-1], df=draw(st.floats(0.1, 10)))
    if kind is ParticleSnapshot:
        m = draw(st.integers(1, 12))
        pos = np.resize(vec, (m, 3)) / 1e3
        return ParticleSnapshot(pos, np.full(m, 1.0 / m), np.full(m, 0.3))
    if kind is QueryResult:
        return QueryResult(TableData(["x", "y"], enumerate(vec.tolist())))
    raise AssertionError(f"no fixture for {kind.__name__}")


@st.composite
def inputs_for(draw, cls):
    n = draw(st.integers(1, 300))
    values = []
    for node in range(cls.NUM_INPUTS):
        kinds = [t for t in cls.input_types_at(node) if t.__name__ != "AnyType"]
        kind = draw(st.sampled_from(kinds or [SampleSet]))
        values.append(draw(payload(kind, n)))
    return values


def outcome(unit: Unit, inputs: list):
    """What one firing returns, comparably: a checksum or the error type."""
    try:
        with np.errstate(all="ignore"):
            return "ok", result_checksum(list(unit.process(inputs)))
    except (UnitError, ValueError) as exc:
        return "raises", type(exc).__name__


def assert_stateless(cls, params: dict, inputs: list, earlier: list) -> None:
    """A fresh instance and one that first processed ``earlier`` agree on
    ``inputs``, and neither firing changes the inputs."""
    fresh, warmed = cls(**params), cls(**params)
    outcome(warmed, earlier)
    before = result_checksum(inputs)
    want = outcome(fresh, inputs)
    assert result_checksum(inputs) == before, f"{cls.__name__} mutated its inputs"
    assert outcome(warmed, inputs) == want, f"{cls.__name__} kept state"
    assert result_checksum(inputs) == before, f"{cls.__name__} mutated its inputs"


def test_the_memo_takes_every_stateless_unit_and_no_stateful_one():
    memoized = set(memoized_units())
    assert {"InspiralSearch", "ColumnDensity", "LowPass", "HighPass"} <= memoized
    assert not memoized & {
        "Wave", "StrainSource", "GaussianNoise", "Grapher", "ScopeProbe", "AccumStat",
    }


@pytest.mark.parametrize("name", memoized_units())
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_a_memoized_unit_is_a_pure_function_of_its_inputs(name, data):
    cls = global_registry().lookup(name).cls
    assert_stateless(
        cls, PARAMS.get(name, {}), data.draw(inputs_for(cls)), data.draw(inputs_for(cls))
    )


class HiddenCounter(Unit):
    """Counts its firings without overriding ``reset``: breaks the rule."""

    INPUT_TYPES = (Const,)
    OUTPUT_TYPES = (Const,)
    calls = 0

    def process(self, inputs):
        self.calls += 1
        return [Const(inputs[0].value + self.calls)]


class InPlaceNegate(Unit):
    """Rewrites its input instead of returning a new payload."""

    INPUT_TYPES = (VectorType,)
    OUTPUT_TYPES = (VectorType,)

    def process(self, inputs):
        inputs[0].data *= -1.0
        return [VectorType(inputs[0].data.copy())]


@pytest.mark.parametrize(
    "cls, inputs, earlier, message",
    [
        (HiddenCounter, [Const(1.0)], [Const(5.0)], "kept state"),
        (InPlaceNegate, [VectorType(np.arange(4.0))], [VectorType(np.ones(2))],
         "mutated its inputs"),
    ],
)
def test_the_contract_check_catches_a_planted_violation(cls, inputs, earlier, message):
    assert engine._memoizable(cls, cls.NUM_INPUTS)
    with pytest.raises(AssertionError, match=message):
        assert_stateless(cls, {}, inputs, earlier)


# -- replicated runs ---------------------------------------------------------------------
def farm_graph(*group_units: str) -> TaskGraph:
    """Wave → a parallel group of ``group_units`` (a chain; default one
    ``LowPass``) → Grapher."""
    units = group_units or ("LowPass",)
    g = TaskGraph("shared-farm")
    g.add_task("Src", "Wave", samples=64)
    names = [f"U{i}" for i in range(len(units))]
    for name, unit in zip(names, units):
        g.add_task(name, unit)
    g.add_task("Sink", "Grapher")
    chain = ["Src", *names, "Sink"]
    for a, b in zip(chain, chain[1:]):
        g.connect(a, 0, b, 0)
    g.group_tasks("G", names, policy="parallel")
    return g


def duplicate_farm() -> TaskGraph:
    """Wave → {Duplicate → Mixer} → Grapher: a group whose first unit (the
    test-local one of ``FIXTURES``) returns its input object twice."""
    g = TaskGraph("duplicate-farm", registry=FIXTURES)
    g.add_task("Src", "Wave", samples=64)
    g.add_task("Dup", "Duplicate")
    g.add_task("Mix", "Mixer")
    g.add_task("Sink", "Grapher")
    g.connect("Src", 0, "Dup", 0)
    g.connect("Dup", 0, "Mix", 0)
    g.connect("Dup", 1, "Mix", 1)
    g.connect("Mix", 0, "Sink", 0)
    g.group_tasks("G", ["Dup", "Mix"], policy="parallel")
    return g


def count_calls(monkeypatch, *unit_names: str) -> dict[str, int]:
    """Host runs of each named unit's ``process``, counted as they happen."""
    calls = dict.fromkeys(unit_names, 0)
    for name in unit_names:
        cls = global_registry().lookup(name).cls

        def counted(self, inputs, _process=cls.process, _name=name):
            calls[_name] += 1
            return _process(self, inputs)

        monkeypatch.setattr(cls, "process", counted)
    return calls


# -- exactness: sharing moves host work only ------------------------------------------
N_WORKERS = 8


def hostile_farm(seed: int):
    """The gridbench shape of the Case 2 farm: 8 LAN workers, lying
    volunteers, replicate-3 voting, 20 chunks."""
    grid = ConsumerGrid(
        n_workers=N_WORKERS, seed=seed, worker_profile=LAN_PROFILE,
        controller_profile=LAN_PROFILE, worker_efficiency=5e-3,
        heartbeat_interval=1.0,
        fault_plan=chaos(
            "hostile", seed=5, workers=[f"worker-{i}" for i in range(N_WORKERS)],
            start=0.01, horizon=1e6,
        ),
    )
    graph = build_inspiral_graph(n_templates=8, chunk_seconds=4.0, seed=seed)
    report = grid.run(graph, 20, verification="replicate-3", run_until=1e7)
    workers = {
        name: (w.stats.iterations, w.stats.busy_seconds, w.stats.results_corrupted)
        for name, w in sorted(grid.workers.items())
    }
    return {
        "checksum": result_checksum(report.group_results),
        "makespan": report.makespan,
        "integrity": report.integrity,
        "recovery": report.recovery,
        "workers": workers,
    }


@pytest.fixture
def dealt(monkeypatch):
    """Every input object the controller sends, by identity."""
    objects = {}
    send_exec = DispatchContext.send_exec

    def recording(self, worker, deployment_id, items, verify=True):
        for _iteration, inputs in items:
            objects.update((id(v), v) for v in inputs)
        return send_exec(self, worker, deployment_id, items, verify)

    monkeypatch.setattr(DispatchContext, "send_exec", recording)
    return objects


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_sharing_replicas_changes_no_outcome_of_the_hostile_farm(seed, monkeypatch, dealt):
    calls = count_calls(monkeypatch, "InspiralSearch")
    shared = hostile_farm(seed)
    assert calls["InspiralSearch"] == len(dealt)
    executions = sum(it for it, _busy, _bad in shared["workers"].values())
    assert executions > len(dealt)  # there were replicas to share

    dealt.clear()
    calls["InspiralSearch"] = 0
    monkeypatch.setattr(engine, "share", lambda values: None)
    alone = hostile_farm(seed)
    assert calls["InspiralSearch"] == executions
    assert alone == shared


def test_over_tcp_every_replica_computes_its_own_copy(monkeypatch):
    calls = count_calls(monkeypatch, "LowPass")
    grid = ConsumerGrid(
        n_workers=2, seed=0, transport="tcp", query_window=0.4, heartbeat_interval=5.0,
    )
    try:
        report = grid.run(farm_graph(), 3, verification="replicate-2")
    finally:
        grid.transport.close()
    executions = sum(w.stats.iterations for w in grid.workers.values())
    assert executions == 6 and calls["LowPass"] == executions
    assert len(report.group_results) == 3


def test_an_unreplicated_run_never_shares(monkeypatch):
    calls = []
    monkeypatch.setattr(engine, "share", calls.append)
    ConsumerGrid(n_workers=4, seed=1).run(pipeline_graph(4, samples=64), 5)
    ConsumerGrid(n_workers=4, seed=1).run(farm_graph(), 5)
    ConsumerGrid(n_workers=4, seed=1).run(farm_graph(), 5, verification="spot-1")
    assert calls == []


# -- lifetime: the tables empty with the run ---------------------------------------------
def assert_tables_empty_after(run) -> None:
    """Nothing ``run`` shared survives it.  Entries made by earlier tests
    may still be alive: their inputs are, e.g. snapshots a test
    registered for the whole process."""
    gc.collect()
    before = set(engine._shared), set(engine._memo)
    run()
    gc.collect()
    assert set(engine._shared) <= before[0] and set(engine._memo) <= before[1]


@pytest.mark.parametrize(
    "graph",
    [farm_graph, lambda: farm_graph("LowPass", "HighPass", "FFT"), duplicate_farm],
    ids=["one-unit", "chain", "duplicate"],
)
def test_nothing_shared_outlives_a_replicated_run(graph):
    def run():
        g = graph()
        grid = ConsumerGrid(n_workers=3, seed=2, registry=g.registry)
        report = grid.run(g, 6, verification="replicate-3")
        assert len(report.group_results) == 6
        assert engine._shared  # the run did share

    assert_tables_empty_after(run)


def test_nothing_shared_outlives_the_hostile_farm():
    assert_tables_empty_after(lambda: hostile_farm(1))


def test_a_chain_of_stateless_units_computes_once_per_dealt_input(monkeypatch):
    calls = count_calls(monkeypatch, "LowPass", "HighPass", "FFT")
    grid = ConsumerGrid(n_workers=3, seed=2)
    report = grid.run(farm_graph("LowPass", "HighPass", "FFT"), 6, verification="replicate-3")
    assert sum(w.stats.iterations for w in grid.workers.values()) == 18
    assert calls == {"LowPass": 6, "HighPass": 6, "FFT": 6}
    assert len(report.group_results) == 6


def test_a_reparameterised_unit_misses_the_memo():
    gain = global_registry().lookup("Gain").cls

    def run():
        value = SampleSet(np.arange(8.0), sampling_rate=8.0)
        engine.share([value])
        first = engine._process_shared(gain(factor=2.0), [value])
        assert engine._process_shared(gain(factor=2.0), [value]) is first
        assert engine._process_shared(gain(factor=3.0), [value])[0].data[1] == 3.0

    assert_tables_empty_after(run)


def test_a_raising_unit_stores_nothing():
    def run():
        value = SampleSet(np.zeros(0), sampling_rate=8.0)
        engine.share([value])
        memo = set(engine._memo)
        with pytest.raises(UnitError):
            engine._process_shared(InspiralSearch(), [value])
        assert set(engine._memo) == memo

    assert_tables_empty_after(run)
