"""``GridConfig`` as a value, and the one assembly every grid is built by.

The config must survive what it is for: crossing a process boundary
(wire round trip), keying a table (hash/equality), and describing the
same grid however it is spelled (keywords or ``replace``).  The
structural tests at the bottom keep the assembly single: the simulated
grid, the deployment's controller process and its worker process all go
through ``GridNode._assemble``.
"""

import dataclasses
import gc
import hashlib
import importlib.util
import pathlib
import warnings

import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

import repro.deployment as deployment
import repro.grid as grid_module
from repro import ConsumerGrid
from repro.analysis import fig1_grouped
from repro.config import GridConfig, settings
from repro.deployment import DEPLOYMENT_DEFAULTS, ControllerNode, WorkerNode
from repro.faults import chaos
from repro.mobility import SandboxPolicy
from repro.observe.export import jsonl_lines
from repro.p2p import LAN_PROFILE, NetworkError, NodeProfile
from repro.transport import decode, encode, result_checksum

REPO = pathlib.Path(__file__).resolve().parent.parent

positive = st.floats(min_value=1e-3, max_value=1e9, allow_nan=False)
fraction = st.floats(min_value=0.0, max_value=0.99, allow_nan=False)
profiles = st.builds(
    NodeProfile, up_bps=positive, down_bps=positive,
    latency_s=st.floats(min_value=0.0, max_value=10.0), cpu_flops=positive,
    ram_bytes=st.integers(min_value=1, max_value=2**40),
)
plans = st.one_of(
    st.none(),
    st.integers(min_value=0, max_value=50).map(
        lambda seed: chaos("moderate", seed=seed,
                           workers=[f"worker-{i}" for i in range(6)])
    ),
)
SETTING_STRATEGIES = dict(
    n_workers=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=2**63),
    transport=st.just("sim"),  # tcp refuses most of the rest; see the pinned defaults
    discovery=st.sampled_from(("central", "flooding", "rendezvous")),
    query_window=positive,
    worker_profile=profiles,
    controller_profile=profiles,
    worker_efficiency=positive,
    sandbox=st.builds(
        SandboxPolicy, certified_only=st.booleans(),
        certified_library=st.frozensets(st.sampled_from(("FFT@1.0", "Wave@1.0"))),
        max_module_ram=st.one_of(st.none(), st.integers(min_value=1, max_value=2**40)),
    ),
    jitter_fraction=fraction, contention=st.booleans(), loss_fraction=fraction,
    corrupt_fraction=fraction, duplicate_fraction=fraction, reorder_fraction=fraction,
    fault_plan=plans,
    retry_timeout=positive, retry_interval=positive, heartbeat_interval=positive,
    suspect_after_missed=st.integers(min_value=1, max_value=10),
    module_replicas=st.integers(min_value=0, max_value=8),
    module_chunk_bytes=st.one_of(st.none(), st.integers(min_value=1, max_value=2**30)),
    cache_fetch_timeout=positive,
    trace=st.booleans(), telemetry=st.booleans(), telemetry_interval=positive,
    health_config=st.dictionaries(
        st.sampled_from(("straggler_z", "straggler_min_lag")), positive
    ),
)
changes = st.fixed_dictionaries({}, optional=SETTING_STRATEGIES)


class TestValue:
    @given(changes)
    @hyp_settings(max_examples=60, deadline=None)
    def test_wire_round_trip_equality_and_hash(self, kw):
        cfg = GridConfig().replace(**kw)
        back = decode(encode(cfg))
        assert back == cfg
        assert hash(back) == hash(cfg) == hash(GridConfig().replace(**kw))
        assert encode(back) == encode(cfg)

    def test_every_setting_is_generated_above(self):
        # A new field must join the round-trip strategy, not dodge it.
        assert {name for name, _, _ in settings()} == set(SETTING_STRATEGIES)

    def test_replace_routes_flat_names_into_their_groups(self):
        cfg = GridConfig().replace(n_workers=8, heartbeat_interval=1.0, contention=True)
        assert (cfg.n_workers, cfg.recovery.heartbeat_interval, cfg.chaos.contention) == (
            8, 1.0, True)
        assert cfg.recovery.retry_timeout == GridConfig().recovery.retry_timeout
        assert cfg.replace() is cfg
        assert cfg.replace(recovery=GridConfig().recovery, retry_interval=2.0).recovery == (
            dataclasses.replace(GridConfig().recovery, retry_interval=2.0))

    def test_unknown_setting_lists_the_valid_names(self):
        with pytest.raises(TypeError, match=r"'policy_registry'.*valid:.*heartbeat_interval"):
            GridConfig().replace(policy_registry=None)
        with pytest.raises(TypeError, match="unknown grid setting"):
            ConsumerGrid(n_workers=1, speculation_threshold=0.5)

    def test_mutable_inputs_are_stored_immutably(self):
        plan = chaos("moderate", seed=1, workers=["worker-0", "worker-1"])
        overrides = {"straggler_z": 1.5}
        cfg = GridConfig().replace(fault_plan=plan, health_config=overrides)
        before = hash(cfg)
        overrides["straggler_min_lag"] = 9.0
        plan.add(plan.faults[0])
        assert hash(cfg) == before
        assert cfg.health_config == (("straggler_z", 1.5),)
        assert len(cfg.fault_plan) == len(plan) - 1

    def test_settable_values_went_down(self):
        # 35 ConsumerGrid keywords at the parent; the config's leaves plus
        # the two runtime objects (tracer, registry) that stay keywords.
        assert len(settings()) + 2 <= 29

    @pytest.mark.parametrize("bad, error", [
        (dict(n_workers=0), ValueError),
        (dict(transport="smoke-signals"), ValueError),
        (dict(discovery="gossip"), ValueError),
        (dict(transport="tcp", discovery="flooding"), ValueError),
        (dict(transport="tcp", contention=True), ValueError),
        (dict(transport="tcp", fault_plan=chaos("mild", workers=["worker-0"])), ValueError),
        (dict(heartbeat_interval=0.0), ValueError),
        (dict(suspect_after_missed=0), ValueError),
        (dict(loss_fraction=1.0), NetworkError),
        (dict(reorder_fraction=-0.1), NetworkError),
    ])
    def test_ranges_are_checked_in_the_value(self, bad, error):
        with pytest.raises(error):
            GridConfig().replace(**bad)

    def test_deployment_defaults_pin_the_wall_clock_numbers(self):
        d = DEPLOYMENT_DEFAULTS
        assert (d.recovery.heartbeat_interval, d.recovery.retry_timeout,
                d.recovery.retry_interval, d.query_window) == (10.0, 120.0, 30.0, 0.5)
        assert (d.transport, d.worker_profile, d.controller_profile) == (
            "tcp", LAN_PROFILE, LAN_PROFILE)
        assert decode(encode(d)) == d
        # ...and everything it does not name is the config's own default
        assert d.replace(
            transport="sim", n_workers=4, worker_profile=NodeProfile(),
            controller_profile=NodeProfile(), query_window=2.0,
            recovery=GridConfig().recovery,
        ) == GridConfig()


def _fingerprint(grid, **run_kw):
    report = grid.run(fig1_grouped(), iterations=6, run_until=100_000, **run_kw)
    trace = hashlib.sha256("\n".join(jsonl_lines(grid.sim.tracer)).encode()).hexdigest()
    return result_checksum(report), trace


class TestOneDescriptionTwoSpellings:
    @pytest.mark.parametrize("kw, run_kw", [
        (dict(n_workers=3, seed=11), {}),
        (dict(n_workers=6, seed=12, worker_profile=LAN_PROFILE,
              controller_profile=LAN_PROFILE, worker_efficiency=1e-6,
              heartbeat_interval=1.0, retry_timeout=30.0, retry_interval=2.0,
              fault_plan=chaos("moderate", seed=12, start=5.0, horizon=40.0,
                               workers=[f"worker-{i}" for i in range(6)])),
         dict(verification="replicate-3")),
        (dict(n_workers=4, seed=13, contention=True, module_replicas=2,
              module_chunk_bytes=4096), {}),
    ], ids=["plain", "chaos+replicate-3", "module-replicas"])
    def test_keywords_and_replace_build_the_same_grid(self, kw, run_kw):
        by_keyword = ConsumerGrid(trace=True, **kw)
        by_value = ConsumerGrid(GridConfig().replace(trace=True, **kw))
        assert by_keyword.config == by_value.config
        assert _fingerprint(by_keyword, **run_kw) == _fingerprint(by_value, **run_kw)


def _resource_warnings(build):
    """ResourceWarnings (unclosed socket / event loop) ``build()`` leaves behind."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        build()
        gc.collect()
    return [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)]


class TestNoFabricLeaks:
    def test_bad_option_over_tcp_opens_nothing(self):
        def build():
            with pytest.raises(ValueError, match="heartbeat_interval must be positive"):
                ConsumerGrid(n_workers=1, transport="tcp", heartbeat_interval=0.0)

        assert _resource_warnings(build) == []

    def test_failed_assembly_closes_the_fabric_it_opened(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise RuntimeError("controller refused")

        monkeypatch.setattr(grid_module, "TrianaController", refuse)

        def build():
            with pytest.raises(RuntimeError, match="controller refused"):
                ConsumerGrid(n_workers=1, transport="tcp")

        assert _resource_warnings(build) == []


class TestOneAssembly:
    def test_every_kind_of_node_is_built_by_the_same_routine(self, monkeypatch):
        calls = []
        assemble = grid_module.GridNode._assemble

        def counting(self, roles, registry):
            roles = tuple(roles)
            calls.append((type(self).__name__, roles))
            return assemble(self, roles, registry)

        monkeypatch.setattr(grid_module.GridNode, "_assemble", counting)
        grid = ConsumerGrid(n_workers=2)
        controller = ControllerNode(0, {})
        worker = WorkerNode("worker-9", 0, {})
        controller.close()
        worker.transport.close()
        assert calls == [
            ("ConsumerGrid", ("portal", "controller", "worker-0", "worker-1")),
            ("ControllerNode", ("portal", "controller")),
            ("WorkerNode", ("worker-9",)),
        ]
        # Later arrivals take the same per-worker step as the first fleet.
        extra = grid.add_worker("slow-0", profile=LAN_PROFILE)
        cluster = grid.add_cluster_worker("cluster-0")
        assert type(extra) is type(grid.workers["worker-0"])
        assert {"slow-0", "cluster-0"} <= set(grid.workers) == set(grid.worker_peers)
        assert cluster.sandbox is not extra.sandbox
        assert sorted(grid.discover_workers()) == sorted(grid.workers)

    @pytest.mark.parametrize("pattern", ["TrianaController(", "TrianaService("])
    def test_one_construction_site(self, pattern):
        # A second hand-rolled controller or worker is how the deployment
        # came to express 6 of 35 options.
        sites = [
            f"{path.relative_to(REPO)}:{n}"
            for top in ("src", "benchmarks", "tools", "examples")
            for path in sorted((REPO / top).rglob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if pattern in line.replace("Cluster" + pattern, "")
        ]
        assert len(sites) == 1 and sites[0].startswith("src/repro/grid.py:"), sites


class TestWorkerBootstrap:
    def test_launcher_seed_reaches_the_worker(self, monkeypatch):
        # worker_main used to parse a --seed that launch_worker never sent.
        spawned, served = [], []
        monkeypatch.setattr(deployment.subprocess, "Popen",
                            lambda argv, env: spawned.append(argv))
        monkeypatch.setattr(WorkerNode, "serve",
                            lambda self: (served.append(self), self.transport.close()))
        config = DEPLOYMENT_DEFAULTS.replace(seed=7, suspect_after_missed=5)
        deployment.launch_worker("worker-3", 0, {"portal": ("127.0.0.1", 1)},
                                 efficiency=0.25, config=config)
        (argv,) = spawned
        assert argv[1:3] == ["-m", "repro.deployment"]
        assert deployment.worker_main(argv[3:]) == 0
        (node,) = served
        assert node.sim.seed == 7
        assert node.config == config.replace(worker_efficiency=0.25)
        assert node.service.efficiency == 0.25
        assert node.peer.peer_id == "worker-3" and node.peer.profile == LAN_PROFILE

    def test_flags(self, capsys):
        with pytest.raises(SystemExit):
            deployment.worker_main(["--help"])
        usage = capsys.readouterr().out
        for flag in ("--peer-id", "--port", "--peers", "--config"):
            assert flag in usage
        for gone in ("--seed", "--efficiency", "--query-window"):
            assert gone not in usage

    def test_payload_that_is_not_a_config_is_refused(self, capsys):
        payload = deployment.base64.b64encode(encode({"seed": 7})).decode()
        with pytest.raises(SystemExit):
            deployment.worker_main(["--peer-id", "w", "--port", "0", "--peers", "{}",
                                    "--config", payload])
        assert "not GridConfig" in capsys.readouterr().err


def test_docs_table_is_the_generated_one():
    spec = importlib.util.spec_from_file_location(
        "config_table_under_test", REPO / "tools" / "config_table.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.field_table() in (REPO / "docs" / "architecture.md").read_text()
