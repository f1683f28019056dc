"""Placement by advertisement: a ``p2p`` stage goes to the worker whose
advertised site matches what its unit names (Case 3, §3.6.3).

A stage that names nothing is placed round-robin, as it always was; a
stage that no worker matches fails at deploy; E6 gives the same result
and placements over TCP as on the simulator.
"""

import pathlib
import re
import signal

import pytest

from repro import ConsumerGrid
from repro.analysis import fig1_grouped, pipeline_graph
from repro.analysis.workloads import CASE3_GRID, case3_graph, case3_sites
from repro.apps.database import QuerySpec, database_graph
from repro.deployment import (
    DEPLOYMENT_DEFAULTS,
    ControllerNode,
    _free_ports,
    launch_worker,
)
from repro.service import SchedulingError
from repro.service.worker import Site
from repro.transport.wire import result_checksum

REPO = pathlib.Path(__file__).resolve().parent.parent


def case3_grid(sites):
    grid = ConsumerGrid(CASE3_GRID)
    for name, site in sites.items():
        grid.add_worker(name, site=site)
    grid.sim.run()
    return grid


def test_a_stage_no_worker_matches_fails_at_deploy_naming_it():
    sites = case3_sites()
    del sites["site-c"]  # nobody verifies
    grid = case3_grid(sites)
    with pytest.raises(SchedulingError) as err:
        grid.run(case3_graph(), iterations=1)
    message = str(err.value)
    assert "p2p stage 'Verify' of group 'Pipeline'" in message
    assert "no worker advertises services='data-verify'" in message
    assert grid.transport.stats.by_kind.get("triana-deploy", 0) == 0
    assert all(w.deployments == {} for w in grid.workers.values())


def test_an_unoffered_table_fails_at_deploy():
    spec = QuerySpec(table="stars", y_column="mass")
    grid = case3_grid(case3_sites())
    with pytest.raises(SchedulingError, match="'Access'.*tables='stars'"):
        grid.run(database_graph(spec), iterations=1)


@pytest.mark.parametrize("graph, n_workers, placements, checksum", [
    (fig1_grouped("p2p"), 3, ["worker-0", "worker-1"],
     "36d2798a02017eed3689e504a7b752c922a82a8c9825cc1f12726d1b4d0a7c41"),
    (pipeline_graph(8), 3, ["worker-0", "worker-1", "worker-2"] * 2 + ["worker-0", "worker-1"],
     "b079539017e8e71e43059086758af26e2aaa367cf40e328d7fb25b8972080f03"),
    (pipeline_graph(8), 5, [f"worker-{i % 5}" for i in range(8)],
     "b079539017e8e71e43059086758af26e2aaa367cf40e328d7fb25b8972080f03"),
], ids=["fig1-p2p-3", "pipeline8-3", "pipeline8-5"])
def test_a_group_naming_no_attributes_is_placed_as_before(
    graph, n_workers, placements, checksum
):
    # the placements and results of the round-robin policy, pinned
    report = ConsumerGrid(n_workers=n_workers, seed=0).run(graph, iterations=2)
    assert list(report.placements.values()) == placements
    assert result_checksum(report.group_results) == checksum


def test_a_tie_goes_to_the_first_in_round_robin_order():
    sites = case3_sites()
    sites["site-a"] = Site("site-a", 0.9, sites["site-a"].services, sites["site-a"].tables)
    # site-a and site-b both offer manipulation at 0.9; stage 1 of the
    # chain starts its rotation at workers[1] = site-b
    report = case3_grid(sites).run(case3_graph(), iterations=1)
    assert list(report.placements.values()) == ["site-a", "site-b", "site-b", "site-c"]
    # the stages are not placed round-robin: worker-0 offers nothing
    assert "worker-0" not in report.placements.values()


def test_a_worker_without_a_site_advertises_what_it_did():
    grid = ConsumerGrid(n_workers=1)
    assert set(grid.workers["worker-0"].advertisement().attributes) == {
        "kind", "host", "cpu_flops", "free_ram",
    }


def test_the_p2p_docs_snippet_runs():
    text = (REPO / "docs" / "p2p.md").read_text()
    snippets = re.findall(r"```python\n(.*?)```", text, re.S)
    assert snippets, "docs/p2p.md has no python snippet"
    for code in snippets:
        exec(compile(code, "docs/p2p.md", "exec"), {})


@pytest.fixture
def hard_timeout():
    def boom(signum, frame):
        raise TimeoutError("the tcp run exceeded the hard timeout")

    old = signal.signal(signal.SIGALRM, boom)
    signal.alarm(120)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


def test_e6_over_tcp_matches_the_simulator(hard_timeout):
    sites = case3_sites()
    sim_report = case3_grid(sites).run(case3_graph(), iterations=1)

    host = "127.0.0.1"
    names = sorted(sites)
    ports = _free_ports(1 + len(names), host)
    addresses = {"portal": (host, ports[0]), "controller": (host, ports[0])}
    addresses.update({name: (host, port) for name, port in zip(names, ports[1:])})
    config = DEPLOYMENT_DEFAULTS.replace(sandbox=CASE3_GRID.sandbox)
    procs, node, shut_down = [], None, False
    try:
        procs = [
            launch_worker(name, addresses[name][1], addresses, config=config,
                          site=sites[name])
            for name in names
        ]
        node = ControllerNode(ports[0], addresses, config)
        workers = node.wait_for_workers(len(names), deadline_s=60.0)
        report = node.run(case3_graph(), 1, workers)
        node.shutdown_workers(workers)
        shut_down = True
    finally:
        if node is not None:
            node.close()
        for proc in procs:
            if not shut_down:
                proc.terminate()
            try:
                proc.wait(timeout=10.0)
            except Exception:
                proc.kill()
                proc.wait(timeout=10.0)
    assert report.placements == sim_report.placements
    assert result_checksum(report.group_results) == result_checksum(
        sim_report.group_results
    )
    (result,) = report.group_results[0]
    assert result.report["ok"] and len(result.table) == 10
