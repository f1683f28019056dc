"""tools/check_layering.py: every import the gate forbade stays forbidden.

Probes are synthetic one-line modules under a scratch source root, run
through the tool's own ``check()``: one per pairwise rule of the
13-rule set this one replaced, plus the imports that set let through
(``simkernel -> repro.mobility``) and the ones that must stay legal.
``orphans()`` gets three synthetic trees of its own, and the third-party
allow-list its probes in the same two tables.
"""

import importlib.util
import os
import pathlib
import re
import subprocess
import sys

import pytest

_TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "check_layering.py"
_spec = importlib.util.spec_from_file_location("check_layering_under_test", _TOOL)
layering = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = layering  # dataclasses resolves annotations through it
_spec.loader.exec_module(layering)

FORBIDDEN = [
    # the thirteen pairwise rules of the parent commit
    ("repro.core.engine", "import repro.service.worker"),
    ("repro.core.engine", "from ..p2p import peer"),
    ("repro.core.engine", "from repro.transport import wire"),
    ("repro.simkernel.sim", "from ..core import errors"),
    ("repro.simkernel.sim", "from repro.p2p.network import Message"),
    ("repro.simkernel.sim", "import repro.service"),
    ("repro.simkernel.sim", "from ..transport.runtime import RealtimeSimulator"),
    ("repro.service.policies.mine", "from ..controller import TrianaController"),
    ("repro.service.policies.mine", "from repro.service import controller"),
    ("repro.faults.injector", "from ..service.worker import TrianaService"),
    ("repro.mobility.cache", "from ..service import placement"),
    ("repro.transport.tcp", "from ..service.errors import SchedulingError"),
    ("repro.transport.tcp", "from ..mobility.cache import ModuleCache"),
    ("repro.p2p.peer", "from ..transport.tcp import TcpTransport"),
    # what the pairwise spelling of "simkernel imports nothing" missed
    ("repro.simkernel.sim", "from ..mobility import cache"),
    ("repro.simkernel.sim", "from ..observe import metrics"),
    ("repro.simkernel.sim", "import repro"),
    ("repro.registry", "from .core.errors import RegistryError"),
    # third-party packages off the one-entry allow-list (THIRD_PARTY)
    ("repro.core.taskgraph", "import networkx as nx"),
    ("repro.service.partition", "from networkx.algorithms import dag"),
    ("repro.apps.inspiral", "from scipy import signal"),
]

ALLOWED = [
    ("repro.simkernel.sim", "from ..observe.tracer import NullTracer"),
    ("repro.simkernel.sim", "from .queues import CalendarQueue"),
    ("repro.simkernel.sim", "import numpy"),
    ("repro.transport.tcp", "from ..p2p.network import Transport"),
    ("repro.core.registry", "from ..registry import Registry"),
    ("repro.service.policies.mine", "from ..errors import SchedulingError"),
    ("repro.registry", "from typing import Generic"),
    ("repro.core.taskgraph", "import heapq"),
    ("repro.transport.wire", "from numpy.lib import stride_tricks"),
]


def _violations(tmp_path, module, line):
    src = tmp_path / "src"
    path = src.joinpath(*module.split(".")).with_suffix(".py")
    path.parent.mkdir(parents=True)
    path.write_text(line + "\n")
    return layering.check([path], src=src)


@pytest.mark.parametrize("module,line", FORBIDDEN)
def test_forbidden_import_is_rejected(tmp_path, module, line):
    found = _violations(tmp_path, module, line)
    assert found and all(module in v for v in found), (module, line)


@pytest.mark.parametrize("module,line", ALLOWED)
def test_legal_import_passes(tmp_path, module, line):
    assert _violations(tmp_path, module, line) == []


def test_rule_count_and_real_tree():
    assert len(layering.RULES) <= 10
    declared = re.search(
        r'^dependencies = \[(.*)\]$', (layering.REPO / "pyproject.toml").read_text(), re.M
    ).group(1)
    assert layering.THIRD_PARTY == tuple(re.findall(r'"([A-Za-z0-9_.-]+)', declared))
    files = list((layering.SRC / "repro").rglob("*.py"))
    assert layering.check(files) == []
    # the waiting list can only shrink: nothing new, nothing stale
    assert layering.orphans(files) == sorted(layering.AWAITING_DELETION)


#: ``sys.modules`` after ``import repro.deployment`` — what every process
#: of a deployment loads before it does anything.  348 on CPython 3.11 +
#: numpy 2.4 (numpy itself is 140 of them); with networkx it was 684.
MODULE_BUDGET = 450


def test_a_fresh_process_loads_numpy_and_nothing_else_third_party():
    probe = (
        "import repro.deployment, sys; "
        "print(len(sys.modules), *sorted({m.partition('.')[0] for m in sys.modules}))"
    )
    env = {**os.environ, "PYTHONPATH": str(layering.SRC)}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, check=True, timeout=120,
        capture_output=True, text=True,
    ).stdout.split()
    count, loaded = int(out[0]), set(out[1:])
    assert not loaded & {"networkx", "scipy"}
    assert {"numpy", "repro"} <= loaded
    assert count <= MODULE_BUDGET, f"{count} modules loaded, budget {MODULE_BUDGET}"


def _orphans(tmp_path, files):
    """``orphans()`` of a synthetic tree: {module path: source}."""
    src = tmp_path / "src"
    paths = []
    for rel, text in files.items():
        path = src / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        paths.append(path)
    return layering.orphans(paths, src=src)


_PKG = {
    "repro/__init__.py": "",
    "repro/cli.py": "from .p2p import Peer\n",
    "repro/p2p/__init__.py": "from .peer import Peer\nfrom .web import WebClient\n",
    "repro/p2p/peer.py": "class Peer: pass\n",
    "repro/p2p/web.py": "class WebClient: pass\n",
}


def test_module_nobody_imports_is_an_orphan(tmp_path):
    files = {**_PKG, "repro/p2p/__init__.py": "from .peer import Peer\n"}
    # cli is the tree's entry point here: nothing imports it either
    assert _orphans(tmp_path, files) == ["repro.cli", "repro.p2p.web"]


def test_package_reexport_alone_does_not_save_a_module(tmp_path):
    assert "repro.p2p.web" in _orphans(tmp_path, _PKG)


def test_import_through_the_package_counts_for_the_submodule(tmp_path):
    # only cli's ``from .p2p import Peer`` reaches peer.py
    assert "repro.p2p.peer" not in _orphans(tmp_path, _PKG)
    files = {**_PKG, "repro/cli.py": "from .p2p import Peer, WebClient\n"}
    assert _orphans(tmp_path / "b", files) == ["repro.cli"]
