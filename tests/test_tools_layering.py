"""tools/check_layering.py: every import the gate forbade stays forbidden.

Probes are synthetic one-line modules under a scratch source root, run
through the tool's own ``check()``: one per pairwise rule of the
13-rule set this one replaced, plus the imports that set let through
(``simkernel -> repro.mobility``) and the ones that must stay legal.
``orphans()`` gets three synthetic trees of its own, and the third-party
allow-list its probes in the same two tables.  ``orphan_names()`` gets a
synthetic repo: a constant or method-less class only tests or docstrings
reach is reported, one used outside ``tests/`` (a string in code
included) is not, and functions are left to ``tools/check_reach.py``.
``unused_imports()`` gets synthetic modules of its own.
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
    # the link layer's machines stay free of sockets and event loops
    ("repro.transport.link", "import asyncio"),
    ("repro.transport.link", "from socket import create_connection"),
    ("repro.transport.link", "import selectors"),
    # third-party packages off the one-entry allow-list (THIRD_PARTY)
    ("repro.core.taskgraph", "import networkx as nx"),
    ("repro.service.partition", "from networkx.algorithms import dag"),
    ("repro.apps.inspiral", "from scipy import signal"),
    # a second hashing walk beside the wire's canonical encoding
    ("repro.service.integrity", "import hashlib"),
    ("repro.analysis.experiments", "from hashlib import sha256"),
    # mobility picks a module's source without discovery
    ("repro.mobility.cache", "from ..p2p.discovery import DiscoveryService"),
    ("repro.mobility.cache", "from ..p2p.advertisement import AttrPredicate"),
    ("repro.mobility.repository", "from repro.p2p import discovery"),
    # numpy's private modules outside the one module that stands on them
    ("repro.apps.inspiral", "from numpy.fft import _pocketfft_umath"),
    ("repro.core.toolbox.image", "import numpy.fft._pocketfft_umath as pfu"),
    ("repro.service.integrity", "from numpy._core import multiarray"),
    ("repro.core.toolbox.signal_extra", "from numpy.fft._pocketfft_umath import irfft"),
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
    ("repro.transport.link", "from .wire import WireError"),
    ("repro.transport.tcp", "import asyncio"),
    ("repro.transport.wire", "import hashlib"),
    ("repro.simkernel.rng", "import hashlib"),
    ("repro.mobility.repository", "from hashlib import sha256"),
    ("repro.core.toolbox.signal", "from numpy.fft import _pocketfft_umath as _pocketfft"),
    ("repro.apps.inspiral", "from numpy.fft import rfft"),
    ("repro.apps.inspiral", "import numpy.fft"),
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


def _unused_names(tmp_path, files):
    """``orphan_names()`` of a synthetic repo: {path: source}."""
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    src = list((tmp_path / "src" / "repro").rglob("*.py"))
    return layering.orphan_names(src, layering.use_files(tmp_path))


_NAMES = {
    "src/repro/__init__.py": "from .engine import RUN_LIMIT, LocalEngine\n"
                             "__all__ = ['RUN_LIMIT', 'LocalEngine']\n",
    "src/repro/engine.py": (
        "class LocalEngine:\n    pass\n\n\n"
        "RUN_LIMIT = 8\n\n\n"
        "def run_graph(graph):\n"
        "    '''run_graph: at most RUN_LIMIT calls.'''\n"
        "    return LocalEngine()\n"
    ),
    "tests/test_engine.py": "from repro.engine import RUN_LIMIT, run_graph\n"
                            "run_graph(RUN_LIMIT)\n",
}


def test_a_name_only_tests_use_is_reported(tmp_path):
    # its docstring mention, __all__, the package re-export and a test
    # are no use; LocalEngine's use inside run_graph is one, and
    # run_graph, a function, is the reach gate's to judge
    assert _unused_names(tmp_path, _NAMES) == ["RUN_LIMIT"]


def test_a_use_outside_tests_keeps_a_name(tmp_path):
    files = {
        **_NAMES,
        "gridbench/bench.py": "import repro\nrepro.run_graph(repro.RUN_LIMIT)\n",
    }
    assert _unused_names(tmp_path, files) == []
    files = {**_NAMES, "examples/graph.xml": "<task limit='RUN_LIMIT'/>\n"}
    assert _unused_names(tmp_path / "b", files) == []


def test_a_name_only_its_module_docstring_mentions_is_reported(tmp_path):
    files = {
        **_NAMES,
        "src/repro/tally.py": '"""Counting: see ``Tally``."""\n\n\nclass Tally:\n    pass\n',
    }
    assert _unused_names(tmp_path, files) == ["RUN_LIMIT", "Tally"]


def test_a_name_only_another_functions_docstring_mentions_is_reported(tmp_path):
    files = {
        **_NAMES,
        "src/repro/tally.py": (
            "MERGE_LIMIT = 3\n\n\n"
            'def report():\n    """Prints up to MERGE_LIMIT tallies."""\n'
        ),
        "tools/show.py": "import repro.tally\nrepro.tally.report()\n",
    }
    assert _unused_names(tmp_path, files) == ["MERGE_LIMIT", "RUN_LIMIT"]


def test_a_string_in_code_is_a_use(tmp_path):
    files = {**_NAMES, "examples/run.py": "graph.add_task('go', 'RUN_LIMIT')\n"}
    assert _unused_names(tmp_path, files) == []


def test_a_class_is_used_by_the_registry_name_it_declares(tmp_path):
    files = {
        **_NAMES,
        "src/repro/policy.py": "class FarmPolicy:\n    name = 'farm'\n",
        "examples/run.py": "run_graph(graph.group_tasks('G', ['go'], policy='farm'))\n"
                           "RUN_LIMIT\n",
    }
    assert _unused_names(tmp_path, files) == []
    files["examples/run.py"] = "run_graph(graph)\nRUN_LIMIT\n"
    assert _unused_names(tmp_path / "b", files) == ["FarmPolicy"]


def test_functions_and_classes_with_methods_are_left_to_the_reach_gate(tmp_path):
    files = {
        **_NAMES,
        "src/repro/tally.py": "class Tally:\n    def add(self):\n        pass\n\n\n"
                              "def merge(a, b):\n    return a\n",
    }
    assert _unused_names(tmp_path, files) == ["RUN_LIMIT"]


# -- unused imports -------------------------------------------------------------------


def _unused_imports(tmp_path, files):
    """``unused_imports()`` of a synthetic tree ({path: source}), without
    the ``path:line: `` prefix."""
    paths = []
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        paths.append(path)
    return [line.partition(": ")[2] for line in layering.unused_imports(paths, tmp_path)]


def test_an_unused_import_is_reported(tmp_path):
    found = _unused_imports(tmp_path, {
        "src/repro/engine.py": "from typing import Callable, Optional\n"
                               "import numpy as np\n\n\n"
                               "def run(x: Optional[int]):\n    return x\n",
        "tests/test_engine.py": "import pytest\nfrom repro.engine import run\nrun(None)\n",
    })
    assert found == ["Callable imported but unused", "np imported but unused",
                     "pytest imported but unused"]


def test_what_counts_as_a_use_of_an_import(tmp_path):
    assert _unused_imports(tmp_path, {
        # a package's re-export, and a name __all__ lists
        "src/repro/__init__.py": "from .engine import run\n",
        "src/repro/api.py": "from .engine import run\n__all__ = ['run']\n",
        # an attribute base, a string annotation and a decorator
        "src/repro/engine.py": (
            "from __future__ import annotations\n"
            "import functools\nimport os.path\n"
            "from .types import Spec\n\n\n"
            "@functools.cache\ndef run(spec: 'Spec'):\n    return os.path.sep\n"
        ),
        # a fixture requested by name, and an import marked noqa
        "tests/test_engine.py": (
            "from .helpers import hard_timeout  # noqa: F401  (autouse)\n"
            "from .helpers import tmp_grid\n\n\n"
            "def test_run(tmp_grid):\n    pass\n"
        ),
    }) == []


def test_a_noqa_on_an_import_whose_names_are_all_read_is_reported(tmp_path):
    found = _unused_imports(tmp_path, {
        "src/repro/engine.py": (
            "from typing import Any, Optional  # noqa: F401\n"
            "from .helpers import hook, spare  # noqa: F401\n\n\n"
            "def run(x: Optional[Any]):\n    return hook(x)\n"
        ),
    })
    # The second marker still covers ``spare``, which nothing reads.
    assert found == ["noqa: F401 on an import whose names are all read"]


def test_the_repo_has_no_unused_import():
    assert layering.unused_imports(layering.import_files()) == []
