#!/usr/bin/env python
"""Reach gate: every function in ``src/repro`` is one a product run calls.

The gate runs a fixed set of product commands (:data:`ROOTS`: the run
table, the CLI verbs, the examples, the benchmark workloads and the
chaos-health tool) with a profile hook installed, and lists every
function and method of ``src/repro`` that none of them called.  Tests
are not roots: a function only a test calls is dead code that the tests
keep alive.  Run it from anywhere::

    python tools/check_reach.py

It fails (exit 1) on an unreached function that no
:data:`KEPT_UNREACHED` entry covers, on an entry that covers no function
or one that some root now calls, and on a root that exits non-zero (with
its stderr tail).  An entry is a function's ``module:qualname``, which
covers its nested functions, or a class's, which covers its methods,
with the reason it stays; a future caller names its ROADMAP item.  An
entry whose reason starts with ``fault handling`` may be reached: socket
timing decides whether a run takes that path.  Signatures are not
checked: an ``@abstractmethod``, or a stub whose body only raises
``NotImplementedError``.

How it sees: :data:`PROBE` is written as a ``sitecustomize`` module into
a scratch directory that leads ``PYTHONPATH``.  Python imports it at
start-up, before any ``import repro``, so import-time code counts, and
every Python subprocess a root spawns (the TCP workers, gridbench's
fresh interpreters) inherits it.  Its hook records each code object
that starts running and, at exit, writes the ``src/repro`` ones as
``path:line:name`` rows; a process killed by a signal writes none, so
every root must let its children exit.  A function is matched by its
file, first line (the first decorator's, as CPython counts it) and
name.  Nothing of it lives in ``src/``; the tool itself imports only
the standard library.
"""

from __future__ import annotations

import ast
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src"

#: the ``sitecustomize`` every probed process imports first; ``{root}``
#: is the source tree to watch, ``{out}`` where the rows go
PROBE = '''\
import atexit, os, sys, threading

_seen = set()


def _hook(frame, event, arg, _add=_seen.add):
    if event == "call":
        _add(frame.f_code)


def _dump():
    sys.setprofile(None)
    rows = sorted({{
        f"{{c.co_filename}}:{{c.co_firstlineno}}:{{c.co_name}}"
        for c in _seen if c.co_filename.startswith({root!r})
    }})
    with open(os.path.join({out!r}, f"{{os.getpid()}}.rows"), "w") as f:
        f.write("\\n".join(rows))


atexit.register(_dump)
threading.setprofile(_hook)
sys.setprofile(_hook)
'''

#: what the probed runs read: Fig. 1 as a graph file, its group once
#: distributed and once run in place (policy "none"), written unprobed
SETUP = (
    "from repro import graph_to_string\n"
    "from repro.analysis.workloads import fig1_grouped\n"
    "open({tmp!r} + '/graph.xml', 'w').write(graph_to_string(fig1_grouped()))\n"
    "open({tmp!r} + '/local.xml', 'w').write(graph_to_string(fig1_grouped('none')))\n"
)

#: the product runs, as argv after ``python``; ``{tmp}`` is a scratch dir
ROOTS: tuple[tuple[str, ...], ...] = (
    ("-m", "repro", "sweep", "--out", "{tmp}/bench"),
    ("-m", "repro", "sweep", "--check", "--out", "{tmp}/bench"),
    ("-m", "repro", "units"),
    ("-m", "repro", "policies"),
    ("-m", "repro", "transports"),
    ("-m", "repro", "faults"),
    ("-m", "repro", "faults", "--level", "hostile", "--workers", "3"),
    ("-m", "repro", "validate", "{tmp}/graph.xml"),
    ("-m", "repro", "run", "{tmp}/graph.xml", "-n", "4"),
    ("-m", "repro", "run", "{tmp}/local.xml", "-n", "4", "--workers", "2"),
    ("-m", "repro", "run", "{tmp}/graph.xml", "-n", "8", "--workers", "3",
     "--probe", "Power",
     "--trace-out", "{tmp}/run.jsonl", "--metrics-out", "{tmp}/metrics.json",
     "--telemetry-out", "{tmp}/telemetry.jsonl"),
    ("-m", "repro", "run", "{tmp}/graph.xml", "-n", "8", "--workers", "3",
     "--verification", "replicate-2", "--dispatch", "reputation_weighted",
     "--trace-out", "{tmp}/run.json"),
    ("-m", "repro", "run", "{tmp}/graph.xml", "-n", "8", "--workers", "2",
     "--verification", "spot-0.5", "--discovery", "flooding",
     "--trace-out", "{tmp}/run.txt"),
    ("-m", "repro", "run", "{tmp}/graph.xml", "-n", "4", "--workers", "2",
     "--transport", "tcp"),
    ("-m", "repro", "analyze", "{tmp}/run.jsonl"),
    ("-m", "repro", "analyze", "{tmp}/run.jsonl", "--json"),
    ("-m", "repro", "analyze", "{tmp}/run.jsonl", "--diff", "{tmp}/run.json"),
    ("-m", "repro", "top", "{tmp}/run.jsonl"),
    ("-m", "repro", "top", "{tmp}/graph.xml", "-n", "4"),
    ("examples/quickstart.py",),
    ("examples/signal_denoise.py",),
    ("examples/galaxy_formation.py",),
    ("examples/inspiral_search.py",),
    ("examples/database_pipeline.py",),
    ("examples/volunteer_computing.py",),
    ("tools/chaos_health.py", "--out", "{tmp}/health.json"),
    ("-m", "gridbench", "run", "--quick", "--reps", "1", "--seconds", "1",
     "--traced", "--trace-dir", "{tmp}/traces"),
)

#: functions no root calls, kept on purpose: ``module:qualname`` → why
KEPT_UNREACHED: dict[str, str] = {
    # future callers
    "repro.service.integrity:verification_names":
        "ROADMAP item 5: the mode enumeration test lists verification spellings",
    "repro.core.toolbox.signal:Mixer":
        "ROADMAP item 9: the one two-input unit, for generated fan-in shapes",
    "repro.observe.tracer:_TracerBase.subscribe":
        "ROADMAP item 2: the protocol-invariant monitor subscribes to progress",
    "repro.observe.tracer:_TracerBase._dispatch":
        "ROADMAP item 2: delivers progress events to subscribe()'s callbacks",
    # references tests compare against
    "repro.core.toolbox.signal:InverseFFT":
        "the inverse the FFT unit's round-trip tests check against",
    "repro.apps.inspiral:matched_filter_snr":
        "the per-template reference search_chunk is held bit-identical to",
    "repro.apps.inspiral:templates_for_minimal_match":
        "DESIGN grounds the paper's 5 000-10 000-template figure with it",
    "repro.apps.inspiral:bank_minimal_match":
        "the coverage reference templates_for_minimal_match is checked with",
    "repro.apps.inspiral:template_match":
        "the overlap bank_minimal_match is built from",
    "repro.apps.galaxy:_scatter_loop":
        "the per-particle reference the vectorized scatter matches bit for bit",
    "repro.apps.galaxy:view_rotation":
        "an angled view (E4's 'vary the perspective'); every run renders xy/xz",
    # compatibility: no product frame takes this path, a peer's may
    "repro.transport.wire:_dec_fields":
        "a frame from a peer whose dataclass gained, lost or reordered a field, "
        "or a class that cannot be built positionally: decode by name",
    # safety, and a name the fixed benchmark binds
    "repro.p2p.peer:Peer.replace_handler":
        "gridbench's traced run wraps it by name; the protocol installs once",
    "repro.observe.export:_json_default":
        "safety: coerces a non-JSON span attribute instead of failing the export",
    "repro.p2p.advertisement:AdvCache._drop":
        "safety: drops a lapsed lease; no run lasts as long as a lease",
    "repro.simkernel.sim:_Call.callbacks":
        "safety: call_at's event honours appended callbacks like any event",
    "repro.simkernel.sim:Simulator.call_first":
        "safety: a callback that raises mid-burst or mid-cohort leaves the rest first",
    "repro.service.controller:TrianaController._on_unit_error":
        "safety: a unit that raises on a worker fails the run at once; no root's does",
    "repro.simkernel.queues:CalendarQueue.push_front":
        "safety: the queue operation Simulator.call_first makes",
    "repro.transport.runtime:_sleep":
        "safety: a wall-clock kernel without sockets waits instead of spinning",
    "repro.transport.tcp:TcpTransport.nodes":
        "ROADMAP item 8: the Transport contract; its callers are sim-only today",
    "repro.transport.tcp:TcpTransport.set_online":
        "ROADMAP item 8: what offline means on TCP is the contract's to decide",
    # fault handling: socket timing decides whether a run reaches these
    "repro.mobility.cache:ModuleCache._bounce":
        "fault handling: a holder asked for a module it no longer holds",
    "repro.mobility.cache:ModuleCache._fall_back":
        "fault handling: a forwarded fetch bounced or timed out; ask the portal",
    "repro.mobility.cache:ModuleCache._fail":
        "fault handling: a module fetch that gave up",
    "repro.p2p.network:SimNetwork._lose_uploads":
        "fault handling: a sender goes offline mid-upload on a serialising link",
    "repro.transport.link:Link.dial_failed":
        "fault handling: a dial refused; back off and retry",
    "repro.transport.link:Link.timer_fired":
        "fault handling: the backoff timer ends; dial again",
    "repro.transport.tcp:_TcpLink.arm":
        "fault handling: schedules the backoff timer",
    "repro.transport.tcp:_TcpLink.drop":
        "fault handling: a frame dropped after MAX_RETRIES dials",
    "repro.transport.tcp:_TcpLink.pause_writing":
        "fault handling: back-pressure, the socket's buffer is full",
    "repro.transport.tcp:_TcpLink.resume_writing":
        "fault handling: back-pressure released",
}

#: a reason that starts so is safety code some runs reach by timing
FAULT_HANDLING = "fault handling"


def module_name(path: pathlib.Path, src: pathlib.Path) -> str:
    parts = list(path.relative_to(src).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _abstract(node: ast.AST) -> bool:
    """An ``@abstractmethod``, or a stub whose body (bar its docstring)
    only raises ``NotImplementedError``: a signature, not code."""
    if any(
        (d.attr if isinstance(d, ast.Attribute) else getattr(d, "id", None))
        == "abstractmethod"
        for d in node.decorator_list
    ):
        return True
    body = node.body[1:] if ast.get_docstring(node) is not None else node.body
    if body and isinstance(body[-1], ast.Expr) and isinstance(body[-1].value, ast.Yield):
        body = body[:-1]  # a generator's shape
    if len(body) != 1 or not isinstance(body[0], ast.Raise):
        return False
    exc = body[0].exc
    exc = exc.func if isinstance(exc, ast.Call) else exc
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


#: where a function is, as its code object says: (file, first line, name)
Site = tuple[str, int, str]


def functions(src: pathlib.Path, package: str = "repro") -> dict[str, Site]:
    """``module:qualname`` → :data:`Site` of every function and method
    under ``src/package``, bar abstract ones."""
    found: dict[str, Site] = {}

    def visit(node: ast.AST, prefix: str, module: str, path: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", module, path)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                if not _abstract(child):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    key = f"{module}:{qualname}"
                    if key in found:  # a property's setter, a redefinition
                        key = f"{key}@{first}"
                    found[key] = (path, first, child.name)
                visit(child, f"{qualname}.<locals>.", module, path)
            else:
                visit(child, prefix, module, path)

    for path in sorted((src / package).rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        visit(tree, "", module_name(path, src), str(path.resolve()))
    return found


def probe(
    roots: tuple[tuple[str, ...], ...],
    src: pathlib.Path,
    cwd: pathlib.Path,
    tmp: pathlib.Path,
    timeout: float = 600.0,
) -> tuple[set[Site], list[str]]:
    """Run every root under the hook: the (file, first line, name) of
    each code object under ``src`` that started, and the roots that
    failed."""
    site = tmp / "probe-site"
    rows = tmp / "probe-rows"
    site.mkdir()
    rows.mkdir()
    (site / "sitecustomize.py").write_text(
        PROBE.format(root=str(src.resolve()) + os.sep, out=str(rows))
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(site), str(src)])
    failed = []
    for root in roots:
        argv = [sys.executable, *(arg.format(tmp=tmp) for arg in root)]
        done = subprocess.run(
            argv, cwd=cwd, env=env, timeout=timeout,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        if done.returncode:
            failed.append(f"{' '.join(root)}: exit {done.returncode}\n{done.stderr[-2000:]}")
    reached = set()
    for path in rows.glob("*.rows"):
        for row in path.read_text().splitlines():
            file, line, name = row.rsplit(":", 2)
            reached.add((file, int(line), name))
    return reached, failed


def unreached(defined: dict[str, Site], reached: set[Site]) -> list[str]:
    """The ``module:qualname`` of each defined function no root started."""
    return sorted(key for key, site in defined.items() if site not in reached)


def covers(entry: str, key: str) -> bool:
    """A listed function covers its nested functions; a listed class,
    every method in it."""
    return key == entry or key.startswith(entry + ".")


def verdict(defined, dead: list[str], kept: dict[str, str]) -> list[str]:
    """One line per problem: an unlisted unreached function, or a listed
    entry that covers no function, or one a product run calls (fault
    handling exempt)."""
    lines = [f"{key}: no product run calls it — delete it, or list it in "
             "KEPT_UNREACHED with its reason"
             for key in dead if not any(covers(entry, key) for entry in kept)]
    for entry, why in kept.items():
        mine = [key for key in defined if covers(entry, key)]
        if not mine:
            lines.append(f"{entry}: listed in KEPT_UNREACHED but gone")
        elif not why.startswith(FAULT_HANDLING) and not set(mine) <= set(dead):
            lines.append(f"{entry}: listed in KEPT_UNREACHED but a product run calls it")
    return lines


def main() -> int:
    start = time.monotonic()
    defined = functions(SRC)
    tmp = pathlib.Path(tempfile.mkdtemp(prefix="check-reach-"))
    try:
        plain = {**os.environ, "PYTHONPATH": str(SRC)}
        subprocess.run(
            [sys.executable, "-c", SETUP.format(tmp=str(tmp))],
            env=plain, check=True, timeout=120,
        )
        reached, failed = probe(ROOTS, SRC, REPO, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    dead = unreached(defined, reached)
    problems = failed + verdict(defined, dead, KEPT_UNREACHED)
    for line in problems:
        print(line)
    print(f"({time.monotonic() - start:.0f} s)", file=sys.stderr)
    if problems:
        print(f"reach check FAILED: {len(problems)} problem(s) "
              f"({len(defined)} functions, {len(ROOTS)} roots)", file=sys.stderr)
        return 1
    print(f"reach check passed ({len(defined)} functions, {len(ROOTS)} roots, "
          f"{len(dead)} unreached under {len(KEPT_UNREACHED)} KEPT_UNREACHED entries)")
    return 0

if __name__ == "__main__":
    sys.exit(main())
