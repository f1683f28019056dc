"""Outside-in tracing: spans at the layer boundaries, recorded from here.

Nothing under ``src/`` is edited.  :class:`LayerTracer` installs
wrappers on the classes (and the few module-level functions) that form
the boundaries between layers, records one span per call — name, start,
end, parent span, run id — keeps them in memory, and removes every
wrapper again on exit.  Calls nest strictly (one thread, synchronous
wrappers; a generator process is wrapped per resumption), so a layer's
*self time* — its span's duration minus the time its child spans cover —
is accumulated on the way out, and the self times of all spans add up
to the root span's duration exactly.

Handlers are wrapped where they are registered: the wrapper around
``Peer.on`` attributes each protocol handler to the layer of the module
that defines it, the wrapper around ``add_node`` attributes the peer's
own dispatch to ``p2p.peer``.  Wrappers must therefore be installed
before the grid under test is assembled.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterator, Optional

import repro.service.integrity as integrity_mod
import repro.transport.tcp as tcp_mod
import repro.transport.wire as wire_mod
from repro.core.engine import LocalEngine
from repro.core.units import Unit
from repro.mobility.cache import ModuleCache
from repro.p2p.discovery import DiscoveryService
from repro.p2p.network import SimNetwork
from repro.p2p.peer import Peer
from repro.service.controller import TrianaController
from repro.service.integrity import VerificationStrategy
from repro.service.policies import DistributionPolicy
from repro.service.worker import TrianaService
from repro.simkernel import Simulator
from repro.transport.tcp import TcpTransport

from .metrics import TRACE_LAYERS

__all__ = ["LayerTracer", "layer_of", "ROOT_LAYER"]

ROOT_LAYER = "other"

_SERVICE_LAYERS = ("controller", "policies", "worker", "integrity")
_P2P_LAYERS = ("network", "peer", "discovery")


def layer_of(module: Optional[str]) -> Optional[str]:
    """Layer name for code defined in ``module`` (None: not the program)."""
    if not module or not module.startswith("repro."):
        return None
    parts = module.split(".")[1:] + [""]
    head, sub = parts[0], parts[1]
    if head == "service":
        # deploy/detector/partition/placement are controller-side helpers
        return f"service.{sub}" if sub in _SERVICE_LAYERS else "service.controller"
    if head == "p2p":
        return f"p2p.{sub}" if sub in _P2P_LAYERS else "p2p.peer"
    if head == "core":
        return "core.toolbox" if sub == "toolbox" else "core.engine"
    if head == "transport":
        return "transport.wire" if sub == "wire" else "transport.tcp"
    if head in ("simkernel", "apps", "mobility"):
        return head
    return ROOT_LAYER


def _subclasses(cls: type) -> Iterator[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class LayerTracer:
    """Install wrappers, collect spans, compute per-layer self time."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        #: (layer, start, end, parent index or -1, self seconds)
        self.spans: list[Optional[tuple]] = []
        self._stack: list[list] = []
        self._active = False
        self._undo: list[tuple[Any, str, Any, bool]] = []
        #: counts taken at the same boundaries as the spans
        self.wire_frames = 0
        self.wire_bytes = 0

    # -- span recording -----------------------------------------------------
    def _wrap(self, layer: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            frame = [len(spans), 0.0]  # own index, seconds covered by children
            spans.append(None)
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                spans[frame[0]] = (
                    layer, start, end,
                    parent[0] if parent is not None else -1,
                    duration - frame[1],
                )

        return wrapper

    def _wrap_generator(self, layer: str, fn: Callable) -> Callable:
        """A simulated process runs in slices, one per resumption by the
        kernel; each slice is a span of its own."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            resume = tracer._wrap(layer, gen.send)
            throw = tracer._wrap(layer, gen.throw)
            try:
                item = resume(None)
                while True:
                    try:
                        sent = yield item
                    except GeneratorExit:
                        gen.close()
                        raise
                    except BaseException as exc:  # noqa: BLE001 - forwarded, not handled
                        item = throw(exc)
                    else:
                        item = resume(sent)
            except StopIteration as stop:
                return stop.value

        return wrapper

    @contextmanager
    def root(self) -> Iterator[None]:
        """The root span: the traced timed phase.  Wrappers record only
        while it is open."""
        frame = [len(self.spans), 0.0]
        self.spans.append(None)
        self._stack.append(frame)
        self._active = True
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._active = False
            self._stack.pop()
            self.spans[frame[0]] = (
                ROOT_LAYER, start, end, -1, (end - start) - frame[1]
            )

    # -- installing the wrappers --------------------------------------------
    def _patch(self, owner: Any, name: str, new: Any) -> None:
        had = name in vars(owner)
        self._undo.append((owner, name, vars(owner).get(name), had))
        setattr(owner, name, new)

    def _wrap_attr(self, owner: Any, name: str, layer: str, generator=False) -> None:
        wrap = self._wrap_generator if generator else self._wrap
        self._patch(owner, name, wrap(layer, getattr(owner, name)))

    def _wrap_overrides(self, base: type, names, layer_for) -> None:
        """Wrap ``names`` wherever ``base`` or a subclass defines them."""
        for cls in (base, *_subclasses(base)):
            for name in names:
                if name in vars(cls) and callable(vars(cls)[name]):
                    self._wrap_attr(cls, name, layer_for(cls))

    def __enter__(self) -> "LayerTracer":
        wrap = self._wrap_attr
        wrap(Simulator, "run", "simkernel")
        wrap(SimNetwork, "send", "p2p.network")
        wrap(TcpTransport, "send", "transport.tcp")
        wrap(TcpTransport, "pump", "transport.tcp")
        wrap(Peer, "send", "p2p.peer")
        self._wrap_overrides(
            DiscoveryService, ("publish", "query"), lambda cls: "p2p.discovery"
        )
        wrap(TrianaController, "run_distributed", "service.controller")
        wrap(TrianaController, "_run_proc", "service.controller", generator=True)
        self._wrap_overrides(
            DistributionPolicy, ("dispatch", "on_result"),
            lambda cls: "service.policies",
        )
        self._wrap_overrides(
            VerificationStrategy, ("on_dispatch", "on_result", "on_late_result"),
            lambda cls: "service.integrity",
        )
        for name in ("_exec_loop", "_deploy_proc", "_heartbeat_loop"):
            wrap(TrianaService, name, "service.worker", generator=True)
        wrap(LocalEngine, "step", "core.engine")
        self._wrap_overrides(
            Unit, ("process",), lambda cls: layer_of(cls.__module__) or ROOT_LAYER
        )
        wrap(ModuleCache, "ensure", "mobility")
        wrap(integrity_mod, "canonical_digest", "service.integrity")
        self._install_wire()
        self._install_registration()
        return self

    def _install_wire(self) -> None:
        encode = self._wrap("transport.wire", wire_mod.encode_message)
        decode = self._wrap("transport.wire", wire_mod.decode_message)
        tracer = self

        @functools.wraps(wire_mod.encode_message)
        def counted_encode(message):
            frame = encode(message)
            if tracer._active:
                tracer.wire_frames += 1
                tracer.wire_bytes += len(frame)
            return frame

        # tcp.py bound the names at import; patch both homes.
        for module in (wire_mod, tcp_mod):
            self._patch(module, "encode_message", counted_encode)
            self._patch(module, "decode_message", decode)

    def _install_registration(self) -> None:
        tracer = self

        def wrap_handler(handler):
            layer = layer_of(getattr(handler, "__module__", None))
            return tracer._wrap(layer, handler) if layer else handler

        for name in ("on", "replace_handler"):
            original = getattr(Peer, name)

            def register(peer, kind, handler, _original=original):
                return _original(peer, kind, wrap_handler(handler))

            self._patch(Peer, name, functools.wraps(original)(register))

        for fabric in (SimNetwork, TcpTransport):
            original = fabric.add_node

            def add_node(self, node_id, handler, profile=None, _original=original):
                if isinstance(getattr(handler, "__self__", None), Peer):
                    handler = tracer._wrap("p2p.peer", handler)
                return _original(self, node_id, handler, profile)

            self._patch(fabric, "add_node", functools.wraps(original)(add_node))

    def __exit__(self, *exc) -> bool:
        while self._undo:
            owner, name, old, had = self._undo.pop()
            if had:
                setattr(owner, name, old)
            else:
                delattr(owner, name)
        return False

    # -- reporting ----------------------------------------------------------
    @property
    def root_span(self) -> tuple:
        return next(s for s in self.spans if s is not None and s[3] == -1)

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """``{layer: {calls, self_s, self_share}}`` for every known layer."""
        wall = self.root_span[2] - self.root_span[1]
        stats = {layer: {"calls": 0, "self_s": 0.0} for layer in TRACE_LAYERS}
        for span in self.spans:
            if span is None:  # a call that never returned (failed rep)
                continue
            entry = stats.setdefault(span[0], {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += span[4]
        for entry in stats.values():
            entry["self_share"] = entry["self_s"] / wall if wall > 0 else 0.0
        return stats

    def write_jsonl(self, path) -> None:
        """One span per line: run id, span id, parent, layer, start, end."""
        with open(path, "w") as out:
            for index, span in enumerate(self.spans):
                if span is None:
                    continue
                layer, start, end, parent, self_s = span
                out.write(json.dumps({
                    "run": self.run_id, "span": index, "parent": parent,
                    "name": layer, "start": start, "end": end, "self_s": self_s,
                }) + "\n")
