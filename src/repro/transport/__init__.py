"""The real-socket side of the fabric seam.

The consumer-grid protocol (discovery, deployment, execution,
heartbeats, module distribution, integrity voting) is written against
:class:`repro.p2p.network.Transport`.  The simulated implementation,
:class:`~repro.p2p.network.SimNetwork`, lives with the interface in
``repro.p2p``; this package holds what a real deployment adds:

* :class:`~repro.transport.tcp.TcpTransport` — asyncio TCP with
  length-prefixed canonical frames, pooled per-peer connections and
  reconnect-with-backoff;
* :mod:`~repro.transport.wire` — the canonical frame codec;
* :class:`~repro.transport.runtime.RealtimeSimulator` — the wall-clock
  kernel that pumps the sockets.

:data:`TRANSPORTS` names the two backends; ``repro transports`` lists
it and ``ConsumerGrid(transport=...)`` validates against it.
:mod:`repro.deployment` assembles multi-process grids on the TCP one.
"""

from ..p2p.network import SimNetwork, Transport
from ..registry import Registry
from .runtime import RealtimeSimulator
from .tcp import TcpTransport
from .wire import (
    WIRE_VERSION,
    WireError,
    decode,
    decode_message,
    encode,
    encode_message,
    result_checksum,
)

#: backend name → fabric class (summary = first docstring line)
TRANSPORTS: Registry[type] = Registry("transport", ValueError)
TRANSPORTS.add("sim", SimNetwork)
TRANSPORTS.add("tcp", TcpTransport)


def transport_names() -> list[str]:
    """Sorted names of the transport backends."""
    return TRANSPORTS.names()


__all__ = [
    "Transport",
    "TcpTransport",
    "RealtimeSimulator",
    "TRANSPORTS",
    "transport_names",
    "WireError",
    "WIRE_VERSION",
    "encode",
    "decode",
    "encode_message",
    "decode_message",
    "result_checksum",
]
