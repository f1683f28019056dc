"""Exception hierarchy for the P2P substrate."""

from __future__ import annotations


class P2PError(Exception):
    """Base class for all P2P-layer errors."""


class NetworkError(P2PError):
    """Malformed send, unknown node, or link-level failure."""


class PeerOfflineError(P2PError):
    """An operation required a peer that is not currently online."""


class DiscoveryError(P2PError):
    """Discovery misconfiguration (no rendezvous, no index...)."""


class PipeError(P2PError):
    """Pipe binding/transfer failure."""


class RequestFailed(P2PError):
    """A request drew no usable reply in :data:`~repro.p2p.peer.ASK_ATTEMPTS` asks."""
