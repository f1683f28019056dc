"""P2P substrate (systems S2+S3): simulated consumer network + JXTA-like layer.

Layering, bottom-up::

    Transport           the fabric interface every layer above is written to
    SimNetwork          its simulated implementation: DSL/LAN link models
    Peer                endpoints with advertisement caches and handlers
    Discovery           central-index | flooding | rendezvous strategies
    Pipes               named, advertised channels (the benchmark's pipe rung)

The paper's service layer is the Triana service's workers: a
worker advertises what it offers (``repro.service.worker.Site``), and a
``p2p`` stage that names attributes goes to a worker whose advertisement
matches them, the highest-scoring by its preferred attribute.
"""

from .advertisement import (
    ADV_PIPE,
    ADV_SERVICE,
    AdvCache,
    Advertisement,
)
from .discovery import (
    CentralIndexDiscovery,
    DiscoveryService,
    DiscoveryStats,
    FloodingDiscovery,
    RendezvousDiscovery,
)
from .errors import DiscoveryError, NetworkError, P2PError, PeerOfflineError, PipeError
from .network import (
    DSL_PROFILE,
    LAN_PROFILE,
    Message,
    NetStats,
    NodeProfile,
    SimNetwork,
    Transport,
)
from .peer import Peer
from .pipes import InputPipe, OutputPipe, PipeManager

__all__ = [
    "ADV_PIPE",
    "ADV_SERVICE",
    "AdvCache",
    "Advertisement",
    "CentralIndexDiscovery",
    "DSL_PROFILE",
    "DiscoveryError",
    "DiscoveryService",
    "DiscoveryStats",
    "FloodingDiscovery",
    "InputPipe",
    "LAN_PROFILE",
    "Message",
    "NetStats",
    "NetworkError",
    "NodeProfile",
    "OutputPipe",
    "P2PError",
    "Peer",
    "PeerOfflineError",
    "PipeError",
    "PipeManager",
    "RendezvousDiscovery",
    "SimNetwork",
    "Transport",
]
