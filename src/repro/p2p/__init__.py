"""P2P substrate (systems S2+S3): simulated consumer network + JXTA-like layer.

Layering, bottom-up::

    Transport           the fabric interface every layer above is written to
    SimNetwork          its simulated implementation: DSL/LAN link models
    Peer                endpoints with advertisement caches and handlers
    Discovery           central-index | flooding | rendezvous strategies
    Pipes               named, advertised, bind-by-discovery channels
    JxtaServe           service-oriented facade (the paper's JXTAServe)
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
from .jxtaserve import JxtaServe, JxtaService, input_pipe_name
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
    "JxtaServe",
    "JxtaService",
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
    "input_pipe_name",
]
