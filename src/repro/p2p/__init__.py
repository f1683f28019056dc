"""P2P substrate (systems S2+S3): simulated consumer network + JXTA-like layer.

Layering, bottom-up::

    Transport           the fabric interface every layer above is written to
    SimNetwork          its simulated implementation: DSL/LAN link models
    Peer / PeerGroup    endpoints with advertisement caches and handlers
    Discovery           central-index | flooding | rendezvous strategies
    Pipes               named, advertised, bind-by-discovery channels
    JxtaServe           service-oriented facade (the paper's JXTAServe)
"""

from .advertisement import (
    ADV_MODULE,
    ADV_PEER,
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
    NetChaos,
    NetStats,
    NodeProfile,
    SimNetwork,
    Transport,
)
from .peer import Peer, PeerGroup
from .pipes import InputPipe, OutputPipe, PipeManager
from .webservice import WebClient, WebServiceEndpoint, service_to_wsdl

__all__ = [
    "ADV_MODULE",
    "ADV_PEER",
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
    "NetChaos",
    "NetStats",
    "NetworkError",
    "NodeProfile",
    "OutputPipe",
    "P2PError",
    "Peer",
    "PeerGroup",
    "PeerOfflineError",
    "PipeError",
    "PipeManager",
    "RendezvousDiscovery",
    "SimNetwork",
    "Transport",
    "WebClient",
    "WebServiceEndpoint",
    "input_pipe_name",
    "service_to_wsdl",
]
