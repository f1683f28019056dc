"""A Triana peer fronting a batch-managed cluster.

"The server component within each peer can interact with Globus GRAM to
launch jobs locally on the node.  This is useful to support nodes which
host parallel machines or workstations clusters.  A Triana network
therefore can be composed of a number of different kinds of resource
management systems – supported via a gateway between a Triana Peer and
the particular system used to launch and manage jobs."

:class:`ClusterTrianaService` behaves exactly like a volunteer
:class:`~repro.service.worker.TrianaService` on the wire, but executes
iterations by submitting jobs to a local :class:`~repro.resources.gram.
BatchQueue` through a :class:`~repro.resources.gram.GramGateway` —
authenticated with a CA credential, billed to an account — so queued
iterations run **concurrently** across the cluster's slots.
"""

from __future__ import annotations

from typing import Optional

from ..resources.accounts import CertificateAuthority, GlobusAccountManager
from ..resources.gram import BatchQueue, GramGateway, JobSpec
from ..p2p.peer import Peer
from ..mobility.sandbox import SandboxPolicy
from .worker import TrianaService, _Deployment

__all__ = ["ClusterTrianaService"]

#: the grid account every cluster job is billed to
GRID_USER = "triana"


class ClusterTrianaService(TrianaService):
    """Worker whose execution engine is a local batch resource manager.

    Parameters
    ----------
    queue:
        The cluster's batch queue (nodes × cores slots).

    The peer provisions its own CA, grid account and gateway (the common
    self-managed cluster) and submits every job as ``GRID_USER``.
    """

    def __init__(
        self,
        peer: Peer,
        repository_host: str,
        queue: Optional[BatchQueue] = None,
        sandbox: Optional[SandboxPolicy] = None,
        **kwargs,
    ):
        super().__init__(peer, repository_host, sandbox=sandbox, **kwargs)
        self.queue = queue or BatchQueue(
            peer.sim, nodes=4, cores_per_node=2, cpu_flops=peer.profile.cpu_flops
        )
        ca = CertificateAuthority(f"{peer.peer_id}-ca")
        accounts = GlobusAccountManager(ca)
        accounts.create_account(GRID_USER)
        self.gateway = GramGateway(self.queue, ca, accounts)
        self.credential = ca.issue(GRID_USER, now=peer.sim.now)

    def _exec_loop(self, dep: _Deployment):
        """Submit each queued iteration as a batch job (concurrent slots).

        Payload computation happens immediately (it is cheap host work);
        the *modelled* cluster time is charged through the queue, and the
        volunteer's own completion tail runs when the job ends.  The span
        opens at submission, so it includes the wait for a slot.
        """
        while True:
            iteration, inputs = yield None
            outputs, flops, span = self._step(dep, iteration, inputs)
            job = self.gateway.submit(
                JobSpec(flops=max(flops, 1.0), user=GRID_USER),
                self.credential,
            )

            def on_done(ev, iteration=iteration, outputs=outputs, span=span):
                if ev.ok:
                    self._complete(dep, iteration, outputs, ev.value, span)

            job.callbacks.append(on_done)
