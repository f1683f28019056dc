"""A GRAM-like batch resource manager behind a gateway peer.

"The server component within each peer can interact with Globus GRAM to
launch jobs locally on the node.  This is useful to support nodes which
host parallel machines or workstations clusters."  A Triana peer fronting
a cluster submits group execution to this local RM instead of running
in-process.

:class:`BatchQueue` is a FIFO multi-node scheduler; :class:`GramGateway`
is the authenticated submission interface (certificate + account checks,
per §2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..simkernel import Event, Resource, Simulator
from .accounts import CertificateAuthority, Credential, GlobusAccountManager
from .errors import AuthenticationError, QueueError

__all__ = ["JobSpec", "BatchQueue", "GramGateway"]


@dataclass(frozen=True)
class JobSpec:
    """One batch job: modelled work plus how long the user will wait."""

    flops: float
    user: str = "anonymous"
    wall_limit: Optional[float] = None

    def __post_init__(self):
        if self.flops <= 0:
            raise QueueError("job flops must be positive")


@dataclass
class QueueStats:
    submitted: int = 0
    completed: int = 0
    killed_wall_limit: int = 0
    total_wait: float = 0.0
    total_run: float = 0.0


class BatchQueue:
    """FIFO batch scheduler over ``nodes`` × ``cores_per_node`` slots."""

    def __init__(
        self,
        sim: Simulator,
        nodes: int = 4,
        cores_per_node: int = 2,
        cpu_flops: float = 2.0e9,
    ):
        if nodes < 1 or cores_per_node < 1:
            raise QueueError("nodes and cores_per_node must be >= 1")
        self.sim = sim
        self.cpu_flops = cpu_flops
        self.slots = Resource(sim, capacity=nodes * cores_per_node)
        self.stats = QueueStats()

    def submit(self, spec: JobSpec) -> Event:
        """Queue a job; the returned process event yields its runtime."""
        self.stats.submitted += 1
        submit_time = self.sim.now

        def job(sim: Simulator):
            req = self.slots.request()
            yield req
            wait = sim.now - submit_time
            self.stats.total_wait += wait
            runtime = spec.flops / self.cpu_flops
            try:
                if spec.wall_limit is not None and runtime > spec.wall_limit:
                    self.stats.killed_wall_limit += 1
                    raise QueueError(
                        f"job exceeded wall limit ({runtime:.0f}s > "
                        f"{spec.wall_limit:.0f}s)"
                    )
                yield sim.timeout(runtime)
            finally:
                self.slots.release(req)
            self.stats.completed += 1
            self.stats.total_run += runtime
            return runtime

        return self.sim.process(job(self.sim), name=f"batch-job-{self.stats.submitted}")


class GramGateway:
    """Authenticated front door to a batch queue (the Globus path).

    Submission requires a valid CA credential *and* a pre-created
    account — exactly the administrative friction §2 describes.
    """

    def __init__(
        self,
        queue: BatchQueue,
        ca: CertificateAuthority,
        accounts: GlobusAccountManager,
    ):
        self.queue = queue
        self.ca = ca
        self.accounts = accounts
        self.rejected = 0

    def submit(self, spec: JobSpec, credential: Credential) -> Event:
        """Authenticate, authorise and enqueue; bills on completion."""
        try:
            self.accounts.authorise(credential, self.queue.sim.now)
        except AuthenticationError:
            self.rejected += 1
            raise
        done = self.queue.submit(spec)

        def bill(ev: Event) -> None:
            if ev.ok:
                self.accounts.charge(spec.user, ev.value)

        done.callbacks.append(bill)
        return done
