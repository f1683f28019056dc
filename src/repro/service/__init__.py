"""Triana service layer (system S6): workers, controller, distribution.

The paper's Fig. 3 architecture: Triana Controller (TC) ↔ Triana Service
(TS) daemons, with module deployment over pipes and on-demand code
download.

* :class:`TrianaService` — the worker daemon (server component)
* :class:`TrianaController` — the scheduling manager (client + command
  process components)
* :class:`HeartbeatFailureDetector` — suspicion + worker-health scoring
  behind the controller's adaptive recovery (see docs/robustness.md)
* :func:`partition_stages` — splits a graph around its policy groups
* :mod:`repro.service.policies` — pluggable distribution policies
  (:class:`DistributionPolicy`, :class:`PolicyRegistry`,
  :func:`register_policy`)
"""

from .controller import RunReport, TrianaController
from .detector import HeartbeatFailureDetector, WorkerHealth
from .errors import DeploymentError, SchedulingError, ServiceError
from .partition import (
    StagedPartition,
    find_distributable_groups,
    partition_stages,
)
from .placement import dispatch_policy_names, register_dispatch_policy
from .policies import (
    ChunkedFarmPolicy,
    DispatchContext,
    DistributionPolicy,
    ParallelFarmPolicy,
    PipelinePolicy,
    PolicyRegistry,
    global_policy_registry,
    register_policy,
)
from .worker import WORKER_SERVICE_KIND, DeploymentSpec, TrianaService

__all__ = [
    "ChunkedFarmPolicy",
    "DeploymentError",
    "DeploymentSpec",
    "DispatchContext",
    "DistributionPolicy",
    "HeartbeatFailureDetector",
    "ParallelFarmPolicy",
    "PipelinePolicy",
    "PolicyRegistry",
    "RunReport",
    "SchedulingError",
    "StagedPartition",
    "ServiceError",
    "TrianaController",
    "TrianaService",
    "WORKER_SERVICE_KIND",
    "WorkerHealth",
    "dispatch_policy_names",
    "find_distributable_groups",
    "global_policy_registry",
    "partition_stages",
    "register_dispatch_policy",
    "register_policy",
]
