"""Pluggable group distribution policies (§3.3, opened up).

The paper presents ``parallel`` and ``p2p`` as two *examples* of group
distribution; this package makes the policy a first-class, registry-backed
strategy the way units already are:

* :class:`DistributionPolicy` + :class:`DispatchContext` — the strategy
  interface and the controller facade it programs against;
* :class:`PolicyRegistry` / :func:`register_policy` — name → policy
  resolution, mirroring :class:`~repro.core.registry.UnitRegistry`;
* built-ins: :class:`ParallelFarmPolicy` (``parallel``),
  :class:`PipelinePolicy` (``p2p``) and :class:`ChunkedFarmPolicy`
  (``chunked``), each declared with ``@register_policy`` like any
  third-party policy.

See ``docs/extending.md`` for the "write your own policy" walkthrough.
"""

from .base import DispatchContext, DistributionPolicy, RecoverySettings
from .parallel import ChunkedFarmPolicy, Outstanding, ParallelFarmPolicy
from .pipeline import PipelinePolicy
from .registry import (
    PolicyDescriptor,
    PolicyRegistry,
    global_policy_registry,
    register_policy,
)

__all__ = [
    "ChunkedFarmPolicy",
    "DispatchContext",
    "DistributionPolicy",
    "Outstanding",
    "ParallelFarmPolicy",
    "PipelinePolicy",
    "PolicyDescriptor",
    "PolicyRegistry",
    "RecoverySettings",
    "global_policy_registry",
    "register_policy",
]
