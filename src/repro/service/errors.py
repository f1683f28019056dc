"""Exception hierarchy for the Triana service layer."""

from __future__ import annotations


class ServiceError(Exception):
    """Base class for service-layer errors."""


class DeploymentError(ServiceError):
    """A sub-graph could not be deployed to a worker."""


class SchedulingError(ServiceError):
    """The controller could not build or execute a placement."""
