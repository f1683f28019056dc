"""Exception hierarchy for the resource substrate."""

from __future__ import annotations


class ResourceError(Exception):
    """Base class for resource-layer errors."""
