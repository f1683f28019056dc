"""Application scenarios (system S9): the paper's three use cases.

* :mod:`.galaxy`   — Case 1, galaxy-formation frame farming (§3.6.1)
* :mod:`.inspiral` — Case 2, inspiral matched-filter search (§3.6.2)
* :mod:`.database` — Case 3, multi-site database pipelines (§3.6.3)

Importing this package registers the scenario units (DataReader,
ColumnDensity, InspiralSearch, DataAccess, ...) in the global toolbox.
Case 3's four stages form a ``p2p`` group, and each goes to a worker
whose advertised site offers its service kind, the most accurate first.
"""

from . import database, galaxy, inspiral  # noqa: F401

__all__ = ["database", "galaxy", "inspiral"]
