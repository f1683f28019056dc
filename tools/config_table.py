#!/usr/bin/env python
"""Print the ``GridConfig`` settings table that docs/architecture.md embeds.

Generated from the dataclass: name and default from the field, owner from
the field's metadata (or, for a grouped setting, the module of the group's
class), "sim only" for what a socket fabric refuses.
``tests/test_grid_config.py`` fails when the doc and this output differ.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.config import GridConfig, settings  # noqa: E402


def field_table() -> str:
    defaults = GridConfig()
    lines = ["| setting | default | owner | sim only |", "|---|---|---|---|"]
    for name, group, f in settings():
        if group is None:
            owner = f.metadata["owner"]
        else:
            owner = type(getattr(defaults, group)).__module__.removeprefix("repro.")
        sim_only = f.metadata.get("sim_only", False)
        shown = (
            f"{type(f.default).__name__}()" if dataclasses.is_dataclass(f.default)
            else repr(f.default)
        )
        lines.append(f"| `{name}` | `{shown}` | `{owner}` | {'yes' if sim_only else ''} |")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.stdout.write(field_table())
