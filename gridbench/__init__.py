"""gridbench — the repository's benchmark.

Six workloads (four on the deterministic simulator, two across OS
processes over TCP), four bounded end-to-end metrics, a layer ladder and
an outside-in traced run.  ``BENCHMARK.json`` at the repository root is
the contract; ``gridbench/README.md`` explains every metric, workload
and the noise protocol.

The package is self-contained: it imports the program under test from
``<repo>/src`` and touches nothing else in the repository.
"""

from __future__ import annotations

import sys
from pathlib import Path

__all__ = ["ROOT", "SRC", "OUT_DIR"]

#: The checkout this package sits in (the benchmark runs from here).
ROOT = Path(__file__).resolve().parent.parent
#: The program under test.  A checkout without ``src/`` cannot be
#: measured: importing :mod:`gridbench.workloads` then fails and the
#: command exits non-zero without printing a result.
SRC = ROOT / "src"
#: Scratch output (traces, ad-hoc result files); listed in .gitignore.
OUT_DIR = ROOT / "gridbench" / "out"

if SRC.is_dir() and str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
