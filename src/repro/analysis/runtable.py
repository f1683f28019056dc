"""The run table: an experiment is a declaration, one runner does the rest.

An :class:`Experiment` names its factors and their levels, one cell
function, the columns its table shows and the paper claims its rows must
support.  The four functions here do everything that used to be written
out per experiment: :func:`run_one` runs a cell under a fresh tracer and
attaches the trace analytics, :func:`run_batch` crosses the factors,
derives the cross-row columns, evaluates the claims and renders the
table, :func:`store` writes ``BENCH_<name>.json`` and :func:`diff`
compares a fresh payload with a stored one, field by field.  The
declarations are :mod:`repro.analysis.experiments`; ``repro sweep`` is
the entry point.

A payload is a pure function of the code — cells are seeded and no wall
clock is recorded (gridbench measures that) — so the gate is equality:
every field of every cell, floats within :data:`REL_TOL`.
"""

from __future__ import annotations

import itertools
import json
import math
import pathlib
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional, Union

from ..observe import Tracer, analyze
from .tables import render_table

__all__ = [
    "Experiment", "REL_TOL", "SCHEMA", "diff", "result_path", "run_batch",
    "run_one", "store",
]

SCHEMA = 2

#: Floats match within this relative tolerance and nothing looser: CI
#: runs Python 3.10–3.12, and 3.12's compensated ``sum()`` moves last bits.
REL_TOL = 1e-9

Row = dict[str, Any]


@dataclass(frozen=True)
class Experiment:
    """One table of EXPERIMENTS.md, declared.

    ``factors`` maps each factor to its levels, crossed in declaration
    order.  ``cell(tracer, **levels)`` builds the thing, runs it and
    returns a flat JSON-able row of values — never artefacts; a cell that
    runs the p2p / mobility / service stack hands ``tracer`` on to it.
    ``columns`` maps the row keys the table shows to their headers.
    ``derive(rows)`` adds the columns that need another row (speed-up or
    overhead against a baseline cell), in place.  ``claims(by)`` returns
    ``(text, holds)`` pairs, the paper's claims as data; ``by`` maps a
    level (a tuple of levels when there are several factors) to its row.
    """

    name: str
    title: str
    factors: Mapping[str, tuple]
    cell: Callable[..., Row]
    columns: Mapping[str, str]
    claims: Callable[[dict[Any, Row]], list[tuple[str, bool]]]
    derive: Optional[Callable[[list[Row]], None]] = None


def run_one(exp: Experiment, levels: Mapping[str, Any]) -> Row:
    """One cell: the levels, the cell's values and the trace analytics.

    ``trace`` is non-null iff the fresh tracer handed to the cell
    recorded a span, i.e. the cell passed it to a span-emitting layer.
    """
    tracer = Tracer()
    row = {**levels, **exp.cell(tracer, **levels), "trace": None}
    if tracer.spans:
        analysis = analyze(tracer)
        path, buckets = analysis["critical_path"], analysis["bottlenecks"]
        row["trace"] = {
            "sim_time_s": analysis["window"]["duration_s"],
            "critical_path_s": path["path_s"],
            "critical_path_segments": len(path["segments"]),
            "slack_s": path["slack_s"],
            "bottlenecks": buckets["fractions"],
            "module_fetch_s": buckets["module_fetch_s"],
            "fairness": analysis["utilization"]["fairness"],
        }
    return row


def run_batch(exp: Experiment) -> dict[str, Any]:
    """Every cell of the factor product, as the ``BENCH_<name>.json`` payload."""
    rows = [
        run_one(exp, dict(zip(exp.factors, levels)))
        for levels in itertools.product(*exp.factors.values())
    ]
    if exp.derive is not None:
        exp.derive(rows)
    by = {}
    for row in rows:
        levels = tuple(row[factor] for factor in exp.factors)
        by[levels[0] if len(levels) == 1 else levels] = row
    return {
        "schema": SCHEMA,
        "experiment": exp.name,
        "factors": {name: list(levels) for name, levels in exp.factors.items()},
        "rows": rows,
        "claims": [
            {"claim": text, "holds": bool(holds)} for text, holds in exp.claims(by)
        ],
        "table": render_table(
            list(exp.columns.values()),
            [[row[key] for key in exp.columns] for row in rows],
            title=exp.title,
        ),
    }


def result_path(out: Union[str, pathlib.Path], name: str) -> pathlib.Path:
    """Where experiment ``name``'s payload lives under directory ``out``."""
    return pathlib.Path(out) / f"BENCH_{name}.json"


def store(payload: dict[str, Any], out: Union[str, pathlib.Path]) -> pathlib.Path:
    """Write ``payload`` to its file under ``out``; returns the path."""
    path = result_path(out, payload["experiment"])
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return path


def diff(fresh: Any, committed: Any, path: str = "") -> list[str]:
    """Every field where ``fresh`` differs from ``committed``, one line each.

    Structure, ints, strings, bools and ``None`` compare by type and
    ``==`` (``True`` is not ``1``), floats within :data:`REL_TOL`.
    """
    if isinstance(fresh, dict) and isinstance(committed, dict):
        out = []
        for key in sorted(fresh.keys() | committed.keys()):
            where = f"{path}.{key}" if path else key
            if key not in fresh:
                out.append(f"{where}: missing from the fresh run")
            elif key not in committed:
                out.append(f"{where}: not in the committed file")
            else:
                out += diff(fresh[key], committed[key], where)
        return out
    if isinstance(fresh, list) and isinstance(committed, list):
        if len(fresh) != len(committed):
            return [f"{path}: {len(fresh)} entries, committed has {len(committed)}"]
        return [
            line
            for i, (a, b) in enumerate(zip(fresh, committed))
            for line in diff(a, b, f"{path}[{i}]")
        ]
    if isinstance(fresh, float) and isinstance(committed, float):
        same = math.isclose(fresh, committed, rel_tol=REL_TOL, abs_tol=0.0)
    else:
        same = type(fresh) is type(committed) and fresh == committed
    return [] if same else [f"{path}: {fresh!r} != committed {committed!r}"]
