"""Case 3 — database access pipelines (§3.6.3).

"the user establishes a pipeline in Triana consisting of: (1) a data
access service, (2) a data manipulation service, (3) a data visualisation
service, and (4) a data verification service. ... Each of these services
may now be provided by different Triana Peers – which may be located at
different geographic sites. ... The Triana system looks on the network
to discover peers which offer each of these services in turn."

Provides:

* a small in-memory relational engine (:class:`Database`) with flat-file
  (CSV) loading — "can either read from flat files, or read from a
  structured database";
* the four stages as units (:class:`DataAccess`, :class:`DataManipulate`,
  :class:`DataVisualise`, :class:`DataVerify`) that hand a
  :class:`QueryResult` down the chain;
* :func:`database_graph` — one request as a ``p2p`` group of the four.
  Each stage requires a worker whose :class:`~repro.service.worker.Site`
  offers its service kind (the access stage also the table) and prefers
  the most accurate one — "select a service based on other options ...
  (such as accuracy)".  The access stage reads the table where it runs:
  it declares :data:`~repro.core.units.SITE_READ`.  E6 measures it.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Callable, Mapping, Optional, Sequence

import numpy as np

from ..core.errors import UnitError
from ..core.registry import register_unit
from ..core.taskgraph import TaskGraph
from ..core.types import GraphData, TableData, TrianaType
from ..core.units import SITE_READ, ParamSpec, Unit, _non_negative_int

__all__ = [
    "Database",
    "DatabaseError",
    "QuerySpec",
    "QueryResult",
    "apply_where",
    "apply_manipulation",
    "visualise_table",
    "verify_table",
    "DataAccess",
    "DataManipulate",
    "DataVisualise",
    "DataVerify",
    "database_graph",
]


class DatabaseError(Exception):
    """Relational-engine errors (unknown table/column, bad query...)."""


class Database:
    """A tiny typed relational store: tables of named columns."""

    def __init__(self, name: str = "db"):
        self.name = name
        self._tables: dict[str, TableData] = {}

    def create_table(self, name: str, columns: list[str]) -> None:
        if name in self._tables:
            raise DatabaseError(f"table {name!r} already exists")
        self._tables[name] = TableData(columns)

    def insert(self, table: str, row: tuple) -> None:
        self.table(table).append(row)

    def table(self, name: str) -> TableData:
        if name not in self._tables:
            raise DatabaseError(f"no table {name!r}; have {sorted(self._tables)}")
        return self._tables[name]

    def load_csv(self, table: str, text: str) -> int:
        """Load a flat file: first line headers, numeric cells coerced."""
        lines = [ln for ln in io.StringIO(text).read().splitlines() if ln.strip()]
        if not lines:
            raise DatabaseError("empty flat file")
        headers = [h.strip() for h in lines[0].split(",")]
        if table not in self._tables:
            self.create_table(table, headers)
        elif self.table(table).columns != headers:
            raise DatabaseError(
                f"flat-file headers {headers} do not match table {table!r}"
            )
        count = 0
        for line in lines[1:]:
            cells: list[Any] = []
            for cell in line.split(","):
                cell = cell.strip()
                try:
                    cells.append(float(cell) if "." in cell else int(cell))
                except ValueError:
                    cells.append(cell)
            self.insert(table, tuple(cells))
            count += 1
        return count


# -- declarative query pieces (they become task parameters, so no lambdas) -----


@dataclass(frozen=True)
class QuerySpec:
    """One user request; :func:`database_graph` spreads it over the stages.

    ``where`` is a list of ``(column, op, value)`` triples with op in
    ``== != < <= > >=``; ``manipulate`` is ``(operation, column)`` with
    operation in ``sort | sort_desc | topk | sum_by``.
    """

    table: str
    where: tuple = ()
    manipulate: Optional[tuple] = None
    x_column: str = ""
    y_column: str = ""
    expect_min_rows: int = 0


_OPS: dict[str, Callable[[Any, Any], bool]] = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def apply_where(table: TableData, where: tuple) -> TableData:
    """Filter rows by conjunction of (column, op, value) predicates."""
    out = TableData(table.columns)
    for row in table.rows:
        keep = True
        for column, op, value in where:
            if op not in _OPS:
                raise DatabaseError(f"unknown operator {op!r}")
            try:
                idx = table.columns.index(column)
            except ValueError:
                raise DatabaseError(f"no column {column!r}") from None
            if not _OPS[op](row[idx], value):
                keep = False
                break
        if keep:
            out.append(row)
    return out


def apply_manipulation(table: TableData, manipulate: Optional[tuple]) -> TableData:
    """Sort / top-k / group-sum a table."""
    if manipulate is None:
        return table
    operation, column = manipulate[0], manipulate[1]
    if column not in table.columns:
        raise DatabaseError(f"no column {column!r}")
    idx = table.columns.index(column)
    if operation == "sort":
        return TableData(table.columns, sorted(table.rows, key=lambda r: r[idx]))
    if operation == "sort_desc":
        return TableData(
            table.columns, sorted(table.rows, key=lambda r: r[idx], reverse=True)
        )
    if operation == "topk":
        k = int(manipulate[2]) if len(manipulate) > 2 else 5
        rows = sorted(table.rows, key=lambda r: r[idx], reverse=True)[:k]
        return TableData(table.columns, rows)
    if operation == "sum_by":
        value_col = manipulate[2] if len(manipulate) > 2 else None
        if value_col is None or value_col not in table.columns:
            raise DatabaseError("sum_by needs a value column")
        vidx = table.columns.index(value_col)
        totals: dict[Any, float] = {}
        for row in table.rows:
            totals[row[idx]] = totals.get(row[idx], 0.0) + float(row[vidx])
        return TableData(
            [column, f"sum_{value_col}"],
            sorted(totals.items()),
        )
    raise DatabaseError(f"unknown manipulation {operation!r}")


def visualise_table(table: TableData, x_column: str, y_column: str) -> GraphData:
    """Project two numeric columns into a plottable series."""
    xs = table.column(x_column) if x_column else list(range(len(table)))
    ys = table.column(y_column)
    try:
        x = np.asarray(xs, dtype=float)
        y = np.asarray(ys, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DatabaseError(f"non-numeric visualisation columns: {exc}") from exc
    return GraphData(x=x, y=y, label=f"{y_column} vs {x_column or 'row'}")


def verify_table(table: TableData, expect_min_rows: int = 0) -> dict[str, Any]:
    """The data-verification stage: structural checks + row-count floor."""
    problems = []
    width = len(table.columns)
    for i, row in enumerate(table.rows):
        if len(row) != width:  # pragma: no cover - TableData enforces this
            problems.append(f"row {i} has width {len(row)}")
    if len(table) < expect_min_rows:
        problems.append(f"expected at least {expect_min_rows} rows, got {len(table)}")
    return {"ok": not problems, "problems": problems, "rows": len(table)}


# -- the four stages as units ----------------------------------------------------


@dataclass
class QueryResult(TrianaType):
    """What flows down the pipeline: the rows, their plot once the
    visualisation stage drew it, and the verification stage's report."""

    table: TableData
    graph: Optional[GraphData] = None
    report: Optional[dict] = None

    def payload_nbytes(self) -> int:
        size = self.table.payload_nbytes()
        if self.graph is not None:
            size += self.graph.x.nbytes + self.graph.y.nbytes
        return size + (512 if self.report is not None else 0)


class _Stage(Unit):
    """A stage goes to a worker that offers its service, the most
    accurate one first."""

    SERVICE = ""
    PREFERS = "accuracy"
    INPUT_TYPES = (QueryResult,)
    OUTPUT_TYPES = (QueryResult,)

    def requires(self) -> dict[str, Any]:
        return {"services": self.SERVICE}


@register_unit(category="database")
class DataAccess(_Stage):
    """(1) Read one of the site's tables, keeping the rows that meet every
    ``(column, op, value)`` predicate of ``where``."""

    SERVICE = "data-access"
    NUM_INPUTS = 0
    PARAMETERS = (
        ParamSpec("table", "", "site-local table to read"),
        ParamSpec("where", [], "[column, op, value] predicates, all met"),
    )
    REQUIRED_PERMISSIONS = (SITE_READ,)
    #: the hosting worker's tables, handed over at deploy
    site_tables: Mapping[str, TableData] = MappingProxyType({})

    def requires(self) -> dict[str, Any]:
        return {**super().requires(), "tables": self.get_param("table")}

    def process(self, inputs: Sequence[Any]) -> list[Any]:
        name = self.get_param("table")
        if name not in self.site_tables:
            raise UnitError(f"DataAccess: this site hosts no table {name!r}")
        return [QueryResult(apply_where(self.site_tables[name], self.get_param("where")))]


@register_unit(category="database")
class DataManipulate(_Stage):
    """(2) Sort, top-k or group-sum the rows (:func:`apply_manipulation`)."""

    SERVICE = "data-manipulate"
    PARAMETERS = (
        ParamSpec("manipulate", [], "[operation, column, ...]; empty keeps the rows"),
    )

    def process(self, inputs: Sequence[Any]) -> list[Any]:
        manipulate = self.get_param("manipulate") or None
        return [QueryResult(apply_manipulation(inputs[0].table, manipulate))]


@register_unit(category="database")
class DataVisualise(_Stage):
    """(3) Plot one column against another (:func:`visualise_table`)."""

    SERVICE = "data-visualise"
    PARAMETERS = (
        ParamSpec("x_column", "", "x column; empty plots against the row index"),
        ParamSpec("y_column", "", "y column"),
    )

    def process(self, inputs: Sequence[Any]) -> list[Any]:
        table = inputs[0].table
        graph = visualise_table(
            table, self.get_param("x_column"), self.get_param("y_column")
        )
        return [QueryResult(table, graph)]


@register_unit(category="database")
class DataVerify(_Stage):
    """(4) Check the rows and report (:func:`verify_table`)."""

    SERVICE = "data-verify"
    PARAMETERS = (
        ParamSpec("expect_min_rows", 0, "fewest rows that pass", _non_negative_int),
    )

    def process(self, inputs: Sequence[Any]) -> list[Any]:
        result = inputs[0]
        report = verify_table(result.table, self.get_param("expect_min_rows"))
        return [QueryResult(result.table, result.graph, report)]


def database_graph(spec: QuerySpec) -> TaskGraph:
    """The pipeline for one request: the four stages as a ``p2p`` group,
    whose one output is the verified :class:`QueryResult`."""
    stages = TaskGraph("Case3")
    stages.add_task("Access", "DataAccess", table=spec.table,
                    where=[list(clause) for clause in spec.where])
    stages.add_task("Manipulate", "DataManipulate",
                    manipulate=list(spec.manipulate or ()))
    stages.add_task("Visualise", "DataVisualise",
                    x_column=spec.x_column, y_column=spec.y_column)
    stages.add_task("Verify", "DataVerify", expect_min_rows=spec.expect_min_rows)
    for a, b in [("Access", "Manipulate"), ("Manipulate", "Visualise"),
                 ("Visualise", "Verify")]:
        stages.connect(a, 0, b, 0)
    graph = TaskGraph("database-pipeline")
    graph.add_group("Pipeline", stages, input_map=(), output_map=[("Verify", 0)],
                    policy="p2p")
    return graph
