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
* the four pipeline stages as JXTAServe services hosted on peers
  (:class:`DatabaseSite`), advertised with quality attributes so the user
  can "select a service based on other options ... (such as accuracy)";
* :class:`DatabasePipeline` — discovery, service-bind and execution of
  the four-stage pipeline;
* graph-based stages (:class:`TableSource`, :class:`TableManipulator`,
  :class:`TableVerifier`) and :func:`build_database_graph`, so Case 3
  can also run as a distributable task graph under the parallel farm
  policy — which is what gives it the controller's churn recovery (the
  JXTAServe pipeline above has no retry path).
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

import numpy as np

from ..core.errors import UnitError
from ..core.registry import register_unit
from ..core.taskgraph import TaskGraph
from ..core.types import GraphData, TableData
from ..core.units import ParamSpec, Unit, _non_negative_int, _positive_int
from ..p2p.discovery import DiscoveryService
from ..p2p.jxtaserve import JxtaServe, JxtaService
from ..p2p.peer import Peer
from ..simkernel import Event

__all__ = [
    "Database",
    "DatabaseError",
    "QuerySpec",
    "apply_where",
    "apply_manipulation",
    "visualise_table",
    "verify_table",
    "DatabaseSite",
    "DatabasePipeline",
    "run_pipeline",
    "SERVICE_KINDS",
    "register_table",
    "TableSource",
    "TableManipulator",
    "TableVerifier",
    "build_database_graph",
]

SERVICE_KINDS = ("data-access", "data-manipulate", "data-visualise", "data-verify")


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

    def tables(self) -> list[str]:
        return sorted(self._tables)

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


# -- declarative query pieces (these travel over pipes, so no lambdas) ---------


@dataclass(frozen=True)
class QuerySpec:
    """A serialisable pipeline request.

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


def verify_table(table: TableData, spec: QuerySpec) -> dict[str, Any]:
    """The data-verification stage: structural checks + row-count floor."""
    problems = []
    width = len(table.columns)
    for i, row in enumerate(table.rows):
        if len(row) != width:  # pragma: no cover - TableData enforces this
            problems.append(f"row {i} has width {len(row)}")
    if len(table) < spec.expect_min_rows:
        problems.append(
            f"expected at least {spec.expect_min_rows} rows, got {len(table)}"
        )
    return {"ok": not problems, "problems": problems, "rows": len(table)}


# -- services on peers --------------------------------------------------------------


class DatabaseSite:
    """One geographic site hosting a subset of the four service kinds."""

    def __init__(
        self,
        peer: Peer,
        discovery: DiscoveryService,
        database: Optional[Database] = None,
        kinds: tuple[str, ...] = SERVICE_KINDS,
        accuracy: float = 1.0,
    ):
        unknown = set(kinds) - set(SERVICE_KINDS)
        if unknown:
            raise DatabaseError(f"unknown service kinds {sorted(unknown)}")
        self.peer = peer
        self.serve = JxtaServe(peer, discovery)
        self.database = database
        self.accuracy = accuracy
        self.services: dict[str, JxtaService] = {}
        for kind in kinds:
            if kind == "data-access" and database is None:
                raise DatabaseError("data-access service requires a database")
            handler = {
                "data-access": self._access,
                "data-manipulate": self._manipulate,
                "data-visualise": self._visualise,
                "data-verify": self._verify,
            }[kind]
            name = f"{kind}@{peer.peer_id}"
            self.services[kind] = self.serve.register_service(
                name,
                kind=kind,
                num_inputs=1,
                num_outputs=1,
                handler=handler,
                attrs={"accuracy": accuracy, "site": peer.peer_id},
            )

    # Stage handlers: each receives (spec, payload, reply_to) and pipes the
    # enriched envelope onward through its (dynamically bound) output.
    def _access(self, node: int, envelope, svc: JxtaService) -> None:
        spec: QuerySpec = envelope["spec"]
        table = apply_where(self.database.table(spec.table), spec.where)
        envelope = {**envelope, "table": table, "trail": envelope["trail"] + [svc.name]}
        svc.emit(0, envelope, size_bytes=table.payload_nbytes())

    def _manipulate(self, node: int, envelope, svc: JxtaService) -> None:
        spec: QuerySpec = envelope["spec"]
        table = apply_manipulation(envelope["table"], spec.manipulate)
        envelope = {**envelope, "table": table, "trail": envelope["trail"] + [svc.name]}
        svc.emit(0, envelope, size_bytes=table.payload_nbytes())

    def _visualise(self, node: int, envelope, svc: JxtaService) -> None:
        spec: QuerySpec = envelope["spec"]
        graph = visualise_table(envelope["table"], spec.x_column, spec.y_column)
        envelope = {**envelope, "graph": graph, "trail": envelope["trail"] + [svc.name]}
        svc.emit(0, envelope, size_bytes=graph.payload_nbytes())

    def _verify(self, node: int, envelope, svc: JxtaService) -> None:
        spec: QuerySpec = envelope["spec"]
        report = verify_table(envelope["table"], spec)
        envelope = {**envelope, "report": report, "trail": envelope["trail"] + [svc.name]}
        svc.emit(0, envelope, size_bytes=512)


class DatabasePipeline:
    """The user's side: discover, service-bind, execute (§3.6.3).

    "The pipeline is instantiated with peer references as new services
    become available. ... Once a service has been selected, and the
    Triana system has undertaken a service-bind to each of the stages in
    the pipeline, Triana now initiates the execution procedure."
    """

    def __init__(self, peer: Peer, discovery: DiscoveryService):
        self.peer = peer
        self.serve = JxtaServe(peer, discovery)
        self.discovery = discovery
        self._result_pipe = self.serve.pipes.create_input(
            f"pipeline-result@{peer.peer_id}"
        )
        self.bound: dict[str, Any] = {}

    def discover_services(self) -> Event:
        """Find all candidate services for all four stages.

        Returns an event yielding ``{kind: [advertisements]}``.
        """
        sim = self.peer.sim
        done = sim.event()
        query = self.discovery.query(
            self.peer,
            adv_type="service",
            predicate=lambda attrs: attrs.get("kind") in SERVICE_KINDS,
        )

        def collect(ev):
            by_kind: dict[str, list] = {k: [] for k in SERVICE_KINDS}
            for adv in ev.value:
                by_kind[adv.attributes["kind"]].append(adv)
            done.succeed(by_kind)

        query.callbacks.append(collect)
        return done

    def bind(
        self,
        candidates: dict[str, list],
        preference: Optional[Callable[[dict[str, Any]], float]] = None,
    ) -> dict[str, dict[str, Any]]:
        """Select one service per stage ("based on ... accuracy") and bind.

        ``preference`` scores an advertisement attribute dict; highest
        wins (default: the advertised accuracy).
        """
        score = preference or (lambda attrs: attrs.get("accuracy", 0.0))
        chosen = {}
        for kind in SERVICE_KINDS:
            options = candidates.get(kind, [])
            if not options:
                raise DatabaseError(f"no service available for stage {kind!r}")
            best = max(options, key=lambda adv: score(adv.attributes))
            chosen[kind] = {"name": best.name, **best.attributes}
        self.bound = chosen
        return chosen

def run_pipeline(
    user: DatabasePipeline,
    sites: list[DatabaseSite],
    spec: QuerySpec,
    preference: Optional[Callable[[dict[str, Any]], float]] = None,
) -> Event:
    """Discover, bind, route and execute the Case-3 pipeline end-to-end.

    Returns an event yielding the final envelope with ``table``,
    ``graph``, ``report`` and the ``trail`` of services traversed.
    """
    done = user.peer.sim.event()

    def after_discovery(ev):
        chosen = user.bind(ev.value, preference)
        by_name = {
            svc.name: (site, svc)
            for site in sites
            for svc in site.services.values()
        }
        # Route each chosen stage to the next chosen stage's input pipe.
        order = [chosen[k]["name"] for k in SERVICE_KINDS]
        for here, nxt in zip(order, order[1:]):
            site, svc = by_name[here]
            next_site, next_svc = by_name[nxt]
            svc.connect_direct(0, nxt, 0, next_site.peer.peer_id)
        last_site, last_svc = by_name[order[-1]]
        out = last_site.serve.pipes.create_output(user._result_pipe.name)
        out.bind_direct(user.peer.peer_id)
        last_svc.outputs[0] = out

        def on_result(ev2):
            done.succeed(ev2.value)

        user._result_pipe.get().callbacks.append(on_result)
        # Kick the pipeline: the request enters stage 1's input pipe.
        first_site, _first_svc = by_name[order[0]]
        kick = user.serve.pipes.create_output(f"{order[0]}.in0")
        kick.bind_direct(first_site.peer.peer_id)
        kick.send({"spec": spec, "trail": []}, size_bytes=256)

    user.discover_services().callbacks.append(after_discovery)
    return done


# -- graph-based stages (distributable with churn recovery) --------------------

#: Table registry: TableSource units reference tables by key so the
#: task-graph XML stays small (same pattern as galaxy's dataset registry).
_TABLES: dict[str, TableData] = {}


def register_table(key: str, table: TableData) -> None:
    """Make a table available to TableSource units by key."""
    _TABLES[key] = table


@register_unit(category="database")
class TableSource(Unit):
    """Data-access stage as a unit: emits one chunk of rows per iteration.

    Chunking is what makes the farm policy applicable — each chunk is an
    independent piece of manipulation work, like the galaxy frames.
    """

    NUM_INPUTS = 0
    NUM_OUTPUTS = 1
    OUTPUT_TYPES = (TableData,)
    PARAMETERS = (
        ParamSpec("table", "", "registered table key"),
        ParamSpec("chunk_rows", 8, "rows per emitted chunk", _positive_int),
    )
    REQUIRED_PERMISSIONS = ("fs.read",)

    def reset(self) -> None:
        self._index = 0

    def checkpoint(self) -> dict[str, Any]:
        return {"index": self._index}

    def restore(self, state: dict[str, Any]) -> None:
        self._index = int(state.get("index", 0))

    def process(self, inputs: Sequence[Any]) -> list[Any]:
        key = self.get_param("table")
        if key not in _TABLES:
            raise UnitError(f"TableSource: no table registered as {key!r}")
        table = _TABLES[key]
        chunk = int(self.get_param("chunk_rows"))
        start = self._index * chunk
        if start >= len(table):
            raise UnitError(
                f"TableSource: table {key!r} exhausted after {self._index} chunks"
            )
        self._index += 1
        return [TableData(table.columns, table.rows[start : start + chunk])]


@register_unit(category="database")
class TableManipulator(Unit):
    """Filter + manipulate one chunk (the farmed, stateless work)."""

    NUM_INPUTS = 1
    NUM_OUTPUTS = 1
    INPUT_TYPES = (TableData,)
    OUTPUT_TYPES = (TableData,)
    CODE_SIZE = 40_000
    PARAMETERS = (
        # JSON-serialisable: a list of [column, op, value] conjuncts.
        ParamSpec("where", [], "filter predicates [[column, op, value], ...]"),
        ParamSpec("sort_column", "", "sort chunk by this column ('' = keep order)"),
        ParamSpec("descending", False, "sort direction"),
    )

    def process(self, inputs: Sequence[Any]) -> list[Any]:
        (table,) = inputs
        try:
            out = apply_where(table, tuple(tuple(w) for w in self.get_param("where")))
            column = self.get_param("sort_column")
            if column:
                op = "sort_desc" if self.get_param("descending") else "sort"
                out = apply_manipulation(out, (op, column))
        except DatabaseError as exc:
            raise UnitError(f"TableManipulator: {exc}") from exc
        return [out]

    def estimated_flops(self, input_nbytes: int) -> float:
        # Predicate scan + comparison sort over ~48 B rows.
        rows = max(input_nbytes / 48.0, 1.0)
        return 200.0 * rows * (1.0 + np.log2(rows))


@register_unit(category="database")
class TableVerifier(Unit):
    """Verification sink: accumulates chunk reports and the merged table."""

    NUM_INPUTS = 1
    NUM_OUTPUTS = 0
    INPUT_TYPES = (TableData,)
    PARAMETERS = (
        ParamSpec("expect_min_rows", 0, "per-chunk row-count floor", _non_negative_int),
    )

    def reset(self) -> None:
        self.reports: list[dict[str, Any]] = []
        self.merged: Optional[TableData] = None

    def checkpoint(self) -> dict[str, Any]:
        return {
            "reports": list(self.reports),
            "columns": self.merged.columns if self.merged else None,
            "rows": list(self.merged.rows) if self.merged else [],
        }

    def restore(self, state: dict[str, Any]) -> None:
        self.reports = list(state.get("reports", []))
        columns = state.get("columns")
        self.merged = (
            TableData(columns, list(state.get("rows", []))) if columns else None
        )

    def process(self, inputs: Sequence[Any]) -> list[Any]:
        (table,) = inputs
        spec = QuerySpec(
            table="", expect_min_rows=int(self.get_param("expect_min_rows"))
        )
        self.reports.append(verify_table(table, spec))
        if self.merged is None:
            self.merged = TableData(table.columns)
        for row in table.rows:
            self.merged.append(row)
        return []

    @property
    def all_ok(self) -> bool:
        return bool(self.reports) and all(r["ok"] for r in self.reports)


def build_database_graph(
    table_key: str,
    chunk_rows: int = 8,
    where: Optional[list] = None,
    sort_column: str = "",
    policy: str = "parallel",
) -> TaskGraph:
    """The Case-3 task graph: Source → [Manipulate]@policy → Verify."""
    g = TaskGraph("database-pipeline")
    g.add_task("Source", "TableSource", table=table_key, chunk_rows=chunk_rows)
    g.add_task(
        "Manipulate",
        "TableManipulator",
        where=list(where or []),
        sort_column=sort_column,
    )
    g.add_task("Verify", "TableVerifier")
    g.connect("Source", 0, "Manipulate", 0)
    g.connect("Manipulate", 0, "Verify", 0)
    g.group_tasks("QueryFarm", ["Manipulate"], policy=policy)
    return g
