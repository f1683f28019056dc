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
  the four-stage pipeline (:func:`run_pipeline`), which E6 measures.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from ..core.types import GraphData, TableData
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
