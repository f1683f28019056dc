"""tools/check_doc_links.py: the protocol table, the CLI verbs the docs
name and the dotted ``repro.…`` references are checked against the code."""

import importlib.util
import pathlib
import sys

_ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "check_doc_links_under_test", _ROOT / "tools" / "check_doc_links.py"
)
doc_links = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = doc_links
_spec.loader.exec_module(doc_links)

SERVICE = '''
SHUTDOWN_KIND = "node-shutdown"

class Base:
    KIND_PREFIX = "disc"
    def attach(self, peer):
        peer.on(f"{self.KIND_PREFIX}-reply", self._on_reply)

class Central(Base):
    KIND_PREFIX = "central"

class Worker:
    def __init__(self, peer):
        peer.on("group-exec", self._on_exec)
        peer.on("triana-reparam", self._on_reparam)
        self.peer.on(SHUTDOWN_KIND, self._stop)
        self.bus.on("not-a-kind")  # one argument: some other API
'''

TABLE = """# Architecture

`prose-kind` outside the table is not a row.

## Message protocol

| kind | from → to | payload |
|---|---|---|
| `central-publish/-reply` | peer ↔ index | adverts |
| `group-exec` | controller → worker | (deployment, [(iteration, inputs), …]) |
| `group-exec-bulk` | controller → worker | gone |
| `node-shutdown` | controller → worker process | exit |

## Next section

| `later-table` | is | ignored |
"""


def test_the_repo_table_matches_the_registered_handlers():
    assert doc_links.check_message_table(_ROOT) == []
    kinds = doc_links.registered_kinds(_ROOT / "src" / "repro")
    assert {"group-exec", "triana-deploy", "rdv-reply", "node-shutdown"} <= set(kinds)
    assert "group-exec-bulk" not in kinds and "disc-reply" not in kinds


def test_a_missing_and_a_stale_row_are_reported(tmp_path):
    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "service.py").write_text(SERVICE)
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "architecture.md").write_text(TABLE)
    assert doc_links.check_message_table(tmp_path) == [
        "docs/architecture.md: protocol table has no row for 'triana-reparam' "
        "(registered at service.py:15)",
        "docs/architecture.md: protocol table lists 'central-publish', "
        "which no handler is registered for",
        "docs/architecture.md: protocol table lists 'group-exec-bulk', "
        "which no handler is registered for",
    ]


CLI = '''
def build_parser():
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("run", help="execute a task graph")
    p_top = sub.add_parser(
        "top", parents=[grid_args()], help="dashboard"
    )
    parser.add_argument("--workers")
'''

README = """# demo

Run one with `repro run g.xml`, or convert it with `repro convert g.xml`.
`from repro import ConsumerGrid`, `repro.core` and `repro --help` name no
verb; a span may wrap: `python -m repro
top run.jsonl`.

```bash
python -m repro top run.jsonl
PYTHONPATH=src python -m repro convert g.xml --to native
```
"""

SKILL = """# verify

1. **CLI** — `python -m repro {run,convert, top}`:

   ```bash
   $ repro run g.xml
   ```
"""


def test_the_repo_docs_name_only_real_verbs():
    assert doc_links.check_cli_verbs(_ROOT) == []
    verbs = doc_links.cli_verbs(_ROOT / "src" / "repro" / "cli.py")
    assert verbs == {"units", "policies", "transports", "faults", "validate",
                     "run", "top", "analyze", "sweep"}


def test_a_stale_verb_and_a_stale_verb_set_are_reported(tmp_path):
    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "cli.py").write_text(CLI)
    (tmp_path / "README.md").write_text(README)
    skill = tmp_path / ".claude" / "skills" / "verify" / "SKILL.md"
    skill.parent.mkdir(parents=True)
    skill.write_text(SKILL)
    assert doc_links.cli_verbs(tmp_path / "src" / "repro" / "cli.py") == {"run", "top"}
    assert doc_links.check_cli_verbs(tmp_path) == [
        "README.md:3: names CLI verb 'convert', which src/repro/cli.py does not add",
        "README.md:10: names CLI verb 'convert', which src/repro/cli.py does not add",
        ".claude/skills/verify/SKILL.md:3: names CLI verb 'convert', which "
        "src/repro/cli.py does not add",
    ]


PKG_INIT = "from .peer import Peer\n"
PEER = '''"""A peer; see :class:`~repro.p2p.peer.Peer`, not :class:`repro.p2p.peer.Gone`."""
import heapq
LIMIT: int = 3
class Peer:
    """Sent by :meth:`repro.p2p.peer.Peer.send`, a role that wraps:
    :func:`repro.p2p.
    Peer`."""
'''
DOCS = """# p2p

`repro.p2p.Peer`, `repro.p2p.peer.LIMIT` and `repro.p2p.peer.heapq`
resolve; `src/repro/p2p` and `myrepro.x` are not references.

```bash
python -m repro.p2p.relay --port 0
```
"""


def test_the_repo_references_resolve():
    assert doc_links.check_references(_ROOT) == []


def test_a_stale_module_and_a_stale_name_are_reported(tmp_path):
    pkg = tmp_path / "src" / "repro" / "p2p"
    pkg.mkdir(parents=True)
    (tmp_path / "src" / "repro" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text(PKG_INIT)
    (pkg / "peer.py").write_text(PEER)
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "p2p.md").write_text(DOCS)
    assert doc_links.check_references(tmp_path) == [
        "docs/p2p.md:7: repro.p2p.relay does not resolve: "
        "repro.p2p has no submodule or top-level name 'relay'",
        "src/repro/p2p/peer.py:1: repro.p2p.peer.Gone does not resolve: "
        "repro.p2p.peer has no submodule or top-level name 'Gone'",
    ]
