"""tools/check_doc_links.py: the protocol table is checked against the code."""

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
    assert {"group-exec", "triana-reparam", "rdv-reply", "node-shutdown"} <= set(kinds)
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
