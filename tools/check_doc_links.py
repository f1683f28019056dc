#!/usr/bin/env python
"""Docs link checker: fail CI on dead relative links.

Scans ``README.md`` and every ``docs/*.md`` for inline markdown links
(``[text](target)``), resolves each relative target against the file it
appears in, and exits non-zero if any target is missing.  External links
(``http://``, ``https://``, ``mailto:``) and pure in-page anchors
(``#section``) are skipped; a ``path#anchor`` target is checked for the
path only.

Also enforces the docs-reachability contract: every ``docs/*.md`` page
must be linked from ``docs/index.md`` *and* from ``README.md``.

And checks the protocol table of ``docs/architecture.md`` against the
code: every message kind a handler is registered for under ``src/repro``
(``peer.on("kind", ...)``) has a row, and every kind in a row is
registered somewhere.

Usage: ``python tools/check_doc_links.py [repo_root]``
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

#: inline links, ignoring images; the target is group 1
_LINK = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")
_EXTERNAL = ("http://", "https://", "mailto:")


def iter_links(path: Path):
    """Yield (line_number, target) for every inline link in ``path``."""
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        for match in _LINK.finditer(line):
            yield lineno, match.group(1)


def registered_kinds(src: Path) -> dict[str, str]:
    """``{kind: "file:line"}`` for every ``<peer>.on(kind, handler)`` under ``src``.

    ``kind`` is a string literal, a module-level string constant, or
    ``f"{self.KIND_PREFIX}-suffix"`` — expanded with the ``KIND_PREFIX``
    of every class in the module but the one that registers it (the
    abstract base, whose placeholder prefix never reaches the wire).
    """
    kinds: dict[str, str] = {}
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text())
        constants = {
            node.targets[0].id: node.value.value
            for node in tree.body
            if isinstance(node, ast.Assign)
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        }
        classes = [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
        prefixes = {
            cls.name: stmt.value.value
            for cls in classes
            for stmt in cls.body
            if isinstance(stmt, ast.Assign)
            and getattr(stmt.targets[0], "id", None) == "KIND_PREFIX"
        }
        owner = {id(node): cls.name for cls in classes for node in ast.walk(cls)}
        for call in ast.walk(tree):
            if not (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == "on"
                and len(call.args) == 2
            ):
                continue
            arg = call.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                found = [arg.value]
            elif isinstance(arg, ast.Name) and arg.id in constants:
                found = [constants[arg.id]]
            elif isinstance(arg, ast.JoinedStr):
                suffix = "".join(
                    part.value for part in arg.values
                    if isinstance(part, ast.Constant)
                )
                found = [
                    prefix + suffix for cls, prefix in prefixes.items()
                    if cls != owner.get(id(call))
                ]
            else:
                continue
            for kind in found:
                kinds.setdefault(kind, f"{path.name}:{call.lineno}")
    return kinds


def documented_kinds(page: Path) -> set[str]:
    """Kinds named in the first column of the ``## Message protocol`` table;
    ``central-publish/-query`` is shorthand for two kinds with one stem."""
    kinds: set[str] = set()
    section = page.read_text().split("## Message protocol", 1)[-1].split("\n## ", 1)[0]
    for line in section.splitlines():
        cells = line.split("|")
        if len(cells) < 3:
            continue  # not a table row (header and rule rows carry no backticks)
        for token in re.findall(r"`([^`]+)`", cells[1]):
            first, *rest = token.split("/")
            kinds.add(first)
            kinds.update(first.rsplit("-", 1)[0] + suffix for suffix in rest)
    return kinds


def check_message_table(root: Path) -> list[str]:
    page = root / "docs" / "architecture.md"
    if not page.exists() or not (root / "src" / "repro").is_dir():
        return []
    registered = registered_kinds(root / "src" / "repro")
    documented = documented_kinds(page)
    where = "docs/architecture.md: protocol table"
    return [
        f"{where} has no row for {kind!r} (registered at {registered[kind]})"
        for kind in sorted(set(registered) - documented)
    ] + [
        f"{where} lists {kind!r}, which no handler is registered for"
        for kind in sorted(documented - set(registered))
    ]


def check(root: Path) -> list[str]:
    """Return a list of human-readable problems (empty = all good)."""
    problems: list[str] = check_message_table(root)
    docs_dir = root / "docs"
    sources = [root / "README.md"] + sorted(docs_dir.glob("*.md"))
    links_from: dict[Path, set[Path]] = {}

    for source in sources:
        if not source.exists():
            problems.append(f"{source.relative_to(root)}: file missing")
            continue
        resolved: set[Path] = set()
        for lineno, target in iter_links(source):
            if target.startswith(_EXTERNAL) or target.startswith("#"):
                continue
            target_path = target.split("#", 1)[0]
            if not target_path:
                continue
            candidate = (source.parent / target_path).resolve()
            if not candidate.exists():
                problems.append(
                    f"{source.relative_to(root)}:{lineno}: dead link "
                    f"-> {target}"
                )
            else:
                resolved.add(candidate)
        links_from[source] = resolved

    # Reachability: every docs page is linked from the docs index AND the
    # README (directly, or via the docs index for the README).
    index = docs_dir / "index.md"
    readme = root / "README.md"
    for page in sorted(docs_dir.glob("*.md")):
        if page == index:
            continue
        target = page.resolve()
        if index.exists() and target not in links_from.get(index, set()):
            problems.append(
                f"docs/index.md: does not link docs/{page.name}"
            )
        if readme.exists() and target not in links_from.get(readme, set()):
            problems.append(
                f"README.md: does not link docs/{page.name}"
            )
    return problems


def main(argv: list[str]) -> int:
    root = Path(argv[1]).resolve() if len(argv) > 1 else Path(__file__).resolve().parent.parent
    problems = check(root)
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"{len(problems)} doc-link problem(s)", file=sys.stderr)
        return 1
    checked = [root / "README.md"] + sorted((root / "docs").glob("*.md"))
    print(f"doc links OK ({len(checked)} files checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
