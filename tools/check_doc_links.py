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

And checks the CLI verbs the docs name against ``src/repro/cli.py``:
every ``repro <verb>``, ``python -m repro <verb>`` or ``python -m repro
{a,b,...}`` in a code span or fenced block of the pages in
``VERB_PAGES`` must be a sub-command the parser adds
(``sub.add_parser("verb", ...)``).

And checks that every dotted ``repro.…`` reference resolves: in a code
span or fenced block of the same pages, and in a Sphinx role
(``:mod:``, ``:class:``, ``:func:``, ``:meth:``, ``:attr:``, ``:data:``,
``:exc:``) under ``src/repro``.  The longest prefix that is a package or
module is found; the next component, if any, must be a name that module
binds at top level (def, class, assignment or import).

Usage: ``python tools/check_doc_links.py [repo_root]``
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Optional

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


#: pages whose code may name CLI verbs (globs, relative to the repo root)
VERB_PAGES = ("README.md", "docs/*.md", "DESIGN.md", "EXPERIMENTS.md",
              ".claude/skills/verify/SKILL.md")
_FENCE = re.compile(r"^[ \t]*(```|~~~).*?^[ \t]*\1", re.M | re.S)
_SPAN = re.compile(r"`([^`]+)`")
#: ``repro`` in command position — first word (after an optional ``$``
#: prompt) or the module of ``-m`` — then a verb or a ``{a,b}`` set;
#: ``from repro import`` and dotted ``repro.core`` are not commands
_COMMAND = re.compile(
    r"(?:^[ \t]*(?:\$[ \t]+)?|-m[ \t]+)repro[ \t]+(\{[^}\n]*\}|[a-z][\w-]*)", re.M
)


def cli_verbs(cli: Path) -> set[str]:
    """The names ``cli`` passes to ``<subparsers>.add_parser("name", ...)``."""
    return {
        call.args[0].value
        for call in ast.walk(ast.parse(cli.read_text()))
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr == "add_parser"
        and call.args
        and isinstance(call.args[0], ast.Constant)
    }


def code_snippets(text: str) -> list[tuple[int, str]]:
    """(offset, text) of every fenced block and code span of markdown ``text``."""
    snippets = [(fence.start(), fence.group()) for fence in _FENCE.finditer(text)]
    # Blank the fences (keeping offsets) so their backticks pair with nothing.
    prose = _FENCE.sub(lambda m: re.sub(r"[^\n]", " ", m.group()), text)
    # A span may wrap a line; it renders, and reads, as one line.
    snippets += [
        (span.start(1), span.group(1).replace("\n", " "))
        for span in _SPAN.finditer(prose)
    ]
    return snippets


def named_verbs(text: str):
    """Yield (line_number, verb) for every CLI verb a code span or fenced
    block of the markdown ``text`` names."""
    for offset, snippet in code_snippets(text):
        for match in _COMMAND.finditer(snippet):
            lineno = text.count("\n", 0, offset + match.start(1)) + 1
            for verb in match.group(1).strip("{}").split(","):
                yield lineno, verb.strip()


def check_cli_verbs(root: Path) -> list[str]:
    cli = root / "src" / "repro" / "cli.py"
    if not cli.exists():
        return []
    verbs = cli_verbs(cli)
    problems = []
    for pattern in VERB_PAGES:
        for page in sorted(root.glob(pattern)):
            for lineno, verb in sorted(named_verbs(page.read_text())):
                if verb not in verbs:
                    problems.append(
                        f"{page.relative_to(root)}:{lineno}: names CLI verb "
                        f"{verb!r}, which src/repro/cli.py does not add"
                    )
    return problems


#: a dotted ``repro.a.b`` reference, not the tail of a longer name or path
_DOTTED = re.compile(r"(?<![\w./-])repro(?:\.[A-Za-z_]\w*)+")
#: a Sphinx cross-reference role; its target may wrap a line
_ROLE = re.compile(r":(?:mod|class|func|meth|attr|data|exc):`[~!]?([^`]+)`")


def top_level_names(module: Path) -> set[str]:
    """The names a def, class, assignment or import binds at module level."""
    names: set[str] = set()
    for node in ast.parse(module.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(
                n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)
            )
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
    return names


def unresolved(ref: str, src: Path) -> Optional[str]:
    """Why the dotted ``ref`` names nothing under ``src``; None if it resolves.

    The longest prefix of ``ref`` that is a package or module is looked
    up; the next component, if any, must be one of its top-level names.
    """
    parts = ref.split(".")
    module, depth = None, 0
    for depth in range(1, len(parts) + 1):
        base = src.joinpath(*parts[:depth])
        if (base / "__init__.py").is_file():
            module = base / "__init__.py"
        elif base.with_suffix(".py").is_file():
            module = base.with_suffix(".py")
            break
        else:
            depth -= 1
            break
    if module is None:
        return f"no package {parts[0]!r}"
    if depth == len(parts) or parts[depth] in top_level_names(module):
        return None
    return (f"{'.'.join(parts[:depth])} has no submodule or top-level name "
            f"{parts[depth]!r}")


def check_references(root: Path) -> list[str]:
    """Every ``repro.…`` in a code span or fenced block of the ``VERB_PAGES``,
    and in a Sphinx role under ``src/repro``, must name a module or a
    module's top-level name."""
    src = root / "src"
    if not (src / "repro").is_dir():
        return []
    found: list[tuple[Path, int, str]] = []
    for pattern in VERB_PAGES:
        for page in sorted(root.glob(pattern)):
            text = page.read_text()
            for offset, snippet in code_snippets(text):
                for match in _DOTTED.finditer(snippet):
                    lineno = text.count("\n", 0, offset + match.start()) + 1
                    found.append((page, lineno, match.group()))
    for path in sorted((src / "repro").rglob("*.py")):
        text = path.read_text()
        for role in _ROLE.finditer(text):
            match = _DOTTED.match(re.sub(r"\s+", "", role.group(1)))
            if match:
                lineno = text.count("\n", 0, role.start(1)) + 1
                found.append((path, lineno, match.group()))
    problems = []
    for path, lineno, ref in found:
        why = unresolved(ref, src)
        if why:
            problems.append(f"{path.relative_to(root)}:{lineno}: {ref} does not "
                            f"resolve: {why}")
    return problems


def check(root: Path) -> list[str]:
    """Return a list of human-readable problems (empty = all good)."""
    problems: list[str] = (
        check_message_table(root) + check_cli_verbs(root) + check_references(root)
    )
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
