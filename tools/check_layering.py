#!/usr/bin/env python
"""Import-layering gate: keep the dependency arrows pointing one way.

The architecture (docs/architecture.md) stacks the systems so that lower
layers never know about higher ones, and the policy plug-in surface
stays decoupled from the controller that hosts it:

* ``repro.registry`` is a leaf: it imports nothing from ``repro``;
* ``repro.simkernel`` is the foundation: of ``repro`` it may import only
  itself and ``repro.observe.tracer`` (the null tracer the kernel calls);
* ``repro.core`` (workflow model, engine, toolbox) must not import
  ``repro.service``, ``repro.p2p`` or ``repro.transport`` — graphs and
  units must stay runnable without any grid;
* ``repro.p2p`` must not import ``repro.transport`` — the fabric
  interface and its simulated implementation live in ``p2p``; the socket
  backend sits above and imports downwards;
* ``repro.transport`` must not import ``repro.service`` or
  ``repro.mobility`` — it carries their frames without knowing them;
* ``repro.transport.link`` must not import ``asyncio``, ``socket`` or
  ``selectors`` — the link layer's state machines run (and are tested)
  without a socket or an event loop; ``transport.tcp`` adapts them;
* ``repro.service.policies`` must not import
  ``repro.service.controller`` — policies talk to the controller only
  through the :class:`DispatchContext` services handed to them, never
  by reaching into controller internals;
* ``repro.faults`` and ``repro.mobility`` must not import
  ``repro.service``, ``repro.p2p.discovery`` or
  ``repro.p2p.advertisement`` — compute-fault models are planted in the
  neutral ``Transport.compute_faults`` mapping and polled duck-typed by
  the worker, so the integrity hooks flow one way (service reads faults'
  artefacts, never vice versa); the module cache/repository are pure
  transport, and where a module's bytes come from is decided by the
  portal's repository from what it has shipped, never looked up through
  discovery;
* of ``repro``, only ``repro.transport.wire`` (the payload checksum,
  which result digests are), ``repro.simkernel.rng`` (stream seeds) and
  ``repro.mobility.repository`` (package identity) may import
  ``hashlib`` — a value's canonical form is decided in one module, and
  a second hashing walk beside it is how a verifier ends up hashing
  something weaker than the value;
* of ``repro``, only ``repro.core.toolbox.signal`` may import a private
  numpy module (one with a ``_``-prefixed component, such as
  ``numpy.fft._pocketfft_umath``) — such a module may change in any
  numpy release, so one module stands on it and its tests pin it.

The check is purely static: every ``import`` / ``from ... import`` in
every module under ``src/repro`` is resolved (including relative
imports) with :mod:`ast`, no code is executed.  Run it directly::

    python tools/check_layering.py

Exit status 0 = layering clean; each violation prints as
``path:line: <rule>``.

The same pass keeps deleted code deleted: :func:`orphans` lists every
module no other module imports (a package ``__init__``'s re-export does
not count), and ``main()`` fails on any that is not already on the
``AWAITING_DELETION`` list.  And it keeps dropped dependencies dropped:
an import whose top-level package is neither the standard library nor
``repro`` must be on ``THIRD_PARTY`` — the runtime dependencies
``pyproject.toml`` declares (every process pays for each at start-up:
``networkx`` was 285 modules and 20 MiB for 14 lines of use).

It keeps deleted names deleted too, where a profiler cannot see them:
:func:`orphan_names` lists every public top-level constant, and every
public class without a method of its own (an exception, a marker), in
``src/repro`` that nothing outside ``tests/`` references, and ``main()``
fails on each one.  Functions and methods are ``tools/check_reach.py``'s
job: it runs the product and lists what never ran.  A reference is an
AST name or attribute, or a word in a string in code, in ``src/``,
``gridbench/``, ``examples/``, ``benchmarks/`` or ``tools/``, or a word
in the repo's XML/JSON files: a registry name such as ``policy="chunked"``
is a use of the class that declares that ``name``.  A docstring (of a
module, class or function) is prose, not a caller.  A name's own
definition, ``__all__`` lists and import statements (so package
re-exports) do not count either.

And it keeps imports honest: :func:`unused_imports` lists every
top-level import in ``src/``, ``tests/``, ``tools/`` and ``examples/``
that its module never reads (a package ``__init__``'s re-exports and a
line marked ``# noqa: F401`` excepted), and every such marker on an
import whose names are all read.
"""

from __future__ import annotations

import ast
import pathlib
import re
import sys
from dataclasses import dataclass

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src"

@dataclass(frozen=True)
class Rule:
    """``scope`` (bar the modules in ``exempt``) may not import
    ``forbid`` (with ``private``, only the ``_``-prefixed modules under
    it); or, of ``repro``, only ``allow``."""

    scope: tuple[str, ...]
    why: str
    forbid: tuple[str, ...] = ()
    allow: tuple[str, ...] | None = None
    exempt: tuple[str, ...] = ()
    private: bool = False

    def rejects(self, module: str, target: str) -> bool:
        if not _within(module, self.scope) or _within(module, self.exempt):
            return False
        if self.allow is not None:
            return _within(target, ("repro",)) and not _within(target, self.allow)
        if self.private and not any(p.startswith("_") for p in target.split(".")):
            return False
        return _within(target, self.forbid)


def _within(name: str, prefixes: tuple[str, ...]) -> bool:
    return any(name == p or name.startswith(p + ".") for p in prefixes)


RULES: tuple[Rule, ...] = (
    Rule(("repro.registry",), "the registry base is a leaf module", allow=()),
    Rule(("repro.simkernel",), "simkernel is the foundation layer",
         allow=("repro.simkernel", "repro.observe.tracer")),
    Rule(("repro.core",), "core must stay grid-free",
         forbid=("repro.service", "repro.p2p", "repro.transport")),
    Rule(("repro.p2p",), "the socket backend sits above p2p and imports downwards",
         forbid=("repro.transport",)),
    Rule(("repro.transport",),
         "transport carries service and module frames without knowing them",
         forbid=("repro.service", "repro.mobility")),
    Rule(("repro.transport.link",),
         "the link machines run without a socket or an event loop",
         forbid=("asyncio", "socket", "selectors")),
    Rule(("repro.service.policies",),
         "policies must use DispatchContext, not controller internals",
         forbid=("repro.service.controller",)),
    Rule(("repro.faults", "repro.mobility"),
         "faults and mobility sit below service and discovery (integrity hooks "
         "flow one way; the portal, not a lookup, picks a module's source)",
         forbid=("repro.service", "repro.p2p.discovery", "repro.p2p.advertisement")),
    Rule(("repro",), "one hashing walk: digest results with wire.result_checksum",
         forbid=("hashlib",),
         exempt=("repro.transport.wire", "repro.simkernel.rng",
                 "repro.mobility.repository")),
    Rule(("repro",), "numpy's private modules are reached from one module",
         forbid=("numpy",), private=True, exempt=("repro.core.toolbox.signal",)),
)


#: the third-party packages ``src/repro`` may import = pyproject's
#: ``dependencies``
THIRD_PARTY = ("numpy",)


def module_name(path: pathlib.Path, src: pathlib.Path = SRC) -> str:
    """Dotted module name for a file under ``src``."""
    rel = path.relative_to(src).with_suffix("")
    parts = list(rel.parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def resolve_relative(module: str, node: ast.ImportFrom, is_package: bool) -> str:
    """Absolute dotted target of a (possibly relative) ``from`` import."""
    if node.level == 0:
        return node.module or ""
    # A package's __init__ resolves level-1 relative to itself; a plain
    # module resolves relative to its parent package.
    anchor = module.split(".")
    drop = node.level - 1 if is_package else node.level
    if drop:
        anchor = anchor[:-drop]
    if node.module:
        anchor.append(node.module)
    return ".".join(anchor)


def imported_targets(path: pathlib.Path, src: pathlib.Path = SRC) -> list[tuple[int, str]]:
    """Every (lineno, absolute dotted target) imported by the file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    module = module_name(path, src)
    is_package = path.name == "__init__.py"
    targets: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                targets.append((node.lineno, alias.name))
        elif isinstance(node, ast.ImportFrom):
            base = resolve_relative(module, node, is_package)
            targets.append((node.lineno, base))
            # ``from repro.service import controller`` imports a
            # submodule even though the target prefix alone looks fine.
            for alias in node.names:
                targets.append((node.lineno, f"{base}.{alias.name}"))
    return targets


def check(paths: list[pathlib.Path], src: pathlib.Path = SRC) -> list[str]:
    """Violation lines for ``paths``, which live under the source root ``src``."""
    violations = []
    for path in sorted(paths):
        module = module_name(path, src)
        for lineno, target in imported_targets(path, src):
            top = target.partition(".")[0]
            if top not in sys.stdlib_module_names and top not in ("repro", *THIRD_PARTY):
                violations.append(
                    f"{path.relative_to(src.parent)}:{lineno}: "
                    f"{module} imports {target} — {top} is not a declared "
                    f"runtime dependency {THIRD_PARTY}"
                )
            for rule in RULES:
                if rule.rejects(module, target):
                    violations.append(
                        f"{path.relative_to(src.parent)}:{lineno}: "
                        f"{module} imports {target} — {rule.why}"
                    )
    return violations


#: packs whose import *is* their use: importing them registers units /
#: policies, nothing needs a name from them
SELF_REGISTERING = ("repro.core.toolbox", "repro.service.policies")

#: orphans already sized for deletion whose tests do not fit in the
#: change that found them; an entry leaves with its module
AWAITING_DELETION = ()


def orphans(paths: list[pathlib.Path], src: pathlib.Path = SRC) -> list[str]:
    """Modules among ``paths`` that no *other* module imports.

    A name imported through a package (``from .observe import
    write_trace``) counts for the submodule the package's ``__init__``
    took it from; the ``__init__``'s own re-export does not count, so a
    module only its package and its test know is an orphan.
    """
    modules = {module_name(path, src): path for path in paths}
    imports = {
        module: {target for _, target in imported_targets(path, src)}
        for module, path in modules.items()
    }
    reexports = {}  # (package, name) -> the ``package.submodule.name`` behind it
    for package, targets in imports.items():
        if modules[package].name != "__init__.py":
            continue
        for target in targets:
            base, _, name = target.rpartition(".")
            if target not in modules and base != package and _within(base, (package,)):
                reexports[package, name] = target

    def origin(target: str) -> str:
        """The module an import target really reaches ("" = none of ours)."""
        while target and target not in modules:
            base, _, name = target.rpartition(".")
            target = reexports.get((base, name), base)
        return target

    used = set()
    for module, targets in imports.items():
        reached = {origin(target) for target in targets}
        # a package importing its own submodules is the re-export
        used |= {m for m in reached if not _within(m, (module,))}
    exempt = ("repro.__main__",) + SELF_REGISTERING
    return sorted(
        m for m, path in modules.items()
        if path.name != "__init__.py" and m not in used and not _within(m, exempt)
    )


#: directories whose code and strings count as a use of a ``repro`` name
USE_ROOTS = ("src", "gridbench", "examples", "benchmarks", "tools")

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _registry_name(node: ast.AST) -> str | None:
    """The ``name = "..."`` a class declares: a distribution policy is
    reached by that string (``policy="chunked"``), as a unit is by its
    class name."""
    for stmt in node.body if isinstance(node, ast.ClassDef) else ():
        if (
            isinstance(stmt, ast.Assign)
            and [getattr(t, "id", None) for t in stmt.targets] == ["name"]
            and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str)
        ):
            return stmt.value.value
    return None


#: where a public name is defined: (file, first line, last line, the
#: registry name it declares or ``None``)
Definition = tuple[pathlib.Path, int, int, str | None]


def _has_method(node: ast.ClassDef) -> bool:
    return any(isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) for n in node.body)


def _public_constants(node: ast.AST) -> list[str]:
    """The ``UPPER_CASE`` names a top-level assignment binds."""
    targets = (
        node.targets if isinstance(node, ast.Assign)
        else [node.target] if isinstance(node, ast.AnnAssign) else []
    )
    return [
        t.id for t in targets
        if isinstance(t, ast.Name) and t.id.isupper() and not t.id.startswith("_")
    ]


def public_definitions(paths: list[pathlib.Path]) -> dict[str, list[Definition]]:
    """Public top-level constant, and class without a method, → its
    definitions (what a profiler cannot see run)."""
    defs: dict[str, list[Definition]] = {}
    for path in sorted(paths):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                if node.name.startswith("_") or _has_method(node):
                    continue
                names = [node.name]
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            else:
                names, first = _public_constants(node), node.lineno
            for name in names:
                defs.setdefault(name, []).append(
                    (path, first, node.end_lineno, _registry_name(node))
                )
    return defs


def _exports(node: ast.AST) -> bool:
    """An ``__all__`` assignment: naming a name there is not using it."""
    targets = (
        node.targets if isinstance(node, ast.Assign)
        else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
        else []
    )
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


#: the nodes whose first string statement is a docstring: prose, not a use
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def references(paths: list[pathlib.Path]) -> dict[str, set[tuple[pathlib.Path, int]]]:
    """Word → {(file, line)} of each name, attribute and string word in
    ``paths`` (every word of a non-Python file); ``__all__`` lists and
    docstrings skipped."""
    refs: dict[str, set[tuple[pathlib.Path, int]]] = {}

    def add(word: str, path: pathlib.Path, line: int) -> None:
        refs.setdefault(word, set()).add((path, line))

    for path in sorted(paths):
        text = path.read_text(errors="replace")
        if path.suffix != ".py":
            for line, row in enumerate(text.splitlines(), 1):
                for word in _WORD.findall(row):
                    add(word, path, line)
            continue
        tree = ast.parse(text, filename=str(path))
        docstrings = {
            id(node.body[0]) for node in ast.walk(tree)
            if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None
        }
        stack = [tree]
        while stack:
            node = stack.pop()
            if _exports(node) or id(node) in docstrings:
                continue
            if isinstance(node, ast.Name):
                add(node.id, path, node.lineno)
            elif isinstance(node, ast.Attribute):
                add(node.attr, path, node.lineno)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                for word in _WORD.findall(node.value):
                    add(word, path, node.lineno)
            stack.extend(ast.iter_child_nodes(node))
    return refs


#: directories no use is read from: tests, and ignored run output
_NOT_A_USE = {"tests", ".git", "out"}


def use_files(repo: pathlib.Path = REPO) -> list[pathlib.Path]:
    """Where a use counts: code under ``USE_ROOTS`` (this gate's own table
    excepted) and the repo's XML/JSON files, none under ``_NOT_A_USE``."""
    files = [path for root in USE_ROOTS for path in (repo / root).rglob("*.py")]
    files += [path for pattern in ("*.xml", "*.json") for path in repo.rglob(pattern)]
    return [
        path for path in files
        if path != pathlib.Path(__file__).resolve()
        and not _NOT_A_USE & set(path.relative_to(repo).parts)
    ]


def orphan_names(src_paths: list[pathlib.Path], use_paths: list[pathlib.Path]) -> list[str]:
    """Public top-level constants and method-less classes of
    ``src_paths`` no file of ``use_paths`` references, by name or
    registry name, outside the name's own definition."""
    refs = references(use_paths)

    def used(name: str, spans) -> bool:
        words = {name} | {alias for *_, alias in spans if alias}
        return any(
            not any(path == own and first <= line <= last for own, first, last, _ in spans)
            for word in words
            for path, line in refs.get(word, ())
        )

    return sorted(
        name for name, spans in public_definitions(src_paths).items()
        if not used(name, spans)
    )


#: where an unused import is a finding
IMPORT_ROOTS = ("src", "tests", "tools", "examples")


def _read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads: loads, attribute bases, argument
    names (a pytest fixture is requested by one) and the names inside
    string annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
            if isinstance(node.annotation, ast.Constant):
                names |= _annotation_names(node.annotation.value)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.AnnAssign)):
            note = node.returns if not isinstance(node, ast.AnnAssign) else node.annotation
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                names |= _annotation_names(note.value)
    return names


def _annotation_names(text: str) -> set[str]:
    try:
        expr = ast.parse(text, mode="eval")
    except SyntaxError:
        return set()
    return {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}


def unused_imports(paths: list[pathlib.Path], root: pathlib.Path = REPO) -> list[str]:
    """``path:line: name`` for each top-level import its module never
    reads; ``__init__`` re-exports, ``__future__`` and ``# noqa: F401``
    lines excepted.  A ``# noqa: F401`` on an import whose names are all
    read is a finding too."""
    found = []
    for path in sorted(paths):
        if path.name == "__init__.py":
            continue
        text = path.read_text()
        tree = ast.parse(text, filename=str(path))
        lines = text.splitlines()
        read = _read_names(tree)
        exported = {
            elt.value for node in tree.body if _exports(node)
            for elt in getattr(node.value, "elts", ()) if isinstance(elt, ast.Constant)
        }
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            bound = [a.asname or a.name.partition(".")[0] for a in node.names]
            unused = [b for b in bound if b not in read and b not in exported]
            where = f"{path.relative_to(root)}:{node.lineno}: "
            span = lines[node.lineno - 1:node.end_lineno]
            if any("noqa: F401" in line for line in span):
                # A stale marker would hide the next unused import here.
                if not unused:
                    found.append(
                        where + "noqa: F401 on an import whose names are all read"
                    )
                continue
            found += [where + f"{b} imported but unused" for b in unused]
    return found


def import_files(repo: pathlib.Path = REPO) -> list[pathlib.Path]:
    return [path for top in IMPORT_ROOTS for path in (repo / top).rglob("*.py")]


def main() -> int:
    files = list((SRC / "repro").rglob("*.py"))
    if not files:
        print("check_layering: no sources found under src/repro", file=sys.stderr)
        return 1
    violations = check(files)
    found = orphans(files)
    violations += [f"{m}: orphan module — no other module imports it"
                   for m in found if m not in AWAITING_DELETION]
    violations += [f"{m}: listed in AWAITING_DELETION but not an orphan"
                   for m in AWAITING_DELETION if m not in found]
    violations += [f"{n}: public constant or method-less class only tests reach — "
                   "delete it" for n in orphan_names(files, use_files())]
    violations += unused_imports(import_files())
    for line in violations:
        print(line)
    if violations:
        print(f"layering check FAILED: {len(violations)} violation(s)",
              file=sys.stderr)
        return 1
    print(f"layering check passed ({len(files)} modules, {len(RULES)} rules, "
          f"third-party imports within {THIRD_PARTY}, "
          f"{len(found)} orphan(s) awaiting deletion, "
          f"no test-only constant or marker class, no unused import)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
