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
* ``repro.service.policies`` must not import
  ``repro.service.controller`` — policies talk to the controller only
  through the :class:`DispatchContext` services handed to them, never
  by reaching into controller internals;
* ``repro.faults`` must not import ``repro.service`` — compute-fault
  models are planted in the neutral ``Transport.compute_faults``
  mapping and polled duck-typed by the worker, so the integrity hooks
  flow one way (service reads faults' artefacts, never vice versa);
* ``repro.mobility`` must not import ``repro.service`` — the module
  cache/repository are pure transport; replica *placement* (who gets
  pre-seeded) is a service-layer policy decision fed to mobility only
  through protocol messages.

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
"""

from __future__ import annotations

import ast
import pathlib
import sys
from dataclasses import dataclass

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src"

@dataclass(frozen=True)
class Rule:
    """``scope`` may not import ``forbid``; or, of ``repro``, only ``allow``."""

    scope: str
    why: str
    forbid: tuple[str, ...] = ()
    allow: tuple[str, ...] | None = None

    def rejects(self, module: str, target: str) -> bool:
        if not _within(module, (self.scope,)):
            return False
        if self.allow is not None:
            return _within(target, ("repro",)) and not _within(target, self.allow)
        return _within(target, self.forbid)


def _within(name: str, prefixes: tuple[str, ...]) -> bool:
    return any(name == p or name.startswith(p + ".") for p in prefixes)


RULES: tuple[Rule, ...] = (
    Rule("repro.registry", "the registry base is a leaf module", allow=()),
    Rule("repro.simkernel", "simkernel is the foundation layer",
         allow=("repro.simkernel", "repro.observe.tracer")),
    Rule("repro.core", "core must stay grid-free",
         forbid=("repro.service", "repro.p2p", "repro.transport")),
    Rule("repro.p2p", "the socket backend sits above p2p and imports downwards",
         forbid=("repro.transport",)),
    Rule("repro.transport",
         "transport carries service and module frames without knowing them",
         forbid=("repro.service", "repro.mobility")),
    Rule("repro.service.policies",
         "policies must use DispatchContext, not controller internals",
         forbid=("repro.service.controller",)),
    Rule("repro.faults",
         "faults must not import service (integrity hooks flow one way)",
         forbid=("repro.service",)),
    Rule("repro.mobility",
         "placement logic stays in the service layer (mobility is transport)",
         forbid=("repro.service",)),
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

#: orphans ISSUE 18 names whose tests exceed one PR's removed-test
#: allowance (CHANGES.md, PR 18); an entry leaves with its module
AWAITING_DELETION = ("repro.core.introspect", "repro.p2p.webservice")


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
    for line in violations:
        print(line)
    if violations:
        print(f"layering check FAILED: {len(violations)} violation(s)",
              file=sys.stderr)
        return 1
    print(f"layering check passed ({len(files)} modules, {len(RULES)} rules, "
          f"third-party imports within {THIRD_PARTY}, "
          f"{len(found)} orphan(s) awaiting deletion)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
