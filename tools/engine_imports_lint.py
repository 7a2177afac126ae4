#!/usr/bin/env python3
"""Layer import linter run by CI (and locally: ``python tools/engine_imports_lint.py``).

It guards both directions of the engine/domain split.

``repro.engine`` is the generic campaign engine: tasks, the scheduler,
backends, cache, telemetry, traces, the ``Pipeline`` API and the stage
registry *mechanism*.  It knows nothing about ADCs or defects -- the
SymBIST stage kinds and the study compiler live in ``repro.studies``, on
top of it.  An engine module importing ``repro.adc``/``core``/``defects``/
``analysis``/``dut`` (or ``repro.studies``) would quietly re-couple the two
layers, so this linter parses every ``src/repro/engine/*.py`` with
:mod:`ast` and checks every import statement -- module-level and
function-local alike, absolute and relative:

* an engine module may import from ``repro`` only ``repro.engine.*``,
  ``repro.circuit.errors`` and ``repro.__version__``;
* ``__init__.py`` may additionally reference ``repro.studies`` (the lazy
  hook serving the frozen benchmark harness);
* ``cli.py`` -- the ``repro-campaign`` application entry point, which
  drives every layer -- is exempt.

The domain layers -- ``repro.adc``, ``core``, ``defects``, ``analysis`` and
``functional_test`` -- are plain loops over plain values; ``repro.studies``
is the only layer that turns them into task graphs.  A domain module may
import nothing from ``repro.engine`` or ``repro.studies`` (checked the same
way, every ``.py`` file of each package).

Exits non-zero with one ``file:line`` per offence.
"""

from __future__ import annotations

import ast
import os
import sys
from typing import Callable, Iterator, List, Optional

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENGINE_DIR = os.path.join("src", "repro", "engine")
PACKAGE = "repro.engine"

EXEMPT = {"cli.py"}
ALLOWED = ("repro.engine", "repro.circuit.errors", "repro.__version__")
INIT_ALLOWED = ALLOWED + ("repro.studies",)

DOMAIN_PACKAGES = ("adc", "core", "defects", "analysis", "functional_test")
DOMAIN_FORBIDDEN = ("repro.engine", "repro.studies")


def _covered(target: str, allowed: tuple) -> bool:
    return any(target == prefix or target.startswith(prefix + ".")
               for prefix in allowed)


def _resolve(node: ast.ImportFrom, package: str) -> Optional[str]:
    """Absolute module of a ``from ... import`` (relative ones resolved
    against ``package``); None when it climbs above the top level."""
    if not node.level:
        return node.module
    parts = package.split(".")
    if node.level > len(parts):
        return None
    base = parts[:len(parts) - node.level + 1]
    return ".".join(base + ([node.module] if node.module else []))


def imported_targets(tree: ast.AST, package: str) -> Iterator[tuple]:
    """``(line, dotted target)`` for every import in the tree.  A
    ``from M import a, b`` yields ``M.a`` and ``M.b``, so importing a
    submodule or a name (``from .. import __version__``) is checked as
    what it reaches."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            module = _resolve(node, package)
            if module is None:
                yield node.lineno, "." * node.level + (node.module or "")
                continue
            for alias in node.names:
                yield node.lineno, f"{module}.{alias.name}"


def _engine_offence(target: str, name: str) -> Optional[str]:
    allowed = INIT_ALLOWED if name == "__init__.py" else ALLOWED
    if _covered(target, allowed):
        return None
    return f"engine imports {target}; only {', '.join(allowed)} allowed"


def _domain_offence(target: str, name: str) -> Optional[str]:
    if not _covered(target, DOMAIN_FORBIDDEN):
        return None
    return (f"domain layer imports {target}; "
            f"{' and '.join(DOMAIN_FORBIDDEN)} are off limits")


def lint_file(path: str, rel_path: str, package: str = PACKAGE,
              offence: Callable[[str, str], Optional[str]] = _engine_offence
              ) -> List[str]:
    """Offences of one module of ``package``, as judged by ``offence``."""
    name = os.path.basename(path)
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=rel_path)
    problems = []
    for lineno, target in imported_targets(tree, package):
        top = target.lstrip(".").split(".")[0]
        if top != "repro" and not target.startswith("."):
            continue  # stdlib / third party
        problem = offence(target, name)
        if problem is not None:
            problems.append(f"{rel_path}:{lineno}: {problem}")
    return problems


def lint_tree(root: str) -> "tuple[List[str], int]":
    """Lint ``root``'s engine package and domain packages; ``(offences,
    files checked)``."""
    engine_dir = os.path.join(root, ENGINE_DIR)
    if not os.path.isdir(engine_dir):
        return [f"missing engine package: {ENGINE_DIR}"], 0
    problems: List[str] = []
    checked = 0
    for name in sorted(os.listdir(engine_dir)):
        if not name.endswith(".py") or name in EXEMPT:
            continue
        path = os.path.join(engine_dir, name)
        problems.extend(lint_file(path, os.path.relpath(path, root)))
        checked += 1
    src = os.path.join(root, "src")
    for domain in DOMAIN_PACKAGES:
        for dirpath, dirnames, filenames in os.walk(
                os.path.join(src, "repro", domain)):
            dirnames.sort()
            package = os.path.relpath(dirpath, src).replace(os.sep, ".")
            for name in sorted(filenames):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                problems.extend(lint_file(path, os.path.relpath(path, root),
                                          package, _domain_offence))
                checked += 1
    return problems, checked


def main() -> int:
    problems, checked = lint_tree(REPO_ROOT)
    for problem in problems:
        print(f"engine-imports-lint: {problem}", file=sys.stderr)
    if not problems:
        print(f"engine-imports-lint: {checked} files ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
