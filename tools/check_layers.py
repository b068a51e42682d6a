#!/usr/bin/env python3
"""Import-layering check for the search core.

``repro.search`` is the dependency-light center of the architecture:
the observability layer and the checkpoint subsystem plug into it
through the ``SearchHooks`` seam, never the other way around.  This script walks the package's
import statements (AST-level, so conditional and function-local
imports count too) and fails when a search module reaches *up* into a
plugin layer.

Run via ``make layers``; CI runs it on every push.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SEARCH_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro" / "search"

FORBIDDEN_PREFIXES = (
    "repro.obs",
    "repro.core.checkpoint",
)
"""Plugin layers the search core must never import.  Each attaches
through a seam instead: tracing through ``SearchHooks.span``,
checkpointing through ``resume_state``/``on_boundary`` (one resume
point and one boundary type for every strategy)."""

ALLOWED_PREFIXES = (
    "repro.search",
    "repro.partition",
    "repro.model",
    "repro._bitset",
    "repro.exceptions",
    "repro.testing",
    "repro.core.lattice",
)
"""Layers below (or beside) the search core.  Anything in ``repro.*``
outside this list is also an error, so a new coupling must be added
here deliberately."""

ENGINE_MODULES = ("repro.search.driver", "repro.search.scheduler")
"""The engine side of the search core: the driver and the one search
loop.  The loop runs every strategy step by step and owns what all of
them share — bootstrap, resume, fault checks, step spans, boundaries;
a strategy (listed in :data:`STRATEGY_SIDE`) runs its own steps
through the driver object it is handed.  A strategy importing the
engine modules would invert that: strategies plug into the loop, so
the loop can run any strategy and a new traversal needs no new
loop."""

STRATEGY_SIDE = ("strategy.py", "dfd.py", "hooks.py", "tracker.py")
"""Search modules that must never import the engine modules."""


def _is_type_checking_guard(node: ast.AST) -> bool:
    """Is this an ``if TYPE_CHECKING:`` block (typing-only imports)?"""
    if not isinstance(node, ast.If):
        return False
    test = node.test
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def imported_modules(tree: ast.AST):
    """Yield ``(lineno, module_name)`` for every runtime import in ``tree``.

    Imports under ``if TYPE_CHECKING:`` are skipped — they exist only
    for annotations and create no runtime dependency (the driver and
    its strategies reference each other's *types* across the seam
    without importing across it).
    """
    stack = list(ast.iter_child_nodes(tree))
    while stack:
        node = stack.pop()
        if _is_type_checking_guard(node):
            stack.extend(node.orelse)
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            # Relative imports (level > 0) stay inside repro.search.
            if node.module is not None:
                yield node.lineno, node.module
        else:
            stack.extend(ast.iter_child_nodes(node))


def check_file(path: Path) -> list[str]:
    """Layering violations in one module, as report lines."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    problems = []
    for lineno, module in imported_modules(tree):
        if not module.startswith("repro"):
            continue
        if any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in FORBIDDEN_PREFIXES
        ):
            problems.append(
                f"{path}:{lineno}: imports plugin layer '{module}' "
                f"(plugins depend on repro.search, never the reverse)"
            )
        elif module != "repro" and not any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in ALLOWED_PREFIXES
        ):
            problems.append(
                f"{path}:{lineno}: imports '{module}', which is not on the "
                f"search core's allowlist ({', '.join(ALLOWED_PREFIXES)})"
            )
        elif path.name in STRATEGY_SIDE and any(
            module == engine or module.startswith(engine + ".")
            for engine in ENGINE_MODULES
        ):
            problems.append(
                f"{path}:{lineno}: strategy-side module imports engine "
                f"module '{module}' (strategies plug into the loop; only "
                f"the driver and the loop may import strategies)"
            )
    return problems


def main() -> int:
    files = sorted(SEARCH_PACKAGE.glob("*.py"))
    if not files:
        print(f"check_layers: no modules found under {SEARCH_PACKAGE}", file=sys.stderr)
        return 2
    problems = []
    for path in files:
        problems.extend(check_file(path))
    if problems:
        print("\n".join(problems), file=sys.stderr)
        print(f"check_layers: {len(problems)} layering violation(s)", file=sys.stderr)
        return 1
    print(f"check_layers: {len(files)} modules clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
