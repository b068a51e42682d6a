"""The import-layering rule as a tier-1 test (make layers runs the
same check standalone): repro.search must never import the plugin
layers that attach through its seams."""

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).parent.parent.parent
CHECKER = REPO_ROOT / "tools" / "check_layers.py"


def test_search_core_imports_no_plugin_layers():
    completed = subprocess.run(
        [sys.executable, str(CHECKER)],
        capture_output=True,
        text=True,
    )
    assert completed.returncode == 0, (
        f"layering check failed:\n{completed.stdout}{completed.stderr}"
    )


def test_search_globals_reference_no_plugin_objects():
    """Dynamic counterpart of the static check: nothing bound in a
    repro.search module namespace may originate from a plugin layer
    (catches indirect acquisition the AST walk cannot see)."""
    import importlib
    import pkgutil
    import types

    import repro.search

    forbidden = ("repro.obs", "repro.core.checkpoint")
    offenders = []
    for info in pkgutil.iter_modules(repro.search.__path__):
        module = importlib.import_module(f"repro.search.{info.name}")
        for name, value in vars(module).items():
            if isinstance(value, types.ModuleType):
                origin = value.__name__
            else:
                origin = getattr(value, "__module__", "") or ""
            if origin.startswith(forbidden):
                offenders.append(f"{module.__name__}.{name} <- {origin}")
    assert not offenders, "\n".join(offenders)
