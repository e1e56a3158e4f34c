"""Every name a ``dualq`` module exports resolves, and the package imports
only exported names, so a deleted function cannot leave a stale export."""

import ast
import importlib
import pkgutil
from pathlib import Path

import dualq

INIT = Path(dualq.__file__)


def test_every_exported_name_resolves():
    missing = []
    for info in pkgutil.iter_modules(dualq.__path__):
        if info.name == "__main__":  # runs the CLI on import
            continue
        module = importlib.import_module(f"dualq.{info.name}")
        missing += [f"{info.name}.{name}" for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert missing == []


def test_the_package_imports_only_exported_names():
    stray = []
    for node in ast.walk(ast.parse(INIT.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"dualq.{node.module}")
            stray += [f"{node.module}.{alias.name}" for alias in node.names
                      if alias.name not in module.__all__]
    assert stray == []
