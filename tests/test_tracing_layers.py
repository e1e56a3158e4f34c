"""The benchmark's tracer (``perfbench/tracing.py``) wraps every function its
``LAYERS`` table names, looking each up on its ``dualq`` module (a method on
its class); a name that no longer resolves stops a traced run midway, so
each is checked here against the package."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for layer, names in tracing.LAYERS.items():
        home = importlib.import_module(f"dualq.{layer}")
        for name in names:
            owner, _, attr = name.rpartition(".")
            where = vars(getattr(home, owner)) if owner else vars(home)
            if not callable(where.get(attr)):
                missing.append(f"{layer}.{name}")
    assert missing == []
