"""Every name a ``dualq`` module exports resolves, importing the package
loads none of its modules, and every public name has a caller outside the
tests or is a test oracle listed in :data:`ORACLES`.

A public name is a name in a module's ``__all__`` (``cli.main``, the command
line's entry, aside) or a public method or property of a class a module exports.
Its callers are the references to it in the package source, the demos and
the benchmark harness: for a module's name ``f``, a read of ``f``, an import
of it, or a read of ``module.f``; for a method or property, a read of the
attribute.  References inside the name's own def do not count.  A name the
benchmark's tracer wraps (``LAYERS`` in ``perfbench/tracing.py``) counts as
called: the tracer and the workloads reach the modules through strings,
which a name scan misses.

Methods and properties are matched by attribute name alone.  One named
like an attribute of a built-in container, ``str``, ``np.ndarray`` or
``np.random.Generator`` (:data:`COMMON`) counts as called only where the
attribute is called, ``.name(``: a read of numpy's ``.shape`` is no call of
``Tableau.shape``.  A call still hides an orphan of the same name, so an
array's ``.copy()`` would count as a call of an unused method ``copy``; and
a property named like one (none is today) would need a call to count.
"""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dualq
from dualq.queue_store import QueueTrace, workload_pair
from dualq.sampling import MarkedSequence
from dualq.tandem import ServiceMatrix, tandem_trace

ROOT = Path(__file__).resolve().parents[1]
CALLER_GLOBS = ("src/dualq/*.py", "demos/*.py", "perfbench/*.py")

# attribute names of objects the sources hold everywhere
COMMON = frozenset().union(*map(dir, (np.ndarray, list, tuple, dict, str, np.random.Generator)))

# public names that only the tests call, each with the reason it stays
ORACLES = {
    "rsk.Tableau.weight": "supplies the x^T terms when test_schur enumerates "
                          "tableaux to check schur_eval",
    "schur.ssyt_enumerate": "the enumeration oracle for ssyt_count and schur_eval",
}


def test_every_exported_name_resolves():
    missing = []
    for info in pkgutil.iter_modules(dualq.__path__):
        module = importlib.import_module(f"dualq.{info.name}")
        missing += [f"{info.name}.{name}" for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert missing == []


def test_importing_the_package_loads_none_of_its_modules():
    # each name is imported from its module; the package itself binds only
    # __version__, so it needs neither its modules nor numpy
    src = str(Path(dualq.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, dualq; print([m for m in sys.modules if m.startswith(('dualq.', 'numpy'))])"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout == "[]\n"


# --- the orphan scan -----------------------------------------------------------

def _sources() -> dict:
    """Path relative to the repository root -> source text, for every file
    whose references count as callers."""
    return {path.relative_to(ROOT).as_posix(): path.read_text()
            for pattern in CALLER_GLOBS for path in sorted(ROOT.glob(pattern))}


def _assigned(tree, name: str):
    """The literal value of the module-level assignment to ``name``, or None."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    return None


def _public_names(modules: dict) -> set:
    """``module.name`` for every name in a module's ``__all__`` and
    ``module.Class.attr`` for every public method or property of a class it
    exports; ``modules`` maps each module name to its parsed source."""
    names = set()
    for module, tree in modules.items():
        exported = set(_assigned(tree, "__all__") or ())
        names |= {f"{module}.{name}" for name in exported}
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name in exported:
                names |= {f"{module}.{node.name}.{f.name}" for f in node.body
                          if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")}
    return names - {"cli.main"}


class _References(ast.NodeVisitor):
    """The names (read or imported), the attributes (read, and called) and
    the ``name.attr`` pairs (read) of a source, leaving out what a def reads
    of its own name."""

    def __init__(self):
        self.names, self.attrs, self.calls, self.pairs, self.defs = set(), set(), set(), set(), []

    def visit_FunctionDef(self, node):
        self.defs.append(node.name)
        self.generic_visit(node)
        self.defs.pop()

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load) and node.id not in self.defs:
            self.names.add(node.id)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load) and node.attr not in self.defs:
            self.attrs.add(node.attr)
            if isinstance(node.value, ast.Name):
                self.pairs.add((node.value.id, node.attr))
        self.generic_visit(node)

    def visit_Call(self, node):
        if isinstance(node.func, ast.Attribute) and node.func.attr not in self.defs:
            self.calls.add(node.func.attr)
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        self.names.update(alias.name for alias in node.names)


def _audit(sources: dict) -> tuple:
    """(public names with no caller that :data:`ORACLES` lacks, entries of
    :data:`ORACLES` that are not such names) for ``sources``, as
    :func:`_sources` gives them."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    modules = {Path(path).stem: tree for path, tree in trees.items()
               if path.startswith("src/dualq/")}
    layers = _assigned(trees["perfbench/tracing.py"], "LAYERS")
    traced = {f"{layer}.{name}" for layer, names in layers.items() for name in names}
    names, attrs, calls, pairs = set(), set(), set(), set()
    for tree in trees.values():
        refs = _References()
        refs.visit(tree)
        names |= refs.names
        attrs |= refs.attrs
        calls |= refs.calls
        pairs |= refs.pairs
    orphans = set()
    for public in _public_names(modules) - traced:
        module, *owner, name = public.split(".")
        if owner:  # a method or property
            called = name in (calls if name in COMMON else attrs)
        else:
            called = name in names or (module, name) in pairs
        if not called:
            orphans.add(public)
    return orphans - ORACLES.keys(), ORACLES.keys() - orphans


def test_every_public_name_has_a_caller_or_is_a_listed_oracle():
    assert _audit(_sources()) == (set(), set())


def _with_unused_export(source: str) -> str:
    return source.replace("__all__ = [", '__all__ = ["unused", ', 1) + (
        "\n\ndef unused():\n    return unused()\n")  # a call of its own does not count


@pytest.mark.parametrize("module", sorted(
    p.stem for p in (ROOT / "src" / "dualq").glob("*.py")
    if "__all__" in p.read_text()))
def test_the_scan_reports_an_unused_export(module):
    sources = _sources()
    path = f"src/dualq/{module}.py"
    sources[path] = _with_unused_export(sources[path])
    assert _audit(sources) == ({f"{module}.unused"}, set())


def test_the_scan_reports_an_unused_method_of_an_exported_class():
    sources = _sources()
    sources["src/dualq/rsk.py"] = sources["src/dualq/rsk.py"].replace(
        "    def shape(self)", "    def unused(self):\n        return 0\n\n    def shape(self)", 1)
    assert _audit(sources) == ({"rsk.Tableau.unused"}, set())


def test_the_scan_counts_only_calls_of_a_method_named_like_a_common_attribute():
    # numpy's .shape reads are no call of Tableau.shape
    sources = {path: text.replace(".shape()", ".shape") for path, text in _sources().items()}
    assert _audit(sources) == ({"rsk.Tableau.shape"}, set())


def test_the_scan_reports_an_oracle_that_gained_a_caller():
    sources = _sources()
    sources["demos/03_tableau_identities.py"] += "\nssyt_enumerate((2, 1), 3)\n"
    assert _audit(sources) == (set(), {"schur.ssyt_enumerate"})


# --- the types that hold arrays ---------------------------------------------------

ARRAY_HOLDERS = {
    "QueueTrace": lambda: QueueTrace([0, 1], [1, 1]),
    "PiecewiseLinear": lambda: workload_pair(QueueTrace([0, 1], [1, 1]))[0],
    "MarkedSequence": lambda: MarkedSequence(np.array([1, 2]), np.array([1, 1]), 3),
    "ServiceMatrix": lambda: ServiceMatrix(np.array([[1, 2], [3, 4]])),
    "TandemTrace": lambda: tandem_trace(np.array([[1, 2], [3, 4]])),
}


@pytest.mark.parametrize("make", ARRAY_HOLDERS.values(), ids=ARRAY_HOLDERS.keys())
def test_a_type_that_holds_arrays_compares_and_hashes_by_identity(make):
    # a field-by-field == raised on the arrays' ambiguous truth value, and hash
    # on the arrays being unhashable
    x, twin = make(), make()
    assert x == x and not x != x
    assert x != twin and not x == twin
    assert hash(x) == hash(x)
    assert x in {x} and twin not in {x}
    assert len({x, twin, x}) == 2


# --- what the command line reads of the layers ----------------------------------

def _private_reads(source: str) -> set:
    """(module, name) for every private name of another ``dualq`` module
    that ``source``, a module of the package, imports or reads as
    ``module.name``."""
    modules = {path.stem for path in (ROOT / "src" / "dualq").glob("*.py")}
    reads = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            reads |= {(node.module, alias.name) for alias in node.names
                      if alias.name.startswith("_")}
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules and node.attr.startswith("_")
              and not node.attr.startswith("__")):
            reads.add((node.value.id, node.attr))
    return reads


def test_cli_reads_no_private_name_of_a_layer_but_the_particle_check():
    # each exact check's rules live in its own layer, behind one call:
    # rsk.verify_row_queue_batch and particles._broken_equivalences
    assert _private_reads((ROOT / "src" / "dualq" / "cli.py").read_text()) == {
        ("particles", "_broken_equivalences")}


def test_the_private_read_scan_sees_imports_and_attribute_reads():
    source = "from . import tandem\nfrom .rsk import _six_way, tableau_of\nx = tandem._rows_last\n"
    assert _private_reads(source) == {("rsk", "_six_way"), ("tandem", "_rows_last")}
