"""No matchinv module holds mutable state at module level.

A module-level dict, list, set or bytearray is a cache or a registry
that outlives the call that filled it, so results could depend on what
ran before.  Dunder names (``__builtins__``, ``__path__``) belong to the
import system and are not checked.

Importing the package and its CLI loads no numpy: only the verifiers
need it, and they load on first use.

The package's public names are pinned, and every one of them but a
listed few must be read by package code, as must every module-level
private function and every method, so a helper that only the tests use,
or that a deletion left behind, cannot stay in ``src/`` unnoticed.
"""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import matchinv

MUTABLE = (dict, list, set, bytearray)


def test_no_module_holds_mutable_state():
    names = [f"matchinv.{info.name}" for info in pkgutil.iter_modules(matchinv.__path__)
             if info.name != "__main__"]
    assert "matchinv.verifier" in names
    held = sorted(f"{name}.{attr}" for name in ["matchinv", *names]
                  for attr, value in vars(importlib.import_module(name)).items()
                  if not attr.startswith("__") and isinstance(value, MUTABLE))
    assert held == []


def test_numpy_loads_only_for_verify():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, matchinv, matchinv.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "False"
    assert matchinv.verify_av is importlib.import_module("matchinv.verifier").verify_av


def test_lazy_verifier_exports_resolve():
    verifier = importlib.import_module("matchinv.verifier")
    for name in matchinv._VERIFIER_NAMES:
        assert matchinv.__getattr__(name) is getattr(verifier, name)
    with pytest.raises(AttributeError):
        getattr(matchinv, "no_such_name")


PUBLIC_NAMES = [
    "FAMILY_NAMES", "FamilySpec", "Graph", "InvariantTriple", "REASONS", "RegularityResult",
    "TupleQuery", "WitnessReport", "block_labels", "build_family", "feasible_set", "from_edge_list",
    "graph6_decode", "graph6_encode", "ind_match_number", "invariant_triple", "is_chordal",
    "is_connected", "is_feasible", "match_number", "min_match_number", "parse_family_spec",
    "path_graph", "predict_invariants", "reduced_homology_ranks", "regularity",
    "synthesize_witness", "to_dot", "witness_spec"]

# public names that no package module reads, each with the reason it stays
NO_PACKAGE_CALLER = {
    "path_graph": "perfbench/test_perfbench.py calls matchinv.path_graph",
}


def test_public_names_are_pinned():
    public = sorted(name for name, value in vars(matchinv).items()
                    if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert public == PUBLIC_NAMES


PACKAGE_FILES = tuple(sorted(Path(matchinv.__file__).parent.glob("*.py")))


def package_reads(bare=True):
    """The names that a module other than ``__init__`` reads as an
    attribute, and with ``bare`` also as a bare name; an import or a
    definition alone does not count."""
    read = set()
    for path in PACKAGE_FILES:
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if bare and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
    return read


def test_every_public_name_has_a_package_caller():
    uncalled = sorted(set(PUBLIC_NAMES) - package_reads())
    assert uncalled == sorted(NO_PACKAGE_CALLER)


def test_every_private_function_has_a_package_caller():
    # a module-level ``def _name`` that no package code reads is a helper
    # left behind by a deletion, or one that only the tests call; dunders
    # such as ``__getattr__`` are called by the interpreter
    read = package_reads()
    uncalled = sorted(f"{path.name}:{node.name}" for path in PACKAGE_FILES
                      for node in ast.parse(path.read_text()).body
                      if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
                      and not node.name.startswith("__") and node.name not in read)
    assert uncalled == []


def test_every_method_has_a_package_reader():
    # a method or property that no package code reads serves only the
    # tests; dunders are called by the interpreter.  A method is reached
    # only as an attribute, so only attribute reads count.  The check goes
    # by name, so a method passes when package code reads that name as any
    # attribute, even another class's method of the same name
    read = package_reads(bare=False)
    unread = sorted(f"{path.name}:{cls.name}.{node.name}" for path in PACKAGE_FILES
                    for cls in ast.walk(ast.parse(path.read_text()))
                    if isinstance(cls, ast.ClassDef)
                    for node in cls.body if isinstance(node, ast.FunctionDef)
                    and not node.name.startswith("__") and node.name not in read)
    assert unread == []


def test_only_the_cli_writes_json():
    # library results are values; their JSON text is the output format of
    # the matchinv commands, so only cli.py imports json, and no package
    # class has a to_json... method
    trees = {path.name: ast.parse(path.read_text()) for path in PACKAGE_FILES}
    importers = sorted(name for name, tree in trees.items() for node in ast.walk(tree)
                       if (isinstance(node, ast.Import)
                           and any(alias.name == "json" for alias in node.names))
                       or (isinstance(node, ast.ImportFrom) and node.module == "json"))
    assert importers == ["cli.py"]
    methods = sorted(f"{name}:{cls.name}.{node.name}" for name, tree in trees.items()
                     for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                     for node in cls.body if isinstance(node, ast.FunctionDef)
                     and node.name.startswith("to_json"))
    assert methods == []
