"""No matchinv module holds mutable state at module level.

A module-level dict, list, set or bytearray is a cache or a registry
that outlives the call that filled it, so results could depend on what
ran before.  Dunder names (``__builtins__``, ``__path__``) belong to the
import system and are not checked.
"""

import importlib
import pkgutil

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
