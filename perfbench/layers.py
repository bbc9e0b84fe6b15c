"""Per-layer timing from the benchmark's side of the package boundary.

``install(stats)`` replaces public functions of the matchinv modules with
wrappers that count calls, add up wall time and count calls cut off by
the per-operation deadline.  ``overhead_s(stats)`` estimates the time
the wrappers themselves added.  Each wrapper is bound in every matchinv
module that refers to the original, so calls between modules are timed
too.  Calls a module makes to its own helpers by other names are not
seen: tracing inside the program is a separate change.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
import time

from common import DeadlineExceeded

# module -> public functions whose calls are timed
TARGETS = {
    "graph": ("graph6_decode", "graph6_encode"),
    "matching": ("match_number", "min_match_number", "ind_match_number"),
    "families": ("build_family",),
    "realizability": ("feasible_set", "witness_spec"),
    "regularity": ("regularity",),
    "verifier": ("scan_invariants", "enumerate_connected"),
}


class LayerStats:
    """Calls, seconds and deadline hits for one traced function.

    For a generator function, ``items`` counts the values it yielded.
    """

    __slots__ = ("calls", "seconds", "deadline_hits", "items")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.deadline_hits = 0
        self.items = 0


def _wrap(fn, rec: LayerStats):
    if inspect.isgeneratorfunction(fn):
        def gen_wrapper(*args, **kwargs):
            rec.calls += 1
            it = fn(*args, **kwargs)
            while True:
                t0 = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    rec.seconds += time.perf_counter() - t0
                rec.items += 1
                yield item
        return gen_wrapper

    def wrapper(*args, **kwargs):
        rec.calls += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except DeadlineExceeded:
            rec.deadline_hits += 1
            raise
        finally:
            rec.seconds += time.perf_counter() - t0
    return wrapper


def install(stats: dict[str, LayerStats]) -> None:
    """Wrap every target; ``stats`` gets one entry per ``module.function``."""
    package = importlib.import_module("matchinv")
    modules = [package] + [importlib.import_module(f"matchinv.{m}") for m in TARGETS]
    modules += [importlib.import_module("matchinv.cli")]
    for mod_name, names in TARGETS.items():
        home = sys.modules[f"matchinv.{mod_name}"]
        for name in names:
            original = getattr(home, name)
            rec = stats.setdefault(f"{mod_name}.{name}", LayerStats())
            wrapper = _wrap(original, rec)
            for mod in modules:
                if getattr(mod, name, None) is original:
                    setattr(mod, name, wrapper)


def _noop():
    return None


def _count_to(k):
    yield from range(k)


def _per_use_s(plain, wrapped, uses: int, samples: int) -> float:
    """Median extra seconds per use of ``wrapped()`` over ``plain()``."""
    diffs = []
    for _ in range(samples):
        t0 = time.perf_counter()
        plain()
        t1 = time.perf_counter()
        wrapped()
        t2 = time.perf_counter()
        diffs.append((t2 - t1) - (t1 - t0))
    return statistics.median(diffs) / uses


def overhead_s(stats: dict[str, LayerStats], uses: int = 50_000, samples: int = 7) -> float:
    """Seconds the wrappers added to the calls recorded in ``stats``.

    The cost of one wrapped call (one yielded item for a generator) over
    a plain one, measured here on a function that does nothing, times the
    calls (items) recorded.
    """
    call = _wrap(_noop, LayerStats())
    per_call = _per_use_s(lambda: [_noop() for _ in range(uses)],
                          lambda: [call() for _ in range(uses)], uses, samples)
    gen = _wrap(_count_to, LayerStats())
    per_item = _per_use_s(lambda: sum(1 for _ in _count_to(uses)),
                          lambda: sum(1 for _ in gen(uses)), uses, samples)
    return sum(rec.items * per_item if rec.items else rec.calls * per_call
               for rec in stats.values())
