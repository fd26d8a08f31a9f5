"""Spans around the package's layer functions, installed from outside the package.

The package modules import each other's functions by name, so a function is
wrapped by replacing every ``cyclolog.*`` module binding of it (and, for a
method, the class attribute).  :meth:`Tracer.restore` puts the originals back.

Each call records a span ``[name, parent, start_ns, end_ns]`` in memory; the
parent is the span open when the call began.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

# span name -> (module, attribute) of the function it times
LAYER_FUNCTIONS: Dict[str, Tuple[str, str]] = {
    "kernel.log_2sin": ("cyclolog.kernel", "log_2sin_raw"),
    "kernel.classify_zero": ("cyclolog.kernel", "classify_zero"),
    "kernel.dec_str": ("cyclolog.kernel", "dec_str"),
    "characters.unit_root": ("cyclolog.characters", "unit_root"),
    "characters.fourier_transform": ("cyclolog.characters", "fourier_transform_raw"),
    "characters.enumerate_characters": ("cyclolog.characters", "enumerate_characters"),
    "lseries.digamma": ("cyclolog.lseries", "digamma_raw"),
    "lseries.l1_digamma": ("cyclolog.lseries", "l1_digamma_raw"),
    "lseries.l1_fourier": ("cyclolog.lseries", "l1_fourier_raw"),
    "lseries.decompose": ("cyclolog.lseries", "decompose_l1"),
    "lseries.l1_direct": ("cyclolog.lseries", "l1_direct_result"),
    "scans.trig_sums": ("cyclolog.scans", "trig_sums_raw"),
    "scans.scan": ("cyclolog.scans", "scan"),
    "dedekind.s_chi": ("cyclolog.dedekind", "s_chi_raw"),
    "dedekind.det_direct": ("cyclolog.dedekind", "det_direct_raw"),
    "relations.enumerate": ("cyclolog.relations", "enumerate_relations"),
    "relations.rational_rank": ("cyclolog.relations", "rational_rank"),
    "relations.verify": ("cyclolog.relations", "verify_relation"),
    "intrel.lll": ("cyclolog.intrel", "lll_reduce"),
    "intrel.find_relation": ("cyclolog.intrel", "find_integer_relation"),
    "cli.main": ("cyclolog.cli", "main"),
    "serialize.canonical_json": ("cyclolog.serialize", "canonical_json"),
}

RECOMPUTE_SPAN = "kernel.recompute"
STORE_WRITE_SPAN = "scans.store.write"
STORE_VERIFY_SPAN = "scans.store.verify"


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._restore: List[Tuple[object, str, object]] = []

    def _call(self, name: str, fn: Callable, args, kwargs):
        """Run ``fn`` inside a span; return (result, span index)."""
        idx = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1, time.perf_counter_ns(), 0])
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs), idx
        finally:
            self._stack.pop()
            self.spans[idx][3] = time.perf_counter_ns()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)[0]

        return traced

    def _wrap_classify(self, fn: Callable) -> Callable:
        """classify_zero, with its ``recompute`` callback timed as a span of its own."""

        @functools.wraps(fn)
        def traced(x, target, recompute=None):
            if recompute is not None:
                recompute = self._wrap(RECOMPUTE_SPAN, recompute)
            return self._call("kernel.classify_zero", fn, (x, target, recompute), {})[0]

        return traced

    def _wrap_merge(self, fn: Callable) -> Callable:
        """ScanStore.merge, named by what it did: appended records, or only verified them."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            appended, idx = self._call(STORE_WRITE_SPAN, fn, args, kwargs)
            if not appended:
                self.spans[idx][0] = STORE_VERIFY_SPAN
            return appended

        return traced

    def install(self) -> None:
        """Replace every ``cyclolog.*`` binding of each layer function by its traced wrapper."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "cyclolog" or n.startswith("cyclolog.")]
        for name, (module, attr) in LAYER_FUNCTIONS.items():
            original = getattr(sys.modules[module], attr)
            if name == "kernel.classify_zero":
                wrapper = self._wrap_classify(original)
            else:
                wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, wrapper)
        store_cls = sys.modules["cyclolog.scans"].ScanStore
        self._replace(store_cls, "merge", self._wrap_merge(store_cls.merge))

    def _replace(self, owner, key: str, value) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def restore(self) -> None:
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count and summed self time in seconds."""
        child_ns = [0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: Dict[str, Dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for (name, parent, start, end), children in zip(self.spans, child_ns):
            out[name]["calls"] += 1
            out[name]["self_s"] += (end - start - children) / 1e9
        return dict(out)


def lru_cache_entries() -> int:
    """Total current size of every functools LRU cache bound in a ``cyclolog.*`` module."""
    seen = {}
    for name, mod in list(sys.modules.items()):
        if name == "cyclolog" or name.startswith("cyclolog."):
            for value in vars(mod).values():
                if callable(getattr(value, "cache_info", None)):
                    seen[id(value)] = value.cache_info().currsize
    return sum(seen.values())
