"""Per-function span accounting for one traced benchmark call.

Only the traced child imports this module.  `Tracer.install` replaces, in
the namespaces of `mcmccdma.harness` and `mcmccdma.receiver`, every function
whose `__module__` is one of the traced simulator modules, so functions a
later refactor imports there are covered without editing this file.  Pool
workers forked from the traced process inherit the wrappers but keep their
spans to themselves, so the traced calls run at one worker.

For each function the tracer keeps calls, total time and self time (total
minus the time of traced calls made inside it).  A span that starts before
the first `draw_channel` call is counted as setup.  The root span is the
public call itself; its self time is the harness's own share.
"""

from __future__ import annotations

import inspect
import time
from contextlib import contextmanager

import numpy as np

TRACED_MODULES = ("codes", "txchain", "hpa", "channel", "receiver")
PATCHED_MODULES = ("harness", "receiver")

# Extra counts taken at the span boundary: what each call processed.
_ROWS_OUT = {"receiver.correlate_slots"}


def _samples_in(args) -> int:
    """Sample count of the first positional argument (array or frame)."""
    if not args:
        return 0
    first = args[0]
    samples = getattr(first, "samples", first)
    return int(samples.size) if isinstance(samples, np.ndarray) else 0


class Tracer:
    def __init__(self):
        self.stats = {}           # "module.function" -> counters
        self._child_time = []     # stack of child-time accumulators
        self._in_setup = True
        self.root_total = 0.0
        self.root_self = 0.0

    def install(self, package) -> None:
        prefix = package.__name__ + "."
        traced = {prefix + name for name in TRACED_MODULES}
        for name in PATCHED_MODULES:
            namespace = vars(getattr(package, name))
            for attr, obj in list(namespace.items()):
                if inspect.isfunction(obj) and obj.__module__ in traced:
                    namespace[attr] = self._wrap(obj, obj.__module__[len(prefix):])

    def _wrap(self, fn, module: str):
        key = f"{module}.{fn.__name__}"
        entry = self.stats.setdefault(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                            "setup_self_s": 0.0, "samples_in": 0,
                                            "rows_out": 0})
        starts_blocks = fn.__name__ == "draw_channel"
        count_rows = key in _ROWS_OUT
        stack = self._child_time

        def traced(*args, **kwargs):
            if starts_blocks:
                self._in_setup = False
            in_setup = self._in_setup
            stack.append(0.0)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                own = elapsed - stack.pop()
                stack[-1] += elapsed
            entry["calls"] += 1
            entry["total_s"] += elapsed
            entry["self_s"] += own
            if in_setup:
                entry["setup_self_s"] += own
            entry["samples_in"] += _samples_in(args)
            if count_rows:
                entry["rows_out"] += int(result.shape[0])
            return result

        return traced

    @contextmanager
    def root(self):
        """Span around the public call; everything traced nests inside it."""
        self._child_time.append(0.0)
        started = time.perf_counter()
        try:
            yield
        finally:
            self.root_total = time.perf_counter() - started
            self.root_self = self.root_total - self._child_time.pop()

    def report(self) -> dict:
        return {"functions": {k: v for k, v in sorted(self.stats.items()) if v["calls"]},
                "root_total_s": self.root_total, "root_self_s": self.root_self}
