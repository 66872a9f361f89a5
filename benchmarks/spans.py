"""In-memory spans recorded at the benchmark's own call sites.

A span is (name, start, end, parent, op): `parent` is the index of the
enclosing span (or -1) and `op` the id of the operation it belongs to (or
-1).  Spans stay in a list while the benchmark runs and are written out
once, at the end.  Untraced passes use `NullTracer`, whose spans cost one
shared no-op context manager.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import os
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, op: int = -1):
        rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time its child spans cover."""
        out: dict[str, float] = {}
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def write(self, path: str):
        """Write every span as one JSON line, times relative to the first."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start": start - t0, "end": end - t0,
                     "parent": parent, "op": op}
                ) + "\n")


class NullTracer:
    _null = contextlib.nullcontext()

    def span(self, name: str, op: int = -1):
        return self._null
