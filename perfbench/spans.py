"""In-memory span recorder for the traced benchmark run.

Spans are recorded only in the benchmark's own files, around each call
into a layer's public function. A span is ``[name, start, end, parent,
request]``: ``parent`` is the index of the enclosing span (-1 at top
level) and ``request`` the id of the request or cycle it belongs to.
The layer is the part of ``name`` before the first dot.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans: list[list] = []
        self.request = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        rec = [name, time.perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1, self.request]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def top_level_s(self) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[3] == -1)

    def self_s_by_layer(self) -> dict[str, float]:
        """Each span's duration minus its direct children's, summed per
        layer. Spans nest strictly (one client thread), so children never
        overlap one another."""
        child = defaultdict(float)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        out: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            out[s[0].split(".", 1)[0]] += (s[2] - s[1]) - child[i]
        return dict(out)

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "request"],
                       "spans": self.spans}, f)
