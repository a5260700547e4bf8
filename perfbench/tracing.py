"""Spans and counters recorded at the benchmark's call sites into `fel`.

A traced pass wraps each public function the workload calls, so a span
covers exactly one call into one layer.  Each operation of the workload
(a class pair, a request, a verdict) is the parent span of the layer
calls it makes.  Everything stays in memory until the pass ends.
"""

from __future__ import annotations

import gzip
import json
import math
import sys
import time
from array import array
from collections import defaultdict

clock = time.perf_counter

OP = "bench.op"


class Tracer:
    def __init__(self):
        self.names: list[str] = [OP]
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.request = array("l")
        self.counters: dict[str, float] = defaultdict(float)
        self._op = -1
        self._req = -1

    def _name(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _record(self, k: int, t0: float, t1: float, parent: int, req: int) -> int:
        self.name_id.append(k)
        self.start.append(t0)
        self.end.append(t1)
        self.parent.append(parent)
        self.request.append(req)
        return len(self.start) - 1

    def wrap(self, name: str, fn):
        """fn, recording a span under `name` around every call."""
        k = self._name(name)
        record = self._record

        def traced(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record(k, t0, clock(), self._op, self._req)

        return traced

    def open_op(self, req: int, t0: float) -> None:
        self._req = req
        self._op = self._record(0, t0, math.nan, -1, req)

    def close_op(self, t1: float) -> None:
        self.end[self._op] = t1
        self._op = -1

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self time).

        Self time is a span's duration minus the time its child spans
        cover; children of one span never overlap in a single thread.
        """
        n = len(self.start)
        covered = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        out: dict[str, list] = {}
        for i in range(n):
            name = self.names[self.name_id[i]]
            acc = out.setdefault(name, [0, 0.0])
            acc[0] += 1
            acc[1] += self.end[i] - self.start[i] - covered[i]
        return {k: (v[0], v[1]) for k, v in out.items()}

    def dump(self, path) -> None:
        """Write every span: a json header line, then the columns as raw arrays."""
        columns = [("name", self.name_id), ("start_s", self.start), ("end_s", self.end),
                   ("parent", self.parent), ("request", self.request)]
        header = {
            "names": self.names,
            "spans": len(self.start),
            "columns": [[name, col.typecode, col.itemsize] for name, col in columns],
            "byteorder": sys.byteorder,
            "counters": dict(self.counters),
        }
        with gzip.open(path, "wb", compresslevel=1) as f:
            f.write(json.dumps(header).encode() + b"\n")
            for _, col in columns:
                f.write(col.tobytes())
