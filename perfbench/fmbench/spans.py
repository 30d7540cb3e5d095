"""In-memory span recording for the traced benchmark run.

A span is one call through a wrapped layer boundary: its name, start
and end (``perf_counter_ns``), the index of the span that was open when
it started (its parent, ``-1`` at top level), and whether it raised.
Spans are stored column-wise in ``array`` buffers so a traced run with
a million boundary crossings stays a few tens of MB.

Self time is a span's duration minus the durations of its direct
children: the benchmark is single-threaded, so children nest strictly
inside their parent and never overlap each other.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from array import array
from typing import Callable, Dict, List


class SpanRecorder:
    """Collects spans from wrapped callables; one recorder per traced run."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.raised = array("b")
        self._stack: List[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn: Callable) -> Callable:
        """A wrapper around ``fn`` that records one span per call."""
        nid = self.intern(name)
        clock = time.perf_counter_ns
        stack = self._stack
        ids, starts, ends, parents, raised = (
            self.name_id, self.start, self.end, self.parent, self.raised
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            raised.append(0)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__perfbench_span__ = name
        return traced

    def add(self, name: str, start_ns: int, end_ns: int, parent: int) -> int:
        """Record a span measured elsewhere (e.g. a compiler pass event)."""
        idx = len(self.start)
        self.name_id.append(self.intern(name))
        self.start.append(start_ns)
        self.end.append(end_ns)
        self.parent.append(parent)
        self.raised.append(0)
        return idx

    def current(self) -> int:
        """Index of the innermost open span, ``-1`` if none."""
        return self._stack[-1] if self._stack else -1

    # -- roll-ups ---------------------------------------------------------

    def self_times_ns(self) -> List[int]:
        """Per span: duration minus the durations of its direct children."""
        starts, ends, parents = self.start, self.end, self.parent
        out = [ends[i] - starts[i] for i in range(len(starts))]
        for i in range(len(starts)):
            p = parents[i]
            if p >= 0:
                out[p] -= ends[i] - starts[i]
        return out

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, raised calls, total and self seconds."""
        selfs = self.self_times_ns()
        rows = [[0, 0, 0, 0] for _ in self.names]
        starts, ends, ids, raised = self.start, self.end, self.name_id, self.raised
        for i in range(len(starts)):
            row = rows[ids[i]]
            row[0] += 1
            row[1] += raised[i]
            row[2] += ends[i] - starts[i]
            row[3] += selfs[i]
        return {
            name: {
                "calls": row[0],
                "raised": row[1],
                "total_s": row[2] / 1e9,
                "self_s": row[3] / 1e9,
            }
            for name, row in zip(self.names, rows)
        }

    # -- output -------------------------------------------------------------

    def write(self, spans_path: str, chrome_path: str) -> None:
        """Write every span as columnar JSON and as a Chrome trace (gzip)."""
        origin = min(self.start) if len(self.start) else 0
        columns = {
            "names": self.names,
            "name_id": self.name_id.tolist(),
            "start_ns": [s - origin for s in self.start],
            "end_ns": [e - origin for e in self.end],
            "parent": self.parent.tolist(),
            "raised": self.raised.tolist(),
        }
        with gzip.open(spans_path, "wt", encoding="utf-8") as fh:
            json.dump(columns, fh, separators=(",", ":"))
        with gzip.open(chrome_path, "wt", encoding="utf-8") as fh:
            fh.write('{"displayTimeUnit":"ns","traceEvents":[')
            names = self.names
            for i in range(len(self.start)):
                name = names[self.name_id[i]]
                if i:
                    fh.write(",")
                fh.write(
                    '{"name":"%s","cat":"%s","ph":"X","pid":1,"tid":1,'
                    '"ts":%.3f,"dur":%.3f}'
                    % (
                        name,
                        name.rsplit(".", 1)[0],
                        (self.start[i] - origin) / 1e3,
                        (self.end[i] - self.start[i]) / 1e3,
                    )
                )
            fh.write("]}")
