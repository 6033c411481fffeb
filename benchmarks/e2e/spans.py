"""The harness's own span recorder.

``src/repro`` has no timers yet (ROADMAP item 1), so layer time is
measured from outside: the traced pass replays each operation step by
step through public functions and wraps every step in a span named
after the package that does the work.  A span is ``(name, start, end,
parent, operation id)``; spans stay in memory and are written out once,
when the run ends.

A disabled recorder hands out one shared no-op context, so the timed
pass and the traced pass run the very same replay code.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

_NULL = nullcontext()


class Recorder:
    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        #: ``[name, start, end, parent index or -1, operation id]``
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._operation = -1

    def span(self, name: str):
        return self._span(name) if self.enabled else _NULL

    @contextmanager
    def _span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self._operation]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def operation(self, kind: str):
        """One whole user operation: the root span its layers hang off."""
        self._operation += 1
        with self.span(f"op.{kind}"):
            yield

    def self_times(self) -> dict[str, dict]:
        """Per span name: count, total and self seconds (span minus the
        part of it its direct children cover)."""
        child_time: dict[int, float] = defaultdict(float)
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: dict[str, dict] = {}
        for index, (name, start, end, _parent, _op) in enumerate(self.spans):
            row = table.setdefault(
                name, {"count": 0, "total_s": 0.0, "self_s": 0.0}
            )
            row["count"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - child_time.get(index, 0.0)
        return table

    def layer_seconds(self) -> float:
        """Self time of every span that is not an operation root: what
        the stepwise replay attributes to a layer."""
        return sum(
            row["self_s"]
            for name, row in self.self_times().items()
            if not name.startswith("op.")
        )

    def operation_seconds(self) -> float:
        return sum(
            end - start
            for name, start, end, _parent, _op in self.spans
            if name.startswith("op.")
        )

    def dump(self, path: str, **header) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    **header,
                    "columns": ["name", "start_s", "end_s", "parent", "operation"],
                    "spans": self.spans,
                    "self_times": self.self_times(),
                },
                handle,
            )
