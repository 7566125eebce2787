"""In-memory spans recorded around calls into cabinsep, from the benchmark side.

A span is (name, start_ns, end_ns, parent index, unit). The unit names the
frame, utterance or scene the span belongs to, so spans of one request
share it. Spans stay in memory and are written once, when the run ends.
"""

from __future__ import annotations

import contextlib
import json
from collections import defaultdict
from time import perf_counter_ns

_NULL_SPAN = contextlib.nullcontext()


class NullTracer:
    """Tracing switched off: every span is the same reusable no-op context."""

    unit = None

    def span(self, name: str):
        return _NULL_SPAN


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.unit = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = [name, perf_counter_ns(), 0, self._stack[-1] if self._stack else -1, self.unit]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = perf_counter_ns()
            self._stack.pop()

    def self_ns(self) -> list[int]:
        """Per span: its duration minus the time its child spans cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def self_seconds(self, name: str, unit_prefix: str | None = None) -> float:
        """Summed self time of spans called `name`, optionally of one unit family."""
        total = 0
        for (span_name, _, _, _, unit), own in zip(self.spans, self.self_ns()):
            if span_name == name and (unit_prefix is None or str(unit).startswith(unit_prefix)):
                total += own
        return total / 1e9

    def durations_ms(self, name: str) -> list[float]:
        return [(end - start) / 1e6 for span_name, start, end, _, _ in self.spans
                if span_name == name]

    def layer_self_seconds(self) -> dict[str, float]:
        """Self time per layer: the span name up to its first dot."""
        totals: dict[str, float] = defaultdict(float)
        for (name, *_), own in zip(self.spans, self.self_ns()):
            totals[name.split(".", 1)[0]] += own / 1e9
        return dict(totals)

    def write(self, path) -> None:
        fields = ("name", "start_ns", "end_ns", "parent", "unit")
        with open(path, "w") as fh:
            json.dump([dict(zip(fields, span)) for span in self.spans], fh)
