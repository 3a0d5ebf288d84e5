"""The benchmark's own span recorder.

The traced pass wraps every public call the harness makes in a span and
keeps the spans in memory until the run ends.  Spans are the product's
``repro.telemetry.Span`` records, written through its Chrome trace-event
exporter, so ``python -m repro.trace FILE`` renders a benchmark trace like
any other.  Folding the product's flight-recorder spans into these names
is a later change; here every span is taken from outside, around a call
into a layer, and the product's tracer stays off.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path

from repro.telemetry import Span, chrome_trace


class Recorder:
    """Collects spans when enabled; costs one branch per call when not."""

    def __init__(self, enabled: bool, **common_attrs):
        self.enabled = enabled
        self.common_attrs = common_attrs
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name: str, on: bool = True, **attrs):
        """Time the body inside a span that nests under the thread's
        current one; ``on=False`` runs the body outside any span."""
        if not (self.enabled and on):
            yield
            return
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = str(next(self._ids))
        parent_id = stack[-1] if stack else None
        stack.append(span_id)
        started_at, start = time.time(), time.perf_counter()
        try:
            yield
        finally:
            seconds = time.perf_counter() - start
            stack.pop()
            with self._lock:
                self.spans.append(Span(
                    name, span_id, parent_id, started_at, seconds,
                    os.getpid(), threading.get_ident(),
                    dict(self.common_attrs, **attrs)))

    def self_seconds(self) -> dict[str, float]:
        """Busy time per span name: each span minus what its children cover."""
        covered: dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span.parent_id is not None:
                covered[span.parent_id] += span.duration
        busy: dict[str, float] = defaultdict(float)
        for span in self.spans:
            busy[span.name] += max(0.0, span.duration - covered[span.span_id])
        return dict(busy)

    def write_chrome_trace(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(chrome_trace(self.spans)) + "\n",
                        encoding="utf-8")
