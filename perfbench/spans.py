"""In-memory span recorder for the traced benchmark runs.

A span is one timed call at a layer boundary: its name, start and end
(``time.perf_counter`` seconds), the span that was open when it began
on the same thread, and the request id it serves.  Spans are appended
to a list while the run measures and written out only at the end, so
recording costs one list append and two clock reads.

Layers are traced from outside: :meth:`Tracer.wrap` replaces a module
or object attribute with a wrapper that opens a span around each call,
and :meth:`Tracer.restore` puts the originals back.  The program under
test is not modified.
"""
from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request_id: str | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans; a disabled tracer's :meth:`span` records nothing."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[tuple[int, str | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request_id: str | None = None):
        """Time the body as one span; children inherit its request id."""
        if not self.enabled:
            yield
            return
        stack = self._stack()
        parent, inherited = stack[-1] if stack else (None, None)
        span_id = next(self._ids)
        rid = request_id if request_id is not None else inherited
        stack.append((span_id, rid))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, rid))

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def per_request(self, name: str) -> dict[str | None, float]:
        """Seconds spent in spans called ``name``, summed per request id."""
        totals: dict[str | None, float] = {}
        for s in self.spans:
            if s.name == name:
                totals[s.request_id] = totals.get(s.request_id, 0.0) + s.seconds
        return totals

    def median(self, name: str) -> float:
        """Median over requests of the per-request seconds in ``name``; 0 if never called."""
        totals = self.per_request(name)
        return statistics.median(totals.values()) if totals else 0.0

    def fastest(self, name: str) -> float:
        """Least per-request seconds in ``name``; 0 if never called."""
        return min(self.per_request(name).values(), default=0.0)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")
