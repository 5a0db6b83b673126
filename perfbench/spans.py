"""In-memory spans around the library calls the benchmark makes.

A span records name, start, end, parent span and request id; spans of
one request share its id.  Spans stay in memory until the run ends and
are written out once.  ``probe`` marks the extra calls a traced run makes
to time a lower layer that a public call hides (for example
``build_stack`` inside ``make_frame_spec``); they are excluded when the
traced run is compared with the untraced one.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: int | str | None
    probe: bool


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self.request: int | str | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, probe: bool = False):
        parent = self._open[-1] if self._open else None
        rec = Span(name, 0.0, 0.0, parent, self.request, probe)
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec.start = perf_counter()
        try:
            yield
        finally:
            rec.end = perf_counter()
            self._open.pop()

    def write(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            json.dump({**header, "spans": [asdict(s) for s in self.spans]}, fh)


class NullTracer:
    """Tracing off: every span is the same reusable no-op context."""

    enabled = False
    request = None
    _null = nullcontext()

    def span(self, name: str, probe: bool = False):
        return self._null


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its children cover.

    Children of one span run one after another, so that part is the sum
    of their durations.
    """
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own
