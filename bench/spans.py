"""In-memory spans for the traced run; each process prints its spans when it ends."""

from __future__ import annotations

import contextlib
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def use_checkout_source() -> None:
    """Import ``uctop`` from this checkout's ``src``, not from an installed copy."""
    sys.path.insert(0, os.path.join(ROOT, "src"))


class Recorder:
    """Spans with name, start, end, parent span and request id."""

    def __init__(self, request: int):
        self.request = request
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"name": name, "parent": self._open[-1] if self._open else None,
               "request": self.request, "pid": os.getpid()}
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        rec["start_ns"] = time.perf_counter_ns()
        try:
            yield rec
        finally:
            rec["end_ns"] = time.perf_counter_ns()
            self._open.pop()


def seconds(rec: dict) -> float:
    return (rec["end_ns"] - rec["start_ns"]) / 1e9
