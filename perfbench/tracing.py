"""In-memory spans recorded around calls into firmglass's public functions.

A span has a name, a start and an end (``time.perf_counter`` seconds), the
id of the span that was open when it started, and optionally the process
CPU time spent inside it.  Spans stay in memory and are written out once,
when the traced run ends.  Nothing here touches firmglass's sources: calls
the benchmark makes itself are wrapped with :meth:`Tracer.span`, and calls
firmglass makes internally are wrapped by swapping a module attribute for
the duration of a ``with Tracer.patched(...)`` block.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.absent: set[str] = set()
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, *, cpu: bool = False):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        cpu_start = time.process_time() if cpu else 0.0
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            if cpu:
                record["cpu"] = time.process_time() - cpu_start
            self._open.pop()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def patched(self, targets):
        """Trace calls to ``module.attr`` for each (module, attr, span name).

        An attribute the module no longer has is recorded in ``absent`` and
        left alone, so a traced run survives a function being removed.
        """
        saved = []
        for module, attr, name in targets:
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.add(f"{module.__name__}.{attr}")
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(fn, name))
        try:
            yield
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_time(self, span: dict) -> float:
        """Duration minus the part covered by direct child spans."""
        covered = sum(
            s["end"] - s["start"] for s in self.spans if s["parent"] == span["id"]
        )
        return span["end"] - span["start"] - covered

    def dump(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(header, absent=sorted(self.absent), spans=self.spans)
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
