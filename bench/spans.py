"""In-memory span recorder for the traced benchmark run.

Spans are kept in flat arrays while the run measures and written out once at
the end.  Each span has a name, start and end (in ns of the tracer's clock),
the span that was open when it started (its parent) and the id of the
benchmark operation it belongs to.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import statistics
from array import array

NO_SPAN = contextlib.nullcontext()


def no_span(name: str) -> contextlib.nullcontext:
    """Stand-in for ``Tracer.span`` in untraced runs."""
    return NO_SPAN


class Tracer:
    def __init__(self, clock) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self._open: list[int] = []
        self.op_id = -1

    @contextlib.contextmanager
    def span(self, name: str):
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
        sid = len(self.name)
        self.name.append(code)
        self.parent.append(self._open[-1] if self._open else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        self._open.append(sid)
        self.start.append(self.clock())
        try:
            yield
        finally:
            self.end[sid] = self.clock()
            self._open.pop()

    def self_times_us(self) -> dict[str, list[float]]:
        """Per span name, each span's duration minus its children's, in µs.

        Children run one after another inside their parent, so the part of
        the parent they cover is the sum of their durations.
        """
        covered = [0] * len(self.name)
        for sid, parent in enumerate(self.parent):
            if parent >= 0:
                covered[parent] += self.end[sid] - self.start[sid]
        out: dict[str, list[float]] = {name: [] for name in self.names}
        for sid, code in enumerate(self.name):
            dur = self.end[sid] - self.start[sid] - covered[sid]
            out[self.names[code]].append(dur / 1e3)
        return out

    def write(self, path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            for sid, code in enumerate(self.name):
                out.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": self.names[code],
                            "start_ns": self.start[sid],
                            "end_ns": self.end[sid],
                            "parent": self.parent[sid] if self.parent[sid] >= 0 else None,
                            "op": self.op[sid],
                        }
                    )
                    + "\n"
                )


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0
