"""Timing spans around the package's layer entry points.

Spans are recorded from the benchmark's side only: each entry point is a
module attribute that its caller looks up at call time, so replacing that
attribute with a timing wrapper traces every call without touching the
package. `patch_attrs` restores the originals on exit, also on error.

A span has a name, a start, an end, the span that was open when it started
(its parent) and the request it belongs to. Spans stay in flat arrays in
memory and are written out once, after the run.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Union

import numpy as np

SpanName = Union[str, Callable[..., str]]


class Recorder:
    """In-memory span store plus named counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("q")
        self.request = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self.current_request = -1
        # While paused, wrappers pass calls straight through: the harness
        # pauses around its own correctness checks.
        self.paused = False

    def __len__(self) -> int:
        return len(self.start)

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.current_request)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def span_stats(self, scales=()) -> dict[str, dict]:
        """Per span name: call count, busy time, self time and durations.

        scales[r] multiplies the durations of request r's spans. Self time
        is a span's duration minus the time its direct child spans cover;
        spans nest strictly because the run is single-threaded.
        """
        n = len(self)
        start = np.frombuffer(self.start, dtype=float, count=n)
        dur = np.frombuffer(self.end, dtype=float, count=n) - start
        request = np.frombuffer(self.request, dtype=np.int64, count=n)
        factor = np.append(np.asarray(scales, dtype=float), 1.0)
        dur = dur * factor[np.where(request >= 0, request, len(factor) - 1)]
        parent = np.frombuffer(self.parent, dtype=np.int64, count=n)
        names = np.frombuffer(self.name_id, dtype=np.uint16, count=n)
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        stats = {}
        for nid, name in enumerate(self.names):
            mask = names == nid
            stats[name] = {
                "calls": int(mask.sum()),
                "busy_s": float(dur[mask].sum()),
                "self_s": float((dur[mask] - child[mask]).sum()),
                "durations": dur[mask],
            }
        return stats

    def write(self, path: Path) -> None:
        """One span per line: id, parent, request, name, start and end in ns
        from the first span's start."""
        t0 = self.start[0] if len(self) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\trequest\tname\tstart_ns\tend_ns\n")
            for sid in range(len(self)):
                fh.write(f"{sid}\t{self.parent[sid]}\t{self.request[sid]}\t"
                         f"{self.names[self.name_id[sid]]}\t"
                         f"{round((self.start[sid] - t0) * 1e9)}\t"
                         f"{round((self.end[sid] - t0) * 1e9)}\n")


def span(recorder: Recorder, name: SpanName, fn: Callable) -> Callable:
    """Wrap fn so that every call records one span.

    name is a fixed string or a function of the call's arguments. A call
    that raises also bumps the counter `<name>.raised`.
    """
    name_of = name if callable(name) else (lambda *a, **k: name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if recorder.paused:
            return fn(*args, **kwargs)
        label = name_of(*args, **kwargs)
        sid = recorder.open(label)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            recorder.counts[label + ".raised"] += 1
            raise
        finally:
            recorder.close(sid)

    return wrapper


@contextmanager
def patch_attrs(patches: Iterable[tuple[object, str, Callable]]):
    """Replace module attributes for the duration of the block.

    Each patch is (module, attribute, factory); the factory receives the
    current attribute and returns its replacement.
    """
    saved = []
    try:
        for module, attr, factory in patches:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, factory(original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
