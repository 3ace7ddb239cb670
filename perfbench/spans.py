"""In-memory span recorder for the traced run.

A span is (id, name, start, end, parent, work): ``work`` is the number of
elements a hook returned, so counts are taken at the same boundaries as
times.  Each thread appends to its own flat ``array('q')``, so recording
takes no lock and costs 48 bytes a span; nothing is written out until the
run ends.  A span opened on a thread with no open span of its own (a
thread-pool worker) takes as parent the innermost open span of the thread
that started tracing, which is the call that created the pool.

A layer's self time is the sum over its spans of the duration minus the
part of that interval covered by the union of the span's children.  Taking
the union, not the sum, keeps the figure right when children run on two
threads at once.
"""

from __future__ import annotations

import itertools
import threading
import time
from array import array

import numpy as np

_FIELDS = 6


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.active = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._buffers: list[array] = []
        self._lock = threading.Lock()
        self._owner: list[int] = []

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = (array("q"), [])
            with self._lock:
                self._buffers.append(state[0])
            self._local.state = state
        return state

    def start(self) -> None:
        self._owner = self._thread_state()[1]
        self.active = True

    def stop(self) -> None:
        self.active = False

    def wrap(self, name: str, fn, work=None):
        """``fn`` recording one span per call while the tracer is active."""
        name_id = len(self.names)
        self.names.append(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            buf, stack = self._thread_state()
            parent = stack[-1] if stack else (self._owner[-1] if self._owner else 0)
            span_id = next(self._ids)
            stack.append(span_id)
            out = None
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = clock()
                stack.pop()
                buf.extend((span_id, name_id, t0, t1, parent, work(out) if work and out is not None else 0))

        return traced

    def spans(self) -> np.ndarray:
        """All spans recorded so far as an (N, 6) int64 array."""
        parts = [np.frombuffer(buf, dtype=np.int64).reshape(-1, _FIELDS).copy() for buf in self._buffers]
        return np.concatenate(parts) if parts else np.empty((0, _FIELDS), dtype=np.int64)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name (wrappers may share one): calls, total and self
        seconds, and total work."""
        spans = self.spans()
        ids, names, t0, t1, parents, work = spans.T
        covered = _covered_by_children(ids, t0, t1, parents)
        stats: dict[str, dict[str, float]] = {}
        for name_id in np.unique(names):
            mine = names == name_id
            s = stats.setdefault(
                self.names[name_id], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0}
            )
            s["calls"] += int(mine.sum())
            s["total_s"] += float((t1 - t0)[mine].sum()) * 1e-9
            s["self_s"] += float((t1 - t0 - covered)[mine].sum()) * 1e-9
            s["work"] += int(work[mine].sum())
        return stats


def _covered_by_children(ids, t0, t1, parents) -> np.ndarray:
    """Per span, the length of the union of its children's intervals,
    clipped to the span's own interval."""
    covered = np.zeros(len(ids), dtype=np.int64)
    if not len(ids):
        return covered
    order = np.argsort(ids)
    row = order[np.searchsorted(ids, parents, sorter=order).clip(0, len(ids) - 1)]
    has_parent = ids[row] == parents
    if not has_parent.any():
        return covered
    child = np.flatnonzero(has_parent)
    prow = row[child]
    base = t0.min()
    start = np.maximum(t0[child], t0[prow]) - base
    end = np.minimum(t1[child], t1[prow]) - base
    # Sort by (parent, start); shifting each parent group by its own offset
    # (larger than any in-run time) keeps the running maximum of earlier ends
    # from reaching into the next group.
    by = np.lexsort((start, prow))
    prow, start, end = prow[by], start[by], end[by]
    group = np.cumsum(np.r_[0, np.diff(prow) != 0])
    offset = group * (int(t1.max() - base) + 1)
    start, end = start + offset, end + offset
    reach = np.maximum.accumulate(end)
    reach = np.r_[np.iinfo(np.int64).min, reach[:-1]]
    gain = np.clip(end - np.maximum(start, reach), 0, None)
    np.add.at(covered, prow, gain)
    return covered
