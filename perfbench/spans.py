"""Operation counting and span recording around calls into the library.

Every call into a reckernel layer and every output check is one operation.
When tracing is on, each call also leaves a span (name, start, end, parent,
counts) in memory; per-layer metrics are derived from the spans after the
run, and the spans are written out when the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Optional

MODULES = ("glyphs", "data", "kernel", "solver", "baseline", "activation", "network")


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    start: float
    end: float
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Bench:
    """Counts operations and, while ``tracing`` is set, records spans.

    A *unit* is a root span: one set-up, one timed repetition, the check of
    one repetition's outputs, or the final verification pass.  Spans of
    layer calls nest under the open unit.
    """

    def __init__(self):
        self.tracing = False
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        #: the last exception a library call raised, already counted as failed
        self.raised: Optional[BaseException] = None
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def _span(self, name: str, counts: dict):
        """Time the body; while tracing, keep it as a span under the open one."""
        sid = None
        t0 = time.perf_counter()
        if self.tracing:
            parent = self._stack[-1] if self._stack else None
            sid = len(self.spans)
            self.spans.append(Span(sid, name, parent, t0, 0.0, counts))
            self._stack.append(sid)
        try:
            yield
        finally:
            t1 = time.perf_counter()
            counts["seconds"] = t1 - t0
            if sid is not None:
                self._stack.pop()
                self.spans[sid].end = t1

    @contextmanager
    def unit(self, kind: str):
        """Root span around one set-up, repetition, check or verification;
        yields a dict whose ``seconds`` entry is filled on exit."""
        out: dict = {}
        with self._span(kind, out):
            yield out

    @contextmanager
    def op(self, name: str, **counts):
        """One call into a layer, named ``<module>.<function>``.  The yielded
        dict holds the span's counts; callers may add counts known only after
        the call.  A call that raises counts as a failed operation."""
        self.attempted += 1
        try:
            with self._span(name, counts):
                yield counts
        except Exception as e:
            self.failed += 1
            self.failures.append(f"{name} raised {type(e).__name__}: {e}")
            self.raised = e
            raise

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """One output check; a false condition counts as a failed operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"check {name} failed" + (f": {detail}" if detail else ""))
        return ok

    def write_spans(self, path) -> None:
        with open(path, "w") as f:
            json.dump([asdict(s) for s in self.spans], f)


def _union_seconds(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for a, b in sorted(intervals):
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


#: counts that only grow on the first call in a process, so their maximum is
#: reported rather than their median
MAX_COUNTS = ("rss_growth_mb",)
UNIT_PRIORITY = ("rep", "verify", "check", "setup")


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-function and per-module figures from recorded spans.

    For each ``<module>.<function>``: ``busy_s`` and every count, summed
    within a unit and taken as the median over the units that call it, from
    the first unit kind in ``UNIT_PRIORITY`` that calls it.
    For each module: ``busy_s`` (union of its spans) and ``self_s`` (busy
    minus the part covered by child spans), as medians over the timed
    repetitions, which are what ``wall_s`` measures.
    """
    by_id = {s.id: s for s in spans}

    def root(s: Span) -> Span:
        while s.parent is not None:
            s = by_id[s.parent]
        return s

    # function -> unit kind -> unit id -> summed figures
    per_fn: dict[str, dict[str, dict[int, dict[str, float]]]] = {}
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is None:
            continue
        children.setdefault(s.parent, []).append(s)
        r = root(s)
        sums = per_fn.setdefault(s.name, {}).setdefault(r.name, {}).setdefault(r.id, {})
        sums["busy_s"] = sums.get("busy_s", 0.0) + s.seconds
        for k, v in s.counts.items():
            if k != "seconds":
                sums[k] = sums.get(k, 0.0) + v

    out: dict[str, float] = {}
    for name, kinds in per_fn.items():
        # a warm-up call in set-up does not stand for the timed calls
        units = next(kinds[k] for k in UNIT_PRIORITY if k in kinds)
        keys = {k for u in units.values() for k in u}
        for k in keys:
            vals = [u.get(k, 0.0) for u in units.values()]
            out[f"{name}.{k}"] = max(vals) if k in MAX_COUNTS else statistics.median(vals)

    reps = [s for s in spans if s.parent is None and s.name == "rep"]
    for mod in MODULES:
        busy, self_ = [], []
        for r in reps:
            mine = [s for s in spans if s.name.startswith(mod + ".") and root(s).id == r.id]
            busy.append(_union_seconds((s.start, s.end) for s in mine))
            covered = sum(_union_seconds((c.start, c.end) for c in children.get(s.id, ()))
                          for s in mine)
            self_.append(busy[-1] - covered)
        out[f"{mod}.busy_s"] = statistics.median(busy) if busy else 0.0
        out[f"{mod}.self_s"] = statistics.median(self_) if self_ else 0.0
    return out
