"""Spans and counters recorded from outside the program.

The benchmark wraps module and class attributes of hetsim with timing
wrappers (`Patch`), records one `Span` per wrapped call in memory
(`Tracer`), and puts every original attribute back afterwards. Nothing in
`src/` knows it is being traced.

A span's self time is its duration minus the durations of its direct
children. Calls run in one thread and nest strictly, so the self times of
all spans add up to the summed duration of the top-level spans, and the
rest of the traced wall time is unattributed.

Untraced runs use `refclock.ReferenceClock` instead: one clock read at
the start and end of each item, and no spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass

# set on every wrapper, so a leftover wrapper can be found after restore
WRAPPER_MARK = "__hetbench_wrapper__"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the span list, -1 if none
    item: int    # shared by the spans of one drop or oracle instance, -1 outside


class Patch:
    """Replaces attributes with wrappers and restores the originals."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, make) -> None:
        """Replace owner.attr by make(original function).

        Class methods stay class methods. A missing attribute raises, so a
        trace site that hetsim no longer has fails the run.
        """
        original = vars(owner).get(attr)
        if original is None:
            raise AttributeError(f"{owner.__name__}.{attr} not found")
        is_classmethod = isinstance(original, classmethod)
        func = original.__func__ if is_classmethod else original
        wrapper = functools.wraps(func)(make(func))
        setattr(wrapper, WRAPPER_MARK, True)
        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._saved.append((owner, attr, original))

    def restore(self) -> list[tuple[object, str, object]]:
        """Put every original back; returns what was restored."""
        restored = []
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
            restored.append((owner, attr, original))
        return restored

    def __enter__(self) -> "Patch":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def leftover_wrappers(restored: list[tuple[object, str, object]]) -> list[str]:
    """Restored attributes that are not their original object, and any hetsim
    attribute that still carries a wrapper."""
    bad = [
        f"{owner.__name__}.{attr}" for owner, attr, original in restored
        if vars(owner).get(attr) is not original
    ]
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "hetsim" and not mod_name.startswith("hetsim."):
            continue
        owners = [module] + [v for v in vars(module).values() if isinstance(v, type)]
        for owner in owners:
            for attr, value in vars(owner).items():
                if getattr(getattr(value, "__func__", value), WRAPPER_MARK, False):
                    bad.append(f"{mod_name}.{getattr(owner, '__name__', '')}.{attr}")
    return sorted(set(bad))


class Tracer:
    """Records spans and counts of the calls that go through its wrappers."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._item = -1
        self._next_item = 0
        self._clock = clock

    def _new_item(self) -> None:
        self._item = self._next_item
        self._next_item += 1

    def span(self, name: str, on_result=None, item: bool = False):
        """Wrapper factory: one span per call, plus a `<name>.calls` count.

        on_result(counts, args, kwargs, result) adds work counts taken from
        the call. item=True opens a new item id for the call's subtree.
        """
        def make(func):
            def wrapper(*args, **kwargs):
                if item:
                    self._new_item()
                parent = self._stack[-1] if self._stack else -1
                record = Span(name, 0.0, 0.0, parent, self._item)
                self._stack.append(len(self.spans))
                self.spans.append(record)
                record.start = self._clock()
                try:
                    result = func(*args, **kwargs)
                finally:
                    record.end = self._clock()
                    self._stack.pop()
                    if item:
                        self._item = -1
                self.counts[name + ".calls"] += 1
                if on_result is not None:
                    on_result(self.counts, args, kwargs, result)
                return result
            return wrapper
        return make

    def counter(self, name: str):
        """Wrapper factory: count calls only, no span."""
        def make(func):
            def wrapper(*args, **kwargs):
                self.counts[name] += 1
                return func(*args, **kwargs)
            return wrapper
        return make

    def item_marker(self):
        """Wrapper factory: each call starts a new item (no span)."""
        def make(func):
            def wrapper(*args, **kwargs):
                self._new_item()
                return func(*args, **kwargs)
            return wrapper
        return make


def self_times(spans: list[Span]) -> dict[str, float]:
    """Summed self seconds per span name."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    out: dict[str, float] = {}
    for s, c in zip(spans, child):
        out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - c
    return out


def unattributed(spans: list[Span], wall: float) -> float:
    """Seconds of `wall` that no top-level span covers."""
    return wall - sum(s.end - s.start for s in spans if s.parent < 0)


def check_spans(spans: list[Span], start: float, end: float, names) -> list[str]:
    """Problems with a span tree recorded between `start` and `end`.

    Every span must carry one of `names`, lie inside its parent (top-level
    spans inside [start, end]) and not overlap an earlier sibling. Only
    then do self times plus the unattributed rest add up to the wall time
    with every term non-negative.
    """
    problems: list[str] = []
    last_end: dict[int, float] = {}  # parent index -> end of its latest child
    for i, s in enumerate(spans):
        where = f"span {i} {s.name!r} [{s.start!r}, {s.end!r}]"
        if s.name not in names:
            problems.append(f"{where} maps to no layer metric")
        if s.parent >= i:
            problems.append(f"{where} has parent {s.parent}, which opened after it")
            break
        lo, hi = (start, end) if s.parent < 0 else (spans[s.parent].start, spans[s.parent].end)
        if not lo <= s.start <= s.end <= hi:
            problems.append(f"{where} lies outside {'the unit' if s.parent < 0 else f'its parent {s.parent}'}")
        if s.start < last_end.get(s.parent, lo):
            problems.append(f"{where} overlaps an earlier sibling")
        last_end[s.parent] = s.end
        if len(problems) >= 10:
            break
    if not problems and unattributed(spans, end - start) < 0:
        problems.append("top-level spans cover more than the unit's wall time")
    return problems


def write_spans(path: str, spans: list[Span]) -> None:
    """CSV of all spans, times in seconds from the first span's start."""
    t0 = spans[0].start if spans else 0.0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("id,name,start_s,end_s,parent,item\n")
        for i, s in enumerate(spans):
            fh.write(f"{i},{s.name},{s.start - t0:.9f},{s.end - t0:.9f},{s.parent},{s.item}\n")


def item_times(sites: list[str], segments: list[float], start: str, end: str) -> list[float]:
    """Summed segments of each item: from a `start` mark to the next `start` or `end` mark."""
    items: list[float] = []
    inside = False
    for site, seconds in zip(sites, segments):
        if site == start:
            items.append(0.0)
            inside = True
        elif site == end:
            inside = False
        if inside:
            items[-1] += seconds
    return items
