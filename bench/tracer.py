"""Outside-in span tracer for the gkmbmo benchmark.

The tracer never edits the package.  It replaces public names (module
functions, class methods, methods of one operator or loss instance) with
wrappers that record a span per call, and puts the originals back on
``restore``.  Spans are kept in memory as ``[name, start, end, parent,
unit]`` lists and written out once the run ends.
"""

from __future__ import annotations

import csv
import time
from collections import Counter, defaultdict


class TraceError(RuntimeError):
    """A name the benchmark wraps is missing, or an expected span never ran."""


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()          # (name, unit) -> calls, for counter-only names
        self.unit = None                 # id of the unit now running, or None between units
        self._stack = []
        self._saved = []                 # (owner, attr, had_own_attr, original)

    def wrap(self, owner, attr, name, count_only=False):
        """Replace ``owner.attr`` by a wrapper recording a span (or a count) per call."""
        if not hasattr(owner, attr):
            raise TraceError(f"cannot wrap {_label(owner)}.{attr}: no such name")
        own = vars(owner)
        had_own = attr in own
        fn = getattr(owner, attr)
        wrapper = self._counted(fn, name) if count_only else self._timed(fn, name)
        self._saved.append((owner, attr, had_own, own[attr] if had_own else None))
        setattr(owner, attr, wrapper)

    def restore(self):
        """Put back every original, newest wrapper first."""
        for owner, attr, had_own, original in reversed(self._saved):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved = []

    def _timed(self, fn, name):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            # a layer calling itself (block metrics, recursive estimates)
            # stays inside the outer span
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.unit]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name, self.unit] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results ----------------------------------------------------------
    def summarize(self, units):
        """Per-name total time, self time and calls over the spans of ``units``.

        Self time is a span's duration minus the durations of its direct
        children.  Returns ``{name: (total_s, self_s, calls)}``.
        """
        units = set(units)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, unit in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total, self_time, calls = defaultdict(float), defaultdict(float), Counter()
        for i, (name, start, end, parent, unit) in enumerate(self.spans):
            if unit in units:
                total[name] += end - start
                self_time[name] += end - start - child[i]
                calls[name] += 1
        for (name, unit), n in self.counts.items():
            if unit in units:
                calls[name] += n
        return {n: (total[n], self_time[n], calls[n]) for n in set(total) | set(calls)}

    def write(self, path):
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "name", "start_s", "end_s", "parent", "unit"])
            for i, (name, start, end, parent, unit) in enumerate(self.spans):
                out.writerow([i, name, repr(start), repr(end), parent, unit])


def _label(owner):
    return getattr(owner, "__name__", type(owner).__name__)
