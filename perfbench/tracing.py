"""Span tracer that wraps the program's layer entry points from outside.

The traced run replaces selected bound methods (on one simulator's
objects) and one module attribute with wrappers that record a span per
call.  Nothing in the program is edited: every wrapper is installed on
an instance or module attribute after construction and removed with
:meth:`Tracer.uninstall`, and the wrappers only observe (the traced run
must reproduce the untraced run's stats digest).

Each span records a layer name, start, end, parent span and batch id.
Self time -- a span's duration minus the time its child spans cover --
is accumulated online per layer, so the totals stay exact however many
spans a run makes; the span records themselves are kept in memory up to
``KEEP_SPANS`` spans and written out when the traced run ends.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from pathlib import Path

#: Span records kept in memory per run; later spans still count toward
#: the self times and call counts, but only :attr:`Tracer.dropped` notes
#: them.
KEEP_SPANS = 200_000


class Tracer:
    """Collects spans and counts from the wrappers it installs."""

    def __init__(self) -> None:
        #: Per-layer self time in seconds.
        self.self_s: defaultdict[str, float] = defaultdict(float)
        #: Per-layer span counts plus the plain counters of :meth:`count`.
        self.calls: Counter[str] = Counter()
        #: Kept span records: (id, name, start, end, parent id, batch id).
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.dropped = 0
        self._next_id = 0
        self._batch = -1
        #: Open spans: [span id, child seconds].
        self._stack: list[list] = []
        self._installed: list[tuple[object, str, bool, object]] = []

    # -- spans -----------------------------------------------------------

    def wrap(
        self, name: str, fn, *, batch: bool = False,
        counter: str | None = None, amount=None,
    ):
        """A wrapper of ``fn`` that records one ``name`` span per call.

        ``batch`` marks a batch-level entry point: each call starts a new
        batch id.  ``counter``, when given, is a count bumped per call by
        ``amount(args)`` (default 1): rows programmed, lines compressed.
        """
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if batch:
                self._batch += 1
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                calls[name] += 1
                if counter is not None:
                    calls[counter] += 1 if amount is None else amount(args)
                if len(self.spans) < KEEP_SPANS:
                    self.spans.append(
                        (span_id, name, start, end, parent, self._batch)
                    )
                else:
                    self.dropped += 1

        return traced

    def count(self, name: str, fn):
        """A wrapper of ``fn`` that only counts calls under ``name``."""
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside one ``name`` span (the root of a rep)."""
        return self.wrap(name, fn)(*args, **kwargs)

    # -- installation ----------------------------------------------------

    def install(self, owner, attribute: str, name: str, **options) -> None:
        """Replace ``owner.attribute`` with a span wrapper."""
        self._replace(owner, attribute, self.wrap(
            name, getattr(owner, attribute), **options
        ))

    def install_count(self, owner, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` with a counting wrapper."""
        self._replace(owner, attribute, self.count(
            name, getattr(owner, attribute)
        ))

    def _replace(self, owner, attribute: str, wrapper) -> None:
        own = attribute in getattr(owner, "__dict__", {})
        previous = owner.__dict__[attribute] if own else None
        self._installed.append((owner, attribute, own, previous))
        setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        """Restore every replaced attribute, newest first."""
        while self._installed:
            owner, attribute, own, previous = self._installed.pop()
            if own:
                setattr(owner, attribute, previous)
            else:
                delattr(owner, attribute)

    # -- output ----------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        """Write the kept spans as JSON lines (times relative to the first)."""
        origin = min((span[2] for span in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, batch in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name,
                    "start_us": round((start - origin) * 1e6, 3),
                    "end_us": round((end - origin) * 1e6, 3),
                    "parent": parent, "batch": batch,
                }) + "\n")
