"""In-memory spans recorded from outside the program.

The traced run (``--trace 1``) installs timed pass-through wrappers
around the public entry points of each layer, for the duration of one
measured round, and the harness opens one *operation* span around every
call it makes.  A span is ``{name, start, end, parent, op_id}``; spans
of one operation share ``op_id``.  Nothing under ``src/`` knows about
this module: every span is recorded from benchmark code, so the numbers
it yields describe the layers as a caller sees them.

A layer's **self time** is its span's duration minus the part of that
interval its child spans cover (:func:`self_times`).  Summed self times
never double count: a ``core.epoch.pin`` span that contains a
``sketches.absorb`` child contributes only its own remainder.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: span name prefix of harness operation spans (never a layer).
OP_PREFIX = "op."


class Tracer:
    """Span recorder; one per traced round."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent_index, op_id]`` per span.
        self.spans: List[list] = []
        #: free-form counters bumped by wrappers (elements, tasks, bytes).
        self.counts: Dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_op = 0
        self._patches: List[Tuple[type, str, object]] = []

    # -- recording ------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span nested under this thread's open span."""
        if getattr(self._local, "paused", False):
            yield
            return
        stack = self._stack()
        if stack:
            parent = stack[-1]
            op_id = self.spans[parent][4]
        else:
            parent, op_id = -1, None
        record = [name, 0.0, 0.0, parent, op_id]
        # Client, dispatcher and archiver threads all record here; the
        # index and the operation id are read-modify-writes.
        with self._lock:
            if op_id is None and name.startswith(OP_PREFIX):
                record[4] = self._next_op
                self._next_op += 1
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Record nothing from this thread inside the block."""
        self._local.paused = True
        try:
            yield
        finally:
            self._local.paused = False

    def count(self, key: str, amount: float = 1) -> None:
        """Add to a named counter (wrappers count work at the boundary)."""
        if getattr(self._local, "paused", False):
            return
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + amount

    # -- wrappers -------------------------------------------------------

    def wrap(
        self,
        owner: type,
        attr: str,
        name: str,
        on_call: Optional[Callable[["Tracer", tuple, object], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a timed pass-through.

        Works for plain methods and classmethods.  ``on_call(tracer,
        args, result)`` runs after the span closes (outside the timed
        interval) to count work.  :meth:`restore` undoes every patch.
        """
        original = owner.__dict__[attr]
        is_classmethod = isinstance(original, classmethod)
        inner = original.__func__ if is_classmethod else original
        tracer = self

        @functools.wraps(inner)
        def timed(*args, **kwargs):
            with tracer.span(name):
                result = inner(*args, **kwargs)
            if on_call is not None:
                on_call(tracer, args, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, classmethod(timed) if is_classmethod else timed)

    def restore(self) -> None:
        """Remove every wrapper installed by :meth:`wrap`."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------

    def as_dicts(self) -> List[dict]:
        """Spans in the documented ``{name,start,end,parent,op_id}`` form."""
        return [
            {"name": s[0], "start": s[1], "end": s[2],
             "parent": s[3], "op_id": s[4]}
            for s in self.spans
        ]


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Self time of every span: duration minus child-covered time.

    Children may overlap one another (probes fanned over worker
    threads) or, for spans adopted from another thread, stick out of
    the parent; the covered part is the union of the child intervals
    clipped to the parent.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        parent = span[3]
        if parent >= 0:
            children.setdefault(parent, []).append((span[1], span[2]))
    result = []
    for index, span in enumerate(spans):
        start, end = span[1], span[2]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        result.append(max(0.0, (end - start) - covered))
    return result


def write_spans(path, workload: str, rounds: Sequence[Tracer]) -> None:
    """Write every traced round's spans to one JSON file."""
    payload = {
        "workload": workload,
        "rounds": [
            {"spans": tracer.as_dicts(), "counts": tracer.counts}
            for tracer in rounds
        ],
    }
    with open(path, "w") as handle:
        json.dump(payload, handle)
