"""Spans around the simulator's public functions, for the traced run.

:class:`Tracer` replaces a function attribute with a wrapper that
records one span per call: name, start, end, parent span, cell id and
pid.  Functions are patched where their callers look them up, e.g.
``repro.sim.sweep.run_experiment`` (bound there by name) as well as
``repro.sim.parallel.run_experiment``.

Pool workers are forked from the traced process, so they inherit the
wrappers.  When a worker's outermost span ends it sends that span tree
to the host over a pipe (the sweep engine terminates its workers, so
nothing can wait for their exit); a host thread drains the pipe.
Spans stay in memory, so tracing costs one dict and list append per
call, plus one pipe message per cell in a worker.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

Span = Dict[str, Any]
#: Derives a span's cell id from the wrapped call's arguments.
CellOf = Callable[[Tuple[Any, ...], Dict[str, Any]], Optional[str]]
#: Adds result details to a finished span.
After = Callable[[Span, Tuple[Any, ...], Dict[str, Any], Any], None]


class Tracer:
    def __init__(self) -> None:
        self.host_pid = os.getpid()
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        #: Span trees received from workers, one list per cell.
        self.worker_trees: List[List[Span]] = []
        self._pipe = multiprocessing.get_context("fork").SimpleQueue()
        self._drain = threading.Thread(target=self._receive, daemon=True)
        self._drain.start()
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        # The fork copied the host's spans and open stack; a worker
        # reports only its own.
        self.spans = []
        self._stack = []

    def _receive(self) -> None:
        while True:
            tree = self._pipe.get()
            if tree is None:
                return
            self.worker_trees.append(tree)

    def close(self) -> None:
        """Restore the patched functions and stop draining worker spans."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
        self._pipe.put(None)
        self._drain.join(timeout=30)
        self._pipe.close()

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        cell_of: Optional[CellOf] = None,
        after: Optional[After] = None,
    ) -> None:
        """Record a ``name`` span around every call of ``owner.attr``.

        An attribute the program no longer has is left alone: a refactor
        that drops a binding (say ``figures.order_sweep``) must not stop
        the traced run, and the layer behind it then reads 0.
        """
        original = getattr(owner, attr, None)
        if original is None:
            return
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack
            parent = stack[-1] if stack else None
            cell = cell_of(args, kwargs) if cell_of is not None else None
            if cell is None and parent is not None:
                cell = tracer.spans[parent]["cell"]
            span: Span = {
                "name": name,
                "parent": parent,
                "cell": cell,
                "pid": os.getpid(),
            }
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                out = original(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(span, args, kwargs, out)
            if not stack and span["pid"] != tracer.host_pid:
                tracer._pipe.put(tracer.spans)
                tracer.spans = []
            return out

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def trees(self) -> List[List[Span]]:
        """The host's spans, then each worker cell's span tree."""
        return [self.spans] + self.worker_trees


def self_times(trees: List[List[Span]]) -> Dict[str, float]:
    """Seconds per span name, minus the time its direct children cover.

    Parent indices point into the span's own tree.
    """
    totals: Dict[str, float] = {}
    for tree in trees:
        child_time = [0.0] * len(tree)
        for span in tree:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        for index, span in enumerate(tree):
            own = span["end"] - span["start"] - child_time[index]
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
    return totals
