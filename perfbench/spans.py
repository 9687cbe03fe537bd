"""Span recorder for the benchmark's traced runs.

The benchmark measures per-layer cost by wrapping public callables of the
program where their callers look them up (a class attribute for methods,
the importing module's global for functions). Each wrapped call records
one span: name, start, end, parent span and root span. Spans nest through
a per-thread stack, so a call made inside another wrapped call on the same
thread becomes its child; every span carries the id of its thread's root
span. Coroutine wrappers (the asyncio client) do not join the stack,
because coroutines interleave on one thread: their spans are roots.

Spans stay in memory. :func:`summarize` folds a process's spans into
per-name totals small enough to send over a pipe; a layer's self time is
its span's duration minus the part of that interval its child spans cover
(:func:`self_times`).

Recording is gated by an optional shared flag (a ``multiprocessing``
``RawValue``) so one process can open and close the measurement window for
itself and for the worker processes it forked.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import statistics
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: One finished span: (name, span_id, parent_id, root_id, start_ns, end_ns,
#: frames, error, extra). ``parent_id`` is 0 for a root; ``extra`` is None
#: or a dict of numeric counters read from the call's result.
Span = Tuple[str, int, int, int, int, int, int, bool, Optional[Dict[str, float]]]

#: ``describe(args, kwargs, result) -> (frames, extra)``, run after the
#: span's end time is taken.
Describe = Callable[[tuple, dict, Any], Tuple[int, Optional[Dict[str, float]]]]


class Tracer:
    """In-memory span recorder with a per-thread nesting stack.

    Args:
        active: Optional shared flag with a ``value`` attribute; spans are
            recorded only while it is true. ``None`` records always.
    """

    def __init__(self, active: Any = None) -> None:
        self.active = active
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    def enabled(self) -> bool:
        return self.active is None or bool(self.active.value)

    def reset(self) -> None:
        """Drop recorded spans (a forked child calls this on its copy)."""
        self.spans = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- wrapping ------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        describe: Optional[Describe] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        A coroutine function gets a coroutine wrapper whose spans are roots:
        coroutines interleave on one thread, so they cannot share its stack.
        """
        if isinstance(owner, type):
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        tracer = self

        def finish(span, start, args, kwargs, result) -> None:
            end = time.perf_counter_ns()
            frames, extra = describe(args, kwargs, result) if describe else (0, None)
            tracer.spans.append((name, *span, start, end, frames, False, extra))

        def fail(span, start) -> None:
            end = time.perf_counter_ns()
            tracer.spans.append((name, *span, start, end, 0, True, None))

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                if not tracer.enabled():
                    return await original(*args, **kwargs)
                span_id = next(tracer._ids)
                span = (span_id, 0, span_id)
                start = time.perf_counter_ns()
                try:
                    result = await original(*args, **kwargs)
                except BaseException:
                    fail(span, start)
                    raise
                finish(span, start, args, kwargs, result)
                return result

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if not tracer.enabled():
                    return original(*args, **kwargs)
                stack = tracer._stack()
                span_id = next(tracer._ids)
                parent_id, root_id = stack[-1] if stack else (0, span_id)
                span = (span_id, parent_id, root_id)
                stack.append((span_id, root_id))
                start = time.perf_counter_ns()
                try:
                    result = original(*args, **kwargs)
                except BaseException:
                    stack.pop()
                    fail(span, start)
                    raise
                stack.pop()
                finish(span, start, args, kwargs, result)
                return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# arithmetic over finished spans
# ----------------------------------------------------------------------
def _covered(
    parent_start: int, parent_end: int, intervals: Iterable[Tuple[int, int]]
) -> int:
    """Length of the union of ``intervals`` clipped to the parent's."""
    clipped = sorted(
        (max(start, parent_start), min(end, parent_end))
        for start, end in intervals
        if end > parent_start and start < parent_end
    )
    total = 0
    run_start, run_end = None, None
    for start, end in clipped:
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, int]:
    """Self time (ns) per span id: duration minus what children cover."""
    children: Dict[int, List[Tuple[int, int]]] = {}
    for span in spans:
        if span[2]:
            children.setdefault(span[2], []).append((span[4], span[5]))
    return {
        span[1]: (span[5] - span[4])
        - _covered(span[4], span[5], children.get(span[1], ()))
        for span in spans
    }


def summarize(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per-name totals: calls, wall_ns, self_ns, wall_p50_ns, frames, errors.

    Keys of ``extra`` are summed, except ``max_*`` keys, which keep the
    largest value seen.
    """
    own = self_times(spans)
    walls: Dict[str, List[int]] = {}
    out: Dict[str, Dict[str, float]] = {}
    for name, span_id, _, _, start, end, frames, error, extra in spans:
        row = out.setdefault(
            name,
            {"calls": 0, "wall_ns": 0, "self_ns": 0, "frames": 0, "errors": 0},
        )
        row["calls"] += 1
        row["wall_ns"] += end - start
        row["self_ns"] += own[span_id]
        row["frames"] += frames
        row["errors"] += int(error)
        walls.setdefault(name, []).append(end - start)
        for key, value in (extra or {}).items():
            if key.startswith("max_"):
                row[key] = max(row.get(key, value), value)
            else:
                row[key] = row.get(key, 0) + value
    for name, row in out.items():
        row["wall_p50_ns"] = statistics.median(walls[name])
    return out


def merge(
    summaries: Iterable[Dict[str, Dict[str, float]]],
) -> Dict[str, Dict[str, float]]:
    """Combine per-process summaries (``wall_p50_ns`` keeps the first seen)."""
    out: Dict[str, Dict[str, float]] = {}
    for summary in summaries:
        for name, row in summary.items():
            into = out.setdefault(name, {})
            for key, value in row.items():
                if key == "wall_p50_ns":
                    into.setdefault(key, value)
                elif key.startswith("max_"):
                    into[key] = max(into.get(key, value), value)
                else:
                    into[key] = into.get(key, 0) + value
    return out
