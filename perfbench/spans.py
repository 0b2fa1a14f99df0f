"""In-memory span recording around the program's public functions.

The benchmark traces from its own files: :meth:`Tracer.patch` replaces a
module or class attribute with a wrapper that records one span per call
(name, start, end, parent span, op id) while ``Tracer.active`` is set.  The
program's modules look those attributes up at call time, so the wrappers see
every call the EPTAS driver, the service and the runner make.

Spans stay in memory.  Worker processes forked by the runner inherit the
patched modules; :meth:`Tracer.flush_child` writes what a child recorded to
its own file, and :meth:`Tracer.merge_dir` reads those files back.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

from benchstats import Span

# Called with (tracer, result, args, kwargs) after a call returns, or with
# (tracer, exception, args, kwargs) after it raises.
Hook = Callable[["Tracer", Any, tuple, dict], None]


class Tracer:
    """Span buffer plus counters of one process."""

    def __init__(self) -> None:
        self.active = False
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._pid = os.getpid()
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # A forked worker starts with an empty buffer; what it records is
        # written out by flush_child and merged by the parent.
        self.spans = []
        self.counts = {}
        self._lock = threading.Lock()
        self._ids = itertools.count()

    # -- spans ---------------------------------------------------------
    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def new_op(self) -> str:
        """A fresh op id; spans begun with it become the thread's current op."""
        return f"op{os.getpid()}.{next(self._ids)}"

    def _begin(self, op: str | None = None) -> tuple[str, str | None, str | None, float]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op is None:
            op = getattr(self._local, "op", None)
        else:
            self._local.op = op
        sid = f"{os.getpid()}.{next(self._ids)}"
        stack.append(sid)
        return sid, parent, op, time.perf_counter()

    def _end(self, name: str, token: tuple[str, str | None, str | None, float]) -> None:
        end = time.perf_counter()
        sid, parent, op, start = token
        self._stack().pop()
        self.spans.append(Span(sid, parent, name, start, end, op))

    @contextmanager
    def span(self, name: str, op: str | None = None) -> Iterator[None]:
        """Record one span around the block (only while active)."""
        if not self.active:
            yield
            return
        token = self._begin(op)
        try:
            yield
        finally:
            self._end(name, token)

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + amount

    # -- patching ------------------------------------------------------
    def patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        on_result: Hook | None = None,
        on_error: Hook | None = None,
        starts_op: bool = False,
    ) -> None:
        """Wrap ``owner.attr`` so each call records a span named ``name``.

        ``starts_op`` gives the calling thread a new op id first (a claim or
        a server-side submit opens a new unit of work).  The wrapper carries
        the original's module and qualified name, so a patched function
        still pickles by reference into a worker process.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return original(*args, **kwargs)
            token = tracer._begin(tracer.new_op() if starts_op else None)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                tracer._end(name, token)
                if on_error is not None and isinstance(exc, Exception):
                    on_error(tracer, exc, args, kwargs)
                raise
            tracer._end(name, token)
            if on_result is not None:
                on_result(tracer, result, args, kwargs)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def unpatch(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- forked workers ------------------------------------------------
    def flush_child(self, directory: Path) -> None:
        """Write a forked worker's spans and counters, then clear them."""
        if os.getpid() == self._pid:
            return
        with self._lock:
            spans, counts = self.spans, self.counts
            self.spans, self.counts = [], {}
        path = directory / f"spans-{os.getpid()}-{next(self._ids)}.json"
        payload = {"spans": [list(span.__dict__.values()) for span in spans], "counts": counts}
        path.write_text(json.dumps(payload))

    def merge_dir(self, directory: Path) -> None:
        """Fold the span files that forked workers wrote into this buffer."""
        for path in sorted(directory.glob("spans-*.json")):
            payload = json.loads(path.read_text())
            self.spans.extend(Span(*fields) for fields in payload["spans"])
            for key, amount in payload["counts"].items():
                self.count(key, amount)
            path.unlink()
