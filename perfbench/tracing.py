"""In-memory spans around the package's public functions.

A traced command replaces module attributes with timing wrappers while it runs
(``Tracer.patched``) and restores them afterwards, so the package source is
unchanged.  A span records its name, start, end and parent; spans stay in
memory until the process reports them.  A span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = float("nan")
    child_time: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        parent_id = None if parent is None else parent.id
        span = Span(len(self.spans), name, parent_id, time.perf_counter(), attrs=attrs)
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_time += span.duration

    def wrap(self, name: str, fn, record=None):
        """A wrapper that opens a span per call.

        ``record(span, args, kwargs, result)``, if given, runs after the call,
        outside the span, to attach attributes such as bytes or draws.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if record is not None:
                record(span, args, kwargs, result)
            return result

        return traced

    def wrap_minimize(self, minimize):
        """Wrap ``scipy.optimize.minimize`` so the objective and gradient it is handed are spanned.

        With ``jac=True`` the objective returns the gradient too; it is then
        recorded as one combined callable.
        """
        signature = inspect.signature(minimize)

        @functools.wraps(minimize)
        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            jac = bound.arguments.get("jac")
            if jac is True:
                bound.arguments["fun"] = self.wrap("fit.objective_and_gradient", bound.arguments["fun"])
            else:
                bound.arguments["fun"] = self.wrap("fit.objective", bound.arguments["fun"])
                if callable(jac):
                    bound.arguments["jac"] = self.wrap("fit.gradient", jac)
            with self.span("scipy.minimize"):
                return minimize(*bound.args, **bound.kwargs)

        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Replace ``owner.attr`` by ``make(original)`` for each (owner, attr, make); restore on exit.

        Targets whose attribute is missing are skipped and returned in
        ``missing`` so the run can mark their layers absent.
        """
        saved = []
        missing = []
        try:
            for owner, attr, make in targets:
                if attr not in vars(owner):
                    missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                    continue
                raw = vars(owner)[attr]
                saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(make(raw.__func__)))
                else:
                    setattr(owner, attr, make(raw))
            yield missing
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def to_records(self) -> list[dict]:
        """Finished spans as JSON-ready dicts, attributes merged in."""
        return [
            {
                "id": s.id,
                "name": s.name,
                "parent": s.parent,
                "start": s.start,
                "end": s.end,
                "duration": s.duration,
                "self": s.self_time,
                **s.attrs,
            }
            for s in self.spans
        ]
