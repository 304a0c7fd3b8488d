"""Span tracing applied from outside the program under test.

Nothing in ``src/`` is edited: :meth:`Tracer.wrap` replaces a function
or method with a timing wrapper at every place its callers look it up
(module globals of every loaded ``repro`` module, the defining class,
and default argument values such as ``SerialExecutor.run(fn=execute_job)``),
and :meth:`Tracer.restore` puts the originals back.

Each call of a wrapped function records one :class:`Span` — name,
start, end, parent and op id — in memory.  The parent is the span open
in the calling context (a :mod:`contextvars` variable, so it follows
asyncio tasks and ``asyncio.to_thread``), and the op id is inherited
from it.  Spans are written out once, at the end of a run, by
:func:`write_spans`; :func:`self_times` turns them into per-name self
time (duration minus the time covered by child spans).
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import sys
import time
from collections import defaultdict

__all__ = ["Span", "Tracer", "write_spans", "read_spans", "self_times"]

_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)


class Span:
    """One timed call: ``[t0, t1]`` in ``time.perf_counter`` seconds."""

    __slots__ = ("sid", "parent", "op", "name", "t0", "t1", "attrs")

    def __init__(self, sid, parent, op, name, t0, attrs=None):
        self.sid = sid
        self.parent = parent
        self.op = op
        self.name = name
        self.t0 = t0
        self.t1 = t0
        self.attrs = attrs

    def has_ancestor(self, name: str) -> bool:
        node = self
        while node is not None:
            if node.name == name:
                return True
            node = node.parent
        return False

    def as_record(self) -> dict:
        return {
            "id": self.sid,
            "parent": self.parent.sid if self.parent is not None else None,
            "op": self.op,
            "name": self.name,
            "start": self.t0,
            "end": self.t1,
            "attrs": self.attrs,
        }


class Tracer:
    """Keeps spans in memory and the patches needed to undo wrapping."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._undo: list = []

    # -- spans ------------------------------------------------------------
    def open(self, name: str, *, op=None, shared=False) -> tuple:
        """Start a span; returns ``(span, token)`` for :meth:`close`.

        A *shared* span (a serve batch holding several requests' jobs)
        has no parent and no op: the accounting charges it to every
        request whose job it carried.
        """
        parent = None if shared else _CURRENT.get()
        if op is None and parent is not None:
            op = parent.op
        span = Span(next(self._ids), parent, op, name, time.perf_counter())
        return span, _CURRENT.set(span)

    def close(self, span: Span, token) -> None:
        span.t1 = time.perf_counter()
        _CURRENT.reset(token)
        self.spans.append(span)

    # -- wrapping ---------------------------------------------------------
    def wrap(self, module: str, qualname: str, name, *, post=None,
             skip_under: str | None = None, shared: bool = False,
             pre=None) -> None:
        """Time every call of ``module.qualname`` as a span.

        ``name`` is the span name or a callable ``(args, kwargs) -> name``.
        ``pre(span, args, kwargs)`` and ``post(span, result, args)`` may
        attach attributes; ``skip_under`` passes calls made inside a span
        of that name straight through (their time stays the ancestor's).
        """
        mod = sys.modules[module]
        owner, attr = mod, qualname
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            owner = getattr(mod, cls_name)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        wrapper = self._make_wrapper(original, name, post, skip_under, shared, pre)
        if isinstance(owner, type):
            self._set(owner, attr, wrapper)
        self._replace_references(original, wrapper)

    def _make_wrapper(self, fn, name, post, skip_under, shared, pre):
        tracer = self

        def span_name(args, kwargs):
            return name(args, kwargs) if callable(name) else name

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                span, token = tracer.open(span_name(args, kwargs), shared=shared)
                if pre is not None:
                    pre(span, args, kwargs)
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    tracer.close(span, token)
                if post is not None:
                    post(span, result, args)
                return result

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if skip_under is not None:
                current = _CURRENT.get()
                if current is not None and current.has_ancestor(skip_under):
                    return fn(*args, **kwargs)
            span, token = tracer.open(span_name(args, kwargs), shared=shared)
            if pre is not None:
                pre(span, args, kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span, token)
            if post is not None:
                post(span, result, args)
            return result

        return wrapper

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_references(self, original, wrapper) -> None:
        """Swap ``original`` for ``wrapper`` wherever a repro module holds it."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)
                elif isinstance(value, type) and value.__module__ == mod_name:
                    for member in list(vars(value).values()):
                        self._swap_default(member, original, wrapper)
                elif inspect.isfunction(value):
                    self._swap_default(value, original, wrapper)

    def _swap_default(self, fn, original, wrapper) -> None:
        fn = getattr(fn, "__func__", fn)
        if not inspect.isfunction(fn):
            return
        defaults = fn.__defaults__
        if defaults and any(d is original for d in defaults):
            self._undo.append((fn, "__defaults__", defaults))
            fn.__defaults__ = tuple(wrapper if d is original else d for d in defaults)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def write_spans(spans, path) -> None:
    """One JSON object per line, in end-time order."""
    with open(path, "w") as handle:
        for span in spans:
            handle.write(json.dumps(span.as_record(), separators=(",", ":")))
            handle.write("\n")


def read_spans(path) -> list[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def self_times(records: list[dict]) -> dict[int, float]:
    """Span id → self time: duration minus the union of child durations.

    Children of one span never overlap in this benchmark (every traced
    call path is sequential within its context), so the union is the
    sum of child durations.
    """
    child_total: dict = defaultdict(float)
    for rec in records:
        if rec["parent"] is not None:
            child_total[rec["parent"]] += rec["end"] - rec["start"]
    return {
        rec["id"]: (rec["end"] - rec["start"]) - child_total[rec["id"]]
        for rec in records
    }
