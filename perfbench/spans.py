"""In-memory span recording around public calls, resolved by dotted name.

The benchmark measures layers from outside the program: each wrap target
is a dotted name (``package.module.Class.method`` or ``package.module.func``)
whose attribute is swapped for a recording wrapper while a
:class:`Tracer` is installed.  A target that no longer resolves is recorded
as *absent* instead of failing the run, so refactors that delete a layer's
entry point leave the rest of the trace intact.

A span is ``(name, start, end, parent, request)``.  Self time is a span's
duration minus the part of its interval covered by its children (overlapping
children are merged first, so concurrent children are not counted twice).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: str | None


@dataclass
class WrapTarget:
    """One public call to time: ``dotted`` names the attribute to wrap.

    ``on_result(args, kwargs, result, tracer)`` may record counts taken from
    the call's arguments or result (e.g. cells scored, BP iterations).
    """

    span: str
    dotted: str
    on_result: Callable[..., None] | None = None


def resolve(dotted: str) -> tuple[Any, str, Any]:
    """``(owner, attribute, raw value)`` for a dotted name.

    The longest importable module prefix is imported, the rest walked as
    attributes.  Raw values come from ``__dict__`` for classes so
    ``classmethod``/``staticmethod`` descriptors survive a re-wrap.  Raises
    ``LookupError`` when any part is missing.
    """
    parts = dotted.split(".")
    module = None
    index = len(parts) - 1
    while index > 0:
        try:
            module = importlib.import_module(".".join(parts[:index]))
            break
        except ImportError:
            index -= 1
    if module is None:
        raise LookupError(f"no importable module in {dotted!r}")
    owner: Any = module
    for part in parts[index:-1]:
        if not hasattr(owner, part):
            raise LookupError(f"{dotted!r}: {part!r} not found")
        owner = getattr(owner, part)
    attribute = parts[-1]
    if inspect.isclass(owner):
        for klass in owner.__mro__:
            if attribute in klass.__dict__:
                return owner, attribute, klass.__dict__[attribute]
        raise LookupError(f"{dotted!r}: {attribute!r} not found")
    if not hasattr(owner, attribute):
        raise LookupError(f"{dotted!r}: {attribute!r} not found")
    return owner, attribute, getattr(owner, attribute)


class Tracer:
    """Records spans for every installed wrap target (one per process)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.absent: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._installed: list[tuple[Any, str, Any, bool]] = []
        #: while False, installed wrappers call straight through
        self.enabled = True

    # -- recording -------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def request(self) -> str | None:
        return getattr(self._local, "request", None)

    @request.setter
    def request(self, value: str | None) -> None:
        self._local.request = value

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0.0) + amount

    def open(self, name: str) -> tuple[int, int | None, float]:
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def close(self, handle: tuple[int, int | None, float], name: str) -> None:
        end = time.perf_counter()
        span_id, parent, start = handle
        stack = self._stack()
        if stack and stack[-1] == span_id:
            stack.pop()
        with self._lock:
            self.spans.append(
                Span(span_id, name, start, end, parent, self.request)
            )

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block."""
        handle = self.open(name)
        try:
            yield
        finally:
            self.close(handle, name)

    # -- installation ----------------------------------------------------
    def _wrap_function(self, target: WrapTarget, function: Callable) -> Callable:
        tracer = self
        name = target.span

        if inspect.isgeneratorfunction(function):
            # a generator's work happens per next(): each resumption is one
            # segment of the span, so consumer work between items is excluded
            @functools.wraps(function)
            def generator_wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return (yield from function(*args, **kwargs))
                iterator = function(*args, **kwargs)
                try:
                    while True:
                        handle = tracer.open(name)
                        try:
                            item = next(iterator)
                        except StopIteration:
                            return
                        finally:
                            tracer.close(handle, name)
                        yield item
                finally:
                    iterator.close()

            return generator_wrapper

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return function(*args, **kwargs)
            handle = tracer.open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.close(handle, name)
            if target.on_result is not None:
                # a child span of the caller, so counting never shows up
                # as the caller's own time
                with tracer.span("bench.hook"):
                    target.on_result(args, kwargs, result, tracer)
            return result

        return wrapper

    def install(self, targets: list[WrapTarget]) -> None:
        """Wrap every resolvable target; unresolvable ones go to ``absent``."""
        for target in targets:
            try:
                owner, attribute, raw = resolve(target.dotted)
            except LookupError:
                self.absent.append(target.dotted)
                continue
            if isinstance(raw, classmethod):
                wrapped: Any = classmethod(self._wrap_function(target, raw.__func__))
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap_function(target, raw.__func__))
            elif callable(raw):
                wrapped = self._wrap_function(target, raw)
            else:
                self.absent.append(target.dotted)
                continue
            # an inherited method is shadowed on the subclass, then removed
            restore = not inspect.isclass(owner) or attribute in owner.__dict__
            self._installed.append((owner, attribute, raw, restore))
            setattr(owner, attribute, wrapped)

    def uninstall(self) -> None:
        for owner, attribute, raw, restore in reversed(self._installed):
            if restore:
                setattr(owner, attribute, raw)
            else:
                delattr(owner, attribute)
        self._installed.clear()

    def reset(self) -> None:
        with self._lock:
            self.spans = []
            self.counts = {}


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: duration minus the union of its children."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        intervals = sorted(
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(span.span_id, ())
        )
        cursor = span.start
        for start, end in intervals:
            start = max(start, cursor)
            if end > start:
                covered += end - start
                cursor = end
        result[span.span_id] = max(span.end - span.start - covered, 0.0)
    return result
