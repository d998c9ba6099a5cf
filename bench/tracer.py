"""In-memory span recorder that times calls into a package from outside.

A traced function is replaced by a wrapper at every module attribute that
binds it, because the package imports by name (`from .gp import
fit_regression`): patching only the home module would miss the calls made
through the other bindings. Methods are replaced on their class.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    experiment: int
    info: Any = None  # what the span's `info` function extracted from its call

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one span per traced call; `experiment` tags the spans that follow."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.experiment = -1
        self._stack: list[int] = []

    def _open(self) -> tuple[int, int]:
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        return index, parent

    def _close(self, index: int, parent: int, name: str, start: float, end: float, info=None):
        self._stack.pop()
        self.spans[index] = Span(name, start, end, parent, self.experiment, info)

    def _wrap(self, name: str, fn: Callable, info: Callable | None) -> Callable:
        def traced(*args, **kwargs):
            index, parent = self._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(index, parent, name, start, perf_counter())
                raise
            end = perf_counter()
            self._close(index, parent, name, start, end, None if info is None else info(args, kwargs, result))
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """Time a block as one span, e.g. the root span of an experiment."""
        index, parent = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(index, parent, name, start, perf_counter())

    @contextmanager
    def installed(self, targets):
        """Wrap every target for the duration of the block.

        A target is (span name, owner, attribute, info): `owner` is a module
        or a class, and `info(args, kwargs, result)` returns what to record
        on the span. For a module owner, every attribute of every loaded
        module of the owner's package that is the same object is replaced.
        """
        undo = []
        try:
            for name, owner, attribute, info in targets:
                original = getattr(owner, attribute)
                wrapped = self._wrap(name, original, info)
                if isinstance(owner, type):
                    places = [(owner, attribute)]
                else:
                    places = [(m, key) for m in _package_modules(owner) for key, value in vars(m).items() if value is original]
                for place, key in places:
                    undo.append((place, key, original))
                    setattr(place, key, wrapped)
            yield
        finally:
            for place, key, original in reversed(undo):
                setattr(place, key, original)


def _package_modules(module) -> list:
    package = module.__name__.split(".")[0]
    return [m for key, m in list(sys.modules.items()) if key == package or key.startswith(package + ".")]
