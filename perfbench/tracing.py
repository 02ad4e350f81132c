"""Layer spans timed from outside the library.

A :class:`Tracer` replaces public callables of :mod:`repro` (module
functions and class methods) with timing wrappers for the duration of a
``with tracer.installed():`` block, and puts every original back when the
block exits. Each call records one span ``(name, start_ns, end_ns,
parent)`` in memory; :func:`self_times` turns the spans into per-layer
self time, which is a span's duration minus the time its child spans
cover. Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

Span = tuple[str, int, int, int]
Hook = Callable[[Any, tuple, dict], None]


@dataclass(frozen=True)
class Target:
    """One callable to time: ``owner`` is ``"module"`` or
    ``"module:Class"``. With ``aliases`` set, every loaded ``repro``
    module that imported the same function by name is patched too, so
    no call path escapes the wrapper."""

    span: str
    owner: str
    attr: str
    aliases: bool = False

    @property
    def key(self) -> str:
        """Hook key: ``module.function`` or ``module:Class.method``."""
        return f"{self.owner}.{self.attr}"


def _resolve(owner: str) -> Any:
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records spans for the wrapped targets while installed.

    ``hooks`` maps a :attr:`Target.key` to a callback ``(result, args,
    kwargs)`` run after the span closes; callbacks only stash values,
    so their cost lands in the parent span, never in the layer they
    observe.
    """

    def __init__(
        self,
        targets: Sequence[Target],
        hooks: dict[str, Hook] | None = None,
    ) -> None:
        self.targets = tuple(targets)
        self.hooks = dict(hooks or {})
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        name = target.span
        hook = self.hooks.get(target.key)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append((name, 0, 0, -1))
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if hook is not None:
                hook(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _patch(self, owner: Any, attr: str, wrapped: Any) -> None:
        original = (
            owner.__dict__[attr] if isinstance(owner, type)
            else getattr(owner, attr)
        )
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def _install(self, target: Target) -> None:
        owner = _resolve(target.owner)
        if isinstance(owner, type):
            raw = owner.__dict__[target.attr]
            self._patch(owner, target.attr, self._wrap(raw, target))
            return
        original = getattr(owner, target.attr)
        wrapped = self._wrap(original, target)
        holders = [owner]
        if target.aliases:
            holders += [
                mod for name, mod in sorted(sys.modules.items())
                if name.startswith("repro") and mod is not owner
                and getattr(mod, target.attr, None) is original
            ]
        for holder in holders:
            self._patch(holder, target.attr, wrapped)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every target; restore the originals on exit."""
        try:
            for target in self.targets:
                self._install(target)
            yield self
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)
            self._stack.clear()


def self_times(spans: Sequence[Span]) -> dict[str, int]:
    """Per-name self time in ns: each span's duration minus the
    durations of its direct children (children of one span run one
    after another, so their durations are the time they cover)."""
    child_ns = [0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, int] = {}
    for i, (name, start, end, _parent) in enumerate(spans):
        out[name] = out.get(name, 0) + (end - start - child_ns[i])
    return out


def call_counts(spans: Sequence[Span]) -> dict[str, int]:
    out: dict[str, int] = {}
    for name, *_ in spans:
        out[name] = out.get(name, 0) + 1
    return out


def write_spans(path: Path, ops: Sequence[Sequence[Span]]) -> None:
    """Dump the spans of each traced operation as tab-separated
    ``op index name start_ns end_ns parent`` rows (``parent`` indexes
    the same operation's spans, -1 for a root)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write("op\tindex\tname\tstart_ns\tend_ns\tparent\n")
        for op, spans in enumerate(ops):
            for i, (name, start, end, parent) in enumerate(spans):
                fh.write(f"{op}\t{i}\t{name}\t{start}\t{end}\t{parent}\n")
