"""Outside-in spans and probes for the hotcold benchmark.

Nothing in the package is edited. For a traced pass, each traced function
is replaced by a timing wrapper on the module attribute that its caller
looks the name up on (``engine`` does ``from .channel import rssi``, so the
engine's calls go through ``hotcold.engine.rssi``, not
``hotcold.channel.rssi``). Afterwards every attribute is put back, and a
snapshot of the modules' attributes taken before shows it is the original
object again.

Each span keeps its call count, its total time and the time covered by
spans nested inside it, which gives its self time. Everything stays in
memory; the benchmark writes it out when the run ends.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from types import ModuleType
from typing import Callable

_now = time.perf_counter_ns


@dataclass
class Span:
    name: str
    calls: int = 0
    total_ns: int = 0
    child_ns: int = 0
    counts: dict[str, float] = field(default_factory=dict)

    def add(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def to_dict(self) -> dict:
        return {
            "calls": self.calls,
            "total_s": self.total_ns / 1e9,
            "self_s": (self.total_ns - self.child_ns) / 1e9,
            "counts": dict(self.counts),
        }


class Patcher:
    """Replaces module or class attributes and puts the originals back."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, owner: object, attr: str, new: object) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def restore(self) -> None:
        """Put the originals back, last patch first."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def snapshot(modules: list[ModuleType], classes: list[type]) -> dict[str, object]:
    """Every attribute of the given modules and classes, by qualified name."""
    snap = {}
    for owner in [*modules, *classes]:
        prefix = owner.__name__ if isinstance(owner, ModuleType) else (
            f"{owner.__module__}.{owner.__qualname__}")
        for name, value in vars(owner).items():
            snap[f"{prefix}.{name}"] = value
    return snap


def snapshot_changes(before: dict[str, object], after: dict[str, object]) -> list[str]:
    """Names whose attribute is not the same object in both snapshots."""
    missing = object()
    return sorted(k for k in before.keys() | after.keys()
                  if before.get(k, missing) is not after.get(k, missing))


class Tracer:
    """Span bookkeeping shared by every wrapper of a run's traced passes."""

    def __init__(self) -> None:
        self.spans: dict[str, Span] = {}
        self._stack: list[int] = []  # child time accumulated by each open span

    def span(self, name: str) -> Span:
        if name not in self.spans:
            self.spans[name] = Span(name)
        return self.spans[name]

    def wrap(
        self,
        name: str | Callable[[tuple], str],
        fn: Callable,
        pre: Callable[[tuple], object] | None = None,
        post: Callable[[Span, tuple, object, object], None] | None = None,
    ) -> Callable:
        """Timing wrapper around fn. `name` may be a function of the call's
        positional arguments; `pre` runs before the call and its value goes
        to `post`, which runs after it, outside the timed interval."""
        stack = self._stack
        fixed = None if callable(name) else self.span(name)

        def wrapper(*args, **kwargs):
            span = fixed or self.span(name(args))
            token = pre(args) if pre is not None else None
            stack.append(0)
            start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _now() - start
                child = stack.pop()
                span.calls += 1
                span.total_ns += elapsed
                span.child_ns += child
                if stack:
                    stack[-1] += elapsed
            if post is not None:
                post(span, args, token, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        """Untimed wrapper that only counts calls (object constructions)."""
        span = self.span(name)

        def wrapper(*args, **kwargs):
            span.calls += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper


class RunProbe:
    """Times every run_simulation call of the untraced passes from outside:
    two clock reads per call of a few milliseconds or more."""

    def __init__(self) -> None:
        self.run_ms: list[float] = []

    def time_runs(self, fn: Callable) -> Callable:
        samples = self.run_ms

        def wrapper(*args, **kwargs):
            start = _now()
            result = fn(*args, **kwargs)
            samples.append((_now() - start) / 1e6)
            return result

        wrapper.__wrapped__ = fn
        return wrapper
