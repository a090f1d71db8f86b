"""Hierarchical tracing spans with a determinism-safe, near-free off switch.

The whole subsystem is built around one invariant inherited from every layer
of this repository: **observability on vs. off is byte-identical**.  Spans
therefore touch only ``time.perf_counter()``, plain dicts and lists — never
RNG streams, never estimate values — and the disabled fast path costs a
single module-global attribute check before returning a shared no-op
singleton, so estimator hot loops can be instrumented unconditionally.

Spans nest through a :mod:`contextvars` stack, which makes them correct both
on the estimate server's executor threads and inside asyncio handlers:

    with span("lss.design", optimizer="dynpgm"):
        ...

Completed root spans are kept in a bounded ring buffer for export
(:mod:`repro.obs.export`); a long-running service never accumulates
unbounded trace state.

Enablement comes from the ``REPRO_OBS`` environment variable at import time
and can be flipped at runtime with :func:`set_enabled` (tests, benchmarks,
warm-pool workers).
"""

from __future__ import annotations

import collections
import contextvars
import os
import time
from typing import Deque

#: Metric names shared with the instrumentation call sites.
STAGE_SECONDS = "repro_stage_seconds"

#: Completed root spans retained for export (bounded: a resident service
#: must not grow trace state without bound).
_TRACE_BUFFER_LIMIT = 256

_FALSEY = ("", "0", "false", "no", "off")

_enabled: bool = os.environ.get("REPRO_OBS", "").strip().lower() not in _FALSEY

#: The innermost active span of the current thread/task (contextvar, so
#: executor threads and asyncio tasks each see their own stack).
_ACTIVE: contextvars.ContextVar["Span | None"] = contextvars.ContextVar(
    "repro_obs_active_span", default=None
)

_FINISHED_ROOTS: Deque["Span"] = collections.deque(maxlen=_TRACE_BUFFER_LIMIT)


def enabled() -> bool:
    """Whether instrumentation records anything at all (the one hot check)."""
    return _enabled


def set_enabled(value: bool) -> bool:
    """Flip instrumentation on/off; returns the previous state."""
    global _enabled
    previous = _enabled
    _enabled = bool(value)
    return previous


class Span:
    """One timed, named region of work; nests into a tree via the context stack.

    Timing uses the monotonic :func:`time.perf_counter` only — a span can
    never perturb seeded randomness or estimate bytes, whatever it wraps.
    """

    __slots__ = ("name", "attributes", "children", "started_at", "duration_seconds",
                 "_parent", "_token", "_observe_stage")

    def __init__(self, name: str, attributes: dict | None = None,
                 observe_stage: bool = False) -> None:
        self.name = name
        self.attributes = attributes or {}
        self.children: list[Span] = []
        self.started_at = 0.0
        self.duration_seconds = 0.0
        self._parent: Span | None = None
        self._token: contextvars.Token | None = None
        self._observe_stage = observe_stage

    def __enter__(self) -> "Span":
        self._parent = _ACTIVE.get()
        self._token = _ACTIVE.set(self)
        self.started_at = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.duration_seconds = time.perf_counter() - self.started_at
        if self._token is not None:
            _ACTIVE.reset(self._token)
            self._token = None
        if self._parent is not None:
            self._parent.children.append(self)
        else:
            _FINISHED_ROOTS.append(self)
        if self._observe_stage:
            from repro.obs.metrics import registry

            registry().observe(STAGE_SECONDS, self.duration_seconds, stage=self.name)

    def to_dict(self) -> dict:
        """Plain-data form of the span tree (JSON export)."""
        payload: dict = {
            "name": self.name,
            "duration_seconds": self.duration_seconds,
        }
        if self.attributes:
            payload["attributes"] = dict(self.attributes)
        if self.children:
            payload["children"] = [child.to_dict() for child in self.children]
        return payload

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"Span({self.name!r}, {self.duration_seconds:.6f}s, {len(self.children)} children)"


class _NoopSpan:
    """The shared disabled-path span: every call site gets this singleton."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NOOP = _NoopSpan()


def span(name: str, **attributes: object) -> "Span | _NoopSpan":
    """A trace-only span (no metrics side effects beyond the trace tree)."""
    if not _enabled:
        return _NOOP
    return Span(name, attributes or None)


def stage(name: str, **attributes: object) -> "Span | _NoopSpan":
    """A span that also feeds the ``repro_stage_seconds`` histogram on exit.

    Used at estimator level for the *non-overlapping* per-stage regions
    (learning / scoring / pilot / design / stage-II), so summing the
    histogram per stage label yields an additive breakdown — inner detail
    spans use :func:`span` and stay out of the stage accounting.
    """
    if not _enabled:
        return _NOOP
    return Span(name, attributes or None, observe_stage=True)


def current_span() -> "Span | None":
    """The innermost active span of this thread/task (``None`` when disabled)."""
    if not _enabled:
        return None
    return _ACTIVE.get()


def current_span_name() -> "str | None":
    """Name of the innermost active span, for metric stage attribution."""
    active = current_span()
    return active.name if active is not None else None


def recent_traces() -> list[Span]:
    """Completed root spans, oldest first (bounded ring buffer)."""
    return list(_FINISHED_ROOTS)


def clear_traces() -> None:
    """Drop the retained root spans (tests, export rotation)."""
    _FINISHED_ROOTS.clear()
