"""The ``Telemetry`` sink: a span log plus the components' collectors.

Each event is counted once, by the component it happens in, and
reported through that component's ``.stats()`` snapshot.  The sink
holds only what no component can: the span timeline and the list of
``.stats()`` collectors it samples at snapshot time.

Components take an optional ``telemetry`` argument and default to the
shared :data:`NULL_TELEMETRY` sink, whose every method is a no-op and
whose ``enabled`` flag is False, so instrumented hot paths cost one
attribute test when telemetry is off.  Telemetry *never* feeds back
into cycle accounting: with the null sink or a real sink, simulated
cycle counts are identical by construction.

Wiring pattern (see docs/architecture.md)::

    tel = Telemetry()
    manager = SandboxManager(params, telemetry=tel)
    ... run work ...
    tel.snapshot()            # JSON-ready dict
    manager.stats().sandboxes # per-sandbox cycles
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from .spans import Span, SpanLog
from .stats import ComponentStats


class Telemetry:
    """A live span log + component collectors."""

    enabled = True

    def __init__(self, span_capacity: int = 100_000):
        self.spans = SpanLog(capacity=span_capacity)
        self._collectors: Dict[str, Callable[[], ComponentStats]] = {}

    # -- spans ---------------------------------------------------------
    def begin_span(self, name: str, cycle: int,
                   sandbox_id: Optional[int] = None,
                   **attrs) -> Optional[Span]:
        return self.spans.begin(name, cycle, sandbox_id=sandbox_id, **attrs)

    def end_span(self, cycle: int, name: Optional[str] = None,
                 **attrs) -> None:
        self.spans.end(cycle, name=name, **attrs)

    def event(self, name: str, cycle: int,
              sandbox_id: Optional[int] = None, **attrs) -> None:
        self.spans.event(name, cycle, sandbox_id=sandbox_id, **attrs)

    # -- component stats -----------------------------------------------
    def register_component(
            self, name: str,
            stats_fn: Callable[[], ComponentStats]) -> None:
        """Attach a ``.stats()``-style collector, sampled at snapshot;
        a second registration under ``name`` replaces the first."""
        self._collectors[name] = stats_fn

    def collect(self) -> Dict[str, ComponentStats]:
        return {name: fn() for name, fn in self._collectors.items()}

    # -- export --------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Everything, JSON-ready (spans capped by the log's capacity)."""
        return {
            "spans": self.spans.as_dicts(),
            "spans_dropped": self.spans.dropped,
            "components": {name: stats.as_dict()
                           for name, stats in self.collect().items()},
        }

    def reset(self) -> None:
        """Drop the recorded spans.  Collectors stay registered: the
        counters they read belong to the components."""
        self.spans = SpanLog(capacity=self.spans.capacity)


class NullTelemetry(Telemetry):
    """The default sink: does nothing, shares one global instance.

    Keeps the full interface so instrumented code never branches on
    sink type — only, optionally, on the cheap ``enabled`` flag.
    """

    enabled = False

    def __init__(self):
        super().__init__(span_capacity=0)

    def begin_span(self, name, cycle, sandbox_id=None, **attrs):
        return None

    def end_span(self, cycle, name=None, **attrs):
        pass

    def event(self, name, cycle, sandbox_id=None, **attrs):
        pass

    def register_component(self, name, stats_fn):
        pass


#: The process-wide default sink.
NULL_TELEMETRY = NullTelemetry()


def coalesce(telemetry: Optional[Telemetry]) -> Telemetry:
    """``telemetry or NULL_TELEMETRY`` with an explicit name."""
    return telemetry if telemetry is not None else NULL_TELEMETRY
