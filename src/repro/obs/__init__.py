"""``repro.obs`` — causal span tracing, metric instruments, and the
simulated-time profiler.

One :class:`Observability` object per run bundles the three layers:

- :class:`repro.obs.span.SpanTracer` — fault/rpc/serve/disk span trees
  with per-hop simulated durations (span ids propagate on messages);
- :class:`repro.metrics.hist.Metrics` — histograms and gauges (fault
  latency, ring queueing delay, invalidation fan-out, frame occupancy);
- :class:`repro.obs.profiler.SimProfiler` — per-node attribution of
  simulated time to compute / fault-stall / network / disk / idle.

Two scale features ride the same handle, both opt-in and both pure
observation:

- a windowed **timeline** (:class:`repro.obs.timeline.Timeline`,
  ``timeline_window_ns > 0``) that buckets instruments, closed-span
  time, per-window profiler attribution, and per-link busy-ns into
  fixed simulated-time windows — the substrate for SLO evaluation
  (:mod:`repro.obs.slo`) and saturation-onset detection;
- deterministic **head-based span sampling** (``sample_every > 1``)
  keeping ~1/N of root-span trees by a pure hash of the span id
  (:mod:`repro.obs.sample`).  Dropped spans still feed the profiler
  and the timeline when :meth:`Observability.span_end` closes them, so
  attribution stays complete while the recorded span list shrinks
  ~N-fold.

Observation has one switch, ``ClusterConfig.obs``: ``False`` is off,
``True`` the :class:`repro.config.ObsConfig` defaults, an ``ObsConfig``
on with its settings.  The cluster builds the run's handle from it;
read it back as ``Ivy.obs`` or ``RunResult.obs``.  Off, the handle is
:data:`NULL_OBS`, a disabled instance whose hooks are no-ops, so the
hot paths pay one truthiness check and nothing else.  Every hook is
pure observation — no simulation events, no effects, no RNG — so
enabling observability never changes simulated times, event counts, or
golden schedules.

Exporters live in :mod:`repro.obs.export` (Chrome trace-event JSON,
loadable in Perfetto; timeline JSONL; OpenMetrics text) and the CLI in
``python -m repro.obs``.
"""

from __future__ import annotations

import copy
import functools
from typing import Any, Callable

from repro.config import ConfigError, ObsConfig
from repro.metrics.hist import Metrics
from repro.obs.profiler import CATEGORIES, PRECEDENCE, SimProfiler
from repro.obs.span import NULL_SPAN, UNSTAMPED, Span, SpanTracer, span_kind, unbound_clock
from repro.obs.timeline import Timeline

__all__ = [
    "Observability",
    "NULL_OBS",
    "Span",
    "SpanTracer",
    "NULL_SPAN",
    "SimProfiler",
    "Metrics",
    "Timeline",
    "CATEGORIES",
    "PRECEDENCE",
    "SPAN_CATEGORIES",
]

#: Span-name prefixes that feed the profiler, mapped to its categories.
#: ``fault.*`` roots are the faulting process's stall; ``serve:*`` spans
#: are interrupt-level handler work (network service); ``disk.*`` spans
#: are transfers that stall the node.  ``rpc:*`` and ``inv`` spans are
#: structure-only: their time is already covered by the fault root.
SPAN_CATEGORIES = {"fault": "fault", "serve": "network", "disk": "disk"}


@functools.cache  # once per span name; a hit enters no Python frame
def _span_category(name: str) -> str | None:
    return SPAN_CATEGORIES.get(span_kind(name))


class Observability:
    """Spans + instruments + profiler behind one opt-in handle.

    Built from the value of ``ClusterConfig.obs``: ``False`` is the
    disabled :data:`NULL_OBS`, ``True`` (the default) the
    :class:`ObsConfig` defaults, an ``ObsConfig`` its settings.  A value
    out of range is a :class:`ConfigError` naming the ``obs.*`` field.
    """

    def __init__(self, config: bool | ObsConfig = True) -> None:
        settings = config if isinstance(config, ObsConfig) else ObsConfig()
        window_ns = settings.timeline_window_ns
        if window_ns < 0:
            raise ConfigError("obs.timeline_window_ns", window_ns, ("an integer >= 0",))
        self.enabled = config is not False
        self.spans = SpanTracer(settings.sample_every)
        self.metrics = Metrics(settings.hist_backend)
        self.profiler = SimProfiler()
        self.timeline: Timeline | None = (
            Timeline(window_ns, settings.hist_backend)
            if self.enabled and window_ns > 0
            else None
        )
        self._clock: Callable[[], int] = unbound_clock
        if self.enabled:
            # One call per record: on, opening a span and crediting an
            # interval are the stores' own methods, not a facade over them.
            self.span_begin = self.spans.span_begin  # type: ignore[method-assign]
            self.interval = self.profiler.interval  # type: ignore[method-assign]

    def __bool__(self) -> bool:
        return self.enabled

    def bind_clock(self, clock: Callable[[], int] | None) -> None:
        self._clock = unbound_clock if clock is None else clock
        self.spans.bind_clock(clock)
        if self.timeline is not None:
            self.timeline.bind_clock(clock)

    # ------------------------------------------------------------------
    # span facade (no-ops when disabled; see SpanTracer)

    def span_begin(
        self,
        name: str,
        parent: Span | int | None = 0,
        node: int = -1,
        start: int | None = None,
        **attrs: Any,
    ) -> Span:
        return NULL_SPAN  # disabled: on, the tracer's own is bound over this

    def span_end(self, span: Span, end: int | None = None) -> None:
        """Close a span and fold its interval into the profiler and the
        timeline — also a sampled-out (negative-id) one, so whole-run and
        windowed attribution stay complete at any sampling rate.
        :data:`NULL_SPAN`, all a disabled handle hands out, returns here."""
        if span.sid == 0:
            return
        span.end = end = self._clock() if end is None else end
        start = span.start
        if start == UNSTAMPED or end == UNSTAMPED or end <= start:
            return
        category = _span_category(span.name)
        if category is not None:
            self.profiler.interval(span.node, category, start, end)
        if self.timeline is not None:
            self.timeline.span(span.name, start, end)

    # ------------------------------------------------------------------
    # instruments

    def observe(self, name: str, value: float) -> None:
        if self.enabled:
            # The window's histogram reuses the log bucket the run's found.
            hist = self.metrics.histograms.get(name)
            if hist is None:
                hist = self.metrics.histogram(name)
            key = hist.observe(value)
            if self.timeline is not None:
                self.timeline.observe(name, value, key=key)

    def gauge(self, name: str, value: float) -> None:
        if self.enabled:
            self.metrics.gauge(name, value)
            if self.timeline is not None:
                self.timeline.gauge(name, value)

    # ------------------------------------------------------------------
    # profiler

    def interval(self, node: int, category: str, start: int, end: int) -> None:
        """Disabled, a no-op: on, the profiler's own is bound over this."""

    def _profile(self, total_ns: int) -> SimProfiler:
        """The recorded intervals plus the categorised spans still open,
        clamped to the end of the run (closed ones were recorded as they
        closed); a copy only when some span is open."""
        still_open = [
            (span.node, category, span.start)
            for span in self.spans.open_spans()
            if (category := _span_category(span.name)) is not None
        ]
        if not still_open:
            return self.profiler
        profile = copy.deepcopy(self.profiler)
        for node, category, start in still_open:
            profile.interval(node, category, start, total_ns)
        return profile

    def breakdown(self, nnodes: int, total_ns: int) -> dict[int, dict[str, int]]:
        """Per-node partition of ``[0, total_ns]``; each node's values
        sum to ``total_ns`` exactly (see :mod:`repro.obs.profiler`)."""
        return self._profile(total_ns).per_node(nnodes, total_ns)

    def window_breakdowns(
        self, nnodes: int, total_ns: int
    ) -> dict[int, list[dict[str, int]]]:
        """Per-node, per-window partition of ``[0, total_ns]`` using the
        timeline's window width; requires a timeline."""
        if self.timeline is None:
            raise ValueError("window_breakdowns requires a timeline "
                             "(ClusterConfig(obs=ObsConfig(timeline_window_ns=...)))")
        return self._profile(total_ns).per_node_windows(
            nnodes, total_ns, self.timeline.window_ns
        )

    # ------------------------------------------------------------------
    # aggregate span statistics (the CLI's `top`)

    def span_stats(self) -> dict[str, dict[str, float | int | None]]:
        """Per-span-name aggregates: count, total/mean/p95 duration."""
        groups = Metrics()
        for span in self.spans:
            duration = span.duration
            if duration is not None:
                groups.observe(span.name, duration)
        out: dict[str, dict[str, float | int | None]] = {}
        for name, hist in groups.histograms.items():
            out[name] = {
                "count": hist.count,
                "total_ns": hist.total,
                "mean_ns": hist.mean(),
                "p95_ns": hist.percentile(95),
                "max_ns": hist.max,
            }
        return out


#: Shared disabled instance — the default everywhere.
NULL_OBS = Observability(False)
