"""Declarative SLO engine over the windowed timeline.

An SLO spec is a one-line predicate evaluated against every window of a
:class:`repro.obs.timeline.Timeline`::

    p99(fault.read_ns) < 60ms        # windowed-histogram quantile
    mean(fault.write_ns) <= 2ms
    count(span.serve:svm.read.busy_ns) < 5000
    link_utilisation < 0.90          # busiest link's busy-ns / window
    link_utilisation < 90%

Grammar: ``agg(instrument) op threshold[unit]`` where ``agg`` is one of
``p50 p90 p95 p99 max mean count``, ``op`` is ``<`` or ``<=``, and the
threshold accepts ``ns/us/ms/s`` suffixes (or ``%`` / a bare ratio for
``link_utilisation``).  ``count`` reads the windowed counter of the same
name when no histogram exists, so it works on ``span.*.busy_ns`` series
as well as on observed instruments.

:func:`evaluate` scores every spec in every window; a window with no
data for an instrument does not violate (an idle tail must not read as
saturation).  The report's headline is :attr:`SloReport.saturation_onset`
— the first window in which any spec fails, i.e. when the run stopped
meeting its objectives.  This is the quantitative instrument the
multi-tenant driver consumes per tenant (ROADMAP: "DSM as a service").

Evaluation is offline post-processing of an already-collected timeline:
it never touches the simulation and cannot perturb schedules.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.obs.timeline import Timeline

__all__ = ["SloSpec", "SloResult", "SloReport", "parse_slo", "evaluate"]

#: Aggregations usable on the left-hand side of a spec.
AGGS = ("p50", "p90", "p95", "p99", "max", "mean", "count")

_UNITS = {"ns": 1, "us": 1_000, "ms": 1_000_000, "s": 1_000_000_000}

_AGG_RE = re.compile(
    r"^\s*(?P<agg>p50|p90|p95|p99|max|mean|count)\s*"
    r"\(\s*(?P<inst>[A-Za-z0-9_.:\[\]-]+)\s*\)\s*"
    r"(?P<op><=|<)\s*"
    r"(?P<thr>[0-9]+(?:\.[0-9]+)?)\s*(?P<unit>ns|us|ms|s|%)?\s*$"
)

_LINK_RE = re.compile(
    r"^\s*link_utilisation\s*(?P<op><=|<)\s*"
    r"(?P<thr>[0-9]+(?:\.[0-9]+)?)\s*(?P<unit>%)?\s*$"
)


@dataclass(frozen=True)
class SloSpec:
    """One parsed objective: ``agg(instrument) op threshold``."""

    raw: str
    agg: str
    instrument: str  # "" for link_utilisation
    op: str  # "<" or "<="
    threshold: float

    def holds(self, value: float) -> bool:
        return value < self.threshold if self.op == "<" else value <= self.threshold


def parse_slo(text: str) -> SloSpec:
    """Parse one spec line; raises ValueError with the grammar on junk."""
    m = _LINK_RE.match(text)
    if m is not None:
        thr = float(m.group("thr"))
        if m.group("unit") == "%":
            thr /= 100.0
        return SloSpec(text.strip(), "link_utilisation", "", m.group("op"), thr)
    m = _AGG_RE.match(text)
    if m is not None:
        thr = float(m.group("thr"))
        unit = m.group("unit")
        if unit == "%":
            raise ValueError(f"% threshold only applies to link_utilisation: {text!r}")
        if unit is not None:
            thr *= _UNITS[unit]
        return SloSpec(
            text.strip(), m.group("agg"), m.group("inst"), m.group("op"), thr
        )
    raise ValueError(
        f"cannot parse SLO {text!r}; expected 'agg(instrument) < threshold[unit]' "
        f"with agg in {AGGS} or 'link_utilisation < ratio|%'"
    )


@dataclass
class SloResult:
    """One spec scored over every window."""

    spec: SloSpec
    #: Per-window aggregate value; None where the window has no data.
    values: list[float | None] = field(default_factory=list)
    #: First window index violating the spec, or None if it always held.
    first_violation: int | None = None

    @property
    def ok(self) -> bool:
        return self.first_violation is None


@dataclass
class SloReport:
    """Every spec's verdict over one timeline."""

    window_ns: int
    windows: int
    results: list[SloResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def saturation_onset(self) -> int | None:
        """Earliest violating window across all specs (None = never)."""
        onsets = [r.first_violation for r in self.results if r.first_violation is not None]
        return min(onsets) if onsets else None

    def summary(self) -> dict[str, object]:
        return {
            "window_ns": self.window_ns,
            "windows": self.windows,
            "ok": self.ok,
            "saturation_onset_window": self.saturation_onset,
            "specs": [
                {
                    "spec": r.spec.raw,
                    "ok": r.ok,
                    "first_violation_window": r.first_violation,
                    "values": r.values,
                }
                for r in self.results
            ],
        }


def _window_value(tl: Timeline, spec: SloSpec, window: int) -> float | None:
    if spec.agg == "link_utilisation":
        util = tl.link_utilisation(window)
        return util if util > 0.0 else (0.0 if tl.links else None)
    hist = tl.hist_window(spec.instrument, window)
    if hist is None:
        if spec.agg == "count":
            busy = tl.counters.get(spec.instrument, {}).get(window)
            if busy is not None:
                return float(busy)
        return None
    if spec.agg == "count":
        return float(hist.count)
    if spec.agg == "max":
        return hist.max
    if spec.agg == "mean":
        return hist.mean()
    return hist.percentile(float(spec.agg[1:]))


def evaluate(tl: Timeline, total_ns: int, specs: list[SloSpec]) -> SloReport:
    """Score every spec across every window of the timeline."""
    nwin = tl.nwindows(total_ns)
    report = SloReport(window_ns=tl.window_ns, windows=nwin)
    for spec in specs:
        result = SloResult(spec=spec)
        for w in range(nwin):
            value = _window_value(tl, spec, w)
            result.values.append(value)
            if (
                value is not None
                and not spec.holds(value)
                and result.first_violation is None
            ):
                result.first_violation = w
        report.results.append(result)
    return report
