"""Exporters: Chrome trace-event JSON, timeline JSONL, OpenMetrics text.

**Chrome trace-event** (Perfetto-loadable) is the JSON object form::

    {"displayTimeUnit": "ms", "traceEvents": [
        {"name": "fault.read", "ph": "X", "ts": 12.5, "dur": 3170.0,
         "pid": 1, "tid": 0, "cat": "fault", "args": {...}}, ...]}

- ``pid`` is the simulated node (each node renders as one process);
- ``tid`` is a display lane: children share their parent's lane (they
  nest inside it by construction), and unrelated overlapping spans get
  separate lanes, because complete ("X") events on one track must nest
  properly or viewers drop them;
- ``ts``/``dur`` are microseconds (floats), the format's unit; simulated
  nanoseconds divide by 1e3 exactly, so nothing is rounded away;
- events are sorted by ``ts`` (monotone), metadata ("M") events first.

**Timeline JSONL** (schema ``repro.timeline/1``) serialises a windowed
run: one ``meta`` record first, then one record per (window, series)
with ``kind`` in ``hist`` / ``counter`` / ``gauge`` / ``link`` /
``profile``, sorted by window then kind then name so identical runs
write byte-identical files.

**OpenMetrics** is the text exposition format: ``# TYPE`` declarations,
label-annotated samples, and a final ``# EOF``.  Whole-run histograms
export as ``summary`` families; windowed series export as ``gauge``
families with a ``window`` label.

Each format has a ``validate_*`` twin checking the invariants the
obs-smoke CI job gates on, so an export a consumer would reject fails
loudly here.
"""

from __future__ import annotations

import json
import re
from typing import Any, TYPE_CHECKING

from repro.obs.jsonl import write_jsonl
from repro.obs.span import UNSTAMPED, Span, span_kind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from repro.obs import Observability

__all__ = [
    "chrome_trace",
    "save_chrome_trace",
    "validate_chrome_trace",
    "TIMELINE_SCHEMA",
    "timeline_records",
    "save_timeline_jsonl",
    "validate_timeline_jsonl",
    "openmetrics",
    "validate_openmetrics",
]


def _assign_lanes(spans: list[Span], total_ns: int) -> dict[int, int]:
    """Display lane per span id: parent's lane when known, else the first
    lane free at the span's start (so same-lane spans always nest)."""
    lanes: dict[int, int] = {}
    node_of: dict[int, int] = {}
    free_at: dict[int, list[int]] = {}  # node -> per-lane busy-until
    for span in sorted(spans, key=lambda s: (s.node, s.start, s.sid)):
        node_of[span.sid] = span.node
        end = total_ns if span.open else span.end
        parent_lane = lanes.get(span.parent)
        if parent_lane is not None and node_of.get(span.parent) == span.node:
            # Same-node children nest inside their parent by construction.
            lanes[span.sid] = parent_lane
            continue
        node_lanes = free_at.setdefault(span.node, [])
        for lane, busy_until in enumerate(node_lanes):
            if busy_until <= span.start:
                node_lanes[lane] = end
                lanes[span.sid] = lane
                break
        else:
            node_lanes.append(end)
            lanes[span.sid] = len(node_lanes) - 1
    return lanes


def chrome_trace(obs: "Observability", total_ns: int | None = None) -> dict[str, Any]:
    """Render the recorded spans as a Chrome trace-event document."""
    spans = [s for s in obs.spans if s.start != UNSTAMPED]
    if total_ns is None:
        total_ns = max((s.end for s in spans if not s.open), default=0)
    lanes = _assign_lanes(spans, total_ns)
    events: list[dict[str, Any]] = []
    nodes = sorted({s.node for s in spans})
    for node in nodes:
        events.append(
            {
                "name": "process_name", "ph": "M", "ts": 0.0,
                "pid": node, "tid": 0,
                "args": {"name": f"node {node}"},
            }
        )
    for span in spans:
        end = total_ns if span.open else span.end
        args: dict[str, Any] = {"sid": span.sid, "parent": span.parent}
        args.update(span.attrs)
        if span.open:
            args["open"] = True
        events.append(
            {
                "name": span.name,
                "cat": span_kind(span.name) or "span",
                "ph": "X",
                "ts": span.start / 1e3,
                "dur": max(0, end - span.start) / 1e3,
                "pid": span.node,
                "tid": lanes[span.sid],
                "args": args,
            }
        )
    events.sort(key=lambda ev: (ev["ts"], ev["ph"] != "M", ev["pid"], ev["tid"]))
    return {"displayTimeUnit": "ms", "traceEvents": events}


def save_chrome_trace(
    path: str, obs: "Observability", total_ns: int | None = None
) -> int:
    """Write the Chrome trace JSON; returns the event count."""
    doc = chrome_trace(obs, total_ns=total_ns)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")
    return len(doc["traceEvents"])


def validate_chrome_trace(doc: Any) -> list[str]:
    """Check a trace-event document against the schema the viewers
    actually enforce; returns a list of problems (empty = valid)."""
    problems: list[str] = []
    if not isinstance(doc, dict):
        return [f"top level must be an object, got {type(doc).__name__}"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["missing traceEvents list"]
    last_ts: float | None = None
    for index, ev in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        for key in ("name", "ph", "ts", "pid", "tid"):
            if key not in ev:
                problems.append(f"{where}: missing {key!r}")
        ph = ev.get("ph")
        if ph not in ("X", "M", "i", "I"):
            problems.append(f"{where}: unsupported phase {ph!r}")
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}: bad ts {ts!r}")
        elif last_ts is not None and ts < last_ts:
            problems.append(f"{where}: ts {ts} is not monotone (prev {last_ts})")
        else:
            last_ts = ts
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: complete event with bad dur {dur!r}")
        if "args" in ev and not isinstance(ev["args"], dict):
            problems.append(f"{where}: args must be an object")
    return problems


# ----------------------------------------------------------------------
# timeline JSONL

#: Schema tag of the windowed-timeline JSONL export.
TIMELINE_SCHEMA = "repro.timeline/1"

_TIMELINE_KINDS = ("hist", "counter", "gauge", "link", "profile")


def timeline_records(
    obs: "Observability", nnodes: int, total_ns: int
) -> list[dict[str, Any]]:
    """Serialise a windowed run as timeline records (meta first).

    Sparse series emit only the windows that hold data; the profiler
    records are dense (every node, every window up to ``total_ns``)
    because each one is a proof-carrying partition of its window.
    """
    tl = obs.timeline
    if tl is None:
        raise ValueError("timeline export requires a timeline "
                         "(ClusterConfig(obs=ObsConfig(timeline_window_ns=...)))")
    nwin = tl.nwindows(total_ns)
    meta: dict[str, Any] = {
        "kind": "meta",
        "schema": TIMELINE_SCHEMA,
        "window_ns": tl.window_ns,
        "windows": nwin,
        "total_ns": total_ns,
        "nodes": nnodes,
    }
    body: list[dict[str, Any]] = []
    for name, hists in tl.histograms.items():
        for window, hist in hists.items():
            rec: dict[str, Any] = {"kind": "hist", "window": window, "name": name}
            rec.update(hist.summary())
            body.append(rec)
    for name, counts in tl.counters.items():
        for window, value in counts.items():
            body.append(
                {"kind": "counter", "window": window, "name": name, "value": value}
            )
    for name, levels in tl.gauges.items():
        for window, (last, peak) in levels.items():
            body.append(
                {
                    "kind": "gauge", "window": window, "name": name,
                    "last": last, "peak": peak,
                }
            )
    for link in tl.links():
        per = tl._links[link]
        for window, busy in sorted(per.items()):
            body.append(
                {
                    "kind": "link", "window": window, "name": link,
                    "busy_ns": busy, "utilisation": busy / tl.window_ns,
                }
            )
    for node, windows in obs.window_breakdowns(nnodes, total_ns).items():
        for window, cats in enumerate(windows):
            rec = {"kind": "profile", "window": window, "node": node}
            rec.update(cats)
            body.append(rec)
    body.sort(
        key=lambda r: (
            r["window"],
            _TIMELINE_KINDS.index(r["kind"]),
            r.get("name", ""),
            r.get("node", -1),
        )
    )
    return [meta, *body]


def save_timeline_jsonl(
    path: str, obs: "Observability", nnodes: int, total_ns: int
) -> int:
    """Write the timeline as JSON lines; returns the record count."""
    return write_jsonl(path, timeline_records(obs, nnodes, total_ns))


def validate_timeline_jsonl(lines: list[str]) -> list[str]:
    """Check timeline JSONL content against schema ``repro.timeline/1``;
    returns a list of problems (empty = valid)."""
    problems: list[str] = []
    records: list[tuple[int, dict[str, Any]]] = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            problems.append(f"line {lineno}: not JSON ({exc})")
            continue
        if not isinstance(rec, dict):
            problems.append(f"line {lineno}: not an object")
            continue
        records.append((lineno, rec))
    if not records:
        return problems + ["no records"]
    first_lineno, meta = records[0]
    if meta.get("kind") != "meta":
        return problems + [f"line {first_lineno}: first record must be meta"]
    if meta.get("schema") != TIMELINE_SCHEMA:
        problems.append(
            f"line {first_lineno}: schema {meta.get('schema')!r} != {TIMELINE_SCHEMA!r}"
        )
    window_ns = meta.get("window_ns")
    windows = meta.get("windows")
    total_ns = meta.get("total_ns")
    nodes = meta.get("nodes")
    for key, value in (
        ("window_ns", window_ns), ("windows", windows),
        ("total_ns", total_ns), ("nodes", nodes),
    ):
        if not isinstance(value, int) or value <= 0:
            problems.append(f"line {first_lineno}: meta.{key} must be a positive int")
    if problems:
        return problems
    assert isinstance(window_ns, int) and isinstance(windows, int)
    assert isinstance(total_ns, int) and isinstance(nodes, int)
    profile_windows = max(1, -(-total_ns // window_ns))
    from repro.obs.profiler import CATEGORIES

    for lineno, rec in records[1:]:
        where = f"line {lineno}"
        kind = rec.get("kind")
        if kind == "meta":
            problems.append(f"{where}: duplicate meta record")
            continue
        if kind not in _TIMELINE_KINDS:
            problems.append(f"{where}: unknown kind {kind!r}")
            continue
        window = rec.get("window")
        if not isinstance(window, int) or not 0 <= window < windows:
            problems.append(f"{where}: window {window!r} out of [0, {windows})")
            continue
        if kind == "hist":
            if not isinstance(rec.get("name"), str) or not rec["name"]:
                problems.append(f"{where}: hist record needs a name")
            if not isinstance(rec.get("count"), int) or rec["count"] < 1:
                problems.append(f"{where}: hist count must be >= 1")
        elif kind == "counter":
            if not isinstance(rec.get("name"), str) or not rec["name"]:
                problems.append(f"{where}: counter record needs a name")
            if not isinstance(rec.get("value"), int):
                problems.append(f"{where}: counter value must be an int")
        elif kind == "gauge":
            for key in ("name", "last", "peak"):
                if key not in rec:
                    problems.append(f"{where}: gauge record missing {key!r}")
        elif kind == "link":
            busy = rec.get("busy_ns")
            if not isinstance(rec.get("name"), str) or not rec["name"]:
                problems.append(f"{where}: link record needs a name")
            if not isinstance(busy, int) or not 0 <= busy <= window_ns:
                problems.append(
                    f"{where}: link busy_ns {busy!r} out of [0, {window_ns}]"
                )
        elif kind == "profile":
            node = rec.get("node")
            if not isinstance(node, int) or not 0 <= node < nodes:
                problems.append(f"{where}: profile node {node!r} out of [0, {nodes})")
            if window >= profile_windows:
                problems.append(
                    f"{where}: profile window {window} beyond the run's "
                    f"{profile_windows} windows"
                )
                continue
            missing = [cat for cat in CATEGORIES if not isinstance(rec.get(cat), int)]
            if missing:
                problems.append(f"{where}: profile record missing {missing}")
                continue
            expected = min(window_ns, total_ns - window * window_ns)
            got = sum(rec[cat] for cat in CATEGORIES)
            if got != expected:
                problems.append(
                    f"{where}: profile categories sum to {got}, window holds {expected}"
                )
    return problems


# ----------------------------------------------------------------------
# OpenMetrics text exposition

_OM_BAD = re.compile(r"[^a-zA-Z0-9_:]")

#: ``# TYPE`` declaration: family name + type.
_OM_TYPE_RE = re.compile(r"^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (\w+)$")

#: One sample line: name, optional {labels}, value.
_OM_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})? "
    r"(?P<value>-?(?:[0-9]+(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?|NaN|Inf|-Inf))$"
)


def _om_name(name: str) -> str:
    """Sanitise an instrument name into a metric-name fragment."""
    return _OM_BAD.sub("_", name).strip("_")


def _om_labels(**labels: Any) -> str:
    parts = []
    for key, value in labels.items():
        text = str(value).replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
        parts.append(f'{key}="{text}"')
    return "{" + ",".join(parts) + "}"


def _om_value(value: float | int | None) -> str:
    if value is None:
        return "NaN"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def openmetrics(obs: "Observability", nnodes: int, total_ns: int) -> str:
    """Render whole-run and windowed instruments as OpenMetrics text.

    Whole-run histograms become ``summary`` families (quantile labels
    plus ``_count``/``_sum``); gauges become ``gauge`` families; every
    windowed series (instrument percentiles/counts, per-link busy-ns
    and utilisation, per-node profiler attribution) becomes a ``gauge``
    family with a ``window`` label.  Ends with ``# EOF``.
    """
    out: list[str] = []

    def family(name: str, kind: str, help_text: str) -> None:
        out.append(f"# TYPE {name} {kind}")
        out.append(f"# HELP {name} {help_text}")

    for name, hist in sorted(obs.metrics.histograms.items()):
        fam = f"repro_{_om_name(name)}"
        family(fam, "summary", f"whole-run distribution of {name}")
        for q in (0.5, 0.95, 0.99):
            out.append(
                f"{fam}{_om_labels(quantile=q)} {_om_value(hist.percentile(q * 100))}"
            )
        out.append(f"{fam}_count {hist.count}")
        out.append(f"{fam}_sum {_om_value(hist.total)}")
    for name, gauge in sorted(obs.metrics.gauges.items()):
        fam = f"repro_{_om_name(name)}"
        family(fam, "gauge", f"whole-run level of {name}")
        out.append(f"{fam} {_om_value(gauge.value)}")

    tl = obs.timeline
    if tl is not None:
        for name, hists in sorted(tl.histograms.items()):
            base = f"repro_tl_{_om_name(name)}"
            for stat in ("p99", "count"):
                fam = f"{base}_{stat}"
                family(fam, "gauge", f"per-window {stat} of {name}")
                for window, hist in sorted(hists.items()):
                    value = hist.count if stat == "count" else hist.percentile(99.0)
                    out.append(f"{fam}{_om_labels(window=window)} {_om_value(value)}")
        for name, counts in sorted(tl.counters.items()):
            fam = f"repro_tl_{_om_name(name)}"
            family(fam, "gauge", f"per-window count of {name}")
            for window, value in sorted(counts.items()):
                out.append(f"{fam}{_om_labels(window=window)} {value}")
        if tl.links():
            family("repro_link_busy_ns", "gauge", "per-window link busy time")
            nwin = tl.nwindows(total_ns)
            for link in tl.links():
                for window, busy in sorted(tl._links[link].items()):
                    out.append(
                        f"repro_link_busy_ns{_om_labels(link=link, window=window)} "
                        f"{busy}"
                    )
            family(
                "repro_link_utilisation", "gauge",
                "busiest link's busy fraction per window",
            )
            for window in range(nwin):
                out.append(
                    f"repro_link_utilisation{_om_labels(window=window)} "
                    f"{_om_value(tl.link_utilisation(window))}"
                )
        family("repro_profile_ns", "gauge", "per-node per-window attribution")
        for node, windows in sorted(obs.window_breakdowns(nnodes, total_ns).items()):
            for window, cats in enumerate(windows):
                for cat, ns in cats.items():
                    out.append(
                        f"repro_profile_ns"
                        f"{_om_labels(node=node, category=cat, window=window)} {ns}"
                    )
    out.append("# EOF")
    return "\n".join(out) + "\n"


def validate_openmetrics(text: str) -> list[str]:
    """Check OpenMetrics text for the exposition-format invariants;
    returns a list of problems (empty = valid)."""
    problems: list[str] = []
    lines = [line for line in text.split("\n") if line]
    if not lines:
        return ["empty exposition"]
    if lines[-1] != "# EOF":
        problems.append("must end with '# EOF'")
    declared: dict[str, str] = {}
    for lineno, line in enumerate(lines, start=1):
        where = f"line {lineno}"
        if line == "# EOF":
            if lineno != len(lines):
                problems.append(f"{where}: content after # EOF")
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("#"):
            m = _OM_TYPE_RE.match(line)
            if m is None:
                problems.append(f"{where}: malformed comment/metadata {line!r}")
                continue
            fam, kind = m.group(1), m.group(2)
            if kind not in ("gauge", "counter", "summary"):
                problems.append(f"{where}: unsupported type {kind!r}")
            if fam in declared:
                problems.append(f"{where}: duplicate TYPE for {fam}")
            declared[fam] = kind
            continue
        m = _OM_SAMPLE_RE.match(line)
        if m is None:
            problems.append(f"{where}: malformed sample {line!r}")
            continue
        name = m.group("name")
        fam = name
        for suffix in ("_count", "_sum"):
            if name.endswith(suffix) and name[: -len(suffix)] in declared:
                fam = name[: -len(suffix)]
                break
        if fam not in declared:
            problems.append(f"{where}: sample {name!r} has no TYPE declaration")
            continue
        labels = m.group("labels") or ""
        if "quantile=" in labels and declared[fam] != "summary":
            problems.append(
                f"{where}: quantile label on non-summary family {fam!r}"
            )
        if declared[fam] == "summary" and fam == name and "quantile=" not in labels:
            problems.append(
                f"{where}: summary sample {name!r} without quantile label"
            )
    return problems
