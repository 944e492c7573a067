"""Timeline unit tests: window crediting, link busy time, utilisation."""

import pytest

from repro.obs.timeline import Timeline
from repro.obs.span import UNSTAMPED


def test_window_width_must_be_positive():
    with pytest.raises(ValueError):
        Timeline(0)


def test_link_busy_splits_across_window_boundaries():
    tl = Timeline(100)
    tl.link_busy("medium", 50, 250)  # crosses two edges
    assert tl.links == {"medium": {0: 50, 1: 100, 2: 50}}  # window 3: nothing


def test_link_busy_ignores_unstamped_and_empty_intervals():
    tl = Timeline(100)
    tl.link_busy("medium", UNSTAMPED, 50)
    tl.link_busy("medium", 10, UNSTAMPED)
    tl.link_busy("medium", 70, 70)
    assert tl.links == {}


def test_span_credits_busy_and_observes_duration_at_close():
    tl = Timeline(100)
    tl.span("fault.read", 80, 180)
    assert tl.counters["span.fault.read.busy_ns"] == {0: 20, 1: 80}
    hist = tl.hist_window("span.fault.read.ns", 1)
    assert hist is not None and hist.count == 1 and hist.max == 100
    # Nothing observed in the opening window's histogram.
    assert tl.hist_window("span.fault.read.ns", 0) is None


def test_span_guards_unstamped_and_negative_duration():
    tl = Timeline(100)
    tl.span("x", UNSTAMPED, 50)
    tl.span("x", 50, UNSTAMPED)
    tl.span("x", 90, 10)
    assert tl.counters == {} and tl.histograms == {}
    # Zero-length spans still count (duration 0 at the close window).
    tl.span("x", 40, 40)
    assert tl.hist_window("span.x.ns", 0).count == 1


def test_nwindows_covers_both_time_and_data():
    tl = Timeline(100)
    assert tl.nwindows(0) == 1
    assert tl.nwindows(250) == 3  # ceil
    tl.link_busy("m", 950, 980)  # data beyond total_ns
    assert tl.max_window() == 9
    assert tl.nwindows(250) == 10


def test_link_utilisation_is_the_busiest_link():
    tl = Timeline(100)
    tl.link_busy("a", 0, 30)
    tl.link_busy("b", 0, 80)
    assert tl.link_utilisation(0) == pytest.approx(0.8)
    assert tl.link_utilisation(5) == 0.0


def test_busiest_links_sorted_and_deterministic_under_ties():
    tl = Timeline(100)
    tl.link_busy("z", 0, 40)
    tl.link_busy("a", 100, 140)  # same total as z, later window
    tl.link_busy("big", 0, 250)
    rows = tl.busiest_links(total_ns=300)
    assert [name for name, _, _ in rows] == ["big", "a", "z"]
    name, busy, peak = rows[0]
    assert busy == 250 and peak == pytest.approx(1.0)
    assert tl.busiest_links(300, limit=1) == rows[:1]


def test_link_busy_accumulates_per_window():
    tl = Timeline(100)
    tl.link_busy("m", 50, 120)
    tl.link_busy("m", 150, 160)
    assert tl.links == {"m": {0: 50, 1: 30}}


def test_clock_bound_recording_skips_until_bound():
    tl = Timeline(100)
    tl.observe("lat", 7.0)  # no clock bound yet: UNSTAMPED, dropped
    tl.gauge("lvl", 3.0)
    assert tl.histograms == {} and tl.gauges == {}
    now = [250]
    tl.bind_clock(lambda: now[0])
    tl.observe("lat", 7.0)
    tl.gauge("lvl", 3.0)
    assert tl.hist_window("lat", 2).count == 1
    assert tl.gauges["lvl"] == {2: (3.0, 3.0)}
