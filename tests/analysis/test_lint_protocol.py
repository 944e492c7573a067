"""The protocol-discipline lint (the lock/span/handle rules of the
static verifier): clean on the real sources, loud on the classic
footguns it exists to catch."""

from pathlib import Path

from repro.analysis.static.__main__ import main
from repro.analysis.static.engine import discipline_lint

ROOT = Path(__file__).resolve().parents[2]


def test_real_protocol_sources_are_clean():
    assert discipline_lint([str(ROOT / "src" / "repro" / "svm")]) == []


def test_flags_lock_acquisition_in_invalidation_server(tmp_path):
    bad = tmp_path / "bad_server.py"
    # The rule follows the op table's lock_free column, not the name.
    bad.write_text(
        "class P:\n"
        "    OPS = (Op('t.drop', '_on_drop', page=(), lock_free=True),)\n"
        "    def _on_drop(self, origin, page):\n"
        "        entry = self.table.entry(page)\n"
        "        yield from entry.lock.acquire()\n"
        "        entry.access = 0\n"
        "    def _serve_inv(self, page):\n"  # no row: an ordinary method
        "        entry = self.table.entry(page)\n"
        "        yield from entry.lock.acquire()\n"
        "        try:\n"
        "            entry.access = 0\n"
        "        finally:\n"
        "            entry.lock.release()\n"
    )
    findings = discipline_lint([str(bad)])
    assert len(findings) == 1
    assert "_on_drop" in findings[0]
    assert "lock-free" in findings[0]


def test_flags_unbalanced_entry_lock(tmp_path):
    bad = tmp_path / "bad_lock.py"
    bad.write_text(
        "class P:\n"
        "    def fault(self, page):\n"
        "        entry = self.table.entry(page)\n"
        "        yield from entry.lock.acquire()\n"
        "        entry.access = 1\n"
        "        entry.lock.release()\n"  # not in a finally: leaks on error
    )
    findings = discipline_lint([str(bad)])
    assert len(findings) == 1
    assert "try/finally" in findings[0]


def test_accepts_balanced_entry_lock(tmp_path):
    good = tmp_path / "good_lock.py"
    good.write_text(
        "class P:\n"
        "    def fault(self, page):\n"
        "        entry = self.table.entry(page)\n"
        "        yield from entry.lock.acquire()\n"
        "        try:\n"
        "            entry.access = 1\n"
        "        finally:\n"
        "            entry.lock.release()\n"
    )
    assert discipline_lint([str(good)]) == []


def test_accepts_lock_released_via_alias(tmp_path):
    good = tmp_path / "alias_lock.py"
    good.write_text(
        "class P:\n"
        "    def fault(self, page):\n"
        "        yield from self.entry.lock.acquire()\n"
        "        try:\n"
        "            pass\n"
        "        finally:\n"
        "            entry = self.entry\n"
        "            entry.lock.release()\n"
    )
    assert discipline_lint([str(good)]) == []


def test_suppression_comment_is_honoured(tmp_path):
    handed = tmp_path / "handed_lock.py"
    handed.write_text(
        "class P:\n"
        "    def acquire_page_write(self, page):\n"
        "        entry = self.table.entry(page)\n"
        "        yield from entry.lock.acquire()  # lint: keeps-lock\n"
        "        return entry\n"
    )
    assert discipline_lint([str(handed)]) == []


def test_flags_return_inside_generator_finally(tmp_path):
    bad = tmp_path / "swallow.py"
    bad.write_text(
        "class P:\n"
        "    def fault(self, page):\n"
        "        yield from self.fetch(page)\n"
        "        try:\n"
        "            yield from self.apply(page)\n"
        "        finally:\n"
        "            return None\n"  # swallows violations / cancellation
    )
    findings = discipline_lint([str(bad)])
    assert len(findings) == 1
    assert "finally" in findings[0]
    assert "fault" in findings[0]


def test_return_in_finally_of_plain_function_is_fine(tmp_path):
    # The rule targets effect generators; plain helpers are out of scope.
    ok = tmp_path / "plain.py"
    ok.write_text(
        "def helper():\n"
        "    try:\n"
        "        pass\n"
        "    finally:\n"
        "        return 1\n"
    )
    assert discipline_lint([str(ok)]) == []


def test_nested_def_does_not_make_the_outer_function_a_generator(tmp_path):
    ok = tmp_path / "nested.py"
    ok.write_text(
        "def outer():\n"
        "    def gen():\n"
        "        yield 1\n"
        "    try:\n"
        "        pass\n"
        "    finally:\n"
        "        return gen\n"  # outer is not a generator: allowed
    )
    assert discipline_lint([str(ok)]) == []


def test_flags_unbalanced_page_write_section(tmp_path):
    bad = tmp_path / "bad_section.py"
    bad.write_text(
        "class S:\n"
        "    def update(self, page):\n"
        "        entry = yield from self.protocol.acquire_page_write(page)\n"
        "        self.mutate(entry)\n"
        "        self.protocol.release_page_write(page)\n"  # not in finally
    )
    findings = discipline_lint([str(bad)])
    assert len(findings) == 1
    assert "release_page_write" in findings[0]


def test_accepts_balanced_page_write_section(tmp_path):
    good = tmp_path / "good_section.py"
    good.write_text(
        "class S:\n"
        "    def update(self, page):\n"
        "        entry = yield from self.protocol.acquire_page_write(page)\n"
        "        try:\n"
        "            self.mutate(entry)\n"
        "        finally:\n"
        "            self.protocol.release_page_write(page)\n"
    )
    assert discipline_lint([str(good)]) == []


def test_page_write_handoff_suppression_is_honoured(tmp_path):
    handed = tmp_path / "handed_section.py"
    handed.write_text(
        "class S:\n"
        "    def begin(self, page):\n"
        "        entry = yield from self.protocol.acquire_page_write(page)  "
        "# lint: keeps-lock\n"
        "        return entry\n"
    )
    assert discipline_lint([str(handed)]) == []


def test_cli_exit_codes(tmp_path, capsys):
    assert main([str(ROOT / "src" / "repro" / "svm")]) == 0
    assert "clean" in capsys.readouterr().out

    bad = tmp_path / "bad.py"
    bad.write_text(
        "class P:\n"
        "    OPS = (Op('t.inv', '_serve_inv', page=(), lock_free=True),)\n"
        "    def inv(self, page):\n"
        "        yield from self.remote.request(1, 't.inv', page)\n"
        "    def _serve_inv(self, origin, page):\n"
        "        yield from self.table.entry(page).lock.acquire()\n"
        "        return True\n"
    )
    assert main([str(bad)]) == 1
    assert "finding" in capsys.readouterr().out


def test_flags_unbalanced_span(tmp_path):
    bad = tmp_path / "bad_span.py"
    bad.write_text(
        "class P:\n"
        "    def fault(self, page):\n"
        "        span = self.obs.span_begin('fault.read', node=0)\n"
        "        yield from self.fetch(page)\n"
        "        self.obs.span_end(span)\n"  # not in a finally: leaks
    )
    findings = discipline_lint([str(bad)])
    assert len(findings) == 1
    assert "span_end" in findings[0]
    assert "try/finally" in findings[0]


def test_accepts_balanced_span(tmp_path):
    good = tmp_path / "good_span.py"
    good.write_text(
        "class P:\n"
        "    def fault(self, page):\n"
        "        span = self.obs.span_begin('fault.read', node=0)\n"
        "        try:\n"
        "            yield from self.fetch(page)\n"
        "        finally:\n"
        "            self.obs.span_end(span)\n"
    )
    assert discipline_lint([str(good)]) == []


def test_accepts_span_balanced_inside_a_nested_suite(tmp_path):
    # The span_begin sits under an `if`; the try/finally lives at the
    # same nesting level — the outer `if` must not be flagged.
    good = tmp_path / "nested_span.py"
    good.write_text(
        "class P:\n"
        "    def fault(self, page):\n"
        "        if page > 0:\n"
        "            span = self.obs.span_begin('fault.write', node=0)\n"
        "            try:\n"
        "                yield from self.fetch(page)\n"
        "            finally:\n"
        "                self.obs.span_end(span)\n"
        "        yield from self.done(page)\n"
    )
    assert discipline_lint([str(good)]) == []


def test_flags_unbalanced_span_inside_a_nested_suite(tmp_path):
    bad = tmp_path / "nested_bad_span.py"
    bad.write_text(
        "class P:\n"
        "    def fault(self, page):\n"
        "        if page > 0:\n"
        "            span = self.obs.span_begin('fault.write', node=0)\n"
        "            yield from self.fetch(page)\n"
        "        yield from self.done(page)\n"
    )
    findings = discipline_lint([str(bad)])
    assert len(findings) == 1
    assert "span_begin" in findings[0]


def test_span_in_plain_function_is_out_of_scope(tmp_path):
    # Only effect generators are checked: a plain helper cannot be
    # suspended mid-section by the scheduler.
    ok = tmp_path / "plain_span.py"
    ok.write_text(
        "class P:\n"
        "    def note(self):\n"
        "        span = self.obs.span_begin('x', node=0)\n"
        "        self.obs.span_end(span)\n"
    )
    assert discipline_lint([str(ok)]) == []


def test_span_suppression_comment_is_honoured(tmp_path):
    handed = tmp_path / "handed_span.py"
    handed.write_text(
        "class P:\n"
        "    def begin(self, page):\n"
        "        span = self.obs.span_begin('fault.read', node=0)  "
        "# lint: keeps-lock\n"
        "        yield from self.fetch(page)\n"
        "        return span\n"
    )
    assert discipline_lint([str(handed)]) == []


def test_accepts_try_acquire_fast_path_idiom(tmp_path):
    # The uncontended fast path: try_acquire in the condition, the slow
    # acquire in the branch, balanced by the try/finally after the `if`.
    good = tmp_path / "fast_lock.py"
    good.write_text(
        "class P:\n"
        "    def fault(self, page):\n"
        "        entry = self.table.entry(page)\n"
        "        if not entry.lock.try_acquire():\n"
        "            yield from entry.lock.acquire()\n"
        "        try:\n"
        "            entry.access = 1\n"
        "        finally:\n"
        "            entry.lock.release()\n"
    )
    assert discipline_lint([str(good)]) == []


def test_flags_unbalanced_try_acquire_fast_path(tmp_path):
    bad = tmp_path / "bad_fast_lock.py"
    bad.write_text(
        "class P:\n"
        "    def fault(self, page):\n"
        "        entry = self.table.entry(page)\n"
        "        if not entry.lock.try_acquire():\n"
        "            yield from entry.lock.acquire()\n"
        "        entry.access = 1\n"
        "        entry.lock.release()\n"  # not in a finally: leaks on error
    )
    findings = discipline_lint([str(bad)])
    assert findings, "unbalanced fast-path acquire must be flagged"
    assert all("try/finally" in f for f in findings)


def test_fast_path_handoff_suppression_on_the_if_line(tmp_path):
    handed = tmp_path / "handed_fast_lock.py"
    handed.write_text(
        "class P:\n"
        "    def acquire_page_write(self, page):\n"
        "        entry = self.table.entry(page)\n"
        "        if not entry.lock.try_acquire():  # lint: keeps-lock\n"
        "            yield from entry.lock.acquire()\n"
        "        return entry\n"
    )
    assert discipline_lint([str(handed)]) == []


def test_accepts_obs_gated_span(tmp_path):
    # The obs-gated fast path: span opened only under `if obs:`, closed
    # by the try/finally that follows the `if`.
    good = tmp_path / "gated_span.py"
    good.write_text(
        "class P:\n"
        "    def serve(self, page):\n"
        "        obs = self.obs\n"
        "        if obs:\n"
        "            span = obs.span_begin('serve', node=0)\n"
        "        else:\n"
        "            span = None\n"
        "        try:\n"
        "            yield from self.fetch(page)\n"
        "        finally:\n"
        "            if span is not None:\n"
        "                obs.span_end(span)\n"
    )
    assert discipline_lint([str(good)]) == []


def test_flags_discarded_schedule_handle(tmp_path):
    bad = tmp_path / "discard.py"
    bad.write_text(
        "class T:\n"
        "    def transmit(self, msg):\n"
        "        self.sim.schedule(10, self._deliver, msg)\n"  # handle dropped
    )
    findings = discipline_lint([str(bad)])
    assert len(findings) == 1
    assert "CancelHandle" in findings[0]
    assert "schedule_nocancel" in findings[0]


def test_flags_discarded_schedule_at_handle(tmp_path):
    bad = tmp_path / "discard_at.py"
    bad.write_text(
        "class T:\n"
        "    def transmit(self, msg):\n"
        "        self.sim.schedule_at(10, self._deliver, msg)\n"
    )
    findings = discipline_lint([str(bad)])
    assert len(findings) == 1
    assert "schedule_at_nocancel" in findings[0]


def test_assigned_schedule_handle_is_fine(tmp_path):
    ok = tmp_path / "kept.py"
    ok.write_text(
        "class T:\n"
        "    def arm(self, pending):\n"
        "        pending.timer = self.sim.schedule(10, self._retransmit, pending)\n"
        "        self.sim.schedule_nocancel(0, self._poke)\n"
    )
    assert discipline_lint([str(ok)]) == []


def test_discarded_handle_suppression_is_honoured(tmp_path):
    ok = tmp_path / "suppressed.py"
    ok.write_text(
        "class T:\n"
        "    def once(self):\n"
        "        self.sim.schedule(10, self._fire)  # lint: drops-handle\n"
    )
    assert discipline_lint([str(ok)]) == []


def test_real_obs_instrumented_sources_are_clean():
    assert (
        discipline_lint(
            [
                str(ROOT / "src" / "repro" / "net"),
                str(ROOT / "src" / "repro" / "machine"),
                str(ROOT / "src" / "repro" / "obs"),
            ]
        )
        == []
    )
