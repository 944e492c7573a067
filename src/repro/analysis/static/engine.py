"""Orchestration: which analyses run over which trees.

Three path sets, matching how strict each tree's contract is:

- **discipline** (the six legacy lint rules, now path-sensitive): the
  protocol, net, machine and obs trees — anywhere entry locks, spans or
  scheduled events live.
- **protocol** (wait-for graph + message matrix + footprint/commute
  certification): ``repro/svm`` — the manager classes.
- **determinism**: everything that executes inside simulated time —
  ``repro/sim``, ``svm``, ``net`` (including the ``repro.net.fabric``
  backends, whose per-link timing arithmetic must be a pure function
  of the seed), ``proc`` — plus all of ``repro/obs`` and
  ``repro/metrics``, which observe it: their outputs (span streams,
  windowed series, profiles, ``BENCH_obs.json``, every export) are
  asserted bit-for-bit, and none of them reads a host clock.

:func:`run_default` is the CI entry point (exhaustive, fixed paths);
:func:`run_explicit` runs every analysis over caller-chosen paths (the
mutation-corpus tests use it); :func:`discipline_lint` runs the
discipline rules alone and renders them as strings.
"""

from __future__ import annotations

from repro.analysis.static import commute as commute_mod
from repro.analysis.static import facts as facts_mod
from repro.analysis.static import messages, waitfor
from repro.analysis.static.determinism import determinism_findings
from repro.analysis.static.findings import Finding, render
from repro.analysis.static.locks import discipline_findings

__all__ = [
    "DISCIPLINE_PATHS",
    "PROTOCOL_PATHS",
    "DETERMINISM_PATHS",
    "StaticReport",
    "run_default",
    "run_explicit",
    "discipline_lint",
]

DISCIPLINE_PATHS = [
    "src/repro/svm",
    "src/repro/net",
    "src/repro/machine",
    "src/repro/obs",
]
PROTOCOL_PATHS = ["src/repro/svm"]
DETERMINISM_PATHS = [
    "src/repro/sim",
    "src/repro/svm",
    "src/repro/net",
    "src/repro/proc",
    "src/repro/obs",
    "src/repro/metrics",
]


class StaticReport:
    """Findings plus the per-manager proof summaries for clean runs."""

    def __init__(
        self,
        findings: list[Finding],
        waitfor_summaries: list[waitfor.WaitforSummary],
        message_summaries: list[messages.MessageSummary],
        commute_summaries: list[commute_mod.CommuteSummary] | None = None,
    ) -> None:
        self.findings = findings
        self.waitfor_summaries = waitfor_summaries
        self.message_summaries = message_summaries
        self.commute_summaries = commute_summaries or []

    def commute_matrix(self) -> dict:
        """The certified commutativity matrix (see
        :func:`repro.analysis.static.commute.to_matrix`)."""
        return commute_mod.to_matrix(self.commute_summaries)

    def render_findings(self) -> list[str]:
        return render(self.findings)

    def render_summary(self) -> list[str]:
        """The proof obligations discharged, one manager per line."""
        lines = []
        msg_by_name = {s.name: s for s in self.message_summaries}
        for wf in self.waitfor_summaries:
            msg = msg_by_name.get(wf.name)
            graph = (
                "wait-for graph acyclic"
                if wf.acyclic
                else f"wait-for CYCLE: {' -> '.join(wf.cycle)}"
            )
            held = ", ".join(wf.held_await_ops) or "none"
            discharged = (
                f"; {len(wf.discharged_ops)} transient-server edge(s) "
                "discharged by the ownership-order axiom"
                if wf.discharged_ops
                else ""
            )
            lines.append(
                f"{wf.name}: {graph} ({len(wf.ops)} ops; held-await on "
                f"{held}{discharged})"
            )
            if msg is not None:
                coverage = (
                    "all sends handled, all reply paths total"
                    if not msg.unhandled and not msg.dead
                    else f"unhandled={msg.unhandled} dead={msg.dead}"
                )
                lines.append(
                    f"{wf.name}: message matrix {len(msg.sent_ops)} ops "
                    f"sent / {len(msg.registered_ops)} handled — {coverage}"
                )
        for cs in self.commute_summaries:
            total = len(cs.footprints.ops)
            attributed = len(cs.attributed_ops)
            proven = ", ".join(cs.fanout_proven) or "none"
            declared = len(cs.fanout_declared)
            lines.append(
                f"{cs.name}: footprints certified {attributed}/{total} ops; "
                f"fan-out proven {len(cs.fanout_proven)}/{declared} "
                f"({proven}); {len(cs.same_node_commutes)} same-node "
                "commuting pair(s)"
            )
        return lines


def _discipline(facts: facts_mod.ProjectFacts) -> list[Finding]:
    lock_free = facts.lock_free_handlers()
    findings: list[Finding] = []
    for module in facts.modules:
        findings += discipline_findings(module, lock_free)
    return findings


def _protocol_pass(facts: facts_mod.ProjectFacts) -> StaticReport:
    """Wait-for graph, message matrix and footprint/commute
    certification over the manager classes in ``facts``."""
    wf_findings, wf_summaries = waitfor.analyze(facts)
    msg_findings, msg_summaries = messages.analyze(facts)
    cm_findings, cm_summaries = commute_mod.analyze(facts)
    return StaticReport(
        wf_findings + msg_findings + cm_findings,
        wf_summaries, msg_summaries, cm_summaries,
    )


def run_default(root: str | None = None) -> StaticReport:
    """The full verifier over the repo's fixed path sets.

    ``root`` defaults to the source checkout this package was imported
    from, so ``python -m repro.analysis.static`` works from any cwd.  A
    root whose fixed paths are missing is an error — a verifier that
    finds no files must never report "clean".
    """
    from pathlib import Path

    if root is None:
        # src/repro/analysis/static/engine.py -> the checkout root.
        root = str(Path(__file__).resolve().parents[4])

    def resolve(paths: list[str]) -> list[str]:
        resolved = [Path(root) / p for p in paths]
        missing = [str(p) for p in resolved if not p.exists()]
        if missing:
            raise FileNotFoundError(
                f"static verifier path set missing under {root!r}: {missing}"
            )
        return [str(p) for p in resolved]

    loaded: dict[str, facts_mod.Module] = {}  # the path sets overlap

    def load(paths: list[str]) -> list[facts_mod.Module]:
        return facts_mod.load_modules(resolve(paths), loaded)

    report = _protocol_pass(facts_mod.collect(load(PROTOCOL_PATHS)))
    report.findings[:0] = _discipline(facts_mod.collect(load(DISCIPLINE_PATHS)))
    for module in load(DETERMINISM_PATHS):
        report.findings += determinism_findings(module)
    return report


def run_explicit(paths: list[str]) -> StaticReport:
    """Every analysis over caller-chosen files/directories."""
    facts = facts_mod.collect(facts_mod.load_modules(paths))
    report = _protocol_pass(facts)
    report.findings[:0] = _discipline(facts)
    for module in facts.modules:
        report.findings += determinism_findings(module)
    return report


def discipline_lint(paths: list[str]) -> list[str]:
    """Discipline rules only, rendered as ``path:line: message`` strings."""
    return render(_discipline(facts_mod.collect(facts_mod.load_modules(paths))))
