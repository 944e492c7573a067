"""The coherence oracle: an online shadow of the SVM protocol.

Two layers, sharing one event vocabulary (the ``svm.*`` categories
every node's protocol publishes through its ``checker`` hook, listed in
:data:`repro.analysis.replay.SVM_CATEGORIES`):

:class:`ShadowMachine`
    A pure event-driven state machine that mirrors what a *correct*
    protocol execution must look like: who owns each page, which nodes
    were granted read copies, which invalidations are legal, and how
    invalidation epochs may move.  Because it needs nothing but the
    event stream, it is also the offline replay checker's core
    (`repro.analysis.replay`).

:class:`CoherenceOracle`
    The online checker attached to a live :class:`~repro.api.cluster.
    Cluster` when ``ClusterConfig.checker`` is set.  On every protocol
    transition it feeds the shadow machine *and* cross-examines the
    actual per-node page tables and page frames: single-writer/
    multiple-reader (a WRITE entry on one node implies NIL everywhere
    else), owner uniqueness, copy-set coverage of every reader, manager
    owner-table agreement, probable-owner chain termination, and data
    coherence (a served read copy must hold the owner's bytes).

Checks that would misfire on legal in-flight states (exactly-one-owner,
copy-set coverage, manager tables, probOwner chains) are gated on the
page having no fault in flight; safety checks (at-most-one-owner,
SWMR, epoch monotonicity, invalidation targeting) run on every event.

The oracle is pure observation — it never yields simulation effects —
so an enabled checker cannot change simulated times or event counts.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any

from repro.analysis.violation import InvariantViolation
from repro.machine.mmu import Access
from repro.svm.page import PageTableEntry
from repro.svm.protocol import CoherenceProtocol

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.api.cluster import Cluster

__all__ = ["CoherenceOracle", "ShadowMachine", "PageShadow"]

#: Protocol events that end a fault the shadow machine counts as pending.
_COMPLETIONS = ("svm.read_fault", "svm.write_fault", "svm.write_upgrade", "svm.chown")

#: How many per-page events a violation report carries.
HISTORY_WINDOW = 32

_READ = Access.READ
_WRITE = Access.WRITE


def _all_chains_reach(hops: list[int | None], owner_id: int) -> bool:
    """Whether following ``hops`` from every node ends at ``owner_id``
    (whose own hop must be None).  A node known to reach the owner ends
    the walk from any node that leads to it, so all the chains together
    cost O(nodes)."""
    reaches = [False] * len(hops)
    reaches[owner_id] = hops[owner_id] is None
    for start in range(len(hops)):
        path = []
        current: int | None = start
        while current is not None and not reaches[current]:
            if len(path) == len(hops):
                return False  # a cycle that never meets the owner
            path.append(current)
            current = hops[current]
        if current is None:
            return False  # ended at a node that is not the owner
        for nid in path:
            reaches[nid] = True
    return True


class PageShadow:
    """The shadow machine's view of one shared page."""

    __slots__ = ("owner", "in_transit_to", "copyset", "access", "epochs", "pending")

    def __init__(self, default_owner: int) -> None:
        #: Current owner, or None while ownership is in transit.
        self.owner: int | None = default_owner
        #: Destination of an in-transit ownership grant.
        self.in_transit_to: int | None = None
        #: Nodes granted read copies and not yet invalidated.  A node
        #: that silently dropped its copy under eviction pressure stays
        #: here — invalidating it later is legal (and a no-op there).
        self.copyset: set[int] = set()
        #: Shadow protection per node (only nodes seen in events).
        self.access: dict[int, str] = {}
        #: Highest invalidation epoch seen per node.
        self.epochs: dict[int, int] = {}
        #: Faults in flight for this page.
        self.pending: int = 0


class ShadowMachine:
    """Event-driven shadow of the coherence protocol.

    Feed it normalised protocol events via :meth:`apply`; violations are
    collected in :attr:`violations` (and raised when ``strict``).
    Usable online (driven by the live oracle) and offline (driven by a
    recorded protocol stream).
    """

    def __init__(
        self,
        nnodes: int,
        manager_node: int = 0,
        update_policy: bool = False,
        strict: bool = False,
    ) -> None:
        self.nnodes = nnodes
        self.manager_node = manager_node
        self.update_policy = update_policy
        self.strict = strict
        self.pages: dict[int, PageShadow] = {}
        self.violations: list[InvariantViolation] = []
        self.events_seen = 0

    # ------------------------------------------------------------------

    def shadow(self, page: int) -> PageShadow:
        shadow = self.pages.get(page)
        if shadow is None:
            shadow = PageShadow(self.manager_node)
            self.pages[page] = shadow
        return shadow

    def _flag(
        self, rule: str, detail: str, page: int | None, node: int | None, time: int
    ) -> None:
        violation = InvariantViolation(rule, detail, page=page, node=node, time=time)
        self.violations.append(violation)
        if self.strict:
            raise violation

    # ------------------------------------------------------------------

    def apply(self, category: str, time: int, fields: dict[str, Any]) -> PageShadow | None:
        """Advance the shadow state by one protocol event, checking the
        stream-decidable invariants as it goes; returns the page's shadow."""
        self.events_seen += 1
        if category == "cluster.boot":
            self.nnodes = int(fields.get("nodes", self.nnodes))
            self.manager_node = int(fields.get("manager", self.manager_node))
            self.update_policy = fields.get("write_policy") == "update"
            return None
        if "page" not in fields:
            return None
        page = int(fields["page"])
        shadow = self.shadow(page)
        node = int(fields.get("node", -1))

        if category == "svm.fault_begin":
            shadow.pending += 1
        elif category == "svm.grant":
            self._apply_grant(shadow, time, page, node, fields)
        elif category == "svm.read_fault":
            self._complete(shadow)
            shadow.access[node] = "READ"
            owner = int(fields["owner"])
            if shadow.owner is not None and shadow.owner != owner:
                self._flag(
                    "read-owner-mismatch",
                    f"read fault on node {node} served by {owner} but the "
                    f"shadow owner is {shadow.owner}",
                    page, node, time,
                )
        elif category in ("svm.write_fault", "svm.write_upgrade", "svm.chown"):
            self._complete(shadow)
            shadow.owner = node
            shadow.in_transit_to = None
            shadow.access[node] = "WRITE"
            shadow.copyset.discard(node)
            if not self.update_policy:
                stale = shadow.copyset - {node}
                if stale:
                    self._flag(
                        "stale-copy",
                        f"write completed on node {node} while nodes "
                        f"{sorted(stale)} still hold uninvalidated copies",
                        page, node, time,
                    )
                    shadow.copyset = set()  # do not re-report every event
        elif category == "svm.invalidate":
            targets = set(int(t) for t in fields["targets"])
            rogue = targets - shadow.copyset
            if rogue:
                self._flag(
                    "invalidate-nonholder",
                    f"node {node} invalidated {sorted(rogue)} which were "
                    f"never granted a copy (granted: {sorted(shadow.copyset)})",
                    page, node, time,
                )
        elif category == "svm.inv_recv":
            epoch = int(fields["epoch"])
            last = shadow.epochs.get(node, 0)
            if epoch <= last:
                self._flag(
                    "epoch-regress",
                    f"node {node} invalidation epoch moved {last} -> {epoch}",
                    page, node, time,
                )
            shadow.epochs[node] = max(epoch, last)
            shadow.copyset.discard(node)
            shadow.access[node] = "NIL"
        elif category == "svm.drop":
            shadow.access[node] = "NIL"
        # svm.update_recv: a pushed image applied to a live copy — no
        # shadow transition (membership was established at grant time).
        return shadow

    def _apply_grant(
        self, shadow: PageShadow, time: int, page: int, node: int,
        fields: dict[str, Any],
    ) -> None:
        to = int(fields["to"])
        write = bool(fields["write"])
        if shadow.owner is None:
            self._flag(
                "grant-in-transit",
                f"node {node} granted page to {to} while ownership is "
                f"already in transit to {shadow.in_transit_to}",
                page, node, time,
            )
        elif shadow.owner != node:
            self._flag(
                "grant-nonowner",
                f"node {node} granted page to {to} but the shadow owner "
                f"is {shadow.owner}",
                page, node, time,
            )
        if write:
            shadow.owner = None
            shadow.in_transit_to = to
            # The transferred copy set is authoritative: the grantor's
            # table tracked every read grant, and the hand-over dissolves
            # both the grantor's own copy (invalidate policy) and the
            # grantee's old reader membership.
            inherited = set(int(c) for c in fields.get("copy_set", ()))
            shadow.copyset = inherited - {to}
            if self.update_policy and not fields.get("zero", False):
                shadow.access[node] = "READ"
            else:
                shadow.access[node] = "NIL"
        else:
            shadow.copyset.add(to)
            if shadow.access.get(node) == "WRITE":
                shadow.access[node] = "READ"

    @staticmethod
    def _complete(shadow: PageShadow) -> None:
        shadow.pending = max(0, shadow.pending - 1)


class CoherenceOracle:
    """Online invariant checker for a live cluster.

    Attached by :class:`repro.api.cluster.Cluster` when the config's
    ``checker`` flag is set; every node's protocol then publishes its
    transitions here via ``CoherenceProtocol._note``.
    """

    def __init__(self, cluster: "Cluster") -> None:
        # The nodes and the clock, not the cluster: every protocol holds
        # this oracle, and nothing below a cluster may refer back to it.
        self.nodes = cluster.nodes
        self.sim = cluster.sim
        config = cluster.config
        self.update_policy = config.svm.write_policy == "update"
        self.shadow = ShadowMachine(
            nnodes=config.nodes,
            manager_node=config.svm.manager_node,
            update_policy=self.update_policy,
            strict=False,
        )
        self.histories: dict[int, deque[tuple[int, str, dict[str, Any]]]] = {}
        self.checks_run = 0
        #: Pages any node has ever materialised an entry for (the tables'
        #: observer holds this set, not the oracle, which holds protocols).
        self.touched_pages: set[int] = set()
        touched = self.touched_pages
        for node in cluster.nodes:
            node.table.attach_observer(lambda node_id, page, entry: touched.add(page))
        #: Live page->entry maps, read without materialising entries: a
        #: page a node never touched reads as the entry its table would
        #: create lazily (one shared, never-mutated stand-in each for the
        #: manager and for everyone else).
        self._tables = [node.table.raw_entries() for node in cluster.nodes]
        self._manager = config.svm.manager_node
        self._untouched = (
            PageTableEntry(False, self._manager),
            PageTableEntry(True, self._manager),
        )
        # The checker hooks, bound once; a manager view only where the
        # protocol overrides the base one (which has no authority).
        base_view = CoherenceProtocol.manager_owner_view
        self._owner_views = [(n.node_id, n.protocol.manager_owner_view) for n in cluster.nodes
                             if type(n.protocol).manager_owner_view is not base_view]
        hops = [getattr(n.protocol, "probable_owner_hop", None) for n in cluster.nodes]
        self._hops: list[Any] = [] if None in hops else hops

    # ------------------------------------------------------------------
    # hooks

    def on_event(self, category: str, time: int, fields: dict[str, Any]) -> None:
        """Receive one protocol transition from a node's protocol."""
        page = fields.get("page")
        if page is None:
            return
        history = self.histories.get(page)
        if history is None:
            history = deque(maxlen=HISTORY_WINDOW)
            self.histories[page] = history
        history.append((time, category, dict(fields)))

        shadow = self.shadow.apply(category, time, fields)
        if self.shadow.violations:
            self._raise(self.shadow.violations.pop(), page)
        assert shadow is not None  # the event names a page

        self._check_page(page, time, category, fields, shadow)

    # ------------------------------------------------------------------
    # live cross-examination of the real page tables

    def _check_page(
        self, page: int, time: int, category: str, fields: dict[str, Any],
        shadow: PageShadow,
    ) -> None:
        self.checks_run += 1
        # One pass over the entries (index == node id) collects what
        # every rule below reads.
        manager = self._manager
        untouched = self._untouched
        epochs = shadow.epochs
        entries: list[PageTableEntry] = []
        owners: list[int] = []
        writers: list[int] = []
        can_read: list[int] = []
        moved: list[int] = []  # live epoch differs from the shadow's
        for nid, table in enumerate(self._tables):
            entry = table.get(page) or untouched[nid == manager]
            entries.append(entry)
            if entry.is_owner:
                owners.append(nid)
            access = entry.access
            if access >= _READ:
                can_read.append(nid)
                if access >= _WRITE:
                    writers.append(nid)
            if entry.inv_epoch != epochs.get(nid):
                moved.append(nid)

        if len(owners) > 1:
            self._violation(
                "owner-unique",
                f"page has {len(owners)} owners: {owners}",
                page, time,
            )
        if not shadow.pending and len(owners) == 0:
            self._violation(
                "owner-missing",
                "page has no owner and no fault in flight",
                page, time,
            )

        # Epoch monotonicity against the live tables.
        for nid in moved:
            last = epochs.get(nid, 0)
            inv_epoch = entries[nid].inv_epoch
            if inv_epoch < last:
                self._violation(
                    "epoch-regress",
                    f"node {nid} invalidation epoch moved {last} -> "
                    f"{inv_epoch}",
                    page, time, node=nid,
                )
            epochs[nid] = max(last, inv_epoch)

        # SWMR: a writable entry anywhere implies NIL everywhere else.
        if writers and not self.update_policy:
            readable = [nid for nid in can_read if nid not in writers]
            if len(writers) > 1 or readable:
                self._violation(
                    "swmr",
                    f"writers {writers} coexist with readable copies "
                    f"at {readable}",
                    page, time,
                )

        if len(owners) == 1:
            owner_id = owners[0]
            owner_entry = entries[owner_id]
            readers = set(can_read) - {owner_id}
            if not readers <= owner_entry.copy_set:
                if not shadow.pending:
                    self._violation(
                        "copyset-cover",
                        f"readers {sorted(readers)} not covered by owner "
                        f"{owner_id}'s copy set "
                        f"{sorted(owner_entry.copy_set)}",
                        page, time, node=owner_id,
                    )

            if not shadow.pending:
                self._check_manager_tables(page, time, owner_id)
                self._check_probowner_chains(page, time, owner_id)

        if category == "svm.read_fault" and not self.update_policy:
            self._check_data_coherence(page, time, fields, entries)

    def _check_manager_tables(self, page: int, time: int, owner_id: int) -> None:
        for nid, view in self._owner_views:
            believed = view(page)
            if believed is not None and believed != owner_id:
                self._violation(
                    "manager-table",
                    f"manager {nid} believes node {believed} owns "
                    f"the page but node {owner_id} does",
                    page, time, node=nid,
                )

    def _check_probowner_chains(self, page: int, time: int, owner_id: int) -> None:
        if not self._hops:
            return
        hops = [hop(page) for hop in self._hops]
        if _all_chains_reach(hops, owner_id):
            return
        # Some chain fails: walk them one by one, as the rule is stated,
        # to name the first broken one and where it ends.
        for start in range(len(hops)):
            current = start
            for _ in range(len(hops) + 1):
                nxt = hops[current]
                if nxt is None:
                    break
                current = nxt
            if current != owner_id:
                self._violation(
                    "probowner-chain",
                    f"probOwner chain from node {start} ends at "
                    f"{current}, not the owner {owner_id}",
                    page, time, node=start,
                )

    def _check_data_coherence(
        self, page: int, time: int, fields: dict[str, Any], entries: list[Any]
    ) -> None:
        """A completed read fault must have installed the owner's bytes
        (the last write in coherence order lives in the owner's frame)."""
        reader = int(fields["node"])
        owner = int(fields["owner"])
        owner_node = self.nodes[owner]
        reader_node = self.nodes[reader]
        if not entries[owner].is_owner:
            return  # ownership moved on; the epoch check already re-faulted
        if page not in owner_node.memory or page not in reader_node.memory:
            return
        golden = owner_node.memory.data(page)
        copy = reader_node.memory.data(page)
        if golden.tobytes() != copy.tobytes():
            diff = int((golden != copy).sum())
            self._violation(
                "data-stale",
                f"read copy on node {reader} differs from owner {owner}'s "
                f"frame in {diff} byte(s)",
                page, time, node=reader,
            )

    # ------------------------------------------------------------------
    # quiescence sweep

    def check_quiescent(self) -> None:
        """Full-strength sweep over every touched page; call after the
        simulation has drained (no faults can be in flight)."""
        for page in sorted(self.touched_pages):
            shadow = self.shadow.shadow(page)
            if shadow.pending:
                self._violation(
                    "pending-at-quiescence",
                    f"{shadow.pending} fault(s) never completed",
                    page, time=self.sim.now,
                )
            self._check_page(page, self.sim.now, "quiescence", {"page": page}, shadow)

    # ------------------------------------------------------------------

    def _violation(
        self, rule: str, detail: str, page: int, time: int, node: int | None = None
    ) -> None:
        violation = InvariantViolation(
            rule, detail, page=page, node=node, time=time,
            history=list(self.histories.get(page, ())),
            state={
                n.node_id: n.table.entry(page).snapshot()
                for n in self.nodes
            },
        )
        self._record(violation, page)
        raise violation

    def _raise(self, violation: InvariantViolation, page: int) -> None:
        violation.history = list(self.histories.get(page, ()))
        violation.state = {
            n.node_id: n.table.entry(page).snapshot() for n in self.nodes
        }
        self._record(violation, page)
        raise violation

    def _record(self, violation: InvariantViolation, page: int) -> None:
        node = violation.node if violation.node is not None else 0
        counters = self.nodes[node].counters
        counters.inc(f"violation.{violation.rule}")
