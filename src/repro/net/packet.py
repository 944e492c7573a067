"""Wire message representation and size accounting.

The payload rides as a Python object (the data plane stays functionally
real), while ``nbytes`` is the simulated wire size used for ring
occupancy.  Callers are responsible for declaring honest sizes; helpers
below compute them for the common cases.  Also here, below the protocol
layer: the op -> page-path registry and the delivery-label grammar.
"""

from __future__ import annotations

import itertools
import re
import warnings
from typing import Any, NamedTuple

__all__ = [
    "BROADCAST",
    "HEADER_BYTES",
    "DeliveryLabel",
    "Message",
    "declare_op_page",
    "delivery_label",
    "extractor_errors",
    "next_serial",
    "op_page",
    "parse_delivery_label",
    "request_size",
    "reset_extractor_errors",
]

#: Destination id meaning "every other station on the ring".
BROADCAST = -1

#: Ring frame header + transport header, charged per message.
HEADER_BYTES = 32

_serial = itertools.count(1)


def next_serial() -> int:
    """Allocate the next global message construction serial.

    Exposed for :mod:`repro.net.pool`: a recycled :class:`Message` gets
    a *fresh* serial on reuse, so serials stay unique per logical
    message even though the carrying object is reused.
    """
    return next(_serial)


class Message:
    """One transport-level message (request, reply, or broadcast).

    A plain ``__slots__`` class rather than a dataclass: one is built per
    request, reply, forward, and retransmission, so construction is on
    the fault hot path.

    Fields: ``src``/``dst`` stations; ``kind`` ("req" | "rep" | "bcast");
    ``op``; ``origin`` (requesting processor — survives forwarding);
    ``msg_id`` (origin's sequence number; dedup key with origin);
    ``payload``; ``nbytes`` (simulated wire size, floored at
    :data:`HEADER_BYTES`); ``load_hint`` (piggybacked process count — "a
    byte ... packed into every message at almost no extra cost");
    ``reply_scheme`` for broadcasts ("any" | "all" | "none");
    ``targets`` (multicast filter: when set on a broadcast frame the
    fabric delivers it to these stations only, as ring hardware
    multicast filtering does); ``span`` (causal span id riding the
    wire, 0 = untraced — pure observability, never read by protocol
    code); ``serial`` (global construction order, debug aid).
    """

    __slots__ = (
        "src", "dst", "kind", "op", "origin", "msg_id", "payload",
        "nbytes", "load_hint", "reply_scheme", "targets", "span", "serial",
        "refs",
    )

    def __init__(
        self,
        src: int,
        dst: int,
        kind: str,
        op: str,
        origin: int,
        msg_id: int,
        payload: Any,
        nbytes: int,
        load_hint: int = 0,
        reply_scheme: str = "all",
        targets: tuple[int, ...] | None = None,
        span: int = 0,
    ) -> None:
        self.src = src
        self.dst = dst
        self.kind = kind
        self.op = op
        self.origin = origin
        self.msg_id = msg_id
        self.payload = payload
        self.nbytes = nbytes if nbytes >= HEADER_BYTES else HEADER_BYTES
        self.load_hint = load_hint
        self.reply_scheme = reply_scheme
        self.targets = targets
        self.span = span
        self.serial = next(_serial)
        #: Reference count for free-list pooling (repro.net.pool): the
        #: creator holds one reference; each scheduled delivery holds one
        #: for its in-flight window; a server holds one while handling.
        #: Messages built directly (tests, ad-hoc frames) simply carry
        #: refs=1 and join a pool's free list on their first release.
        self.refs = 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Message {self.describe()}>"

    def describe(self) -> str:
        return (
            f"{self.kind}:{self.op} {self.src}->{self.dst} "
            f"origin={self.origin} id={self.msg_id} {self.nbytes}B"
        )


# ---------------------------------------------------------------------------
# Page declarations.
#
# The schedule explorer (repro.analysis.explore) treats two same-tick events
# as commuting only when it can prove they touch disjoint protocol state; for
# message deliveries that proof needs the page a message concerns, which only
# the protocol layer knows.  Each row of the protocol's op table
# (``repro.svm.protocol.Op``) therefore declares *where in its request
# payload* the page number sits, as data: an index path, ``()`` when the
# payload is the page itself, ``(0,)`` when ``payload[0]`` is.  The registry
# lives in the net layer (below the svm layer) so the fabric and transport
# can label their delivery events without importing protocol code.  Ops
# without a declaration simply get no page tag, which the explorer treats
# conservatively (conflicts with everything).  The registry is process-global
# while the static certificate is per class, so one op name means one payload
# shape: declaring it again identically is free (every manager class that
# inherits the base rows does); declaring it differently is an error, never a
# silent overwrite.

_PAGE_OF: dict[str, tuple[int, ...] | None] = {}

#: Payloads that did not have their op's declared shape (the path does
#: not resolve, or resolves to something that is not a page number).
#: The explorer surfaces the total as ``explore.extractor_error``: a
#: silently-degrading footprint would weaken partial-order reduction
#: with no signal at all, which is exactly the failure mode the static
#: certifier exists to rule out.
_EXTRACTOR_ERRORS: dict[str, int] = {}
_EXTRACTOR_WARNED: set[str] = set()


def declare_op_page(op: str, path: tuple[int, ...] | None) -> None:
    """Declare that ``op``'s request payload carries its page number at
    index path ``path`` (None: nowhere); a conflicting re-declaration raises."""
    known = _PAGE_OF.setdefault(op, path)
    if known != path:
        raise ValueError(
            f"op {op!r} is already declared with its page at payload path "
            f"{known!r}; refusing the conflicting declaration {path!r}"
        )


def extractor_errors() -> dict[str, int]:
    """Payloads that did not fit their op's declaration, keyed by op."""
    return dict(_EXTRACTOR_ERRORS)


def reset_extractor_errors() -> None:
    """Clear the error counts (and the warn-once latch); test hook."""
    _EXTRACTOR_ERRORS.clear()
    _EXTRACTOR_WARNED.clear()


def _extractor_failed(op: str, why: str) -> None:
    _EXTRACTOR_ERRORS[op] = _EXTRACTOR_ERRORS.get(op, 0) + 1
    if op not in _EXTRACTOR_WARNED:
        _EXTRACTOR_WARNED.add(op)
        warnings.warn(
            f"page declaration of op {op!r} {why}; its deliveries "
            "are labelled p? and the schedule explorer treats them as "
            "conflicting with everything (sound but unreduced)",
            RuntimeWarning,
            stacklevel=3,
        )


def op_page(op: str, payload: Any) -> int | None:
    """The page a *request* payload concerns, or None when unknown.

    A payload that does not have the declared shape must not kill
    delivery, but it must not pass silently either: each one is counted
    (see :func:`extractor_errors`) and the first per op warns.
    """
    path = _PAGE_OF.get(op)
    if path is None:
        return None
    page = payload
    try:
        for index in path:
            page = page[index]
    except (TypeError, LookupError) as exc:
        _extractor_failed(op, f"does not fit a payload ({exc!r})")
        return None
    # bool is an int subtype; True is an ack value, never page 1.
    if isinstance(page, int) and not isinstance(page, bool):
        return page
    _extractor_failed(op, f"names non-page {page!r}")
    return None


def delivery_label(target: int, msg: Message) -> str:
    """Scheduling label for delivering ``msg`` at station ``target``.

    The ``n<target>``/``p<page>`` tokens are what the explorer's
    independence relation parses (via :func:`parse_delivery_label`); the
    trailing ``o<origin>.<msg_id>`` keeps labels unique per in-flight
    message.

    Only request and broadcast frames are page-attributed: the page
    paths are declared (and statically certified) against *request*
    payload shapes, and reply payloads have different ones — a locate
    reply carries the owner's node id, which the identity path would
    happily mislabel as a page number, silently letting the explorer
    commute deliveries it has no proof about.  Replies therefore always
    carry ``p?`` (conflicts with everything).
    """
    page = op_page(msg.op, msg.payload) if msg.kind != "rep" else None
    ptag = "p?" if page is None else f"p{page}"
    return f"deliver:n{target}:{ptag}:{msg.kind}:{msg.op}:o{msg.origin}.{msg.msg_id}"


class DeliveryLabel(NamedTuple):
    """Parsed form of :func:`delivery_label` (``page`` None for ``p?``)."""

    target: int
    page: int | None
    kind: str
    op: str
    origin: int
    msg_id: int


_LABEL_RE = re.compile(
    r"^deliver:n(\d+):p(\d+|\?):(\w+):([\w.]+):o(\d+)\.(\d+)$"
)


def parse_delivery_label(label: str | None) -> DeliveryLabel | None:
    """Parse a delivery label; None for non-delivery labels.

    This is the *only* parser of the label grammar — it lives next to
    the formatter so the two cannot drift (the explorer's independence
    relation imports it rather than re-deriving the format).
    """
    match = _LABEL_RE.match(label) if label else None
    if match is None:
        return None
    page_tok = match.group(2)
    return DeliveryLabel(
        target=int(match.group(1)),
        page=None if page_tok == "?" else int(page_tok),
        kind=match.group(3),
        op=match.group(4),
        origin=int(match.group(5)),
        msg_id=int(match.group(6)),
    )


def request_size(arg_bytes: int = 0) -> int:
    """Wire size of a request carrying ``arg_bytes`` of arguments."""
    return HEADER_BYTES + arg_bytes
