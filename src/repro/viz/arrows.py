"""Message arrows: matching sends with receives by sequence number.

The tracing library attaches a unique sequence number to each point-to-point
message (paper section 2.1) "so that utilities can match sends with
corresponding receives".  Here that pays off: a send interval and the
receive interval that consumed the same sequence number become one arrow in
a time-space diagram — including arrows for "messages that are sent long
before they are received" across frame boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.records import BeBits, IntervalRecord, IntervalType


@dataclass(frozen=True)
class MessageArrow:
    """One matched message: sender row/time -> receiver row/time."""

    seqno: int
    src_row: tuple  # (node, thread)
    dst_row: tuple
    send_time: int
    recv_time: int
    size: int


class ArrowMatcher:
    """Pairs send intervals with receive intervals sharing a sequence
    number, one record at a time, keeping only the per-seqno endpoints —
    O(messages), not O(records).

    A send contributes its first piece's start (the message left then); a
    receive contributes its last piece's end (the message was consumed
    then).  Unmatched halves (e.g. a window cutting off one side) are
    dropped.
    """

    def __init__(self) -> None:
        self._sends: dict[int, tuple[tuple, int, int]] = {}
        self._recvs: dict[int, tuple[tuple, int]] = {}

    def observe(self, r: IntervalRecord) -> None:
        """Take one record's send and receive endpoints, if any."""
        if not IntervalType.is_mpi(r.itype):
            return
        row = (r.node, r.thread)
        seqno = r.extra.get("seqno", 0)
        if seqno:
            if r.extra.get("msgSizeSent", 0) > 0 and r.bebits in (
                BeBits.COMPLETE, BeBits.BEGIN,
            ):
                self._sends.setdefault(seqno, (row, r.start, r.extra["msgSizeSent"]))
            if r.extra.get("msgSizeRecv", 0) > 0 and r.bebits in (
                BeBits.COMPLETE, BeBits.END,
            ):
                self._note_recv(seqno, row, r.end)
        # Waitall records complete many receives at once: their sequence
        # numbers arrive as the 'seqnos' vector field.
        if r.bebits in (BeBits.COMPLETE, BeBits.END):
            for s in r.extra.get("seqnos", ()) or ():
                self._note_recv(int(s), row, r.end)

    def _note_recv(self, seqno: int, row: tuple, end: int) -> None:
        current = self._recvs.get(seqno)
        if current is None or end > current[1]:
            self._recvs[seqno] = (row, end)

    def arrows(self) -> list[MessageArrow]:
        """Every matched message so far, by sequence number."""
        arrows = []
        for seqno, (src_row, send_time, size) in self._sends.items():
            hit = self._recvs.get(seqno)
            if hit is None:
                continue
            dst_row, recv_time = hit
            arrows.append(
                MessageArrow(seqno, src_row, dst_row, send_time, recv_time, size)
            )
        arrows.sort(key=lambda a: a.seqno)
        return arrows


def match_arrows(records: Iterable[IntervalRecord]) -> list[MessageArrow]:
    """The :class:`ArrowMatcher` arrows of ``records``."""
    matcher = ArrowMatcher()
    for r in records:
        matcher.observe(r)
    return matcher.arrows()
