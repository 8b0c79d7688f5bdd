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

import numpy as np

from repro.core.records import BeBits, IntervalType
from repro.query.columnar import FrameBatch


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
    number, batch after batch, keeping only the per-seqno endpoints —
    O(messages), not O(records).

    A send contributes its first piece's start (the message left then); a
    receive contributes its last piece's end (the message was consumed
    then).  The first send of a sequence number wins; a receive replaces
    the held one only with a strictly later end, so on a tie the first
    stays.  Unmatched halves (e.g. a window cutting off one side) are
    dropped.
    """

    def __init__(self) -> None:
        self._sends: dict[int, tuple[tuple, int, int]] = {}
        self._recvs: dict[int, tuple[tuple, int]] = {}

    def observe(self, batch: FrameBatch) -> None:
        """Take the send and receive endpoints of the batch's MPI rows."""
        mpi = (batch.itype >= IntervalType.MPI_BASE) & (batch.itype < IntervalType.MARKER)
        if not mpi.any():
            return
        be = batch.bebits
        opens = mpi & ((be == BeBits.COMPLETE) | (be == BeBits.BEGIN))
        closes = mpi & ((be == BeBits.COMPLETE) | (be == BeBits.END))
        seqno = batch.extra_values("seqno")
        numbered = seqno != 0
        sent = batch.extra_values("msgSizeSent")
        at = np.flatnonzero(numbered & opens & (sent > 0))
        for s, node, thread, start, size in zip(
            *(col[at].tolist() for col in (seqno, batch.node, batch.thread, batch.start, sent))
        ):
            self._sends.setdefault(s, ((node, thread), start, size))
        # (row, order within the row, seqno): a row's own seqno first, then
        # the sequence numbers a Waitall completes through its 'seqnos'.
        at = np.flatnonzero(numbered & closes & (batch.extra_values("msgSizeRecv") > 0))
        received = list(zip(at.tolist(), [0] * len(at), seqno[at].tolist()))
        for rows, names, columns in batch.extra_groups():
            if "seqnos" in names:
                vectors = columns[names.index("seqnos")]
                received.extend(
                    (row, 1, int(s))
                    for row, vector in zip(rows, vectors) if closes[row] for s in vector or ()
                )
        received.sort(key=lambda r: r[:2])
        at = np.array([row for row, _, _ in received], dtype=np.intp)
        for (_, _, s), node, thread, end in zip(
            received, *(col[at].tolist() for col in (batch.node, batch.thread, batch.end))
        ):
            current = self._recvs.get(s)
            if current is None or end > current[1]:
                self._recvs[s] = ((node, thread), end)

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


def match_arrows(batch: FrameBatch) -> list[MessageArrow]:
    """The :class:`ArrowMatcher` arrows of one batch."""
    matcher = ArrowMatcher()
    matcher.observe(batch)
    return matcher.arrows()
