"""Records over 255 bytes: the length-prefix escape, end to end.

A waitall completing many receives carries a long ``seqnos`` vector, pushing
the record body past 255 bytes — the case the paper's zero-byte length
escape exists for.  Exercise it through encode/decode, the file writer, the
simple API's record skipping, and a real traced run.
"""

import pytest

from repro.core import (
    IntervalFileWriter,
    IntervalReader,
    get_interval,
    read_header,
    standard_profile,
)
from repro.core.fields import MASK_ALL_PER_NODE
from repro.core.records import BeBits, IntervalRecord, IntervalType
from repro.core.threadtable import ThreadEntry, ThreadTable
from repro.tracing.hooks import MPI_FN_IDS

PROFILE = standard_profile()
WAITALL = IntervalType.for_mpi_fn(MPI_FN_IDS["MPI_Waitall"])


def big_waitall(n_seqnos=40, start=0):
    return IntervalRecord(
        WAITALL, BeBits.COMPLETE, start, 100, 0, 0, 0,
        {"seqnos": list(range(1, n_seqnos + 1))},
    )


class TestLengthEscape:
    def test_record_exceeds_255_bytes(self):
        blob = big_waitall().encode(PROFILE, MASK_ALL_PER_NODE)
        assert len(blob) > 255
        assert blob[0] == 0  # escaped length prefix

    def test_roundtrip(self):
        rec = big_waitall()
        blob = rec.encode(PROFILE, MASK_ALL_PER_NODE)
        decoded, consumed = IntervalRecord.decode(blob, 0, PROFILE, MASK_ALL_PER_NODE)
        assert consumed == len(blob)
        assert decoded.extra["seqnos"] == list(range(1, 41))

    def test_file_roundtrip_mixed_sizes(self, tmp_path):
        table = ThreadTable([ThreadEntry(0, 1, 1, 0, 0, 0, "t")])
        path = tmp_path / "big.ute"
        records = []
        t = 0
        for i in range(30):
            if i % 3 == 0:
                records.append(big_waitall(n_seqnos=35 + i, start=t))
            else:
                records.append(
                    IntervalRecord(IntervalType.RUNNING, BeBits.COMPLETE, t, 100, 0, 0, 0)
                )
            t += 200
        with IntervalFileWriter(
            path, PROFILE, table, field_mask=MASK_ALL_PER_NODE, frame_bytes=512
        ) as writer:
            for rec in records:
                writer.write(rec)
        back = list(IntervalReader(path, PROFILE).intervals())
        assert len(back) == 30
        for orig, got in zip(records, back):
            assert got.extra.get("seqnos", []) == orig.extra.get("seqnos", [])

    def test_simple_api_skips_large_records(self, tmp_path):
        """get_interval must walk past >255-byte records via the escape."""
        table = ThreadTable([ThreadEntry(0, 1, 1, 0, 0, 0, "t")])
        path = tmp_path / "skip.ute"
        with IntervalFileWriter(
            path, PROFILE, table, field_mask=MASK_ALL_PER_NODE
        ) as writer:
            writer.write(big_waitall(start=0))
            writer.write(
                IntervalRecord(IntervalType.RUNNING, BeBits.COMPLETE, 200, 50, 0, 0, 0)
            )
        handle, _ = read_header(path)
        first = get_interval(handle)
        second = get_interval(handle)
        assert first is not None and len(first) > 255
        assert second is not None and len(second) < 255
        assert get_interval(handle) is None

    def test_end_to_end_many_request_waitall(self, tmp_path):
        """A traced run whose waitall completes 40 receives survives the
        whole pipeline, seqnos intact."""
        from repro.cluster import Cluster, ClusterSpec
        from repro.mpi import MpiRuntime
        from repro.tracing import TraceFacility
        from repro.utils.convert import convert_traces
        from repro.utils.merge import merge_interval_files
        from repro.query.columnar import batch_from_records
        from repro.viz.arrows import match_arrows

        cl = Cluster(ClusterSpec(n_nodes=2, cpus_per_node=2))
        fac = TraceFacility(cl, tmp_path / "raw")
        rt = MpiRuntime(cl, fac)
        n_msgs = 40

        def body(ctx):
            if ctx.rank == 0:
                for i in range(n_msgs):
                    yield from ctx.isend(1, 64, tag=i)
            else:
                reqs = []
                for i in range(n_msgs):
                    reqs.append((yield from ctx.irecv(0, tag=i)))
                yield from ctx.waitall(reqs)

        rt.launch(2, body, tasks_per_node=1)
        rt.run()
        paths = fac.close()
        conv = convert_traces(paths, tmp_path / "ivl")
        merged = merge_interval_files(
            conv.interval_paths, tmp_path / "m.ute", PROFILE
        )
        reader = IntervalReader(merged.merged_path, PROFILE)
        records = list(reader.intervals())
        waitalls = [r for r in records if r.itype == WAITALL and r.extra.get("seqnos")]
        assert waitalls
        assert sum(len(r.extra["seqnos"]) for r in waitalls if r.bebits in
                   (BeBits.COMPLETE, BeBits.END)) == n_msgs
        arrows = match_arrows(batch_from_records(records))
        assert len(arrows) == n_msgs
