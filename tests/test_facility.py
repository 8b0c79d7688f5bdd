"""Tests for trace sessions, options, and the cluster-wide facility."""

import pytest

from repro.cluster import Cluster, ClusterSpec, Compute
from repro.errors import TraceError
from repro.tracing import RawTraceReader, TraceFacility, TraceOptions
from repro.tracing.hooks import HookId


def run_traced(tmp_path, options=None, nodes=2, body=None, spawn_on=(0,)):
    cl = Cluster(ClusterSpec(n_nodes=nodes, cpus_per_node=2))
    fac = TraceFacility(cl, tmp_path, options or TraceOptions())
    if body is None:

        def body():
            yield Compute(3_000_000)

    for node_id in spawn_on:
        cl.nodes[node_id].scheduler.spawn(body, name=f"t{node_id}")
    cl.run()
    paths = fac.close()
    return cl, fac, [RawTraceReader(p) for p in paths]


def test_one_raw_file_per_node(tmp_path):
    _, _, readers = run_traced(tmp_path, nodes=3)
    assert len(readers) == 3
    assert [r.header.node_id for r in readers] == [0, 1, 2]


def test_dispatch_events_recorded(tmp_path):
    _, _, readers = run_traced(tmp_path)
    hooks = [e.hook_id for e in readers[0].events()]
    assert HookId.DISPATCH in hooks
    assert HookId.UNDISPATCH in hooks


def test_thread_info_emitted_once_before_first_dispatch(tmp_path):
    _, _, readers = run_traced(tmp_path)
    events = readers[0].events()
    infos = [e for e in events if e.hook_id == HookId.THREAD_INFO]
    assert len(infos) == 1
    info_pos = events.index(infos[0])
    first_dispatch = next(
        i for i, e in enumerate(events) if e.hook_id == HookId.DISPATCH
    )
    assert info_pos < first_dispatch
    assert infos[0].text == "t0"


def test_timestamps_use_local_clock(tmp_path):
    """Node 1's default clock has a 1 ms offset: its records must too."""
    _, _, readers = run_traced(tmp_path, spawn_on=(0, 1))
    for reader, base in zip(readers, (0, 1_000_000)):
        dispatches = [e for e in reader.events() if e.hook_id == HookId.DISPATCH]
        assert dispatches[0].local_ts >= base


def test_event_filtering_with_enabled_hooks(tmp_path):
    options = TraceOptions(enabled_hooks=frozenset({int(HookId.DISPATCH)}))
    _, _, readers = run_traced(tmp_path, options)
    hooks = {e.hook_id for e in readers[0].events()}
    assert hooks == {HookId.DISPATCH}


def test_delayed_start_traces_nothing_until_enabled(tmp_path):
    cl = Cluster(ClusterSpec(n_nodes=1, cpus_per_node=1))
    fac = TraceFacility(cl, tmp_path, TraceOptions(start_enabled=False))

    def body():
        yield Compute(2_000_000)

    cl.nodes[0].scheduler.spawn(body, name="early")
    cl.run()
    # Nothing recorded during the disabled phase.
    assert fac.sessions[0].events_cut == 0
    fac.enable()
    cl.nodes[0].scheduler.spawn(body, name="late")
    cl.run()
    paths = fac.close()
    events = RawTraceReader(paths[0]).events()
    names = {e.text for e in events if e.hook_id == HookId.THREAD_INFO}
    assert names == {"late"}
    assert events[0].hook_id == HookId.TRACE_ON


def test_disable_cuts_trace_off(tmp_path):
    cl = Cluster(ClusterSpec(n_nodes=1, cpus_per_node=1))
    fac = TraceFacility(cl, tmp_path)
    fac.disable()
    paths = fac.close()
    hooks = [e.hook_id for e in RawTraceReader(paths[0]).events()]
    assert hooks[-1] == HookId.TRACE_OFF


def test_global_clock_records_sampled_periodically(tmp_path):
    options = TraceOptions(global_clock_period_ns=1_000_000)

    def body():
        yield Compute(5_500_000)

    _, fac, readers = run_traced(tmp_path, options, nodes=1, body=body)
    clocks = [e for e in readers[0].events() if e.hook_id == HookId.GLOBAL_CLOCK]
    # Samples at 0,1,2,3,4,5 ms plus the final stop() sample.
    assert len(clocks) == 7
    globals_ = [e.args[0] for e in clocks]
    assert globals_ == [0, 1_000_000, 2_000_000, 3_000_000, 4_000_000, 5_000_000, 5_500_000]


def test_global_clock_pairs_reflect_drift(tmp_path):
    options = TraceOptions(global_clock_period_ns=1_000_000_000)

    def body():
        yield Compute(2_000_000_000)

    cl = Cluster(ClusterSpec(n_nodes=2, cpus_per_node=1))
    fac = TraceFacility(cl, tmp_path, options)
    cl.nodes[1].scheduler.spawn(body)
    cl.run()
    paths = fac.close()
    clocks = [
        e for e in RawTraceReader(paths[1]).events() if e.hook_id == HookId.GLOBAL_CLOCK
    ]
    # Node 1: offset 1 ms, drift +18 ppm.
    for e in clocks:
        g = e.args[0]
        expected_local = 1_000_000 + round(g * (1 + 18e-6))
        assert abs(e.local_ts - expected_local) <= 1


def test_jitter_injects_outliers_deterministically(tmp_path):
    options = TraceOptions(
        global_clock_period_ns=1_000_000,
        clock_sample_jitter_ns=500_000,
        jitter_probability=0.5,
        seed=7,
    )

    def body():
        yield Compute(20_000_000)

    _, fac, readers = run_traced(tmp_path, options, nodes=1, body=body)
    assert fac.samplers[0].jittered_samples > 0
    # Determinism: same seed, same jitter count.
    _, fac2, _ = run_traced(tmp_path / "again", options, nodes=1, body=body)
    assert fac2.samplers[0].jittered_samples == fac.samplers[0].jittered_samples


def test_double_close_rejected(tmp_path):
    cl = Cluster(ClusterSpec(n_nodes=1))
    fac = TraceFacility(cl, tmp_path)
    fac.close()
    with pytest.raises(TraceError):
        fac.close()


def test_events_cut_counter(tmp_path):
    _, fac, readers = run_traced(tmp_path)
    assert fac.sessions[0].events_cut == len(readers[0].events())


def test_a_filtered_cut_costs_only_the_enable_test(tmp_path, monkeypatch):
    """Section 2.1: filtering is cheaper than cutting because a filtered
    event stops at the enable test — no clock read, no buffer insert."""
    cl = Cluster(ClusterSpec(n_nodes=1, cpus_per_node=1))
    fac = TraceFacility(
        cl, tmp_path, TraceOptions(enabled_hooks=frozenset({int(HookId.MARKER_BEGIN)}))
    )
    session = fac.sessions[0]
    calls = {"read": 0, "write": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    clock_type = type(session.node.clock)
    monkeypatch.setattr(clock_type, "read", counted("read", clock_type.read))
    monkeypatch.setattr(session.writer, "write", counted("write", session.writer.write))
    assert session.cut(int(HookId.DISPATCH), 1000, 42, 0) is False
    assert calls == {"read": 0, "write": 0}
    assert session.events_cut == 0
    assert session.cut(int(HookId.MARKER_BEGIN), 1000, 42, 0, (1, 0)) is True
    assert calls == {"read": 1, "write": 1}
    assert session.events_cut == 1
    fac.close()
