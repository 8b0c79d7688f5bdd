"""Pins ``BENCHMARK.json`` to the driver's contract and to the workloads.

Run by ``run.py --smoke`` (and runnable under pytest): the declaration has
exactly the contract's keys and limits, every per-layer name is produced by
exactly one workload module, and ``spec.emit`` refuses an undeclared name
and fails on a missing one.
"""

from __future__ import annotations

import importlib
import re

from benchmarks.e2e import spec

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
_PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def _modules():
    return [importlib.import_module(f"benchmarks.e2e.{w}") for w in spec.WORKLOADS]


def test_contract_keys_and_limits():
    doc = spec.load_declaration()
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert spec.DECLARATION_PATH.stat().st_size <= 64 * 1024
    assert 1 <= len(doc["command"]) <= 32
    assert all(len(part) <= 200 and not part.startswith("/") and ".." not in part
               for part in doc["command"])
    assert doc["paths"] == ["benchmarks/e2e"] and all(_PATH.match(p) for p in doc["paths"])
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [m["name"] for m in doc["workloads"] + doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names)), "a name is used twice"
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert _NAME.match(metric["name"]), metric["name"]
        assert _UNIT.match(metric["unit"]), metric["unit"]
        assert metric["better"] in ("higher", "lower")
    setup = spec.declared(doc, "end_to_end")["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_workloads_match_modules():
    doc = spec.load_declaration()
    assert tuple(w["name"] for w in doc["workloads"]) == spec.WORKLOADS
    assert set(spec.SIZES) == set(spec.SMOKE_SIZES) == set(spec.WORKLOADS)
    for name in spec.WORKLOADS:
        assert set(spec.SIZES[name]) == set(spec.SMOKE_SIZES[name]), name
    produced = [n for module in _modules() for n in module.LAYER_METRICS]
    assert len(produced) == len(set(produced)), "two workloads claim one layer metric"
    assert set(produced) == set(spec.declared(doc, "per_layer"))


def test_emit_is_strict():
    doc = spec.load_declaration()
    e2e = {name: 1.0 for name in spec.declared(doc, "end_to_end")}
    assert set(spec.emit(e2e, doc, trace=False, produced_layers=())) == set(e2e)
    layers = spec.emit({"planner.plan_us": 2.0}, doc, trace=True,
                       produced_layers=("planner.plan_us",))
    assert set(layers) == set(spec.declared(doc, "per_layer"))
    assert layers["planner.plan_us"]["value"] == 2.0
    assert layers["live.assemble_s"]["value"] == 0.0  # another workload's layer
    for bad_values, trace, produced in (
        ({**e2e, "not_declared": 1.0}, False, ()),
        ({k: v for k, v in e2e.items() if k != "latency_p50_ms"}, False, ()),
        ({}, True, ("planner.plan_us",)),
    ):
        try:
            spec.emit(bad_values, doc, trace=trace, produced_layers=produced)
        except SystemExit:
            continue
        raise AssertionError(f"emit accepted {sorted(bad_values)}")


def main() -> None:
    for name, test in sorted(globals().items()):
        if name.startswith("test_"):
            test()
    print("schema: BENCHMARK.json matches the contract and the workloads")


if __name__ == "__main__":
    main()
