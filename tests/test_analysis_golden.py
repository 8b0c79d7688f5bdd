"""Byte identity of the read-side analyses against ``tests/data/analysis_golden.json``.

The digests were produced by ``tests/data/generate_analysis_golden.py`` on
the commit before spans, the call profile and arrow matching were folded
over frame columns: ``ute-profile`` stdout (plain, ``--include-running``,
``--window``, both) over interval files and SLOGs, the ``ute-report`` HTML,
and every frame's ``arrows_payload``.  This test re-runs the generator with
the current code and requires the same bytes.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import repro

_SPEC = importlib.util.spec_from_file_location(
    "generate_analysis_golden",
    Path(__file__).parent / "data" / "generate_analysis_golden.py",
)
golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden)


def test_every_golden_digest_is_reproduced(tmp_path):
    """The generator runs in a fresh interpreter (it chdirs, and traces a
    cluster whose thread numbering must start from nothing)."""
    src = Path(repro.__file__).resolve().parents[1]
    subprocess.run(
        [sys.executable, golden.__file__, str(tmp_path / "digests.json"), str(tmp_path)],
        check=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    digests = json.loads((tmp_path / "digests.json").read_text())
    expected = json.loads(golden.GOLDEN.read_text())
    changed = sorted(k for k in expected if digests.get(k) != expected[k])
    assert not changed, f"outputs differ from the golden (see {tmp_path}/out): {changed}"
    assert set(digests) == set(expected)
