"""Byte identity of the display path: every SVG, ``/api/utilization``
payload and ``view_payload`` of ``tests/data/generate_view_golden.py``
hashes to what the commit before the columnar render path produced
(``tests/data/view_golden.json``)."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "generate_view_golden",
    Path(__file__).parent / "data" / "generate_view_golden.py",
)
golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden)


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return golden.build(tmp_path_factory.mktemp("view-golden"))


def test_every_case_is_present(digests):
    pinned = json.loads(golden.GOLDEN.read_text())
    assert sorted(digests) == sorted(pinned)
    # 4 fixtures x (6 kinds x 4 windows x 2 widths SVGs, 2 lane kinds x 4
    # windows x 4 bin counts payloads, 2 view payloads).
    assert len(pinned) == 4 * (48 + 32 + 2)


def test_outputs_match_the_parent_commit(digests):
    pinned = json.loads(golden.GOLDEN.read_text())
    differing = [key for key in pinned if digests.get(key) != pinned[key]]
    assert not differing, (
        f"{len(differing)} of {len(pinned)} outputs changed, e.g. {differing[:5]}; "
        "diff the WORKDIR/out files of two generator runs to see how"
    )
