"""Byte identity of the exact display path: every frame display, straddling
window, crowded-row view and ``frame_payload`` of
``tests/data/generate_view_golden.py::build_frames`` hashes to what the
commit before the exact path became columns produced
(``tests/data/view_frames_golden.json``)."""

from __future__ import annotations

import json

import pytest

from tests.test_view_golden import golden


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return golden.build_frames(tmp_path_factory.mktemp("view-frames-golden"))


def test_every_case_is_present(digests):
    pinned = json.loads(golden.FRAMES_GOLDEN.read_text())
    assert sorted(digests) == sorted(pinned)
    # 5 fixtures x (6 kinds x 3 frames x 2 widths displays, 6 payloads),
    # 4 multi-frame fixtures x 6 kinds x 2 straddles, 2 crowded rows.
    assert len(pinned) == 5 * (36 + 6) + 4 * 12 + 2


def test_outputs_match_the_parent_commit(digests):
    pinned = json.loads(golden.FRAMES_GOLDEN.read_text())
    differing = [key for key in pinned if digests.get(key) != pinned[key]]
    assert not differing, (
        f"{len(differing)} of {len(pinned)} outputs changed, e.g. {differing[:5]}; "
        "diff the WORKDIR/out files of two generator runs to see how"
    )
