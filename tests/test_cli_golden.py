"""Every command keeps its argument surface and its exit statuses.

``tests/data/cli_golden.json`` holds, per console script, the argparse
surface (flags, dest, default, choices, nargs, type, action, required) and
an exit-status matrix (valid input, junk input, output under a regular file,
unknown flag).  It was produced by ``tests/data/generate_cli_golden.py`` at
the commit before the 17 hand-built parsers became rows of
``repro.cli.COMMANDS``; these tests re-run the generator with the current
code.  The one intended difference is ``--threads``, which no longer offers
``None`` as a choice it then refuses.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "generate_cli_golden",
    Path(__file__).parent / "data" / "generate_cli_golden.py",
)
golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden)


@pytest.fixture(scope="module")
def rebuilt(tmp_path_factory):
    return golden.build(tmp_path_factory.mktemp("cli-golden"))


@pytest.fixture(scope="module")
def expected():
    data = json.loads(golden.GOLDEN.read_text())
    for name in ("ute-merge", "slogmerge"):
        threads = data[name]["surface"]["optionals"]["--threads"]
        assert threads["choices"] == [None, "mpi", "user", "system"]
        threads["choices"] = ["mpi", "user", "system"]
    return data


def test_every_console_script_is_pinned(expected):
    from repro import cli

    assert sorted(expected) == sorted(golden.SCRIPTS) == sorted(cli.COMMANDS)
    for name, main in golden.SCRIPTS.items():
        assert callable(getattr(cli, main))


@pytest.mark.parametrize("name", sorted(golden.SCRIPTS))
def test_surface(name, rebuilt, expected):
    assert rebuilt[name]["surface"] == expected[name]["surface"]


@pytest.mark.parametrize("name", sorted(golden.SCRIPTS))
def test_exit_matrix(name, rebuilt, expected):
    assert rebuilt[name]["exits"] == expected[name]["exits"]


def test_import_loads_neither_numpy_nor_the_viewer():
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        "import sys; import repro.cli; "
        "print(sorted(m for m in ('numpy', 'repro.viz.jumpshot') if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env={"PYTHONPATH": str(src)}, check=True,
    )
    assert result.stdout.strip() == "[]"
