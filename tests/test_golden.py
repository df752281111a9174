"""Byte-identical CLI output on every catalog graph.

``golden/stdout_sha256.json`` holds the sha256 of the stdout of
``cographic fan``, ``cographic analyze``, ``cographic ring`` and
``cographic verify-invariant-ring`` (degree 3) for each bundled graph.  A refactor or speed-up must leave these bytes unchanged.
To re-record after a deliberate output change, run from the repository
root:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from cographic.catalog import catalog_names
from cographic.cli import main

GOLDEN = Path(__file__).parent / "golden" / "stdout_sha256.json"
COMMANDS = ("fan", "analyze", "ring", "verify-invariant-ring")


def stdout_sha256(command, name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main([command, name])
    assert code == 0, (command, name, code)
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def _key(command, name):
    return f"{command} {name}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_catalog_graph(golden):
    assert set(golden) == {_key(c, n) for c in COMMANDS
                           for n in catalog_names()}


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", catalog_names())
def test_stdout_matches_golden(command, name, golden):
    assert stdout_sha256(command, name) == golden[_key(command, name)]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    hashes = {_key(c, n): stdout_sha256(c, n)
              for c in COMMANDS for n in catalog_names()}
    GOLDEN.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(hashes)} hashes to {GOLDEN}")
