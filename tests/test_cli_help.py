"""Every ``repro ... --help`` text stays byte-identical to its snapshot.

The parser fills in a command's arguments only when argparse selects
the command, so this pins what each command accepts and prints as the
root help, every top-level command and every nested one render it.
The snapshots live in ``tests/snapshots/`` (see
``tests/cli_help_snapshot.py``)."""

import sys

import pytest

from cli_help_snapshot import COMMANDS, header, loads, render, snapshot_path

PATH = snapshot_path(sys.version_info[:2])


@pytest.fixture(scope="module")
def snapshot():
    if PATH is None:
        pytest.skip(f"no --help snapshot for Python {sys.version_info[:2]}")
    return loads(PATH.read_text())


def test_snapshot_covers_every_command(snapshot):
    assert list(snapshot) == [header(command) for command in COMMANDS]
    assert len(COMMANDS) == 37


@pytest.mark.parametrize(
    "command", COMMANDS, ids=[" ".join(c) or "repro" for c in COMMANDS]
)
def test_help_matches_snapshot(snapshot, command):
    assert render(command) == snapshot[header(command)]


def test_root_help_lists_every_top_level_command(snapshot):
    top = [command[0] for command in COMMANDS if len(command) == 1]
    usage = snapshot[header(())]
    assert "{" + ",".join(top) + "}" in usage.replace("\n", "").replace(
        " ", ""
    )
