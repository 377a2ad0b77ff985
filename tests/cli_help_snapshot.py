"""The ``--help`` text of every ``repro`` command, kept as a snapshot.

argparse lays help out differently across Python versions (3.9 prints
``optional arguments:``, 3.13 folds the usage of options with short and
long forms), so there is one snapshot per minor version; versions that
render alike share a file.  Each text is rendered through
``repro.cli.main([..., "--help"])`` with ``COLUMNS=80`` and
``REPRO_STORE``/``REPRO_URL`` unset.  Only the standard library is
needed, so any interpreter can render or check it::

    PYTHONPATH=src python tests/cli_help_snapshot.py --check
    PYTHONPATH=src python tests/cli_help_snapshot.py --write

``tests/test_cli_help.py`` runs the check under pytest.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple

#: every command path, the root first and nested commands after their
#: parent, in ``repro --help`` order
COMMANDS: Tuple[Tuple[str, ...], ...] = (
    (),
    ("select",),
    ("report",),
    ("sweep",),
    ("results",),
    ("results", "ls"),
    ("results", "show"),
    ("results", "diff"),
    ("results", "export"),
    ("suite",),
    ("suite", "run"),
    ("suite", "ls"),
    ("suite", "show"),
    ("store",),
    ("store", "stats"),
    ("store", "verify"),
    ("serve",),
    ("submit",),
    ("jobs",),
    ("fetch",),
    ("analytics",),
    ("analytics", "regress"),
    ("analytics", "report"),
    ("registry",),
    ("lint",),
    ("table1",),
    ("table2",),
    ("safety",),
    ("area-example",),
    ("structure",),
    ("latency",),
    ("ablations",),
    ("ecc-baseline",),
    ("decoder-style",),
    ("figures",),
    ("transient",),
    ("march",),
)

#: snapshot file per Python minor version (3.11 and 3.12 render alike)
SNAPSHOTS = {
    (3, 9): "cli_help.py39.txt",
    (3, 11): "cli_help.py311.txt",
    (3, 12): "cli_help.py311.txt",
    (3, 13): "cli_help.py313.txt",
}

DIRECTORY = Path(__file__).resolve().parent / "snapshots"

#: starts the header line of each text in a snapshot file
MARKER = ">>> "


def snapshot_path(version: Tuple[int, int]) -> Optional[Path]:
    name = SNAPSHOTS.get(version)
    return None if name is None else DIRECTORY / name


def header(command: Tuple[str, ...]) -> str:
    return MARKER + " ".join(("repro",) + command + ("--help",))


@contextlib.contextmanager
def help_environment() -> Iterator[None]:
    """``COLUMNS=80`` and no ``REPRO_STORE``/``REPRO_URL``, restored on
    exit."""
    names = ("COLUMNS", "REPRO_STORE", "REPRO_URL")
    saved = {name: os.environ.get(name) for name in names}
    os.environ["COLUMNS"] = "80"
    os.environ.pop("REPRO_STORE", None)
    os.environ.pop("REPRO_URL", None)
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def render(command: Tuple[str, ...]) -> str:
    """What ``repro COMMAND --help`` prints; it must exit 0."""
    from repro.cli import main

    buffer = io.StringIO()
    with help_environment(), contextlib.redirect_stdout(buffer):
        try:
            main([*command, "--help"])
        except SystemExit as exc:
            if exc.code not in (0, None):
                raise AssertionError(
                    f"`{header(command)}` exited {exc.code}"
                ) from None
        else:
            raise AssertionError(f"`{header(command)}` did not exit")
    return buffer.getvalue()


def dumps(texts: Dict[Tuple[str, ...], str]) -> str:
    return "".join(
        f"{header(command)}\n{texts[command]}" for command in COMMANDS
    )


def loads(content: str) -> Dict[str, str]:
    """``{header: text}`` from a snapshot file's content."""
    texts: Dict[str, str] = {}
    current = None
    for line in content.splitlines(keepends=True):
        if line.startswith(MARKER):
            current = line.rstrip("\n")
            texts[current] = ""
        elif current is None:
            raise ValueError(f"text before the first header: {line!r}")
        else:
            texts[current] += line
    return texts


def main(argv) -> int:
    path = snapshot_path(sys.version_info[:2])
    if path is None:
        print(f"no snapshot for Python {sys.version.split()[0]}")
        return 1
    texts = {command: render(command) for command in COMMANDS}
    if argv == ["--write"]:
        path.parent.mkdir(exist_ok=True)
        path.write_text(dumps(texts))
        print(f"wrote {path}")
        return 0
    if argv != ["--check"]:
        print("usage: cli_help_snapshot.py --check|--write")
        return 2
    expected = loads(path.read_text())
    stale = [
        header(command)
        for command in COMMANDS
        if expected.get(header(command)) != texts[command]
    ]
    for name in stale:
        print(f"differs: {name}")
    print(f"{len(COMMANDS) - len(stale)}/{len(COMMANDS)} match {path.name}")
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
