"""Golden digests of the CLI's machine reports on the catalog.

Each command's (exit code, stdout) is hashed and compared with the digest
recorded in ``tests/data/report_digests.json``. A refactor that keeps
every report byte-identical passes; any change in a verdict, a dimension,
a basis or the report layout names the command whose output moved.

The digests run in-process, so they cannot see a dependence on the hash
seed by themselves; CI runs this file under two ``PYTHONHASHSEED`` values.

To regenerate the digests after an intended change of the reports, run
from the repository root:

    PYTHONPATH=src python tests/test_golden_reports.py

which rewrites the data file; review its diff before committing it.
"""

import hashlib
import json
from pathlib import Path

import pytest

from colorlie.cli import run

DATA = Path(__file__).resolve().parent / "data" / "report_digests.json"

ENTRIES = ("sl2", "heis3", "aff2", "colorSl2", "osp12", "abelian(2)", "abelian(3)")


def _commands() -> list:
    commands = []
    for name in ENTRIES:
        target = f"catalog:{name}"
        for n in (2, 3, 4):
            commands.append(["verify", target, "--n", str(n), "--lemmas", "--json"])
        commands.append(["der", target, "--n", "3", "--json"])
        commands.append(["check", target, "--json"])
        commands.append(["invariants", target, "--json"])
    return commands


COMMANDS = _commands()


def _digest(argv) -> str:
    code, out = run(argv)
    return hashlib.sha256(f"{code}\n{out}".encode("utf-8")).hexdigest()


def _recorded() -> dict:
    return json.loads(DATA.read_text(encoding="utf-8"))


def test_every_command_has_a_digest():
    assert len(COMMANDS) == 42
    assert sorted(_recorded()) == sorted(" ".join(argv) for argv in COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_report_matches_golden_digest(argv):
    command = " ".join(argv)
    assert _digest(argv) == _recorded()[command], f"report of `colorlie {command}` changed"


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    digests = {" ".join(argv): _digest(argv) for argv in COMMANDS}
    DATA.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {DATA}")
