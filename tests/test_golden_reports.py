"""Golden digests of the CLI's machine reports on the catalog.

Each command's (exit code, stdout) is hashed and compared with the digest
recorded in ``tests/data/report_digests.json``. A refactor that keeps
every report byte-identical passes; any change in a verdict, a dimension,
a basis or the report layout names the command whose output moved.

The catalog's entries all have conductor 1 or 2. The algebra files under
``tests/data/`` carry the larger conductors, so that their reports pin
arithmetic in Q(zeta_m) with non-rational pivots and inverses:
``torus3.json`` (m = 3), ``cheis3z60.json`` (m = 60) and
``colorSl2z15.json`` (m = 30) are ``serialize_algebra(generate(name, 1))``
from ``perfbench.algebras``, and ``z211.json`` is a 3-element algebra over
Z_211 with trivial eps, [e1, e2] = (1/2*z^5 - 3*z + 1) e2 and
[e1, e3] = 2*z^7 e3. ``torus3_broken.json`` is ``torus3.json`` with
[u0_1, u1_0] moved by z, and its partner with it, so that ``check`` lists
Jacobi violations at m = 3; every other ``check`` here passes. Their
commands name the files relative to
``tests/data/`` and run from there, so the bytes do not depend on where
the repository is checked out.

The digests run in-process, so they cannot see a dependence on the hash
seed by themselves; CI runs this file under two ``PYTHONHASHSEED`` values.

To regenerate the digests after an intended change of the reports, run
from the repository root:

    PYTHONPATH=src python tests/test_golden_reports.py

which rewrites the data file; review its diff before committing it.
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from colorlie.cli import run

DATA_DIR = Path(__file__).resolve().parent / "data"
DATA = DATA_DIR / "report_digests.json"

ENTRIES = ("sl2", "heis3", "aff2", "colorSl2", "osp12", "abelian(2)", "abelian(3)")

FILE_COMMANDS = (
    ["check", "torus3.json", "--json"],
    ["check", "torus3_broken.json", "--json"],
    ["der", "torus3.json", "--n", "2", "--json"],
    ["verify", "torus3.json", "--n", "2", "--lemmas", "--json"],
    ["der", "cheis3z60.json", "--n", "2", "--json"],
    ["verify", "cheis3z60.json", "--n", "3", "--lemmas", "--json"],
    ["verify", "colorSl2z15.json", "--n", "3", "--lemmas", "--json"],
    ["der", "z211.json", "--n", "2", "--json"],
)


def _commands() -> list:
    commands = []
    for name in ENTRIES:
        target = f"catalog:{name}"
        for n in (2, 3, 4):
            commands.append(["verify", target, "--n", str(n), "--lemmas", "--json"])
        commands.append(["der", target, "--n", "3", "--json"])
        commands.append(["check", target, "--json"])
        commands.append(["invariants", target, "--json"])
    return commands + [list(argv) for argv in FILE_COMMANDS]


COMMANDS = _commands()


def _digest(argv) -> str:
    cwd = os.getcwd()
    os.chdir(DATA_DIR)
    try:
        code, out = run(argv)
    finally:
        os.chdir(cwd)
    return hashlib.sha256(f"{code}\n{out}".encode("utf-8")).hexdigest()


def _recorded() -> dict:
    return json.loads(DATA.read_text(encoding="utf-8"))


def test_every_command_has_a_digest():
    assert len(COMMANDS) == 50
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
