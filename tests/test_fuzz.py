"""A standing fuzz property: mutated algebra files never crash the CLI.

Each example takes one algebra file shipped under ``tests/data``, applies
one to three mutations at the JSON level (replace a value with an atom,
delete a value, duplicate a list entry, or scale an integer), and runs one
command on the mutant through ``cli.run`` with ``--json``. Every run ends
in exit 0, 1 or 2, and no exception escapes:

* exit 2 prints an ``error:`` line on stderr and nothing on stdout;
* exit 1 writes a report whose ``passed`` is false, exit 0 one whose
  ``passed`` is true.

Group orders and integers are kept small, because colorlie has no budget
on the size of its input yet. Every scalar carries phi(m) rational
coefficients for the conductor m, and every report lists each degree of
the group, so one order of 2003, or a group of a million degrees, turns a
three-line file into seconds of work. The atoms are small, an integer is
scaled by at most 3, and a mutant with an order above 60, or with orders
whose product exceeds the 3,600 degrees of the largest shipped file, is
set aside.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import assume, event, given, settings, strategies as st

from colorlie import cli

DATA_DIR = Path(__file__).resolve().parent / "data"
FILES = sorted(p.name for p in DATA_DIR.glob("*.json") if p.name != "report_digests.json")
COMMANDS = (["check"], ["invariants"], ["der", "--n", "2"], ["verify", "--n", "3", "--lemmas"])
ATOMS = (
    None, True, False, -1, 0, 1, 2, 3, 7, 0.5,
    "", "x", "0", "1", "-1/2", "1/0", "z", "z^7", "1 + z^2", "zz", "u0_0", "e",
    [], [0], [[0]], {}, {"x": "1"},
)
MAX_ORDER = 60
MAX_DEGREES = 3600


def _slots(node):
    # (container, key) for every value below node, in document order
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield node, key
        yield from _slots(child)


def _applies(op, parent, value) -> bool:
    if op == "replace":
        return not isinstance(value, (dict, list))
    if op == "duplicate":
        return isinstance(parent, list)
    if op == "scale":
        return type(value) is int
    return True


def _mutate(doc, data) -> None:
    op = data.draw(st.sampled_from(("replace", "retype", "delete", "duplicate", "scale")))
    slots = [(parent, key) for parent, key in _slots(doc) if _applies(op, parent, parent[key])]
    if not slots:
        return
    parent, key = data.draw(st.sampled_from(slots))
    value = parent[key]
    if op == "delete":
        del parent[key]
    elif op == "duplicate":
        parent.insert(key, copy.deepcopy(value))
    elif op == "scale":
        parent[key] = value * data.draw(st.sampled_from((-1, 0, 2, 3)))
    else:
        # replace keeps the JSON type where an atom has it, so more mutants parse
        same = [atom for atom in ATOMS if type(atom) is type(value)]
        atoms = same if op == "replace" and same else ATOMS
        parent[key] = copy.deepcopy(data.draw(st.sampled_from(atoms)))


def _small_group(doc) -> bool:
    group = doc.get("group")
    orders = group.get("orders") if isinstance(group, dict) else None
    ints = [abs(o) for o in orders if type(o) is int] if isinstance(orders, list) else []
    return all(o <= MAX_ORDER for o in ints) and math.prod(ints) <= MAX_DEGREES


@settings(deadline=None)
@given(st.sampled_from(FILES), st.sampled_from(COMMANDS), st.integers(1, 3), st.data())
def test_mutated_files_end_in_a_defined_exit(name, command, mutations, data):
    doc = json.loads((DATA_DIR / name).read_text(encoding="utf-8"))
    for _ in range(mutations):
        _mutate(doc, data)
    assume(_small_group(doc))
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        path = Path(tmp) / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out = cli.run([command[0], str(path), *command[1:], "--json"])
    event(f"exit {code}")
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out == ""
        assert err.getvalue().startswith("error: ")
    else:
        assert json.loads(out)["passed"] is (code == 0)
