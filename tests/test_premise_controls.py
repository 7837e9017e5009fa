"""A control for the perfectness premise of the first statement.

r(1, -1) = span{e0, e1, e2} with [e0, e1] = e1 and [e0, e2] = -e2
(``data/r11.json``) has a zero center but is not perfect. At odd n its
n-derivation space holds two maps more than Der, so nDer = Der fails
without perfectness, and only at odd n.
"""

import json
from pathlib import Path

import pytest

from colorlie.cli import run
from colorlie.derivations import is_n_derivation, n_derivation_space
from colorlie.fileio import parse_algebra

PATH = Path(__file__).resolve().parent / "data" / "r11.json"


def _r11():
    return parse_algebra(PATH.read_text(encoding="utf-8"))


def test_r11_is_centerless_and_not_perfect():
    a = _r11()
    assert a.check_axioms().ok
    assert a.center().dim == 0
    assert not a.is_perfect()


@pytest.mark.parametrize("n, dim", ((2, 4), (3, 6), (4, 4), (5, 6)))
def test_r11_nder_dimensions_alternate(n, dim):
    a = _r11()
    space = n_derivation_space(a, n, max_n=5)
    assert space.total_dim == dim
    # the oracle accepts every basis map of the kernel route
    assert all(is_n_derivation(a, D, n) for D in space.basis_maps())


@pytest.mark.parametrize("n, equal", ((3, False), (4, True)))
def test_r11_part1_reports_the_failed_premise(n, equal):
    code, out = run(["verify", str(PATH), "--n", str(n), "--part", "1", "--json"])
    part1 = json.loads(out)["part1"]
    assert code == 1
    assert part1["preconditions_hold"] is False
    assert part1["is_perfect"] is False
    assert part1["equal"] is equal
