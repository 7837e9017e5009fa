"""The closure lemma's certificate on pairs of basis maps, against the trials.

``verify_closure`` certifies closure from the coordinates of [B_p, B_q]
for every pair of basis maps (``_pair_brackets``), and runs the seeded
random trials only when some pair escapes. ``_reference_closure`` below is
the trial loop that ran unconditionally before; every report must equal
it byte for byte, on closed spaces and on hand-built spaces that are not
closed.
"""

import random
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from colorlie import catalog, derivations
from colorlie.derivations import (
    ClosureReport,
    DerivationSpace,
    GradedMap,
    _pair_brackets,
    ad,
    block_coordinates,
    derivation_color_algebra,
    map_bracket,
    n_derivation_space,
    verify_closure,
)
from colorlie.errors import NotClosed
from colorlie.fileio import parse_algebra
from colorlie.linalg import Subspace
from colorlie.scalars import CycloScalar

DATA_DIR = Path(__file__).resolve().parent / "data"
ENTRIES = ("sl2", "heis3", "aff2", "colorSl2", "osp12", "abelian(2)", "abelian(3)")
FILES = ("torus3", "cheis3z60", "colorSl2z15")
SEEDS = (0, 7)


def _load(name):
    if name in FILES:
        return parse_algebra((DATA_DIR / f"{name}.json").read_text(encoding="utf-8"))
    return catalog.get(name)


def _reference_closure(a, n, trials, seed=0):
    # the seeded trial loop verify_closure always ran before the certificate
    nder = derivations.n_derivation_space(a, n)
    rng = random.Random(seed)
    populated = [g for g, s in nder.blocks.items() if s.dim > 0]
    report = ClosureReport(n=n, trials=trials)
    if not populated:
        return report
    m = a.conductor

    def random_member():
        gamma = rng.choice(populated)
        sub = nder.block(gamma)
        vec = [CycloScalar.zero(m)] * sub.ambient_dim
        for row in sub.basis.entries:
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            if c:
                c = a.scalar(c)
                vec = [x + c * y if y else x for x, y in zip(vec, row)]
        return GradedMap.from_block_vector(a, gamma, vec)

    for trial in range(trials):
        d1, d2 = random_member(), random_member()
        if not nder.contains_map(map_bracket(d1, d2)):
            report.failures.append(trial)
    return report


def _direct_grid(space):
    # every r x r pair bracketed and expressed on its own
    maps = space.basis_maps()
    return tuple(tuple(space.coordinates(map_bracket(p, q)) for q in maps) for p in maps)


CERTIFIED = [(name, n) for name in ENTRIES for n in (2, 3, 4)]
CERTIFIED += [(name, n) for name in FILES for n in (2, 3)]


@pytest.mark.parametrize("name, n", CERTIFIED)
def test_certificate_matches_the_trial_loop(name, n):
    a = _load(name)
    for seed in SEEDS:
        got = verify_closure(a, n, 100, seed=seed)
        assert got.passed
        assert got.to_jsonable() == _reference_closure(a, n, 100, seed).to_jsonable(), seed


@pytest.mark.parametrize("name, n", CERTIFIED)
def test_halved_grid_equals_every_pair_bracketed(name, n):
    space = n_derivation_space(_load(name), n)
    grid = _pair_brackets(space)
    assert grid == _direct_grid(space)
    assert _pair_brackets(space) is grid


def test_closed_space_draws_no_random_member(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a certified report drew a random member")

    monkeypatch.setattr(derivations, "random", SimpleNamespace(Random=refuse))
    report = verify_closure(catalog.get("osp12"), 3, 100, seed=5)
    assert report.to_jsonable() == {"n": 3, "trials": 100, "failures": []}


def test_part2_and_the_closure_lemma_share_one_grid(monkeypatch):
    a = catalog.get("osp12")
    der = n_derivation_space(a, 2)
    r = der.total_dim
    calls = []
    original = derivations.map_bracket

    def counted(d1, d2):
        calls.append(1)
        return original(d1, d2)

    monkeypatch.setattr(derivations, "map_bracket", counted)
    derivation_color_algebra(a, der)
    assert len(calls) == r * (r + 1) // 2
    assert verify_closure(a, 2, 100).passed
    assert len(calls) == r * (r + 1) // 2


def _space(a, maps):
    # the span of the given homogeneous maps, one block per degree
    rows = {}
    for D in maps:
        rows.setdefault(D.degree, []).append(D.block_vector())
    blocks = {
        g: Subspace.from_rows(len(block_coordinates(a, g)), vs, a.conductor)
        for g, vs in rows.items()
    }
    return DerivationSpace(a, 2, blocks)


def _identity(a):
    one, zero = a.one_scalar(), a.zero_scalar()
    d = a.dim
    return GradedMap(a, a.group.zero(), [[one if k == j else zero for j in range(d)] for k in range(d)])


def _sl2_edge():
    # span{ad e, ad f}: [ad e, ad f] = ad h escapes; (0, 0) brackets to zero
    a = catalog.get("sl2")
    return a, _space(a, [ad(a, a.basis_vector(i)) for i in (0, 2)])


def _colorsl2_twisted():
    # the identity commutes with everything, so row 0 stays inside and only
    # [ad y, ad x] and [ad x, ad y], across two degrees, escape
    a = catalog.get("colorSl2")
    return a, _space(a, [_identity(a), ad(a, a.basis_vector(0)), ad(a, a.basis_vector(1))])


@pytest.mark.parametrize("build", (_sl2_edge, _colorsl2_twisted), ids=("sl2", "colorSl2"))
def test_space_not_closed_falls_back_to_the_trials(build, monkeypatch):
    a, space = build()
    monkeypatch.setattr(derivations, "n_derivation_space", lambda *args, **kwargs: space)
    direct = _direct_grid(space)
    escapes = [(p, q) for p, row in enumerate(direct) for q, c in enumerate(row) if c is None]
    assert escapes
    for seed in SEEDS:
        got = verify_closure(a, 2, 60, seed=seed)
        want = _reference_closure(a, 2, 60, seed)
        assert want.failures and not want.passed
        assert got.failures == want.failures, seed
        assert got.to_jsonable() == want.to_jsonable()
    assert _pair_brackets(space) == direct
    with pytest.raises(NotClosed) as err:
        derivation_color_algebra(a, space)
    assert err.value.pair == escapes[0]
    assert str(err.value) == f"bracket of basis maps {escapes[0]} escapes the space"


def test_first_escape_of_the_twisted_space_is_off_the_first_row():
    # keeps the fallback test above sensitive to a check that stops early
    _, space = _colorsl2_twisted()
    escapes = [
        (p, q) for p, row in enumerate(_direct_grid(space)) for q, c in enumerate(row) if c is None
    ]
    assert escapes == [(1, 2), (2, 1)]
