"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
go by. All assertions are exact (no numeric tolerances anywhere); the two
runtime bounds are wall-clock budgets asserted directly.
"""

import random
import time
from fractions import Fraction

from colorlie import catalog
from colorlie.algebra import ColorAlgebra
from colorlie.cli import run
from colorlie.derivations import (
    GradedMap,
    block_coordinates,
    delta,
    is_n_derivation,
    n_derivation_space,
    verify_ad_compat,
    verify_centralizer_trivial,
    verify_closure,
    verify_delta_membership,
    verify_inner_ideal,
    verify_nder_equals_der,
    verify_second_statement,
)
from colorlie.linalg import Subspace
from colorlie.scalars import CycloScalar, totient

CATALOG_NAMES = ("sl2", "heis3", "aff2", "abelian(2)", "colorSl2", "osp12")


def _criterion(num, desc, body):
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {num} ({desc}): FAIL")
        raise
    print(f"ACCEPTANCE {num} ({desc}): PASS")


def _mutate(a, i, j, k, delta_value):
    constants = [[[c for c in row] for row in plane] for plane in a.constants]
    constants[i][j][k] = constants[i][j][k] + a.scalar(delta_value)
    return ColorAlgebra(a.group, a.bichar, a.degrees, constants, names=a.names)


def test_criterion_1_axiom_gate():
    def body():
        started = time.perf_counter()
        for name in CATALOG_NAMES:
            assert catalog.get(name).check_axioms().ok, name

        sl2 = catalog.get("sl2")
        csl2 = catalog.get("colorSl2")
        sl2_slots = [
            (1, 0, 0), (0, 1, 0), (0, 2, 1), (2, 0, 1), (1, 2, 2), (2, 1, 2),
            (0, 0, 0), (1, 1, 1), (2, 2, 2), (0, 1, 2), (1, 0, 1), (2, 1, 0),
        ]
        csl2_slots = [
            (0, 1, 2), (1, 0, 2), (0, 2, 1), (2, 0, 1), (1, 2, 0), (2, 1, 0),
        ]
        mutations = [(sl2, s, 1) for s in sl2_slots]
        mutations += [(csl2, s, 1) for s in csl2_slots]
        mutations += [(csl2, (0, 1, 2), -1), (csl2, (1, 2, 0), -1)]
        assert len(mutations) == 20
        for base, (i, j, k), dv in mutations:
            report = _mutate(base, i, j, k, dv).check_axioms()
            assert not report.ok, (i, j, k, dv)
            hits = (
                [set(p) for p in report.antisymmetry]
                + [set(t[:2]) for t in report.jacobi]
                + [set(t[:2]) for t in report.grading]
            )
            assert any({i, j} <= h or {i, j} == h for h in hits), (i, j, k, dv)
        assert time.perf_counter() - started < 1.0

    _criterion(1, "axiom gate and mutation reporting", body)


def test_criterion_2_theorem_part1():
    def body():
        for name in ("sl2", "colorSl2", "osp12"):
            a = catalog.get(name)
            started = time.perf_counter()
            for n in (3, 4):
                rep = verify_nder_equals_der(a, n)
                assert rep.preconditions_hold, (name, n)
                assert rep.equal, (name, n)
                for deg, der_dim, nder_dim, eq in rep.block_dims:
                    assert eq and der_dim == nder_dim, (name, n, deg)
                if name == "sl2":
                    assert rep.nder_total == 3
            assert time.perf_counter() - started < 30.0, name

    _criterion(2, "nDer(L) = Der(L) on theorem instances", body)


def test_criterion_3_theorem_part2():
    def body():
        for name in ("sl2", "colorSl2"):
            rep = verify_second_statement(catalog.get(name), 3)
            assert rep.equal, name
            assert rep.inner_total == 3 and rep.nder_total == 3, name
            assert rep.preserves_inner_image, name
            assert not rep.witness_failures, name

    _criterion(3, "nDer(Der(L)) = ad(Der(L)) with sub-checks", body)


def test_criterion_4_lemma_suite():
    def body():
        for name in ("sl2", "colorSl2"):
            a = catalog.get(name)
            for n in (3, 4):
                assert verify_closure(a, n, 100).passed, (name, n)
                assert verify_inner_ideal(a, n).passed, (name, n)
                assert verify_centralizer_trivial(a, n).total_dim == 0, (name, n)
                assert verify_delta_membership(a, n).passed, (name, n)
            assert verify_ad_compat(a).passed, name

    _criterion(4, "lemma suite on theorem instances", body)


def test_criterion_5_delta_fixed_point():
    def body():
        sl2 = catalog.get("sl2")
        maps = n_derivation_space(sl2, 3).basis_maps()
        assert maps
        for D in maps:
            assert delta(sl2, D, 3) == D

    _criterion(5, "delta fixed point on 3Der(sl2)", body)


def test_criterion_6_oracle_equivalence():
    def body():
        rng = random.Random(2718281828)
        for name in CATALOG_NAMES:
            a = catalog.get(name)
            for n in (2, 3):
                space = n_derivation_space(a, n)
                for D in space.basis_maps():
                    assert is_n_derivation(a, D, n), (name, n)
                agree = 0
                for _ in range(100):
                    gamma = rng.choice(a.group.elements())
                    coords = block_coordinates(a, gamma)
                    vec = [
                        a.scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
                        for _ in coords
                    ]
                    D = GradedMap.from_block_vector(a, gamma, vec)
                    if space.contains_map(D) == is_n_derivation(a, D, n):
                        agree += 1
                assert agree == 100, (name, n, agree)

    _criterion(6, "kernel route agrees with brute-force oracle", body)


def test_criterion_7_negative_controls():
    def body():
        heis = catalog.get("heis3")
        assert not heis.is_perfect()
        assert heis.center().dim == 1
        rep = verify_nder_equals_der(heis, 3)
        assert rep.preconditions_hold is False
        assert rep.delta_fixed_point is None  # nothing asserted

        ab = catalog.get("abelian(2)")
        der = n_derivation_space(ab, 2)
        nder = n_derivation_space(ab, 3)
        assert der.total_dim == nder.total_dim == 4
        gamma = ab.group.zero()
        assert der.blocks[gamma] == nder.blocks[gamma]
        assert der.blocks[gamma] == Subspace.full(4, 1)

    _criterion(7, "negative controls behave as stated", body)


def test_criterion_8_grassmann_fuzz():
    def body():
        rng = random.Random(31415926)
        for _ in range(200):
            ambient = rng.randint(1, 8)
            conductor = rng.choice((1, 4))
            subspaces = []
            for _ in range(2):
                rows = [
                    [
                        CycloScalar.from_rational(
                            Fraction(rng.randint(-3, 3), rng.randint(1, 2)), conductor
                        )
                        for _ in range(ambient)
                    ]
                    for _ in range(rng.randint(0, ambient))
                ]
                subspaces.append(Subspace.from_rows(ambient, rows, conductor))
            s, t = subspaces
            assert s.sum(t).dim + s.intersect(t).dim == s.dim + t.dim

    _criterion(8, "Grassmann identity fuzz", body)


def test_criterion_9_cyclotomic_arithmetic():
    def body():
        for m in (1, 2, 3, 4, 6, 12):
            z = CycloScalar.root(m, 1)
            assert z ** m == 1
            for k in range(1, m):
                assert z ** k != 1
        rng = random.Random(1618)
        for _ in range(500):
            m = rng.choice((1, 2, 3, 4, 6, 12))
            a, b, c = (
                CycloScalar(
                    m,
                    [
                        Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                        for _ in range(totient(m))
                    ],
                )
                for _ in range(3)
            )
            assert (a + b) * c == a * c + b * c
            assert (a * b) * c == a * (b * c)
            if a != 0:
                assert a * a.inv() == 1

    _criterion(9, "roots of unity have exact order; field axioms hold", body)


def test_criterion_10_determinism():
    def body():
        suite = [
            ["verify", "catalog:sl2", "--n", "3", "--lemmas", "--json"],
            ["verify", "catalog:sl2", "--n", "4", "--lemmas", "--json"],
            ["verify", "catalog:colorSl2", "--n", "3", "--lemmas", "--json"],
            ["verify", "catalog:colorSl2", "--n", "4", "--lemmas", "--json"],
            ["verify", "catalog:osp12", "--n", "3", "--json"],
            ["verify", "catalog:heis3", "--n", "3", "--json"],
            ["der", "catalog:osp12", "--json"],
            ["check", "catalog:colorSl2", "--json"],
            ["invariants", "catalog:aff2", "--json"],
        ]
        first = [run(argv) for argv in suite]
        second = [run(argv) for argv in suite]
        assert first == second
        for (code, out), argv in zip(first, suite):
            assert out, argv

    _criterion(10, "machine reports byte-identical across runs", body)
