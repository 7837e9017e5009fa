"""Algebras the benchmark feeds to colorlie, and the seeded graded basis change.

Every generator builds its algebra through colorlie's public constructors;
``generate`` runs the full axiom check on the algebra it hands out, so a
wrong table here fails at set-up instead of producing a misleading timing.

The seeded basis change replaces each basis vector e_i by s_i * e_p(i),
where p permutes basis indices within each degree and the s_i are nonzero
rationals. The result is isomorphic to the input with the same degree list,
so every dimension, per-degree block dimension and verdict is unchanged,
while the structure constants (and so the arithmetic colorlie does) differ
from seed to seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from colorlie import catalog_get
from colorlie.algebra import ColorAlgebra, structure_constants_from_table
from colorlie.grading import Bicharacter, GradingGroup
from colorlie.scalars import CycloScalar

# Small numerators and denominators keep the seeded algebras within a few
# percent of each other in cost; large ones would make the seed, not the
# program, the main source of run-to-run spread.
_SCALE_NUMERATORS = (1, 2, 3)
_SCALE_DENOMINATORS = (1, 2)


def _checked(a: ColorAlgebra) -> ColorAlgebra:
    report = a.check_axioms()
    if not report.ok:
        raise RuntimeError("generated algebra fails axioms: " + "; ".join(report.messages()))
    return a


def _build(orders, exponents, names, degree_residues, table) -> ColorAlgebra:
    group = GradingGroup(orders)
    bichar = Bicharacter(group, exponents)
    report = bichar.validate()
    if not report.ok:
        raise RuntimeError("generated bicharacter invalid: " + "; ".join(report.messages()))
    degrees = tuple(group.element(r) for r in degree_residues)
    constants = structure_constants_from_table(group, bichar, degrees, table, len(names))
    return ColorAlgebra(group, bichar, degrees, constants, names=tuple(names))


def sl(n: int) -> ColorAlgebra:
    """sl(n) on the matrix-unit basis E_ij (i != j) and H_i = E_ii - E_(i+1)(i+1)."""
    units = [(i, j) for i in range(n) for j in range(n) if i != j]
    names = [f"E{i + 1}{j + 1}" for i, j in units] + [f"H{i + 1}" for i in range(n - 1)]
    d = len(names)
    index = {ij: p for p, ij in enumerate(units)}

    def matrix(p):
        m = [[Fraction(0)] * n for _ in range(n)]
        if p < len(units):
            i, j = units[p]
            m[i][j] = Fraction(1)
        else:
            i = p - len(units)
            m[i][i], m[i + 1][i + 1] = Fraction(1), Fraction(-1)
        return m

    def coords(m):
        # off-diagonal entries read off directly; diag(a) = sum_i (a_1+..+a_i) H_i
        out = {}
        for (i, j), p in index.items():
            if m[i][j]:
                out[p] = m[i][j]
        partial = Fraction(0)
        for i in range(n - 1):
            partial += m[i][i]
            if partial:
                out[len(units) + i] = partial
        return out

    mats = [matrix(p) for p in range(d)]
    table = {}
    for p in range(d):
        for q in range(p + 1, d):
            x, y = mats[p], mats[q]
            comm = [
                [sum(x[i][k] * y[k][j] - y[i][k] * x[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)
            ]
            result = coords(comm)
            if result:
                table[(p, q)] = result
    return _build([], [], names, [()] * d, table)


def torus(p: int) -> ColorAlgebra:
    """Color commutator of the Z_p x Z_p group algebra: [u_a, u_b] = (1 - eps(a, b)) u_(a+b)."""
    group = GradingGroup([p, p])
    bichar = Bicharacter(group, [[0, 1], [p - 1, 0]])
    elements = group.elements()
    index = {g: i for i, g in enumerate(elements)}
    d = len(elements)
    zero, one = CycloScalar.zero(p), CycloScalar.one(p)
    constants = [[[zero] * d for _ in range(d)] for _ in range(d)]
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            coeff = one - bichar.eps(a, b)
            if coeff:
                constants[i][j][index[a + b]] = coeff
    names = tuple(f"u{a.residues[0]}_{a.residues[1]}" for a in elements)
    return ColorAlgebra(group, bichar, elements, constants, names=names)


def filiform(n: int) -> ColorAlgebra:
    """The model filiform algebra: [e1, e_i] = e_(i+1) for 2 <= i < n."""
    table = {(0, i): {i + 1: 1} for i in range(1, n - 1)}
    return _build([], [], [f"e{i + 1}" for i in range(n)], [()] * n, table)


def heisenberg(k: int) -> ColorAlgebra:
    """The (2k+1)-dimensional Heisenberg algebra: [x_i, y_i] = z."""
    names = [f"x{i + 1}" for i in range(k)] + [f"y{i + 1}" for i in range(k)] + ["z"]
    table = {(i, k + i): {2 * k: 1} for i in range(k)}
    return _build([], [], names, [()] * (2 * k + 1), table)


def color_heisenberg(p: int, k: int) -> ColorAlgebra:
    """Heisenberg over Z_p x Z_p: x_i of degree (1,0), y_i of degree (0,1), [x_i, y_i] = z."""
    names = [f"x{i + 1}" for i in range(k)] + [f"y{i + 1}" for i in range(k)] + ["z"]
    degrees = [(1, 0)] * k + [(0, 1)] * k + [(1, 1)]
    table = {(i, k + i): {2 * k: 1} for i in range(k)}
    return _build([p, p], [[0, 1], [p - 1, 0]], names, degrees, table)


def color_sl2_times(k: int) -> ColorAlgebra:
    """colorSl2 graded by Z2 x Z2 x Z_k, the extra factor carried by no basis vector.

    For odd k the conductor becomes 2k, so every scalar lives in Q(zeta_2k)
    although the constants are rational.
    """
    m = 2 * k if k % 2 else k
    h = m // 2
    return _build(
        [2, 2, k],
        [[0, h, 0], [h, 0, 0], [0, 0, 0]],
        ("x", "y", "z"),
        [(1, 0, 0), (0, 1, 0), (1, 1, 0)],
        {(0, 1): {2: 1}, (1, 2): {0: 1}, (2, 0): {1: 1}},
    )


# The algebras the workloads use, by the name jobs refer to them.
GENERATORS = {
    "osp12": lambda: catalog_get("osp12"),
    "sl3": lambda: sl(3),
    "torus3": lambda: torus(3),
    "filiform7": lambda: filiform(7),
    "heis7": lambda: heisenberg(3),
    "cheis5z3": lambda: color_heisenberg(3, 2),
    "cheis3z60": lambda: color_heisenberg(60, 1),
    "colorSl2z15": lambda: color_sl2_times(15),
}


def basis_change(a: ColorAlgebra, seed: int | None) -> ColorAlgebra:
    """The algebra in the basis f_i = s_i * e_p(i); seed None is the identity.

    p permutes indices within each degree, so the degree list is unchanged;
    the new constants are c'[i][j][l] = s_i s_j c[p i][p j][p l] / s_l.
    """
    if seed is None:
        return a
    rng = random.Random(seed)
    d = a.dim
    perm = list(range(d))
    classes: dict = {}
    for i, g in enumerate(a.degrees):
        classes.setdefault(g, []).append(i)
    for members in classes.values():
        shuffled = list(members)
        rng.shuffle(shuffled)
        for i, j in zip(members, shuffled):
            perm[i] = j
    scale = [
        Fraction(rng.choice(_SCALE_NUMERATORS), rng.choice(_SCALE_DENOMINATORS))
        * rng.choice((1, -1))
        for _ in range(d)
    ]
    m = a.conductor
    inv_scale = [CycloScalar.from_rational(1 / s, m) for s in scale]
    c = a.constants
    constants = [
        [
            [
                c[perm[i]][perm[j]][perm[l]] * (scale[i] * scale[j]) * inv_scale[l]
                for l in range(d)
            ]
            for j in range(d)
        ]
        for i in range(d)
    ]
    names = tuple(a.names[perm[i]] for i in range(d))
    return ColorAlgebra(a.group, a.bichar, a.degrees, constants, names=names)


def generate(name: str, seed: int | None) -> ColorAlgebra:
    """The named algebra after the seeded basis change, axiom-checked."""
    return _checked(basis_change(GENERATORS[name](), seed))


def fresh_copy(a: ColorAlgebra) -> ColorAlgebra:
    """An equal algebra with an empty per-algebra cache."""
    return ColorAlgebra(a.group, a.bichar, a.degrees, a.constants, names=a.names)
