"""The benchmark's tracer wraps colorlie attributes by name; each must exist.

A refactor that renames or removes one of them makes a traced benchmark run
crash with KeyError, so the tier-1 suite checks the list up front.
"""

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_traced_attribute_exists():
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    tracer = importlib.import_module("perfbench.tracer")
    points = tracer.SPAN_POINTS + tracer.COUNT_POINTS
    assert points
    missing = [(owner, attr) for owner, attr, _ in points if attr not in vars(owner)]
    assert not missing


def _counted_calls(run):
    """Counters of the benchmark's tracer over one call of run()."""
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    tracer = importlib.import_module("perfbench.tracer")
    from collections import Counter

    counter = Counter()
    with tracer.counts(counter):
        run()
    return counter


def _counted(name, n):
    from colorlie import catalog, derivations

    a = catalog.get(name)
    return _counted_calls(lambda: derivations.n_derivation_space(a, n))


def test_known_space_and_full_rank_stop_keep_osp12_streams_short():
    # the full stream of osp12 at n = 4 is 2 blocks x 5^4 tuples x 5 rows
    assert _counted("osp12", 4)["linalg.rows_in"] <= 625


def test_structurally_zero_rows_are_not_built():
    # every triple bracket of heis3 vanishes: the full stream is 81 zero rows
    assert _counted("heis3", 3)["linalg.zero_rows_in"] < 10


def test_prefix_degrees_are_numbered_level_by_level():
    # the twists come from integer exponents carried along each tuple, so the
    # assembly adds no degrees; walking the prefix degrees of every tuple on
    # its own would cost 4 * 5^4 additions for osp12 at n = 4
    assert _counted("osp12", 4)["grading.add_calls"] <= 300


def test_ad_preimages_use_one_factorization_per_algebra():
    from colorlie import catalog, derivations

    a = catalog.get("osp12")

    def both_parts():
        derivations.verify_nder_equals_der(a, 3)
        derivations.verify_second_statement(a, 3)

    counter = _counted_calls(both_parts)
    assert counter["linalg.solve_calls"] == 0
    assert counter["linalg.rows_in"] <= 400
    # delta brackets each [D, ad e_j] once: 5 basis maps x 5, plus 5 x 5 in Der(A)
    assert counter["maps.bracket_calls"] <= 50


def test_lemmas_share_one_table_of_ad_brackets():
    # part 1's fixed point, the inner-ideal, centralizer and ad-compat lemmas
    # each bracketed the 5 basis maps of Der with the 5 ad(e_i): 100 brackets
    # and 50 ad solves; a shared table of [B_p, ad e_i] cut that to 40. The
    # compat misses now come from the derivation identity, and Der has none,
    # so only the centralizer brackets (10, stopping at full rank) and part
    # 2's pair grid (15); only part 2's witnesses solve
    from colorlie import cli

    argv = ["verify", "catalog:osp12", "--n", "2", "--lemmas", "--json"]
    counter = _counted_calls(lambda: cli.run(argv))
    assert counter["maps.bracket_calls"] <= 25
    assert counter["maps.ad_solve_calls"] <= 25


def test_part1_fixed_point_brackets_nothing(tmp_path):
    # delta(D) = D on every basis map used to bracket each of sl3's 8 basis
    # maps of nDer with the 8 ad(e_i), 64 brackets; the compat misses are read
    # off the derivation identity, and delta runs only on a map with a miss
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    from colorlie import cli
    from colorlie.fileio import serialize_algebra
    from perfbench.algebras import sl

    path = tmp_path / "sl3.json"
    path.write_text(serialize_algebra(sl(3)), encoding="utf-8")
    argv = ["verify", str(path), "--n", "2", "--part", "1", "--json"]
    counter = _counted_calls(lambda: cli.run(argv))
    assert counter["maps.bracket_calls"] == 0
    assert counter["maps.ad_solve_calls"] == 0


# Products through zero entries of the rows, and double brackets that the Jacobi
# check evaluated three times each, used to come to 1,620 and 167 products.


def _counted_products(name, n, monkeypatch):
    # the tracer counts CycloScalar.__mul__; the fused b - c * v of elimination and
    # row assembly (scalars._sub_product) makes its product without it at phi(m) = 1,
    # so its calls are counted too, under both module names that import it. Both
    # algebras here are rational: at phi(m) > 1 a fused call would count twice
    from colorlie import derivations, linalg

    fused = []
    for module in (linalg, derivations):
        def counting(*args, fn=module._sub_product):
            fused.append(1)
            return fn(*args)

        monkeypatch.setattr(module, "_sub_product", counting)
    return _counted(name, n)["scalars.mul_calls"] + len(fused)


def test_osp12_products_touch_only_nonzero_entries(monkeypatch):
    assert _counted_products("osp12", 4, monkeypatch) <= 900


def test_sl2_products_touch_only_nonzero_entries(monkeypatch):
    assert _counted_products("sl2", 3, monkeypatch) <= 100


def test_centralizer_rows_stop_bracketing_at_full_rank():
    # bracketing all 5 ad(e_j) with the 5 basis maps took 25 brackets; rows
    # streamed one ad(e_j) at a time reach full rank after two in each block
    from colorlie import catalog, derivations

    a = catalog.get("osp12")
    counter = _counted_calls(lambda: derivations.verify_centralizer_trivial(a, 3))
    assert counter["maps.bracket_calls"] <= 15


def _nonzero_tuples(a, n):
    from itertools import product

    basis = [a.basis_vector(i) for i in range(a.dim)]
    return [
        t for t in product(range(a.dim), repeat=n)
        if any(a.left_normed_bracket([basis[j] for j in t]))
    ]


def test_bracket_table_holds_only_nonzero_brackets():
    # the tracer times _basis_bracket_table; its keys are exactly the tuples
    # with a nonzero bracket, in lexicographic order, and ahead[p] holds the
    # next entries of their prefixes
    from colorlie import catalog, derivations

    for name, n in (("osp12", 4), ("heis3", 3)):
        a = catalog.get(name)
        table, ahead = derivations._basis_bracket_table(a, n)
        assert list(table) == _nonzero_tuples(a, n), name
        prefixes = {}
        for t in table:
            for i in range(n):
                prefixes.setdefault(t[:i], set()).add(t[i])
        assert ahead == prefixes, name


def test_bracket_table_is_empty_when_every_bracket_vanishes():
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    from colorlie import derivations
    from perfbench.algebras import heisenberg

    assert derivations._basis_bracket_table(heisenberg(3), 4) == ({}, {})
