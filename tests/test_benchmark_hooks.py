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


def _counted(name, n):
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    tracer = importlib.import_module("perfbench.tracer")
    from collections import Counter

    from colorlie import catalog, derivations

    counter = Counter()
    with tracer.counts(counter):
        derivations.n_derivation_space(catalog.get(name), n)
    return counter


def test_known_space_and_full_rank_stop_keep_osp12_streams_short():
    # the full stream of osp12 at n = 4 is 2 blocks x 5^4 tuples x 5 rows
    assert _counted("osp12", 4)["linalg.rows_in"] <= 625


def test_structurally_zero_rows_are_not_built():
    # every triple bracket of heis3 vanishes: the full stream is 81 zero rows
    assert _counted("heis3", 3)["linalg.zero_rows_in"] < 10
