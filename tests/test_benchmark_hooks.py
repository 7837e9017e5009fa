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
