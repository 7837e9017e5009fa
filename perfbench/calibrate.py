"""A fixed calibration task: how fast the host runs exact Python arithmetic right now.

On a shared host the speed available to one process changes by up to 1.9x,
in episodes that can outlast a whole run. The benchmark therefore times
this task before the first job of each pass and after every job, and
reports each job time over the mean of the two samples around it. The task
uses only the standard library and never changes, so a change to colorlie
moves those ratios by exactly the share it moves the job's own time. Like
colorlie's elimination it is row reduction over ``Fraction``:
object-allocating exact arithmetic, which slows in the same episodes.
"""

from __future__ import annotations

import random
from fractions import Fraction
from time import perf_counter

ROWS, COLS = 12, 14
# fixed for good, whatever the run's seed: the task must cost the same in every run
_MATRIX = (lambda rng: tuple(
    tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(COLS))
    for _ in range(ROWS)
))(random.Random(20190314))
REPEATS = 5


def _rank(matrix) -> int:
    m = [list(row) for row in matrix]
    rank = 0
    for c in range(COLS):
        pivot = next((i for i in range(rank, ROWS) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(ROWS):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def timed() -> float:
    """Seconds the task takes now; fails loudly if its result is ever wrong."""
    start = perf_counter()
    ranks = [_rank(_MATRIX) for _ in range(REPEATS)]
    seconds = perf_counter() - start
    if ranks != [ROWS] * REPEATS:
        raise RuntimeError(f"calibration task computed ranks {ranks}, not {ROWS}")
    return seconds
