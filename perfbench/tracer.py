"""Outside-in tracing of colorlie's layers, done entirely from the benchmark.

Nothing in colorlie is edited: for the length of a traced pass the
benchmark replaces layer entry points with wrappers and puts the originals
back afterwards. A function other modules imported by name (``cli``
imports the ``verify_*`` routines, ``derivations`` imports
``kernel_from_rows``) is replaced in every colorlie namespace that holds it.

There are two modes, never active in the same pass, so per-operation
counting does not inflate span times:

* ``spans``: every wrapped call opens a span (name, start, end, parent).
  Spans are kept in memory; a span's self time is its duration minus the
  time its child spans cover. The row iterable handed to ``_rref_rows`` is
  wrapped as well, so time spent producing rows lazily is charged to
  ``assembly.rows`` rather than to the elimination. Row frames are summed,
  not stored one by one.
* ``counts``: plain counters on scalar and grading operations, on calls,
  and on the rows the elimination consumes.
"""

from __future__ import annotations

import random
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

from colorlie import algebra, cli, derivations, fileio, grading, linalg, scalars

# (owner, attribute, span name). Owners are modules or classes.
SPAN_POINTS = (
    (linalg, "_rref_rows", "linalg.rref"),
    (linalg, "kernel_from_rows", "linalg.kernel"),
    (linalg.MatrixExact, "solve", "linalg.solve"),
    (linalg.Subspace, "coordinates_of", "linalg.coords"),
    (derivations, "_basis_bracket_table", "assembly.table"),
    (derivations, "n_derivation_space", "nder"),
    (derivations, "map_bracket", "maps.bracket"),
    (derivations, "_solve_ad_preimage", "maps.ad_solve"),
    (derivations, "delta", "maps.delta"),
    (derivations, "derivation_color_algebra", "maps.deralg"),
    (derivations.DerivationSpace, "contains_map", "maps.contains"),
    (derivations, "verify_nder_equals_der", "verify.part1"),
    (derivations, "verify_second_statement", "verify.part2"),
    (derivations, "verify_closure", "verify.closure"),
    (derivations, "verify_inner_ideal", "verify.inner_ideal"),
    (derivations, "verify_centralizer_trivial", "verify.centralizer"),
    (derivations, "verify_delta_membership", "verify.delta_membership"),
    (derivations, "verify_ad_compat", "verify.ad_compat"),
    (derivations, "is_n_derivation", "verify.oracle"),
    (algebra.ColorAlgebra, "check_axioms", "algebra.check_axioms"),
    (algebra.ColorAlgebra, "center", "algebra.center"),
    (algebra.ColorAlgebra, "derived_subalgebra", "algebra.derived"),
    (fileio, "parse_algebra", "fileio.parse"),
    (cli, "run", "cli"),
)

# (owner, attribute, counter name) for calls that are only counted.
COUNT_POINTS = (
    (scalars.CycloScalar, "__mul__", "scalars.mul_calls"),
    (scalars.CycloScalar, "__rmul__", "scalars.mul_calls"),
    (scalars.CycloScalar, "__add__", "scalars.addsub_calls"),
    (scalars.CycloScalar, "__radd__", "scalars.addsub_calls"),
    (scalars.CycloScalar, "__sub__", "scalars.addsub_calls"),
    (scalars.CycloScalar, "__rsub__", "scalars.addsub_calls"),
    (scalars.CycloScalar, "inv", "scalars.inv_calls"),
    (grading.Bicharacter, "eps", "grading.eps_calls"),
    (grading.GroupElement, "__add__", "grading.add_calls"),
    (linalg.MatrixExact, "solve", "linalg.solve_calls"),
    (linalg.Subspace, "coordinates_of", "linalg.coords_calls"),
    (derivations, "map_bracket", "maps.bracket_calls"),
    (derivations, "_solve_ad_preimage", "maps.ad_solve_calls"),
)


class Tracer:
    """In-memory spans with self time computed as each span closes."""

    def __init__(self):
        self.spans = []                 # [name, start, end, parent span index]
        self.self_s = defaultdict(float)
        self._stack = []                # [name, start, child seconds, span index, parent]

    def open(self, name: str, keep: bool = True) -> list:
        parent = self._stack[-1][4] if self._stack else None
        index = None
        if keep:
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent])
        frame = [name, 0.0, 0.0, index, index if keep else parent]
        self._stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def close(self, frame: list) -> None:
        end = perf_counter()
        if self._stack.pop() is not frame:
            raise RuntimeError(f"span {frame[0]} closed out of order")
        duration = end - frame[1]
        self.self_s[frame[0]] += duration - frame[2]
        if self._stack:
            self._stack[-1][2] += duration
        if frame[3] is not None:
            self.spans[frame[3]][1:3] = frame[1], end

    @contextmanager
    def span(self, name: str):
        frame = self.open(name)
        try:
            yield
        finally:
            self.close(frame)

    def timed_rows(self, rows):
        """Yield the rows, charging the time each one takes to produce to assembly.rows."""
        it = iter(rows)
        while True:
            frame = self.open("assembly.rows", keep=False)
            try:
                row = next(it)
            except StopIteration:
                return
            finally:
                self.close(frame)
            yield row


class _Patcher:
    def __init__(self):
        self._saved = []

    def replace(self, owner, attr: str, make):
        """Replace owner.attr by make(original), in every colorlie namespace holding it."""
        original = vars(owner)[attr]
        wrapper = make(original)
        targets = [owner]
        if isinstance(owner, type(sys)):
            targets += [
                mod for name, mod in sorted(sys.modules.items())
                if (name == "colorlie" or name.startswith("colorlie.")) and mod is not owner
                and vars(mod).get(attr) is original
            ]
        for target in targets:
            self._saved.append((target, attr, vars(target)[attr]))
            setattr(target, attr, wrapper)

    def restore(self):
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)


def _span_wrapper(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        frame = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(frame)

    return wrapper


@contextmanager
def spans(tracer: Tracer):
    """Record spans at every entry point in SPAN_POINTS while the block runs."""
    patcher = _Patcher()
    try:
        for owner, attr, name in SPAN_POINTS:
            if (owner, attr) == (linalg, "_rref_rows"):
                def make(fn, name=name):
                    def rref(rows, cols):
                        if not isinstance(rows, (list, tuple)):
                            rows = tracer.timed_rows(rows)
                        frame = tracer.open(name)
                        try:
                            return fn(rows, cols)
                        finally:
                            tracer.close(frame)
                    return rref
            else:
                def make(fn, name=name):
                    return _span_wrapper(tracer, name, fn)
            patcher.replace(owner, attr, make)
        yield tracer
    finally:
        patcher.restore()


@contextmanager
def counts(counter: Counter):
    """Count operations, calls, rows and ranks while the block runs."""
    patcher = _Patcher()

    def counting(key):
        def make(fn):
            def wrapper(*args, **kwargs):
                counter[key] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def rref(fn):
        def wrapper(rows, cols):
            counter["linalg.rref_calls"] += 1

            def counted():
                for row in rows:
                    counter["linalg.rows_in"] += 1
                    if not any(row):
                        counter["linalg.zero_rows_in"] += 1
                    yield row

            reduced, pivots = fn(counted(), cols)
            counter["linalg.rank_out"] += len(pivots)
            return reduced, pivots
        return wrapper

    seen = []  # spaces already counted; a cached space comes back as the same object

    def nder(fn):
        def wrapper(*args, **kwargs):
            space = fn(*args, **kwargs)
            if not any(space is s for s in seen):
                seen.append(space)
                counter["nder.blocks"] += len(space.blocks)
                counter["nder.empty_blocks"] += sum(
                    1 for s in space.blocks.values() if s.ambient_dim == 0
                )
            return space
        return wrapper

    def run(fn):
        def wrapper(argv):
            code, out = fn(argv)
            counter["cli.report_bytes"] += len(out.encode())
            return code, out
        return wrapper

    try:
        for owner, attr, key in COUNT_POINTS:
            patcher.replace(owner, attr, counting(key))
        patcher.replace(linalg, "_rref_rows", rref)
        patcher.replace(derivations, "n_derivation_space", nder)
        patcher.replace(cli, "run", run)
        yield counter
    finally:
        patcher.restore()


def scalar_mul_us(conductor: int, seed: int, pairs: int = 2000, batches: int = 7) -> float:
    """Microseconds per CycloScalar product on seeded operands, from the fastest batch."""
    rng = random.Random(f"{seed}:{conductor}")
    phi = scalars.totient(conductor)
    pool = [
        scalars.CycloScalar(
            conductor, [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(phi)]
        )
        for _ in range(64)
    ]
    operands = [(rng.choice(pool), rng.choice(pool)) for _ in range(pairs)]
    per_batch = []
    for _ in range(batches):
        start = perf_counter()
        for x, y in operands:
            x * y
        per_batch.append((perf_counter() - start) / pairs * 1e6)
    return min(per_batch)
