"""The outside-in tracer restores colorlie, accounts for all time, and counts repeatably."""

import sys
import time
from collections import Counter

from colorlie import cli, derivations, linalg
from colorlie.scalars import CycloScalar
from perfbench import jobs, tracer

# Self times are charged between two clock reads inside each job span; they
# may exceed the job's own timing only by the cost of those reads.
SELF_TIME_TOLERANCE = 0.01


def _colorlie_namespaces():
    for name, mod in sorted(sys.modules.items()):
        if name == "colorlie" or name.startswith("colorlie."):
            yield mod
            yield from (v for v in vars(mod).values() if isinstance(v, type))


def _snapshot():
    return {(id(ns), k): v for ns in _colorlie_namespaces() for k, v in vars(ns).items()}


def _inputs(workload, tmp_path):
    return jobs.set_up(workload.jobs, 4, tmp_path)


def test_originals_restored_after_traced_and_counted_passes(tiny, tmp_path):
    inputs = _inputs(tiny, tmp_path)
    original_verify = cli.verify_closure
    before = _snapshot()
    t = tracer.Tracer()
    with tracer.spans(t):
        # names imported elsewhere are wrapped too
        assert cli.verify_closure is not original_verify
        assert cli.verify_closure is derivations.verify_closure
        assert derivations.kernel_from_rows is linalg.kernel_from_rows
        jobs.run_pass(tiny.jobs, inputs, jobs.Gate({}), 0, t)
    with tracer.counts(Counter()):
        jobs.run_pass(tiny.jobs, inputs, jobs.Gate({}), 1)
    after = _snapshot()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())


def test_self_times_sum_to_traced_wall(tiny, tmp_path):
    inputs = _inputs(tiny, tmp_path)
    t = tracer.Tracer()
    with tracer.spans(t):
        result = jobs.run_pass(tiny.jobs, inputs, jobs.Gate({}), 0, t)
    names = Counter(span[0] for span in t.spans)
    assert names["bench.job"] == len(tiny.jobs)
    assert names["linalg.rref"] > 0 and names["cli"] == 1
    total_self = sum(t.self_s.values())
    assert abs(total_self - result.total) <= SELF_TIME_TOLERANCE * result.total
    # every kept span nests inside its parent
    for name, start, end, parent in t.spans:
        assert start <= end
        if parent is not None:
            assert t.spans[parent][1] <= start and end <= t.spans[parent][2]


def test_counts_repeat_exactly(tiny, tmp_path):
    inputs = _inputs(tiny, tmp_path)
    runs = []
    for i in range(2):
        counter = Counter()
        with tracer.counts(counter):
            jobs.run_pass(tiny.jobs, inputs, jobs.Gate({}), i)
        runs.append(counter)
    assert runs[0] == runs[1]
    assert runs[0]["linalg.rows_in"] > runs[0]["linalg.rank_out"] > 0
    assert runs[0]["scalars.mul_calls"] > 0 and runs[0]["cli.report_bytes"] > 0


def test_lazy_row_production_is_charged_to_assembly():
    one, zero = CycloScalar.one(1), CycloScalar.zero(1)

    def slow_rows():
        for i in range(5):
            time.sleep(0.02)
            yield [one if j == i else zero for j in range(6)]

    t = tracer.Tracer()
    with tracer.spans(t):
        kernel = derivations.kernel_from_rows(slow_rows(), 6, 1)
    assert kernel.dim == 1
    assert t.self_s["assembly.rows"] >= 0.1
    assert t.self_s["linalg.rref"] < 0.05
