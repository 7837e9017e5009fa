"""The two kinds of run: timed passes (end-to-end metrics) and a traced run (per-layer metrics).

On a shared host the speed one process gets changes by up to 1.9x, in
episodes from under a second to minutes; an episode can outlast a whole
run, so even the best time of a job over a run moves with the host. Each
job sample is therefore divided by the mean of the two calibration task
samples (``calibrate.py``) taken just before and just after it, and a job's
figure is the median of those ratios over the run's passes. The detail line
of each run keeps the job times in seconds (best and median), every sample
and the calibration samples. Set-up is timed a fixed number of times per
run, spread over it, and reported as the median in seconds.
"""

from __future__ import annotations

import gc
import resource
from collections import Counter
from statistics import median
from time import perf_counter

from . import jobs, tracer

MIN_PASSES = 3
# A set-up is timed before the first pass and again after the first pass
# that ends past each further SETUPS-th of the run, so its samples are
# spread over the run like the passes are, and their number, not their
# share of the run, is fixed.
SETUPS = 5

# per-layer metric -> the span whose self time it reports
SPAN_METRICS = {
    "linalg.rref_self_s": "linalg.rref",
    "linalg.coords_s": "linalg.coords",
    "assembly.rows_s": "assembly.rows",
    "assembly.table_s": "assembly.table",
    "nder.self_s": "nder",
    "maps.bracket_s": "maps.bracket",
    "maps.ad_solve_s": "maps.ad_solve",
    "maps.delta_s": "maps.delta",
    "maps.deralg_s": "maps.deralg",
    "maps.contains_s": "maps.contains",
    "verify.part1_s": "verify.part1",
    "verify.part2_s": "verify.part2",
    "verify.closure_s": "verify.closure",
    "verify.inner_ideal_s": "verify.inner_ideal",
    "verify.centralizer_s": "verify.centralizer",
    "verify.delta_membership_s": "verify.delta_membership",
    "verify.ad_compat_s": "verify.ad_compat",
    "verify.oracle_s": "verify.oracle",
    "algebra.check_axioms_s": "algebra.check_axioms",
    "algebra.center_s": "algebra.center",
    "algebra.derived_s": "algebra.derived",
    "fileio.parse_s": "fileio.parse",
    "cli.self_s": "cli",
}

COUNT_METRICS = (
    "scalars.mul_calls",
    "scalars.addsub_calls",
    "scalars.inv_calls",
    "linalg.rref_calls",
    "linalg.rows_in",
    "linalg.zero_rows_in",
    "linalg.rank_out",
    "linalg.solve_calls",
    "linalg.coords_calls",
    "nder.blocks",
    "nder.empty_blocks",
    "maps.bracket_calls",
    "maps.ad_solve_calls",
    "grading.eps_calls",
    "grading.add_calls",
)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _timed_set_up(workload, seed, workdir, times):
    start = perf_counter()
    inputs = jobs.set_up(workload.jobs, seed, workdir / f"setup{len(times)}")
    times.append(perf_counter() - start)
    return inputs


def _freeze_harness():
    # the harness's own objects should not make the collector slower for the jobs
    gc.collect()
    gc.freeze()


def _oracle(workload, gate, last, seed, pass_index):
    for job in workload.jobs:
        if isinstance(job, jobs.NderJob):
            gate.oracle(job, last.outcomes[job.label], seed, pass_index)


def _total(seconds: dict) -> float:
    return sum(seconds.values())


def _failures(gate):
    return [f"pass {i}: {label}: {why}" for (i, label), why in gate.failures.items()]


def measure(workload, seed, seconds, workdir, import_s, expected=jobs.EXPECTED):
    setup_times = []
    inputs = _timed_set_up(workload, seed, workdir, setup_times)
    _freeze_harness()
    gate = jobs.Gate(expected)
    # only the timings of earlier passes are kept, so memory does not grow
    # with the number of passes a run happens to make
    passes = []  # (job label -> seconds, calibration seconds)
    start = perf_counter()
    while True:
        last = jobs.run_pass(workload.jobs, inputs, gate, len(passes), calibrated=True)
        passes.append((last.seconds, last.calibration))
        if len(passes) == 1:
            # within the run's time budget; every later pass must match this one byte for byte
            _oracle(workload, gate, last, seed, 0)
        elapsed = perf_counter() - start
        if len(setup_times) < SETUPS and elapsed * SETUPS >= len(setup_times) * seconds:
            _timed_set_up(workload, seed, workdir, setup_times)
            elapsed = perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + median(_total(p) for p, _ in passes) > seconds:
            break

    samples = {job.label: [p[job.label] for p, _ in passes] for job in workload.jobs}
    # each job sample over the mean of the calibration samples on either side of it
    ratios = {
        job.label: [p[job.label] * 2 / (cal[i] + cal[i + 1]) for p, cal in passes]
        for i, job in enumerate(workload.jobs)
    }
    typical = {label: median(v) for label, v in ratios.items()}
    best = {label: min(v) for label, v in samples.items()}
    detail = {
        "workload": workload.name,
        "seed": seed,
        "passes": len(passes),
        "wall_s": sum(best.values()),
        "job_best_s": best,
        "job_median_s": {label: median(v) for label, v in samples.items()},
        "job_median_ref": typical,
        "pass_s": [_total(p) for p, _ in passes],
        "job_samples_s": samples,
        "calibration_samples_s": [cal for _, cal in passes],
        "setup_samples_s": setup_times,
        "failures": _failures(gate),
    }
    metrics = {
        "wall_ref": _metric(sum(typical.values()), "ref"),
        "job_max_ref": _metric(max(typical.values()), "ref"),
        "job_min_ref": _metric(min(typical.values()), "ref"),
        "setup_s": _metric(import_s + median(setup_times), "s"),
        "peak_rss_mib": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    return gate, detail, metrics


def trace(workload, seed, seconds, workdir, expected=jobs.EXPECTED):
    inputs = _timed_set_up(workload, seed, workdir, [])
    _freeze_harness()
    gate = jobs.Gate(expected)
    # the counting pass and the oracle come first, so they count against --seconds
    start = perf_counter()
    counter = Counter()
    with tracer.counts(counter):
        counted = jobs.run_pass(workload.jobs, inputs, gate, 0)
    _oracle(workload, gate, counted, seed, 0)
    plain, traced = [], []
    while True:
        plain.append(jobs.run_pass(workload.jobs, inputs, gate, 1 + len(plain) + len(traced)).total)
        t = tracer.Tracer()
        with tracer.spans(t):
            result = jobs.run_pass(workload.jobs, inputs, gate, 1 + len(plain) + len(traced), t)
        traced.append((result.total, t))
        elapsed = perf_counter() - start
        pair = median(plain) + median(total for total, _ in traced)
        if elapsed + pair > seconds:
            break

    # span times from the least contended traced pass, as the timings are
    fastest, spans = min(traced, key=lambda rt: rt[0])
    metrics = {
        name: _metric(spans.self_s[span], "s") for name, span in SPAN_METRICS.items()
    }
    metrics.update({name: _metric(counter[name], "count") for name in COUNT_METRICS})
    rows = counter["linalg.rows_in"]
    metrics["linalg.useful_row_ratio"] = _metric(
        counter["linalg.rank_out"] / rows if rows else 0.0, "ratio"
    )
    metrics["cli.report_bytes"] = _metric(counter["cli.report_bytes"], "bytes")
    metrics["scalars.mul_us.m1"] = _metric(tracer.scalar_mul_us(1, seed), "us")
    metrics["scalars.mul_us.m3"] = _metric(tracer.scalar_mul_us(3, seed), "us")
    metrics["trace.overhead_ratio"] = _metric(
        fastest / min(plain) - 1, "ratio"
    )
    detail = {
        "workload": workload.name,
        "seed": seed,
        "untraced_pass_s": plain,
        "traced_pass_s": [total for total, _ in traced],
        "spans_per_traced_pass": len(spans.spans),
        "failures": _failures(gate),
    }
    return gate, detail, metrics
