"""The correctness gate counts wrong outputs as failures."""

import copy

from colorlie import catalog_get
from colorlie.derivations import DerivationSpace
from colorlie.linalg import Subspace
from perfbench import jobs, measure


def test_wrong_expected_value_counts_as_failure(tiny, tmp_path):
    expected = copy.deepcopy(jobs.EXPECTED)
    expected["nder sl3 n=2"]["total_dim"] = 9
    gate, detail, _ = measure.measure(tiny, 1, 0, tmp_path, 0.0, expected=expected)
    assert gate.attempted == 2 * detail["passes"]
    assert gate.failed == detail["passes"]
    assert all(label == "nder sl3 n=2" for _, label in gate.failures)


def test_clean_run_has_no_failures(tiny, tmp_path):
    gate, detail, metrics = measure.measure(tiny, 3, 0, tmp_path, 0.0)
    assert gate.failed == 0, gate.failures
    assert detail["passes"] == measure.MIN_PASSES
    assert all(m["value"] > 0 for m in metrics.values())


def test_output_that_changes_between_passes_fails():
    job = jobs.NderJob("sl3", 2)
    gate = jobs.Gate({job.label: {"total_dim": 8}})
    gate.record(job, jobs.Outcome("aaa", {"total_dim": 8}, None), 0)
    gate.record(job, jobs.Outcome("bbb", {"total_dim": 8}, None), 1)
    assert gate.attempted == 2
    assert list(gate.failures) == [(1, job.label)]


def test_oracle_rejects_a_map_that_is_no_derivation():
    a = catalog_get("sl2")
    gamma = a.group.zero()
    # all of gl(3) in place of Der(sl2): most of it fails the identity
    space = DerivationSpace(a, 2, {gamma: Subspace.full(9, a.conductor)})
    job = jobs.NderJob("sl2", 2)
    gate = jobs.Gate({})
    gate.oracle(job, jobs.Outcome("", {}, space), seed=5, pass_index=0)
    assert list(gate.failures) == [(0, job.label)]
