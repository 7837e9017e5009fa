import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import jobs  # noqa: E402

# Two cheap jobs whose labels are in the expected table: one library, one CLI.
TINY = jobs.Workload(
    "tiny",
    "two cheap jobs for the benchmark's own tests",
    (jobs.NderJob("sl3", 2), jobs.CliJob("der", "osp12", ("--n", "3", "--json"))),
)


@pytest.fixture
def tiny():
    return TINY
