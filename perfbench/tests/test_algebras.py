"""Generated algebras have the invariants the workloads rely on, for every seed."""

from pathlib import Path

import pytest

from colorlie.algebra import ColorAlgebra
from colorlie.derivations import n_derivation_space
from perfbench import algebras, jobs


def test_known_dimensions():
    assert n_derivation_space(algebras.sl(3), 2).total_dim == 8
    torus3 = algebras.torus(3)
    for n in (2, 3):
        assert [s.dim for s in n_derivation_space(torus3, n).blocks.values()] == [1] * 9
    filiform7 = algebras.filiform(7)
    assert n_derivation_space(filiform7, 2).total_dim == 13
    assert n_derivation_space(filiform7, 4).total_dim == 25
    assert n_derivation_space(algebras.heisenberg(3), 5, max_n=5).total_dim == 49


@pytest.mark.parametrize("name", sorted(algebras.GENERATORS))
def test_generated_algebras_pass_axioms(name):
    for seed in (None, 7):
        assert algebras.generate(name, seed).check_axioms().ok


def test_broken_table_is_rejected():
    a = algebras.sl(3)
    constants = [[list(row) for row in plane] for plane in a.constants]
    constants[0][1][2] = constants[0][1][2] + 1
    broken = ColorAlgebra(a.group, a.bichar, a.degrees, constants, names=a.names)
    with pytest.raises(RuntimeError, match="fails axioms"):
        algebras._checked(broken)


def test_basis_change_is_seeded_and_graded():
    a = algebras.GENERATORS["cheis5z3"]()
    one, again, other = (algebras.basis_change(a, s) for s in (1, 1, 2))
    assert one == again
    assert one.constants != a.constants and one.constants != other.constants
    assert one.degrees == a.degrees
    assert algebras.basis_change(a, None) is a


def test_seeds_keep_every_job_invariant(tmp_path: Path):
    """Two seeds give the identity transform's dimensions and verdicts on every job."""
    for workload in jobs.WORKLOADS.values():
        summaries = {}
        for seed in (None, 1, 2):
            inputs = jobs.set_up(workload.jobs, seed, tmp_path / f"{workload.name}-{seed}")
            gate = jobs.Gate(jobs.EXPECTED)
            result = jobs.run_pass(workload.jobs, inputs, gate, 0)
            assert gate.failed == 0, gate.failures
            summaries[seed] = {k: o.summary for k, o in result.outcomes.items()}
        assert summaries[1] == summaries[None]
        assert summaries[2] == summaries[None]
