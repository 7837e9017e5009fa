"""Workloads, their jobs, set-up, timed passes and the correctness gate.

The benchmark is a closed loop with one caller: a pass runs the workload's
jobs one after another, each on a fresh ``ColorAlgebra`` (library jobs) or
a fresh parse of an algebra file (CLI jobs), so no job reads the
per-algebra cache an earlier job filled.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from colorlie import cli, derivations
from colorlie.fileio import serialize_algebra
from colorlie.scalars import CycloScalar, cyclotomic_polynomial, format_scalar

from . import calibrate
from .algebras import fresh_copy, generate

# Invariant summary of every job's output, keyed by job label. It holds for
# every seed, because the seed only changes the basis.
EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text(encoding="utf-8"))


@dataclass(frozen=True)
class NderJob:
    """``n_derivation_space(a, n)`` called as a library user would."""

    algebra: str
    n: int

    @property
    def label(self) -> str:
        return f"nder {self.algebra} n={self.n}"

    def prepare(self, inputs: "Inputs"):
        return fresh_copy(inputs.algebras[self.algebra])

    def call(self, a):
        # looked up at call time, so a traced run sees the wrapped function
        return derivations.n_derivation_space(a, self.n, max_n=self.n)

    def outcome(self, space) -> "Outcome":
        digest = hashlib.sha256()
        for gamma, sub in space.blocks.items():
            digest.update(repr(gamma.residues).encode())
            for row in sub.basis.entries:
                digest.update(("|".join(format_scalar(c) for c in row) + "\n").encode())
        summary = {
            "total_dim": space.total_dim,
            "dims": {str(g.residues): s.dim for g, s in space.blocks.items() if s.dim},
        }
        return Outcome(digest.hexdigest(), summary, space)


@dataclass(frozen=True)
class CliJob:
    """``colorlie <command> <file> <options>`` through ``cli.run``, in process."""

    command: str
    algebra: str
    options: tuple = ()

    @property
    def label(self) -> str:
        return " ".join(("cli", self.command, self.algebra) + self.options)

    def prepare(self, inputs: "Inputs"):
        return [self.command, inputs.paths[self.algebra], *self.options]

    def call(self, argv):
        return cli.run(argv)

    def outcome(self, result) -> "Outcome":
        code, out = result
        try:
            summary = {"exit": code, "report": invariant_view(json.loads(out))}
        except json.JSONDecodeError:
            summary = {"exit": code, "unparsable_stdout": out[:200]}
        return Outcome(hashlib.sha256(out.encode()).hexdigest(), summary, None)


@dataclass
class Outcome:
    digest: str      # compared across the passes of one run
    summary: dict    # compared with the expected table
    space: object    # the n-derivation space, for the oracle check


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    jobs: tuple


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "nder-perfect",
            "tall kernel streams where nDer = Der in every block: the target of "
            "certified early exit and of faster exact elimination",
            (NderJob("sl3", 2), NderJob("osp12", 4), NderJob("torus3", 2)),
        ),
        Workload(
            "nder-nilpotent",
            "streams where nDer is larger than Der or every row is zero, so an early "
            "exit never fires; isolates row assembly and zero rows",
            (NderJob("filiform7", 4), NderJob("heis7", 4), NderJob("cheis5z3", 4)),
        ),
        Workload(
            "cli-verify",
            "the path users run: file parse, axiom check, verify parts 1 and 2 with "
            "lemmas, many small solves and membership tests, JSON reports",
            (
                CliJob("check", "torus3", ("--json",)),
                CliJob("verify", "sl3", ("--n", "2", "--part", "1", "--json")),
                CliJob("verify", "osp12", ("--n", "2", "--lemmas", "--json")),
                CliJob("der", "osp12", ("--n", "3", "--json")),
            ),
        ),
        Workload(
            "wide-grading",
            "grading groups of 60 and 3,600 elements with dimension 3 and conductors "
            "30 and 60: the per-degree loop and high-degree scalars",
            (
                CliJob("der", "cheis3z60", ("--n", "2", "--json")),
                CliJob("verify", "cheis3z60", ("--n", "3", "--lemmas", "--json")),
                CliJob("verify", "colorSl2z15", ("--n", "3", "--lemmas", "--json")),
            ),
        ),
    )
}


# Report fields that name the input or depend on the chosen basis; every
# other field is invariant under a graded basis change.
_BASIS_DEPENDENT = frozenset({"command", "target", "fingerprint", "basis_maps", "witnesses"})


def invariant_view(obj):
    """The basis-independent part of a CLI JSON report.

    Per-degree block lists are folded to a {degree: fields} map of the
    blocks with some nonzero dimension, which keeps the table small on
    grading groups with thousands of elements.
    """
    if isinstance(obj, dict):
        return {k: invariant_view(v) for k, v in obj.items() if k not in _BASIS_DEPENDENT}
    if isinstance(obj, list) and obj and all(isinstance(x, dict) and "degree" in x for x in obj):
        folded = {}
        for block in obj:
            rest = invariant_view({k: v for k, v in block.items() if k != "degree"})
            if any(type(v) is int and v for v in rest.values()):
                folded[str(tuple(block["degree"]))] = rest
        return folded
    if isinstance(obj, list):
        return [invariant_view(x) for x in obj]
    return obj


@dataclass
class Inputs:
    algebras: dict
    paths: dict


def set_up(jobs, seed: int, workdir: Path) -> Inputs:
    """Generate every algebra the jobs use, write the CLI files, warm lru caches."""
    names = sorted({job.algebra for job in jobs})
    algebras = {name: generate(name, seed) for name in names}
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name in sorted({job.algebra for job in jobs if isinstance(job, CliJob)}):
        path = workdir / f"{name}.json"
        path.write_text(serialize_algebra(algebras[name]), encoding="utf-8")
        paths[name] = str(path)
    for m in sorted({a.conductor for a in algebras.values()}):
        cyclotomic_polynomial(m)
        CycloScalar.zero(m)
        CycloScalar.one(m)
        for k in range(m):
            CycloScalar.root(m, k)
    return Inputs(algebras, paths)


@dataclass
class Gate:
    """Counts job executions and the ones whose output is wrong.

    An execution fails when its invariant summary differs from the expected
    table, or when its output (the --json stdout, or the canonical block
    bases) differs from the first pass of the same run.
    """

    expected: dict
    attempted: int = 0
    failures: dict = field(default_factory=dict)  # (pass index, job label) -> reason
    _first: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def record(self, job, outcome: Outcome, pass_index: int) -> None:
        self.attempted += 1
        problems = []
        want = self.expected.get(job.label)
        if outcome.summary != want:
            problems.append(f"summary {json.dumps(outcome.summary, sort_keys=True)[:300]} "
                            f"!= expected {json.dumps(want, sort_keys=True)[:300]}")
        first = self._first.setdefault(job.label, outcome.digest)
        if outcome.digest != first:
            problems.append("output differs from the first pass")
        if problems:
            self.failures[(pass_index, job.label)] = "; ".join(problems)

    def oracle(self, job, outcome: Outcome, seed: int, pass_index: int) -> None:
        """Check one seeded block of an n-derivation space with ``is_n_derivation``.

        The map checked is a random combination, with coefficients up to
        10^6, of every basis map of the block; it fails the identity with
        probability at least 1 - 10^-6 if any one of them does. The seed
        picks the block, so successive runs cover different blocks.
        """
        space = outcome.space
        rng = random.Random(f"{seed}:{job.label}")
        populated = [g for g, s in space.blocks.items() if s.dim]
        if not populated:
            return
        gamma = rng.choice(populated)
        vec = None
        for row in space.blocks[gamma].basis.entries:
            c = Fraction(rng.randint(1, 10**6))
            term = [c * x for x in row]
            vec = term if vec is None else [x + y for x, y in zip(vec, term)]
        a = space.algebra
        D = derivations.GradedMap.from_block_vector(a, gamma, vec)
        if not derivations.is_n_derivation(a, D, job.n):
            self.failures.setdefault(
                (pass_index, job.label), f"is_n_derivation rejects a map of block {gamma}"
            )


@dataclass
class PassResult:
    seconds: dict     # job label -> timed seconds
    outcomes: dict    # job label -> Outcome
    # calibration task seconds, one before the first job and one after each
    # job, so job i lies between samples i and i + 1; empty if not calibrated
    calibration: list

    @property
    def total(self) -> float:
        return sum(self.seconds.values())


def run_pass(jobs, inputs: Inputs, gate: Gate, pass_index: int, tracer=None,
             calibrated: bool = False) -> PassResult:
    """Run every job once, timing only the call into colorlie.

    With ``calibrated``, the calibration task is also timed before the
    first job and right after each one.
    """
    gc.collect()
    seconds, outcomes, calibration = {}, {}, []
    if calibrated:
        calibration.append(calibrate.timed())
    for job in jobs:
        arg = job.prepare(inputs)
        with tracer.span("bench.job") if tracer else nullcontext():
            start = perf_counter()
            result = job.call(arg)
            seconds[job.label] = perf_counter() - start
        if calibrated:
            calibration.append(calibrate.timed())
        outcome = job.outcome(result)
        gate.record(job, outcome, pass_index)
        outcomes[job.label] = outcome
    return PassResult(seconds, outcomes, calibration)
