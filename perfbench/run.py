"""colorlie benchmark: timed passes over a workload, or a traced run of it.

Run from the repository root:

    python3 perfbench/run.py --workload nder-perfect --seed 1 --seconds 30 --trace 0

The seed drives a graded basis change of every algebra the workload uses.
With --trace 0 the run repeats passes over the workload's jobs for about
--seconds (at least three passes), timing a calibration task around every
job and set-up five times in all, and reports the end-to-end metrics.
With --trace 1 it makes one counting pass, then alternates untraced and
span-traced passes until about --seconds have gone, and reports the
per-layer metrics. Every pass goes through the correctness
gate. The last line of stdout is one JSON object: correct, attempted,
failed, metrics. The line before it gives every sample and the medians.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "colorlie" / "__init__.py").is_file():
        print(f"error: no colorlie sources at {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    start = perf_counter()
    import colorlie
    from perfbench import jobs, measure
    import_s = perf_counter() - start
    if Path(colorlie.__file__).resolve().parent != (src / "colorlie").resolve():
        print(f"error: imported colorlie from {colorlie.__file__}, not {src}", file=sys.stderr)
        return 2

    workload = jobs.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(jobs.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = ROOT / "perfbench" / ".work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            gate, detail, metrics = measure.trace(workload, args.seed, args.seconds, workdir)
        else:
            gate, detail, metrics = measure.measure(
                workload, args.seed, args.seconds, workdir, import_s
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it, or it is already gone
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
