"""Record the output digests that the benchmark's correctness gate compares against.

    python3 bench/record_digests.py

Runs every build and cli job once at the default seed and at one
held-out seed, checks each output against the reference model (with no
digests loaded), and writes ``bench/digests.json``: the sha256 of each
build phase table, and the sha256 of each cli job's stdout with its
exit code.  Fixture and matrices jobs do not depend on the seed and are
stored once, under "fixed".  Rerun only when an output is meant to
change; the digests pin byte-identical results across refactors.
"""

import json
import shutil
import sys
from pathlib import Path

import run  # pins BLAS threads and clears HGS_DENSE_CAP before numpy loads

SEEDS = (1, 1009)  # the default seed and a held-out one


def seed_independent(job_id: str) -> bool:
    return job_id.startswith(("fixture:", "gen:json-matrices:"))


def main() -> int:
    sys.path[:0] = [str(run.ROOT / "src"), str(run.BENCH)]
    import workloads

    hq = run.fresh_import()
    digests: dict = {"build": {}, "cli": {"fixed": {}}}
    workdir = run.OUT / "record"
    for seed in SEEDS:
        for job in workloads.setup_build(hq, seed, run.ROOT, workdir, {}):
            phases = job.run()
            problem = job.check(phases)
            if problem:
                raise SystemExit(f"{job.id} at seed {seed}: {problem}")
            digests["build"].setdefault(str(seed), {})[job.id.split(":", 1)[1]] = \
                workloads.table_digest(phases)
        for job in workloads.setup_cli(hq, seed, run.ROOT, workdir / str(seed), {}):
            code, stdout = job.run()
            problem = job.check((code, stdout))
            if problem:
                raise SystemExit(f"{job.id} at seed {seed}: {problem}")
            slot = "fixed" if seed_independent(job.id) else str(seed)
            digests["cli"].setdefault(slot, {})[job.id] = [workloads.sha256(stdout), code]
    shutil.rmtree(workdir, ignore_errors=True)
    Path(workloads.DIGESTS).write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
