"""Record the output digests the benchmark checks every run against.

    python3 perfbench/record.py

For each workload, at seeds 0-39 at full size and 0-3 at the
self-check size, this generates the inputs, runs one repetition exactly
as ``run.py`` does and stores the SHA-256 of its output (the pipeline's
output tree, or the evaluation scores and n-way tables) in
``expected.json``. Re-record only when a change is meant to
alter outputs, and say so in the change's notes.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import HERE, ROOT, eval_digest, run_child, tree_digest
from workloads import WORKLOADS, write_inputs

FULL_SEEDS = 40
TINY_SEEDS = 4


def main() -> int:
    expected: dict = {}
    for workload, spec in WORKLOADS.items():
        expected[workload] = {}
        for scale, n_seeds in (("full", FULL_SEEDS), ("tiny", TINY_SEEDS)):
            digests = {}
            for seed in range(n_seeds):
                work = ROOT / ".perfbench_work" / f"record-{workload}-{scale}-{seed}"
                shutil.rmtree(work, ignore_errors=True)
                work.mkdir(parents=True)
                try:
                    write_inputs(workload, scale, work, seed)
                    result = run_child(spec["kind"], work, traced=False)
                    digests[str(seed)] = (
                        tree_digest(work / "out") if spec["kind"] == "pipeline" else eval_digest(result)
                    )
                finally:
                    shutil.rmtree(work, ignore_errors=True)
                print(f"{workload} {scale} seed {seed}: {digests[str(seed)]}", flush=True)
            expected[workload][scale] = digests
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    try:
        (ROOT / ".perfbench_work").rmdir()
    except OSError:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
