"""Self-check of the benchmark at the tiny size; takes about half a minute.

    python3 perfbench/selfcheck.py

For every workload it runs ``run.py`` untraced and traced and checks that
the result line reports every metric ``BENCHMARK.json`` declares, with
its unit, and no failed operation. Then it runs each workload twice more
with one output byte changed and checks that the run reports failed
operations: once on a recorded seed, where the digest comparison must
catch it, and once for a single repetition on a seed with no recorded
digest, where the row-level checks alone must. This shows the output
checks are live. It also checks that
``layers.json`` maps every per-layer metric to a layer.
"""

from __future__ import annotations

import json
import subprocess
import sys

from run import HERE, ROOT


#: A seed ``expected.json`` has no tiny-size digest for.
UNRECORDED_SEED = 1000


def _run(workload: str, trace: int, *extra: str, seed: int = 1, seconds: float = 1) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--scale", "tiny", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())["layers"]
    mapped = {name for layer in layers for name in layer["metrics"]}
    problems = [f"layers.json does not map {m['name']}" for m in bench["per_layer"] if m["name"] not in mapped]

    for workload in (w["name"] for w in bench["workloads"]):
        before = len(problems)
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            result = _run(workload, trace)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{workload} trace={trace}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{workload} trace={trace}: {result['failed']} of {result['attempted']} failed")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in declared}
            if got != want:
                problems.append(f"{workload} trace={trace}: metrics {got} != declared {want}")
        for what, seed, seconds in (("recorded", 1, 1), ("unrecorded", UNRECORDED_SEED, 0)):
            corrupted = _run(workload, 0, "--corrupt", seed=seed, seconds=seconds)
            if corrupted["correct"] or corrupted["failed"] == 0:
                problems.append(f"{workload}: a corrupted output byte went unnoticed on a {what} seed")
        print(f"{workload}: {'ok' if len(problems) == before else 'FAILED'}", flush=True)

    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck passed" if not problems else f"selfcheck failed: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
