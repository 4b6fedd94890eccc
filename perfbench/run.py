"""Benchmark runner: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload indic10 --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout of the repository; the package is
imported from its ``src`` directory. The runner writes the seeded inputs
under ``.perfbench_work/`` at the repository root, then runs the workload
again and again, each time in a fresh interpreter (``child.py``), until
``--seconds`` have passed. After the runs it checks the outputs. Each
output direction is one operation; a failed check fails it, and a
repetition that crashes or whose output digest differs fails all of its
operations.

``--trace 0`` reports the end-to-end metrics (medians over repetitions);
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones plus ``trace.overhead_ratio``. The
metric names and units are those in ``BENCHMARK.json``. The last line of
standard output is the result object; the lines before it, each starting
with ``#``, are the human-readable table, the environment and any
failed checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Stop starting repetitions after this long, whatever ``--seconds`` says,
#: so a run always ends well inside three minutes.
HARD_STOP_S = 120.0

#: Seconds ``calibrate`` takes at the reference speed, roughly what it
#: takes on an unloaded 2-core x86-64 VM under Python 3.11. Every
#: reported time is scaled by this over the mean of the calibration times
#: measured in the child before it imports the package and in this
#: process after the child exits (see README.md).
REFERENCE_CALIBRATION_S = 0.1

TIME_UNITS = frozenset({"s", "ms", "us"})

def tree_digest(root: Path) -> str:
    """SHA-256 over every file's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def eval_digest(result: dict) -> str:
    doc = {"scores": result["scores"], "tables": result["tables"]}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _git_sha() -> str:
    # The ceiling keeps git from reporting an enclosing repository when
    # the checkout itself is not one.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                              env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _environment() -> dict:
    import numpy

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def run_child(kind: str, work: Path, traced: bool) -> dict:
    """One repetition; returns the child's result or raises RuntimeError.

    Its ``calibration`` list gets a second entry, measured here just after
    the child exits.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [
        sys.executable, str(HERE / "child.py"), "--kind", kind, "--work", str(work),
        "--trace", str(int(traced)), "--spawned", repr(time.monotonic()),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT, timeout=HARD_STOP_S)
    cal_after = calibrate()
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise RuntimeError(f"repetition exited with {proc.returncode}: {tail[0]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["calibration"].append(cal_after)
    return result


def _corrupt(kind: str, work: Path, result: dict) -> None:
    """Change one byte of the last repetition's output (self-check only)."""
    if kind == "pipeline":
        target = sorted((work / "out" / "prep" / "final").glob("*.src"))[0]
        data = bytearray(target.read_bytes())
        data[0] = ord("X") if data[0] != ord("X") else ord("Y")
        target.write_bytes(bytes(data))
    else:
        label = sorted(result["scores"])[0]
        text = repr(result["scores"][label][3])
        pos = min(i for i, ch in enumerate(text) if ch.isdigit())
        text = text[:pos] + str((int(text[pos]) + 1) % 10) + text[pos + 1:]
        result["scores"][label][3] = float(text)


def measure(workload: str, scale: str, seed: int, seconds: float, trace: bool, corrupt: bool) -> dict:
    from workloads import WORKLOADS, eval_directions, write_inputs

    spec = WORKLOADS[workload]
    kind, params = spec["kind"], spec[scale]
    langs = params["languages"] if kind == "eval" else ["en", *params["languages"]]
    n_ops = len(eval_directions(langs))
    recorded = json.loads((HERE / "expected.json").read_text())[workload][scale].get(str(seed))

    work = ROOT / ".perfbench_work" / f"{workload}-{scale}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        write_inputs(workload, scale, work, seed)
        reps: list[dict] = []
        started = time.monotonic()
        while True:
            traced = trace and len(reps) % 2 == 1
            shutil.rmtree(work / "out", ignore_errors=True)
            rep = {"traced": traced, "result": None, "digest": None, "error": None}
            try:
                rep["result"] = run_child(kind, work, traced)
                rep["digest"] = tree_digest(work / "out") if kind == "pipeline" else eval_digest(rep["result"])
            except (RuntimeError, subprocess.TimeoutExpired, ValueError, OSError) as exc:
                rep["error"] = str(exc)
            reps.append(rep)
            elapsed = time.monotonic() - started
            if (elapsed >= seconds and len(reps) >= (2 if trace else 1)) or elapsed >= HARD_STOP_S:
                break

        last = reps[-1]
        if corrupt and last["result"] is not None:
            _corrupt(kind, work, last["result"])
            last["digest"] = tree_digest(work / "out") if kind == "pipeline" else eval_digest(last["result"])

        notes: list[str] = []
        reference = recorded or next((r["digest"] for r in reps if r["digest"]), None)
        # The row-level checks run on the last repetition whatever its
        # digest, so they gate seeds that have no recorded digest too.
        check_failed: set = set()
        if last["error"] is None:
            from checks import check_eval, check_pipeline  # imports the package

            try:
                if kind == "pipeline":
                    check_failed, check_notes = check_pipeline(work, params, seed)
                else:
                    check_failed, check_notes = check_eval(work, last["result"], seed)
            except Exception as exc:  # a check that cannot run fails the repetition
                check_failed, check_notes = set(range(n_ops)), [f"checks raised {type(exc).__name__}: {exc}"]
            notes.extend(check_notes)
        failed = 0
        for i, rep in enumerate(reps):
            if rep["error"] is not None:
                notes.append(f"repetition {i}: {rep['error']}")
                failed += n_ops
            elif rep["digest"] != reference:
                notes.append(f"repetition {i}: output digest {rep['digest']} != {reference}")
                failed += n_ops
            elif rep is last:
                failed += len(check_failed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is using it, or it was never created
    return {
        "reps": reps, "attempted": n_ops * len(reps), "failed": failed, "notes": notes,
        "digest": reference, "digest_recorded": recorded is not None, "params": params,
    }


def speed_factors(result: dict) -> tuple[float, float]:
    """Wall and CPU time scale from this repetition's host speed to the reference speed."""
    before, after = result["calibration"]
    wall = (before["wall_s"] + after["wall_s"]) / 2
    cpu = (before["cpu_s"] + after["cpu_s"]) / 2
    return REFERENCE_CALIBRATION_S / wall, REFERENCE_CALIBRATION_S / cpu


def end_to_end(reps: list[dict], raw: bool = False) -> dict[str, float]:
    """Medians over the untraced repetitions; times at the reference speed unless ``raw``.

    ``setup_s`` is always as measured: it is mostly process start-up and
    import I/O, which the calibration loop does not track (scaled, its
    median moved by a quarter between two sets of runs of the same code).
    """
    rows = []
    for r in reps:
        if r["result"] is None or r["traced"]:
            continue
        res = r["result"]
        wall_f, cpu_f = (1.0, 1.0) if raw else speed_factors(res)
        rows.append({
            "wall_s": res["wall_s"] * wall_f,
            "cpu_s": res["cpu_s"] * cpu_f,
            "lines_per_s": res["units"] / (res["wall_s"] * wall_f),
            "peak_rss_mb": res["peak_rss_mb"],
            "setup_s": res["setup_s"],
        })
    return {name: statistics.median(row[name] for row in rows) for name in rows[0]}


def per_layer(reps: list[dict], units: dict[str, str]) -> dict[str, float]:
    """Medians over the traced repetitions; times at the reference speed."""
    traced = [r["result"] for r in reps if r["result"] is not None and r["traced"]]
    values = {}
    for name in traced[0]["layers"]:
        timed = units[name] in TIME_UNITS
        values[name] = statistics.median(
            r["layers"][name] * (speed_factors(r)[0] if timed else 1.0) for r in traced
        )
    values["trace.overhead_ratio"] = (
        statistics.median(r["wall_s"] * speed_factors(r)[0] for r in traced) / end_to_end(reps)["wall_s"]
    )
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measure for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: the self-check size")
    parser.add_argument("--corrupt", action="store_true",
                        help="change one output byte before the checks (self-check of the gate)")
    args = parser.parse_args()

    if not (SRC / "multibridge" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'multibridge'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    run = measure(args.workload, args.scale, args.seed, args.seconds, bool(args.trace), args.corrupt)
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    try:
        values = (
            per_layer(run["reps"], {m["name"]: m["unit"] for m in declared})
            if args.trace else end_to_end(run["reps"])
        )
        raw = end_to_end(run["reps"], raw=True)
    except (IndexError, statistics.StatisticsError):
        for note in run["notes"]:
            print(f"# {note}")
        print("perfbench: no repetition completed; nothing to report", file=sys.stderr)
        return 1

    n_timed = sum(1 for r in run["reps"] if r["result"] is not None and r["traced"] == bool(args.trace))
    print(f"# {args.workload} seed={args.seed} scale={args.scale} trace={args.trace}: "
          f"median of {n_timed} repetitions")
    for metric in declared:
        print(f"#   {metric['name']:<36} {values[metric['name']]:>14.6g} {metric['unit']}")
    factors = [speed_factors(r["result"])[0] for r in run["reps"] if r["result"] is not None]
    print(f"#   times above but setup_s are at the reference speed; host speed factor median "
          f"{statistics.median(factors):.3f} (min {min(factors):.3f}, max {max(factors):.3f})")
    print("#   as measured on this host: " + ", ".join(
        f"{name} {raw[name]:.6g}" for name in ("wall_s", "cpu_s", "lines_per_s")))
    print(f"#   {'error_rate':<36} {run['failed'] / run['attempted']:>14.6g} "
          f"({run['failed']} of {run['attempted']} operations failed)")
    for note in run["notes"]:
        print(f"# FAILED {note}")
    record = {
        "environment": _environment(), "workload": args.workload, "seed": args.seed,
        "scale": args.scale, "params": run["params"], "repetitions": len(run["reps"]),
        "output_digest": run["digest"], "digest_recorded": run["digest_recorded"],
    }
    print("# " + json.dumps(record, sort_keys=True))
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
