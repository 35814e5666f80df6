"""Write BENCH_<workload>.json: the benchmark's end-to-end numbers on several
seeds, with their spread, and one traced run's per-layer numbers.

    python3 tools/bench_trajectory.py                            # every workload
    python3 tools/bench_trajectory.py --workload classify-short  # one of them

For each workload this runs ``perfbench/run.py --trace 0`` once per seed
in ``SEEDS``, one process at a time, at the benchmark's own run length
(``spec.RUN_SECONDS``), so every file compares with every other; then
``--trace 1`` once on the first seed, and reads the result files those
runs leave in ``.perfbench/results/``. On classify-short, whose forwards
run on a thread pool as wide as the CPUs the process may use, it repeats
the untraced runs under ``taskset -c 0`` (one CPU, so the pool stays idle
and the spread narrows) and reports them as a row of their own.
``perfbench`` is run as it is; nothing in it changes.

Each file holds, per end-to-end metric, the median, the quartiles and
their distance (IQR), and every run's value in seed order; the seeds, the
run length, the environment block perfbench records, the commit and
whether ``src/`` or ``perfbench/`` differed from it; whether every run's
outputs were correct, and the operations failed; and the traced run's
per-layer metrics. A perf change reruns this for the workload it claims
and quotes the two files' numbers.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import spec  # noqa: E402

PINNED_WORKLOADS = ("classify-short",)
SEEDS = (1, 2, 3, 4, 5)


def run(workload: str, seed: int, trace: int, pin: bool) -> dict:
    """One perfbench process; the result file it writes."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(spec.RUN_SECONDS), "--trace", str(trace)]
    if pin:
        cmd = ["taskset", "-c", "0", *cmd]
    path = ROOT / ".perfbench" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    path.unlink(missing_ok=True)  # so a run that writes nothing cannot pass off an older file
    subprocess.run(cmd, cwd=ROOT, check=False, stdout=subprocess.DEVNULL)
    if not path.is_file():
        raise SystemExit(f"{' '.join(cmd)} wrote no {path.name}")
    return json.loads(path.read_text())


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": values}


def summary(results: list[dict]) -> dict:
    """Median and quartiles of each end-to-end metric over untraced runs."""
    return {
        "end_to_end": {
            name: {"unit": unit, "better": better, **spread([r["metrics"][name] for r in results])}
            for name, (unit, better, _) in spec.END_TO_END.items()
            if all(name in r["metrics"] for r in results)
        },
        "correct": all(r["correct"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
    }


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=False).stdout.strip()


def bench(workload: str) -> dict:
    runs = [run(workload, seed, 0, pin=False) for seed in SEEDS]
    doc = {
        "workload": workload,
        "why": spec.WORKLOADS[workload],
        "commit": git("rev-parse", "HEAD") or None,
        "dirty": bool(git("status", "--porcelain", "--", "src", "perfbench")),
        "seeds": list(SEEDS),
        "seconds": spec.RUN_SECONDS,
        "environment": runs[0]["environment"],
        **summary(runs),
    }
    if workload in PINNED_WORKLOADS:
        doc["taskset_cpu0"] = summary([run(workload, seed, 0, pin=True) for seed in SEEDS])
    traced = run(workload, SEEDS[0], 1, pin=False)
    doc["traced"] = {"seed": SEEDS[0], "correct": traced["correct"], "failed": traced["failed"],
                     "per_layer": traced["metrics"]}
    return doc


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", action="append", choices=list(spec.WORKLOADS),
                   help="repeat for several; default every workload")
    args = p.parse_args(argv)
    if any(w in PINNED_WORKLOADS for w in args.workload or spec.WORKLOADS) and not shutil.which("taskset"):
        p.error("taskset is needed for the one-CPU row of classify-short")
    status = 0
    for workload in args.workload or spec.WORKLOADS:
        doc = bench(workload)
        path = ROOT / f"BENCH_{workload}.json"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        tps = doc["end_to_end"].get("tweets_per_s", {})
        print(f"{path.name}: tweets_per_s median {tps.get('median', float('nan')):.6g} "
              f"IQR {tps.get('iqr', float('nan')):.6g}, correct {doc['correct']}, failed {doc['failed']}")
        status = status or int(not doc["correct"] or not doc["traced"]["correct"])
    return status


if __name__ == "__main__":
    sys.exit(main())
