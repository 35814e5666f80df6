"""Write BENCH_AB_<workload>.json: alternating pairs of benchmark runs of a
parent commit and of this tree, and one traced run of each.

    python3 tools/bench_trajectory.py                            # every workload, against HEAD
    python3 tools/bench_trajectory.py --workload classify-short  # one of them
    python3 tools/bench_trajectory.py --against HEAD~1 --workload classify-short

A change is measured against its parent in one sitting, never as two files
taken at different times: the medians of one tree move by tens of percent
over an hour on a shared machine. ``--against REV`` (default ``HEAD``)
names the parent. On a tree that matches it this is an A/A run, whose two
sides show the noise floor; with uncommitted changes it measures them.

For each workload the tool checks REV out with ``git worktree add
--detach`` into a temporary directory and runs ``perfbench/run.py --trace
0`` from each tree, one process at a time, in ABBA order (pair i runs REV
first when i is even and this tree first when it is odd), ``AB_PAIRS``
pairs on the seeds from ``AB_FIRST_SEED`` on, at the benchmark's own run
length (``spec.RUN_SECONDS``). On classify-short, whose forwards run on a
thread pool as wide as the CPUs the process may use, it repeats the pairs
under ``taskset -c 0`` (one CPU, so the pool stays idle and the spread
narrows) as a row of their own. Then each tree runs ``--trace 1`` once on
``AB_FIRST_SEED`` for its per-layer numbers, and the worktree is removed.
``perfbench`` is run as it is; nothing in it changes.

The change side is named by its commit and, when ``src/`` or
``perfbench/`` differ from it, by the SHA-256 of ``git diff HEAD -- src
perfbench``. Per end-to-end metric the file holds every pair's values,
each side's median and IQR, the pairs the change wins, the change of the
median, and a verdict (``verdict``): ``better`` when the change wins at
least ``AB_MIN_WIN_SHARE`` of the pairs and its median moves past the
parent's IQR, ``worse`` when the median is worse by more than the metric's
``BENCHMARK.json`` bound, ``unresolved`` when the parent's own IQR reaches
that bound, and ``same`` otherwise. A ``better`` becomes ``failed`` unless
both sides' outputs were correct and the change failed no more operations
than the parent: a gain bought with wrong or dropped work is none.
``parent.traced`` and ``change.traced`` hold each traced run's seed,
correctness, failed operations and per-layer metrics. The tool exits 1
when any run on either side gave wrong outputs. A perf change cites this
file for the workload it claims.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import spec  # noqa: E402

PINNED_WORKLOADS = ("classify-short",)
# Pair i runs on seed AB_FIRST_SEED + i; the traced runs on AB_FIRST_SEED.
AB_FIRST_SEED = 9101
AB_PAIRS = 10
AB_MIN_WIN_SHARE = 0.9


def run(workload: str, seed: int, trace: int, pin: bool, tree: Path = ROOT) -> dict:
    """One perfbench process run from ``tree``; the result file it writes."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(spec.RUN_SECONDS), "--trace", str(trace)]
    if pin:
        cmd = ["taskset", "-c", "0", *cmd]
    path = tree / ".perfbench" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    path.unlink(missing_ok=True)  # so a run that writes nothing cannot pass off an older file
    subprocess.run(cmd, cwd=tree, check=False, stdout=subprocess.DEVNULL)
    if not path.is_file():
        raise SystemExit(f"{' '.join(cmd)} wrote no {path.name}")
    return json.loads(path.read_text())


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": values}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=False).stdout.strip()


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Pairs of one metric, parent and change run i on the same seed: each
    side's spread, the pairs the change wins, the relative change of the
    median, and the verdict the module docstring defines."""
    p, c = spread(parent), spread(change)
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    rel = (c["median"] - p["median"]) / p["median"]
    unresolved = p["iqr"] >= bound * abs(p["median"])
    if wins >= AB_MIN_WIN_SHARE * len(parent) and sign * (c["median"] - p["median"]) > p["iqr"]:
        verdict = "better"
    elif sign * rel < -bound:
        verdict = "worse"
    else:
        verdict = "unresolved" if unresolved else "same"
    return {"parent": p, "change": c, "change_wins": wins, "pairs": len(parent),
            "median_change": rel, "bound": bound, "unresolved": unresolved, "verdict": verdict}


def ab_summary(parent: list[dict], change: list[dict]) -> dict:
    """``compare`` for every end-to-end metric both sides report, and each
    side's correctness; a ``better`` verdict becomes ``failed`` when either
    side's outputs were wrong or the change failed more operations."""
    sides = {side: {"correct": all(r["correct"] for r in runs), "failed": sum(r["failed"] for r in runs),
                    "attempted": sum(r["attempted"] for r in runs)}
             for side, runs in (("parent_runs", parent), ("change_runs", change))}
    sound = (sides["parent_runs"]["correct"] and sides["change_runs"]["correct"]
             and sides["change_runs"]["failed"] <= sides["parent_runs"]["failed"])
    end_to_end = {}
    for name, (unit, better, bound) in spec.END_TO_END.items():
        if all(name in r["metrics"] for r in parent + change):
            m = compare([r["metrics"][name] for r in parent], [r["metrics"][name] for r in change], better, bound)
            if m["verdict"] == "better" and not sound:
                m["verdict"] = "failed"
            end_to_end[name] = {"unit": unit, "better": better, **m}
    return {"end_to_end": end_to_end, **sides}


def ab_pairs(workload: str, parent_tree: Path, pairs: int, pin: bool) -> tuple[list[dict], list[dict]]:
    """The parent's and the change's results, pair by pair in ABBA order."""
    parent, change = [], []
    for i in range(pairs):
        seed = AB_FIRST_SEED + i
        if i % 2 == 0:
            parent.append(run(workload, seed, 0, pin, parent_tree))
            change.append(run(workload, seed, 0, pin))
        else:
            change.append(run(workload, seed, 0, pin))
            parent.append(run(workload, seed, 0, pin, parent_tree))
    return parent, change


def change_tree() -> dict:
    """This tree's commit, whether ``src/`` or ``perfbench/`` differ from it,
    and if they do, the SHA-256 of that difference, so a file written from an
    uncommitted tree still says which code it measured."""
    dirty = bool(git("status", "--porcelain", "--", "src", "perfbench"))
    doc = {"commit": git("rev-parse", "HEAD") or None, "dirty": dirty}
    if dirty:
        diff = subprocess.run(["git", "diff", "HEAD", "--", "src", "perfbench"], cwd=ROOT,
                              capture_output=True, check=False).stdout
        doc["diff_sha256"] = hashlib.sha256(diff).hexdigest()
    return doc


def bench_against(workload: str, rev: str) -> dict:
    parent_commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    if not parent_commit:
        raise SystemExit(f"{rev} names no commit")
    with tempfile.TemporaryDirectory(prefix="bench-ab-") as tmp:
        tree = Path(tmp) / "parent"
        subprocess.run(["git", "worktree", "add", "--detach", str(tree), parent_commit],
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        try:
            parent, change = ab_pairs(workload, tree, AB_PAIRS, pin=False)
            doc = {
                "workload": workload,
                "why": spec.WORKLOADS[workload],
                "parent": {"rev": rev, "commit": parent_commit},
                "change": change_tree(),
                "seeds": [AB_FIRST_SEED + i for i in range(AB_PAIRS)],
                "seconds": spec.RUN_SECONDS,
                "order": "ABBA: even pairs run the parent first, odd pairs the change",
                "environment": change[0]["environment"],
                **ab_summary(parent, change),
            }
            if workload in PINNED_WORKLOADS:
                doc["taskset_cpu0"] = ab_summary(*ab_pairs(workload, tree, AB_PAIRS, pin=True))
            for side, side_tree in (("parent", tree), ("change", ROOT)):
                traced = run(workload, AB_FIRST_SEED, 1, False, side_tree)
                doc[side]["traced"] = {"seed": AB_FIRST_SEED, "correct": traced["correct"],
                                       "failed": traced["failed"], "per_layer": traced["metrics"]}
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(tree)], cwd=ROOT, check=False)
            subprocess.run(["git", "worktree", "prune"], cwd=ROOT, check=False)
    return doc


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", action="append", choices=list(spec.WORKLOADS),
                   help="repeat for several; default every workload")
    p.add_argument("--against", metavar="REV", default="HEAD",
                   help="the parent to pair this tree with (default: %(default)s)")
    args = p.parse_args(argv)
    if any(w in PINNED_WORKLOADS for w in args.workload or spec.WORKLOADS) and not shutil.which("taskset"):
        p.error("taskset is needed for the one-CPU row of classify-short")
    status = 0
    for workload in args.workload or spec.WORKLOADS:
        doc = bench_against(workload, args.against)
        path = ROOT / f"BENCH_AB_{workload}.json"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        for name, m in doc["end_to_end"].items():
            print(f"{path.name}: {name} {m['parent']['median']:.6g} -> {m['change']['median']:.6g} "
                  f"({m['median_change']:+.1%}), change wins {m['change_wins']}/{m['pairs']}, "
                  f"parent IQR {m['parent']['iqr']:.6g}: {m['verdict']}")
        print(f"{path.name}: traced runs correct: parent {doc['parent']['traced']['correct']}, "
              f"change {doc['change']['traced']['correct']}")
        sides = [doc["parent_runs"], doc["change_runs"], doc["parent"]["traced"], doc["change"]["traced"]]
        if "taskset_cpu0" in doc:
            sides += [doc["taskset_cpu0"]["parent_runs"], doc["taskset_cpu0"]["change_runs"]]
        status = status or int(not all(s["correct"] for s in sides))
    return status


if __name__ == "__main__":
    sys.exit(main())
