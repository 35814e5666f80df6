"""stancewatch benchmark.

    python3 perfbench/run.py --workload classify-short --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py                 # every workload, each in its own process
    python3 perfbench/run.py --write-spec    # regenerate BENCHMARK.json from spec.py

Run from the repository root; the pipeline is imported from `src/`. With
`--trace 0` a run repeats the set-up SETUP_REPEATS times, then runs
measured passes until `--seconds` have gone by, and reports the end-to-end
metrics. With `--trace 1` it sets up once under the tracer, runs one
untraced and one traced pass, and reports the per-layer metrics. Either
way it checks the outputs, prints the metrics by name with units, and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}. Run
details (environment, length histogram, problems) go to
`.perfbench/results/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

# Set before the interpreter starts: one BLAS thread (no slower than two on
# this pipeline's small matrices, and steadier on a shared machine) and a
# fixed hash seed, so a seed's allocation sequence, and with it peak RSS,
# repeats from run to run. Values already in the environment win.
PINNED_ENV = {"PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

sys.path.insert(0, str(HERE))
import spec  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", default="all", choices=["all", *spec.WORKLOADS])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    return p.parse_args(argv)


def environment() -> dict:
    import ctypes

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for lib in sorted(libs):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                threads = int(fn())
                break
    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads if threads is not None else os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(wl, seconds: int):
    """Untraced run: end-to-end metrics."""
    from spans import NullTracer

    t = NullTracer()
    setups = []
    while len(setups) < spec.SETUP_REPEATS or sum(setups) < spec.SETUP_MIN_SECONDS:
        start = perf_counter()
        wl.setup(t)
        setups.append(perf_counter() - start)
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        passes.append(wl.run_pass(t))
    metrics = {
        "tweets_per_s": statistics.median(p.ops / p.wall for p in passes),
        "peak_rss_mb": peak_rss_mb(),  # read before the batch-size check adds its own peak
        "setup_s": statistics.median(setups),
    }
    checks = [*passes, wl.final_check()]
    info = {
        "passes": len(passes),
        "setup_runs_s": setups,
        "pass_tweets_per_s": [p.ops / p.wall for p in passes],
        "reread_tweets_per_s": statistics.median(p.reread_per_s for p in passes),
        "macro_f1": statistics.median(p.macro_f1 for p in passes),
        "tokens": wl.token_stats(),
    }
    return metrics, checks, info


def traced(wl, workload: str):
    """One traced set-up, then an untraced and a traced pass: per-layer metrics."""
    from spans import NullTracer, Tracer

    tracer = Tracer()
    with tracer.phase("setup"):
        wl.setup(tracer)
    plain = wl.run_pass(NullTracer())
    run = wl.run_pass(tracer)
    checks = [plain, run, wl.final_check()]
    summary = tracer.summary("pass")
    setup = tracer.summary("setup")
    tokens = wl.token_stats()
    m = summary.metrics()
    m.update({
        "corpus.tweets": run.ingested,
        "corpus.rejects": run.rejects,
        "tokenizer.real_pieces_mean": statistics.fmean(summary.encoded) - 2 if summary.encoded else 0.0,
        "tokenizer.truncated_share": tokens["truncated_share"],
        "tokenizer.unk_share": tokens["unk_share"],
        "tokenizer.vocab_size": len(wl.vocab),
        "encoder.checkpoint_s": sum(
            s.total[n] for s in (setup, summary) for n in ("encoder.save_checkpoint", "encoder.load_checkpoint")
        ),
        "metrics.macro_f1": run.macro_f1,
        "timeline.days": run.days,
        "timeline.reread_tweets_per_s": plain.reread_per_s,
        "trace.untraced_wall_s": plain.window,
        "trace.overhead_share": run.window / plain.window - 1.0,
        "trace.setup_s": setup.wall,
    })
    guard = spec.EXPECTED_SPANS[workload]
    missing = [f"setup:{n}" for n in guard["setup"] if setup.calls[n] == 0]
    missing += [f"pass:{n}" for n in guard["pass"] if summary.calls[n] == 0]
    if missing:
        run.fail(len(missing), f"expected spans recorded no calls: {missing}")
    run.fail(int(not summary.reconciles()), "self times plus unattributed time do not add up to wall time")
    info = {
        "span_calls": {n: c for n, c in sorted(summary.calls.items()) if c},
        "setup_span_calls": {n: c for n, c in sorted(setup.calls.items()) if c},
        "tokens": tokens,
        "layer_map": spec.LAYER_MAP,
    }
    return m, checks, info


def run_one(args) -> int:
    if not (ROOT / "src" / "stancewatch").is_dir():
        print(f"error: no pipeline source at {ROOT / 'src' / 'stancewatch'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    work = ROOT / ".perfbench" / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = cls(args.seed, work)
    wanted = spec.PER_LAYER if args.trace else spec.END_TO_END
    try:
        metrics, checks, info = (traced(wl, args.workload) if args.trace else measure(wl, args.seconds))
        attempted = sum(c.attempted for c in checks)
        failed = sum(c.failed for c in checks)
        problems = [p for c in checks for p in c.problems]
        if set(metrics) != set(wanted):
            problems.append(f"metric set differs from spec: {sorted(set(metrics) ^ set(wanted))}")
            failed += 1
    except Exception:  # a crashed workload counts as all failed
        problems = [traceback.format_exc()]
        print(problems[0], file=sys.stderr)
        metrics, info = {}, {}
        attempted = failed = cls.planned_ops
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = {n: (v[0] if isinstance(v, tuple) else v) for n, v in wanted.items()}
    if not args.trace and metrics:
        info["tweets_per_s_counts"] = spec.THROUGHPUT_PATH[args.workload]
        if args.workload == "train-short":
            print(f"macro_f1 {info['macro_f1']:.4f}")
        else:
            print(f"reread_tweets_per_s {info['reread_tweets_per_s']:.6g} 1/s")
    print(f"failed_share {failed / attempted:.6f} ({failed} of {attempted} operations)")
    for name in wanted:
        if name in metrics:
            print(f"{name} {metrics[name]:.6g} {units[name]}")
    if "span_calls" in info:
        print("span calls: " + json.dumps(info["span_calls"]))
    for p in problems:
        print(f"problem: {p}")

    correct = failed == 0 and not problems
    env = environment()
    print("env: " + json.dumps(env, sort_keys=True))
    detail = {
        "workload": args.workload, "why": spec.WORKLOADS[args.workload], "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "correct": correct, "attempted": attempted,
        "failed": failed, "problems": problems, "metrics": metrics, "environment": env, **info,
    }
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=2, sort_keys=True, default=str) + "\n")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in wanted if n in metrics},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    status = 0
    for name in spec.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, cwd=ROOT, check=False)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    if any(k not in os.environ for k in PINNED_ENV):
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
                  {**PINNED_ENV, **os.environ})
    sys.exit(main())
