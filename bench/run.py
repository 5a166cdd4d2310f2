"""Benchmark of catms: shipped recipes on reduced grids, through `catms.cli.run`.

    python3 bench/run.py --workload gate_coherent --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run from the repository root; catms is imported from ./src. A run writes the
workload's recipe files from configs/*.json (workloads.py), then runs rounds:
each round is a fresh process (round.py) with BLAS and OpenMP pinned to one
thread that sends every recipe through `catms.cli.run`. Rounds start until
--seconds have passed, and a run has at least MIN_ROUNDS of them. Every CSV
row of every round is checked (checks.py); a row that is missing or outside
its check counts as a failed point.

--trace 0 prints the end-to-end metrics: wall_s and cpu_s (each recipe's
median over the run's rounds, summed over the recipes), peak_rss_mb (median
over the rounds) and setup_s (median over the rounds and SETUP_PROBES extra
processes that stop after set-up). --trace 1 alternates untraced and
traced rounds and prints the per-layer metrics (medians over the traced
rounds) and trace.overhead_s, the traced less the untraced median wall time.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""
from __future__ import annotations

import os

# pinned before NumPy is imported here, and passed to every round process
PINNED = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                           "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                           "NUMEXPR_NUM_THREADS")}
os.environ.update(PINNED)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import refs  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
SETUP_PROBES = 2
MIN_ROUNDS = 2  # each recipe's median needs samples from more than one round
RUN_LIMIT_S = 170.0  # a run must end within 180 s


class RoundFailed(RuntimeError):
    pass


def spawn_round(root: Path, out: Path, tag: str, plan, mode: str, csv_dir: Path | None,
                deadline: float) -> dict:
    """Run round.py on the plan's (recipe, workers) pairs and return its result."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **PINNED)
    log = out / f"{tag}.log"
    with open(log, "w") as fh:
        args = [sys.executable, str(BENCH / "round.py"), str(out / f"{tag}.json"),
                repr(time.monotonic()), str(csv_dir or "-"), mode]
        proc = subprocess.Popen(args + [f"{p}:{w}" for p, w in plan], cwd=root, env=env,
                                stdout=fh, stderr=subprocess.STDOUT, start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise RoundFailed(f"{tag} did not end before the run limit") from None
    if code != 0:
        raise RoundFailed(f"{tag} exited with {code}: {log.read_text()[-2000:]}")
    return json.loads((out / f"{tag}.json").read_text())


def run_record(root: Path, workload: str, seed: int, seconds: float, trace: bool,
               recipes) -> dict:
    import numpy as np
    import scipy

    try:
        # the ceiling keeps git from looking for a repository above the checkout
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)),
                                cwd=root, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # not a git checkout
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "grid": {r.name: r.grid for r in recipes},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": np.show_config(mode="dicts").get("Build Dependencies"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "thread_pinning": PINNED,
    }


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool) -> dict:
    t_begin = time.monotonic()
    deadline = t_begin + RUN_LIMIT_S
    out = BENCH / "out" / name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    recipes = workloads.workload(name, seed)
    paths = workloads.write_recipes(recipes, root / "configs", out / "recipes")
    docs = {r.name: json.loads(p.read_text()) for r, p in zip(recipes, paths)}
    checker = checks.Checker(recipes, docs, refs.Refs.load())
    plan = [(str(p), r.workers) for r, p in zip(recipes, paths)]

    record = run_record(root, name, seed, seconds, trace, recipes)
    (out / "run_record.json").write_text(json.dumps(record, indent=2))
    print("run record: " + json.dumps(record), flush=True)

    # set-up is reported by untraced runs only; in a fresh checkout the first
    # process also writes the bytecode caches, and the median discards it
    setups = [] if trace else [
        spawn_round(root, out, f"setup{k}", plan, "plain", None, deadline)["setup_s"]
        for k in range(SETUP_PROBES)]

    # untraced rounds; with --trace 1, untraced and span-traced rounds in turn
    cycle = ["plain", "spans"] if trace else ["plain"]
    rounds = {m: [] for m in cycle}
    attempted = failed = 0
    unsound = []
    t_start = time.monotonic()
    k = 0
    while True:
        mode = cycle[k % len(cycle)]
        csv_dir = out / f"round{k}"
        res = spawn_round(root, out, f"round{k}", plan, mode, csv_dir, deadline)
        a, why, bad = checker.check_round(csv_dir)
        attempted, failed, unsound = attempted + a, failed + len(why), unsound + bad
        for line in why + bad:
            print(f"round {k}: {line}", file=sys.stderr)
        if any(res["exit_codes"]):
            print(f"round {k}: catms.cli.run exit codes {res['exit_codes']}", file=sys.stderr)
        rounds[mode].append(res)
        if mode == "plain":
            setups.append(res["setup_s"])
        k += 1
        if k >= MIN_ROUNDS and time.monotonic() - t_start >= seconds:
            break
    plain = rounds["plain"]
    metrics = {}
    if trace:
        units = {k: u for k, (_, u) in tracer.layer_metrics({}).items()}
        for key in units:
            metrics[key] = {"value": statistics.median(r["layers"][key] for r in rounds["spans"]),
                            "unit": units[key]}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(r["wall_s"] for r in rounds["spans"])
            - statistics.median(r["wall_s"] for r in plain),
            "unit": "s"}
    else:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        # each recipe's median over the rounds, summed over the recipes
        for key in ("wall_s", "cpu_s"):
            per_recipe = zip(*(r[f"recipe_{key}"] for r in plain))
            metrics[key] = {"value": sum(statistics.median(x) for x in per_recipe), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": statistics.median(r["peak_rss_mb"] for r in plain),
                                  "unit": "MB"}
    return {"correct": not unsound, "attempted": attempted, "failed": failed, "metrics": metrics,
            "rounds": k,
            "run_s": time.monotonic() - t_begin}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "catms" / "__init__.py").is_file() or not (root / "configs").is_dir():
        print(f"{root} is not a catms checkout (need src/catms and configs/)", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
            r = results[name]
            print(f"{name}: attempted {r['attempted']}, failed {r['failed']}, "
                  f"{r['rounds']} rounds in {r['run_s']:.1f} s; "
                  + ", ".join(f"{k} {m['value']:.6g} {m['unit']}"
                              for k, m in r["metrics"].items()), flush=True)
    except (RoundFailed, refs.StaleReference) as exc:
        print(f"benchmark stopped: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        r = results[names[0]]
        metrics = r["metrics"]
    else:
        metrics = {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
