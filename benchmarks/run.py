"""Run one benchmark workload of ``nld`` and print its metrics.

    python3 benchmarks/run.py --workload theory --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src``.  The command writes the workload's inputs from the seed, times
the set-up of fresh processes, runs the workload in its own process and
checks every op's outcome.  It prints the metrics by name, with units,
and as its last line one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The full result, with the machine it ran on,
goes to ``.bench_work/results/``.  See ``benchmarks/README.md``.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

WORK = Path(".bench_work")
# Set-up is timed in this many probe processes plus the workload process.
SETUP_PROBES = 5
# Seconds a process may take beyond the measuring time before it is killed.
GRACE_S = 100

END_TO_END = {
    "wall_s": "s",
    "main_ops_s": "s",
    "side_ops_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = (
    "spectrum.eig_s",
    "spectrum.eig_calls",
    "spectrum.eig_n3",
    "spectrum.busy_s",
    "kernels.build_s",
    "kernels.builds",
    "kernels.entries_built",
    "kernels.normalize_s",
    "kernels.normalizations",
    "kernels.busy_s",
    "dynamics.evolve_s",
    "dynamics.steps",
    "dynamics.busy_s",
    "dynamics.blowups",
    "operators.busy_s",
    "operators.calls",
    "fields.busy_s",
    "fields.calls",
    "net.forward_s",
    "net.backward_s",
    "net.batches",
    "net.samples",
    "net.task_s",
    "net.busy_s",
    "net.divergences",
    "rng.busy_s",
    "rng.calls",
    "rng.values_drawn",
    "cli.resolve_s",
    "cli.busy_s",
    "cli.artifact_bytes",
    "cli.cpu_s",
    "rng.errors",
    "fields.errors",
    "kernels.errors",
    "operators.errors",
    "dynamics.errors",
    "spectrum.errors",
    "net.errors",
    "cli.errors",
    "trace.overhead_s",
)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


class RunError(Exception):
    """The workload could not be run; no result is printed."""


def worker_env(threads: int) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def spawn(args: list, env: dict):
    """Start a worker; return it and the seconds until it was ready."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    setup = time.perf_counter() - started
    if line.strip() != "ready":
        _, err = finish(proc, GRACE_S)
        raise RunError(f"worker did not start: {line.strip()} {err.strip()[-2000:]}")
    return proc, setup


def finish(proc, timeout: float):
    """Wait for a worker, killing it if it overruns; return its output."""
    try:
        return proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError(f"worker overran {timeout:.0f} s and was killed") from None


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "nld").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _pass_sum(entry: dict, kind=None) -> float:
    return sum(r["reference_s"] for r in entry["ops"] if kind is None or r["kind"] == kind)


def summarize(doc: dict, setups: list, trace: bool) -> dict:
    """Per-pass metrics, as medians over the run's passes."""
    passes = doc["passes"]
    if trace:
        return {
            name: statistics.median(p["layers"][name] for p in passes)
            for name in PER_LAYER
        }
    return {
        "wall_s": statistics.median(_pass_sum(p) for p in passes),
        "main_ops_s": statistics.median(_pass_sum(p, "main") for p in passes),
        "side_ops_s": statistics.median(_pass_sum(p, "side") for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": doc["peak_rss_mb"],
    }


def run(args) -> dict:
    if not (ROOT / "src" / "nld" / "cli.py").is_file():
        raise RunError(f"no nld sources under {ROOT / 'src'}; run from a source checkout")
    os.chdir(ROOT)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    plan = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "passes": workloads.write_plan(args.workload, args.seed, work, args.tiny),
    }
    (work / "plan.json").write_text(json.dumps(plan, indent=1) + "\n")

    threads = len(os.sched_getaffinity(0))
    env = worker_env(threads)
    setups = []
    for _ in range(SETUP_PROBES):
        proc, setup = spawn(["--probe"], env)
        finish(proc, GRACE_S)
        setups.append(setup)
    result_path = work / "result-raw.json"
    proc, setup = spawn(["--plan", str(work / "plan.json"), "--result", str(result_path)], env)
    setups.append(setup)
    _, err = finish(proc, args.seconds + GRACE_S)
    if proc.returncode != 0 or not result_path.is_file():
        raise RunError(f"worker exited with {proc.returncode}: {err.strip()[-2000:]}")
    doc = json.loads(result_path.read_text())

    all_ops = [r for p in doc["passes"] for r in p["ops"] + p.get("traced_ops", [])]
    failures = [f"{r['label']}: {r['failure']}" for r in all_ops if r["failure"]]
    metrics = summarize(doc, setups, bool(args.trace))
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "machine": {
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "numpy": doc["numpy"],
            "blas": doc["blas"],
            "blas_threads": threads,
            "git_commit": git_commit(),
            "source_sha256": source_digest(),
        },
        "metrics": metrics,
        "units": END_TO_END if not args.trace else {n: layer_unit(n) for n in PER_LAYER},
        "kind_names": workloads.KIND_NAMES[args.workload],
        "setup_samples_s": setups,
        "passes": len(doc["passes"]),
        "measured_s": doc["measured_s"],
        "attempted": len(all_ops),
        "failed": len(failures),
        "failures": failures,
        "waiting": "none: nld runs one op at a time on one thread, with no queue or lock",
        "ops": [
            {k: r[k] for k in ("label", "kind", "latency_s", "scaled_s", "reference_s",
                                "calibration_s", "cpu_s")}
            for p in doc["passes"] for r in p["ops"]
        ],
    }
    if args.trace:
        for key in ("missing_targets", "missing_metrics", "targets_not_hit",
                    "span_count", "spans"):
            result[key] = doc.get(key)
        result["layers_per_pass"] = [
            {"layers": p["layers"], "layer_speed": p["layer_speed"]} for p in doc["passes"]
        ]
    if not failures:
        shutil.rmtree(work / "out", ignore_errors=True)
        shutil.rmtree(work / "inputs", ignore_errors=True)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{name}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    # Every run, as it comes, also goes on one line of runs.jsonl.
    summary = {k: result[k] for k in ("workload", "seed", "seconds", "trace", "tiny", "passes",
                                      "attempted", "failed", "metrics", "machine")}
    with open(results / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(summary, sort_keys=True) + "\n")
    result["path"] = str(path)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one nld benchmark workload.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except RunError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    units = result["units"]
    print(f"workload {result['workload']}, seed {result['seed']}: {result['passes']} passes, "
          f"{result['attempted']} ops, {result['failed']} failed")
    for failure in result["failures"][:10]:
        print(f"  FAILED {failure}")
    for name, value in metrics.items():
        alias = result["kind_names"].get(name.split("_ops_s")[0]) if name.endswith("_ops_s") else None
        print(f"  {name:24} {value:14.6f} {units[name]}" + (f"  ({alias})" if alias else ""))
    for metric, reason in (result.get("missing_metrics") or {}).items():
        print(f"  {metric} MISSING: {reason}")
    print(f"  waiting: {result['waiting']}")
    print(f"full result: {result['path']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
