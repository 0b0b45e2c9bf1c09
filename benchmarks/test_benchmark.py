"""Tests of the benchmark itself, at tiny sizes.

    python -m pytest benchmarks
"""

from __future__ import annotations

import csv
import json
import re
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SCRATCH = ROOT / ".bench_work" / "tests"


def bench(workload: str, trace: int):
    """Run the command at tiny sizes; return its last line and full result."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    full = json.loads(
        (ROOT / ".bench_work" / "results" / f"{workload}-seed0-trace{trace}-tiny.json").read_text()
    )
    return line, full


@pytest.fixture(scope="module")
def traced():
    return {w: bench(w, 1) for w in workloads.WORKLOADS}


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run(workload):
    line, full = bench(workload, 0)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1, full["failures"]
    assert set(line["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert len(full["setup_samples_s"]) == run.SETUP_PROBES + 1
    machine = full["machine"]
    for key in ("nproc", "cpu_model", "python", "numpy", "blas", "blas_threads",
                "git_commit", "source_sha256"):
        assert key in machine


def test_traced_runs_hit_every_target(traced):
    hit = set()
    for workload, (line, full) in traced.items():
        assert line["correct"] and line["failed"] == 0, full["failures"]
        assert set(line["metrics"]) == set(run.PER_LAYER)
        assert full["missing_targets"] == {}
        targets = {f"{layer}.{attr}" for layer, attrs in tracing.TARGETS.items() for attr in attrs}
        hit |= targets - set(full["targets_not_hit"])
    assert hit == targets


def _spans(full):
    with open(ROOT / full["spans"], newline="") as fh:
        return [
            (int(r["index"]), int(r["parent"]), r["op"], r["name"], float(r["start"]), float(r["end"]))
            for r in csv.DictReader(fh)
        ]


def test_spans_nest_and_self_times_add_up(traced):
    for workload, (_line, full) in traced.items():
        spans = _spans(full)
        by_index = {s[0]: s for s in spans}
        child = defaultdict(float)
        for index, parent, op, name, start, end in spans:
            assert start <= end
            if parent >= 0:
                p = by_index[parent]
                assert p[4] <= start and end <= p[5] and p[2] == op, (workload, name, p[3])
                child[parent] += end - start
            else:
                assert name == "cli.main"
        self_time = defaultdict(float)
        root = defaultdict(float)
        for index, parent, op, name, start, end in spans:
            self_time[op] += (end - start) - child[index]
            if parent < 0:
                root[op] += end - start
        assert root and set(self_time) == set(root)
        for op, duration in root.items():
            assert self_time[op] == pytest.approx(duration, rel=1e-9, abs=1e-12), (workload, op)


def test_layer_busy_times_add_up_to_traced_latency(traced):
    for workload, (_line, full) in traced.items():
        spans = _spans(full)
        roots = sum(end - start for _i, parent, _o, _n, start, end in spans if parent < 0)
        # Layer times are in reference seconds; the spans in measured ones.
        busy = sum(
            p["layers"][f"{layer}.busy_s"] / p["layer_speed"]
            for p in full["layers_per_pass"] for layer in tracing.LAYERS
        )
        assert busy == pytest.approx(roots, rel=1e-9)


def test_layer_counts(traced):
    theory = [p["layers"] for p in traced["theory"][1]["layers_per_pass"]]
    ops = workloads.batch("theory", 0, 0, tiny=True)
    verify = sum(op["command"] == "verify-theory" for op in ops)
    spectra = sum(op["command"] == "spectrum" for op in ops)
    assert all(p["spectrum.eig_calls"] == 3 * verify + spectra for p in theory)
    assert all(p["kernels.builds"] == verify for p in theory)
    evolve = [p["layers"] for p in traced["evolve"][1]["layers_per_pass"]]
    assert all(p["spectrum.eig_calls"] == 0 for p in evolve)
    steps = sum(op["config"]["steps"] for op in workloads.batch("evolve", 0, 0, tiny=True))
    assert all(p["dynamics.steps"] == steps for p in evolve)
    train = [p["layers"] for p in traced["train"][1]["layers_per_pass"]]
    assert all(p["net.batches"] > 0 and p["net.samples"] > 0 for p in train)
    # The tiny original train op diverges by design.
    assert all(p["net.divergences"] >= 1 and p["net.errors"] >= 1 for p in train)


def _tree(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _without_wall_time(blob: bytes) -> bytes:
    return re.sub(rb'"wall_time_seconds": [^,\n]+', b'"wall_time_seconds": null', blob)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs_and_artifacts(workload):
    from nld import cli

    inputs = []
    for _ in range(2):
        shutil.rmtree(SCRATCH, ignore_errors=True)
        passes = workloads.write_plan(workload, 7, SCRATCH / "plan", tiny=True)
        inputs.append(_tree(SCRATCH / "plan" / "inputs"))
    assert inputs[0] == inputs[1]

    # The same op list twice into the same directory, so the config echo in
    # report.json names the same out_dir.
    out = SCRATCH / "out"
    runs = []
    for _ in range(2):
        records = worker.run_pass(cli, passes[0], out)
        assert not [r["failure"] for r in records if r["failure"]]
        runs.append(_tree(out))
        shutil.rmtree(out)
    first, second = runs
    assert first.keys() == second.keys() and first
    for name in first:
        a, b = first[name], second[name]
        if name.endswith("report.json"):
            a, b = _without_wall_time(a), _without_wall_time(b)
        assert a == b, name
    shutil.rmtree(SCRATCH)
