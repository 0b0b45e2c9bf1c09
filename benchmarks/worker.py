"""One workload run in a fresh process; started by ``run.py``.

The process first imports ``nld.cli`` and prints ``ready``: ``run.py``
times set-up from spawning the process to that line.  With ``--probe`` it
exits there.  Otherwise it reads the plan ``run.py`` wrote, runs the op
batch pass after pass until ``seconds`` are spent (one pass at least, and
no pass is started that the mean pass time says would overrun), checks
every op's outcome and writes a JSON result.

With tracing on, each pass runs twice on the same inputs, untraced and
then traced, so the difference is the tracing overhead.
"""

from __future__ import annotations

import sys

if __name__ == "__main__":
    import nld.cli  # noqa: F401  (the import run.py times as set-up)

    print("ready", flush=True)
    if sys.argv[1:] == ["--probe"]:
        sys.exit(0)

import argparse
import contextlib
import io
import json
import resource
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostspeed  # noqa: E402
import workloads  # noqa: E402


def run_op(cli, op: dict, out_dir: Path) -> dict:
    """Time one ``cli.main`` call, then check what it left in ``out_dir``."""
    argv = op["argv"] + ["--out", str(out_dir)]
    sink = io.StringIO()
    error = None
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(argv)
    except Exception as exc:  # an op that crashes is a failed op, not a failed run
        rc = None
        error = f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    outcome = workloads.check_outcome(rc, out_dir, op["expect"], cli.RUN_REPORT_SCHEMA)
    if outcome["failure"] is not None:
        tail = error or " ".join(sink.getvalue().strip().splitlines()[-1:])
        if tail:
            outcome["failure"] += f" ({tail})"
    return {
        "kind": op["kind"],
        "label": op["label"],
        "latency_s": latency,
        "scaled_s": latency * outcome["scale"],
        "cpu_s": cpu,
        "artifact_bytes": outcome["artifact_bytes"],
        "failure": outcome["failure"],
    }


def run_pass(cli, ops: list, out_root: Path, tracer=None, first_op: int = 0) -> list:
    """Run one batch, calibrating the host's speed before and after each op.

    With a tracer, each op's spans are attributed to its index.
    """
    records = []
    before = hostspeed.calibration_s()
    for k, op in enumerate(ops):
        if tracer is not None:
            tracer.begin(first_op + k)
        record = run_op(cli, op, out_root / op["out"])
        after = hostspeed.calibration_s()
        record["calibration_s"] = (before, after)
        record["reference_s"] = hostspeed.to_reference(record["scaled_s"], before, after)
        records.append(record)
        before = after
    return records


def _sum(records):
    return sum(r["reference_s"] for r in records)


def run(cli, plan: dict, out_root: Path, spans_path: Path) -> dict:
    """Run the plan's passes for its seconds; return the result document."""
    seconds = plan["seconds"]
    tracer = None
    if plan["trace"]:
        import tracing

        tracer = tracing.Tracer()
    passes = []
    started = time.perf_counter()
    while True:
        p = len(passes)
        ops = plan["passes"][p % len(plan["passes"])]
        plain = run_pass(cli, ops, out_root / f"pass{p:03d}")
        entry = {"ops": plain, "reference_s": _sum(plain)}
        if tracer is not None:
            first_span = len(tracer.spans)
            tracer.counts.clear()
            tracer.install()
            try:
                traced = run_pass(cli, ops, out_root / f"pass{p:03d}-traced", tracer,
                                  first_op=p * len(ops))
            finally:
                tracer.uninstall()
            layers = tracer.metrics(first_span)
            layers["cli.cpu_s"] = sum(r["cpu_s"] for r in traced)
            # Layer times in reference seconds, at the pass's mean speed.
            speed = _sum(traced) / sum(r["scaled_s"] for r in traced)
            layers = {k: v * speed if k.endswith("_s") else v for k, v in layers.items()}
            layers["cli.artifact_bytes"] = sum(r["artifact_bytes"] for r in traced)
            layers["trace.overhead_s"] = _sum(traced) - entry["reference_s"]
            entry.update(traced_ops=traced, layers=layers, layer_speed=speed)
        passes.append(entry)
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(passes) > seconds:
            break
    doc = {
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "measured_s": time.perf_counter() - started,
    }
    if tracer is not None:
        seen = {span[2] for span in tracer.spans} | tracer.missing.keys()
        doc["missing_targets"] = tracer.missing
        doc["missing_metrics"] = tracer.missing_metrics()
        doc["targets_not_hit"] = sorted(
            f"{layer}.{attr}" for layer, attrs in tracing.TARGETS.items() for attr in attrs
            if f"{layer}.{attr}" not in seen
        )
        doc["span_count"] = len(tracer.spans)
        tracer.write(spans_path)
        doc["spans"] = str(spans_path)
    return doc


def blas_info() -> dict:
    """BLAS name and version as numpy reports them."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError) as err:
        return {"name": None, "version": None, "error": str(err)}
    return {"name": blas.get("name"), "version": blas.get("version")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--plan", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    import numpy as np
    from nld import cli

    plan = json.loads(Path(args.plan).read_text())
    work = Path(args.plan).parent
    doc = run(cli, plan, work / "out", work / "spans.csv")
    doc["numpy"] = np.__version__
    doc["blas"] = blas_info()
    Path(args.result).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
