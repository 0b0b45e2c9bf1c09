"""Check that two checkouts of nld write byte-identical artifacts.

Usage:
    python scripts/artifact_identity.py PARENT_DIR CHANGE_DIR \
        --workload train --workload evolve --seed 11 --seed 12 --passes 4 \
        [--extra compare path/to/config.json]

The inputs are the benchmark's own: ``benchmarks/workloads.write_plan``
(from this script's checkout) writes every op of passes 0..P-1 of each
(workload, seed), and each ``--extra COMMAND CONFIG`` adds one more op.
The same op list then runs through ``nld.cli.main`` once per checkout, in
a fresh process that imports ``nld`` from that checkout's ``src``.  Every
artifact is compared byte for byte; ``report.json`` is compared after its
``wall_time_seconds`` and its config's ``out_dir`` and ``input_path`` are
dropped.  The script prints how many artifacts it compared, each path
that differs (``DIFFERS:``) and each that exists on one side only
(``ONLY IN PARENT:`` or ``ONLY IN CHANGE:``), and exits 1 on any
difference.
An op's outcome is its exit code, or the type and message of the exception
it raised; an op whose outcome differs between the checkouts is a
difference too.
A differing ``checkpoint.bin`` also gets its largest absolute parameter
difference, a differing CSV its first differing line and column with both
cells, a differing history CSV also the epochs trained and the final
train loss on each side, and a differing ``report.json`` each field of
each check that differs and each other top-level key that differs, with
both values.  It only imports from ``benchmarks/``; it writes
nothing there.
"""

from __future__ import annotations

import argparse
import itertools
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

# Runs in a fresh interpreter: argv is (checkout src dir, ops file).  It
# prints the outcome of each op as a JSON list: its exit code, or
# "<ExceptionType>: <message>" for an op that raised.
_RUNNER = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import nld
if not nld.__file__.startswith(sys.argv[1]):
    sys.exit(f"imported nld from {nld.__file__}, not from {sys.argv[1]}")
from nld.cli import main
outcomes = []
for argv in json.loads(open(sys.argv[2]).read()):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            outcomes.append(main(argv))
        except (Exception, SystemExit) as err:
            outcomes.append(f"{type(err).__name__}: {err}")
print(json.dumps(outcomes))
"""


def plan_ops(workloads: list, seeds: list, passes: int, extras: list, work: Path) -> list:
    """(argv without --out, out subdir) for every op, inputs written under ``work``."""
    sys.path.insert(0, str(ROOT / "benchmarks"))
    import workloads as bench_workloads

    ops = []
    for workload in workloads:
        for seed in seeds:
            plan = bench_workloads.write_plan(workload, seed, work / f"{workload}-{seed}")
            for ops_of_pass in plan[:passes]:
                for op in ops_of_pass:
                    ops.append((op["argv"], f"{workload}-{seed}/{op['out']}"))
    for k, (command, config) in enumerate(extras):
        ops.append(([command, "--config", str(Path(config).resolve())], f"extra{k}-{command}"))
    return ops


def run_ops(checkout: Path, ops: list, out_root: Path, ops_file: Path) -> list:
    argvs = [argv + ["--out", str(out_root / out)] for argv, out in ops]
    ops_file.write_text(json.dumps(argvs))
    src = str((checkout / "src").resolve())
    done = subprocess.run(
        [sys.executable, "-c", _RUNNER, src, str(ops_file)],
        check=True, stdout=subprocess.PIPE, text=True,
    )
    return json.loads(done.stdout)


def _normalized(path: Path) -> bytes:
    blob = path.read_bytes()
    if path.name != "report.json":
        return blob
    doc = json.loads(blob)
    doc.pop("wall_time_seconds", None)
    for key in ("out_dir", "input_path"):
        doc.get("config", {}).pop(key, None)
    return json.dumps(doc, sort_keys=True).encode()


def _files(root: Path) -> set:
    return {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}


def compare_trees(a: Path, b: Path):
    """(number compared, paths that differ, paths only in a, paths only in b)."""
    names_a, names_b = _files(a), _files(b)
    common = sorted(names_a & names_b)
    differ = [n for n in common if _normalized(a / n) != _normalized(b / n)]
    return len(common), differ, sorted(names_a - names_b), sorted(names_b - names_a)


def _history_summary(path: Path) -> str:
    rows = path.read_text().splitlines()[1:]
    final_loss = rows[-1].split(",")[1] if rows else "none"
    return f"{len(rows)} epochs, final train loss {final_loss}"


def _first_csv_difference(a: Path, b: Path) -> str:
    """The first differing cell of two CSV files, by 1-based line and column."""
    rows_a, rows_b = a.read_text().splitlines(), b.read_text().splitlines()
    for line, (row_a, row_b) in enumerate(zip(rows_a, rows_b), start=1):
        if row_a == row_b:
            continue
        cells = itertools.zip_longest(row_a.split(","), row_b.split(","))
        for column, (cell_a, cell_b) in enumerate(cells, start=1):
            if cell_a != cell_b:
                return f"first difference at line {line}, column {column}: parent {cell_a!r}, change {cell_b!r}"
    return f"the common lines are equal; parent {len(rows_a)} lines, change {len(rows_b)} lines"


def _report_differences(a: Path, b: Path) -> str:
    """Each differing check field and top-level key of two report.json files."""
    doc_a, doc_b = (json.loads(_normalized(p)) for p in (a, b))
    checks_a, checks_b = ({c["name"]: c for c in doc.pop("checks", [])} for doc in (doc_a, doc_b))
    found = []
    if [n for n in checks_a if n in checks_b] != [n for n in checks_b if n in checks_a]:
        found.append("checks in a different order")
    for name in list(checks_a) + [n for n in checks_b if n not in checks_a]:
        if name not in checks_a or name not in checks_b:
            found.append(f"check {name} only in the {'parent' if name in checks_a else 'change'}")
            continue
        ca, cb = checks_a[name], checks_b[name]
        for key in sorted(set(ca) | set(cb)):
            if ca.get(key) != cb.get(key):
                found.append(f"check {name} {key}: parent {ca.get(key)!r}, change {cb.get(key)!r}")
    for key in sorted(set(doc_a) | set(doc_b)):
        if doc_a.get(key) != doc_b.get(key):
            found.append(f"{key}: parent {doc_a.get(key)!r}, change {doc_b.get(key)!r}")
    return "; ".join(found)


def movement(a: Path, b: Path) -> str:
    """How far a differing artifact moved, or "" when there is no measure for it."""
    if a.name == "report.json":
        return _report_differences(a, b)
    if a.name == "checkpoint.bin":
        pa, pb = (np.frombuffer(p.read_bytes(), dtype="<f8") for p in (a, b))
        if pa.shape != pb.shape:
            return f"{pa.size} against {pb.size} parameters"
        with np.errstate(invalid="ignore"):
            return f"largest parameter difference {float(np.max(np.abs(pa - pb), initial=0.0))!r}"
    if a.suffix != ".csv":
        return ""
    first = _first_csv_difference(a, b)
    if a.name.startswith("history"):
        return f"{first}; parent {_history_summary(a)}; change {_history_summary(b)}"
    return first


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", default=[],
                        choices=("theory", "evolve", "train"))
    parser.add_argument("--seed", action="append", type=int, default=[])
    parser.add_argument("--passes", type=int, default=4, help="passes 0..P-1 of each plan")
    parser.add_argument("--extra", nargs=2, action="append", default=[],
                        metavar=("COMMAND", "CONFIG"), help="one more op, e.g. compare cfg.json")
    args = parser.parse_args(argv)
    if args.workload and not args.seed:
        parser.error("--workload needs at least one --seed")
    if not args.workload and not args.extra:
        parser.error("nothing to run: give --workload or --extra")

    with tempfile.TemporaryDirectory(prefix="artifact-identity-") as tmp:
        work = Path(tmp)
        ops = plan_ops(args.workload, args.seed, args.passes, args.extra, work / "inputs")
        outcomes = {}
        for side, checkout in (("parent", args.parent), ("change", args.change)):
            outcomes[side] = run_ops(checkout, ops, work / side, work / f"{side}-ops.json")
        compared, differ, only_parent, only_change = compare_trees(work / "parent", work / "change")
        moved = {name: movement(work / "parent" / name, work / "change" / name) for name in differ}

    one_sided = len(only_parent) + len(only_change)
    print(f"{len(ops)} ops, {compared} artifacts compared, {len(differ) + one_sided} differ")
    for name in differ:
        print(f"DIFFERS: {name}" + (f"  ({moved[name]})" if moved[name] else ""))
    for name in only_parent:
        print(f"ONLY IN PARENT: {name}")
    for name in only_change:
        print(f"ONLY IN CHANGE: {name}")
    exit_differ = [
        (out, a, b) for (_, out), a, b in zip(ops, outcomes["parent"], outcomes["change"]) if a != b
    ]
    for out, a, b in exit_differ:
        print(f"EXIT CODE DIFFERS: {out}  (parent {a!r}, change {b!r})")
    failed = sum(1 for c in outcomes["change"] if c != 0)
    if failed:
        print(f"note: {failed} ops exited nonzero or raised on the change side")
    return 1 if differ or one_sided or exit_differ else 0


if __name__ == "__main__":
    sys.exit(main())
