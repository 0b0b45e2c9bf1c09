"""End-to-end tests for the nld command line interface.

Each runner is invoked through main() with a JSON config written to a
temp directory, and assertions are made against the exit code, the
rendered report.json, and the artifact files themselves.
"""

import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from nld import dynamics, net, spectrum
from nld.cli import (
    CONFIG_DEFAULTS,
    CONFIG_SCHEMAS,
    RUN_REPORT_SCHEMA,
    CheckResult,
    ConfigError,
    RunReport,
    main,
    resolve_config,
)

from conftest import save_matrix_csv


def _benchmark_workloads():
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The benchmark's verify-theory checks; it holds every one of them as hard.
VERIFY_THEORY_CHECKS = _benchmark_workloads().VERIFY_THEORY_CHECKS

# Bandwidth making the rbf kernel on positions (1, -1) row-normalize to
# [[0.9, 0.1], [0.1, 0.9]]: exp(-4 / (2 h^2)) = 1/9.
TWO_STATE_BANDWIDTH = math.sqrt(2.0 / math.log(9.0))

TINY_TASK = {"num_positions": 5, "num_channels": 2, "num_classes": 2, "num_samples": 24}
TINY_NET = {
    "trunk_blocks": 2,
    "hidden_channels": 3,
    "stage": {
        "formulation": "proposed",
        "sub_blocks": 2,
        "placement": 1,
        "kernel": {"variant": "gaussian"},
    },
}
TINY_HYPER = {"epochs": 3, "batch_size": 8}

# What `{}` resolves to for each command (spectrum needs its input_path).
HYPER_DEFAULTS = {
    "lr": 0.1,
    "momentum": 0.9,
    "weight_decay": 1e-4,
    "epochs": 200,
    "lr_drop_fracs": [81.0 / 164.0, 122.0 / 164.0],
    "lr_drop_factor": 0.1,
    "batch_size": 32,
    "val_fraction": 0.25,
}
TASK_DEFAULTS = {"num_positions": 10, "num_channels": 5, "num_classes": 2, "num_samples": 512}
RESOLVED_DEFAULTS = {
    "verify-theory": {
        "seed": 0,
        "out_dir": "nld-out",
        "num_positions": 16,
        "num_channels": 2,
        "steps": 120,
        "weight": 0.5,
        "bandwidth": None,
        "sinkhorn_tol": 1e-13,
    },
    "evolve": {
        "seed": 0,
        "out_dir": "nld-out",
        "stepper": "markov",
        "num_positions": 8,
        "num_channels": 1,
        "steps": 50,
        "weight": 1.0,
        "kernel": {"variant": "rbf", "bandwidth": None},
        "normalization": "sinkhorn",
        "initial": {"kind": "normal", "scale": 1.0},
    },
    "spectrum": {
        "seed": 0,
        "out_dir": "nld-out",
        "input_path": "m.csv",
        "input_kind": "matrix_csv",
        "sidecar_path": None,
        "top_k": 32,
    },
    "train": {
        "seed": 0,
        "out_dir": "nld-out",
        "task": TASK_DEFAULTS,
        "net": {
            "trunk_blocks": 3,
            "hidden_channels": 32,
            "block_gain": 1.0,
            "stage": {
                "formulation": "proposed",
                "sub_blocks": 4,
                "placement": 1,
                "kernel": {"variant": "gaussian"},
            },
        },
        "hyper": HYPER_DEFAULTS,
    },
    "compare": {
        "seed": 0,
        "out_dir": "nld-out",
        "task": TASK_DEFAULTS,
        "net": {
            "trunk_blocks": 3,
            "hidden_channels": 32,
            "block_gain": 1.0,
            "placement": 1,
            "kernel": {"variant": "gaussian"},
        },
        "variants": [
            {"formulation": "proposed", "sub_blocks": 1},
            {"formulation": "proposed", "sub_blocks": 2},
            {"formulation": "proposed", "sub_blocks": 4},
            {"formulation": "proposed", "sub_blocks": 8},
            {"formulation": "original", "sub_blocks": 4},
        ],
        "hyper": HYPER_DEFAULTS,
    },
}


def run_cli(tmp_path, command, config, tag="run"):
    cfg_path = tmp_path / f"{tag}.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = tmp_path / f"out-{tag}"
    code = main([command, "--config", str(cfg_path), "--out", str(out_dir)])
    return code, out_dir


def read_report(out_dir):
    doc = json.loads((out_dir / "report.json").read_text())
    jsonschema.validate(doc, RUN_REPORT_SCHEMA)
    return doc


def check_by_name(report, name):
    found = [c for c in report["checks"] if c["name"] == name]
    assert len(found) == 1, f"expected exactly one check named {name!r}"
    return found[0]


def csv_columns(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


# ---------------------------------------------------------------------------
# Config resolution.
# ---------------------------------------------------------------------------


def test_empty_config_takes_defaults(monkeypatch):
    monkeypatch.delenv("NLD_OUT", raising=False)
    for command, expected in RESOLVED_DEFAULTS.items():
        raw = {"input_path": "m.csv"} if command == "spectrum" else {}
        assert resolve_config(command, raw) == expected, command
        jsonschema.validate({**CONFIG_DEFAULTS[command], **raw}, CONFIG_SCHEMAS[command])


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="config rejected"):
        resolve_config("verify-theory", {"bogus": 1})
    with pytest.raises(ConfigError, match="'parallel' was unexpected"):
        resolve_config("compare", {"parallel": False})
    with pytest.raises(ConfigError, match="'record_states' was unexpected"):
        resolve_config("evolve", {"record_states": True})


def test_unknown_nested_key_rejected():
    with pytest.raises(ConfigError, match="config rejected"):
        resolve_config("train", {"net": {"zap": 1}})


def test_schema_minimum_enforced():
    with pytest.raises(ConfigError):
        resolve_config("verify-theory", {"steps": 2})


def test_wrong_types_rejected():
    with pytest.raises(ConfigError):
        resolve_config("evolve", {"weight": "fast"})
    with pytest.raises(ConfigError):
        resolve_config("compare", {"variants": []})


def test_flag_overrides_beat_config_values():
    config = resolve_config(
        "verify-theory", {"seed": 5, "out_dir": "from-config"}, seed=7, out="from-flag"
    )
    assert config["seed"] == 7
    assert config["out_dir"] == "from-flag"


def test_env_out_dir_used_only_when_unset(monkeypatch):
    monkeypatch.setenv("NLD_OUT", "from-env")
    assert resolve_config("verify-theory", {})["out_dir"] == "from-env"
    assert resolve_config("verify-theory", {"out_dir": "explicit"})["out_dir"] == "explicit"


def test_deep_merge_preserves_sibling_defaults():
    config = resolve_config("train", {"hyper": {"epochs": 3}}, out="x")
    assert config["hyper"]["epochs"] == 3
    assert config["hyper"]["lr"] == 0.1
    assert config["task"]["num_samples"] == 512
    # The shared defaults table must not absorb the override.
    assert CONFIG_DEFAULTS["train"]["hyper"]["epochs"] == 200
    # net.Hyper is where the training defaults live.
    hyper = dataclasses.asdict(net.Hyper())
    hyper["lr_drop_fracs"] = list(hyper["lr_drop_fracs"])
    assert CONFIG_DEFAULTS["train"]["hyper"] == CONFIG_DEFAULTS["compare"]["hyper"] == hyper


def test_resolved_config_round_trips():
    first = resolve_config("train", {"task": TINY_TASK, "hyper": TINY_HYPER}, out="x")
    assert resolve_config("train", first) == first


# ---------------------------------------------------------------------------
# Report plumbing.
# ---------------------------------------------------------------------------


def test_overall_fails_only_on_hard_fail():
    report = RunReport("train", {})
    report.checks.append(CheckResult("a", "pass"))
    report.checks.append(CheckResult("b", "soft"))
    report.checks.append(CheckResult("c", "expected_fail"))
    assert report.overall == "pass"
    report.checks.append(CheckResult("d", "fail"))
    assert report.overall == "fail"


def test_check_measured_coerced_to_plain_float():
    doc = CheckResult("a", "pass", measured=np.float64(3.5), threshold=np.float64(1)).to_dict()
    assert type(doc["measured"]) is float
    assert type(doc["threshold"]) is float
    assert CheckResult("b", "pass", measured="mixed").to_dict()["measured"] == "mixed"


def test_report_schema_rejects_unknown_status():
    report = RunReport("train", {})
    report.checks.append(CheckResult("a", "bogus"))
    with pytest.raises(jsonschema.ValidationError):
        report.to_json_dict()


# ---------------------------------------------------------------------------
# main() plumbing.
# ---------------------------------------------------------------------------


def test_malformed_config_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["evolve", "--config", str(bad)]) == 2
    assert "cannot load config" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path):
    assert main(["evolve", "--config", str(tmp_path / "nope.json")]) == 2


def test_schema_violation_exits_2(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "verify-theory", {"bogus": 1})
    assert code == 2
    assert "config rejected" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("verify-theory", '{"weight": NaN}', "weight is nan"),
        ("verify-theory", '{"bandwidth": Infinity}', "bandwidth is inf"),
        ("evolve", '{"weight": NaN}', "weight is nan"),
        ("evolve", '{"kernel": {"variant": "rbf", "bandwidth": 1e999}}', "kernel.bandwidth is inf"),
        (
            "evolve",
            '{"num_positions": 2, "initial": {"kind": "explicit", "values": [[1.0], [-Infinity]]}}',
            "initial.values[1][0] is -inf",
        ),
    ],
    ids=["theory_nan", "theory_infinity", "evolve_nan", "evolve_overflow", "evolve_nested"],
)
def test_non_finite_config_number_exits_2(tmp_path, capsys, command, text, message):
    cfg = tmp_path / "c.json"
    cfg.write_text(text)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"config rejected: {message}, not a finite number" in err
    assert not (tmp_path / "out").exists()


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit):
        main([])


# ---------------------------------------------------------------------------
# verify-theory.
# ---------------------------------------------------------------------------


def test_verify_theory_stable_weight_all_pass(tmp_path, capsys):
    code, out = run_cli(
        tmp_path,
        "verify-theory",
        {"num_positions": 8, "num_channels": 2, "steps": 40, "weight": 0.5},
    )
    assert code == 0
    report = read_report(out)
    assert report["overall"] == "pass"
    names = [c["name"] for c in report["checks"]]
    assert names == [
        "kernel_flags",
        "constant_annihilation",
        "mean_zero",
        "quadratic_form_nonpositive",
        "energy_identity",
        "cfl_radius",
        "mean_preservation",
        "variance_decay",
        "decay_rate_vs_gap",
        "eigenvector_rate_equality",
        "poincare_positive",
        "poincare_inequality",
    ]
    assert all(c["status"] == "pass" for c in report["checks"])
    assert set(report["artifacts"]) == {"trajectory.csv", "report.json"}
    assert (out / "trajectory.csv").exists()
    assert "OVERALL: PASS" in capsys.readouterr().out


@pytest.mark.parametrize("M", [7, 17, 33])
def test_verify_theory_odd_sizes_pass_every_check(tmp_path, M):
    """Odd M puts a dummy slot in the round-robin eigensolver."""
    code, out = run_cli(tmp_path, "verify-theory", {"num_positions": M})
    assert code == 0
    report = read_report(out)
    assert report["overall"] == "pass"
    for name in VERIFY_THEORY_CHECKS:
        assert check_by_name(report, name)["status"] == "pass", name


def test_verify_theory_decomposes_its_kernel_once(tmp_path, monkeypatch):
    sizes = []
    eig_symmetric = spectrum.eig_symmetric

    def counted(A, *args, **kwargs):
        sizes.append(len(A))
        return eig_symmetric(A, *args, **kwargs)

    monkeypatch.setattr(spectrum, "eig_symmetric", counted)
    code, out = run_cli(tmp_path, "verify-theory", {"num_positions": 12})
    assert code == 0
    assert read_report(out)["overall"] == "pass"
    assert sizes == [12]


def test_verify_theory_unstable_weight_is_expected_fail(tmp_path):
    code, out = run_cli(
        tmp_path,
        "verify-theory",
        {"num_positions": 8, "steps": 20, "weight": 3.0, "bandwidth": 100.0},
    )
    assert code == 0
    report = read_report(out)
    assert report["overall"] == "pass"
    assert check_by_name(report, "cfl_radius")["detail"] == "unstable"
    assert check_by_name(report, "variance_decay")["status"] == "expected_fail"
    # Amplified roundoff may push the mean off by more than the absolute
    # tolerance; outside the stable regime that must not fail the suite.
    assert check_by_name(report, "mean_preservation")["status"] in ("pass", "expected_fail")


@pytest.mark.parametrize("weight, step", [(3.0, 39), (-0.5, 67)])
def test_verify_theory_unstable_weight_blow_up_is_expected_fail(tmp_path, capsys, weight, step):
    # At the default 120 steps an unstable weight passes the blow-up guard:
    # the run reports it as a negative control on the states before it.
    code, out = run_cli(tmp_path, "verify-theory", {"weight": weight})
    assert code == 0
    report = read_report(out)
    assert report["overall"] == "pass"
    assert check_by_name(report, "cfl_radius")["detail"] == "unstable"
    check = check_by_name(report, "finite_trajectory")
    assert (check["status"], check["detail"]) == ("expected_fail", f"blow-up at step {step}")
    assert check["measured"] > check["threshold"] == 1e12
    for name in ("mean_preservation", "variance_decay"):
        assert check_by_name(report, name)["status"] == "expected_fail", name
    assert set(report["artifacts"]) == {"trajectory.csv", "report.json"}
    assert len((out / "trajectory.csv").read_text().splitlines()) == step + 1
    assert "[EXPECTED_FAIL] finite_trajectory" in capsys.readouterr().out


_FLAGS_DETAIL = '{"doubly_stochastic": true, "nonnegative": true, "row_stochastic": true, "symmetric": true}'
_NO_PREDICTION = "contraction spectrum not positive; no exponential prediction"

# Every check of three verify-theory runs, as (name, status, measured,
# threshold, detail): a stable weight, an unstable one (the expected_fail
# path) and a negative one (no exponential prediction, so a soft decay check).
PINNED_VERIFY_THEORY = {
    "default": (
        {},
        [
            ("kernel_flags", "pass", None, None, _FLAGS_DETAIL),
            ("constant_annihilation", "pass", 7.771561172376096e-16, 1e-12, None),
            ("mean_zero", "pass", 2.220446049250313e-16, 1e-10, None),
            ("quadratic_form_nonpositive", "pass", -29.36959336417932, 1e-12, None),
            ("energy_identity", "pass", 2.220446049250313e-16, 1e-10, None),
            ("cfl_radius", "pass", 0.9999999999999998, None, "stable"),
            ("mean_preservation", "pass", 1.942890293094024e-16, 1e-10, None),
            ("variance_decay", "pass", 2.28704180895987e-34, 1e-12, None),
            ("decay_rate_vs_gap", "pass", 0.35992027527927123, 0.3496004652239355, "r_squared 0.998277"),
            ("eigenvector_rate_equality", "pass", 0.34960046522393495, 0.3496004652239355, None),
            ("poincare_positive", "pass", 0.590060613263372, 0.0, None),
            ("poincare_inequality", "pass", 58.739186728358646, 36.72700034660673, None),
        ],
    ),
    "unstable_weight": (
        {"num_positions": 8, "steps": 20, "weight": 3.0, "bandwidth": 100.0},
        [
            ("kernel_flags", "pass", None, None, _FLAGS_DETAIL),
            ("constant_annihilation", "pass", 6.661338147750939e-16, 1e-12, None),
            ("mean_zero", "pass", 1.887379141862766e-15, 1e-10, None),
            ("quadratic_form_nonpositive", "pass", -13.303395221065717, 1e-12, None),
            ("energy_identity", "pass", 2.220446049250313e-16, 1e-10, None),
            ("cfl_radius", "pass", 1.9999999999999698, None, "unstable"),
            ("mean_preservation", "expected_fail", 2.8727431544695037e-10, 1e-10, None),
            ("variance_decay", "expected_fail", 1369057832046.2295, 1e-12, "first increase at step 0"),
            ("decay_rate_vs_gap", "soft", None, None, _NO_PREDICTION),
            ("poincare_positive", "pass", 0.9999076243878189, 0.0, None),
            ("poincare_inequality", "pass", 26.606790442131427, 26.605060248528893, None),
        ],
    ),
    "negative_weight": (
        {"num_positions": 8, "steps": 20, "weight": -0.5},
        [
            ("kernel_flags", "pass", None, None, _FLAGS_DETAIL),
            ("constant_annihilation", "pass", 4.440892098500626e-16, 1e-12, None),
            ("mean_zero", "pass", 1.2212453270876722e-15, 1e-10, None),
            ("quadratic_form_nonpositive", "pass", -11.542192638261461, 1e-12, None),
            ("energy_identity", "pass", 2.220446049250313e-16, 1e-10, None),
            ("cfl_radius", "pass", 1.4998884002100825, None, "unstable"),
            ("mean_preservation", "pass", 5.561107130347409e-13, 1e-10, None),
            ("variance_decay", "expected_fail", 5274260.035370292, 1e-12, "first increase at step 0"),
            ("decay_rate_vs_gap", "soft", None, None, _NO_PREDICTION),
            ("poincare_positive", "pass", 0.6638608577060999, 0.0, None),
            ("poincare_inequality", "pass", 23.084385276522923, 17.663689810070437, None),
        ],
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED_VERIFY_THEORY))
def test_verify_theory_checks_are_pinned(tmp_path, case):
    config, expected = PINNED_VERIFY_THEORY[case]
    code, out = run_cli(tmp_path, "verify-theory", config)
    assert code == 0
    checks = read_report(out)["checks"]
    got = [(c["name"], c["status"], c["detail"]) for c in checks]
    assert got == [(name, status, detail) for name, status, _m, _t, detail in expected]
    for check, (name, _s, measured, threshold, _d) in zip(checks, expected):
        for key, value in (("measured", measured), ("threshold", threshold)):
            if value is None:
                assert check[key] is None, (name, key)
            else:
                assert check[key] == pytest.approx(value, rel=1e-12, abs=1e-14), (name, key)


def test_verify_theory_decay_too_fast_to_fit_is_soft(tmp_path):
    """A weight near 1 on a near-constant kernel reaches roundoff in two steps."""
    code, out = run_cli(
        tmp_path,
        "verify-theory",
        {"num_positions": 8, "steps": 20, "weight": 0.9999999, "bandwidth": 1e6},
    )
    assert code == 0
    report = read_report(out)
    assert report["overall"] == "pass"
    for name in ("decay_rate_vs_gap", "eigenvector_rate_equality"):
        check = check_by_name(report, name)
        assert check["status"] == "soft"
        assert check["detail"] == "decay fit needs at least 3 points above 1e-12, found 2"


# ---------------------------------------------------------------------------
# evolve.
# ---------------------------------------------------------------------------


def test_evolve_zero_weight_is_flat(tmp_path):
    code, out = run_cli(
        tmp_path,
        "evolve",
        {
            "stepper": "proposed",
            "num_positions": 3,
            "num_channels": 1,
            "steps": 5,
            "weight": 0.0,
            "kernel": {"variant": "rbf", "bandwidth": 1.0},
            "initial": {"kind": "explicit", "values": [[1.0], [2.0], [3.0]]},
        },
    )
    assert code == 0
    report = read_report(out)
    l2 = [float(x) for x in csv_columns(out / "trajectory.csv")["l2"]]
    assert len(l2) == 6
    assert all(x == l2[0] for x in l2)
    assert check_by_name(report, "finite_trajectory")["measured"] == l2[-1]


def test_evolve_two_state_markov_decays_geometrically(tmp_path):
    steps = 20
    code, out = run_cli(
        tmp_path,
        "evolve",
        {
            "stepper": "markov",
            "num_positions": 2,
            "num_channels": 1,
            "steps": steps,
            "kernel": {"variant": "rbf", "bandwidth": TWO_STATE_BANDWIDTH},
            "normalization": "row",
            "initial": {"kind": "explicit", "values": [[1.0], [-1.0]]},
        },
    )
    assert code == 0
    cols = csv_columns(out / "trajectory.csv")
    for n, (l2, var) in enumerate(zip(cols["l2"], cols["variance"])):
        assert float(l2) == pytest.approx(math.sqrt(2.0) * 0.8**n, rel=1e-10)
        assert float(var) == pytest.approx(0.8 ** (2 * n), rel=1e-10)


def test_evolve_original_negative_weight_damps(tmp_path):
    code, out = run_cli(
        tmp_path,
        "evolve",
        {
            "stepper": "original",
            "num_positions": 1,
            "num_channels": 1,
            "steps": 20,
            "weight": -0.5,
            "kernel": {"variant": "gaussian"},
            "initial": {"kind": "explicit", "values": [[2.0]]},
        },
    )
    assert code == 0
    report = read_report(out)
    # One position: the normalized kernel is [[1]], so each step halves Z.
    assert check_by_name(report, "finite_trajectory")["measured"] == 2.0 * 0.5**20
    assert float(csv_columns(out / "trajectory.csv")["l2"][-1]) == 2.0 * 0.5**20


def test_evolve_blowup_fails_with_partial_trajectory(tmp_path, capsys):
    code, out = run_cli(
        tmp_path,
        "evolve",
        {
            "stepper": "proposed",
            "num_positions": 2,
            "num_channels": 1,
            "steps": 50,
            "weight": 25.0,
            "kernel": {"variant": "rbf", "bandwidth": TWO_STATE_BANDWIDTH},
            "normalization": "row",
            "initial": {"kind": "explicit", "values": [[1.0], [-1.0]]},
        },
    )
    assert code == 1
    report = read_report(out)
    assert report["overall"] == "fail"
    check = check_by_name(report, "finite_trajectory")
    assert check["status"] == "fail"
    # Amplification factor is 1 + 25 * (0.8 - 1) = -4, so |Z| = 4^n crosses
    # the 1e12 guard at step 20.
    assert check["detail"] == "blow-up at step 20"
    assert check["measured"] == pytest.approx(4.0**20, rel=1e-12)
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert len(lines) == 21  # header plus the 20 finite states
    assert "OVERALL: FAIL" in capsys.readouterr().out


def test_evolve_original_kernel_overflow_is_a_named_blowup(tmp_path, capsys):
    # Z <- Z + 2 P Z triples the state each step; by step 5 the gaussian
    # affinity exp(x . x) overflows while the state is still far below
    # the blow-up guard, so the kernel build is what fails.
    code, out = run_cli(
        tmp_path,
        "evolve",
        {
            "stepper": "original",
            "num_positions": 2,
            "num_channels": 1,
            "steps": 50,
            "weight": 2.0,
            "kernel": {"variant": "gaussian"},
            "initial": {"kind": "explicit", "values": [[1.0], [0.5]]},
        },
    )
    assert code == 1
    check = check_by_name(read_report(out), "finite_trajectory")
    assert check["status"] == "fail"
    assert check["detail"] == "blow-up at step 5: affinity overflowed at pair (0, 0)"
    assert check["measured"] == math.inf
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert len(lines) == 6  # header plus the 5 finite states


def test_evolve_degenerate_row_fails_with_partial_trajectory(tmp_path, capsys):
    # Every gaussian affinity is finite (exp(709) is below the float64
    # maximum), but rows 0-2 sum three of the largest to inf: the first
    # step cannot normalize its kernel.
    z = math.sqrt(709.0)
    code, out = run_cli(
        tmp_path,
        "evolve",
        {
            "stepper": "original",
            "kernel": {"variant": "gaussian"},
            "num_positions": 4,
            "num_channels": 1,
            "initial": {"kind": "explicit", "values": [[z], [z], [z], [0.0]]},
        },
    )
    assert code == 1
    check = check_by_name(read_report(out), "finite_trajectory")
    assert check["status"] == "fail"
    assert check["detail"] == "blow-up at step 1: row 0 has degenerate sum inf; cannot normalize"
    assert check["measured"] == math.inf
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert len(lines) == 2  # header plus the initial state


@pytest.mark.parametrize("seed, step", [(0, 1362), (4, 1442)])
def test_evolve_collapsed_median_bandwidth_fails_with_partial_trajectory(tmp_path, seed, step):
    # The original stepper with a negative weight shrinks the state toward
    # 0 until 2 h^2 of its median bandwidth h is no longer a normal float.
    config = {"stepper": "original", "kernel": {"variant": "rbf"}, "weight": -0.5, "steps": 2000, "seed": seed}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out = run_cli(tmp_path, "evolve", config)
    assert code == 1
    check = check_by_name(read_report(out), "finite_trajectory")
    assert check["status"] == "fail"
    # The check names the collapse and measures the last, finite l2.
    last_l2 = float(csv_columns(out / "trajectory.csv")["l2"][-1])
    assert 0.0 < last_l2 < 1e-150
    assert check["measured"] == last_l2
    assert check["detail"].startswith(f"median bandwidth collapsed at step {step}: median pairwise distance ")
    assert check["detail"].endswith(" must be normal")
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert len(lines) == step + 1  # header plus the states before the failed step


def test_evolve_overflowed_median_bandwidth_is_a_blow_up(tmp_path):
    # An initial state this far past the blow-up guard has a median
    # pairwise distance whose 2 h^2 overflows: not a collapse.
    config = {
        "stepper": "original",
        "kernel": {"variant": "rbf"},
        "num_positions": 2,
        "initial": {"kind": "explicit", "values": [[1e200], [-1e200]]},
    }
    code, out = run_cli(tmp_path, "evolve", config)
    assert code == 1
    check = check_by_name(read_report(out), "finite_trajectory")
    assert check["status"] == "fail" and check["measured"] == math.inf
    assert check["detail"].startswith("blow-up at step 1: median pairwise distance inf ")


@pytest.mark.parametrize(
    "config, digest",
    [
        ({"stepper": "proposed", "weight": 0.5, "normalization": "sinkhorn", "seed": 7},
         "fe1f08f1840e0571b39603cc73ddbe229f811744d04ec09fe2472436a8e4022c"),
        ({"stepper": "markov", "normalization": "row", "seed": 8},
         "1e08b0671e154414e6c86123ac4c478c6728d903de5bf78ae59de5f3083c3a18"),
    ],
    ids=["proposed_sinkhorn", "markov_row"],
)
def test_evolve_trajectory_bytes_are_pinned_at_the_benchmark_shape(tmp_path, config, digest):
    # The fixed-kernel ops of the evolve benchmark: M = 256, d = 4, 4000 steps.
    code, out = run_cli(tmp_path, "evolve", {**config, "num_positions": 256, "num_channels": 4, "steps": 4000})
    assert code == 0
    assert hashlib.sha256((out / "trajectory.csv").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "config, stepper",
    [
        ({"stepper": "proposed", "weight": 0.5, "normalization": "sinkhorn", "seed": 7}, dynamics.ProposedStepper),
        ({"stepper": "markov", "normalization": "row", "seed": 8}, dynamics.MarkovStepper),
    ],
    ids=["proposed_sinkhorn", "markov_row"],
)
def test_evolve_benchmark_shape_stops_stepping_at_a_repeat(tmp_path, monkeypatch, config, stepper):
    # The runs pinned above reach a repeated state within their first three
    # blocks of 64 states, and are not stepped to step 4000.
    calls = []
    step = stepper.step

    def counted(self, Z, n, total, out):
        calls.append(n)
        return step(self, Z, n, total, out)

    monkeypatch.setattr(stepper, "step", counted)
    code, out = run_cli(tmp_path, "evolve", {**config, "num_positions": 256, "num_channels": 4, "steps": 4000})
    assert code == 0
    assert len((out / "trajectory.csv").read_text().splitlines()) == 4002
    assert 0 < len(calls) <= 3 * 64


def test_evolve_explicit_initial_shape_mismatch_exits_2(tmp_path, capsys):
    code, _ = run_cli(
        tmp_path,
        "evolve",
        {
            "num_positions": 4,
            "initial": {"kind": "explicit", "values": [[1.0], [2.0]]},
        },
    )
    assert code == 2
    assert "does not match" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kernel, message",
    [
        (
            {"variant": "embedded", "theta": [[1.0]], "inner": {"variant": "gaussian", "bogus": 3}},
            "'bogus' was unexpected",
        ),
        ({"variant": "gaussian", "theta": [[1.0]]}, "only apply to the embedded variant"),
        ({"variant": "gaussian", "inner": {"variant": "rbf"}}, "only apply to the embedded variant"),
        ({"variant": "embedded", "theta": [[1.0]]}, "need both theta and an inner spec"),
        (
            {
                "variant": "embedded",
                "theta": [[1.0]],
                "inner": {"variant": "embedded", "theta": [[1.0]], "inner": {"variant": "gaussian"}},
            },
            "do not nest",
        ),
    ],
    ids=["inner_unknown_key", "theta_on_gaussian", "inner_on_gaussian", "no_inner", "nested"],
)
def test_evolve_misplaced_kernel_keys_exit_2(tmp_path, capsys, kernel, message):
    code, _ = run_cli(tmp_path, "evolve", {"kernel": kernel})
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, message",
    [
        ({"kernel": {"variant": "gaussian", "bandwidth": 1.0}}, "bandwidth only applies to the rbf"),
        ({"kernel": {"variant": "dot_product"}}, "config rejected: 'dot_product' is not one of"),
        ({"num_positions": 4, "initial": {"kind": "explicit", "values": [[1.0], [2.0]]}}, "does not match"),
        # Values with a seeded kind would be ignored, not used.
        ({"initial": {"kind": "normal", "values": [[1.0]]}}, "need kind 'explicit', not 'normal'"),
        ({"initial": {"kind": "uniform", "values": [[1.0]]}}, "need kind 'explicit', not 'uniform'"),
    ],
    ids=["kernel_key", "dot_product", "initial_shape", "values_normal", "values_uniform"],
)
def test_evolve_rejected_config_leaves_no_out_dir(tmp_path, capsys, config, message):
    code, out = run_cli(tmp_path, "evolve", config)
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_evolve_embedded_kernel_projects_features(tmp_path):
    # theta keeps the first channel only, so the embedded kernel is the
    # rbf kernel on that channel and the second channel's values are ignored.
    code, out = run_cli(
        tmp_path,
        "evolve",
        {
            "stepper": "markov",
            "num_positions": 2,
            "num_channels": 2,
            "steps": 20,
            "normalization": "row",
            "kernel": {
                "variant": "embedded",
                "theta": [[1.0, 0.0]],
                "inner": {"variant": "rbf", "bandwidth": TWO_STATE_BANDWIDTH},
            },
            "initial": {"kind": "explicit", "values": [[1.0, 5.0], [-1.0, -3.0]]},
        },
    )
    assert code == 0
    report = read_report(out)
    assert report["config"]["kernel"]["inner"] == {"variant": "rbf", "bandwidth": TWO_STATE_BANDWIDTH}
    cols = csv_columns(out / "trajectory.csv")
    # Row-normalized [[0.9, 0.1], [0.1, 0.9]] shrinks each centered channel
    # by 0.8 per step; the channel variances 1 and 16 add up.
    for n, var in enumerate(cols["variance"]):
        assert float(var) == pytest.approx(17.0 * 0.8 ** (2 * n), rel=1e-10)


# ---------------------------------------------------------------------------
# spectrum.
# ---------------------------------------------------------------------------


def test_spectrum_on_matrix_csv(tmp_path, capsys):
    matrix = tmp_path / "matrix.csv"
    matrix.write_text(save_matrix_csv(-np.eye(4)))
    code, out = run_cli(tmp_path, "spectrum", {"input_path": str(matrix)})
    assert code == 0
    report = read_report(out)
    check = check_by_name(report, "classified_matrix")
    assert check["status"] == "pass"
    assert check["measured"] == "damping_dominant"
    doc = json.loads((out / "spectrum.json").read_text())
    assert doc["classification"] == "damping_dominant"
    lines = (out / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "index,value"
    assert [line.split(",")[1] for line in lines[1:]] == ["-1.0"] * 4
    captured = capsys.readouterr().out
    assert "classified_matrix" in captured
    assert "OVERALL: PASS" in captured


def test_spectrum_on_odd_size_matrix_csv(tmp_path):
    X = np.random.default_rng(3).standard_normal((9, 9))
    matrix = tmp_path / "matrix.csv"
    matrix.write_text(save_matrix_csv(X))
    code, out = run_cli(tmp_path, "spectrum", {"input_path": str(matrix)})
    assert code == 0
    report = read_report(out)
    assert check_by_name(report, "classified_matrix")["status"] == "pass"
    lines = (out / "spectrum.csv").read_text().splitlines()
    values = np.array([float(line.split(",")[1]) for line in lines[1:]])
    # numpy's LAPACK eigvalsh is the oracle, on the test side only.
    S = 0.5 * (X + X.T)
    expected = np.linalg.eigvalsh(S)[::-1]
    assert np.max(np.abs(values - expected)) <= 1e-12 * float(np.linalg.norm(S))


def test_spectrum_of_a_matrix_at_1e200(tmp_path):
    # Its Frobenius norm overflows float64; the eigenvalues are +-1e200.
    matrix = tmp_path / "matrix.csv"
    matrix.write_text(save_matrix_csv(np.array([[0.0, 1e200], [1e200, 0.0]])))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out = run_cli(tmp_path, "spectrum", {"input_path": str(matrix)})
    assert code == 0
    check = check_by_name(read_report(out), "classified_matrix")
    assert (check["measured"], check["detail"]) == ("mixed", "pos 1 / neg 1")
    lines = (out / "spectrum.csv").read_text().splitlines()
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values == [pytest.approx(1e200, rel=1e-15), pytest.approx(-1e200, rel=1e-15)]


def test_spectrum_rejects_non_square_matrix(tmp_path):
    matrix = tmp_path / "matrix.csv"
    matrix.write_text(save_matrix_csv(np.ones((2, 3))))
    code, out = run_cli(tmp_path, "spectrum", {"input_path": str(matrix)})
    assert code == 1
    report = read_report(out)
    check = check_by_name(report, "input_readable")
    assert check["status"] == "fail"
    assert "2 rows x 3 cols" in check["detail"]
    assert report["artifacts"] == ["report.json"]


def test_spectrum_reads_training_checkpoint(tmp_path):
    train_code, train_out = run_cli(
        tmp_path,
        "train",
        {"task": TINY_TASK, "net": TINY_NET, "hyper": TINY_HYPER},
        tag="train",
    )
    assert train_code == 0
    code, out = run_cli(
        tmp_path,
        "spectrum",
        {"input_path": str(train_out / "checkpoint.bin"), "input_kind": "checkpoint"},
        tag="spectrum",
    )
    assert code == 0
    report = read_report(out)
    assert check_by_name(report, "input_readable")["detail"] == "2 matrix(es)"
    for name in ("stage0.W0", "stage0.W1"):
        assert check_by_name(report, f"classified_{name}")["status"] == "pass"
        assert (out / f"spectrum_{name}.json").exists()
        assert (out / f"spectrum_{name}.csv").exists()


@pytest.mark.parametrize(
    "sidecar, message",
    [
        ([1, 2], "not a JSON object"),
        ({"dtype": "float64", "byte_order": "little"}, "no tensors list"),
        ({"dtype": "float64", "byte_order": "little", "tensors": [{"shape": [1]}]}, "needs a name"),
        ({"dtype": "float64", "byte_order": "little", "tensors": [{"name": "a"}]}, "a shape list"),
        (
            {"dtype": "float64", "byte_order": "little", "tensors": [{"name": "a", "shape": [None]}]},
            "a shape list of integers",
        ),
        (
            {"dtype": "float64", "byte_order": "little", "tensors": [{"name": "a", "shape": [-1, -1]}]},
            "negative dimension",
        ),
    ],
    ids=["list", "no_tensors", "no_name", "no_shape", "null_dim", "negative_dims"],
)
def test_spectrum_malformed_sidecar_is_unreadable_input(tmp_path, sidecar, message):
    (tmp_path / "ck.bin").write_bytes(b"\x00" * 8)
    (tmp_path / "ck.json").write_text(json.dumps(sidecar))
    code, out = run_cli(
        tmp_path,
        "spectrum",
        {"input_path": str(tmp_path / "ck.bin"), "input_kind": "checkpoint"},
    )
    assert code == 1
    check = check_by_name(read_report(out), "input_readable")
    assert check["status"] == "fail"
    assert message in check["detail"]


def test_spectrum_checkpoint_without_stage_tensors_fails(tmp_path):
    config = net.NetworkConfig(
        num_positions=4, num_channels=2, num_classes=2, trunk_blocks=2, hidden_channels=3
    )
    blob, sidecar = net.checkpoint_bytes(net.init_params(config, seed=0))
    (tmp_path / "plain.bin").write_bytes(blob)
    (tmp_path / "plain.json").write_text(json.dumps(sidecar))
    code, out = run_cli(
        tmp_path,
        "spectrum",
        {"input_path": str(tmp_path / "plain.bin"), "input_kind": "checkpoint"},
    )
    assert code == 1
    check = check_by_name(read_report(out), "input_readable")
    assert "no stage weight tensors" in check["detail"]


def test_spectrum_checkpoint_reports_only_the_stage_weights(tmp_path):
    # A 2x3 stage0.theta (an embedded kernel's projection) is not a sub-block weight.
    tensors = {"stage0.W0": np.diag([1.0, -2.0]), "stage0.theta": np.ones((2, 3)), "stage0.W1": -np.eye(2)}
    blob, sidecar = net.checkpoint_bytes(tensors)
    (tmp_path / "ck.bin").write_bytes(blob)
    (tmp_path / "ck.json").write_text(json.dumps(sidecar))
    code, out = run_cli(tmp_path, "spectrum", {"input_path": str(tmp_path / "ck.bin"), "input_kind": "checkpoint"})
    assert code == 0
    report = read_report(out)
    assert check_by_name(report, "input_readable")["detail"] == "2 matrix(es)"
    assert [c["name"] for c in report["checks"]] == ["input_readable", "classified_stage0.W0", "classified_stage0.W1"]
    assert not (out / "spectrum_stage0.theta.json").exists()


@pytest.mark.parametrize(
    "kind, target, message",
    [
        ("matrix_csv", np.array([[1.0, np.nan], [np.nan, 2.0]]), "matrix has non-finite entries"),
        ("checkpoint", np.ones((2, 3)), "stage0.W0 is 2 rows x 3 cols, not square"),
        ("checkpoint", np.array([[1.0, np.inf], [0.0, 1.0]]), "stage0.W0 has non-finite entries"),
        ("checkpoint", np.zeros((0, 0)), "stage0.W0 has no entries"),
    ],
    ids=["csv_nan", "checkpoint_not_square", "checkpoint_inf", "checkpoint_empty"],
)
def test_spectrum_malformed_matrix_is_unreadable_input(tmp_path, kind, target, message):
    if kind == "matrix_csv":
        path = tmp_path / "matrix.csv"
        path.write_text(save_matrix_csv(target))
    else:
        path = tmp_path / "ck.bin"
        blob, sidecar = net.checkpoint_bytes({"stage0.W0": target})
        path.write_bytes(blob)
        (tmp_path / "ck.json").write_text(json.dumps(sidecar))
    code, out = run_cli(tmp_path, "spectrum", {"input_path": str(path), "input_kind": kind})
    assert code == 1
    report = read_report(out)
    check = check_by_name(report, "input_readable")
    assert check["status"] == "fail"
    assert check["detail"] == message
    assert report["artifacts"] == ["report.json"]


@pytest.mark.parametrize("kind", ["matrix_csv", "checkpoint"])
def test_spectrum_eigenvalue_overflow_fails_its_target(tmp_path, kind):
    # Finite entries, eigenvalues +-sqrt(1.7^2 + 1.6^2) 1e308 beyond float64.
    W = np.array([[1.7e308, 1.6e308], [1.6e308, -1.7e308]])
    if kind == "matrix_csv":
        path, name, others = tmp_path / "matrix.csv", "matrix", []
        path.write_text(save_matrix_csv(W))
    else:
        path, name, others = tmp_path / "ck.bin", "stage0.W0", ["stage0.W1"]
        blob, sidecar = net.checkpoint_bytes({"stage0.W0": W, "stage0.W1": -np.eye(2)})
        path.write_bytes(blob)
        (tmp_path / "ck.json").write_text(json.dumps(sidecar))
    code, out = run_cli(tmp_path, "spectrum", {"input_path": str(path), "input_kind": kind})
    assert code == 1
    report = read_report(out)
    assert check_by_name(report, "input_readable")["status"] == "pass"
    check = check_by_name(report, f"classified_{name}")
    assert check["status"] == "fail"
    assert check["detail"] == "an eigenvalue is beyond the float64 range"
    for other in others:
        assert check_by_name(report, f"classified_{other}")["measured"] == "damping_dominant"
    stems = [f"spectrum_{other}" for other in others]
    assert report["artifacts"] == [f"{stem}.{ext}" for stem in stems for ext in ("json", "csv")] + ["report.json"]


def test_spectrum_decomposes_each_stage_tensor_once_without_vectors(tmp_path, monkeypatch):
    tensors = {"stage0.W0": np.diag([1.0, -2.0, 3.0]), "stage0.W1": -np.eye(3), "stage0.W2": np.ones((3, 3))}
    blob, sidecar = net.checkpoint_bytes(tensors)
    (tmp_path / "ck.bin").write_bytes(blob)
    (tmp_path / "ck.json").write_text(json.dumps(sidecar))
    calls = []
    eig_symmetric = spectrum.eig_symmetric

    def spy(A, *args, **kwargs):
        calls.append((len(A), args, kwargs))
        return eig_symmetric(A, *args, **kwargs)

    monkeypatch.setattr(spectrum, "eig_symmetric", spy)
    code, _ = run_cli(tmp_path, "spectrum", {"input_path": str(tmp_path / "ck.bin"), "input_kind": "checkpoint"})
    assert code == 0
    assert calls == [(3, (), {"vectors": False})] * len(tensors)


# ---------------------------------------------------------------------------
# train.
# ---------------------------------------------------------------------------


def test_train_writes_artifacts_and_checks(tmp_path):
    code, out = run_cli(
        tmp_path, "train", {"task": TINY_TASK, "net": TINY_NET, "hyper": TINY_HYPER}
    )
    assert code == 0
    report = read_report(out)
    assert check_by_name(report, "converged")["status"] == "pass"
    assert check_by_name(report, "final_train_loss")["status"] == "pass"
    assert check_by_name(report, "final_train_acc")["status"] == "pass"
    assert check_by_name(report, "spectra_majority_positive")["status"] == "soft"
    expected = {
        "history.csv",
        "checkpoint.bin",
        "checkpoint.json",
        "spectrum_sub0.json",
        "spectrum_sub1.json",
        "report.json",
    }
    assert set(report["artifacts"]) == expected
    for name in expected:
        assert (out / name).exists()
    lines = (out / "history.csv").read_text().splitlines()
    assert lines[0] == "epoch,train_loss,train_acc,val_loss,val_acc"
    assert len(lines) == 1 + TINY_HYPER["epochs"]


def test_train_extracts_stage_spectra_once(tmp_path, monkeypatch):
    calls = []
    extract = net.extract_stage_spectra

    def counted(history, *args, **kwargs):
        calls.append(history)
        return extract(history, *args, **kwargs)

    monkeypatch.setattr(net, "extract_stage_spectra", counted)
    code, out = run_cli(
        tmp_path, "train", {"task": TINY_TASK, "net": TINY_NET, "hyper": TINY_HYPER}
    )
    assert code == 0
    report = read_report(out)
    assert check_by_name(report, "converged")["status"] == "pass"
    assert check_by_name(report, "spectra_majority_positive")["status"] == "soft"
    assert {"spectrum_sub0.json", "spectrum_sub1.json"} <= set(report["artifacts"])
    assert len(calls) == 1


def test_train_stageless_net_has_no_spectra(tmp_path):
    code, out = run_cli(
        tmp_path,
        "train",
        {"task": TINY_TASK, "net": {**TINY_NET, "stage": None}, "hyper": TINY_HYPER},
    )
    assert code == 0
    report = read_report(out)
    assert [c["name"] for c in report["checks"]] == ["converged", "final_train_loss", "final_train_acc"]
    assert set(report["artifacts"]) == {"history.csv", "checkpoint.bin", "checkpoint.json", "report.json"}


def test_train_zero_lr_history_is_flat(tmp_path):
    code, out = run_cli(
        tmp_path,
        "train",
        {"task": TINY_TASK, "net": TINY_NET, "hyper": {**TINY_HYPER, "lr": 0.0}},
    )
    assert code == 0
    losses = [float(x) for x in csv_columns(out / "history.csv")["train_loss"]]
    assert all(x == pytest.approx(losses[0], rel=1e-12) for x in losses)


def test_train_reruns_are_byte_identical(tmp_path):
    config = {"task": TINY_TASK, "net": TINY_NET, "hyper": TINY_HYPER}
    _, out_a = run_cli(tmp_path, "train", config, tag="a")
    _, out_b = run_cli(tmp_path, "train", config, tag="b")
    for name in ("history.csv", "checkpoint.bin", "checkpoint.json", "spectrum_sub0.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    rep_a, rep_b = read_report(out_a), read_report(out_b)
    for rep in (rep_a, rep_b):
        rep.pop("wall_time_seconds")
        rep["config"].pop("out_dir")
    assert rep_a == rep_b


def test_train_divergence_is_the_converged_detail(tmp_path):
    code, out = run_cli(
        tmp_path,
        "train",
        {"task": TINY_TASK, "net": TINY_NET, "hyper": {**TINY_HYPER, "lr": 1e12}},
    )
    assert code == 0
    converged = check_by_name(read_report(out), "converged")
    assert converged["status"] == "soft"
    assert converged["detail"] == "epoch 0, batch 1: stage affinity overflowed"


def test_train_artifacts_do_not_depend_on_blas_threads(tmp_path):
    # Batches of 512 samples with 128 hidden channels give (B*M)-row GEMMs
    # of 5120 x 5 x 128, which a 2-thread OpenBLAS splits between threads.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "task": {"num_samples": 700},
        "net": {"hidden_channels": 128},
        "hyper": {"epochs": 3, "batch_size": 512},
    }))
    src = str(Path(net.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "nld.cli", "train", "--config", str(cfg), "--out", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    for name in ("checkpoint.bin", "history.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


# ---------------------------------------------------------------------------
# compare.
# ---------------------------------------------------------------------------


def test_compare_duplicate_variants_exit_2(tmp_path, capsys):
    # A repeated variant would train twice and write its history twice.
    code, out = run_cli(
        tmp_path,
        "compare",
        {
            "task": TINY_TASK,
            "net": {"trunk_blocks": 2, "hidden_channels": 3},
            "variants": [
                {"formulation": "proposed", "sub_blocks": 2},
                {"formulation": "original", "sub_blocks": 2},
                {"formulation": "proposed", "sub_blocks": 2},
            ],
            "hyper": TINY_HYPER,
        },
    )
    assert code == 2
    assert "config rejected" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("stepper", ["original", "proposed"])
def test_evolve_embedded_theta_of_another_width_exits_2(tmp_path, capsys, stepper):
    kernel = {"variant": "embedded", "theta": [[1.0, 0.0, 0.0]], "inner": {"variant": "gaussian"}}
    code, out = run_cli(
        tmp_path, "evolve", {"stepper": stepper, "num_positions": 4, "num_channels": 2, "kernel": kernel}
    )
    assert code == 2
    assert "theta maps 3 channels but the field has 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "compare"])
def test_embedded_theta_of_another_width_exits_2(tmp_path, capsys, command):
    kernel = {"variant": "embedded", "theta": [[1.0, 0.0, 0.0]], "inner": {"variant": "gaussian"}}
    if command == "train":
        net_doc = {**TINY_NET, "stage": {**TINY_NET["stage"], "kernel": kernel}}
    else:
        net_doc = {"trunk_blocks": 2, "hidden_channels": 3, "kernel": kernel}
    code, out = run_cli(tmp_path, command, {"task": TINY_TASK, "net": net_doc, "hyper": TINY_HYPER})
    assert code == 2
    assert "theta maps 3 channels but the network has 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "compare"])
@pytest.mark.parametrize(
    "kernel",
    [{"variant": "dot_product"}, {"variant": "embedded", "theta": [[1.0, 0.0]], "inner": {"variant": "dot_product"}}],
    ids=["dot_product", "embedded_dot_product"],
)
def test_dot_product_stage_exits_2(tmp_path, capsys, command, kernel):
    if command == "train":
        net_doc = {**TINY_NET, "stage": {**TINY_NET["stage"], "kernel": kernel}}
    else:
        net_doc = {"trunk_blocks": 2, "hidden_channels": 3, "kernel": kernel}
    code, out = run_cli(tmp_path, command, {"task": TINY_TASK, "net": net_doc, "hyper": TINY_HYPER})
    assert code == 2
    assert "config rejected: 'dot_product' is not one of" in capsys.readouterr().err
    assert not out.exists()


def test_compare_ordering_check_with_divergent_runs(tmp_path):
    code, out = run_cli(
        tmp_path,
        "compare",
        {
            "task": TINY_TASK,
            "net": {"trunk_blocks": 2, "hidden_channels": 3},
            "variants": [
                {"formulation": "proposed", "sub_blocks": 2},
                {"formulation": "original", "sub_blocks": 2},
            ],
            "hyper": {**TINY_HYPER, "lr": 1e12},
        },
    )
    assert code == 0
    report = read_report(out)
    check = check_by_name(report, "ordering_N2")
    assert check["status"] == "pass"
    assert check["threshold"] is None  # infinite baseline carries no threshold
    lines = (out / "comparison.csv").read_text().splitlines()
    for line in lines[1:]:
        _, _, loss, vacc, diverged = line.split(",")
        assert loss == "inf"
        assert vacc == "nan"
        assert diverged == "true"


# ---------------------------------------------------------------------------
# Output directory selection and the installed entry point.
# ---------------------------------------------------------------------------


def test_env_out_dir_honored_by_main(tmp_path, monkeypatch):
    matrix = tmp_path / "matrix.csv"
    matrix.write_text(save_matrix_csv(np.eye(2)))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input_path": str(matrix)}))
    env_dir = tmp_path / "env-out"
    monkeypatch.setenv("NLD_OUT", str(env_dir))
    assert main(["spectrum", "--config", str(cfg)]) == 0
    assert (env_dir / "report.json").exists()
    flag_dir = tmp_path / "flag-out"
    assert main(["spectrum", "--config", str(cfg), "--out", str(flag_dir)]) == 0
    assert (flag_dir / "report.json").exists()


def test_console_script_is_installed(tmp_path):
    exe = shutil.which("nld")
    assert exe is not None
    matrix = tmp_path / "matrix.csv"
    matrix.write_text(save_matrix_csv(np.eye(3)))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input_path": str(matrix)}))
    proc = subprocess.run(
        [exe, "spectrum", "--config", str(cfg), "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "OVERALL: PASS" in proc.stdout
