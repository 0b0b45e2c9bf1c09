"""End-to-end tests for the nld command line interface.

Each runner is invoked through main() with a JSON config written to a
temp directory, and assertions are made against the exit code, the
rendered report.json, and the artifact files themselves.
"""

import json
import math
import shutil
import subprocess

import jsonschema
import numpy as np
import pytest

from nld import net
from nld.cli import (
    CONFIG_DEFAULTS,
    RUN_REPORT_SCHEMA,
    CheckResult,
    ConfigError,
    RunReport,
    main,
    resolve_config,
)
from nld.fields import save_matrix_csv

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
    config = resolve_config("verify-theory", {})
    assert config["seed"] == 0
    assert config["num_positions"] == 16
    assert config["steps"] == 120
    assert config["weight"] == 0.5
    assert config["out_dir"] == "nld-out"


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="config rejected"):
        resolve_config("verify-theory", {"bogus": 1})


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
    assert check["detail"] == "blow-up at step 5"
    assert check["measured"] == math.inf
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert len(lines) == 6  # header plus the 5 finite states


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


# ---------------------------------------------------------------------------
# compare.
# ---------------------------------------------------------------------------


def test_compare_duplicate_variants_give_identical_rows(tmp_path):
    code, out = run_cli(
        tmp_path,
        "compare",
        {
            "task": TINY_TASK,
            "net": {"trunk_blocks": 2, "hidden_channels": 3},
            "variants": [
                {"formulation": "proposed", "sub_blocks": 2},
                {"formulation": "proposed", "sub_blocks": 2},
            ],
            "hyper": TINY_HYPER,
        },
    )
    assert code == 0
    report = read_report(out)
    assert not any(c["name"].startswith("ordering") for c in report["checks"])
    lines = (out / "comparison.csv").read_text().splitlines()
    assert lines[0] == "formulation,sub_blocks,final_train_loss,final_val_acc,diverged"
    assert len(lines) == 3
    assert lines[1] == lines[2]
    assert "history_proposed_N2.csv" in report["artifacts"]


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


def test_compare_parallel_matches_sequential(tmp_path):
    base = {
        "task": TINY_TASK,
        "net": {"trunk_blocks": 2, "hidden_channels": 3},
        "variants": [
            {"formulation": "proposed", "sub_blocks": 1},
            {"formulation": "proposed", "sub_blocks": 2},
        ],
        "hyper": TINY_HYPER,
    }
    _, out_seq = run_cli(tmp_path, "compare", {**base, "parallel": False}, tag="seq")
    _, out_par = run_cli(tmp_path, "compare", {**base, "parallel": True}, tag="par")
    for name in ("comparison.csv", "history_proposed_N1.csv", "history_proposed_N2.csv"):
        assert (out_seq / name).read_bytes() == (out_par / name).read_bytes()


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
