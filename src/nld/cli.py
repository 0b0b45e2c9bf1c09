"""Reproducible experiment runner.

Five subcommands expose the package as seeded, config-driven experiments:

  nld verify-theory   decay/stability checks on a balanced random kernel
  nld evolve          any stepper, trajectory CSV out
  nld spectrum        eigenvalue report of a matrix CSV or checkpoint
  nld train           one network training run with artifacts
  nld compare         formulation sweep with the loss-ordering check

Each run takes one JSON config (schema-validated, unknown keys rejected),
merges it over defaults, and emits artifacts plus a RunReport JSON whose
config echo is sufficient to reproduce the run byte-for-byte; the only
nondeterministic field is the wall time.  A subcommand only adds its
checks and artifacts to the report; one runner makes the output
directory, times the run and writes report.json.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import functools
import json
import os
import sys
import time
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import jsonschema
import numpy as np

from . import dynamics, kernels, net
from .errors import BandwidthError, BlowUpError, InsufficientDataError, NldError, NonFiniteError
from .fields import FeatureField, load_matrix_csv
from .rng import SplitMix64, derive_seed
from .spectrum import DEFAULT_TOP_K, spectrum_report

DEFAULT_OUT = "nld-out"

RUN_REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["command", "config", "checks", "artifacts", "wall_time_seconds", "overall"],
    "additionalProperties": False,
    "properties": {
        "command": {"type": "string"},
        "config": {"type": "object"},
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "status"],
                "additionalProperties": False,
                "properties": {
                    "name": {"type": "string"},
                    "status": {"enum": ["pass", "fail", "soft", "expected_fail"]},
                    "measured": {"type": ["number", "string", "null"]},
                    "threshold": {"type": ["number", "null"]},
                    "detail": {"type": ["string", "null"]},
                },
            },
        },
        "artifacts": {"type": "array", "items": {"type": "string"}},
        "wall_time_seconds": {"type": "number"},
        "overall": {"enum": ["pass", "fail"]},
    },
}


@dataclass
class CheckResult:
    name: str
    status: str
    measured: object = None
    threshold: object = None
    detail: object = None

    def to_dict(self) -> dict:
        measured = self.measured
        if measured is not None and not isinstance(measured, str):
            measured = float(measured)
        return {
            "name": self.name,
            "status": self.status,
            "measured": measured,
            "threshold": None if self.threshold is None else float(self.threshold),
            "detail": self.detail,
        }


@dataclass
class RunReport:
    command: str
    config: dict
    checks: list = dc_field(default_factory=list)
    artifacts: list = dc_field(default_factory=list)
    wall_time_seconds: float = 0.0

    @property
    def overall(self) -> str:
        return "fail" if any(c.status == "fail" for c in self.checks) else "pass"

    def to_json_dict(self) -> dict:
        doc = {
            "command": self.command,
            "config": self.config,
            "checks": [c.to_dict() for c in self.checks],
            "artifacts": list(self.artifacts),
            "wall_time_seconds": float(self.wall_time_seconds),
            "overall": self.overall,
        }
        _validate(doc, "report")
        return doc


def _check(name: str, ok, measured=None, threshold=None, detail=None) -> CheckResult:
    return CheckResult(name, "pass" if ok else "fail", measured, threshold, detail)


def _stable_weight_check(name: str, passed, stable: bool, measured, threshold, detail=None) -> CheckResult:
    """A theorem that assumes a stable weight.

    An unstable run amplifies roundoff past the theorem's absolute
    tolerance, so there a miss is expected rather than a failure.
    """
    status = "pass" if passed else ("fail" if stable else "expected_fail")
    return CheckResult(name, status, measured, threshold, detail)


def _write_text(out_dir: Path, name: str, text: str) -> str:
    return _write_bytes(out_dir, name, text.encode())


def _write_bytes(out_dir: Path, name: str, blob: bytes) -> str:
    # out_dir is made on the first write, so a run that fails first leaves none.
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_bytes(blob)
    return name


def _write_json(out_dir: Path, name: str, doc) -> str:
    return _write_text(out_dir, name, json.dumps(doc, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Config plumbing.
# ---------------------------------------------------------------------------


def _object(properties: dict, **keywords) -> dict:
    """An object schema that rejects unknown keys."""
    return {"type": "object", "additionalProperties": False, "properties": properties, **keywords}


# One kernel schema; its "$id" lets an embedded kernel's inner spec refer back to it.
_KERNEL_SCHEMA = {
    "$id": "urn:nld:kernel",
    **_object(
        {
            "variant": {"enum": ["gaussian", "dot_product", "rbf", "dirac_delta", "embedded"]},
            "bandwidth": {"type": ["number", "null"]},
            "theta": {"type": "array", "items": {"type": "array", "items": {"type": "number"}}},
            "inner": {"$ref": "urn:nld:kernel"},
        },
        required=["variant"],
    ),
}


def _kernel(default: dict) -> dict:
    return {**_KERNEL_SCHEMA, "default": default}


_COMMON_PROPS = {
    "seed": {"type": "integer", "minimum": 0, "default": 0},
    "out_dir": {"type": ["string", "null"], "default": None},
}

_TASK_SCHEMA = _object(
    {
        "num_positions": {"type": "integer", "minimum": 1, "default": 10},
        "num_channels": {"type": "integer", "minimum": 1, "default": 5},
        "num_classes": {"type": "integer", "minimum": 2, "default": 2},
        "num_samples": {"type": "integer", "minimum": 2, "default": 512},
    }
)

_TRUNK_PROPS = {
    "trunk_blocks": {"type": "integer", "minimum": 1, "default": 3},
    "hidden_channels": {"type": "integer", "minimum": 1, "default": 32},
    "block_gain": {"type": "number", "default": net.NetworkConfig.block_gain},
}

# Where the nonlocal stage sits in the trunk and which affinity it uses.
_PLACEMENT_PROPS = {
    "placement": {"type": "integer", "minimum": 0, "default": 1},
    "kernel": _kernel({"variant": "gaussian"}),
}

_FORMULATION = {"enum": ["proposed", "original"]}
_SUB_BLOCKS = {"type": "integer", "minimum": 1}

# net.Hyper holds the training defaults; the schema only echoes them.
_HYPER_SCHEMA = _object(
    {
        "lr": {"type": "number", "minimum": 0},
        "momentum": {"type": "number", "minimum": 0},
        "weight_decay": {"type": "number", "minimum": 0},
        "epochs": {"type": "integer", "minimum": 1},
        "lr_drop_fracs": {"type": "array", "items": {"type": "number"}},
        "lr_drop_factor": {"type": "number", "exclusiveMinimum": 0},
        "batch_size": {"type": "integer", "minimum": 1},
        "val_fraction": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
    },
    default={
        k: list(v) if isinstance(v, tuple) else v for k, v in dataclasses.asdict(net.Hyper()).items()
    },
)


CONFIG_SCHEMAS = {
    "verify-theory": _object(
        {
            **_COMMON_PROPS,
            "num_positions": {"type": "integer", "minimum": 2, "default": 16},
            "num_channels": {"type": "integer", "minimum": 1, "default": 2},
            "steps": {"type": "integer", "minimum": 3, "default": 120},
            "weight": {"type": "number", "default": 0.5},
            "bandwidth": {"type": ["number", "null"], "default": None},
            "sinkhorn_tol": {"type": "number", "exclusiveMinimum": 0, "default": kernels.SINKHORN_TOL},
        }
    ),
    "evolve": _object(
        {
            **_COMMON_PROPS,
            "stepper": {"enum": ["proposed", "original", "markov"], "default": "markov"},
            "num_positions": {"type": "integer", "minimum": 1, "default": 8},
            "num_channels": {"type": "integer", "minimum": 1, "default": 1},
            "steps": {"type": "integer", "minimum": 0, "default": 50},
            "weight": {
                "anyOf": [
                    {"type": "number"},
                    {"type": "array", "items": {"type": "number"}, "minItems": 1},
                ],
                "default": 1.0,
            },
            "kernel": _kernel({"variant": "rbf", "bandwidth": None}),
            "normalization": {"enum": ["row", "sinkhorn"], "default": "sinkhorn"},
            "initial": _object(
                {
                    "kind": {"enum": ["normal", "uniform", "explicit"], "default": "normal"},
                    "scale": {"type": "number", "default": 1.0},
                    "values": {
                        "type": "array",
                        "items": {"type": "array", "items": {"type": "number"}},
                    },
                }
            ),
        }
    ),
    "spectrum": _object(
        {
            **_COMMON_PROPS,
            "input_path": {"type": "string"},
            "input_kind": {"enum": ["matrix_csv", "checkpoint"], "default": "matrix_csv"},
            "sidecar_path": {"type": ["string", "null"], "default": None},
            "top_k": {"type": "integer", "minimum": 1, "default": DEFAULT_TOP_K},
        },
        required=["input_path"],
    ),
    "train": _object(
        {
            **_COMMON_PROPS,
            "task": _TASK_SCHEMA,
            "net": _object(
                {
                    **_TRUNK_PROPS,
                    "stage": _object(
                        {
                            "formulation": {**_FORMULATION, "default": "proposed"},
                            "sub_blocks": {**_SUB_BLOCKS, "default": 4},
                            **_PLACEMENT_PROPS,
                        },
                        type=["object", "null"],
                        required=["formulation", "sub_blocks"],
                    ),
                }
            ),
            "hyper": _HYPER_SCHEMA,
        }
    ),
    "compare": _object(
        {
            **_COMMON_PROPS,
            "task": _TASK_SCHEMA,
            "net": _object({**_TRUNK_PROPS, **_PLACEMENT_PROPS}),
            "variants": {
                "type": "array",
                "minItems": 1,
                "uniqueItems": True,
                "items": _object(
                    {"formulation": _FORMULATION, "sub_blocks": _SUB_BLOCKS},
                    required=["formulation", "sub_blocks"],
                ),
                "default": [
                    {"formulation": "proposed", "sub_blocks": 1},
                    {"formulation": "proposed", "sub_blocks": 2},
                    {"formulation": "proposed", "sub_blocks": 4},
                    {"formulation": "proposed", "sub_blocks": 8},
                    {"formulation": "original", "sub_blocks": 4},
                ],
            },
            "hyper": _HYPER_SCHEMA,
        }
    ),
}


def _defaults(schema: dict):
    """A schema's own "default", else the defaults of its properties."""
    if "default" in schema:
        return copy.deepcopy(schema["default"])
    return {
        key: _defaults(sub)
        for key, sub in schema.get("properties", {}).items()
        if "default" in sub or "properties" in sub
    }


CONFIG_DEFAULTS = {command: _defaults(schema) for command, schema in CONFIG_SCHEMAS.items()}


class ConfigError(NldError):
    pass


@functools.cache
def _validator(name: str):
    """The validator of the report schema or of one command's config schema.

    Built on first use, so the schema is checked against its metaschema
    once per process rather than on every validation (and not at import).
    """
    schema = RUN_REPORT_SCHEMA if name == "report" else CONFIG_SCHEMAS[name]
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def _validate(doc, name: str) -> None:
    """jsonschema.validate against a cached validator: raises the same best-match error."""
    error = jsonschema.exceptions.best_match(_validator(name).iter_errors(doc))
    if error is not None:
        raise error


def _merge_defaults(defaults, override):
    if isinstance(defaults, dict) and isinstance(override, dict):
        merged = {k: copy.deepcopy(v) for k, v in defaults.items()}
        for k, v in override.items():
            merged[k] = _merge_defaults(defaults.get(k), v) if k in defaults else copy.deepcopy(v)
        return merged
    return copy.deepcopy(override)


def _reject_non_finite(doc, where: str) -> None:
    # json.loads reads NaN, Infinity and overflowing literals such as 1e999
    # as non-finite floats, and the schemas' "number" type lets them through.
    if isinstance(doc, float) and not np.isfinite(doc):
        raise ConfigError(f"config rejected: {where or 'the config'} is {doc!r}, not a finite number")
    if isinstance(doc, dict):
        for key, value in doc.items():
            _reject_non_finite(value, f"{where}.{key}" if where else key)
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            _reject_non_finite(value, f"{where}[{i}]")


def resolve_config(command: str, raw: dict, seed=None, out=None) -> dict:
    """Validate, merge over defaults, apply flag overrides, fix out_dir."""
    _reject_non_finite(raw, "")
    try:
        _validate(raw, command)
    except jsonschema.ValidationError as err:
        raise ConfigError(f"config rejected: {err.message}") from err
    config = _merge_defaults(CONFIG_DEFAULTS[command], raw)
    if seed is not None:
        config["seed"] = int(seed)
    if out is not None:
        config["out_dir"] = str(out)
    if config["out_dir"] is None:
        config["out_dir"] = os.environ.get("NLD_OUT", DEFAULT_OUT)
    return config


def kernel_spec_from_config(doc: dict) -> kernels.AffinityKernelSpec:
    """Every key goes to the spec, which rejects the ones its variant does not take."""
    theta, inner = doc.get("theta"), doc.get("inner")
    try:
        return kernels.AffinityKernelSpec(
            doc["variant"],
            bandwidth=doc.get("bandwidth"),
            theta=None if theta is None else np.array(theta, dtype=np.float64),
            inner=None if inner is None else kernel_spec_from_config(inner),
        )
    except ValueError as err:
        raise ConfigError(str(err)) from err


def _seeded_field(seed: int, label: str, M: int, d: int, kind="normal", scale=1.0) -> FeatureField:
    rng = SplitMix64(derive_seed(seed, label))
    if kind == "uniform":
        return FeatureField(rng.uniforms((M, d), -scale, scale))
    return FeatureField(scale * rng.normals((M, d)))


def _blowup_detail(err: BlowUpError) -> str:
    """The finite_trajectory detail of a trajectory that blew up."""
    return f"blow-up at step {err.step}" + ("" if err.cause is None else f": {err.cause}")


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def cmd_verify_theory(config: dict, report: RunReport, out_dir: Path) -> None:
    seed = config["seed"]
    M = config["num_positions"]
    d = config["num_channels"]
    steps = config["steps"]
    w = config["weight"]

    X = _seeded_field(seed, "features", M, d)
    K = kernels.symmetric_stochastic_kernel(
        X, bandwidth=config["bandwidth"], tol=config["sinkhorn_tol"]
    )
    report.checks.append(
        _check(
            "kernel_flags",
            K.symmetric and K.doubly_stochastic,
            detail=json.dumps(K.flags(), sort_keys=True),
        )
    )

    Z0 = _seeded_field(seed, "state", M, d)
    const = FeatureField(np.ones((M, d)) * 0.7)
    dev_const = float(np.max(np.abs(dynamics.apply_diffusion(K, const).values)))
    report.checks.append(_check("constant_annihilation", dev_const <= 1e-12, dev_const, 1e-12))
    LZ = dynamics.apply_diffusion(K, Z0).values
    mean_zero = float(np.max(np.abs(LZ.sum(axis=0))))
    report.checks.append(_check("mean_zero", mean_zero <= 1e-10, mean_zero, 1e-10))
    quad = float(np.sum(Z0.values * LZ))
    report.checks.append(_check("quadratic_form_nonpositive", quad <= 1e-12, quad, 1e-12))

    # One Markov step's variance drop against the energy identity.
    _, variance, _, _ = dynamics._block_stats(np.stack((Z0.values, K.entries @ Z0.values)))
    drop = float(variance[0] - variance[1])
    predicted = dynamics.variance_dissipation(K, Z0)
    energy_err = abs(drop - predicted)
    report.checks.append(_check("energy_identity", energy_err <= 1e-10, energy_err, 1e-10))

    verdict = dynamics.cfl_verdict(K, w)
    report.checks.append(
        CheckResult(
            "cfl_radius",
            "pass",
            measured=verdict.spectral_radius,
            detail="stable" if verdict.stable else "unstable",
        )
    )

    try:
        traj = dynamics.evolve(Z0, dynamics.ProposedStepper(K, w), steps)
    except BlowUpError as err:
        # The theorems below are then checked on the states before the blow-up.
        traj = err.record
        report.checks.append(
            _stable_weight_check(
                "finite_trajectory",
                False,
                verdict.stable,
                err.max_abs,
                dynamics.BLOWUP_LIMIT,
                detail=_blowup_detail(err),
            )
        )
    mean_rep = dynamics.verify_mean_preservation(traj)
    report.checks.append(
        _stable_weight_check(
            "mean_preservation",
            mean_rep.passed,
            verdict.stable,
            mean_rep.max_deviation,
            mean_rep.tolerance,
        )
    )
    var_rep = dynamics.verify_variance_decay(traj)
    report.checks.append(
        _stable_weight_check(
            "variance_decay",
            var_rep.passed,
            verdict.stable,
            var_rep.max_increase,
            var_rep.tolerance,
            detail=None
            if var_rep.first_violation_step is None
            else f"first increase at step {var_rep.first_violation_step}",
        )
    )

    vals, vecs = K.spectrum()
    amps = dynamics.mode_amplification(vals, w)
    factor = float(amps[1])
    min_factor = float(np.min(amps))
    if 0.0 < factor < 1.0 and min_factor > 0.0:
        prediction = -np.log(factor)
        try:
            fit = dynamics.estimate_decay_rate(traj)
            Zeig = FeatureField(np.tile(vecs[:, 1][:, None], (1, d)))
            eig_traj = dynamics.evolve(Zeig, dynamics.ProposedStepper(K, w), steps)
            eig_fit = dynamics.estimate_decay_rate(eig_traj)
        except InsufficientDataError as err:
            # The decay reached roundoff within a few steps: no rate to fit.
            for name in ("decay_rate_vs_gap", "eigenvector_rate_equality"):
                report.checks.append(CheckResult(name, "soft", detail=str(err)))
        else:
            report.checks.append(
                _check(
                    "decay_rate_vs_gap",
                    fit.lambda_hat >= prediction - 1e-6,
                    fit.lambda_hat,
                    prediction,
                    detail=f"r_squared {fit.r_squared:.6f}",
                )
            )
            report.checks.append(
                _check(
                    "eigenvector_rate_equality",
                    abs(eig_fit.lambda_hat - prediction) <= 1e-6,
                    eig_fit.lambda_hat,
                    prediction,
                )
            )
    else:
        report.checks.append(
            CheckResult(
                "decay_rate_vs_gap",
                "soft",
                detail="contraction spectrum not positive; no exponential prediction",
            )
        )

    m = dynamics.poincare_constant(K)
    report.checks.append(_check("poincare_positive", m > 0, m, 0.0))
    centered = Z0.values - Z0.values.mean(axis=0)
    lhs = float(np.sum(K.entries * kernels._squared_distances(centered[None])[0]))
    rhs = 2.0 * m * float(np.sum(centered * centered))
    report.checks.append(_check("poincare_inequality", lhs >= rhs * (1.0 - 1e-9) - 1e-12, lhs, rhs))

    report.artifacts.append(_write_text(out_dir, "trajectory.csv", traj.to_csv()))


def cmd_evolve(config: dict, report: RunReport, out_dir: Path) -> None:
    seed = config["seed"]
    M = config["num_positions"]
    d = config["num_channels"]
    init = config["initial"]
    if init["kind"] == "explicit":
        if "values" not in init:
            raise ConfigError("explicit initial state needs values")
        Z0 = FeatureField(np.array(init["values"], dtype=np.float64))
        if Z0.num_positions != M or Z0.num_channels != d:
            raise ConfigError("explicit initial state does not match num_positions/num_channels")
    elif "values" in init:
        raise ConfigError(f"initial values need kind 'explicit', not {init['kind']!r}")
    else:
        Z0 = _seeded_field(seed, "state", M, d, init["kind"], init["scale"])

    spec = kernel_spec_from_config(config["kernel"])
    weight = config["weight"]
    if config["stepper"] == "original":
        stepper = dynamics.OriginalStepper(spec, weight)
    else:
        raw = kernels.build_kernel_matrix(Z0, spec)
        if config["normalization"] == "sinkhorn":
            K = kernels.sinkhorn_normalize(raw)
        else:
            K = kernels.normalize_rows(raw)
        if config["stepper"] == "markov":
            stepper = dynamics.MarkovStepper(K)
        else:
            stepper = dynamics.ProposedStepper(K, weight)

    try:
        traj = dynamics.evolve(Z0, stepper, config["steps"])
        report.checks.append(
            CheckResult(
                "finite_trajectory",
                "pass",
                measured=float(traj.l2_norm[-1]),
                detail=f"{traj.steps} steps",
            )
        )
    except BlowUpError as err:
        traj = err.record
        # Every state the failed step could read is within BLOWUP_LIMIT, so
        # its median bandwidth's 2 h^2 can only have left the normal range
        # from below: the state contracted, it did not grow.
        if isinstance(err.cause, BandwidthError) and np.abs(Z0.values).max() <= dynamics.BLOWUP_LIMIT:
            check = CheckResult(
                "finite_trajectory",
                "fail",
                measured=float(traj.l2_norm[-1]),
                detail=f"median bandwidth collapsed at step {err.step}: {err.cause}",
            )
        else:
            check = CheckResult(
                "finite_trajectory",
                "fail",
                measured=err.max_abs,
                threshold=dynamics.BLOWUP_LIMIT,
                detail=_blowup_detail(err),
            )
        report.checks.append(check)
    report.artifacts.append(_write_text(out_dir, "trajectory.csv", traj.to_csv()))


def cmd_spectrum(config: dict, report: RunReport, out_dir: Path) -> None:
    path = Path(config["input_path"])
    top_k = config["top_k"]
    try:
        if config["input_kind"] == "matrix_csv":
            targets = {"matrix": load_matrix_csv(path.read_text())}
        else:
            sidecar_path = config["sidecar_path"] or str(path.with_suffix(".json"))
            sidecar = json.loads(Path(sidecar_path).read_text())
            params = net.checkpoint_from_bytes(path.read_bytes(), sidecar)
            targets = {name: W for name, W in params.items() if net.is_stage_weight(name)}
            if not targets:
                raise ValueError("checkpoint holds no stage weight tensors")
        for name, W in targets.items():
            if W.ndim != 2:
                raise ValueError(f"{name} has shape {list(W.shape)}, not a matrix")
            if W.size == 0:
                raise ValueError(f"{name} has no entries")
            if W.shape[0] != W.shape[1]:
                raise ValueError(f"{name} is {W.shape[0]} rows x {W.shape[1]} cols, not square")
            if not np.isfinite(W).all():
                raise ValueError(f"{name} has non-finite entries")
    except (OSError, ValueError, json.JSONDecodeError) as err:
        report.checks.append(CheckResult("input_readable", "fail", detail=str(err)))
        return
    report.checks.append(CheckResult("input_readable", "pass", detail=f"{len(targets)} matrix(es)"))

    for name, W in targets.items():
        try:
            rep = spectrum_report(W, top_k=top_k)
        except NonFiniteError as err:
            # Finite entries whose eigenvalues lie beyond float64.
            report.checks.append(CheckResult(f"classified_{name}", "fail", detail=str(err)))
            continue
        stem = "spectrum" if name == "matrix" else f"spectrum_{name}"
        report.artifacts.append(_write_json(out_dir, f"{stem}.json", rep.to_json_dict()))
        report.artifacts.append(_write_text(out_dir, f"{stem}.csv", rep.to_csv()))
        report.checks.append(
            CheckResult(
                f"classified_{name}",
                "pass",
                measured=rep.classification,
                detail=f"pos {rep.num_positive} / neg {rep.num_negative}",
            )
        )


def _task_from(config: dict) -> net.SyntheticTask:
    doc = config["task"]
    return net.generate_task(
        doc["num_positions"], doc["num_channels"], doc["num_classes"], doc["num_samples"], config["seed"]
    )


def _net_config_from(config: dict, stage_doc) -> net.NetworkConfig:
    task_doc, doc = config["task"], config["net"]
    stage = None
    if stage_doc is not None:
        stage = net.StageConfig(
            formulation=stage_doc["formulation"],
            sub_blocks=stage_doc["sub_blocks"],
            kernel=kernel_spec_from_config(stage_doc["kernel"]),
            placement=stage_doc["placement"],
        )
    return net.NetworkConfig(
        task_doc["num_positions"],
        task_doc["num_channels"],
        task_doc["num_classes"],
        doc["trunk_blocks"],
        doc["hidden_channels"],
        stage=stage,
        block_gain=doc["block_gain"],
    )


def _hyper_from(doc: dict) -> net.Hyper:
    return net.Hyper(**{**doc, "lr_drop_fracs": tuple(doc["lr_drop_fracs"])})


def _stage_spectra(history) -> list:
    """The trained stage-weight spectra; none for a diverged or stageless run."""
    return [] if history.diverged else net.extract_stage_spectra(history)


def _spectra_checks(report: RunReport, reports: list, config_formulation: str, prefix=""):
    """Soft sign-majority expectations, per the qualitative findings."""
    if not reports:
        return
    pos = sum(r.num_positive for r in reports)
    neg = sum(r.num_negative for r in reports)
    if config_formulation == "proposed":
        ok = pos > neg
        name = f"{prefix}spectra_majority_positive"
    else:
        ok = neg > pos
        name = f"{prefix}spectra_majority_negative"
    report.checks.append(
        CheckResult(name, "soft", measured=f"pos {pos} / neg {neg}", detail="pass" if ok else "miss")
    )


def cmd_train(config: dict, report: RunReport, out_dir: Path) -> None:
    task = _task_from(config)
    net_config = _net_config_from(config, config["net"]["stage"])
    hyper = _hyper_from(config["hyper"])
    history = net.train(net_config, task, hyper, seed=config["seed"])

    report.checks.append(
        CheckResult(
            "converged",
            "pass" if not history.diverged else "soft",
            detail=history.divergence,
        )
    )
    if history.per_epoch and not history.diverged:
        last = history.per_epoch[-1]
        report.checks.append(
            CheckResult("final_train_loss", "pass", measured=last.train_loss)
        )
        report.checks.append(
            CheckResult("final_train_acc", "pass", measured=last.train_acc)
        )
    spectra = _stage_spectra(history)
    if spectra:  # a stageless net has none, and no formulation
        _spectra_checks(report, spectra, net_config.stage.formulation)

    report.artifacts.append(_write_text(out_dir, "history.csv", history.to_csv()))
    blob, sidecar = net.checkpoint_bytes(history.final_params)
    report.artifacts.append(_write_bytes(out_dir, "checkpoint.bin", blob))
    report.artifacts.append(_write_json(out_dir, "checkpoint.json", sidecar))
    for idx, rep in enumerate(spectra):
        report.artifacts.append(_write_json(out_dir, f"spectrum_sub{idx}.json", rep.to_json_dict()))


def cmd_compare(config: dict, report: RunReport, out_dir: Path) -> None:
    task = _task_from(config)
    hyper = _hyper_from(config["hyper"])
    net_doc = config["net"]
    variants = config["variants"]
    histories = []
    for variant in variants:
        stage_doc = {**variant, "placement": net_doc["placement"], "kernel": net_doc["kernel"]}
        net_config = _net_config_from(config, stage_doc)
        histories.append(net.train(net_config, task, hyper, seed=config["seed"]))

    rows = ["formulation,sub_blocks,final_train_loss,final_val_acc,diverged"]
    results = {}
    for variant, history in zip(variants, histories):
        key = (variant["formulation"], variant["sub_blocks"])
        if history.diverged or not history.per_epoch:
            loss, vacc = float("inf"), float("nan")
        else:
            loss = history.per_epoch[-1].train_loss
            vacc = history.per_epoch[-1].val_acc
        results[key] = (loss, history)
        rows.append(
            f"{variant['formulation']},{variant['sub_blocks']},{loss!r},{vacc!r},{str(history.diverged).lower()}"
        )
        _spectra_checks(
            report,
            _stage_spectra(history),
            variant["formulation"],
            prefix=f"{variant['formulation']}_N{variant['sub_blocks']}_",
        )
    report.artifacts.append(_write_text(out_dir, "comparison.csv", "\n".join(rows) + "\n"))

    for variant, history in zip(variants, histories):
        name = f"history_{variant['formulation']}_N{variant['sub_blocks']}.csv"
        report.artifacts.append(_write_text(out_dir, name, history.to_csv()))

    sub_counts = sorted({v["sub_blocks"] for v in variants})
    for n in sub_counts:
        if n < 2:
            continue
        if ("proposed", n) in results and ("original", n) in results:
            p_loss = results[("proposed", n)][0]
            o_loss = results[("original", n)][0]
            report.checks.append(
                _check(
                    f"ordering_N{n}",
                    p_loss <= o_loss,
                    p_loss,
                    o_loss if np.isfinite(o_loss) else None,
                    detail=f"original loss {o_loss!r}",
                )
            )


COMMANDS = {
    "verify-theory": cmd_verify_theory,
    "evolve": cmd_evolve,
    "spectrum": cmd_spectrum,
    "train": cmd_train,
    "compare": cmd_compare,
}


def _run(command: str, config: dict) -> RunReport:
    """Run one subcommand into its out_dir and write its report.json."""
    started = time.monotonic()
    out_dir = Path(config["out_dir"])
    report = RunReport(command, config)
    COMMANDS[command](config, report, out_dir)
    report.wall_time_seconds = time.monotonic() - started
    # report.json lists itself, so its name goes in before the report is serialized.
    report.artifacts.append("report.json")
    _write_json(out_dir, "report.json", report.to_json_dict())
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nld", description="Nonlocal diffusion block laboratory"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="JSON config path")
        p.add_argument("--seed", type=int, default=None, help="overrides config seed")
        p.add_argument("--out", type=str, default=None, help="overrides output directory")
    args = parser.parse_args(argv)

    raw = {}
    if args.config is not None:
        try:
            raw = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as err:
            print(f"error: cannot load config: {err}", file=sys.stderr)
            return 2
    try:
        config = resolve_config(args.command, raw, seed=args.seed, out=args.out)
        report = _run(args.command, config)
    except (ConfigError, NldError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    for check in report.checks:
        bits = [f"[{check.status.upper():>13}] {check.name}"]
        if check.measured is not None:
            bits.append(f"measured={check.measured}")
        if check.threshold is not None:
            bits.append(f"threshold={check.threshold}")
        if check.detail:
            bits.append(f"({check.detail})")
        print("  ".join(bits))
    print(f"OVERALL: {report.overall.upper()}  (artifacts in {config['out_dir']})")
    return 0 if report.overall == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
