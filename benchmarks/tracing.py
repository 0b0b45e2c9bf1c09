"""Spans around the calls into each ``nld`` module, recorded from outside.

:class:`Tracer` wraps each target function and rebinds every ``nld.*``
module attribute (and module-level dict entry, such as ``cli.COMMANDS``)
that refers to it, because modules import each other's functions by
name: ``cli`` and ``dynamics`` hold their own ``eig_symmetric``,
``operators`` its own ``build_kernel_matrix``.  Methods are wrapped on
their class.  A target that no longer exists is reported as missing,
with the metrics that depend on it.

A span is ``(parent, op, name, start, end)``; spans stay in memory until
:meth:`Tracer.write`.  A layer's busy time is the self time of its
spans: duration minus the durations of their child spans.  The root span
of an op is ``cli.main``, so per op the layers' busy times add up to the
op's traced latency.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from math import prod

LAYERS = ("rng", "fields", "kernels", "operators", "dynamics", "spectrum", "net", "cli")

TARGETS = {
    "rng": ("derive_seed", "SplitMix64.normals", "SplitMix64.uniforms", "SplitMix64.shuffle"),
    "fields": ("FeatureField.__post_init__", "load_matrix_csv"),
    "kernels": (
        "build_kernel_matrix",
        "normalize_rows",
        "sinkhorn_normalize",
        "symmetric_stochastic_kernel",
    ),
    "operators": ("apply_diffusion", "apply_original", "markov_matrix"),
    "dynamics": (
        "evolve",
        "step_proposed",
        "step_original",
        "cfl_verdict",
        "poincare_constant",
        "variance_dissipation",
        "verify_mean_preservation",
        "verify_variance_decay",
        "estimate_decay_rate",
    ),
    "spectrum": ("eig_symmetric", "spectrum_report"),
    "net": (
        "generate_task",
        "init_params",
        "train",
        "_forward_batch",
        "_backward_batch",
        "extract_stage_spectra",
        "checkpoint_bytes",
    ),
    "cli": (
        "main",
        "resolve_config",
        "cmd_verify_theory",
        "cmd_evolve",
        "cmd_spectrum",
        "cmd_train",
    ),
}

# Metric -> span names whose total duration it is.
DURATIONS = {
    "spectrum.eig_s": ("spectrum.eig_symmetric",),
    "kernels.build_s": ("kernels.build_kernel_matrix",),
    "kernels.normalize_s": ("kernels.normalize_rows", "kernels.sinkhorn_normalize"),
    "dynamics.evolve_s": ("dynamics.evolve",),
    "net.forward_s": ("net._forward_batch",),
    "net.backward_s": ("net._backward_batch",),
    "net.task_s": ("net.generate_task",),
    "cli.resolve_s": ("cli.resolve_config",),
}

# Metric -> span names whose number of calls it is.
CALLS = {
    "spectrum.eig_calls": ("spectrum.eig_symmetric",),
    "kernels.builds": ("kernels.build_kernel_matrix",),
    "kernels.normalizations": ("kernels.normalize_rows", "kernels.sinkhorn_normalize"),
    "net.batches": ("net._forward_batch",),
}

# Metric -> span names whose arguments or results the counters read.
COUNTED = {
    "spectrum.eig_n3": ("spectrum.eig_symmetric",),
    "kernels.entries_built": ("kernels.build_kernel_matrix",),
    "dynamics.steps": ("dynamics.evolve",),
    "dynamics.blowups": ("dynamics.evolve",),
    "net.samples": ("net._forward_batch",),
    "net.divergences": ("net._forward_batch", "net._backward_batch"),
    "rng.values_drawn": ("rng.SplitMix64.normals", "rng.SplitMix64.uniforms", "rng.SplitMix64.shuffle"),
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_eig(counts, args, kwargs, result):
    counts["spectrum.eig_n3"] += len(_arg(args, kwargs, 0, "A")) ** 3


def _count_build(counts, args, kwargs, result):
    counts["kernels.entries_built"] += _arg(args, kwargs, 0, "field").num_positions ** 2


def _count_evolve(counts, args, kwargs, result):
    counts["dynamics.steps"] += result.steps


def _count_batch(counts, args, kwargs, result):
    counts["net.samples"] += len(_arg(args, kwargs, 2, "X"))


def _count_draws(counts, args, kwargs, result):
    shape = _arg(args, kwargs, 1, "shape")
    counts["rng.values_drawn"] += prod(shape) if isinstance(shape, (tuple, list)) else int(shape)


def _count_shuffle(counts, args, kwargs, result):
    counts["rng.values_drawn"] += len(_arg(args, kwargs, 1, "seq"))


COUNTERS = {
    "spectrum.eig_symmetric": _count_eig,
    "kernels.build_kernel_matrix": _count_build,
    "dynamics.evolve": _count_evolve,
    "net._forward_batch": _count_batch,
    "rng.SplitMix64.normals": _count_draws,
    "rng.SplitMix64.uniforms": _count_draws,
    "rng.SplitMix64.shuffle": _count_shuffle,
}


class Tracer:
    """Wraps the targets while installed; collects spans and counts."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.counts = defaultdict(int)
        self.missing = {}
        self._undo = []
        self._last_error = None

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        from nld import errors

        self._errors = errors
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "nld" or name.startswith("nld.")]
        for layer, attrs in TARGETS.items():
            module = sys.modules.get(f"nld.{layer}")
            for attr in attrs:
                name = f"{layer}.{attr}"
                if module is None:
                    self.missing[name] = f"module nld.{layer} is not imported"
                    continue
                *path, last = attr.split(".")
                owner = module
                try:
                    for part in path:
                        owner = getattr(owner, part)
                    original = vars(owner)[last] if path else getattr(owner, last)
                except (AttributeError, KeyError):
                    self.missing[name] = f"nld.{layer} has no {attr}"
                    continue
                wrapper = self._wrap(original, name, layer, COUNTERS.get(name))
                if path:
                    self._rebind(owner, last, original, wrapper)
                else:
                    for m in modules:
                        for key, value in list(vars(m).items()):
                            if value is original:
                                self._rebind(m, key, original, wrapper)
                            elif isinstance(value, dict):
                                for k, v in list(value.items()):
                                    if v is original:
                                        value[k] = wrapper
                                        self._undo.append((value.__setitem__, k, original))

    def _rebind(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._undo.append((functools.partial(setattr, owner), key, original))

    def uninstall(self) -> None:
        while self._undo:
            put, key, original = self._undo.pop()
            put(key, original)

    # -- recording ----------------------------------------------------------

    def _wrap(self, fn, name, layer, counter):
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                stack.pop()
                spans[index] = (parent, tracer.op, name, start, end)
                tracer._raised(name, layer, exc)
                raise
            end = clock()
            stack.pop()
            spans[index] = (parent, tracer.op, name, start, end)
            if counter is not None:
                counter(tracer.counts, args, kwargs, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _raised(self, name, layer, exc):
        errors = self._errors
        if not isinstance(exc, errors.NldError) or exc is self._last_error:
            return
        # Count an error once, in the innermost wrapped call it leaves.
        self._last_error = exc
        self.counts[f"{layer}.errors"] += 1
        if name == "dynamics.evolve" and isinstance(exc, errors.BlowUpError):
            self.counts["dynamics.blowups"] += 1
            if exc.record is not None:
                self.counts["dynamics.steps"] += exc.record.steps
        if name in ("net._forward_batch", "net._backward_batch") and isinstance(
            exc, (errors.DivergenceError, errors.DegenerateRowError)
        ):
            self.counts["net.divergences"] += 1

    def begin(self, op) -> None:
        """Attribute the spans that follow to ``op``."""
        self.op = op
        self._last_error = None

    # -- reading ------------------------------------------------------------

    def metrics(self, first: int) -> dict:
        """Layer metrics over spans[first:] and the counts since the last clear."""
        counts = self.counts
        spans = self.spans
        child = defaultdict(float)
        for parent, _op, _name, start, end in spans[first:]:
            if parent >= first:
                child[parent] += end - start
        busy = defaultdict(float)
        calls = defaultdict(int)
        duration = defaultdict(float)
        by_name = defaultdict(int)
        for index in range(first, len(spans)):
            _parent, _op, name, start, end = spans[index]
            layer = name.split(".", 1)[0]
            busy[layer] += (end - start) - child[index]
            calls[layer] += 1
            duration[name] += end - start
            by_name[name] += 1
        out = {}
        for layer in LAYERS:
            out[f"{layer}.busy_s"] = busy[layer]
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.errors"] = counts.get(f"{layer}.errors", 0)
        for metric, names in DURATIONS.items():
            out[metric] = sum(duration[n] for n in names)
        for metric, names in CALLS.items():
            out[metric] = sum(by_name[n] for n in names)
        for metric in COUNTED:
            out[metric] = counts.get(metric, 0)
        return out

    def missing_metrics(self) -> dict:
        """Metric -> reason, for every metric that reads a missing target."""
        out = {}
        for table in (DURATIONS, CALLS, COUNTED):
            for metric, names in table.items():
                lost = [n for n in names if n in self.missing]
                if lost:
                    out[metric] = "; ".join(self.missing[n] for n in lost)
        return out

    def write(self, path) -> None:
        """Write the spans as CSV: index, parent, op, name, start, end."""
        with open(path, "w", newline="\n") as fh:
            fh.write("index,parent,op,name,start,end\n")
            for index, (parent, op, name, start, end) in enumerate(self.spans):
                fh.write(f"{index},{parent},{op},{name},{start!r},{end!r}\n")
