"""The layers a traced run measures: which public functions of each kroncov
module get a span, which counts are read from their return values, and
how spans and counts turn into the per-layer metrics.

Every count comes from a public return value or argument: the
``SoftImputeResult`` of ``soft_impute``, the ``info`` dict of
``fit_by_name``, the fitter handed to ``cv_shrinkage_intensity``, and the
array sizes going into and out of the ``kron_ops`` operators.
"""
from __future__ import annotations

import numpy as np

from spans import Patch, Recorder, self_times, wrap

LAYERS = {
    "synth": ("sample_gaussian", "sample_student_t", "ar1_kron_truth"),
    "kron_ops": ("rearrange", "compress_diagonals", "diag_mask", "kron_assemble"),
    "estimators": ("scm", "soft_impute", "kron_plugin_intensity", "lw_intensity",
                   "shrink", "chen_tyler", "robust_kronpca", "kronpca_T",
                   "cv_shrinkage_intensity"),
    "anomaly": ("read_frame_csv", "detrend", "make_windows", "mahalanobis_scores",
                "roc", "write_roc_csv"),
    "cli": ("write_json",),
}
# estimator names fit_by_name accepts; each gets an estimators.fit.<name> span
FIT_NAMES = ("scm", "scm-lw", "kronpca", "dc-kronpca-lw", "chen-tyler", "tyler-kronpca")
# cli.COMMANDS entries the workloads run
COMMANDS = ("mse-bench", "anomaly")
COUNTS = ("kron_ops.computed_bytes", "estimators.soft_impute.iters",
          "estimators.soft_impute.nonconverged", "estimators.chen_tyler.iters",
          "estimators.robust_kronpca.inner_iters", "estimators.cv.fits")
ROOT = "cli.main"


def span_names() -> list[str]:
    names = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]
    names += [f"estimators.fit.{n}" for n in FIT_NAMES]
    names += [f"cli.{c}" for c in COMMANDS]
    return names


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for name in span_names():
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    for name in COUNTS:
        units[name] = "bytes_computed" if name.endswith("bytes") else "count"
    units["estimators.converged_ratio"] = "ratio"
    units["cli.covered_ratio"] = "ratio"
    units["trace.overhead_ratio"] = "ratio"
    return units


def _nbytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(_nbytes(o) for o in obj)
    return sum(_nbytes(getattr(obj, a)) for a in ("entries", "full", "compressed")
               if hasattr(obj, a))


def _hooks(recorder: Recorder):
    def kron_bytes(args, kwargs):
        moved = _nbytes(args) + _nbytes(tuple(kwargs.values()))
        return args, kwargs, lambda result: recorder.count(
            "kron_ops.computed_bytes", moved + _nbytes(result))

    def soft_impute(args, kwargs):
        def after(result):
            recorder.count("estimators.soft_impute.iters", result.iterations)
            recorder.count("estimators.soft_impute.nonconverged", not result.converged)
        return args, kwargs, after

    def cv(args, kwargs):
        fitter = kwargs.pop("fitter") if "fitter" in kwargs else args[1]

        def counted(*a, **k):
            recorder.count("estimators.cv.fits")
            return fitter(*a, **k)
        if len(args) > 1:
            args = (args[0], counted) + tuple(args[2:])
        else:
            kwargs["fitter"] = counted
        return args, kwargs, None

    def fit(args, kwargs):
        name = args[0] if args else kwargs["name"]

        def after(result):
            info = result[1]
            recorder.count("estimators.fits")
            recorder.count("estimators.converged", bool(info["converged"]))
            if name == "chen-tyler":
                recorder.count("estimators.chen_tyler.iters", info["iterations"])
            elif name == "tyler-kronpca":
                recorder.count("estimators.robust_kronpca.inner_iters",
                               info["inner_iterations"])
        return args, kwargs, after

    hooks = {f"kron_ops.{fn}": kron_bytes for fn in LAYERS["kron_ops"]}
    hooks["estimators.soft_impute"] = soft_impute
    hooks["estimators.cv_shrinkage_intensity"] = cv
    return hooks, fit


def install(recorder: Recorder) -> Patch:
    """Wrap every listed function in every kroncov namespace that holds it.

    Call ``restore()`` on the result to put the original functions back.
    """
    import kroncov
    from kroncov import anomaly, cli, estimators, kron_ops, synth

    modules = {"synth": synth, "kron_ops": kron_ops, "estimators": estimators,
               "anomaly": anomaly, "cli": cli}
    namespaces = [kroncov, *modules.values(), cli.COMMANDS]
    hooks, fit_hook = _hooks(recorder)
    patch = Patch()

    def replace(original, replacement, what):
        if patch.replace(namespaces, original, replacement) == 0:
            raise LookupError(f"{what} is not bound in any kroncov namespace")

    try:
        for mod, fns in LAYERS.items():
            for fn in fns:
                name = f"{mod}.{fn}"
                original = getattr(modules[mod], fn)
                replace(original, wrap(recorder, original, name, hooks.get(name)), name)
        fit = estimators.fit_by_name
        replace(fit, wrap(recorder, fit,
                          lambda *a, **k: f"estimators.fit.{a[0] if a else k['name']}",
                          fit_hook), "estimators.fit_by_name")
        for command in COMMANDS:
            original = cli.COMMANDS[command]
            replace(original, wrap(recorder, original, f"cli.{command}"), f"cli.{command}")
    except BaseException:
        patch.restore()
        raise
    return patch


def layer_metrics(recorder: Recorder, count_call: int, overhead_ratio: float) -> dict:
    """Per-layer metrics: self seconds as a mean per traced call, calls and
    counts from the call with id ``count_call``."""
    selfs = self_times(recorder.spans)
    n_calls = len({s.call_id for s in recorder.spans if s.name == ROOT})
    self_sum: dict[str, float] = {}
    call_count: dict[str, int] = {}
    covered = wall = 0.0
    uncovered = {ROOT, *(f"cli.{c}" for c in COMMANDS)}
    for span, own in zip(recorder.spans, selfs):
        self_sum[span.name] = self_sum.get(span.name, 0.0) + own
        if span.call_id == count_call:
            call_count[span.name] = call_count.get(span.name, 0) + 1
        if span.name == ROOT:
            wall += span.end - span.start
        if span.name in uncovered:
            covered -= own
    covered += wall
    counts = recorder.counts.get(count_call, {})
    values = {}
    for name in span_names():
        values[f"{name}.self_s"] = self_sum.get(name, 0.0) / max(1, n_calls)
        values[f"{name}.calls"] = call_count.get(name, 0)
    for name in COUNTS:
        values[name] = counts.get(name, 0)
    fits = counts.get("estimators.fits", 0)
    values["estimators.converged_ratio"] = counts.get("estimators.converged", 0) / fits if fits else 0.0
    values["cli.covered_ratio"] = covered / wall if wall else 0.0
    values["trace.overhead_ratio"] = overhead_ratio
    return values
