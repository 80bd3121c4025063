"""Experiment driver: synthesis, estimation, MSE benchmark, anomaly
pipeline, and spectrum analysis as reproducible subcommands.

    kroncov <synth|estimate|mse-bench|anomaly|spectrum>
            --config <path> [--out <dir>] [--seed <u64>] [--threads <n>]

Configs are JSON (schemas in the README).  The samples sidecar, the manifests
and the spectrum summary embed the resolved config, input paths included, its
hash and the seed; the diagnostics hold the estimator config instead, and an
AUC file the hash only.  Nothing time-dependent is written, so re-running a
config reproduces the output files byte for byte.  Exit codes: 0 success, 2
config error, 3 numerical failure; a fit that merely fails to converge exits
0 and records converged=false in the diagnostics.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import re
import sys
import warnings
from pathlib import Path

import numpy as np

from . import anomaly as anom
from . import estimators as est
from . import synth
from .files import read_matrix_binary, write_csv, write_json, write_matrix_binary
from .kron_ops import DenseCovariance, SpaceTimeDims


class ConfigError(Exception):
    """Bad or missing configuration / input files."""


# ---------------------------------------------------------------------------
# deterministic serialization helpers

def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _provenance(cfg: dict, **fields) -> dict:
    """An output document: the resolved config, its hash, the seed the run used, then fields."""
    return {"config": cfg, "config_hash": config_hash(cfg), "seed": _field(cfg, "seed", int, None), **fields}


# the JSON kind of each type a config value can be read as
_KINDS = {int: "a nonnegative integer", float: "a finite number", bool: "true or false",
          str: "a string", list: "a nonempty list", dict: "an object"}


def _field(cfg: dict, key: str, kind, default=...):
    """cfg[key] as the JSON kind of a _KINDS type, or of [type] for a list of
    it; else a ConfigError naming the key.  A missing key, or null when the
    default is None, gives the default; with no default the key is required.
    Integers are sizes, counts, seeds or frame indices, so never negative;
    2.0 reads as the integer 2 and 1 as the number 1.0."""
    value = cfg.get(key)
    if value is None and (key not in cfg or default is None):
        if default is ...:
            raise ConfigError(f"config is missing required key {key!r}")
        return default
    if isinstance(kind, list):
        entries = {f"{key}[{i}]": v for i, v in enumerate(_field(cfg, key, list))}
        return [_field(entries, k, kind[0]) for k in entries]
    if kind is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    if (isinstance(value, bool) != (kind is bool)
            or not isinstance(value, (int, float) if kind is float else kind)
            or (kind is int and value < 0) or (kind is list and not value)
            or (kind is float and not abs(value) <= sys.float_info.max)):
        raise ConfigError(f"config key {key!r} must be {_KINDS[kind]}, got {json.dumps(value)}")
    return float(value) if kind is float else value


@contextlib.contextmanager
def _config_errors(field: str = ""):
    """Report a ConfigError, a ValueError raised by input validation, a
    TypeError from a wrongly typed value or an OSError from reading an input
    file inside the block as a config error on field."""
    try:
        yield
    except (ConfigError, OSError, TypeError, ValueError) as exc:
        raise ConfigError(f"{field}: {exc}" if field else str(exc)) from exc


def _dims_from_config(cfg: dict) -> SpaceTimeDims:
    with _config_errors():
        return SpaceTimeDims(_field(cfg, "p", int), _field(cfg, "T", int))


def _ar1_sampler(cfg: dict):
    """The AR(1) Kronecker truth of a synth or mse-bench config, and
    sample(n, seed) drawing from it: Student-t when dof is set, else Gaussian."""
    dims = _dims_from_config(cfg)
    dof = _field(cfg, "dof", float, None)
    if dof is not None and dof <= 0:
        raise ConfigError(f"config key 'dof' must be positive, got {dof}")
    with _config_errors():
        truth = synth.ar1_kron_truth(dims.p, dims.T, _field(cfg, "tcoeff", float, 0.5),
                                     _field(cfg, "scoeff", float, 0.95))

    def sample(n: int, seed: int) -> synth.SampleSet:
        if dof is None:
            return synth.sample_gaussian(truth, n, seed)
        return synth.sample_student_t(truth, dof, n, seed)
    return truth, sample


def _known_keys(cfg: dict, keys) -> None:
    """Raise a ConfigError naming the first key of cfg that is not in keys."""
    unknown = sorted(set(cfg) - set(keys))
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r} (known: {', '.join(sorted(keys))})")


# estimator labels name output files (roc_<label>.csv) and mse.csv rows
_LABEL = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")


def _estimator_specs(cfg: dict):
    out = []
    for i, entry in enumerate(_field(cfg, "estimators", [dict])):
        with _config_errors(f"estimators[{i}]"):
            _known_keys(entry, ("name", "label", "config"))
            name = _field(entry, "name", str)
            ecfg = est.make_config(name, _field(entry, "config", dict, {}))
            label = _field(entry, "label", str, name)
            if not _LABEL.fullmatch(label):
                raise ConfigError(f"config key 'label' must match {_LABEL.pattern}, got {label!r}")
            out.append((label, name, ecfg))
    if len({label for label, _, _ in out}) != len(out):
        raise ConfigError("estimator labels must be unique (set 'label' to disambiguate)")
    return out


def trial_seed(root_seed: int, n: int, trial: int) -> int:
    """Per-trial seed derivation shared by all estimators in a cell, so
    orderings are evaluated on paired draws and results do not depend on
    execution order."""
    ss = np.random.SeedSequence([int(root_seed), int(n), int(trial)])
    return int(ss.generate_state(1, np.uint64)[0])


def kron_truth_error(truth: synth.GroundTruth):
    """error(estimate, shape_only): ||E - A (x) B||_F^2 / ||A (x) B||_F^2 of
    an estimate E in any covariance form against the truth A (x) B, after
    rescaling both sides to unit trace for a shape-only estimator,
    assembling neither side.  With c the ratio of the rescalings
    (1, or tr(truth) / tr(E) for a shape-only estimator),
    ||c E - A (x) B||^2 = c^2 ||E||^2 - 2c <E, A (x) B> + ||A (x) B||^2,
    each term a reduction of E, <E, A (x) B> = <E.spatial_contract(A), B>;
    ||A (x) B||^2 is taken here, once."""
    (tm, sm), = truth.sigma.pairs
    truth_sq, truth_trace = truth.sigma.frobenius_sq(), truth.sigma.trace()

    def error(estimate, shape_only: bool) -> float:
        c = truth_trace / estimate.trace() if shape_only else 1.0
        return (c * c * estimate.frobenius_sq() - 2.0 * c * np.vdot(estimate.spatial_contract(tm), sm)
                + truth_sq) / truth_sq
    return error


# ---------------------------------------------------------------------------
# subcommands

def cmd_synth(cfg: dict, out: Path) -> None:
    n = _field(cfg, "n", int)
    seed = _field(cfg, "seed", int)
    truth, sample = _ar1_sampler(cfg)
    with _config_errors("n"):
        sset = sample(n, seed)
    synth.write_sample_csv(out / "samples.csv", sset)
    write_json(out / "samples.json", _provenance(
        cfg,
        p=sset.dims.p,
        T=sset.dims.T,
        n=sset.n,
        truth=truth.description,
    ))


def _load_samples(cfg: dict) -> synth.SampleSet:
    dims = _dims_from_config(cfg)
    with _config_errors("input (sample CSV)"):
        return synth.read_sample_csv(_field(cfg, "input", str), dims)


def cmd_estimate(cfg: dict, out: Path) -> None:
    samples = _load_samples(cfg)
    name = _field(cfg, "estimator", str)
    with _config_errors(f"estimator {name!r}"):
        ecfg = est.make_config(name, _field(cfg, "estimator_config", dict, {}))
    with _config_errors("input"):
        est.require_samples(name, samples.n, samples)

    cov, info = est.fit_by_name(name, samples, ecfg)
    write_matrix_binary(out / "covariance.bin", cov.entries)
    if info.get("model") is not None:
        write_json(out / "model.json", info["model"].to_json_dict())

    lo, hi = cov.extremes()
    trace = info["model"].objective_trace if info.get("model") is not None else []
    diagnostics = {
        "estimator": name,
        "config": dataclasses.asdict(ecfg),
        "config_hash": config_hash(cfg),
        "seed": _field(cfg, "seed", int, None),
        "n": samples.n,
        "p": samples.dims.p,
        "T": samples.dims.T,
        "iterations": info["iterations"],
        "converged": bool(info["converged"]),
        "final_objective": float(trace[-1]) if trace else None,
        "rho": info.get("rho"),
        "min_eigenvalue": lo,
        "max_eigenvalue": hi,
        "condition_number": hi / lo if lo > 0 else None,
        "trace": float(np.trace(cov.entries)),
    }
    write_json(out / "diagnostics.json", diagnostics)


def run_mse_bench(cfg: dict, threads: int = 1):
    """Benchmark core: mean/stderr of normalized estimation error per
    (estimator, n) cell over paired trials.  Returns (rows, all_converged)
    with rows as (label, n, mean, stderr, values)."""
    seed = _field(cfg, "seed", int)
    trials = _field(cfg, "trials", int)
    n_grid = _field(cfg, "n_grid", [int])
    if trials < 1:
        raise ConfigError("config key 'trials' must be at least 1")
    if len(set(n_grid)) != len(n_grid):
        raise ConfigError(f"config key 'n_grid' must not repeat a sample size, got {n_grid}")
    specs = _estimator_specs(cfg)
    with _config_errors("n_grid"):
        for _, name, _ in specs:
            est.require_samples(name, min(n_grid))
    truth, sample = _ar1_sampler(cfg)
    error = kron_truth_error(truth)

    def run_one(job):
        n, t = job
        sset = sample(n, trial_seed(seed, n, t))
        row, converged = {}, True
        for label, name, ecfg in specs:
            cov, info = est.fit_by_name(name, sset, ecfg)
            converged &= bool(info["converged"])
            row[label] = error(cov, est.ESTIMATORS[name].shape)
        return row, converged

    jobs = [(n, t) for n in n_grid for t in range(trials)]
    # with one thread the trials run in this one: a pool thread's own malloc arena raises peak RSS,
    # and the pool's module (which loads logging) is imported only for a pool
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_one, jobs))
    else:
        results = list(map(run_one, jobs))

    rows = []
    for label, _, _ in specs:
        for j, n in enumerate(n_grid):
            cell = np.array([row[label] for row, _ in results[j * trials:(j + 1) * trials]])
            stderr = float(cell.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
            rows.append((label, n, float(cell.mean()), stderr, cell))
    return rows, all(converged for _, converged in results)


def cmd_mse_bench(cfg: dict, out: Path, threads: int = 1) -> None:
    rows, all_converged = run_mse_bench(cfg, threads)
    write_csv(out / "mse.csv", ["estimator", "n", "mean", "stderr"], [row[:4] for row in rows])
    specs = _estimator_specs(cfg)
    write_json(out / "manifest.json", _provenance(
        cfg,
        command="mse-bench",
        converged=all_converged,
        metric={label: ("shape_mse" if est.ESTIMATORS[name].shape else "mse")
                for label, name, _ in specs},
        seed_derivation="SeedSequence([seed, n, trial]) per cell, shared across estimators",
    ))


def cmd_anomaly(cfg: dict, out: Path) -> None:
    T = _field(cfg, "T", int)
    stride = _field(cfg, "stride", int, 1)
    train_range = _field(cfg, "train_range", [int])
    if len(train_range) != 2:
        raise ConfigError("train_range must be [start, stop]")
    start, stop = train_range
    linear = _field(cfg, "detrend_linear", bool, False)
    specs = _estimator_specs(cfg)
    with _config_errors("input (frame CSV)"):
        series = anom.read_frame_csv(_field(cfg, "input", str))
    if series.labels is None:
        raise ConfigError("anomaly pipeline needs a labeled stream (label column)")

    if series.labels[start:stop].any():
        warnings.warn("training range contains anomalous frames; fitting proceeds anyway")

    with _config_errors():  # the raw frames are dropped: the windows view the detrended ones
        series = anom.detrend(series, (start, stop), linear=linear)
        windows = anom.make_windows(series, T, stride)

    # starts increase: [:i0] end by start, [j0:j1] fit in the range, [i1:] begin at stop or later
    i0, j0, j1, i1 = np.searchsorted(windows.starts, [start - T + 1, start, stop - T + 1, stop])
    # the training set adopts its rows, a read-only view of the detrended frames: no copy
    train_set = synth.SampleSet.adopt(SpaceTimeDims(series.p, T), windows.vectors[j0:j1])
    with _config_errors("train_range (windows inside it)"):
        for _, name, _ in specs:
            est.require_samples(name, train_set.n, train_set)

    test_parts = [(windows.vectors[part], windows.starts[part])
                  for part in (slice(None, i0), slice(i1, None)) if len(windows.starts[part])]
    test_labels = np.concatenate([windows.labels[:i0], windows.labels[i1:]])
    keep = test_labels != anom.EXCLUDED
    n_anomalous, n_nominal, n_excluded = (int(np.count_nonzero(test_labels == kind))
                                          for kind in (anom.ANOMALOUS, anom.NOMINAL, anom.EXCLUDED))
    if not (n_anomalous and n_nominal):
        raise ConfigError(
            f"train_range: the windows outside it hold {n_anomalous} anomalous and "
            f"{n_nominal} nominal windows by the label column; the ROC needs both")

    summary = {}
    for label, name, ecfg in specs:
        cov, info = est.fit_by_name(name, train_set, ecfg)
        # scored in window order, as the ROC breaks ties by order; the slices stay views
        scores = np.concatenate([anom.mahalanobis_scores(part, cov, starts)
                                 for part, starts in test_parts])
        curve = anom.roc(scores[keep], test_labels[keep])
        anom.write_roc_csv(out / f"roc_{label}.csv", curve)
        doc = {
            "estimator": label,
            "auc": curve.auc,
            "n_anomalous": n_anomalous,
            "n_nominal": n_nominal,
            "n_excluded": n_excluded,
            "converged": bool(info["converged"]),
            "config_hash": config_hash(cfg),
        }
        write_json(out / f"auc_{label}.json", doc)
        summary[label] = curve.auc
    write_json(out / "manifest.json", _provenance(
        cfg,
        command="anomaly",
        n_train_windows=train_set.n,
        auc=summary,
    ))


def cmd_spectrum(cfg: dict, out: Path) -> None:
    kind = _field(cfg, "kind", str, "samples")
    toeplitz_rows = _field(cfg, "toeplitz", bool, True)
    if kind == "samples":
        cov = est.scm(_load_samples(cfg))
    elif kind == "covariance":
        dims = _dims_from_config(cfg)
        with _config_errors("input (covariance file)"):
            cov = DenseCovariance(dims, read_matrix_binary(_field(cfg, "input", str)))
    else:
        raise ConfigError(f'kind must be "samples" or "covariance", got {kind!r}')

    kron_sv, pca_ev = est.kron_spectrum(cov, toeplitz_rows)
    write_csv(out / "spectrum.csv", ["spectrum", "index", "value"],
              [("kron", i, v) for i, v in enumerate(kron_sv)]
              + [("pca", i, v) for i, v in enumerate(pca_ev)])
    write_json(out / "summary.json", _provenance(
        cfg,
        command="spectrum",
        kron_components_95=est.components_for_energy(kron_sv),
        pca_components_95=est.components_for_energy(pca_ev),
    ))


COMMANDS = {
    "synth": cmd_synth,
    "estimate": cmd_estimate,
    "mse-bench": cmd_mse_bench,
    "anomaly": cmd_anomaly,
    "spectrum": cmd_spectrum,
}
# the config keys each command reads (the README's tables); any other is an error
CONFIG_KEYS = {
    "synth": ("p", "T", "n", "seed", "tcoeff", "scoeff", "dof"),
    "estimate": ("input", "p", "T", "estimator", "estimator_config", "seed"),
    "mse-bench": ("p", "T", "seed", "trials", "n_grid", "estimators", "tcoeff", "scoeff", "dof"),
    "anomaly": ("input", "T", "stride", "train_range", "detrend_linear", "estimators", "seed"),
    "spectrum": ("input", "kind", "p", "T", "toeplitz", "seed"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kroncov",
        description="Spatiotemporal covariance estimation experiments",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--out", default=".", help="output directory (created if missing)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--threads", type=int, default=1, help="trial-level parallelism")
    args = parser.parse_args(argv)

    try:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
        _known_keys(cfg, CONFIG_KEYS[args.command])
        if args.seed is not None:
            cfg["seed"] = args.seed
        _field(cfg, "seed", int, None)  # every command records the seed it ran with
        if args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "mse-bench":  # the one command that runs in parallel
            COMMANDS[args.command](cfg, out, args.threads)
        else:
            COMMANDS[args.command](cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # numerical / runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
