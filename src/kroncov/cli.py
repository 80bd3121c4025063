"""Experiment driver: synthesis, estimation, MSE benchmark, anomaly
pipeline, and spectrum analysis as reproducible subcommands.

    kroncov <synth|estimate|mse-bench|anomaly|spectrum>
            --config <path> [--out <dir>] [--seed <u64>] [--threads <n>]

Configs are JSON (schemas documented in the README).  Every output embeds
the resolved config and its hash plus the seed, and nothing time- or
path-dependent is written, so re-running a manifest reproduces the output
files byte for byte.  Exit codes: 0 success, 2 config error, 3 numerical
failure.  Estimators that merely fail to converge still exit 0 and record
converged=false in the diagnostics.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import struct
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import anomaly as anom
from . import estimators as est
from . import synth
from .kron_ops import DenseCovariance, SpaceTimeDims


class ConfigError(Exception):
    """Bad or missing configuration / input files."""


# ---------------------------------------------------------------------------
# deterministic serialization helpers

def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def write_json(path: Path, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_matrix_binary(path: Path, matrix: np.ndarray) -> None:
    """Two little-endian uint64 (rows, cols), then row-major float64 LE."""
    matrix = np.ascontiguousarray(matrix, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<QQ", *matrix.shape))
        fh.write(matrix.tobytes())


def read_matrix_binary(path: Path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) != 16:
            raise ConfigError(f"{path}: truncated matrix header")
        rows, cols = struct.unpack("<QQ", header)
        data = np.frombuffer(fh.read(), dtype="<f8")
    if data.size != rows * cols:
        raise ConfigError(f"{path}: expected {rows * cols} values, found {data.size}")
    return data.reshape(rows, cols).astype(float)


def _require(cfg: dict, key: str, kind=None):
    if key not in cfg:
        raise ConfigError(f"config is missing required key {key!r}")
    value = cfg[key]
    if kind is not None and not isinstance(value, kind):
        raise ConfigError(f"config key {key!r} has the wrong type: {type(value).__name__}")
    return value


@contextlib.contextmanager
def _config_errors(field: str = ""):
    """Report a ValueError raised inside the block by input validation, or a
    TypeError from a wrongly typed config value, as a config error on field."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{field}: {exc}" if field else str(exc)) from exc


def _dims_from_config(cfg: dict) -> SpaceTimeDims:
    with _config_errors():
        return SpaceTimeDims(int(_require(cfg, "p")), int(_require(cfg, "T")))


def _estimator_specs(cfg: dict):
    specs = _require(cfg, "estimators", list)
    if not specs:
        raise ConfigError("estimator list is empty")
    out = []
    for entry in specs:
        name = _require(entry, "name", str)
        with _config_errors(f"estimator {name!r}"):
            out.append((entry.get("label", name), name, est.make_config(name, entry.get("config", {}))))
    labels = [label for label, _, _ in out]
    if len(set(labels)) != len(labels):
        raise ConfigError("estimator labels must be unique (set 'label' to disambiguate)")
    return out


def trial_seed(root_seed: int, n: int, trial: int) -> int:
    """Per-trial seed derivation shared by all estimators in a cell, so
    orderings are evaluated on paired draws and results do not depend on
    execution order."""
    ss = np.random.SeedSequence([int(root_seed), int(n), int(trial)])
    return int(ss.generate_state(1, np.uint64)[0])


def normalized_mse(estimate: np.ndarray, truth: np.ndarray, shape_only: bool) -> float:
    """||estimate - truth||_F^2 / ||truth||_F^2, comparing unit-trace
    rescalings of both sides for shape-only estimators."""
    if shape_only:
        estimate = estimate / np.trace(estimate)
        truth = truth / np.trace(truth)
    return float(np.sum((estimate - truth) ** 2) / np.sum(truth ** 2))


# ---------------------------------------------------------------------------
# subcommands

def cmd_synth(cfg: dict, out: Path, threads: int = 1) -> None:
    dims = _dims_from_config(cfg)
    n = int(_require(cfg, "n"))
    seed = int(_require(cfg, "seed"))
    tcoeff = float(cfg.get("tcoeff", 0.5))
    scoeff = float(cfg.get("scoeff", 0.95))
    with _config_errors():
        truth = synth.ar1_kron_truth(dims.p, dims.T, tcoeff, scoeff)
        if cfg.get("dof") is not None:
            sset = synth.sample_student_t(truth, float(cfg["dof"]), n, seed)
        else:
            sset = synth.sample_gaussian(truth, n, seed)
    synth.write_sample_csv(out / "samples.csv", sset)
    synth.write_sample_sidecar(
        out / "samples.json", sset, truth.description,
        extra={"config": cfg, "config_hash": config_hash(cfg)},
    )


def _load_samples(cfg: dict) -> synth.SampleSet:
    path = Path(_require(cfg, "input", str))
    if not path.exists():
        raise ConfigError(f"input file {path} does not exist")
    dims = _dims_from_config(cfg)
    with _config_errors("malformed sample CSV"):
        return synth.read_sample_csv(path, dims)


def cmd_estimate(cfg: dict, out: Path, threads: int = 1) -> None:
    samples = _load_samples(cfg)
    name = _require(cfg, "estimator", str)
    with _config_errors(f"estimator {name!r}"):
        ecfg = est.make_config(name, cfg.get("estimator_config", {}))
    with _config_errors("input"):
        est.require_samples(name, samples.n)

    cov, info = est.fit_by_name(name, samples, ecfg)
    write_matrix_binary(out / "covariance.bin", cov.entries)
    if info.get("model") is not None:
        write_json(out / "model.json", info["model"].to_json_dict())

    lam = np.linalg.eigvalsh(cov.entries)
    trace = info["model"].objective_trace if info.get("model") is not None else []
    diagnostics = {
        "estimator": name,
        "config": dataclasses.asdict(ecfg),
        "config_hash": config_hash(cfg),
        "seed": cfg.get("seed"),
        "n": samples.n,
        "p": samples.dims.p,
        "T": samples.dims.T,
        "iterations": info["iterations"],
        "converged": bool(info["converged"]),
        "final_objective": float(trace[-1]) if trace else None,
        "rho": info.get("rho"),
        "min_eigenvalue": float(lam[0]),
        "max_eigenvalue": float(lam[-1]),
        "condition_number": float(lam[-1] / lam[0]) if lam[0] > 0 else None,
        "trace": float(np.trace(cov.entries)),
    }
    write_json(out / "diagnostics.json", diagnostics)


def _bench_cell(truth, specs, n, tseed, dof):
    if dof is not None:
        sset = synth.sample_student_t(truth, dof, n, tseed)
    else:
        sset = synth.sample_gaussian(truth, n, tseed)
    row = {}
    converged = True
    for label, name, ecfg in specs:
        cov, info = est.fit_by_name(name, sset, ecfg)
        converged &= bool(info["converged"])
        row[label] = normalized_mse(cov.entries, truth.sigma.entries,
                                    est.ESTIMATORS[name].shape)
    return row, converged


def run_mse_bench(cfg: dict, threads: int = 1):
    """Benchmark core: mean/stderr of normalized estimation error per
    (estimator, n) cell over paired trials.  Returns (rows, all_converged)
    with rows as (label, n, mean, stderr, values)."""
    dims = _dims_from_config(cfg)
    seed = int(_require(cfg, "seed"))
    trials = int(_require(cfg, "trials"))
    n_grid = [int(v) for v in _require(cfg, "n_grid", list)]
    if trials < 1 or not n_grid:
        raise ConfigError("need at least one trial and a nonempty n_grid")
    specs = _estimator_specs(cfg)
    with _config_errors("n_grid"):
        for n in n_grid:
            for _, name, _ in specs:
                est.require_samples(name, n)
    dof = float(cfg["dof"]) if cfg.get("dof") is not None else None
    truth = synth.ar1_kron_truth(dims.p, dims.T,
                              float(cfg.get("tcoeff", 0.5)),
                              float(cfg.get("scoeff", 0.95)))

    values = {(label, n): np.zeros(trials) for label, _, _ in specs for n in n_grid}
    all_converged = True

    def run_one(args):
        n, t = args
        return n, t, _bench_cell(truth, specs, n, trial_seed(seed, n, t), dof)

    jobs = [(n, t) for n in n_grid for t in range(trials)]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_one, jobs))
    else:
        results = [run_one(job) for job in jobs]
    for n, t, (row, conv) in results:
        all_converged &= conv
        for label, _, _ in specs:
            values[(label, n)][t] = row[label]

    rows = []
    for label, _, _ in specs:
        for n in n_grid:
            cell = values[(label, n)]
            stderr = float(cell.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
            rows.append((label, n, float(cell.mean()), stderr, cell))
    return rows, all_converged


def cmd_mse_bench(cfg: dict, out: Path, threads: int = 1) -> None:
    rows, all_converged = run_mse_bench(cfg, threads)
    with open(out / "mse.csv", "w") as fh:
        fh.write("estimator,n,mean,stderr\n")
        for label, n, mean, stderr, _ in rows:
            fh.write(f"{label},{n},{mean:.17g},{stderr:.17g}\n")
    specs = _estimator_specs(cfg)
    write_json(out / "manifest.json", {
        "command": "mse-bench",
        "config": cfg,
        "config_hash": config_hash(cfg),
        "seed": cfg["seed"],
        "converged": all_converged,
        "metric": {label: ("shape_mse" if est.ESTIMATORS[name].shape else "mse")
                   for label, name, _ in specs},
        "seed_derivation": "SeedSequence([seed, n, trial]) per cell, shared across estimators",
    })


def cmd_anomaly(cfg: dict, out: Path, threads: int = 1) -> None:
    path = Path(_require(cfg, "input", str))
    if not path.exists():
        raise ConfigError(f"input file {path} does not exist")
    with _config_errors("malformed frame CSV"):
        series = anom.read_frame_csv(path)
    if series.labels is None:
        raise ConfigError("anomaly pipeline needs a labeled stream (label column)")

    T = int(_require(cfg, "T"))
    stride = int(cfg.get("stride", 1))
    train_range = _require(cfg, "train_range", list)
    if len(train_range) != 2:
        raise ConfigError("train_range must be [start, stop]")
    start, stop = int(train_range[0]), int(train_range[1])
    specs = _estimator_specs(cfg)

    if series.labels[start:stop].any():
        warnings.warn("training range contains anomalous frames; fitting proceeds anyway")

    with _config_errors():
        detrended = anom.detrend(series, (start, stop), linear=bool(cfg.get("detrend_linear", False)))
        windows = anom.make_windows(detrended, T, stride)

    inside = (windows.starts >= start) & (windows.starts + T <= stop)
    outside = (windows.starts + T <= start) | (windows.starts >= stop)
    train_vectors = windows.vectors[inside]
    with _config_errors("train_range (windows inside it)"):
        for _, name, _ in specs:
            est.require_samples(name, train_vectors.shape[0])
    dims = SpaceTimeDims(series.p, T)
    train_set = synth.SampleSet(dims, train_vectors.shape[0], train_vectors)

    keep = outside & (windows.labels != anom.EXCLUDED)
    test_vectors = windows.vectors[keep]
    test_labels = windows.labels[keep]
    test_windows = anom.WindowSet(T=T, stride=stride, starts=windows.starts[keep],
                                  vectors=test_vectors, labels=test_labels)
    n_excluded = int((outside & (windows.labels == anom.EXCLUDED)).sum())

    summary = {}
    for label, name, ecfg in specs:
        cov, info = est.fit_by_name(name, train_set, ecfg)
        scores = anom.mahalanobis_scores(test_windows, cov)
        curve = anom.roc(scores, test_labels)
        anom.write_roc_csv(out / f"roc_{label}.csv", curve)
        doc = {
            "estimator": label,
            "auc": curve.auc,
            "n_anomalous": int((test_labels == anom.ANOMALOUS).sum()),
            "n_nominal": int((test_labels == anom.NOMINAL).sum()),
            "n_excluded": n_excluded,
            "converged": bool(info["converged"]),
            "config_hash": config_hash(cfg),
        }
        write_json(out / f"auc_{label}.json", doc)
        summary[label] = curve.auc
    write_json(out / "manifest.json", {
        "command": "anomaly",
        "config": cfg,
        "config_hash": config_hash(cfg),
        "seed": cfg.get("seed"),
        "n_train_windows": train_set.n,
        "auc": summary,
    })


def cmd_spectrum(cfg: dict, out: Path, threads: int = 1) -> None:
    kind = cfg.get("kind", "samples")
    toeplitz_rows = bool(cfg.get("toeplitz", True))
    dims = _dims_from_config(cfg)
    if kind == "samples":
        cov = est.scm(_load_samples(cfg))
    elif kind == "covariance":
        path = Path(_require(cfg, "input", str))
        if not path.exists():
            raise ConfigError(f"input file {path} does not exist")
        entries = read_matrix_binary(path)
        with _config_errors():
            cov = DenseCovariance(dims, entries)
    else:
        raise ConfigError(f'kind must be "samples" or "covariance", got {kind!r}')

    kron_sv, pca_ev = est.kron_spectrum(cov, toeplitz_rows)
    with open(out / "spectrum.csv", "w") as fh:
        fh.write("spectrum,index,value\n")
        for i, v in enumerate(kron_sv):
            fh.write(f"kron,{i},{v:.17g}\n")
        for i, v in enumerate(pca_ev):
            fh.write(f"pca,{i},{v:.17g}\n")
    write_json(out / "summary.json", {
        "command": "spectrum",
        "config": cfg,
        "config_hash": config_hash(cfg),
        "seed": cfg.get("seed"),
        "kron_components_95": est.components_for_energy(kron_sv),
        "pca_components_95": est.components_for_energy(pca_ev),
    })


COMMANDS = {
    "synth": cmd_synth,
    "estimate": cmd_estimate,
    "mse-bench": cmd_mse_bench,
    "anomaly": cmd_anomaly,
    "spectrum": cmd_spectrum,
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
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        COMMANDS[args.command](cfg, out, args.threads)
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
