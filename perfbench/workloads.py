"""The three benchmark workloads: their inputs, and how a call's outputs
are read back and checked.

Every call uses one seed from a fixed pool of ``POOL`` call seeds, for
which ``references.json`` holds the outputs recorded with
``record_references.py``.  A call passes when it exits with 0, writes
every expected file in the documented format, and its values match the
reference of its call seed: each per-cell MSE mean within a relative
``MSE_RTOL`` and each AUC within an absolute ``AUC_ATOL``.  Both are about
20 times the change that tightening the solvers' tolerance from 1e-6 to
1e-8 makes, so the same estimate reached by another route passes and a
different estimate fails.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np

POOL = 40
MSE_RTOL = 1e-3
AUC_ATOL = 5e-4


class CheckError(Exception):
    """A call's outputs are missing, malformed or differ from the reference."""


@dataclass(frozen=True)
class CallOutput:
    values: dict          # "label@n" -> mean MSE (mse-bench) or label -> AUC (anomaly)
    trials: int           # independent trials: (n, trial) cells, or one stream
    windows: int          # space-time windows fitted or scored, summed over estimators


def _load_json(path: Path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckError(f"cannot read {path.name}: {exc}") from exc


def _finite(value, what: str) -> float:
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        raise CheckError(f"{what} is not a finite number: {value!r}")
    return float(value)


@dataclass(frozen=True)
class Workload:
    """One CLI command and its config; ``min_calls`` timed calls always run
    and are the ones the quality metrics and failure ratio are taken over."""

    name: str
    config: dict
    min_calls: int

    @property
    def labels(self) -> list[str]:
        return [e.get("label", e["name"]) for e in self.config["estimators"]]

    def check_reference(self, values: dict, reference: dict) -> None:
        """Raise CheckError unless ``values`` match ``reference`` within tolerance."""
        if set(values) != set(reference):
            raise CheckError(f"output keys {sorted(values)} differ from reference {sorted(reference)}")
        for key, ref in reference.items():
            if not self.matches(values[key], ref):
                raise CheckError(f"{key} = {values[key]!r}, reference {ref!r}")


@dataclass(frozen=True)
class MseBench(Workload):
    """An ``mse-bench`` call; the program synthesizes samples from the seed."""

    command: ClassVar[str] = "mse-bench"

    def prepare(self, call_seed: int, work: Path) -> Path:
        path = work / "config.json"
        path.write_text(json.dumps({**self.config, "seed": call_seed}))
        return path

    @staticmethod
    def matches(got: float, ref: float) -> bool:
        return abs(got - ref) <= MSE_RTOL * abs(ref)

    def read(self, out: Path, call_seed: int) -> CallOutput:
        try:
            lines = (out / "mse.csv").read_text().splitlines()
        except OSError as exc:
            raise CheckError(f"cannot read mse.csv: {exc}") from exc
        if not lines or lines[0] != "estimator,n,mean,stderr":
            raise CheckError("mse.csv has a wrong or missing header")
        values = {}
        for line in lines[1:]:
            fields = line.split(",")
            if len(fields) != 4:
                raise CheckError(f"mse.csv row {line!r} does not have 4 fields")
            mean = _finite(float(fields[2]), f"MSE of {fields[0]} at n={fields[1]}")
            _finite(float(fields[3]), f"stderr of {fields[0]} at n={fields[1]}")
            if mean <= 0:
                raise CheckError(f"MSE of {fields[0]} at n={fields[1]} is not positive")
            values[f"{fields[0]}@{fields[1]}"] = mean
        want = {f"{label}@{n}" for label in self.labels for n in self.config["n_grid"]}
        if set(values) != want or len(lines) - 1 != len(want):
            raise CheckError(f"mse.csv cells {sorted(values)} differ from {sorted(want)}")
        manifest = _load_json(out / "manifest.json")
        if manifest.get("command") != self.command or manifest.get("seed") != call_seed:
            raise CheckError("manifest.json does not name this command and seed")
        trials = self.config["trials"]
        return CallOutput(
            values=values,
            trials=trials * len(self.config["n_grid"]),
            windows=trials * sum(self.config["n_grid"]) * len(self.labels),
        )


# the anomaly-stream input: AR(1)-in-time, AR(1)-in-space frames
P = 100               # coordinates per frame
N_TRAIN = 400         # nominal training frames
N_TEST = 5000         # test frames, with anomalies injected
TCOEFF = 0.5          # AR(1) coefficient in time
SCOEFF = 0.95         # AR(1) correlation in space
RATE = 0.1            # share of test frames that are anomalous, about
MAGNITUDE = 1.0       # shift, in standard deviations
WIDTH = (0.3, 0.6)    # shifted block, as a share of P
MEAN_LENGTH = 5.0     # mean frames per anomalous episode


def frame_stream(seed: int):
    """A labelled stream of ``N_TRAIN + N_TEST`` frames.

    The first ``N_TRAIN`` frames are nominal.  In the test part, episodes
    of Geometric(1/MEAN_LENGTH) frames start at a hazard that makes about
    ``RATE`` of the frames anomalous; each shifts a random contiguous block
    of ``WIDTH`` times P coordinates by ``MAGNITUDE`` standard deviations,
    with one random sign per episode.  Returns (frames, labels).
    """
    rng = np.random.default_rng(seed)
    n = N_TRAIN + N_TEST
    idx = np.arange(P)
    root = np.linalg.cholesky(SCOEFF ** np.abs(idx[:, None] - idx[None, :]))
    innov = rng.standard_normal((n, P)) @ root.T
    frames = np.empty((n, P))
    frames[0] = innov[0]
    damp = math.sqrt(1.0 - TCOEFF ** 2)
    for t in range(1, n):
        frames[t] = TCOEFF * frames[t - 1] + damp * innov[t]
    labels = np.zeros(n, dtype=int)
    std = frames[N_TRAIN:].std(axis=0)
    hazard = RATE / (MEAN_LENGTH * (1.0 - RATE))
    w_lo, w_hi = math.ceil(WIDTH[0] * P), math.floor(WIDTH[1] * P)
    t = N_TRAIN
    while t < n:
        if rng.random() < hazard:
            end = min(n, t + int(rng.geometric(1.0 / MEAN_LENGTH)))
            w = int(rng.integers(w_lo, w_hi + 1))
            lo = int(rng.integers(0, P - w + 1))
            sign = 1.0 if rng.random() < 0.5 else -1.0
            frames[t:end, lo:lo + w] += sign * MAGNITUDE * std[lo:lo + w]
            labels[t:end] = 1
            t = end
        else:
            t += 1
    return frames, labels


@dataclass(frozen=True)
class AnomalyStream(Workload):
    """An ``anomaly`` call on a stream CSV written just before the call."""

    command: ClassVar[str] = "anomaly"

    def prepare(self, call_seed: int, work: Path) -> Path:
        frames, labels = frame_stream(call_seed)
        stream = work / "stream.csv"
        header = ",".join([f"c{i}" for i in range(frames.shape[1])] + ["label"])
        np.savetxt(stream, np.column_stack([frames, labels]), fmt="%.17g",
                   delimiter=",", header=header, comments="")
        path = work / "config.json"
        path.write_text(json.dumps({**self.config, "input": str(stream),
                                    "train_range": [0, N_TRAIN]}))
        return path

    @staticmethod
    def matches(got: float, ref: float) -> bool:
        return abs(got - ref) <= AUC_ATOL

    def read(self, out: Path, call_seed: int) -> CallOutput:
        manifest = _load_json(out / "manifest.json")
        if manifest.get("command") != self.command or manifest.get("seed") != call_seed:
            raise CheckError("manifest.json does not name this command and seed")
        values = {}
        windows = 0
        for label in self.labels:
            doc = _load_json(out / f"auc_{label}.json")
            auc = _finite(doc.get("auc"), f"AUC of {label}")
            n_pos, n_neg = doc.get("n_anomalous"), doc.get("n_nominal")
            if not (isinstance(n_pos, int) and isinstance(n_neg, int) and n_pos > 0 and n_neg > 0):
                raise CheckError(f"auc_{label}.json window counts are wrong: {n_pos}, {n_neg}")
            if manifest.get("auc", {}).get(label) != auc:
                raise CheckError(f"manifest AUC of {label} differs from auc_{label}.json")
            roc_path = out / f"roc_{label}.csv"
            try:
                header = roc_path.open().readline().strip()
                curve = np.loadtxt(roc_path, delimiter=",", skiprows=1, ndmin=2)
            except (OSError, ValueError) as exc:
                raise CheckError(f"cannot read roc_{label}.csv: {exc}") from exc
            if header != "threshold,fpr,tpr" or curve.shape[1] != 3:
                raise CheckError(f"roc_{label}.csv has the wrong columns")
            fpr, tpr = curve[:, 1], curve[:, 2]
            if (np.any(np.diff(fpr) < 0) or np.any(np.diff(tpr) < 0)
                    or fpr[0] != 0 or tpr[0] != 0 or fpr[-1] != 1 or tpr[-1] != 1):
                raise CheckError(f"roc_{label}.csv is not a curve from (0,0) to (1,1)")
            area = float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1])) / 2.0)
            if abs(area - auc) > 1e-9:
                raise CheckError(f"roc_{label}.csv area {area} differs from AUC {auc}")
            values[label] = auc
            windows += n_pos + n_neg
        return CallOutput(values=values, trials=1, windows=windows)


WORKLOADS = {
    w.name: w for w in (
        MseBench("mc-paper", {
            "p": 100, "T": 10, "trials": 2, "n_grid": [10, 50],
            "estimators": [{"name": "scm"},
                           {"name": "kronpca", "config": {"r": 1}},
                           {"name": "dc-kronpca-lw", "config": {"r": 1}}],
        }, min_calls=3),
        MseBench("robust-heavy", {
            "p": 20, "T": 5, "trials": 1, "n_grid": [200], "dof": 3,
            "estimators": [{"name": "chen-tyler", "config": {"rho": 0.05}},
                           {"name": "tyler-kronpca", "config": {"rho": "auto"}}],
        }, min_calls=2),
        AnomalyStream("anomaly-stream", {
            "T": 10, "stride": 1,
            "estimators": [{"name": "scm-lw"},
                           {"name": "dc-kronpca-lw", "config": {"r": 1}}],
        }, min_calls=3),
    )
}
