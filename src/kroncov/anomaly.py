"""Sliding-window anomaly detection on multivariate frame streams.

A stream of p-dimensional frames is detrended against a nominal training
range, cut into overlapping length-T windows vectorized space-fastest
(matching the covariance layout), scored by Mahalanobis distance against a
fitted covariance, and evaluated with a threshold-sweep ROC.  Windows are
kept for evaluation only when more than 75% of their frames agree on a
label; mixed windows are excluded.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import files
from .kron_ops import DenseCovariance, KronCovariance, _frozen_array

ANOMALOUS = "anomalous"
NOMINAL = "nominal"
EXCLUDED = "excluded"

LABEL_FRACTION = 0.75  # strict on both sides


@dataclass(frozen=True)
class FrameSeries:
    """Ordered frames and optional per-frame 0/1 labels."""

    values: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        values = _frozen_array(self.values)
        if values.ndim != 2:
            raise ValueError("frame values must be a 2-d array (frames x coordinates)")
        if not np.isfinite(values).all():
            raise ValueError("frame values must be finite (found NaN or inf)")
        object.__setattr__(self, "values", values)
        if self.labels is not None:
            labels = np.asarray(self.labels)
            if labels.shape != (values.shape[0],):
                raise ValueError("labels must align 1:1 with frames")
            bad = labels[~np.isin(labels, (0, 1))]
            if bad.size:
                raise ValueError(f"labels must be exactly 0 or 1, found {bad[0]}")
            object.__setattr__(self, "labels", _frozen_array(labels, dtype=int))

    @classmethod
    def from_arrays(cls, values, labels=None) -> "FrameSeries":
        return cls(values, labels)

    @property
    def p(self) -> int:
        return self.values.shape[1]

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class WindowSet:
    """Vectorized overlapping windows, their start frames and their chunk labels."""

    starts: np.ndarray
    vectors: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "starts", _frozen_array(self.starts, dtype=int))
        object.__setattr__(self, "vectors", _frozen_array(self.vectors))
        object.__setattr__(self, "labels", _frozen_array(self.labels, dtype="U9"))


@dataclass(frozen=True)
class RocCurve:
    thresholds: np.ndarray
    fpr: np.ndarray
    tpr: np.ndarray
    auc: float


def detrend(series: FrameSeries, training_range, linear: bool = False) -> FrameSeries:
    """Remove the per-coordinate training mean (and optionally a linear
    trend in the frame index, fit on the training range) from every frame.

    Labels pass through; applying detrend twice with the same range is a
    no-op on the already-detrended data.
    """
    start, stop = int(training_range[0]), int(training_range[1])
    if not 0 <= start < stop <= series.n_frames:
        raise ValueError(f"training range [{start}, {stop}) is empty or out of bounds")
    ts = np.arange(series.n_frames, dtype=float)
    values = series.values
    if linear:
        design = np.column_stack([np.ones(stop - start), ts[start:stop]])
        coefs, *_ = np.linalg.lstsq(design, values[start:stop], rcond=None)
        fitted = np.column_stack([np.ones(series.n_frames), ts]) @ coefs
        out = values - fitted
    else:
        out = values - values[start:stop].mean(axis=0)
    return FrameSeries(out, series.labels)


def make_windows(series: FrameSeries, T: int, stride: int = 1) -> WindowSet:
    """Cut the series into overlapping length-T windows.

    Each window is vectorized space-fastest (frames concatenated in time
    order).  A window is labeled anomalous when strictly more than 75% of
    its frames are labeled 1, nominal when strictly more than 75% are 0,
    and excluded otherwise.  Unlabeled series yield nominal windows.
    """
    if T < 1 or stride < 1:
        raise ValueError("window length and stride must be >= 1")
    n = series.n_frames
    if n < T:
        raise ValueError(f"series of {n} frames is shorter than the window length {T}")
    starts = np.arange(0, n - T + 1, stride)
    windows = sliding_window_view(series.values, (T, series.p))[::stride, 0]
    vectors = windows.reshape(len(starts), T * series.p)
    frame_labels = series.labels if series.labels is not None else np.zeros(n, dtype=int)
    frac = sliding_window_view(frame_labels, T)[::stride].mean(axis=1)
    labels = np.select([frac > LABEL_FRACTION, frac < 1.0 - LABEL_FRACTION],
                       [ANOMALOUS, NOMINAL], EXCLUDED)
    return WindowSet(starts=starts, vectors=vectors, labels=labels)


def mahalanobis_scores(x: np.ndarray, sigma: DenseCovariance | KronCovariance) -> np.ndarray:
    """x_k^T Sigma^{-1} x_k for the rows x_k of x (n x pT), from the
    covariance's own :meth:`inverse_quad_forms` (blocks or a Cholesky).

    Requires a usable covariance: minimum eigenvalue above 1e-12 of the
    maximum.  A singular input is exactly the failure mode the structured
    estimators exist to avoid, so it is an error here, not a warning.
    """
    p, T = sigma.dims.p, sigma.dims.T
    if x.shape[1] != p * T:
        raise ValueError(f"window length {x.shape[1]} does not match covariance dimension {p * T}")
    lo, hi = sigma.eigvalsh()[[0, -1]]
    if lo <= 1e-12 * hi or hi <= 0:
        raise ValueError(f"covariance is singular or indefinite (eig range [{lo:.3e}, {hi:.3e}])")
    return sigma.inverse_quad_forms(x)[0]


def roc(scores, labels) -> RocCurve:
    """Threshold-sweep ROC over anomalous/nominal labels.

    Equal scores share one threshold step; AUC is the trapezoidal
    integral of the resulting curve.  Requires both classes present.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    truth = labels == ANOMALOUS
    n_pos = int(truth.sum())
    n_neg = int(len(truth) - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC needs both anomalous and nominal windows")

    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_truth = truth[order]
    cum_tp = np.cumsum(sorted_truth)
    cum_fp = np.cumsum(~sorted_truth)
    # last index of each tie group
    distinct = np.nonzero(np.diff(sorted_scores, append=-np.inf))[0]
    thresholds = np.concatenate([[np.inf], sorted_scores[distinct]])
    tpr = np.concatenate([[0.0], cum_tp[distinct] / n_pos])
    fpr = np.concatenate([[0.0], cum_fp[distinct] / n_neg])
    auc = float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1])) / 2.0)
    return RocCurve(thresholds=thresholds, fpr=fpr, tpr=tpr, auc=auc)


# ---------------------------------------------------------------------------
# CSV interchange

def read_frame_csv(path) -> FrameSeries:
    """Load a frame stream (:func:`files.read_csv`): coordinate columns and
    an optional final `label` column."""
    header, data = files.read_csv(path, "frames")
    if header[-1].lower() == "label":
        return FrameSeries(data[:, :-1], data[:, -1])
    return FrameSeries(data)


def write_frame_csv(path, series: FrameSeries) -> None:
    header, rows = [f"c{i}" for i in range(series.p)], series.values
    if series.labels is not None:
        header, rows = header + ["label"], np.column_stack([rows, series.labels.astype(float)])
    files.write_csv(path, header, rows)


def write_roc_csv(path, curve: RocCurve) -> None:
    files.write_csv(path, ["threshold", "fpr", "tpr"],
                    np.column_stack([curve.thresholds, curve.fpr, curve.tpr]))
