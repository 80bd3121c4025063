"""Synthetic ground truths, samplers, and labeled anomaly streams.

Randomness is pinned to ``numpy.random.default_rng`` (PCG64) seeded with an
explicit integer, so every generator is a deterministic function of its
parameters and seed.  Parallel Monte-Carlo callers must derive one seed per
trial (see the benchmark driver) so aggregates are order independent.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import files
from .kron_ops import DenseCovariance, GramCovariance, KronCovariance, SpaceTimeDims, _frozen_array, _kept


@dataclass(frozen=True)
class SampleSet:
    """n vectors of length pT plus the seed they were generated from.

    `seed` is None for observational data (e.g. windows cut from a CSV
    stream); synthesized sets regenerate bit-identically from their seed.
    """

    dims: SpaceTimeDims
    n: int
    samples: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        self._settle(_frozen_array(self.samples))

    @classmethod
    def adopt(cls, dims: SpaceTimeDims, samples: np.ndarray, seed: int | None = None) -> "SampleSet":
        """Wrap fresh float rows, or a read-only view of frozen ones (such as windows cut from
        frames), without the constructor's copy, as _Payload.adopt does: the rows become
        read-only, nothing else may hold a writable alias to them, and the shape and
        finiteness checks of the constructor are made."""
        if samples.dtype != np.float64 or samples.ndim != 2:
            raise ValueError(f"cannot adopt a {samples.dtype} array of {samples.ndim} axes as samples")
        samples.setflags(write=False)
        out = object.__new__(cls)
        out.__dict__.update(dims=dims, n=len(samples), seed=seed)
        out._settle(samples)
        return out

    def _settle(self, samples: np.ndarray) -> None:
        """Check the read-only `samples` against dims and n, and keep them."""
        if samples.shape != (self.n, self.dims.pt):
            raise ValueError(
                f"sample array shape {samples.shape}, expected ({self.n}, {self.dims.pt})"
            )
        if not np.isfinite(samples).all():
            raise ValueError("samples must be finite (found NaN or inf)")
        object.__setattr__(self, "samples", samples)

    def centered(self) -> np.ndarray:
        """The mean-centered rows (n x pT).  Below pT samples they are the read-only rows the kept
        :meth:`covariance` holds, so they exist once; from pT on they are made at each call."""
        if self.n < self.dims.pt:
            return self.covariance().x
        return self.samples - self.samples.mean(axis=0)

    def covariance(self) -> DenseCovariance | GramCovariance:
        """Mean-centered sample covariance with 1/n normalization, made on
        first use and kept (unlocked: racing callers all get the first one
        stored).  It is the centered rows (:class:`GramCovariance` with a = 0,
        b = 1), and from pT samples on their dense :meth:`~GramCovariance.to_dense`,
        whose entries are x^T x divided by n in place.

        A single sample centers to zero and yields the zero matrix (with a
        warning) so degenerate pipelines fail loudly downstream rather than
        here.  The diagonal of x^T x holds the column sums of squares, and by
        |g_ij| <= sqrt(g_ii g_jj) no entry overflows when they are finite.
        """
        return _kept(self.__dict__, "_sample_covariance", self._covariance)

    def _covariance(self) -> DenseCovariance | GramCovariance:
        if self.n < 1:
            raise ValueError("sample set is empty")
        x = self.samples - self.samples.mean(axis=0)
        if self.n == 1:
            warnings.warn("sample covariance of a single sample is the zero matrix")
        if not np.isfinite(np.einsum("ij,ij->j", x, x)).all():
            raise ValueError("covariance entries must be finite (found NaN or inf)")
        rows = GramCovariance.adopt(self.dims, x)
        return rows if self.n < self.dims.pt else rows.to_dense()


@dataclass(frozen=True)
class GroundTruth:
    """A positive definite T (x) S held as its factors (a one-term KronCovariance
    with d = 0), a provenance string, and the symmetric root of T (x) S as the
    pair (root(T), root(S)): root(T) (x) root(S) is never formed."""

    sigma: KronCovariance
    description: str
    root: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.sigma.pairs) != 1 or self.sigma.d.any():
            raise ValueError("ground truth must be one Kronecker term T (x) S with d = 0")
        (tm, sm), = self.sigma.pairs
        eigh_t, eigh_s = np.linalg.eigh(tm), np.linalg.eigh(sm)
        # the eigenvalues of T (x) S are the products of the factors': the least is an extreme pair's
        lam_min = min(a * b for a in eigh_t[0][[0, -1]] for b in eigh_s[0][[0, -1]])
        if not lam_min > 0:
            raise ValueError(f"ground truth is not positive definite (min eig {lam_min:.3e})")
        root = (_frozen_array(_root_from_eigh(*eigh_t)), _frozen_array(_root_from_eigh(*eigh_s)))
        object.__setattr__(self, "root", root)

    def correlate(self, z: np.ndarray) -> np.ndarray:
        """z @ (root(T) (x) root(S)) for the rows z_k of z (n x pT): each row
        read as its T x p frame matrix Z maps to root(T) Z root(S)."""
        (root_t, root_s), dims = self.root, self.sigma.dims
        return (root_t @ z.reshape(-1, dims.T, dims.p) @ root_s).reshape(z.shape)


def ar1_cov(dim: int, coeff: float, name: str = "coeff") -> np.ndarray:
    """Stationary AR(1) covariance: entry (i, j) = coeff^|i-j|."""
    if not abs(coeff) < 1:
        raise ValueError(f"AR coefficient {name} must satisfy |{name}| < 1, got {coeff}")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    lags = np.arange(dim)
    return (coeff ** lags)[np.abs(lags[:, None] - lags)]


def ar1_kron_truth(p: int = 100, T: int = 10, tcoeff: float = 0.5, scoeff: float = 0.95) -> GroundTruth:
    """Kronecker product of a temporal and a spatial AR(1) covariance.

    Defaults give the standard benchmark truth: a 100-variable grid over
    10 frames with AR coefficients 0.5 (time) and 0.95 (space).
    """
    pair = (ar1_cov(T, tcoeff, "tcoeff"), ar1_cov(p, scoeff, "scoeff"))
    desc = f"AR(1) Kronecker truth: p={p}, T={T}, time coeff {tcoeff}, space coeff {scoeff}"
    return GroundTruth(KronCovariance(SpaceTimeDims(p=p, T=T), [pair], 0.0), desc)


def _root_from_eigh(lam: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """The symmetric root of vecs diag(lam) vecs^T, lam ascending; ValueError
    unless it is positive semidefinite to 1e-10 of its largest eigenvalue."""
    if lam[0] < -1e-10 * max(lam[-1], 1.0):
        raise ValueError(f"covariance is not positive semidefinite (min eig {lam[0]:.3e})")
    root = (vecs * np.sqrt(np.maximum(lam, 0.0))) @ vecs.T
    return 0.5 * (root + root.T)


def sample_gaussian(truth: GroundTruth, n: int, seed: int) -> SampleSet:
    """Draw n iid zero-mean Gaussian vectors with the given covariance.

    Applies the symmetric square root of the covariance to standard normal
    draws frame by frame (:meth:`GroundTruth.correlate`); identical seeds
    reproduce the set bit for bit.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, truth.sigma.dims.pt))
    return SampleSet(truth.sigma.dims, n, truth.correlate(z), seed)


def sample_student_t(truth: GroundTruth, dof: float, n: int, seed: int) -> SampleSet:
    """Heavy-tailed elliptical samples sharing the truth's scatter shape.

    Each sample is a Gaussian draw times sqrt(dof / w) with w an
    independent chi-squared(dof) variate.  The Gaussian block is drawn
    first, so a fixed seed shares its z-draws with :func:`sample_gaussian`.
    """
    if dof <= 0:
        raise ValueError("degrees of freedom must be positive")
    if n < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, truth.sigma.dims.pt))
    scale = np.sqrt(dof / rng.chisquare(dof, size=n))
    return SampleSet(truth.sigma.dims, n, truth.correlate(z) * scale[:, None], seed)


def ar1_frame_stream(p: int, n_frames: int, tcoeff: float = 0.5,
                     scoeff: float = 0.95, seed: int = 0,
                     dof: float | None = None) -> np.ndarray:
    """Stationary stream of spatially correlated frames with AR(1) memory.

    frame_t = tcoeff * frame_{t-1} + sqrt(1 - tcoeff^2) * eta_t with
    eta_t ~ N(0, ar1_cov(p, scoeff)), started from stationarity, so any
    length-T window has covariance ar1_cov(T, tcoeff) (x) ar1_cov(p, scoeff).

    With `dof` set, every frame is additionally scaled by an independent
    sqrt(dof / chi2(dof)) burst factor.  The bursts are heavy-tailed but
    mean-preserving, and the length-T window covariance keeps its block
    Toeplitz Kronecker-plus-diagonal form (off-diagonal blocks scale by
    E[s]^2, diagonal blocks by E[s^2]).
    """
    if not abs(tcoeff) < 1:
        raise ValueError(f"AR coefficient tcoeff must satisfy |tcoeff| < 1, got {tcoeff}")
    if n_frames < 1:
        raise ValueError("need at least one frame")
    root = _root_from_eigh(*np.linalg.eigh(ar1_cov(p, scoeff, "scoeff")))
    rng = np.random.default_rng(seed)
    innov = rng.standard_normal((n_frames, p)) @ root
    frames = np.empty((n_frames, p))
    frames[0] = innov[0]
    damp = np.sqrt(1.0 - tcoeff ** 2)
    for t in range(1, n_frames):
        frames[t] = tcoeff * frames[t - 1] + damp * innov[t]
    if dof is not None:
        if dof <= 0:
            raise ValueError("degrees of freedom must be positive")
        scale = np.sqrt(dof / rng.chisquare(dof, size=n_frames))
        frames = frames * scale[:, None]
    return frames


def inject_anomalies(base, rate: float, magnitude: float, seed: int,
                     mean_length: float = 5.0, width_range=(0.5, 1.0)):
    """Overlay contiguous anomalous episodes on a frame series.

    `base` is an (n, d) array, one frame per row.  Episodes start at a
    hazard calibrated so roughly `rate` of all frames are anomalous and
    last Geometric(1/mean_length) frames.  Each episode adds a sustained
    mean shift of `magnitude` per-coordinate standard deviations (one
    random sign per episode) to a random contiguous block of coordinates,
    mimicking a coherent disturbance moving through part of the field.
    `width_range` gives the block width as a fraction of d; (1.0, 1.0)
    shifts the whole field.

    Returns (series, labels) with frame-level 0/1 labels.
    """
    if not 0 <= rate < 1:
        raise ValueError(f"rate must lie in [0, 1), got {rate}")
    arr = np.asarray(base, dtype=float)
    n, d = arr.shape
    series = arr.copy()
    labels = np.zeros(n, dtype=int)
    if rate == 0:
        return series, labels

    rng = np.random.default_rng(seed)
    hazard = rate / (mean_length * (1.0 - rate))
    std = arr.std(axis=0)
    w_lo = max(1, int(np.ceil(width_range[0] * d)))
    w_hi = max(w_lo, min(d, int(np.floor(width_range[1] * d))))
    t = 0
    while t < n:
        if rng.random() < hazard:
            length = int(rng.geometric(1.0 / mean_length))
            width = int(rng.integers(w_lo, w_hi + 1))
            lo = int(rng.integers(0, d - width + 1))
            picked = np.zeros(d, dtype=bool)
            picked[lo:lo + width] = True
            sign = float(rng.choice([-1.0, 1.0]))
            shift = magnitude * std * picked * sign
            end = min(n, t + length)
            series[t:end] += shift
            labels[t:end] = 1
            t = end
        else:
            t += 1
    return series, labels


# ---------------------------------------------------------------------------
# sample CSV interchange (synth's samples.json sidecar is written by the CLI)

def write_sample_csv(path, sset: SampleSet) -> None:
    """One row per sample, columns x0..x{pT-1}, full float64 precision."""
    files.write_csv(path, [f"x{i}" for i in range(sset.dims.pt)], sset.samples)


def read_sample_csv(path, dims: SpaceTimeDims) -> SampleSet:
    _, data = files.read_csv(path, "sample rows")
    if data.shape[1] != dims.pt:
        raise ValueError(f"{path}: {data.shape[1]} columns do not match pT={dims.pt}")
    return SampleSet(dims, data.shape[0], data, seed=None)
