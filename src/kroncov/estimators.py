"""Covariance estimators for the space-time setting.

The family covers the plain sample covariance, identity-target shrinkage
with a Ledoit-Wolf plug-in intensity, low-rank Kronecker fits of the
rearranged covariance (optionally constrained to block Toeplitz temporal
structure and with the covariance diagonal excluded and refit separately),
and robust variants built from Tyler fixed-point iterations with per-step
shrinkage.  One table maps the CLI names to configured fitters.

Everything is deterministic given the samples and the configuration; the
iterative solvers report convergence instead of failing, so marginal
results stay inspectable downstream.
"""
from __future__ import annotations

import dataclasses
import numbers
import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, toeplitz

from .kron_ops import (
    DenseCovariance,
    SpaceTimeDims,
    compress_diagonals,
    diag_mask,
    expand_diagonals,
    kron_assemble,
    rearrange,
)
from .synth import SampleSet

AUTO = "auto"

# grid and fold count of the cross-validated shrinkage used when rho="auto"
CV_RHO_GRID = (0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5)
CV_FOLDS = 3


@dataclass(frozen=True)
class EstimatorConfig:
    """Free knobs shared by the structured estimators.

    r caps the number of Kronecker terms, beta weights the nuclear-norm
    penalty, rho is an explicit shrinkage intensity or "auto", and the
    toeplitz / diag_correct flags select the structural variants.
    """

    r: int = 1
    beta: float = 0.0
    rho: float | str = AUTO
    toeplitz: bool = False
    diag_correct: bool = False
    tol: float = 1e-6
    max_iter: int = 500

    def __post_init__(self):
        def number(v):
            return isinstance(v, numbers.Real) and not isinstance(v, bool) and abs(v) < np.inf
        count = ("a positive integer",
                 lambda v: number(v) and isinstance(v, numbers.Integral) and v >= 1)
        flag = ("true or false", lambda v: isinstance(v, bool))
        for field, (what, valid) in {
                "r": count, "max_iter": count, "toeplitz": flag, "diag_correct": flag,
                "beta": ("a nonnegative number", lambda v: number(v) and v >= 0),
                "tol": ("a positive number", lambda v: number(v) and v > 0),
                "rho": (f'a number in [0, 1] or "{AUTO}"',
                        lambda v: v == AUTO or number(v) and 0 <= v <= 1),
        }.items():
            if not valid(getattr(self, field)):
                raise ValueError(f"{field} must be {what}, got {getattr(self, field)!r}")


@dataclass(frozen=True)
class ShrinkageIntensity:
    """Convex weight pulling an estimate toward a scaled identity."""

    rho: float

    def __post_init__(self):
        object.__setattr__(self, "rho", float(min(1.0, max(0.0, self.rho))))


@dataclass
class KronModel:
    """Fitted sum-of-Kronecker-products with a diagonal correction term.

    factors holds (weight, temporal, spatial) triples ordered by
    nonincreasing |weight|; both factor matrices have unit Frobenius norm
    and the temporal one carries nonnegative trace.  u is the length-p
    diagonal correction applied as I (x) diag(u).
    """

    dims: SpaceTimeDims
    factors: list
    u: np.ndarray
    objective_trace: list
    config: EstimatorConfig
    converged: bool = True

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        if self.u.shape != (self.dims.p,):
            raise ValueError(f"u has shape {self.u.shape}, expected ({self.dims.p},)")
        weights = [abs(w) for w, _, _ in self.factors]
        if any(a < b - 1e-12 for a, b in zip(weights, weights[1:])):
            raise ValueError("factors must be ordered by nonincreasing |weight|")
        for _, tm, sm in self.factors:
            if abs(np.linalg.norm(tm) - 1.0) > 1e-9 or abs(np.linalg.norm(sm) - 1.0) > 1e-9:
                raise ValueError("factor matrices must have unit Frobenius norm")
        if self.config.toeplitz:
            for _, tm, _ in self.factors:
                prof = toeplitz(tm[:, 0], tm[0, :])
                if np.abs(tm - prof).max() > 1e-12 * max(np.abs(tm).max(), 1e-300):
                    raise ValueError("temporal factor of a Toeplitz fit is not Toeplitz")

    def covariance(self) -> DenseCovariance:
        pairs = [(w * tm, sm) for w, tm, sm in self.factors]
        return kron_assemble(self.dims, pairs, self.u)

    def to_json_dict(self) -> dict:
        return {
            "dims": {"p": self.dims.p, "T": self.dims.T},
            "factors": [
                {"weight": float(w), "temporal": tm.tolist(), "spatial": sm.tolist()}
                for w, tm, sm in self.factors
            ],
            "u": self.u.tolist(),
            "config": dataclasses.asdict(self.config),
            "objective_trace": [float(v) for v in self.objective_trace],
            "converged": bool(self.converged),
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "KronModel":
        dims = SpaceTimeDims(doc["dims"]["p"], doc["dims"]["T"])
        factors = [
            (f["weight"], np.array(f["temporal"], dtype=float), np.array(f["spatial"], dtype=float))
            for f in doc["factors"]
        ]
        return cls(
            dims=dims,
            factors=factors,
            u=np.array(doc["u"], dtype=float),
            objective_trace=list(doc["objective_trace"]),
            config=EstimatorConfig(**doc["config"]),
            converged=doc.get("converged", True),
        )


@dataclass(frozen=True)
class SoftImputeResult:
    z: np.ndarray
    objective_trace: list
    converged: bool
    iterations: int
    final_change: float


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.T)


def _rho_value(rho) -> float:
    if isinstance(rho, ShrinkageIntensity):
        return rho.rho
    return float(rho)


def scm(samples: SampleSet) -> DenseCovariance:
    """Mean-centered sample covariance with 1/n normalization.

    A single sample centers to zero and yields the zero matrix (with a
    warning) so degenerate pipelines fail loudly downstream rather than
    here.
    """
    if samples.n < 1:
        raise ValueError("sample set is empty")
    x = samples.samples - samples.samples.mean(axis=0)
    if samples.n == 1:
        warnings.warn("sample covariance of a single sample is the zero matrix")
    return DenseCovariance(samples.dims, _sym(x.T @ x / samples.n))


def shrink(sigma: DenseCovariance, rho) -> DenseCovariance:
    """(1 - rho) * sigma + rho * (trace(sigma)/pT) * I; preserves the trace."""
    r = _rho_value(rho)
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"rho must lie in [0, 1], got {r}")
    d = sigma.dims.pt
    target = np.trace(sigma.entries) / d
    out = (1.0 - r) * sigma.entries + (r * target) * np.eye(d)
    return DenseCovariance(sigma.dims, out)


def _lw_terms(samples: SampleSet, plugin: DenseCovariance):
    """Dispersion d2 and raw sample-scatter b2bar of the plug-in formula."""
    if samples.n < 2:
        raise ValueError("intensity estimation needs at least two samples")
    d = samples.dims.pt
    if plugin.dims != samples.dims:
        raise ValueError("plugin dims do not match the sample set")
    s = plugin.entries
    n = samples.n
    x = samples.samples - samples.samples.mean(axis=0)
    m = np.trace(s) / d
    d2 = np.sum((s - m * np.eye(d)) ** 2) / d
    # sum_i ||x_i x_i^T - S||^2 = sum_i |x_i|^4 - 2 <S, X^T X> + n ||S||^2: no outer products
    sq_norms = np.einsum("ij,ij->i", x, x)
    total = np.sum(sq_norms ** 2) - 2.0 * np.sum(s * (x.T @ x)) + n * np.sum(s ** 2)
    b2bar = total / (n * n * d)
    return b2bar, d2


def lw_intensity(samples: SampleSet, plugin: DenseCovariance) -> ShrinkageIntensity:
    """Plug-in shrinkage intensity, large-n optimal for the plain SCM.

    With S the plugin and m = trace(S)/d:
        d2 = ||S - m I||_F^2 / d
        b2 = min(d2, (1/(n^2 d)) * sum_i ||x~_i x~_i^T - S||_F^2)
        rho = b2 / d2   (1 if d2 == 0)
    where x~ are the centered samples.  The scatter term measures the
    variance of an unstructured sample average, so for a low-variance
    structured plugin this rho overestimates the oracle value; see
    :func:`dc_kronpca_lw` for the correction applied there.
    """
    b2bar, d2 = _lw_terms(samples, plugin)
    if d2 == 0.0:
        return ShrinkageIntensity(1.0)
    return ShrinkageIntensity(min(b2bar, d2) / d2)


def svt(m: np.ndarray, tau: float, max_rank: int | None = None) -> np.ndarray:
    """Singular value thresholding: soft-threshold by tau, keep at most
    max_rank leading values, reconstruct."""
    if tau < 0:
        raise ValueError("threshold must be nonnegative")
    u, s, vt, _ = _thresholded_svd(m, tau, max_rank)
    return (u * s) @ vt


def _thresholded_svd(m: np.ndarray, tau: float, max_rank: int | None):
    """SVD triples after soft thresholding and rank capping.

    Returns (u, s, vt, nuclear) with numerically-zero components dropped.
    """
    u, s, vt = np.linalg.svd(np.asarray(m, dtype=float), full_matrices=False)
    s_thr = np.maximum(s - tau, 0.0)
    if max_rank is not None:
        s_thr[max_rank:] = 0.0
    top = s_thr[0] if s_thr.size else 0.0
    keep = s_thr > 1e-13 * max(top, 1e-300)
    return u[:, keep], s_thr[keep], vt[keep], float(s_thr.sum())


def soft_impute(b: np.ndarray, mask: np.ndarray, beta: float, cfg: EstimatorConfig) -> SoftImputeResult:
    """Rank-capped nuclear-norm completion of the masked entries of b.

    Iterates Z <- svt(mask*b + (1-mask)*Z, beta/2, r) from Z = 0 until the
    relative Frobenius change drops below cfg.tol.  The recorded objective
    ||mask*(b - Z)||_F^2 + beta*||Z||_* must never increase; a violation
    raises immediately since it indicates a broken proximal step.
    """
    b = np.asarray(b, dtype=float)
    mask = np.asarray(mask, dtype=float)
    if b.shape != mask.shape:
        raise ValueError(f"data shape {b.shape} and mask shape {mask.shape} differ")
    if beta < 0:
        raise ValueError("beta must be nonnegative")

    z = np.zeros_like(b)
    trace: list[float] = []
    converged = False
    change = 0.0
    iterations = 0
    for iterations in range(1, cfg.max_iter + 1):
        filled = mask * b + (1.0 - mask) * z
        u, s, vt, nuclear = _thresholded_svd(filled, beta / 2.0, cfg.r)
        z_new = (u * s) @ vt
        obj = float(np.sum((mask * (b - z_new)) ** 2) + beta * nuclear)
        if trace and obj > trace[-1] + 1e-8 * max(1.0, abs(trace[-1])):
            raise AssertionError(
                f"soft_impute objective increased: {trace[-1]:.12e} -> {obj:.12e}"
            )
        trace.append(obj)
        change = np.linalg.norm(z_new - z) / max(np.linalg.norm(z), 1e-30)
        z = z_new
        if change < cfg.tol:
            converged = True
            break
    if not converged:
        warnings.warn(
            f"soft_impute did not converge in {cfg.max_iter} iterations "
            f"(final relative change {change:.3e})"
        )
    return SoftImputeResult(z, trace, converged, iterations, change)


def _extract_factors(u: np.ndarray, svals: np.ndarray, vt: np.ndarray,
                     dims: SpaceTimeDims, toeplitz_rows: bool) -> list:
    """Turn retained singular triples of a (compressed) rearranged fit into
    normalized (weight, temporal, spatial) triples."""
    p, T = dims.p, dims.T
    factors = []
    for sval, uvec, vvec in zip(svals, u.T, vt):
        if toeplitz_rows:
            tvec = expand_diagonals(uvec[:, None], T)[:, 0]
        else:
            tvec = uvec
        # factors stay exactly as the SVD produced them (no symmetrization:
        # a symmetric covariance may carry antisymmetric (x) antisymmetric
        # pairs, whose product is still symmetric)
        tm = tvec.reshape(T, T, order="F")
        sm = vvec.reshape(p, p, order="F")
        tn = np.linalg.norm(tm)
        sn = np.linalg.norm(sm)
        if tn == 0.0 or sn == 0.0:
            continue
        tm = tm / tn
        sm = sm / sn
        if np.trace(tm) < 0:
            tm, sm = -tm, -sm
        factors.append((float(sval * tn * sn), tm, sm))
    factors.sort(key=lambda f: -abs(f[0]))
    return factors


def _rearranged(sigma: DenseCovariance, toeplitz_rows: bool) -> np.ndarray:
    """Rearranged covariance, compressed to its 2T-1 block diagonals when
    toeplitz_rows is set."""
    r = rearrange(sigma).entries
    return compress_diagonals(r, sigma.dims.T) if toeplitz_rows else r


def kronpca(sigma: DenseCovariance, cfg: EstimatorConfig) -> KronModel:
    """Low-rank Kronecker fit of a covariance by direct SVD.

    With the toeplitz flag the thresholding happens in the compressed
    diagonal space, which makes every temporal factor exactly Toeplitz.
    No diagonal correction: u = 0.
    """
    if cfg.diag_correct:
        raise ValueError("kronpca does not fit a diagonal correction; use dc_kronpca")
    dims = sigma.dims
    base = _rearranged(sigma, cfg.toeplitz)
    u, s, vt, nuclear = _thresholded_svd(base, cfg.beta / 2.0, cfg.r)
    factors = _extract_factors(u, s, vt, dims, cfg.toeplitz)
    fit = (u * s) @ vt
    obj = float(np.sum((base - fit) ** 2) + cfg.beta * nuclear)
    return KronModel(
        dims=dims,
        factors=factors,
        u=np.zeros(dims.p),
        objective_trace=[obj],
        config=cfg,
        converged=True,
    )


def set_diag_correction(sigma: DenseCovariance, lowrank: DenseCovariance) -> np.ndarray:
    """Time-averaged diagonal residual of sigma against a low-rank part,
    floored at zero: u_m = max(0, mean_t [sigma - lowrank]_(t,m),(t,m))."""
    if sigma.dims != lowrank.dims:
        raise ValueError("dims mismatch between covariance and low-rank part")
    p, T = sigma.dims.p, sigma.dims.T
    resid = np.diag(sigma.entries - lowrank.entries).reshape(T, p)
    return np.maximum(resid.mean(axis=0), 0.0)


def dc_kronpca(sigma: DenseCovariance, cfg: EstimatorConfig) -> KronModel:
    """Diagonally corrected Kronecker fit.

    The covariance diagonal is masked out of the rearranged data, the
    remaining entries get a rank-capped nuclear-norm completion (in
    compressed diagonal space when the toeplitz flag is set), and the
    left-over diagonal goes into the I (x) diag(u) term.
    """
    if not cfg.diag_correct:
        raise ValueError("dc_kronpca requires diag_correct=True; use kronpca otherwise")
    dims = sigma.dims
    mask = diag_mask(dims)
    b = _rearranged(sigma, cfg.toeplitz)
    result = soft_impute(b, mask.compressed if cfg.toeplitz else mask.full, cfg.beta, cfg)
    u, s, vt, _ = _thresholded_svd(result.z, 0.0, cfg.r)
    factors = _extract_factors(u, s, vt, dims, cfg.toeplitz)
    lowrank = kron_assemble(dims, [(w * tm, sm) for w, tm, sm in factors])
    uvec = set_diag_correction(sigma, lowrank)
    return KronModel(
        dims=dims,
        factors=factors,
        u=uvec,
        objective_trace=result.objective_trace,
        config=cfg,
        converged=result.converged,
    )


def _model_dof_fraction(model: KronModel) -> float:
    """Effective-parameter fraction of a structured fit.

    A rank-k fit of an (rows x cols) matrix lives on a manifold of
    dimension k*(rows + cols - k); the diagonal correction adds p.  The
    fraction is taken against the T^2 p^2 entries of the full rearranged
    covariance, whose sampling variance the plug-in scatter term measures.
    """
    p, T = model.dims.p, model.dims.T
    rows = (2 * T - 1) if model.config.toeplitz else T * T
    cols = p * p
    k = len(model.factors)
    dof = k * (rows + cols - k) + (p if model.config.diag_correct else 0)
    return min(1.0, dof / (T * T * p * p))


def kron_plugin_intensity(samples: SampleSet, model: KronModel,
                          kron_cov: DenseCovariance) -> ShrinkageIntensity:
    """Plug-in intensity matched to a structured pilot estimate.

    The plug-in scatter b2bar estimates the variance of the unstructured
    SCM; a structured fit retains only its effective-parameter fraction
    of that variance, so b2bar is scaled accordingly (the factor is 1 for
    an unstructured pilot, recovering the plain formula).  The intensity
    is then floored so the shrunk estimate stays positive definite.
    """
    b2bar, d2 = _lw_terms(samples, kron_cov)
    if d2 == 0.0:
        return ShrinkageIntensity(1.0)
    rho = min(b2bar * _model_dof_fraction(model), d2) / d2

    d = samples.dims.pt
    m = np.trace(kron_cov.entries) / d
    lam_min = np.linalg.eigvalsh(kron_cov.entries)[0]
    # conditioning floor: lift the spectrum past the pilot's own negative
    # dip (its factor-noise scale) so the shrunk estimate is safely
    # invertible for downstream quadratic forms
    target = max(1e-3 * m, -lam_min)
    if lam_min < target < m:
        rho_pd = (target - lam_min) / (m - lam_min)
        rho = max(rho, min(1.0, rho_pd))
    return ShrinkageIntensity(rho)


def dc_kronpca_lw(samples: SampleSet, cfg: EstimatorConfig, full_output: bool = False):
    """Diagonally corrected Kronecker fit of the SCM, shrunk toward a
    scaled identity.

    With rho="auto" the intensity is the structured plug-in of
    :func:`kron_plugin_intensity`; an explicit cfg.rho is used verbatim.
    """
    if samples.n < 2:
        raise ValueError("need at least two samples")
    model = dc_kronpca(scm(samples), cfg)
    kron_cov = model.covariance()
    rho = resolve_rho(cfg, lambda: kron_plugin_intensity(samples, model, kron_cov))
    cov = shrink(kron_cov, rho)
    if full_output:
        return cov, {"model": model, "rho": rho.rho,
                     "iterations": len(model.objective_trace),
                     "converged": model.converged}
    return cov


def _normalized_directions(samples: SampleSet) -> np.ndarray:
    x = samples.samples
    sq = np.einsum("ij,ij->i", x, x)
    if np.any(sq == 0.0):
        raise ValueError("a zero sample cannot be normalized to the unit sphere")
    return x / np.sqrt(sq)[:, None]


def _tyler_quad(s: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """s_i^T sigma^{-1} s_i for every row s_i of s."""
    return np.einsum("ij,ji->i", s, cho_solve(cho_factor(sigma), s.T))


def _tyler_average(s: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """(d/n) * sum_i s_i s_i^T / (s_i^T sigma^{-1} s_i), symmetrized."""
    n, d = s.shape
    q = _tyler_quad(s, sigma)
    if not np.all(q > 0):
        raise AssertionError("singular Tyler iterate; cannot happen for rho > 0")
    return _sym((d / n) * (s.T @ (s / q[:, None])))


def _shrunk_tyler_step(scatter: np.ndarray, sigma: np.ndarray, r: float):
    """(1 - r) * (d / trace(scatter)) * scatter + r * I for r in (0, 1], and
    its relative Frobenius change from the previous iterate sigma."""
    if not 0.0 < r <= 1.0:
        raise ValueError(f"rho must lie in (0, 1], got {r}")
    d = scatter.shape[0]
    new = (1.0 - r) * (d / np.trace(scatter)) * scatter + r * np.eye(d)
    return new, np.linalg.norm(new - sigma) / np.linalg.norm(sigma)


def chen_tyler(samples: SampleSet, rho, cfg: EstimatorConfig | None = None,
               full_output: bool = False):
    """Robust shape estimate from shrunk Tyler fixed-point iterations.

    Samples are projected to the unit sphere (making the result invariant
    to per-sample positive rescaling), then iterated from the identity:

        A     = (d/n) sum_i s_i s_i^T / (s_i^T Sigma^{-1} s_i)
        Sigma = (1 - rho) * (d / trace(A)) * A + rho * I

    until the relative Frobenius change falls below cfg.tol.  Every
    iterate has trace d and minimum eigenvalue at least rho.
    """
    cfg = cfg or EstimatorConfig()
    r = _rho_value(rho)
    s = _normalized_directions(samples)
    sigma = np.eye(samples.dims.pt)
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iter + 1):
        sigma, rel = _shrunk_tyler_step(_tyler_average(s, sigma), sigma, r)
        if rel < cfg.tol:
            converged = True
            break
    if not converged:
        warnings.warn(f"chen_tyler did not converge in {cfg.max_iter} iterations")
    cov = DenseCovariance(samples.dims, sigma)
    if full_output:
        return cov, {"iterations": iterations, "converged": converged, "rho": r}
    return cov


def _toeplitz_average(m: np.ndarray) -> np.ndarray:
    """Average a symmetric matrix along its diagonals (Toeplitz projection)."""
    T = m.shape[0]
    prof = np.array([
        0.5 * (np.diagonal(m, o).mean() + np.diagonal(m, -o).mean())
        for o in range(T)
    ])
    return toeplitz(prof)


def kronpca_T(sigma: DenseCovariance) -> np.ndarray:
    """Leading Toeplitz temporal factor of a covariance, repaired to be
    positive definite and normalized to trace T.

    The factor comes from a rank-1 block Toeplitz fit; eigenvalues are
    clipped from below at 1e-8 of the largest, one diagonal-averaging pass
    restores exact Toeplitz structure, and an identity ridge absorbs any
    negative curvature the averaging reintroduced.
    """
    T = sigma.dims.T
    cfg = EstimatorConfig(r=1, beta=0.0, toeplitz=True, diag_correct=False)
    model = kronpca(sigma, cfg)
    if not model.factors:
        raise ValueError("zero covariance has no temporal factor")
    _, tm, _ = model.factors[0]
    lam, vecs = np.linalg.eigh(_sym(tm))
    if lam[-1] <= 0:
        raise ValueError("temporal factor has no positive curvature")
    floor = 1e-8 * lam[-1]
    clipped = _sym((vecs * np.maximum(lam, floor)) @ vecs.T)
    out = _toeplitz_average(clipped)
    lam_min = np.linalg.eigvalsh(out)[0]
    if lam_min < floor:
        out = out + (floor - lam_min) * np.eye(T)
    return out * (T / np.trace(out))


def flipflop_S(sigma_tilde, t_hat: np.ndarray) -> np.ndarray:
    """Closed-form spatial factor with the temporal factor held fixed:
    (1/T) sum_{i,j} [t_hat^{-1}]_{ij} * block(sigma_tilde, j, i)."""
    t_hat = np.asarray(t_hat, dtype=float)
    T = t_hat.shape[0]
    arr = sigma_tilde.entries if isinstance(sigma_tilde, DenseCovariance) else np.asarray(sigma_tilde, dtype=float)
    if arr.shape[0] % T != 0:
        raise ValueError(f"covariance dimension {arr.shape[0]} is not a multiple of T={T}")
    p = arr.shape[0] // T
    try:
        t_inv = cho_solve(cho_factor(t_hat), np.eye(T))
    except np.linalg.LinAlgError as exc:
        raise ValueError("temporal factor must be positive definite") from exc
    blocks = arr.reshape(T, p, T, p)
    return _sym(np.einsum("ij,jaib->ab", t_inv, blocks) / T)


def robust_kronpca(samples: SampleSet, rho, cfg: EstimatorConfig | None = None,
                   full_output: bool = False):
    """Robust Kronecker shape estimation with per-step shrinkage.

    Starting from the plain robust shape estimate, alternate between
    extracting the Toeplitz temporal factor of the current Tyler average
    and running shrunk Tyler iterations whose scatter is projected onto
    temporal (x) spatial form via the closed-form spatial update.  The
    inner loop stops on the relative change of the shrunk estimate, the
    outer loop on the relative change of the temporal factor.
    """
    cfg = cfg or EstimatorConfig()
    r = _rho_value(rho)
    dims = samples.dims
    s = _normalized_directions(samples)

    sigma_hat = chen_tyler(samples, r, cfg).entries.copy()
    sigma_tilde = sigma_hat
    t_prev = None
    converged = False
    outer = 0
    inner_total = 0
    for outer in range(1, cfg.max_iter + 1):
        t_hat = kronpca_T(DenseCovariance(dims, _sym(sigma_tilde)))
        if t_prev is not None:
            rel_t = np.linalg.norm(t_hat - t_prev) / np.linalg.norm(t_prev)
            if rel_t < cfg.tol:
                converged = True
                break
        t_prev = t_hat
        for _ in range(cfg.max_iter):
            inner_total += 1
            sigma_tilde = _tyler_average(s, sigma_hat)
            kron = np.kron(t_hat, flipflop_S(sigma_tilde, t_hat))
            sigma_hat, rel = _shrunk_tyler_step(kron, sigma_hat, r)
            if rel < cfg.tol:
                break
    if not converged:
        warnings.warn(f"robust_kronpca did not converge in {cfg.max_iter} outer iterations")
    cov = DenseCovariance(dims, _sym(sigma_hat))
    if full_output:
        info = {
            "iterations": outer,
            "inner_iterations": inner_total,
            "converged": converged,
            "rho": r,
        }
        return cov, info
    return cov


def kron_spectrum(sigma: DenseCovariance, toeplitz_rows: bool = True):
    """Normalized Kronecker and PCA spectra of a covariance.

    Returns (kron_sv, pca_ev): the singular values of the (compressed)
    rearranged matrix and the eigenvalues of the covariance, each divided
    by the root of its summed squares and sorted nonincreasing.
    """
    sv = np.linalg.svd(_rearranged(sigma, toeplitz_rows), compute_uv=False)
    ev = np.sort(np.linalg.eigvalsh(sigma.entries))[::-1]

    def _normalize(v):
        total = np.sqrt(np.sum(v ** 2))
        return v / total if total > 0 else v

    return _normalize(sv), _normalize(ev)


def components_for_energy(spectrum: np.ndarray, fraction: float = 0.95) -> int:
    """Smallest leading component count whose squared mass reaches `fraction`."""
    energy = np.cumsum(np.asarray(spectrum, dtype=float) ** 2)
    total = energy[-1]
    if total <= 0:
        return 0
    return int(np.searchsorted(energy, fraction * total - 1e-12) + 1)


# ---------------------------------------------------------------------------
# shrinkage intensity selection for the robust estimators

def _acg_loglik(directions: np.ndarray, sigma: np.ndarray) -> float:
    """Angular log-likelihood of unit vectors under a shape matrix
    (additive constants dropped)."""
    d = sigma.shape[0]
    sign, logdet = np.linalg.slogdet(sigma)
    if sign <= 0:
        return -np.inf
    q = _tyler_quad(directions, sigma)
    return float(-0.5 * directions.shape[0] * logdet - 0.5 * d * np.sum(np.log(q)))


def cv_shrinkage_intensity(samples: SampleSet, fitter, cfg: EstimatorConfig) -> ShrinkageIntensity:
    """Pick rho from CV_RHO_GRID by held-out direction likelihood.

    `fitter(samples, rho, cfg)` must return a DenseCovariance.  Folds are
    deterministic stride splits, so selection is reproducible.
    """
    n = samples.n
    folds = max(2, min(CV_FOLDS, n))
    directions = _normalized_directions(samples)
    scores = np.zeros(len(CV_RHO_GRID))
    for k in range(folds):
        hold = np.zeros(n, dtype=bool)
        hold[k::folds] = True
        if hold.all() or not hold.any():
            continue
        train = SampleSet(samples.dims, int((~hold).sum()), samples.samples[~hold])
        held = directions[hold]
        for gi, rho in enumerate(CV_RHO_GRID):
            cov = fitter(train, rho, cfg)
            scores[gi] += _acg_loglik(held, cov.entries)
    return ShrinkageIntensity(float(CV_RHO_GRID[int(np.argmax(scores))]))


def resolve_rho(cfg: EstimatorConfig, auto: Callable[[], ShrinkageIntensity]) -> ShrinkageIntensity:
    """cfg.rho taken verbatim, or the intensity auto() selects when it is "auto"."""
    if cfg.rho == AUTO:
        return auto()
    return ShrinkageIntensity(float(cfg.rho))


# ---------------------------------------------------------------------------
# named estimator table (shared by the CLI and the benchmark harness)

@dataclass(frozen=True)
class EstimatorSpec:
    """A named estimator: config defaults applied before user overrides,
    fit(samples, cfg) -> (covariance, info), whether the output is a
    trace-normalized shape, and the smallest sample count fit accepts."""

    defaults: dict
    fit: Callable
    shape: bool = False
    min_n: int = 1


# The fits name the module-level estimators inside their bodies, so a
# rebinding of those names (as a tracer does) is seen at call time.
def _fit_scm_lw(samples, cfg):
    base = scm(samples)
    rho = resolve_rho(cfg, lambda: lw_intensity(samples, base))
    return shrink(base, rho), {"rho": rho.rho}


def _fit_kronpca(samples, cfg):
    model = kronpca(scm(samples), cfg)
    return model.covariance(), {"model": model, "iterations": len(model.objective_trace),
                                "converged": model.converged}


def _fit_tyler(samples, cfg, fitter):
    rho = resolve_rho(cfg, lambda: cv_shrinkage_intensity(samples, fitter, cfg))
    return fitter(samples, rho, cfg, full_output=True)


ESTIMATORS = {
    "scm": EstimatorSpec({}, lambda samples, cfg: (scm(samples), {})),
    "scm-lw": EstimatorSpec({}, _fit_scm_lw, min_n=2),
    "kronpca": EstimatorSpec({"toeplitz": False, "diag_correct": False}, _fit_kronpca),
    "dc-kronpca-lw": EstimatorSpec(
        {"toeplitz": True, "diag_correct": True},
        lambda samples, cfg: dc_kronpca_lw(samples, cfg, full_output=True), min_n=2),
    "chen-tyler": EstimatorSpec(
        {}, lambda samples, cfg: _fit_tyler(samples, cfg, chen_tyler), shape=True),
    "tyler-kronpca": EstimatorSpec(
        {}, lambda samples, cfg: _fit_tyler(samples, cfg, robust_kronpca), shape=True),
}


def _estimator_spec(name: str) -> EstimatorSpec:
    if name not in ESTIMATORS:
        raise ValueError(f"unknown estimator {name!r}; known: {sorted(ESTIMATORS)}")
    return ESTIMATORS[name]


def make_config(name: str, overrides: dict | None = None) -> EstimatorConfig:
    defaults = _estimator_spec(name).defaults
    cfg = EstimatorConfig(**{**defaults, **(overrides or {})})
    # a diag_correct default is what tells kronpca and dc-kronpca-lw apart
    if cfg.diag_correct != defaults.get("diag_correct", cfg.diag_correct):
        raise ValueError(f"diag_correct={cfg.diag_correct} contradicts the estimator's own value")
    return cfg


def require_samples(name: str, n: int) -> None:
    """Raise ValueError when n is below the named estimator's minimum."""
    need = _estimator_spec(name).min_n
    if n < need:
        raise ValueError(f"estimator {name!r} needs n >= {need} samples, got n={n}")


def fit_by_name(name: str, samples: SampleSet, cfg: EstimatorConfig | dict | None = None):
    """Run a named estimator; returns (covariance, info dict).

    info carries iterations, convergence, the resolved shrinkage
    intensity where one applies, and the fitted KronModel for the
    Kronecker methods.
    """
    if not isinstance(cfg, EstimatorConfig):
        cfg = make_config(name, cfg)
    require_samples(name, samples.n)
    cov, fit_info = ESTIMATORS[name].fit(samples, cfg)
    info = {"estimator": name, "iterations": 0, "converged": True,
            "rho": None, "model": None, **fit_info}
    return cov, info
