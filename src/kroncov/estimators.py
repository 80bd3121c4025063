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

from .kron_ops import (
    DenseCovariance,
    GramCovariance,
    KronCovariance,
    SpaceTimeDims,
    _kept,
    compress_diagonals,
    diag_mask,
    expand_diagonals,
    rearrange,
)
from .synth import SampleSet

AUTO = "auto"

# grid and fold count of the cross-validated shrinkage used when rho="auto"
CV_RHO_GRID = (0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5)
CV_FOLDS = 3
# eigenvalues of the reduced completion's Gram at or below this fraction of its trace are rank-zero
RANK_FLOOR = 1e-13


@dataclass(frozen=True)
class EstimatorConfig:
    """Free knobs shared by the structured estimators.

    r caps the number of Kronecker terms, beta weights the nuclear-norm
    penalty, rho is an explicit shrinkage intensity or "auto", and the
    toeplitz / diag_correct flags select the structural variants.  Every
    iterative solver stops at the first step whose relative change is below
    tol, or after max_iter steps (:func:`_fixed_point`).
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
        # NaN fails every comparison below, so non-finite entries are caught here
        if not np.isfinite(self.u).all():
            raise ValueError("u must be finite (found NaN or inf)")
        for i, (w, tm, sm) in enumerate(self.factors):
            if not (np.isfinite(w) and np.isfinite(tm).all() and np.isfinite(sm).all()):
                raise ValueError(f"factors[{i}] must be finite (found NaN or inf)")
        weights = [abs(w) for w, _, _ in self.factors]
        if any(a < b - 1e-12 for a, b in zip(weights, weights[1:])):
            raise ValueError("factors must be ordered by nonincreasing |weight|")
        for _, tm, sm in self.factors:
            if abs(np.linalg.norm(tm) - 1.0) > 1e-9 or abs(np.linalg.norm(sm) - 1.0) > 1e-9:
                raise ValueError("factor matrices must have unit Frobenius norm")
        if self.config.toeplitz:
            for _, tm, _ in self.factors:
                lags = np.subtract.outer(np.arange(len(tm)), np.arange(len(tm)))  # i - j
                prof = np.where(lags >= 0, tm[np.abs(lags), 0], tm[0, np.abs(lags)])
                if np.abs(tm - prof).max() > 1e-12 * max(np.abs(tm).max(), 1e-300):
                    raise ValueError("temporal factor of a Toeplitz fit is not Toeplitz")

    def covariance(self) -> KronCovariance:
        return KronCovariance(self.dims, [(w * tm, sm) for w, tm, sm in self.factors], self.u)

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
    """The completion z, its objective trace and stop state, and the
    thresholded SVD triples (u, s, vt) with z = (u * s) @ vt."""

    z: np.ndarray
    objective_trace: list
    converged: bool
    iterations: int
    final_change: float
    triples: tuple


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.T)


def _rho_value(rho) -> float:
    if isinstance(rho, ShrinkageIntensity):
        return rho.rho
    return float(rho)


def scm(samples: SampleSet) -> DenseCovariance | GramCovariance:
    """The mean-centered, 1/n sample covariance the set keeps (:meth:`SampleSet.covariance`)."""
    return samples.covariance()


def shrink(sigma, rho):
    """(1 - rho) * sigma + rho * (trace(sigma)/pT) * I; preserves the trace.

    The form's own affine map keeps the form: a KronCovariance scales its
    pairs by 1 - rho and takes the identity into its diagonal term, and a
    GramCovariance a I + b S becomes ((1 - rho) a + rho m, (1 - rho) b).
    """
    r = _rho_value(rho)
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"rho must lie in [0, 1], got {r}")
    return sigma.affine(1.0 - r, r * (sigma.trace() / sigma.dims.pt))


def _lw_terms(samples: SampleSet, plugin):
    """Dispersion d2 and raw sample-scatter b2bar of the plug-in formula.

    Any pilot answers through trace, frobenius_sq and quad_sum
    (<S, X^T X> = sum_i x_i^T S x_i), and ||S - m I||^2 = ||S||^2 - pT m^2,
    floored at 0 so a numerically scaled-identity pilot keeps d2 >= 0.
    The centered rows X are the set's own (:meth:`SampleSet.centered`).
    """
    if samples.n < 2:
        raise ValueError("intensity estimation needs at least two samples")
    d = samples.dims.pt
    if plugin.dims != samples.dims:
        raise ValueError("plugin dims do not match the sample set")
    n = samples.n
    x = samples.centered()
    m = plugin.trace() / d
    s_sq = plugin.frobenius_sq()
    d2 = max(s_sq - d * m * m, 0.0) / d
    # sum_i ||x_i x_i^T - S||^2 = sum_i |x_i|^4 - 2 <S, X^T X> + n ||S||^2: no outer products
    sq_norms = np.einsum("ij,ij->i", x, x)
    total = np.sum(sq_norms ** 2) - 2.0 * plugin.quad_sum(x) + n * s_sq
    b2bar = total / (n * n * d)
    return b2bar, d2


def lw_intensity(samples: SampleSet, plugin) -> ShrinkageIntensity:
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
    """SVD triples after soft thresholding and rank capping (:func:`_lifted_svd`),
    on the short side: with a = m or m^T, whichever has fewer rows, of the Gram
    a a^T lifted through a."""
    m = np.asarray(m, dtype=float)
    a = m if m.shape[0] <= m.shape[1] else m.T
    u, s, vt, nuclear = _lifted_svd(a @ a.T, lambda left: left.T @ a, tau, max_rank)
    return (u, s, vt, nuclear) if a is m else (vt.T, s, u.T, nuclear)


def _lifted_svd(gram: np.ndarray, lift, tau: float, max_rank: int | None):
    """SVD triples of a matrix a after soft thresholding and rank capping, from
    its Gram a a^T and lift(left) = left^T a.

    Returns (u, s, vt, nuclear) with numerically-zero components dropped.
    An eigh of the Gram gives the left vectors u_i of a, of which only the
    max_rank leading ones are lifted: sigma_i is the Rayleigh-Ritz value
    ||a^T u_i||, the right vector a^T u_i / sigma_i.  Values are within about
    eps * sigma_1 of the exact ones, except that an exact zero reads about
    eps * sigma_1^2 / sigma_min, sigma_min the smallest nonzero value: when
    that is below about 1e-4 sigma_1, lifting more vectors than the input's
    rank can keep such a spurious component (with a non-orthogonal vector;
    the reconstruction stays accurate).  Every fit lifts at most cfg.r.
    """
    _, left = np.linalg.eigh(gram)  # ascending: the leading vectors come last
    if max_rank is not None:
        left = left[:, max(left.shape[1] - max_rank, 0):]
    w = lift(left)
    s = np.linalg.norm(w, axis=1)
    order = np.argsort(-s, kind="stable")
    s_thr = np.maximum(s[order] - tau, 0.0)
    top = s_thr[0] if s_thr.size else 0.0
    keep = s_thr > 1e-13 * max(top, 1e-300)
    rows = order[keep]
    return left[:, rows], s_thr[keep], w[rows] / s[rows, None], float(s_thr.sum())


def _fixed_point(step, state, cfg: EstimatorConfig, name: str | None = None):
    """Iterate state, change = step(state) until the first change below cfg.tol, at most
    cfg.max_iter steps.  Returns (state, steps, converged, the last change); a named run
    that stops at max_iter warns."""
    for steps in range(1, cfg.max_iter + 1):
        state, change = step(state)
        if change < cfg.tol:
            return state, steps, True, change
    if name is not None:
        warnings.warn(f"{name} did not converge in {cfg.max_iter} iterations "
                      f"(final relative change {change:.3e})")
    return state, steps, False, change


def soft_impute(b: np.ndarray, mask: np.ndarray, beta: float, cfg: EstimatorConfig) -> SoftImputeResult:
    """Rank-capped nuclear-norm completion of the masked entries of b.

    Iterates Z <- svt(b where mask is 1, Z where it is 0; beta/2, r) from
    Z = 0 until the relative Frobenius change drops below cfg.tol.  The
    objective ||mask*(b - Z)||_F^2 + beta*||Z||_* must never increase; a
    violation raises immediately since it indicates a broken proximal step.
    """
    b = np.asarray(b, dtype=float)
    mask = np.asarray(mask)
    if b.shape != mask.shape:
        raise ValueError(f"data shape {b.shape} and mask shape {mask.shape} differ")
    observed = mask == 1
    stray = mask[~observed & (mask != 0)]
    if stray.size:
        raise ValueError(f"mask entries must be exactly 0 or 1, found {stray[0]}")
    if beta < 0:
        raise ValueError("beta must be nonnegative")

    trace: list[float] = []

    def step(state):
        z, _ = state
        u, s, vt, nuclear = _thresholded_svd(np.where(observed, b, z), beta / 2.0, cfg.r)
        z_new = (u * s) @ vt
        obj = float(np.sum(np.where(observed, b - z_new, 0.0) ** 2) + beta * nuclear)
        if trace and obj > trace[-1] + 1e-8 * max(1.0, abs(trace[-1])):
            raise AssertionError(
                f"soft_impute objective increased: {trace[-1]:.12e} -> {obj:.12e}"
            )
        trace.append(obj)
        return (z_new, (u, s, vt)), np.linalg.norm(z_new - z) / max(np.linalg.norm(z), 1e-30)

    (z, triples), iterations, converged, change = _fixed_point(
        step, (np.zeros_like(b), ()), cfg, "soft_impute")
    return SoftImputeResult(z, trace, converged, iterations, change, triples)


def _extract_factors(u: np.ndarray, svals: np.ndarray, vt: np.ndarray,
                     dims: SpaceTimeDims, toeplitz_rows: bool) -> list:
    """Turn retained singular triples of a (compressed) rearranged fit into
    normalized (weight, temporal, spatial) triples."""
    p, T = dims.p, dims.T
    factors = []
    for sval, tvec, vvec in zip(svals, (expand_diagonals(u, T) if toeplitz_rows else u).T, vt):
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


def _rearranged_lift(sigma, toeplitz_rows: bool):
    """lift(left) = left^T B for B the (compressed) rearranged matrix of sigma, one
    spatial_contract per column u of left: B^T u is the column-major vec of sum_ij U_ij
    block(i, j), U the T x T grid of u (spread from its diagonals first when compressed,
    as C^T is expand_diagonals for the compression C)."""
    p, T = sigma.dims.p, sigma.dims.T

    def lift(left):
        grids = expand_diagonals(left, T) if toeplitz_rows else left
        lifted = [sigma.spatial_contract(g.reshape(T, T, order="F")).ravel(order="F") for g in grids.T]
        return np.array(lifted).reshape(len(lifted), p * p)
    return lift


def kronpca(sigma, cfg: EstimatorConfig) -> KronModel:
    """Low-rank Kronecker fit of a covariance by direct SVD (Tsiligkaridis & Hero) of its
    rearranged matrix B, read through the form: the left vectors from one eigh of
    rearranged_gram, the right ones lifted by spatial_contract (:func:`_rearranged_lift`).

    With the toeplitz flag the thresholding happens in the compressed
    diagonal space, which makes every temporal factor exactly Toeplitz.
    No diagonal correction: u = 0.  With s_i = sigma_i - beta/2 the kept
    values of B, the objective ||B - fit||_F^2 + beta ||fit||_* reduces to
    tr(B B^T) - sum_i s_i^2.
    """
    if cfg.diag_correct:
        raise ValueError("kronpca does not fit a diagonal correction; use dc_kronpca")
    dims = sigma.dims
    gram = sigma.rearranged_gram(cfg.toeplitz)
    u, s, vt, _ = _lifted_svd(gram, _rearranged_lift(sigma, cfg.toeplitz), cfg.beta / 2.0, cfg.r)
    return KronModel(
        dims=dims,
        factors=_extract_factors(u, s, vt, dims, cfg.toeplitz),
        u=np.zeros(dims.p),
        objective_trace=[max(float(np.trace(gram) - s @ s), 0.0)],
        config=cfg,
    )


def _reduced_completion(gram: np.ndarray, b_j: np.ndarray, rows, cols, lift, cfg: EstimatorConfig):
    """soft_impute of B with the entries B[rows][:, cols] hidden, run on a matrix with the
    same Gram, from B's Gram and its hidden columns b_J = B[:, cols] alone.

    The columns of B that hold no hidden entry (b_rest) enter every iteration
    only through b_rest b_rest^T = gram - b_J b_J^T, which is PSD, so they are
    replaced by K, its symmetric root.  Its eigenvalues at or below RANK_FLOOR
    tr(gram) are clipped to 0: the subtraction leaves a few eps tr(gram) of
    rounding where b_rest has no rank (no rest columns at p = 1, or few
    samples), which a root would lift to about 1e-8 |B|.  As
    K K^T = b_rest b_rest^T, every iteration on [K | b_J] has in exact
    arithmetic the same singular values, left vectors, hidden entries,
    objective and relative change as on B, hence the same iteration count.
    The right vectors are lifted once at the end: lift(u) / (s + beta/2)
    (the raw singular values of the last iterate, whose observed columns
    are B's), with the reduced ones on the hidden columns.

    Returns (the reduced run's SoftImputeResult, (u, s, vt) of the full width).
    """
    lam, vecs = np.linalg.eigh(gram - b_j @ b_j.T)
    lam[lam <= RANK_FLOOR * np.trace(gram)] = 0.0
    root = (vecs * np.sqrt(lam)) @ vecs.T
    width = root.shape[1]
    mask = np.ones((len(root), width + len(cols)))
    mask[rows, width:] = 0.0
    result = soft_impute(np.hstack([root, b_j]), mask, cfg.beta, cfg)
    u, s, vt_reduced = result.triples
    vt = lift(u) / (s + cfg.beta / 2.0)[:, None]
    vt[:, cols] = vt_reduced[:, width:]
    return result, (u, s, vt)


def dc_kronpca(sigma, cfg: EstimatorConfig) -> KronModel:
    """Diagonally corrected Kronecker fit (Greenewald & Hero).

    The covariance diagonal, whose rearranged positions :func:`diag_mask`
    gives by index, is hidden from the rearranged data, the remaining
    entries get a rank-capped nuclear-norm completion (in compressed
    diagonal space when the toeplitz flag is set), and the completion's
    residual on the hidden entries, averaged over the T frames (T raw rows,
    or one compressed row holding their sum / sqrt(T)) and floored at zero,
    goes into the I (x) diag(u) term, so no pT x pT matrix is formed.
    The completion runs on a reduced matrix with the same Gram
    (:func:`_reduced_completion`), built from the form's rearranged_gram and
    hidden_columns; the right vectors are lifted by spatial_contract, with
    the completed values on the hidden diagonal.
    """
    if not cfg.diag_correct:
        raise ValueError("dc_kronpca requires diag_correct=True; use kronpca otherwise")
    dims = sigma.dims
    rows, cols = diag_mask(dims)
    hidden = [dims.T - 1] if cfg.toeplitz else rows
    b_j = sigma.hidden_columns(cfg.toeplitz)
    result, triples = _reduced_completion(sigma.rearranged_gram(cfg.toeplitz), b_j, hidden, cols,
                                          _rearranged_lift(sigma, cfg.toeplitz), cfg)
    gap = b_j[hidden] - result.z[hidden, -len(cols):]
    return KronModel(
        dims=dims,
        factors=_extract_factors(*triples, dims, cfg.toeplitz),
        u=np.maximum(gap.sum(axis=0) / np.sqrt(dims.T * len(hidden)), 0.0),
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
                          kron_cov: KronCovariance) -> ShrinkageIntensity:
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
    m = kron_cov.trace() / d
    lam_min = kron_cov.extremes()[0]
    # conditioning floor: lift the spectrum past the pilot's own negative
    # dip (its factor-noise scale) so the shrunk estimate is safely
    # invertible for downstream quadratic forms; a dip as deep as the mean
    # eigenvalue m cannot be lifted past, and the floor shrinks fully to m I
    target = max(1e-3 * m, -lam_min)
    if lam_min < min(target, m):
        rho_pd = (target - lam_min) / (m - lam_min)
        rho = max(rho, min(1.0, rho_pd))
    return ShrinkageIntensity(rho)


def dc_kronpca_lw(samples: SampleSet, cfg: EstimatorConfig, full_output: bool = False):
    """Diagonally corrected Kronecker fit of the SCM, shrunk toward a
    scaled identity.

    With rho="auto" the intensity is the structured plug-in of
    :func:`kron_plugin_intensity`; an explicit cfg.rho is used verbatim.
    The estimate is a KronCovariance: the shrunk factors and diagonal.
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
    zero = np.flatnonzero(sq == 0.0)
    if zero.size:
        raise ValueError(f"a zero sample (row {zero[0]}) cannot be normalized to the unit sphere")
    return x / np.sqrt(sq)[:, None]


def _tyler_preamble(samples: SampleSet, rho, cfg: EstimatorConfig | None):
    """(cfg or the default, rho as a float, the unit directions); ValueError unless 0 < rho <= 1."""
    cfg = cfg or EstimatorConfig()
    r = _rho_value(rho)
    s = _normalized_directions(samples)
    if not 0.0 < r <= 1.0:
        raise ValueError(f"rho must lie in (0, 1], got {r}")
    return cfg, r, s


def chen_tyler(samples: SampleSet, rho, cfg: EstimatorConfig | None = None,
               full_output: bool = False, start=None):
    """Robust shape estimate from shrunk Tyler fixed-point iterations.

    Samples are projected to the unit sphere (making the result invariant
    to per-sample positive rescaling), then iterated from the identity, or
    from the covariance form `start` where one is given:

        A     = (d/n) sum_i s_i s_i^T / (s_i^T Sigma^{-1} s_i)
        Sigma = (1 - rho) * (d / trace(A)) * A + rho * I

    with A the rows form GramCovariance(s_i / sqrt(q_i), 0, d) made dense, q_i from the iterate's
    own solve, until Sigma.relative_change(old Sigma) falls below cfg.tol
    (:func:`_fixed_point`).  Every iterate has trace d and minimum eigenvalue at least rho.
    The info of full_output carries `warm_start`, the estimate, which a fit at a
    nearby rho on the same samples may take as its `start`.
    """
    cfg, r, s = _tyler_preamble(samples, rho, cfg)
    d = samples.dims.pt
    if start is None:
        start = DenseCovariance.adopt(samples.dims, np.eye(d))
    else:
        _check_start(samples, start)

    def step(sigma):
        q, _ = sigma.inverse_quad_forms(s)
        if not np.all(q > 0):
            raise AssertionError("singular Tyler iterate; cannot happen for rho > 0")
        average = GramCovariance.adopt(sigma.dims, s / np.sqrt(q)[:, None], 0.0, d).to_dense()
        new = average.affine((1.0 - r) * (d / average.trace()), r)
        return new, new.relative_change(sigma)

    cov, iterations, converged, _ = _fixed_point(step, start, cfg, "chen_tyler")
    if full_output:
        return cov, {"iterations": iterations, "converged": converged, "rho": r,
                     "warm_start": cov}
    return cov


def _check_start(samples: SampleSet, *forms) -> None:
    for form in forms:
        if form.dims != samples.dims:
            raise ValueError(f"a start of dims {form.dims} does not match the samples' {samples.dims}")


def kronpca_T(sigma) -> np.ndarray:
    """Leading Toeplitz temporal factor of a covariance, repaired to be
    positive definite and normalized to trace T.

    The factor is the temporal one of :func:`kronpca`'s rank-1 Toeplitz fit,
    the leading left singular vector of the compressed rearranged matrix
    (Van Loan & Pitsianis), so one eigh of the form's rearranged_gram
    determines it and no spatial factor is lifted.  Expanded from its
    diagonals, scaled to unit norm and flipped to a nonnegative trace as
    :func:`_extract_factors` does, it is symmetrized, which keeps it exactly
    Toeplitz.  An identity ridge, which keeps it Toeplitz too, lifts its
    smallest eigenvalue to 1e-8 of the largest where it lies below that.
    """
    T = sigma.dims.T
    lam, left = np.linalg.eigh(sigma.rearranged_gram(True))
    if not lam[-1] > 0:
        raise ValueError("zero covariance has no temporal factor")
    tm = expand_diagonals(left[:, -1:], T).reshape(T, T, order="F")
    tm = tm / np.linalg.norm(tm)
    tm = _sym(-tm if np.trace(tm) < 0 else tm)
    lam = np.linalg.eigvalsh(tm)
    if lam[-1] <= 0:
        raise ValueError("temporal factor has no positive curvature")
    floor = 1e-8 * lam[-1]
    if lam[0] < floor:
        tm = tm + (floor - lam[0]) * np.eye(T)
    return tm * (T / np.trace(tm))


def flipflop_S(sigma_tilde, t_hat: np.ndarray) -> np.ndarray:
    """Closed-form spatial factor with the temporal factor held fixed: (1/T) sum_{i,j}
    [t_hat^{-1}]_{ij} * block(sigma_tilde, j, i), t_hat T x T for the form's T, by the form's own
    spatial_contract (no form assembled); :func:`_kron_tyler_loop` takes it in t_hat's eigenbasis."""
    T = sigma_tilde.dims.T
    t_hat = np.asarray(t_hat, dtype=float)
    if t_hat.shape != (T, T):
        raise ValueError(f"temporal factor of shape {t_hat.shape} is not T x T for T={T}")
    try:
        chol_inv = np.linalg.inv(np.linalg.cholesky(t_hat))
    except np.linalg.LinAlgError as exc:
        raise ValueError("temporal factor must be positive definite") from exc
    return _sym(sigma_tilde.spatial_contract((chol_inv.T @ chol_inv).T) / T)


def _kron_tyler_loop(s: np.ndarray, t_hat: np.ndarray, sigma, q: np.ndarray, rho: float,
                     cfg: EstimatorConfig):
    """Shrunk Tyler steps with P = t_hat (x) flipflop_S(A, t_hat) from the q of the iterate sigma, in
    t_hat = V diag(lam) V^T's eigenbasis: with each unit row's T x p frame X_k rotated once to Y_k =
    V^T X_k, S' = (d/(nT)) sum_k Y_k^T diag(lam)^-1 Y_k / q_k (one exactly symmetric product), the
    iterate c' t_hat (x) S' + rho I with c' = (1 - rho) d / (tr t_hat tr S'), and its q_k = sum_tj
    (Y_k W)_tj^2 / (c' lam_t sig_j + rho) for one eigh S' = W diag(sig) W^T, until the change
    |t_hat| |c' S' - c S| / |c t_hat (x) S + rho I| (the first: relative_change against sigma) falls
    below cfg.tol.  Returns (the last iterate, its Tyler average A, steps, converged, its q)."""
    (n, d), (p, T) = s.shape, (sigma.dims.p, sigma.dims.T)
    lam, v = np.linalg.eigh(t_hat)
    if not lam.min() > 0:
        raise ValueError("temporal factor must be positive definite")
    y = (v.T @ s.reshape(n, T, p).transpose(1, 0, 2).reshape(T, -1)).reshape(-1, p)
    scale = np.sqrt(d / (n * T) / lam)[:, None, None]
    tr_t, t_sq = np.trace(t_hat), np.vdot(t_hat, t_hat)
    # the step's two nT x p products are kept across steps: freed as each step returned, their pages
    # went back to the system and were faulted in again (46 minor faults per step at p=20, T=5, n=200)
    z, yw = np.empty((2, T * n, p))

    def step(state):
        c, s_hat, q, _ = state
        if not np.all(q > 0):
            raise AssertionError("singular Tyler iterate; cannot happen for rho > 0")
        np.multiply(y.reshape(T, n, p), scale / np.sqrt(q)[:, None], out=z.reshape(T, n, p))
        s_new = z.T @ z
        c_new = (1.0 - rho) * d / (tr_t * np.trace(s_new))
        if c is None:
            change = KronCovariance(sigma.dims, [(c_new * t_hat, s_new)], rho).relative_change(sigma)
        else:
            change = np.sqrt(t_sq) * np.linalg.norm(c_new * s_new - c * s_hat) / np.sqrt(
                c * c * t_sq * np.vdot(s_hat, s_hat) + 2.0 * c * rho * tr_t * np.trace(s_hat) + rho * rho * d)
        sig, w = np.linalg.eigh(s_new)
        mu = c_new * lam[:, None] * sig + rho
        if not mu.min() > 0:
            raise np.linalg.LinAlgError("covariance is not positive definite")
        np.square(np.matmul(y, w, out=yw), out=yw)
        return (c_new, s_new, np.einsum("tkj,tj->k", yw.reshape(T, n, p), 1.0 / mu), q), change

    (c, s_hat, q, q_used), steps, converged, _ = _fixed_point(step, (None, None, q, None), cfg)
    average = GramCovariance.adopt(sigma.dims, s / np.sqrt(q_used)[:, None], 0.0, d)
    return KronCovariance(sigma.dims, [(c * t_hat, s_hat)], rho), average, steps, converged, q


def robust_kronpca(samples: SampleSet, rho, cfg: EstimatorConfig | None = None,
                   full_output: bool = False, start=None):
    """Robust Kronecker shape estimation with per-step shrinkage.

    Starting from the plain robust shape estimate (:func:`chen_tyler`),
    alternate between extracting the Toeplitz temporal factor of the
    current Tyler average and running shrunk Tyler iterations whose
    scatter is projected onto temporal (x) spatial form via the
    closed-form spatial update.  The inner loop stops on the relative
    change of the shrunk estimate, the outer loop on the relative change
    of the temporal factor; the reported `converged` holds when the start,
    every inner loop and the outer loop converged.

    The inner loop (:func:`_kron_tyler_loop`) takes P = T (x) flipflop_S(Tyler average A, T) in T's
    eigenbasis, so each iterate is (1 - rho) (pT / tr P) P + rho I: trace pT, minimum eigenvalue >= rho,
    one p x p eigh per step, its change exact.  Only the start is solved as a form; each loop hands
    on the q of its last iterate, and kronpca_T reads its last A.  The last iterate is the estimate.

    `start`, a pair (estimate, Tyler average) of an earlier fit, replaces the
    chen_tyler start and its estimate as the first average, and counts as
    converged; the info of full_output carries this fit's own pair as `warm_start`.
    The temporal factor is kept on the average it was read from, so a fit warm-started
    from a converged one reads its last factor back instead of computing it again.
    """
    cfg, r, s = _tyler_preamble(samples, rho, cfg)
    if start is None:
        sigma_hat, start_info = chen_tyler(samples, r, cfg, full_output=True)
        average, start_converged = sigma_hat, start_info["converged"]
    else:
        (sigma_hat, average), start_converged = start, True
        _check_start(samples, sigma_hat, average)
    q = sigma_hat.inverse_quad_forms(s)[0]  # the start's own solve; each inner loop returns the next

    def step(state):
        # the change of the temporal factor is tested first, so the step that converges runs no inner loop
        sigma_hat, average, q, t_prev, inner_total, inner_converged = state
        t_hat = _kept(average.__dict__, "_temporal_factor", lambda: kronpca_T(average))
        change = np.inf if t_prev is None else np.linalg.norm(t_hat - t_prev) / np.linalg.norm(t_prev)
        if change < cfg.tol:
            return state, change
        sigma_hat, average, steps, inner_ok, q = _kron_tyler_loop(s, t_hat, sigma_hat, q, r, cfg)
        return (sigma_hat, average, q, t_hat, inner_total + steps, inner_converged and inner_ok), change

    (sigma_hat, average, _, _, inner_total, inner_converged), outer, converged, _ = _fixed_point(
        step, (sigma_hat, average, q, None, 0, True), cfg, "robust_kronpca")
    if full_output:
        return sigma_hat, {"iterations": outer, "inner_iterations": inner_total,
                           "converged": start_converged and converged and inner_converged,
                           "rho": r, "warm_start": (sigma_hat, average)}
    return sigma_hat


def kron_spectrum(sigma: DenseCovariance | GramCovariance, toeplitz_rows: bool = True):
    """Normalized Kronecker and PCA spectra of a covariance.

    Returns (kron_sv, pca_ev): the singular values of the (compressed)
    rearranged matrix and the eigenvalues of the covariance, each divided
    by the root of its summed squares and sorted nonincreasing.
    """
    r = rearrange(sigma).entries
    sv = np.linalg.svd(compress_diagonals(r, sigma.dims.T) if toeplitz_rows else r, compute_uv=False)
    ev = sigma.eigvalsh()[::-1]

    def _normalize(v):
        total = np.sqrt(np.sum(v ** 2))
        return v / total if total > 0 else v

    return _normalize(sv), _normalize(ev)


def components_for_energy(spectrum: np.ndarray, fraction: float = 0.95) -> int:
    """Smallest leading component count whose squared mass reaches `fraction`, 0 < fraction <= 1."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must lie in (0, 1], got {fraction}")
    energy = np.cumsum(np.asarray(spectrum, dtype=float) ** 2)
    total = energy[-1]
    if total <= 0:
        return 0
    return int(np.searchsorted(energy, fraction * total - 1e-12) + 1)


# ---------------------------------------------------------------------------
# shrinkage intensity selection for the robust estimators

def _acg_loglik(directions: np.ndarray, cov) -> float:
    """Angular log-likelihood of unit vectors under a shape covariance
    (additive constants dropped), from its own solve."""
    try:
        q, logdet = cov.inverse_quad_forms(directions)
    except np.linalg.LinAlgError:  # not positive definite
        return -np.inf
    return float(-0.5 * directions.shape[0] * logdet - 0.5 * cov.dims.pt * np.sum(np.log(q)))


def cv_shrinkage_intensity(samples: SampleSet, fitter, cfg: EstimatorConfig) -> ShrinkageIntensity:
    """Pick rho from CV_RHO_GRID by held-out direction likelihood.

    `fitter(samples, rho, cfg, full_output=True, start=...)` must return a
    DenseCovariance or a KronCovariance and an info dict whose `warm_start`
    it accepts as `start`; each fit scores the held-out directions through its own
    :meth:`inverse_quad_forms`, so a factor-form fit that splits is scored
    from its blocks, never assembled.
    Each fold runs the grid as a warm-started path (Friedman, Hastie &
    Tibshirani, 2010): rho descending from the grid's largest value, where a
    cold shrunk Tyler fit converges fastest and which alone starts cold, each
    later fit from the one before it on the same training fold.  The fit at
    the chosen rho that the caller then makes on all samples starts cold.
    Folds are deterministic stride splits, so selection is reproducible;
    with n >= 2 every fold has a training and a held-out sample.
    """
    n = samples.n
    if n < 2:
        raise ValueError(f"cross-validating rho needs n >= 2 samples, got n={n}")
    folds = min(CV_FOLDS, n)
    directions = _normalized_directions(samples)
    scores = np.zeros(len(CV_RHO_GRID))
    for k in range(folds):
        hold = np.zeros(n, dtype=bool)
        hold[k::folds] = True
        train = SampleSet(samples.dims, int((~hold).sum()), samples.samples[~hold])
        held = directions[hold]
        start = None
        for gi in np.argsort(CV_RHO_GRID)[::-1]:
            cov, info = fitter(train, CV_RHO_GRID[gi], cfg, full_output=True, start=start)
            start = info["warm_start"]
            scores[gi] += _acg_loglik(held, cov)
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
    """A named estimator: the config fields its fit reads, the only ones a
    user may override, defaults applied before the overrides, fit(samples,
    cfg) -> (covariance, info), whether the output is a trace-normalized
    shape, and the smallest sample count fit accepts."""

    fields: tuple
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
    # the final fit starts cold, so an "auto" fit is the fit at the rho it chose
    rho = resolve_rho(cfg, lambda: cv_shrinkage_intensity(samples, fitter, cfg))
    cov, info = fitter(samples, rho, cfg, full_output=True)
    del info["warm_start"]  # the state a CV path hands along, not part of the report
    return cov, info


_TYLER_FIELDS = ("rho", "tol", "max_iter")
ESTIMATORS = {
    "scm": EstimatorSpec((), {}, lambda samples, cfg: (scm(samples), {})),
    "scm-lw": EstimatorSpec(("rho",), {}, _fit_scm_lw, min_n=2),
    "kronpca": EstimatorSpec(("r", "beta", "toeplitz", "diag_correct"),
                             {"toeplitz": False, "diag_correct": False}, _fit_kronpca),
    "dc-kronpca-lw": EstimatorSpec(
        tuple(f.name for f in dataclasses.fields(EstimatorConfig)),
        {"toeplitz": True, "diag_correct": True},
        lambda samples, cfg: dc_kronpca_lw(samples, cfg, full_output=True), min_n=2),
    "chen-tyler": EstimatorSpec(
        _TYLER_FIELDS, {}, lambda samples, cfg: _fit_tyler(samples, cfg, chen_tyler),
        shape=True, min_n=2),
    "tyler-kronpca": EstimatorSpec(
        _TYLER_FIELDS, {}, lambda samples, cfg: _fit_tyler(samples, cfg, robust_kronpca),
        shape=True, min_n=2),
}


def _estimator_spec(name: str) -> EstimatorSpec:
    if name not in ESTIMATORS:
        raise ValueError(f"unknown estimator {name!r}; known: {sorted(ESTIMATORS)}")
    return ESTIMATORS[name]


def make_config(name: str, overrides: dict | None = None) -> EstimatorConfig:
    spec = _estimator_spec(name)
    overrides = overrides or {}
    known = {f.name for f in dataclasses.fields(EstimatorConfig)}
    # type errors on known fields first; a key EstimatorConfig lacks is one more unread field
    cfg = EstimatorConfig(**{**spec.defaults, **{k: v for k, v in overrides.items() if k in known}})
    unread = sorted(set(overrides) - set(spec.fields))
    if unread:
        raise ValueError(f"estimator {name!r} does not read config field {unread[0]!r} "
                         f"(it reads: {', '.join(spec.fields) or 'none'})")
    # a diag_correct default is what tells kronpca and dc-kronpca-lw apart
    if cfg.diag_correct != spec.defaults.get("diag_correct", cfg.diag_correct):
        raise ValueError(f"diag_correct={cfg.diag_correct} contradicts the estimator's own value")
    # a shrunk Tyler step needs rho > 0 to keep its iterate positive definite
    if spec.shape and cfg.rho == 0:
        raise ValueError(
            f'rho must be a number in (0, 1] or "{AUTO}" for {name!r}, got {cfg.rho!r}')
    return cfg


def require_samples(name: str, n: int, samples: SampleSet | None = None) -> None:
    """Raise ValueError when n is below the named estimator's minimum, or
    when it is a shape estimator, which fits the directions x_i / |x_i|,
    and a row of samples is zero."""
    spec = _estimator_spec(name)
    if n < spec.min_n:
        raise ValueError(f"estimator {name!r} needs n >= {spec.min_n} samples, got n={n}")
    if spec.shape and samples is not None:
        _normalized_directions(samples)


def fit_by_name(name: str, samples: SampleSet, cfg: EstimatorConfig | dict | None = None):
    """Run a named estimator; returns (covariance, info dict).

    info carries iterations, convergence, the resolved shrinkage
    intensity where one applies, and the fitted KronModel for the
    Kronecker methods.  The fits that start from the SCM read the one
    the sample set keeps, so fitting several estimators to one set
    computes it once.
    """
    if not isinstance(cfg, EstimatorConfig):
        cfg = make_config(name, cfg)
    require_samples(name, samples.n)
    cov, fit_info = ESTIMATORS[name].fit(samples, cfg)
    info = {"estimator": name, "iterations": 0, "converged": True,
            "rho": None, "model": None, **fit_info}
    return cov, info
