"""Exact linear operators on spatiotemporal covariance matrices.

A covariance over p spatial coordinates and T time frames is a pT x pT
matrix, space-fastest / time-slowest, i.e. a T x T grid of p x p blocks
where block (i, j) couples frame i to frame j.  Everything here is built
on two index permutations:

* rearrangement: map the block grid to a T^2 x p^2 matrix whose row
  (j*T + i) is the column-major vectorization of block (i, j).  Under
  this map a Kronecker product A (x) B becomes the rank-1 outer product
  vec(A) vec(B)^T.
* diagonal compression: collapse the T^2 rows onto the 2T-1 block
  diagonals with sqrt(T - |offset|) weights, so that block Toeplitz
  structure (block (i, j) depending only on j - i) becomes an
  unconstrained (2T-1) x p^2 matrix.

All operations are pure; array payloads are marked read-only after
construction so values can be shared freely across threads.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import solve_triangular

SYMMETRY_RTOL = 1e-12
# rows whitened at once by KronCovariance's block solve: 0.5 MB temporaries at p=100, T=10
SCORE_CHUNK = 64


def _frozen_array(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype, copy=True, order="C")
    out.setflags(write=False)
    return out


def is_symmetric(a: np.ndarray) -> bool:
    """Every entry is finite and max|a - a^T| is within SYMMETRY_RTOL of max|a|."""
    scale = np.abs(a).max() if a.size else 0.0
    return bool(np.isfinite(scale)) and (
        np.abs(a - a.T).max() <= SYMMETRY_RTOL * max(scale, 1e-300))


@dataclass(frozen=True)
class SpaceTimeDims:
    """Grid sizes: p spatial variables per frame, T frames per window."""

    p: int
    T: int

    def __post_init__(self):
        if self.p < 1 or self.T < 1:
            raise ValueError(f"grid sizes must be >= 1, got p={self.p}, T={self.T}")

    @property
    def pt(self) -> int:
        return self.p * self.T


@dataclass(frozen=True)
class DenseCovariance:
    """A pT x pT symmetric matrix in space-fastest, time-slowest order.

    Construction rejects NaN or inf entries and asymmetric input (beyond
    1e-12 relative) instead of symmetrizing it, so pipeline bugs surface
    where they happen.
    """

    dims: SpaceTimeDims
    entries: np.ndarray

    def __post_init__(self):
        entries = _frozen_array(self.entries)
        n = self.dims.pt
        if entries.shape != (n, n):
            raise ValueError(
                f"covariance shape {entries.shape} does not match dims "
                f"(p={self.dims.p}, T={self.dims.T}, pT={n})"
            )
        if not is_symmetric(entries):
            if not np.isfinite(entries).all():
                raise ValueError("covariance entries must be finite (found NaN or inf)")
            asym = np.abs(entries - entries.T).max()
            raise ValueError(
                f"matrix is not symmetric: max asymmetry {asym:.3e} exceeds "
                f"{SYMMETRY_RTOL:.0e} * max|entry| = {SYMMETRY_RTOL * np.abs(entries).max():.3e}"
            )
        object.__setattr__(self, "entries", entries)

    @classmethod
    def adopt(cls, dims: SpaceTimeDims, entries: np.ndarray) -> "DenseCovariance":
        """Wrap a freshly computed float array without the constructor's copy
        and symmetry scan (dtype and shape only: it is as symmetric as its
        producer made it).  The array becomes read-only; the caller must
        hold no writable alias to it."""
        if entries.dtype != np.float64 or entries.shape != (dims.pt, dims.pt):
            raise ValueError(f"cannot adopt a {entries.dtype} array of shape {entries.shape} "
                             f"for dims (p={dims.p}, T={dims.T})")
        entries.setflags(write=False)
        out = object.__new__(cls)
        object.__setattr__(out, "dims", dims)
        object.__setattr__(out, "entries", entries)
        return out

    def eigvalsh(self) -> np.ndarray:
        """All pT eigenvalues in ascending order."""
        return np.linalg.eigvalsh(self.entries)

    def trace(self) -> float:
        return float(np.trace(self.entries))

    def frobenius_sq(self) -> float:
        return float(np.vdot(self.entries, self.entries))

    def inner_kron(self, tm: np.ndarray, sm: np.ndarray) -> float:
        """<sigma, tm (x) sm>_F: one contraction of the T x p x T x p blocks
        with the two factors, no pT x pT product formed."""
        p, T = self.dims.p, self.dims.T
        blocks = self.entries.reshape(T, p, T, p)
        return float(np.vdot(tm, np.einsum("tmsl,ml->ts", blocks, sm)))

    def quad_sum(self, x: np.ndarray) -> float:
        """sum_k x_k^T sigma x_k over the rows x_k of x, as <sigma, X^T X>."""
        return float(np.vdot(self.entries, x.T @ x))

    def inverse_quad_forms(self, x: np.ndarray):
        """(q, log det sigma) from the Cholesky kernel :func:`inverse_quad_forms`."""
        return inverse_quad_forms(self.entries, x)


@dataclass(frozen=True)
class RearrangedMatrix:
    """T^2 x p^2 image of a covariance; row j*T + i holds vec(block(i, j))."""

    dims: SpaceTimeDims
    entries: np.ndarray

    def __post_init__(self):
        entries = _frozen_array(self.entries)
        want = (self.dims.T ** 2, self.dims.p ** 2)
        if entries.shape != want:
            raise ValueError(f"rearranged shape {entries.shape}, expected {want}")
        object.__setattr__(self, "entries", entries)


@dataclass(frozen=True)
class ToeplitzCompressed:
    """(2T-1) x p^2 matrix of weighted block-diagonal sums.

    Row o + T - 1 corresponds to diagonal offset o in [-(T-1), T-1] and
    carries the sqrt(T - |o|) weight relative to the per-diagonal value.
    """

    dims: SpaceTimeDims
    entries: np.ndarray

    def __post_init__(self):
        entries = _frozen_array(self.entries)
        want = (2 * self.dims.T - 1, self.dims.p ** 2)
        if entries.shape != want:
            raise ValueError(f"compressed shape {entries.shape}, expected {want}")
        object.__setattr__(self, "entries", entries)


def row_offsets(T: int) -> np.ndarray:
    """Diagonal offset j - i for every rearranged row k = j*T + i."""
    k = np.arange(T * T)
    return k // T - k % T


def diagonal_weights(T: int) -> np.ndarray:
    """sqrt(T - |o|) for offsets o = -(T-1) .. T-1, in row order."""
    return np.sqrt(T - np.abs(np.arange(-(T - 1), T)))


def rearrange(sigma: DenseCovariance) -> RearrangedMatrix:
    """Permute a covariance into its T^2 x p^2 rearranged image.

    For any A (T x T) and B (p x p), the image of A (x) B is
    vec(A) vec(B)^T with column-major vec.
    """
    p, T = sigma.dims.p, sigma.dims.T
    blocks = sigma.entries.reshape(T, p, T, p)
    # [i, m, j, l] -> row (j, i), column (l, m)
    out = blocks.transpose(2, 0, 3, 1).reshape(T * T, p * p)
    return RearrangedMatrix(sigma.dims, out)


def derearrange(r: RearrangedMatrix) -> DenseCovariance:
    """Invert :func:`rearrange` (a pure index permutation, exact).

    The output is not forced symmetric; it is symmetric exactly when the
    input lies in the rearranged image of a symmetric matrix.
    """
    p, T = r.dims.p, r.dims.T
    grid = r.entries.reshape(T, T, p, p)
    entries = grid.transpose(1, 3, 0, 2).reshape(T * p, T * p)
    return DenseCovariance.adopt(r.dims, entries)


def compress_diagonals(rows: np.ndarray, T: int) -> np.ndarray:
    """Weighted sums of rearranged rows over the 2T-1 block diagonals."""
    rows = np.asarray(rows, dtype=float)
    if rows.shape[0] != T * T:
        raise ValueError(f"expected {T * T} rows, got {rows.shape[0]}")
    # row k = j*T + i of rows is block (i, j), so grid[j, i] sits on offset j - i
    grid = rows.reshape(T, T, rows.shape[1])
    out = np.array([np.trace(grid, offset=-o) for o in range(-(T - 1), T)])
    return out / diagonal_weights(T)[:, None]


def expand_diagonals(compressed: np.ndarray, T: int) -> np.ndarray:
    """Right inverse of :func:`compress_diagonals`: spread each diagonal row
    back over its T - |o| block positions with matching weights."""
    compressed = np.asarray(compressed, dtype=float)
    if compressed.shape[0] != 2 * T - 1:
        raise ValueError(f"expected {2 * T - 1} rows, got {compressed.shape[0]}")
    rows = row_offsets(T) + T - 1
    return compressed[rows] / diagonal_weights(T)[rows][:, None]


def toeplitz_project(r: RearrangedMatrix) -> ToeplitzCompressed:
    """Compress a rearranged matrix onto its 2T-1 weighted block diagonals."""
    return ToeplitzCompressed(r.dims, compress_diagonals(r.entries, r.dims.T))


def toeplitz_embed(t: ToeplitzCompressed) -> RearrangedMatrix:
    """Embed compressed diagonals back into T^2 x p^2 rearranged form.

    Composition facts: project(embed(t)) == t, and embed . project is the
    orthogonal projector onto rearranged images of block Toeplitz matrices.
    """
    return RearrangedMatrix(t.dims, expand_diagonals(t.entries, t.dims.T))


def diag_mask(dims: SpaceTimeDims) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols): the covariance diagonal sits at the rearranged entries
    (r, c), r in rows and c in cols.

    rows = arange(T)(T+1) are the zero-offset rows k = i*T + i, and
    cols = arange(p)(p+1) the vec-positions of the diagonal of a p x p
    block; compressed, the rows are the single offset-0 row T - 1.
    """
    return np.arange(dims.T) * (dims.T + 1), np.arange(dims.p) * (dims.p + 1)


def kron_assemble(dims: SpaceTimeDims, factors, u=None) -> DenseCovariance:
    """Assemble sum_i T_i (x) S_i + I (x) diag(u) as a dense covariance.

    `factors` is a sequence of (temporal T x T, spatial p x p) pairs; `u`
    is a length-p vector (scalar or None meaning zeros).
    """
    p, T = dims.p, dims.T
    total = np.zeros((dims.pt, dims.pt))
    for tm, sm in factors:
        tm = np.asarray(tm, dtype=float)
        sm = np.asarray(sm, dtype=float)
        if tm.shape != (T, T) or sm.shape != (p, p):
            raise ValueError(
                f"factor shapes {tm.shape}, {sm.shape} do not match dims (T={T}, p={p})"
            )
        total += np.kron(tm, sm)
    if u is not None:
        uvec = np.broadcast_to(np.asarray(u, dtype=float), (p,))
        total.flat[::dims.pt + 1] += np.tile(uvec, T)  # the diagonal of I (x) diag(u)
    return DenseCovariance(dims, total)


@dataclass(frozen=True, eq=False)
class KronCovariance:
    """sum_i T_i (x) S_i + I (x) diag(d), carried as its factors.

    `pairs` holds (temporal T x T, spatial p x p) pairs with any weight
    folded into them; `d` is the length-p diagonal of the I (x) diag(d)
    term.  `entries` assembles the dense matrix through
    :func:`kron_assemble` on first use and keeps it.
    """

    dims: SpaceTimeDims
    pairs: tuple
    d: np.ndarray

    def __post_init__(self):
        p, T = self.dims.p, self.dims.T
        pairs = tuple((_frozen_array(tm), _frozen_array(sm)) for tm, sm in self.pairs)
        for tm, sm in pairs:
            if tm.shape != (T, T) or sm.shape != (p, p):
                raise ValueError(
                    f"factor shapes {tm.shape}, {sm.shape} do not match dims (T={T}, p={p})"
                )
        d = _frozen_array(np.broadcast_to(np.asarray(self.d, dtype=float), (p,)))
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "d", d)

    def to_dense(self) -> DenseCovariance:
        return kron_assemble(self.dims, self.pairs, self.d)

    @cached_property
    def entries(self) -> np.ndarray:
        return self.to_dense().entries

    def trace(self) -> float:
        return float(sum(np.trace(tm) * np.trace(sm) for tm, sm in self.pairs)
                     + self.dims.T * self.d.sum())

    def inner_kron(self, tm: np.ndarray, sm: np.ndarray) -> float:
        """<sigma, tm (x) sm>_F from the factors, by <A (x) B, C (x) D> =
        <A, C><B, D> (Van Loan & Pitsianis, 1993): sum_i <T_i, tm><S_i, sm>
        plus tr(tm) <d, diag(sm)> for the I (x) diag(d) term."""
        return float(sum(np.vdot(ti, tm) * np.vdot(si, sm) for ti, si in self.pairs)
                     + np.trace(tm) * (self.d @ np.diagonal(sm)))

    def frobenius_sq(self) -> float:
        """||sigma||_F^2 = sum of <sigma, term> over its own terms, the
        diagonal one being I (x) diag(d)."""
        terms = (*self.pairs, (np.eye(self.dims.T), np.diag(self.d)))
        return float(sum(self.inner_kron(tm, sm) for tm, sm in terms))

    def quad_sum(self, x: np.ndarray) -> float:
        """sum_k x_k^T sigma x_k over the rows x_k of x (n x pT).  A row read
        as its T x p frame matrix X gives x^T (A (x) B) x = <X, A X B^T>, so
        each term costs O(n T p (T + p)) and no pT x pT matrix is formed."""
        frames = np.asarray(x, dtype=float).reshape(-1, self.dims.T, self.dims.p)
        total = np.einsum("ktm,ktm->m", frames, frames) @ self.d
        for tm, sm in self.pairs:
            total += np.vdot(frames, tm @ (frames @ sm.T))
        return float(total)

    def _blocks(self):
        """(V, blocks) with sigma = (V (x) I) blockdiag(blocks) (V (x) I)^T,
        or None when sigma has no such split.

        One term T (x) S + I (x) diag(d) with symmetric factors is
        block-diagonalized by the eigenvectors V of T (x) I into the p x p
        blocks lam_t S + diag(d), lam_t the eigenvalues of T: T eigenproblems
        of size p instead of one of size pT.  A sum of several terms, or a
        pair of antisymmetric factors, has no such split.
        """
        if len(self.pairs) != 1:
            return None
        (tm, sm), = self.pairs
        if not (is_symmetric(tm) and is_symmetric(sm)):
            return None
        lam, vecs = np.linalg.eigh(tm)
        return vecs, lam[:, None, None] * sm + np.diag(self.d)

    def eigvalsh(self) -> np.ndarray:
        """All pT eigenvalues in ascending order."""
        split = self._blocks()
        if split is None:
            return np.linalg.eigvalsh(self.entries)
        return np.sort(np.linalg.eigvalsh(split[1]), axis=None)

    def inverse_quad_forms(self, x: np.ndarray):
        """(q, log det sigma) with q_k = x_k^T sigma^{-1} x_k for each row x_k
        of x (n x pT).  LinAlgError unless sigma is positive definite.

        Where :meth:`_blocks` splits sigma, a stacked eigh gives the blocks
        as W_t diag(mu_t) W_t^T and log det sigma = sum log mu; each row, as
        a T x p array X, maps to V^T X and then row t to mu_t^(-1/2) W_t^T
        row t, SCORE_CHUNK rows at once.  Otherwise the Cholesky kernel.
        """
        split = self._blocks()
        if split is None:
            return inverse_quad_forms(self.entries, x)
        v, blocks = split
        mu, w = np.linalg.eigh(blocks)
        if not mu.min() > 0:
            raise np.linalg.LinAlgError("covariance is not positive definite")
        p, T = self.dims.p, self.dims.T
        w_scaled = w / np.sqrt(mu)[:, None, :]
        q = np.empty(len(x))
        for lo in range(0, len(q), SCORE_CHUNK):
            frames = x[lo:lo + SCORE_CHUNK].reshape(-1, T, p).transpose(1, 0, 2)
            y = (v.T @ frames.reshape(T, -1)).reshape(T, -1, p)  # (T, chunk, p)
            z = np.matmul(y, w_scaled)
            q[lo:lo + SCORE_CHUNK] = np.einsum("tij,tij->i", z, z)
        return q, float(np.log(mu).sum())


def inverse_quad_forms(a: np.ndarray, x: np.ndarray):
    """(q, log det a) with q_i = x_i^T a^{-1} x_i = ||L^{-1} x_i||^2 for each
    row x_i of x, from one lower Cholesky a = L L^T (log det a = 2 sum_i
    log L_ii) and one triangular solve.  LinAlgError unless a is PD."""
    chol = np.linalg.cholesky(a)
    y = solve_triangular(chol, x.T, lower=True)
    return np.einsum("ij,ij->j", y, y), float(2.0 * np.log(np.diagonal(chol)).sum())


def block(sigma: DenseCovariance, i: int, j: int) -> np.ndarray:
    """Return the p x p sub-block coupling frame i to frame j (0-based)."""
    p, T = sigma.dims.p, sigma.dims.T
    if not (0 <= i < T and 0 <= j < T):
        raise IndexError(f"frame indices ({i}, {j}) out of range for T={T}")
    return sigma.entries[i * p:(i + 1) * p, j * p:(j + 1) * p]
