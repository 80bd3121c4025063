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

import numpy as np

SYMMETRY_RTOL = 1e-12
# rows of the Cholesky factor per block of DenseCovariance's forward solve: on one BLAS thread
# 24 to 32 are fastest at d = 100, and 24 to 64 take the same time at d = 1000
SOLVE_BLOCK = 32
# rows whitened at once by KronCovariance's block solve: 0.5 MB temporaries at p=100, T=10
SCORE_CHUNK = 64
# rows scored at once by GramCovariance's Woodbury solve: 6.4 MB products at n=400
GRAM_SCORE_CHUNK = 2048


def _frozen_array(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype, copy=True, order="C")
    out.setflags(write=False)
    return out


def _kept(store: dict, key: str, compute):
    """store[key]: compute() on first use, kept in store (an array result made
    read-only); unlocked, so racing callers all get the first one stored."""
    if key not in store:
        out = compute()
        if isinstance(out, np.ndarray):
            out.setflags(write=False)
        store.setdefault(key, out)
    return store[key]


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
class _Payload:
    """dims plus an `entries` array of shape _shape(dims), named _kind in errors:
    the constructor copies and validates outside data, :meth:`adopt` wraps a fresh result."""

    dims: SpaceTimeDims
    entries: np.ndarray

    def __post_init__(self):
        entries = _frozen_array(self.entries)
        if entries.shape != self._shape(self.dims):
            raise ValueError(f"{self._kind} shape {entries.shape} does not match dims "
                             f"(p={self.dims.p}, T={self.dims.T})")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def adopt(cls, dims: SpaceTimeDims, entries: np.ndarray):
        """Wrap a freshly computed float array without the constructor's copy
        and checks beyond dtype and shape: it is as valid as its producer
        made it.  The array becomes read-only; nothing else may hold a
        writable alias to it (a view of a read-only array is safe)."""
        if entries.dtype != np.float64 or entries.shape != cls._shape(dims):
            raise ValueError(f"cannot adopt a {entries.dtype} array of shape {entries.shape} "
                             f"as {cls._kind} for dims (p={dims.p}, T={dims.T})")
        entries.setflags(write=False)
        out = object.__new__(cls)
        out.__dict__.update(dims=dims, entries=entries)
        return out


@dataclass(frozen=True)
class DenseCovariance(_Payload):
    """A pT x pT symmetric matrix in space-fastest, time-slowest order.

    Construction rejects NaN or inf entries and asymmetric input (beyond
    1e-12 relative) instead of symmetrizing it, so pipeline bugs surface
    where they happen; :meth:`adopt` skips the symmetry scan.
    """

    _kind = "covariance"
    _shape = staticmethod(lambda dims: (dims.pt, dims.pt))

    def __post_init__(self):
        super().__post_init__()
        entries = self.entries
        if not is_symmetric(entries):
            if not np.isfinite(entries).all():
                raise ValueError("covariance entries must be finite (found NaN or inf)")
            asym = np.abs(entries - entries.T).max()
            raise ValueError(
                f"matrix is not symmetric: max asymmetry {asym:.3e} exceeds "
                f"{SYMMETRY_RTOL:.0e} * max|entry| = {SYMMETRY_RTOL * np.abs(entries).max():.3e}"
            )

    def eigvalsh(self) -> np.ndarray:
        """All pT eigenvalues in ascending order, computed on first use and kept."""
        return _kept(self.__dict__, "_eigvalsh", lambda: np.linalg.eigvalsh(self.entries))

    def extremes(self) -> tuple[float, float]:
        """(lambda_min, lambda_max): the ends of the kept :meth:`eigvalsh`."""
        lam = self.eigvalsh()
        return float(lam[0]), float(lam[-1])

    def affine(self, scale: float, shift: float) -> "DenseCovariance":
        """scale sigma + shift I: the entries times scale, then shift added on the diagonal."""
        out = scale * self.entries
        out.flat[::self.dims.pt + 1] += shift
        return DenseCovariance.adopt(self.dims, out)

    def trace(self) -> float:
        return float(np.trace(self.entries))

    def frobenius_sq(self) -> float:
        return float(np.vdot(self.entries, self.entries))

    def relative_change(self, old) -> float:
        """|sigma - old| / |old| in the Frobenius norm, from the entries of both."""
        return np.linalg.norm(self.entries - old.entries) / np.linalg.norm(old.entries)

    def spatial_contract(self, u: np.ndarray) -> np.ndarray:
        """sum_ij u_ij block(i, j) for a T x T u: one contraction of the
        T x p x T x p blocks."""
        p, T = self.dims.p, self.dims.T
        return np.einsum("ts,tmsl->ml", u, self.entries.reshape(T, p, T, p))

    def quad_sum(self, x: np.ndarray) -> float:
        """sum_k x_k^T sigma x_k over the rows x_k of x, as <sigma, X^T X>."""
        return float(np.vdot(self.entries, x.T @ x))

    def rearranged_gram(self, toeplitz: bool) -> np.ndarray:
        """B B^T for B the rearranged image of the entries (compressed when toeplitz)."""
        return _dense_rearranged_gram(self, toeplitz)

    def hidden_columns(self, toeplitz: bool) -> np.ndarray:
        """The columns of B that hold the covariance diagonal (:func:`diag_mask`'s cols):
        row j*T + i is the diagonal of block(i, j)."""
        p, T = self.dims.p, self.dims.T
        return _compressed(np.einsum("imjm->jim", self.entries.reshape(T, p, T, p)).reshape(T * T, p),
                           T, toeplitz)

    def _cholesky(self):
        """(L, inverses): the lower Cholesky factor sigma = L L^T and the inverses of its
        SOLVE_BLOCK x SOLVE_BLOCK diagonal blocks (the last may be smaller), computed on first
        use and kept.  LinAlgError unless positive definite."""
        def compute():
            chol = np.linalg.cholesky(self.entries)
            chol.setflags(write=False)
            return chol, tuple(np.linalg.inv(chol[lo:lo + SOLVE_BLOCK, lo:lo + SOLVE_BLOCK])
                               for lo in range(0, len(chol), SOLVE_BLOCK))
        return _kept(self.__dict__, "_factor", compute)

    def inverse_quad_forms(self, x: np.ndarray):
        """(q, log det sigma), q_k = x_k^T sigma^{-1} x_k = |y_k|^2 for the rows x_k of x and
        y_k = L^{-1} x_k, from the kept :meth:`_cholesky`.  LinAlgError unless positive definite.

        y is found by blocked forward substitution (Higham, *Accuracy and Stability of
        Numerical Algorithms*, ch. 8 and 13): block row i of y is inv(L_ii) (x_i - L_i,:i y_:i),
        one product with the rows above and one with the kept inverse of the diagonal block, so
        the solve is a chain of GEMMs."""
        chol, inverses = self._cholesky()
        xt = x.T
        y = np.empty((len(chol), len(x)))
        for inv_block, lo in zip(inverses, range(0, len(chol), SOLVE_BLOCK)):
            rest = xt[lo:lo + SOLVE_BLOCK] - chol[lo:lo + SOLVE_BLOCK, :lo] @ y[:lo]
            np.matmul(inv_block, rest, out=y[lo:lo + SOLVE_BLOCK])
        return np.einsum("ij,ij->j", y, y), float(2.0 * np.log(np.diagonal(chol)).sum())


@dataclass(frozen=True)
class RearrangedMatrix(_Payload):
    """T^2 x p^2 image of a covariance; row j*T + i holds vec(block(i, j))."""

    _kind = "rearranged"
    _shape = staticmethod(lambda dims: (dims.T ** 2, dims.p ** 2))


@dataclass(frozen=True)
class ToeplitzCompressed(_Payload):
    """(2T-1) x p^2 matrix of weighted block-diagonal sums.

    Row o + T - 1 corresponds to diagonal offset o in [-(T-1), T-1] and
    carries the sqrt(T - |o|) weight relative to the per-diagonal value.
    """

    _kind = "compressed"
    _shape = staticmethod(lambda dims: (2 * dims.T - 1, dims.p ** 2))


def row_offsets(T: int) -> np.ndarray:
    """Diagonal offset j - i for every rearranged row k = j*T + i."""
    k = np.arange(T * T)
    return k // T - k % T


def diagonal_weights(T: int) -> np.ndarray:
    """sqrt(T - |o|) for offsets o = -(T-1) .. T-1, in row order."""
    return np.sqrt(T - np.abs(np.arange(-(T - 1), T)))


def rearrange(sigma: DenseCovariance | GramCovariance) -> RearrangedMatrix:
    """Permute a covariance into its T^2 x p^2 rearranged image.

    For any A (T x T) and B (p x p), the image of A (x) B is
    vec(A) vec(B)^T with column-major vec.
    """
    p, T = sigma.dims.p, sigma.dims.T
    blocks = sigma.entries.reshape(T, p, T, p)
    # [i, m, j, l] -> row (j, i), column (l, m)
    out = blocks.transpose(2, 0, 3, 1).reshape(T * T, p * p)
    return RearrangedMatrix.adopt(sigma.dims, out)


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


def _compressed(rows: np.ndarray, T: int, toeplitz: bool) -> np.ndarray:
    return compress_diagonals(rows, T) if toeplitz else rows


def _dense_rearranged_gram(sigma, toeplitz: bool) -> np.ndarray:
    """B B^T for B = rearrange(sigma), compressed when toeplitz: O(T^4 p^2) over the entries."""
    b = _compressed(rearrange(sigma).entries, sigma.dims.T, toeplitz)
    return b @ b.T


def toeplitz_project(r: RearrangedMatrix) -> ToeplitzCompressed:
    """Compress a rearranged matrix onto its 2T-1 weighted block diagonals."""
    return ToeplitzCompressed.adopt(r.dims, compress_diagonals(r.entries, r.dims.T))


def toeplitz_embed(t: ToeplitzCompressed) -> RearrangedMatrix:
    """Embed compressed diagonals back into T^2 x p^2 rearranged form.

    Composition facts: project(embed(t)) == t, and embed . project is the
    orthogonal projector onto rearranged images of block Toeplitz matrices.
    """
    return RearrangedMatrix.adopt(t.dims, expand_diagonals(t.entries, t.dims.T))


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
    term.  The dense form is assembled only where one is asked for
    (:meth:`to_dense`), and kept.
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
        """:func:`kron_assemble` on first use, kept: `entries` and the spectrum and
        solve of a form that does not split all come from this one DenseCovariance,
        which keeps its own eigenvalues and Cholesky factor."""
        return _kept(self.__dict__, "_dense", lambda: kron_assemble(self.dims, self.pairs, self.d))

    @property
    def entries(self) -> np.ndarray:
        return self.to_dense().entries

    def affine(self, scale: float, shift: float) -> "KronCovariance":
        """scale sigma + shift I: the pairs scaled, and d' = scale d + shift."""
        return KronCovariance(self.dims, [(scale * tm, sm) for tm, sm in self.pairs],
                              scale * self.d + shift)

    def trace(self) -> float:
        return float(sum(np.trace(tm) * np.trace(sm) for tm, sm in self.pairs)
                     + self.dims.T * self.d.sum())

    def spatial_contract(self, u: np.ndarray) -> np.ndarray:
        """sum_ij u_ij block(i, j) for a T x T u from the factors: block (i, j)
        of T_k (x) S_k is [T_k]_ij S_k, so sum_k <T_k, u> S_k, plus tr(u) diag(d)
        for the I (x) diag(d) term."""
        return sum(np.vdot(tm, u) * sm for tm, sm in self.pairs) + np.trace(u) * np.diag(self.d)

    def _terms(self) -> tuple:
        """The pairs and the diagonal term's pair (I, diag(d))."""
        return (*self.pairs, (np.eye(self.dims.T), np.diag(self.d)))

    def inner(self, other) -> float:
        """<sigma, other>_F over sigma's own terms A (x) B, the diagonal one
        being I (x) diag(d): <other, A (x) B> = <other.spatial_contract(A), B>
        (Van Loan & Pitsianis, 1993); other is any covariance form."""
        return float(sum(np.vdot(other.spatial_contract(tm), sm) for tm, sm in self._terms()))

    def _rearranged_factors(self, toeplitz: bool):
        """(A, terms): B = A C^T, column i of A the (compressed) vec of T_i and of C the vec of S_i."""
        terms = self._terms()
        temporal = np.stack([tm.ravel(order="F") for tm, _ in terms], axis=1)
        return _compressed(temporal, self.dims.T, toeplitz), terms

    def rearranged_gram(self, toeplitz: bool) -> np.ndarray:
        """B B^T = A (C^T C) A^T from the factors (B = A C^T), O(r^2 (T^4 + p^2))."""
        temporal, terms = self._rearranged_factors(toeplitz)
        spatial = np.stack([sm.ravel(order="F") for _, sm in terms], axis=1)
        return temporal @ (spatial.T @ spatial) @ temporal.T

    def hidden_columns(self, toeplitz: bool) -> np.ndarray:
        """The columns of B on the covariance diagonal: A times the diagonals of the S_i."""
        temporal, terms = self._rearranged_factors(toeplitz)
        return temporal @ np.array([np.diag(sm) for _, sm in terms])

    def frobenius_sq(self) -> float:
        return self.inner(self)

    def relative_change(self, old) -> float:
        """|sigma - old| / |old| to rounding (an expansion of the square is blind below 1e-8).  One
        term each, A (x) B and C (x) E, with the same d: sigma - old = A (x) (B - E) + (A - C) (x) E,
        square norm |A|^2 |B - E|^2 + 2 <A, A - C> <B - E, E> + |A - C|^2 |E|^2.  Other factor forms:
        sum_i P_i (x) Q_i over both forms' terms is the rearranged P Q^T, of norm |R_P R_Q^T| for the
        R factors of P and Q.  A dense or rows old: its entries minus the terms."""
        p, T = self.dims.p, self.dims.T
        if not isinstance(old, KronCovariance):
            diff = old.entries.reshape(T, p, T, p) - sum(
                tm[:, None, :, None] * sm[None, :, None, :] for tm, sm in self._terms())
            sq = np.vdot(diff, diff)
        elif len(self.pairs) == len(old.pairs) == 1 and np.array_equal(self.d, old.d):
            (a, b), (c, e) = self.pairs[0], old.pairs[0]
            sq = (np.vdot(a, a) * np.vdot(b - e, b - e) + 2.0 * np.vdot(a, a - c) * np.vdot(b - e, e)
                  + np.vdot(a - c, a - c) * np.vdot(e, e))
        else:
            terms = [*self._terms(), *((tm, -sm) for tm, sm in old._terms())]
            r_p, r_q = (np.linalg.qr(np.stack([f[k].ravel() for f in terms], axis=1), mode="r")
                        for k in (0, 1))
            sq = np.vdot(r_p @ r_q.T, r_p @ r_q.T)
        return float(np.sqrt(max(sq, 0.0) / old.frobenius_sq()))

    def quad_sum(self, x: np.ndarray) -> float:
        """sum_k x_k^T sigma x_k over the rows x_k of x (n x pT).  A row read
        as its T x p frame matrix X gives x^T (A (x) B) x = <X, A X B^T>, so
        each term costs O(n T p (T + p)) and no pT x pT matrix is formed."""
        frames = np.asarray(x, dtype=float).reshape(-1, self.dims.T, self.dims.p)
        total = np.einsum("ktm,ktm->m", frames, frames) @ self.d
        for tm, sm in self.pairs:
            total += np.vdot(frames, tm @ (frames @ sm.T))
        return float(total)

    def _split(self, vectors: bool, keep=slice(None)):
        """(V, mu, W): sigma = (V (x) I) blockdiag(B_t) (V (x) I)^T with
        T = V diag(lam) V^T, mu[t] the eigenvalues of the p x p block B_t =
        lam_t S + diag(d) and W their eigenvectors (None unless vectors is
        set); None when sigma has no such split.  `keep` indexes the
        ascending lam, so only the blocks it keeps are eigensolved.

        One term with symmetric factors splits so: T eigenproblems of size p
        instead of one of size pT.  With d = c 1 one eigenproblem of S =
        W diag(s) W^T does, as W diagonalizes every block and mu_t =
        lam_t s + c.  A sum of several terms, or a pair of antisymmetric
        factors, has no such split.
        """
        if len(self.pairs) != 1:
            return None
        (tm, sm), = self.pairs
        if not (is_symmetric(tm) and is_symmetric(sm)):
            return None
        lam, v = np.linalg.eigh(tm)
        lam, v = lam[keep], v[:, keep]
        constant = np.all(self.d == self.d[0])
        a = sm if constant else lam[:, None, None] * sm + np.diag(self.d)
        e, w = np.linalg.eigh(a) if vectors else (np.linalg.eigvalsh(a), None)
        return v, (lam[:, None] * e + self.d[0] if constant else e), w

    def eigvalsh(self) -> np.ndarray:
        """All pT eigenvalues in ascending order, computed on first use and kept."""
        def compute():
            split = self._split(False)
            if split is None:
                return self.to_dense().eigvalsh()
            return np.sort(split[1], axis=None)
        return _kept(self.__dict__, "_eigvalsh", compute)

    def extremes(self) -> tuple[float, float]:
        """(lambda_min, lambda_max), computed on first use and kept.  Where
        :meth:`_split` splits sigma, only the two blocks at T's smallest and
        largest eigenvalue are eigensolved: lambda_min(lam S + diag(d)) is
        concave in lam and lambda_max convex (Horn & Johnson, the Rayleigh
        quotient), so over t both take their extremes at an end of lam's
        range.  Otherwise the kept dense form's."""
        def compute():
            split = self._split(False, keep=[0, -1])
            if split is None:
                return self.to_dense().extremes()
            return float(split[1].min()), float(split[1].max())
        return _kept(self.__dict__, "_extremes", compute)

    def inverse_quad_forms(self, x: np.ndarray):
        """(q, log det sigma) with q_k = x_k^T sigma^{-1} x_k for each row x_k
        of x (n x pT).  LinAlgError unless sigma is positive definite.

        Where :meth:`_split` splits sigma into blocks W_t diag(mu_t) W_t^T,
        log det sigma = sum log mu; each row, as a T x p array X, maps to
        V^T X and then row t to mu_t^(-1/2) W_t^T row t, SCORE_CHUNK rows at
        once.  The split is computed on first use and kept, so a form scored
        again solves no eigenproblem.  Otherwise the kept dense form's Cholesky
        (:meth:`to_dense`).
        """
        split = _kept(self.__dict__, "_block_eigh", lambda: self._split(True))
        if split is None:
            return self.to_dense().inverse_quad_forms(x)
        v, mu, w = split
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


@dataclass(frozen=True, eq=False)
class GramCovariance:
    """a I + b X^T X / n, carried as the n rows of X (n x pT), any n >= 1: a
    scaled identity plus b times the scatter of the rows.

    :meth:`SampleSet.covariance` is the form with a = 0, b = 1, and each Tyler
    average the form with a = 0, b = pT; :meth:`affine` maps it to
    (scale a + shift, scale b) over the same X, G and eigh of G.  b weighs
    X^T X / n, not X^T X, so `entries` computes x^T x and divides it by n
    exactly as the plain sample covariance does.  Every reduction comes
    from the rows, the n x n Gram G = X X^T and one eigh of it (Woodbury
    for the solve below pT rows), or the nT x nT frame Gram; the dense entries
    are assembled on first read and kept (unlocked).
    """

    dims: SpaceTimeDims
    x: np.ndarray
    a: float = 0.0
    b: float = 1.0

    def __post_init__(self):
        x = _frozen_array(self.x)
        if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] != self.dims.pt:
            raise ValueError(f"rows of shape {x.shape} do not match dims "
                             f"(p={self.dims.p}, T={self.dims.T})")
        self.__dict__.update(GramCovariance.adopt(self.dims, x, self.a, self.b).__dict__)

    @classmethod
    def adopt(cls, dims: SpaceTimeDims, x: np.ndarray, a=0.0, b=1.0, shared=None) -> "GramCovariance":
        """Wrap fresh float rows without the constructor's copy and shape check, as _Payload.adopt
        does: x becomes read-only; `shared` keeps the rows' products.  Checks a, b as affine does."""
        a, b = cls._weights(a, b)
        x.setflags(write=False)
        out = object.__new__(cls)
        out.__dict__.update(dims=dims, x=x, a=a, b=b, _shared={} if shared is None else shared)
        return out

    @staticmethod
    def _weights(a, b) -> tuple[float, float]:
        a, b = float(a), float(b)
        if not (np.isfinite(a) and np.isfinite(b) and b >= 0):
            raise ValueError(f"need a finite a and a finite b >= 0, got a={a}, b={b}")
        return a, b

    def affine(self, scale: float, shift: float) -> "GramCovariance":
        """scale sigma + shift I = (scale a + shift) I + scale b X^T X / n over
        the same rows, sharing their kept products; ValueError unless the new
        a is finite and the new b finite and >= 0."""
        return GramCovariance.adopt(self.dims, self.x, scale * self.a + shift, scale * self.b,
                                    self._shared)

    @property
    def _beta(self) -> float:
        """The weight of X^T X itself."""
        return self.b / len(self.x)

    def _gram(self) -> np.ndarray:
        # one symmetric rank-k update: exactly symmetric
        return _kept(self._shared, "gram", lambda: self.x @ self.x.T)

    def _gram_eigh(self):
        """(lam, V): G = V diag(lam) V^T, lam ascending and floored at 0 (G is PSD)."""
        def eigh():
            lam, vecs = np.linalg.eigh(self._gram())
            return np.maximum(lam, 0.0), vecs
        return _kept(self._shared, "gram_eigh", eigh)

    @property
    def entries(self) -> np.ndarray:
        def compute():
            out = self.x.T @ self.x  # a symmetric rank-k update, then /= n: the SCM's bits
            out /= len(self.x)
            if self.b != 1.0 or self.a != 0.0:
                out *= self.b
                out.flat[::self.dims.pt + 1] += self.a
            return out
        return _kept(self.__dict__, "_entries", compute)

    def to_dense(self) -> DenseCovariance:
        """The kept `entries` as a DenseCovariance (with its own Cholesky), made on first use and kept."""
        return _kept(self.__dict__, "_dense", lambda: DenseCovariance.adopt(self.dims, self.entries))

    def trace(self) -> float:
        return float(self.dims.pt * self.a + self._beta * np.trace(self._gram()))

    def frobenius_sq(self) -> float:
        g, a, beta = self._gram(), self.a, self._beta
        return float(self.dims.pt * a * a + 2.0 * a * beta * np.trace(g)
                     + beta * beta * np.vdot(g, g))

    def spatial_contract(self, u: np.ndarray) -> np.ndarray:
        """sum_ij u_ij block(i, j) = a tr(u) I + beta sum_k X_k^T u X_k for a
        T x T u, X_k the T x p frame matrix of row k: one (nT x p)^T (nT x p) product."""
        p, T = self.dims.p, self.dims.T
        rows_u = (u @ self.x.reshape(-1, T, p)).reshape(-1, p)  # the u X_k, stacked
        return self._beta * (self.x.reshape(-1, p).T @ rows_u) + self.a * np.trace(u) * np.eye(p)

    def quad_sum(self, y: np.ndarray) -> float:
        """sum_k y_k^T sigma y_k = a |Y|^2 + beta |X Y^T|^2 over the rows y_k
        of y; the form's own rows give X X^T = G, which is reused."""
        xy = self._gram() if y.shape == self.x.shape and np.array_equal(y, self.x) else y @ self.x.T
        return float(self.a * np.vdot(y, y) + self._beta * np.vdot(xy, xy))

    def rearranged_gram(self, toeplitz: bool) -> np.ndarray:
        """B B^T for B the (compressed) rearranged image, with no pT x pT matrix where the rows are
        cheaper.  Row j*T + i of B is beta sum_k x_kj (x) x_ki + a [i = j] vec(I), x_ki frame i of
        row k, so from the nT x nT frame Gram G_kl[i, j] = <x_ki, x_lj>: B B^T = beta^2 sum_kl
        G_kl (x) G_kl + a beta (v e^T + e v^T) + a^2 p e e^T, with e = vec(I_T) and v = vec(sum_k
        G_kk), compressed on both sides when toeplitz.  That costs about n^2 T^2 (p + T^2) and
        is kept (shared with every affine form); the kept entries cost n (pT)^2 + T^4 p^2, and the
        cheaper of the two is taken."""
        n, p, T = len(self.x), self.dims.p, self.dims.T
        if n * n * T * T * (p + T * T) >= n * self.dims.pt ** 2 + T ** 4 * p * p:
            return _dense_rearranged_gram(self, toeplitz)

        def frame_terms():
            frames = self.x.reshape(n * T, p)
            g = (frames @ frames.T).reshape(n, T, n, T)
            blocks = g.transpose(0, 2, 1, 3).reshape(n * n, T * T)  # row (k, l): vec of G_kl
            kron_sum = (blocks.T @ blocks).reshape(T, T, T, T).transpose(0, 2, 1, 3).reshape(T * T, T * T)
            return kron_sum, np.einsum("kikj->ij", g).ravel()
        kron_sum, v = _kept(self._shared, "frame_terms", frame_terms)
        e = np.eye(T).ravel()
        beta, a = self._beta, self.a
        out = beta * beta * kron_sum + a * beta * (np.outer(v, e) + np.outer(e, v)) + a * a * p * np.outer(e, e)
        return _compressed(_compressed(out, T, toeplitz).T, T, toeplitz)

    def hidden_columns(self, toeplitz: bool) -> np.ndarray:
        """The columns of B on the covariance diagonal: row j*T + i is beta sum_k x_ki * x_kj
        (elementwise) plus a where i = j, one batched product over the frames, O(n T^2 p)."""
        p, T = self.dims.p, self.dims.T
        frames = self.x.reshape(-1, T, p)
        diagonals = np.matmul(frames.transpose(2, 1, 0), frames.transpose(2, 0, 1))  # [m, i, j]
        out = self._beta * diagonals.transpose(2, 1, 0).reshape(T * T, p)
        out[::T + 1] += self.a
        return _compressed(out, T, toeplitz)

    def eigvalsh(self) -> np.ndarray:
        """All pT eigenvalues in ascending order: max(pT - n, 0) copies of a, then a + beta lam
        over the top min(n, pT) eigenvalues lam of G (ascending, as beta >= 0 and lam >= 0)."""
        n, d = len(self.x), self.dims.pt
        lam = self._gram_eigh()[0][max(n - d, 0):]
        return np.concatenate([np.full(max(d - n, 0), self.a), self.a + self._beta * lam])

    def extremes(self) -> tuple[float, float]:
        """(lambda_min, lambda_max): the ends of :meth:`eigvalsh`, read off the kept Gram eigh."""
        lam = self.eigvalsh()
        return float(lam[0]), float(lam[-1])

    def inverse_quad_forms(self, y: np.ndarray):
        """(q, log det sigma) with q_k = y_k^T sigma^{-1} y_k for each row y_k
        of y (m x pT).  LinAlgError unless positive definite.

        Below pT rows, by Woodbury (Hager, 1989) on G = V diag(lam) V^T: with
        W = diag((lam + a/beta)^(-1/2)) V^T X, q = (|y|^2 - |W y|^2) / a and
        log det sigma = (pT - n) log a + n log beta + sum log(lam + a/beta),
        scored GRAM_SCORE_CHUNK rows at once; a is then an eigenvalue, so a > 0
        is the whole test.  From pT rows on a may lie far below the smallest
        eigenvalue, where Woodbury loses digits as (a + beta lam_max) / a, so
        the kept :meth:`to_dense` solves by its Cholesky factor.
        """
        n, d, a, beta = len(self.x), self.dims.pt, self.a, self._beta
        if n >= d:
            return self.to_dense().inverse_quad_forms(y)
        if not a > 0:  # a > 0 makes every lam + a/beta > 0
            raise np.linalg.LinAlgError("the rows solve needs a > 0: below pT rows an a = 0 form is singular")
        sq = np.einsum("ij,ij->i", y, y)
        if beta == 0.0:
            return sq / a, float(d * np.log(a))
        lam, vecs = self._gram_eigh()
        shifted = lam + a / beta
        w = (vecs / np.sqrt(shifted)).T @ self.x
        q = np.empty(len(y))
        for lo in range(0, len(q), GRAM_SCORE_CHUNK):
            wy = w @ y[lo:lo + GRAM_SCORE_CHUNK].T  # n x chunk: no copy of the rows
            q[lo:lo + GRAM_SCORE_CHUNK] = sq[lo:lo + GRAM_SCORE_CHUNK] - np.einsum("ij,ij->j", wy, wy)
        q /= a
        logdet = (d - n) * np.log(a) + n * np.log(beta) + np.log(shifted).sum()
        return q, float(logdet)


def block(sigma: DenseCovariance, i: int, j: int) -> np.ndarray:
    """Return the p x p sub-block coupling frame i to frame j (0-based)."""
    p, T = sigma.dims.p, sigma.dims.T
    if not (0 <= i < T and 0 <= j < T):
        raise IndexError(f"frame indices ({i}, {j}) out of range for T={T}")
    return sigma.entries[i * p:(i + 1) * p, j * p:(j + 1) * p]
