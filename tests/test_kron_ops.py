"""Operator tests against loop-based index oracles and exact identities."""
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve, toeplitz

from kroncov import (
    DenseCovariance,
    GramCovariance,
    KronCovariance,
    RearrangedMatrix,
    SampleSet,
    SpaceTimeDims,
    ToeplitzCompressed,
    block,
    derearrange,
    diag_mask,
    kron_assemble,
    mahalanobis_scores,
    rearrange,
    shrink,
    toeplitz_embed,
    toeplitz_project,
)
from kroncov import kron_ops
from kroncov.kron_ops import (
    compress_diagonals,
    diagonal_weights,
    row_offsets,
)


def rearrange_oracle(entries, p, T):
    """Definition transliterated: row j*T+i = column-major vec of block (i, j)."""
    out = np.zeros((T * T, p * p))
    for j in range(T):
        for i in range(T):
            blk = entries[i * p:(i + 1) * p, j * p:(j + 1) * p]
            out[j * T + i] = blk.flatten(order="F")
    return out


def offsets_oracle(T):
    """k -> j - i for k = j*T + i."""
    return {k: k // T - k % T for k in range(T * T)}


def project_oracle(rows, p, T):
    out = np.zeros((2 * T - 1, p * p))
    offs = offsets_oracle(T)
    for o in range(-(T - 1), T):
        members = [k for k, v in offs.items() if v == o]
        out[o + T - 1] = rows[members].sum(axis=0) / np.sqrt(T - abs(o))
    return out


def random_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return a + a.T


def make_cov(rng, p, T):
    return DenseCovariance(SpaceTimeDims(p, T), random_symmetric(rng, p * T))


class TestRearrange:
    def test_p1_t2_block_order(self):
        sigma = DenseCovariance(SpaceTimeDims(1, 2), np.array([[1.0, 2.0], [2.0, 4.0]]))
        out = rearrange(sigma)
        np.testing.assert_array_equal(out.entries, [[1.0], [2.0], [2.0], [4.0]])

    def test_identity_rows(self):
        p, T = 3, 4
        sigma = DenseCovariance(SpaceTimeDims(p, T), np.eye(p * T))
        out = rearrange(sigma).entries
        vec_ip = np.eye(p).flatten(order="F")
        for k, off in offsets_oracle(T).items():
            if off == 0:
                np.testing.assert_array_equal(out[k], vec_ip)
            else:
                np.testing.assert_array_equal(out[k], np.zeros(p * p))

    def test_kron_becomes_outer_product(self):
        rng = np.random.default_rng(3)
        a = random_symmetric(rng, 3)
        b = random_symmetric(rng, 4)
        sigma = DenseCovariance(SpaceTimeDims(4, 3), np.kron(a, b))
        out = rearrange(sigma).entries
        expected = np.outer(a.flatten(order="F"), b.flatten(order="F"))
        assert np.abs(out - expected).max() < 1e-14

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(4)
        for p, T in [(1, 1), (2, 3), (5, 2), (3, 4)]:
            sigma = make_cov(rng, p, T)
            expected = rearrange_oracle(sigma.entries, p, T)
            np.testing.assert_array_equal(rearrange(sigma).entries, expected)

    def test_linearity_and_norm_preservation(self):
        rng = np.random.default_rng(5)
        s1, s2 = make_cov(rng, 3, 3), make_cov(rng, 3, 3)
        combo = DenseCovariance(s1.dims, 2.0 * s1.entries - 0.5 * s2.entries)
        lhs = rearrange(combo).entries
        rhs = 2.0 * rearrange(s1).entries - 0.5 * rearrange(s2).entries
        np.testing.assert_array_equal(lhs, rhs)
        assert np.linalg.norm(rearrange(s1).entries) == pytest.approx(
            np.linalg.norm(s1.entries), rel=0, abs=0
        )

    def test_rank_one_for_kron(self):
        rng = np.random.default_rng(6)
        a = random_symmetric(rng, 4)
        b = random_symmetric(rng, 2)
        sigma = DenseCovariance(SpaceTimeDims(2, 4), np.kron(a, b))
        sv = np.linalg.svd(rearrange(sigma).entries, compute_uv=False)
        assert sv[1] < 1e-12 * sv[0]


@pytest.mark.parametrize("p, T", [(3, 4), (1, 3), (3, 1)])
def test_operator_results_are_read_only(p, T):
    rearranged = rearrange(make_cov(np.random.default_rng(p * T), p, T))
    compressed = toeplitz_project(rearranged)
    for out in (rearranged, compressed, toeplitz_embed(compressed)):
        assert not out.entries.flags.writeable


@settings(max_examples=150, deadline=None)
@given(p=st.integers(1, 12), T=st.integers(1, 10), seed=st.integers(0, 2**32 - 1))
def test_operator_identities_over_random_sizes(p, T, seed):
    """Criterion 1's identities on grids beyond its p <= 5, T <= 6."""
    rng = np.random.default_rng(seed)
    dims = SpaceTimeDims(p, T)
    sigma = make_cov(rng, p, T)
    r = rearrange(sigma)
    np.testing.assert_array_equal(derearrange(r).entries, sigma.entries)
    assert np.linalg.norm(r.entries) == pytest.approx(np.linalg.norm(sigma.entries), rel=1e-13)
    a, b = random_symmetric(rng, T), random_symmetric(rng, p)
    np.testing.assert_array_equal(rearrange(DenseCovariance(dims, np.kron(a, b))).entries,
                                  np.outer(a.flatten(order="F"), b.flatten(order="F")))

    t = ToeplitzCompressed(dims, rng.standard_normal((2 * T - 1, p * p)))
    np.testing.assert_allclose(toeplitz_project(toeplitz_embed(t)).entries, t.entries,
                               rtol=0, atol=1e-13 * np.abs(t.entries).max())
    x, y = (RearrangedMatrix(dims, rng.standard_normal((T * T, p * p))) for _ in range(2))
    px, py = (toeplitz_embed(toeplitz_project(m)).entries for m in (x, y))
    twice = toeplitz_embed(toeplitz_project(RearrangedMatrix(dims, px))).entries
    np.testing.assert_allclose(twice, px, rtol=0, atol=1e-13 * np.abs(px).max())
    assert abs(np.vdot(px, y.entries) - np.vdot(x.entries, py)) <= (
        1e-12 * np.linalg.norm(x.entries) * np.linalg.norm(y.entries))


class TestDerearrange:
    def test_inverse_of_p1_t2_example(self):
        r = RearrangedMatrix(SpaceTimeDims(1, 2), np.array([[1.0], [2.0], [2.0], [4.0]]))
        np.testing.assert_array_equal(derearrange(r).entries, [[1.0, 2.0], [2.0, 4.0]])

    def test_zero(self):
        r = RearrangedMatrix(SpaceTimeDims(2, 3), np.zeros((9, 4)))
        np.testing.assert_array_equal(derearrange(r).entries, np.zeros((6, 6)))

    def test_roundtrip_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            sigma = make_cov(rng, 3, 4)
            back = derearrange(rearrange(sigma))
            assert np.abs(back.entries - sigma.entries).max() == 0.0

    def test_asymmetric_output_allowed(self):
        rng = np.random.default_rng(8)
        r = RearrangedMatrix(SpaceTimeDims(2, 2), rng.standard_normal((4, 4)))
        out = derearrange(r)  # no symmetry gate on this path
        assert out.entries.shape == (4, 4)


class TestToeplitzProject:
    def test_t2_row_grouping(self):
        rng = np.random.default_rng(9)
        rows = rng.standard_normal((4, 9))
        r = RearrangedMatrix(SpaceTimeDims(3, 2), rows)
        out = toeplitz_project(r).entries
        np.testing.assert_allclose(out[0], rows[1])
        np.testing.assert_allclose(out[1], (rows[0] + rows[3]) / np.sqrt(2))
        np.testing.assert_allclose(out[2], rows[2])

    def test_t1_identity(self):
        rng = np.random.default_rng(10)
        rows = rng.standard_normal((1, 4))
        r = RearrangedMatrix(SpaceTimeDims(2, 1), rows)
        np.testing.assert_array_equal(toeplitz_project(r).entries, rows)

    def test_toeplitz_kron_gives_weighted_profile(self):
        from scipy.linalg import toeplitz

        rng = np.random.default_rng(11)
        T, p = 4, 3
        col = rng.standard_normal(T)
        a = toeplitz(col)  # symmetric Toeplitz temporal factor
        b = random_symmetric(rng, p)
        sigma = DenseCovariance(SpaceTimeDims(p, T), np.kron(a, b))
        out = toeplitz_project(rearrange(sigma)).entries
        for o in range(-(T - 1), T):
            diag_value = a[0, o] if o >= 0 else a[-o, 0]
            expected = np.sqrt(T - abs(o)) * diag_value * b.flatten(order="F")
            np.testing.assert_allclose(out[o + T - 1], expected, atol=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(12)
        for p, T in [(1, 5), (3, 3), (2, 6)]:
            rows = rng.standard_normal((T * T, p * p))
            r = RearrangedMatrix(SpaceTimeDims(p, T), rows)
            np.testing.assert_allclose(
                toeplitz_project(r).entries, project_oracle(rows, p, T), atol=1e-13
            )


def compress_by_add_at(rows, T):
    """The scatter-add form of compress_diagonals, kept as its reference."""
    out = np.zeros((2 * T - 1, rows.shape[1]))
    np.add.at(out, row_offsets(T) + T - 1, rows)
    return out / diagonal_weights(T)[:, None]


class TestCompressDiagonals:
    @settings(max_examples=200, deadline=None)
    @given(T=st.integers(1, 8), cols=st.integers(0, 20), seed=st.integers(0, 2**32 - 1))
    def test_equals_the_scatter_add(self, T, cols, seed):
        rows = np.random.default_rng(seed).standard_normal((T * T, cols))
        np.testing.assert_allclose(compress_diagonals(rows, T), compress_by_add_at(rows, T),
                                   rtol=1e-14, atol=0.0)


class TestToeplitzEmbed:
    def test_t2_spread(self):
        rng = np.random.default_rng(13)
        rows = rng.standard_normal((3, 4))
        t = ToeplitzCompressed(SpaceTimeDims(2, 2), rows)
        out = toeplitz_embed(t).entries
        np.testing.assert_allclose(out[0], rows[1] / np.sqrt(2))
        np.testing.assert_allclose(out[1], rows[0])
        np.testing.assert_allclose(out[2], rows[2])
        np.testing.assert_allclose(out[3], rows[1] / np.sqrt(2))

    def test_project_embed_is_identity(self):
        rng = np.random.default_rng(14)
        t = ToeplitzCompressed(SpaceTimeDims(3, 5), rng.standard_normal((9, 9)))
        roundtrip = toeplitz_project(toeplitz_embed(t))
        assert np.abs(roundtrip.entries - t.entries).max() < 1e-14

    def test_embed_project_idempotent(self):
        rng = np.random.default_rng(15)
        r = RearrangedMatrix(SpaceTimeDims(3, 5), rng.standard_normal((25, 9)))
        once = toeplitz_embed(toeplitz_project(r))
        twice = toeplitz_embed(toeplitz_project(once))
        assert np.abs(twice.entries - once.entries).max() < 1e-13

    def test_embed_project_self_adjoint(self):
        # <P*(P(x)), y> = <x, P*(P(y))> under the Frobenius inner product
        rng = np.random.default_rng(21)
        dims = SpaceTimeDims(2, 4)
        x = RearrangedMatrix(dims, rng.standard_normal((16, 4)))
        y = RearrangedMatrix(dims, rng.standard_normal((16, 4)))
        px = toeplitz_embed(toeplitz_project(x)).entries
        py = toeplitz_embed(toeplitz_project(y)).entries
        lhs = np.sum(px * y.entries)
        rhs = np.sum(x.entries * py)
        assert abs(lhs - rhs) < 1e-12 * max(abs(lhs), 1.0)

    def test_embedded_matrix_is_block_toeplitz(self):
        rng = np.random.default_rng(16)
        p, T = 2, 4
        t = ToeplitzCompressed(SpaceTimeDims(p, T), rng.standard_normal((2 * T - 1, p * p)))
        full = derearrange(toeplitz_embed(t))
        for i in range(T - 1):
            for j in range(T - 1):
                np.testing.assert_array_equal(
                    block(full, i, j), block(full, i + 1, j + 1)
                )


def dense_diag_masks(dims):
    """The full and compressed 0/1 masks that diag_mask's indices stand for."""
    rows, cols = diag_mask(dims)
    full = np.ones((dims.T ** 2, dims.p ** 2))
    full[np.ix_(rows, cols)] = 0.0
    compressed = np.ones((2 * dims.T - 1, dims.p ** 2))
    compressed[dims.T - 1, cols] = 0.0
    return full, compressed


class TestDiagMask:
    def test_p2_t2_positions(self):
        full, _ = dense_diag_masks(SpaceTimeDims(2, 2))
        zeros = np.argwhere(full == 0)
        assert {tuple(z) for z in zeros} == {(0, 0), (0, 3), (3, 0), (3, 3)}
        assert (full == 0).sum() == 4
        assert (full == 1).sum() == 12

    def test_p1_t1_single_entry(self):
        full, compressed = dense_diag_masks(SpaceTimeDims(1, 1))
        np.testing.assert_array_equal(full, [[0.0]])
        np.testing.assert_array_equal(compressed, [[0.0]])

    def test_zero_count_is_pt(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            p, T = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            full, _ = dense_diag_masks(SpaceTimeDims(p, T))
            assert (full == 0).sum() == p * T

    def test_compressed_is_sign_of_projection(self):
        from kroncov.kron_ops import compress_diagonals

        full, compressed = dense_diag_masks(SpaceTimeDims(3, 4))
        np.testing.assert_array_equal(compressed, np.sign(compress_diagonals(full, 4)))

    def test_paper_scale_is_t_plus_p_indices(self):
        rows, cols = diag_mask(SpaceTimeDims(100, 10))
        assert rows.size + cols.size == 110


class TestKronAssemble:
    def test_identity_factors(self):
        out = kron_assemble(SpaceTimeDims(2, 2), [(np.eye(2), np.eye(2))], np.zeros(2))
        np.testing.assert_array_equal(out.entries, np.eye(4))

    def test_diagonal_only(self):
        out = kron_assemble(SpaceTimeDims(2, 2), [], np.array([1.0, 2.0]))
        np.testing.assert_array_equal(out.entries, np.diag([1.0, 2.0, 1.0, 2.0]))

    def test_cross_check_with_rearrange(self):
        rng = np.random.default_rng(18)
        a = random_symmetric(rng, 3)
        b = random_symmetric(rng, 2)
        out = kron_assemble(SpaceTimeDims(2, 3), [(a, b)], 0.0)
        expected = np.outer(a.flatten(order="F"), b.flatten(order="F"))
        np.testing.assert_allclose(rearrange(out).entries, expected, atol=1e-14)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            kron_assemble(SpaceTimeDims(2, 2), [(np.eye(3), np.eye(2))], None)

    def test_diagonal_term_bit_identical_to_a_dense_kron(self):
        def dense_route(dims, factors, u):
            total = np.zeros((dims.pt, dims.pt))
            for tm, sm in factors:
                total += np.kron(tm, sm)
            return total + np.kron(np.eye(dims.T), np.diag(u))

        rng = np.random.default_rng(21)
        for p, T, r in ((1, 1, 1), (3, 2, 1), (4, 3, 2), (2, 5, 3)):
            dims = SpaceTimeDims(p, T)
            factors = [(random_symmetric(rng, T), random_symmetric(rng, p)) for _ in range(r)]
            for u in (rng.uniform(0.1, 2.0, p), -rng.uniform(0.1, 2.0, p), rng.standard_normal(p)):
                assert np.array_equal(kron_assemble(dims, factors, u).entries,
                                      dense_route(dims, factors, u))


def symmetric_factor(rng, n, toeplitz_form=False, zero_eig=False):
    """A random symmetric (optionally Toeplitz) factor of unit Frobenius norm
    whose eigenvalues may dip below zero, as a fitted factor's do; with
    zero_eig, a singular one with eigenvalues 0 and 1/sqrt(n-1) (the zero
    matrix when n = 1)."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    if zero_eig:
        lam = np.r_[0.0, np.ones(n - 1)]
    elif toeplitz_form:
        a = toeplitz(rng.uniform(-0.3, 1.0) ** np.arange(n) + 0.3 * rng.standard_normal(n))
        return a / np.linalg.norm(a)
    else:
        lam = rng.uniform(-0.3, 1.0, n)
    a = (q * lam) @ q.T
    a = 0.5 * (a + a.T)
    norm = np.linalg.norm(a)
    return a / norm if norm > 0 else a


def spd_factor(rng, n):
    """A random symmetric factor with eigenvalues in [0.5, 2]."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = (q * rng.uniform(0.5, 2.0, n)) @ q.T
    return 0.5 * (a + a.T)


def windows(rng, n, dims):
    return rng.standard_normal((n, dims.pt))


def stream_windows(rng, n, dims):
    """n overlapping windows of a frame stream as the anomaly pipeline holds
    them: a read-only strided view, row k sharing T - 1 frames with row k + 1."""
    frames = rng.standard_normal((n + dims.T - 1, dims.p))
    view = np.lib.stride_tricks.sliding_window_view(frames, (dims.T, dims.p))[:, 0]
    return view.reshape(n, dims.pt)


def assert_close(actual, desired, rtol=1e-10):
    scale = max(np.abs(desired).max(initial=0.0), 1e-300)
    np.testing.assert_allclose(actual, desired, rtol=0, atol=rtol * scale)


class TestKronCovariance:
    """The factor form against the dense matrix it stands for."""

    @settings(max_examples=150, deadline=None)
    @given(p=st.integers(1, 6), T=st.integers(1, 6), toeplitz_form=st.booleans(),
           sign=st.sampled_from([1.0, -1.0]), with_u=st.booleans(),
           rho=st.floats(0.0, 1.0), singular=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_one_term_matches_dense(self, p, T, toeplitz_form, sign, with_u, rho,
                                    singular, seed):
        rng = np.random.default_rng(seed)
        dims = SpaceTimeDims(p, T)
        tm = sign * rng.uniform(0.5, 5.0) * symmetric_factor(rng, T, toeplitz_form)
        sm = symmetric_factor(rng, p, zero_eig=singular)
        u = rng.uniform(0.0, 2.0, p) if with_u and not singular else np.zeros(p)
        rho = 0.0 if singular else rho
        cov = KronCovariance(dims, [(tm, sm)], u)
        dense = np.kron(tm, sm) + np.kron(np.eye(T), np.diag(u))

        np.testing.assert_array_equal(cov.to_dense().entries,
                                      kron_assemble(dims, [(tm, sm)], u).entries)
        assert_close(cov.entries, dense)
        assert cov._split(False) is not None
        assert_close(cov.eigvalsh(), np.linalg.eigvalsh(dense))
        assert cov.trace() == pytest.approx(np.trace(dense), rel=1e-12, abs=1e-12)

        shrunk = shrink(cov, rho)
        assert isinstance(shrunk, KronCovariance)
        shrunk_dense = shrink(DenseCovariance(dims, dense), rho).entries
        assert_close(shrunk.entries, shrunk_dense)
        assert_close(shrunk.eigvalsh(), np.linalg.eigvalsh(shrunk_dense))

        lam = np.linalg.eigvalsh(shrunk_dense)
        wins = windows(rng, 7, dims)
        if singular or lam[0] < -1e-9 * np.abs(lam).max():
            for sigma in (shrunk, DenseCovariance(dims, shrunk_dense)):
                with pytest.raises(ValueError, match="singular or indefinite"):
                    mahalanobis_scores(wins, sigma)
        elif lam[0] > 1e-5 * lam[-1]:
            assert_close(mahalanobis_scores(wins, shrunk),
                         mahalanobis_scores(wins, DenseCovariance(dims, shrunk_dense)))

    def test_entries_are_assembled_once_and_read_only(self):
        rng = np.random.default_rng(6)
        dims = SpaceTimeDims(3, 2)
        cov = KronCovariance(dims, [(symmetric_factor(rng, 2), symmetric_factor(rng, 3))], 1.0)
        assert cov.entries is cov.entries
        assert cov.to_dense() is cov.to_dense()
        np.testing.assert_array_equal(cov.entries, cov.to_dense().entries)
        with pytest.raises(ValueError, match="read-only"):
            cov.entries[0, 0] = 0.0

    def test_scores_do_not_depend_on_the_chunk_size(self, monkeypatch):
        rng = np.random.default_rng(3)
        dims = SpaceTimeDims(3, 4)
        cov = KronCovariance(dims, [(symmetric_factor(rng, 4), symmetric_factor(rng, 3))],
                             np.full(3, 2.0))
        wins = windows(rng, 11, dims)
        whole = mahalanobis_scores(wins, cov)
        view = stream_windows(rng, 11, dims)
        from_view = mahalanobis_scores(view, cov)
        np.testing.assert_array_equal(from_view, mahalanobis_scores(view.copy(), cov))
        monkeypatch.setattr(kron_ops, "SCORE_CHUNK", 4)
        assert_close(mahalanobis_scores(wins, cov), whole, rtol=1e-14)
        np.testing.assert_array_equal(mahalanobis_scores(view, cov),
                                      mahalanobis_scores(view.copy(), cov))
        assert_close(mahalanobis_scores(view, cov), from_view, rtol=1e-14)
        assert_close(whole, mahalanobis_scores(wins, cov.to_dense()))

    def test_constant_d_eigvalsh_takes_one_eigensolve_of_s(self, monkeypatch):
        # an indefinite temporal factor: the block eigenvalues lam_t s + c interleave
        rng = np.random.default_rng(8)
        dims = SpaceTimeDims(6, 4)
        cov = KronCovariance(dims, [(-symmetric_factor(rng, 4), symmetric_factor(rng, 6))], 0.7)
        dense = np.linalg.eigvalsh(cov.entries)
        solved = []

        def counted(a, *args, _real=np.linalg.eigvalsh, **kwargs):
            solved.append(np.shape(a))
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        assert_close(cov.eigvalsh(), dense, rtol=1e-12)
        assert solved == [(6, 6)]

    @pytest.mark.parametrize("case", ["two terms", "antisymmetric"])
    def test_unsplit_cases_take_the_dense_route(self, case):
        rng = np.random.default_rng(4)
        dims = SpaceTimeDims(4, 3)
        if case == "two terms":
            pairs = [(symmetric_factor(rng, 3), 2.0 * symmetric_factor(rng, 4)),
                     (symmetric_factor(rng, 3), -symmetric_factor(rng, 4))]
        else:
            a, b = rng.standard_normal((3, 3)), rng.standard_normal((4, 4))
            pairs = [(a - a.T, b - b.T)]
        cov = KronCovariance(dims, pairs, np.full(4, 10.0))
        assert cov._split(False) is None
        wins = windows(rng, 6, dims)
        np.testing.assert_array_equal(cov.eigvalsh(), np.linalg.eigvalsh(cov.entries))
        np.testing.assert_array_equal(mahalanobis_scores(wins, cov),
                                      mahalanobis_scores(wins, cov.to_dense()))

    def test_unsplit_form_factors_its_dense_matrix_once(self, monkeypatch):
        # a two-term fit scored on two slices, as a mid-stream anomaly run scores it
        rng = np.random.default_rng(9)
        dims = SpaceTimeDims(4, 3)
        cov = KronCovariance(dims, [(spd_factor(rng, 3), spd_factor(rng, 4)),
                                    (spd_factor(rng, 3), spd_factor(rng, 4))], np.full(4, 0.5))
        slices = [windows(rng, 5, dims) for _ in range(2)]
        want = [mahalanobis_scores(wins, DenseCovariance(dims, cov.entries)) for wins in slices]
        factored = []

        def counted(a, *args, _real=np.linalg.cholesky, **kwargs):
            factored.append(np.shape(a))
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, "cholesky", counted)
        for wins, ref in zip(slices, want):
            assert_close(mahalanobis_scores(wins, cov), ref)
        assert factored.count((dims.pt, dims.pt)) == 1

    def test_split_form_eigensolves_its_blocks_once(self, monkeypatch):
        # a one-term fit with a non-constant d scored on two slices: the T stacked p x p
        # blocks are eigensolved once, the second slice reads the kept split
        rng = np.random.default_rng(10)
        dims = SpaceTimeDims(4, 3)
        cov = KronCovariance(dims, [(spd_factor(rng, 3), spd_factor(rng, 4))],
                             rng.uniform(0.5, 1.5, 4))
        slices = [windows(rng, 5, dims) for _ in range(2)]
        want = [mahalanobis_scores(wins, DenseCovariance(dims, cov.entries)) for wins in slices]
        solved = []

        def counted(a, *args, _real=np.linalg.eigh, **kwargs):
            solved.append(np.shape(a))
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, "eigh", counted)
        for wins, ref in zip(slices, want):
            assert_close(mahalanobis_scores(wins, cov), ref)
        assert solved.count((dims.T, dims.p, dims.p)) == 1

    def test_shrink_keeps_the_trace_and_reaches_the_scaled_identity(self):
        rng = np.random.default_rng(5)
        dims = SpaceTimeDims(3, 2)
        cov = KronCovariance(dims, [(symmetric_factor(rng, 2), symmetric_factor(rng, 3))],
                             rng.uniform(0, 1, 3))
        np.testing.assert_array_equal(shrink(cov, 0.0).entries, cov.entries)
        full = shrink(cov, 1.0)
        np.testing.assert_array_equal(full.entries, cov.trace() / 6 * np.eye(6))
        assert shrink(cov, 0.3).trace() == pytest.approx(cov.trace(), rel=1e-14)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="do not match dims"):
            KronCovariance(SpaceTimeDims(2, 2), [(np.eye(3), np.eye(2))], np.zeros(2))

    @settings(max_examples=150, deadline=None)
    @given(p=st.integers(1, 6), T=st.integers(1, 6), r=st.integers(1, 3),
           n=st.integers(1, 8), d_scale=st.sampled_from([0.0, 1.0, 10.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_reductions_match_the_dense_matrix(self, p, T, r, n, d_scale, seed):
        rng = np.random.default_rng(seed)
        dims = SpaceTimeDims(p, T)
        pairs = [(rng.standard_normal((T, T)), rng.standard_normal((p, p))) for _ in range(r)]
        d = d_scale * rng.standard_normal(p)
        cov = KronCovariance(dims, pairs, d)
        dense = sum(np.kron(tm, sm) for tm, sm in pairs) + np.kron(np.eye(T), np.diag(d))
        tm, sm = rng.standard_normal((T, T)), rng.standard_normal((p, p))
        x = rng.standard_normal((n, dims.pt))
        # bound on ||sigma||_F from the factors, so near-cancelling sums are judged fairly
        bound = sum(np.linalg.norm(a) * np.linalg.norm(b) for a, b in pairs) + np.sqrt(T) * np.linalg.norm(d)
        unchecked = DenseCovariance.adopt(dims, dense.copy())
        for form in (cov, unchecked):
            assert abs(form.frobenius_sq() - np.sum(dense ** 2)) <= 1e-12 * bound ** 2
            assert abs(np.vdot(form.spatial_contract(tm), sm) - np.sum(dense * np.kron(tm, sm))) <= (
                1e-12 * bound * np.linalg.norm(tm) * np.linalg.norm(sm))
            assert abs(form.trace() - np.trace(dense)) <= 1e-12 * bound * np.sqrt(dims.pt)
            assert abs(form.quad_sum(x) - np.einsum("ki,ij,kj->", x, dense, x)) <= (
                1e-12 * bound * np.sum(x ** 2))

    @settings(max_examples=150, deadline=None)
    @given(p=st.integers(1, 6), T=st.integers(1, 6), n=st.integers(1, 8),
           case=st.sampled_from(["one term", "one term, scalar d", "two terms", "antisymmetric"]),
           seed=st.integers(0, 2**32 - 1))
    def test_inverse_quad_forms_match_the_dense_kernel(self, p, T, n, case, seed):
        rng = np.random.default_rng(seed)
        dims = SpaceTimeDims(p, T)
        if case == "antisymmetric":
            assume(min(p, T) >= 2)  # a 1 x 1 antisymmetric factor is zero, which splits
            # antisymmetric (x) antisymmetric is symmetric and indefinite;
            # a diagonal term above its spectral norm makes it positive definite
            a, b = rng.standard_normal((T, T)), rng.standard_normal((p, p))
            pairs = [(a - a.T, b - b.T)]
            top = np.linalg.norm(a - a.T, 2) * np.linalg.norm(b - b.T, 2)
            d = np.full(p, rng.uniform(1.5, 3.0) * top + 0.1)
        else:
            terms = 2 if case == "two terms" else 1
            pairs = [(spd_factor(rng, T), spd_factor(rng, p)) for _ in range(terms)]
            d = rng.uniform(0.0, 2.0, 1 if case == "one term, scalar d" else p)
        cov = KronCovariance(dims, pairs, d)
        assert (cov._split(False) is not None) == case.startswith("one term")
        x = rng.standard_normal((n, dims.pt))
        q, logdet = cov.inverse_quad_forms(x)
        q_ref, logdet_ref = DenseCovariance.adopt(dims, cov.entries).inverse_quad_forms(x)
        np.testing.assert_allclose(q, q_ref, rtol=1e-10, atol=0)
        assert abs(logdet - logdet_ref) <= 1e-10

    @pytest.mark.parametrize("defect", [0.0, -0.5], ids=["singular", "indefinite"])
    @pytest.mark.parametrize("case", ["one term", "two terms"])
    def test_inverse_quad_forms_need_a_positive_definite_covariance(self, case, defect):
        dims = SpaceTimeDims(3, 2)
        tm, sm = toeplitz([1.0, 0.5]), np.diag([1.0, defect, 2.0])
        pairs = [(tm, sm)] if case == "one term" else [(tm, 0.5 * sm), (np.eye(2), 0.5 * sm)]
        cov = KronCovariance(dims, pairs, np.zeros(3))
        assert (cov._split(False) is not None) == (case == "one term")
        with pytest.raises(np.linalg.LinAlgError):
            cov.inverse_quad_forms(np.ones((2, 6)))


class TestRelativeChange:
    """|new - old| / |old| as the Tyler loops stop on it, down to changes far
    below the 1e-8 that an expansion of |new - old|^2 can see."""

    @staticmethod
    def pair(eps, seed=3):
        rng = np.random.default_rng(seed)
        dims = SpaceTimeDims(5, 4)
        a, b, d = spd_factor(rng, 4), spd_factor(rng, 5), rng.uniform(0.05, 0.5, 5)
        new_a, new_b = a + eps * random_symmetric(rng, 4), b + eps * random_symmetric(rng, 5)
        old = KronCovariance(dims, [(a, b)], d)
        new = KronCovariance(dims, [(new_a, new_b)], d)
        change = np.kron(new_a, new_b - b) + np.kron(new_a - a, b)
        return new, old, np.linalg.norm(change) / np.linalg.norm(old.entries)

    @pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12])
    def test_one_term_change_is_exact(self, eps):
        new, old, expected = self.pair(eps)
        assert abs(new.relative_change(old) - expected) <= 1e-10 * expected

    @pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4])
    def test_against_a_dense_old_by_expansion(self, eps):
        new, old, expected = self.pair(eps)
        dense_old = DenseCovariance(old.dims, old.entries)
        assert abs(new.relative_change(dense_old) - expected) <= 1e-6 * expected

    @pytest.mark.parametrize("eps", [1e-2, 1e-6, 1e-10, 1e-12])
    def test_against_a_dense_or_rows_old_to_rounding(self, eps):
        # the Tyler start a robust fit's first inner step compares with is dense; its entries are
        # the old form's to rounding, so the change is exact to rounding of |old|, where an
        # expansion is off by about 1e-8
        new, old, expected = self.pair(eps)
        dense_old = DenseCovariance(old.dims, old.entries)
        assert abs(new.relative_change(dense_old) - expected) <= 1e-10 * expected + 1e-14
        rows = GramCovariance(old.dims, np.linalg.cholesky(old.entries).T * np.sqrt(old.dims.pt))
        assert abs(new.relative_change(rows) - expected) <= 1e-10 * expected + 1e-14

    @pytest.mark.parametrize("eps", [1e-2, 1e-6, 1e-10, 1e-12])
    def test_one_term_change_with_another_diagonal_to_rounding(self, eps):
        # a warm start carries the diagonal of another rho; the change is exact to rounding of
        # |old|, where an expansion is off by about 1e-8
        new, old, _ = self.pair(eps)
        shift = eps * np.linspace(-1.0, 1.0, old.dims.p)
        moved = KronCovariance(new.dims, new.pairs, new.d + shift)
        shift = moved.d - old.d  # what the sum kept of the shift; the difference is exact
        (new_a, new_b), (a, b) = new.pairs[0], old.pairs[0]
        change = (np.kron(new_a, new_b - b) + np.kron(new_a - a, b)
                  + np.kron(np.eye(old.dims.T), np.diag(shift)))
        expected = np.linalg.norm(change) / np.linalg.norm(old.entries)
        assert abs(moved.relative_change(old) - expected) <= 1e-10 * expected + 1e-14

    def test_dense_change_is_the_dense_norm_bit_for_bit(self):
        rng = np.random.default_rng(4)
        old, new = make_cov(rng, 3, 2), make_cov(rng, 3, 2)
        assert new.relative_change(old) == (np.linalg.norm(new.entries - old.entries)
                                            / np.linalg.norm(old.entries))


def gram_rows(rng, n, dims):
    """n centered rows, the sample set's own form of its covariance."""
    x = rng.standard_normal((n, dims.pt)) * rng.uniform(0.2, 3.0, dims.pt)
    return x - x.mean(axis=0)


class TestCovarianceContract:
    """Every reduction of every covariance form against the form's own dense entries."""

    @staticmethod
    def make(form, rng, dims, n, rho):
        if form == "dense":
            q, _ = np.linalg.qr(rng.standard_normal((dims.pt, dims.pt)))
            entries = (q * rng.uniform(0.0, 3.0, dims.pt)) @ q.T
            base = DenseCovariance(dims, 0.5 * (entries + entries.T))
        elif form == "kron":
            base = KronCovariance(dims, [(spd_factor(rng, dims.T), spd_factor(rng, dims.p))],
                                  rng.uniform(0.0, 1.0, dims.p))
        elif form == "rows":  # built directly, at any n: a Tyler average's form, a = 0 or not
            a = rng.choice([0.0, rng.uniform(0.0, 2.0)])
            base = GramCovariance(dims, rng.standard_normal((n, dims.pt)), a, rng.uniform(0.0, 3.0))
        else:  # the set's own choice: a GramCovariance below pT rows, dense from pT on
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "sample covariance of a single sample")
                base = SampleSet(dims, n, gram_rows(rng, n, dims)).covariance()
            assert isinstance(base, GramCovariance if n < dims.pt else DenseCovariance)
        return shrink(base, rho)

    @settings(max_examples=300, deadline=None)
    @given(form=st.sampled_from(["dense", "kron", "gram", "rows"]), p=st.integers(1, 6),
           T=st.integers(1, 6), rows=st.sampled_from(["below", "equal", "above"]),
           rho=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_reductions_match_the_own_entries(self, form, p, T, rows, rho, seed):
        rng = np.random.default_rng(seed)
        dims = SpaceTimeDims(p, T)
        n = {"below": max(1, dims.pt // 2), "equal": dims.pt, "above": 2 * dims.pt}[rows]
        cov = self.make(form, rng, dims, n, rho)
        ref = np.array(cov.entries)
        lam = np.linalg.eigvalsh(ref)
        scale = max(np.abs(lam).max(), 1e-300)  # the spectral norm
        tm, sm = rng.standard_normal((T, T)), rng.standard_normal((p, p))
        y = rng.standard_normal((5, dims.pt))
        tol = 1e-10

        assert abs(cov.trace() - np.trace(ref)) <= tol * scale * dims.pt
        assert abs(cov.frobenius_sq() - np.sum(ref ** 2)) <= tol * scale ** 2 * dims.pt
        contracted = cov.spatial_contract(tm)
        blocks = sum(tm[i, j] * ref[i * p:(i + 1) * p, j * p:(j + 1) * p]
                     for i in range(T) for j in range(T))
        assert contracted.shape == (p, p)
        assert np.abs(contracted - blocks).max() <= tol * scale * np.linalg.norm(tm) * np.sqrt(dims.pt)
        assert abs(np.vdot(contracted, sm) - np.sum(ref * np.kron(tm, sm))) <= (
            tol * scale * np.linalg.norm(tm) * np.linalg.norm(sm) * np.sqrt(dims.pt))
        assert abs(cov.quad_sum(y) - np.einsum("ki,ij,kj->", y, ref, y)) <= (
            tol * scale * np.sum(y ** 2))
        if isinstance(cov, GramCovariance):  # the own rows reuse the kept Gram; a copy of them does not
            own = cov.quad_sum(cov.x)
            assert abs(cov.quad_sum(cov.x.copy()) - own) <= 1e-12 * own
        assert_close(cov.eigvalsh(), lam, rtol=tol)
        for toeplitz_rows in (False, True):
            b = rearrange(DenseCovariance.adopt(dims, ref)).entries
            b = compress_diagonals(b, T) if toeplitz_rows else b
            assert np.abs(cov.rearranged_gram(toeplitz_rows) - b @ b.T).max() <= tol * np.sum(b ** 2)
            assert np.abs(cov.hidden_columns(toeplitz_rows) - b[:, diag_mask(dims)[1]]).max() <= (
                tol * np.abs(b).max())

        woodbury = isinstance(cov, GramCovariance) and n < dims.pt
        if woodbury and cov.a == 0.0:  # below pT rows a is an eigenvalue
            with pytest.raises(np.linalg.LinAlgError, match="needs a > 0"):
                cov.inverse_quad_forms(y)
        # a Gram form's Woodbury solve (below pT rows) is conditioned by lam_max / a = lam_max / lam_min;
        # from pT rows on it solves through its dense form's Cholesky, like the dense forms
        elif (cov.a if woodbury else lam[0]) > 1e-4 * lam[-1]:
            q, logdet = cov.inverse_quad_forms(y)
            q_ref, logdet_ref = DenseCovariance.adopt(dims, ref).inverse_quad_forms(y)
            np.testing.assert_allclose(q, q_ref, rtol=tol, atol=0)
            assert abs(logdet - logdet_ref) <= tol * max(1.0, abs(logdet_ref))

    @settings(max_examples=300, deadline=None)
    @given(form=st.sampled_from(["dense", "rows", "one term", "antisymmetric", "two terms"]),
           p=st.integers(1, 6), T=st.integers(1, 6), rows=st.sampled_from(["below", "equal", "above"]),
           shifted=st.booleans(), constant_d=st.booleans(), sign=st.sampled_from([1.0, -1.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_extremes_are_the_ends_of_the_own_spectrum(self, form, p, T, rows, shifted, constant_d,
                                                       sign, seed):
        rng = np.random.default_rng(seed)
        dims = SpaceTimeDims(p, T)
        d = np.full(p, rng.normal()) if constant_d else rng.normal(size=p)
        if form == "dense":  # indefinite
            q, _ = np.linalg.qr(rng.standard_normal((dims.pt, dims.pt)))
            entries = (q * rng.uniform(-1.0, 3.0, dims.pt)) @ q.T
            cov = DenseCovariance(dims, 0.5 * (entries + entries.T))
        elif form == "rows":
            n = {"below": max(1, dims.pt // 2), "equal": dims.pt, "above": 2 * dims.pt}[rows]
            a = rng.uniform(0.1, 2.0) if shifted else 0.0
            cov = GramCovariance(dims, rng.standard_normal((n, dims.pt)), a, rng.uniform(0.0, 3.0))
        elif form == "one term":  # indefinite symmetric factors
            tm = sign * rng.uniform(0.5, 5.0) * symmetric_factor(rng, T)
            cov = KronCovariance(dims, [(tm, symmetric_factor(rng, p))], d)
        elif form == "antisymmetric":
            a, b = rng.standard_normal((T, T)), rng.standard_normal((p, p))
            cov = KronCovariance(dims, [(a - a.T, b - b.T)], d)
        else:
            cov = KronCovariance(dims, [(sign * symmetric_factor(rng, T), symmetric_factor(rng, p)),
                                        (symmetric_factor(rng, T), symmetric_factor(rng, p))], d)
        lam = np.linalg.eigvalsh(cov.entries)
        scale = max(np.abs(lam).max(), 1e-300)  # the spectral norm
        low, high = cov.extremes()
        assert abs(low - lam[0]) <= 1e-12 * scale and abs(high - lam[-1]) <= 1e-12 * scale
        assert cov.extremes() == (low, high)
        if form == "one term":  # the two end blocks are the very blocks eigvalsh() solves
            assert cov._split(False) is not None
            assert (low, high) == tuple(cov.eigvalsh()[[0, -1]])


    @settings(max_examples=150, deadline=None)
    @given(form=st.sampled_from(["dense", "kron", "gram", "rows"]), p=st.integers(1, 6),
           T=st.integers(1, 6), scale=st.floats(0.0, 3.0), shift=st.floats(-2.0, 2.0),
           seed=st.integers(0, 2**32 - 1))
    def test_affine_matches_the_own_entries(self, form, p, T, scale, shift, seed):
        rng = np.random.default_rng(seed)
        dims = SpaceTimeDims(p, T)
        cov = self.make(form, rng, dims, max(1, dims.pt // 2), rng.uniform())
        out = cov.affine(scale, shift)
        assert type(out) is type(cov)
        ref = scale * cov.entries + shift * np.eye(dims.pt)
        if isinstance(cov, DenseCovariance):
            np.testing.assert_array_equal(out.entries, ref)
        else:
            assert_close(out.entries, ref, rtol=1e-12)
        if isinstance(cov, GramCovariance):
            assert out.x is cov.x and out._gram() is cov._gram()

    @settings(max_examples=150, deadline=None)
    @given(partner=st.sampled_from(["dense", "kron", "gram", "rows"]), p=st.integers(1, 6),
           T=st.integers(1, 6), rho=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_kron_inner_matches_the_dense_entries(self, partner, p, T, rho, seed):
        rng = np.random.default_rng(seed)
        dims = SpaceTimeDims(p, T)
        cov = self.make("kron", rng, dims, 0, rho)
        other = self.make(partner, rng, dims, max(1, dims.pt // 2), rng.uniform())
        scale = np.linalg.norm(cov.entries) * np.linalg.norm(other.entries)
        assert abs(cov.inner(other) - np.vdot(cov.entries, other.entries)) <= 1e-12 * scale

    @pytest.mark.parametrize("n", [7, 12, 30], ids=["below", "equal", "above"])
    def test_rows_form_is_dense_only_through_to_dense(self, n):
        rng = np.random.default_rng(n)
        dims = SpaceTimeDims(3, 4)  # pT = 12
        cov = GramCovariance(dims, rng.standard_normal((n, dims.pt)), 0.0, 2.5)
        dense = cov.to_dense()
        assert type(dense) is DenseCovariance and cov.to_dense() is dense
        assert dense.entries is cov.entries
        y = rng.standard_normal((5, dims.pt))
        if n < dims.pt:
            with pytest.raises(np.linalg.LinAlgError, match="needs a > 0: below pT rows"):
                cov.inverse_quad_forms(y)
        else:  # positive definite all the same: its dense form solves it
            q, logdet = cov.inverse_quad_forms(y)
            np.testing.assert_array_equal(q, dense.inverse_quad_forms(y)[0])
            sign, logdet_ref = np.linalg.slogdet(cov.entries)
            assert_close(q, np.einsum("ij,ji->i", y, np.linalg.solve(cov.entries, y.T)))
            assert sign == 1.0 and logdet == pytest.approx(logdet_ref, rel=1e-10)
        shifted = cov.affine(1.0, 0.5)  # a > 0: below pT rows the Woodbury solve, against the dense Cholesky
        q, logdet = shifted.inverse_quad_forms(y)
        q_ref, logdet_ref = shifted.to_dense().inverse_quad_forms(y)
        assert_close(q, q_ref, rtol=1e-12)
        assert logdet == pytest.approx(logdet_ref, rel=1e-12)

    def test_adopt_keeps_the_rows_and_checks_the_weights(self):
        rng = np.random.default_rng(18)
        dims = SpaceTimeDims(3, 2)
        x = rng.standard_normal((9, dims.pt))
        cov = GramCovariance.adopt(dims, x, 0.5, 2.0)
        assert cov.x is x and not x.flags.writeable
        assert (cov.a, cov.b) == (0.5, 2.0)
        np.testing.assert_array_equal(cov.entries, GramCovariance(dims, x, 0.5, 2.0).entries)
        with pytest.raises(ValueError, match="need a finite a and a finite b >= 0"):
            GramCovariance.adopt(dims, rng.standard_normal((9, dims.pt)), 0.0, -1.0)


class TestGramCovariance:
    def test_sample_covariance_entries_keep_their_bits(self):
        rng = np.random.default_rng(11)
        dims = SpaceTimeDims(4, 3)
        off = ~np.eye(dims.pt, dtype=bool)
        for n in (5, 12, 20):  # below, at and above pT = 12
            rows = rng.standard_normal((n, dims.pt))
            cov = SampleSet(dims, n, rows).covariance()
            assert isinstance(cov, GramCovariance if n < dims.pt else DenseCovariance)
            x = rows - rows.mean(axis=0)
            plain = x.T @ x
            plain /= n
            assert np.array_equal(cov.entries, plain)
            assert not cov.entries.flags.writeable and cov.entries is cov.entries
            for rho in (0.0, 0.3, 1.0):  # shrink keeps (1 - rho) S bit for bit off the diagonal
                shrunk = shrink(cov, rho)
                assert np.array_equal(shrunk.entries[off], ((1.0 - rho) * plain)[off])
                np.testing.assert_allclose(
                    np.diagonal(shrunk.entries),
                    (1.0 - rho) * np.diagonal(plain) + rho * np.trace(plain) / dims.pt,
                    rtol=1e-14, atol=0)
                if isinstance(shrunk, GramCovariance):
                    assert shrunk.a == pytest.approx(rho * np.trace(plain) / dims.pt, rel=1e-14)
                    assert shrunk.b == 1.0 - rho

    @pytest.mark.parametrize("scale, shift", [(-1.0, 5.0), (np.nan, 0.0), (1.0, np.inf)],
                             ids=["negative scale", "nan scale", "infinite shift"])
    def test_affine_keeps_the_constructor_check(self, scale, shift):
        rng = np.random.default_rng(17)
        dims = SpaceTimeDims(3, 2)
        cov = SampleSet(dims, 4, rng.standard_normal((4, dims.pt))).covariance()
        with pytest.raises(ValueError, match="need a finite a and a finite b >= 0"):
            cov.affine(scale, shift)
        assert shrink(cov, 1.0).b == 0.0 and shrink(cov, 0.25).b == 0.75

    def test_derived_forms_share_the_rows_and_their_gram(self):
        rng = np.random.default_rng(12)
        cov = GramCovariance(SpaceTimeDims(5, 2), gram_rows(rng, 4, SpaceTimeDims(5, 2)))
        shrunk = shrink(cov, 0.4)
        assert shrunk.x is cov.x
        assert shrunk._gram() is cov._gram()
        assert shrunk._gram_eigh() is cov._gram_eigh()

    @pytest.mark.parametrize("cond", [1e2, 1e4, 1e6, 1e8])
    def test_woodbury_scores_match_the_dense_cholesky(self, cond):
        # shrunk SCM a I + b S with its smallest eigenvalue a = largest / cond
        rng = np.random.default_rng(int(np.log10(cond)))
        dims = SpaceTimeDims(10, 6)
        x = gram_rows(rng, 20, dims)
        plain = GramCovariance(dims, x)
        top = plain.eigvalsh()[-1]
        cov = plain.affine(1.0, top / (cond - 1.0))
        lam = cov.eigvalsh()
        assert lam[-1] / lam[0] == pytest.approx(cond, rel=1e-10)
        y = rng.standard_normal((50, dims.pt))
        q, logdet = cov.inverse_quad_forms(y)
        q_ref, logdet_ref = DenseCovariance.adopt(dims, cov.entries).inverse_quad_forms(y)
        np.testing.assert_allclose(q, q_ref, rtol=max(1e-12, 1e-15 * cond), atol=0)
        # the dense log det carries eps * cond in each of its pT - n smallest logs
        assert abs(logdet - logdet_ref) <= max(1e-12, 1e-15 * cond) * dims.pt

    def test_scores_from_pt_rows_on_come_from_the_dense_cholesky(self):
        # a far below the one eigenvalue: Woodbury's (|y|^2 - |W y|^2) / a lost 4.6e-7 here
        dims = SpaceTimeDims(1, 1)
        cov = shrink(GramCovariance(dims, [[1.7]], 0.0, 1.3), 1e-9)
        assert cov.a == pytest.approx(1e-9 * cov.trace(), rel=1e-12)
        y = np.random.default_rng(19).standard_normal((6, 1))
        q, logdet = cov.inverse_quad_forms(y)
        q_ref, logdet_ref = DenseCovariance.adopt(dims, np.array(cov.entries)).inverse_quad_forms(y)
        np.testing.assert_allclose(q, q_ref, rtol=1e-12, atol=0)
        assert logdet == pytest.approx(logdet_ref, rel=1e-12)

    @pytest.mark.parametrize("p, T, n, a_sign, dense_route", [
        # ids n-route at p = 6, T = 3 with a > 0; the other shapes and a < 0 name themselves
        pytest.param(6, 3, 2, 1, False, id="2-False"),
        pytest.param(6, 3, 5, 1, False, id="5-False"),
        pytest.param(6, 3, 6, 1, True, id="6-True"),
        pytest.param(6, 3, 40, 1, True, id="40-True"),
        pytest.param(1, 1, 1, 1, True, id="p1-T1-n1-True"),
        pytest.param(1, 1, 3, 1, True, id="p1-T1-n3-True"),
        pytest.param(1, 4, 2, 1, True, id="p1-T4-n2-True"),
        pytest.param(6, 1, 5, 1, False, id="p6-T1-n5-False"),
        pytest.param(6, 1, 6, 1, True, id="p6-T1-n6-True"),
        pytest.param(6, 3, 2, -1, False, id="negative-a-2-False"),
        pytest.param(6, 3, 40, -1, True, id="negative-a-40-True")])
    @pytest.mark.parametrize("toeplitz_rows", [False, True])
    def test_rearranged_gram_takes_the_cheaper_route(self, p, T, n, a_sign, dense_route, toeplitz_rows,
                                                     monkeypatch):
        # frame route n^2 T^2 (p + T^2) against n (pT)^2 + T^4 p^2 over the entries: at p = 6,
        # T = 3 the frames are cheaper below n = 6, at p = 6, T = 1 below n = 6, and at p = 1
        # never.  On the entries' side only the non-Toeplitz Gram reads them: the Toeplitz one
        # sums lagged frame products
        rng = np.random.default_rng(n)
        dims = SpaceTimeDims(p, T)
        cov = shrink(GramCovariance(dims, rng.standard_normal((n, dims.pt)), 0.0, 1.5), 0.3)
        if a_sign < 0:
            cov = cov.affine(1.0, -2.0 * cov.a)
        assert np.sign(cov.a) == a_sign
        rearranged = []

        def counted(sigma, _real=kron_ops.rearrange):
            rearranged.append(type(sigma))
            return _real(sigma)
        monkeypatch.setattr(kron_ops, "rearrange", counted)
        gram = cov.rearranged_gram(toeplitz_rows)
        reads_entries = dense_route and not toeplitz_rows
        assert len(rearranged) == reads_entries
        assert ("_entries" in cov.__dict__) == reads_entries
        assert ("_dense" in cov.__dict__) == reads_entries  # the full rows are to_dense()'s
        assert ("frame_terms" in cov._shared) == (not dense_route)
        b = rearrange_oracle(np.array(cov.entries), dims.p, dims.T)
        b = compress_diagonals(b, dims.T) if toeplitz_rows else b
        assert np.abs(gram - b @ b.T).max() <= 1e-12 * np.sum(b ** 2)

    def test_toeplitz_gram_past_the_crossover_makes_no_pt_square_array(self, traced_peak):
        # p=100, T=10, n=120: past the crossover (n=100), below pT; one 1000 x 1000 array is 8 MB
        dims = SpaceTimeDims(100, 10)
        cov = GramCovariance(dims, gram_rows(np.random.default_rng(21), 120, dims))
        assert traced_peak(lambda: cov.rearranged_gram(True)) < 8 * dims.pt ** 2
        assert "_entries" not in cov.__dict__

    def test_woodbury_scores_of_a_strided_view_copy_no_large_chunk(self, traced_peak):
        # 1,500 windows of a frame stream at pT=1000 as the anomaly pipeline holds them.  For the
        # product numpy copies each chunk of the strided view into a buffer that tracemalloc does
        # not see, so the chunks are also read off the view's slices: all 1,500 rows would be 12 MB,
        # and a chunk of GRAM_SCORE_CHUNK = 256 rows is 2 MB
        class Sliced(np.ndarray):
            def __getitem__(self, key):
                out = super().__getitem__(key)
                if isinstance(key, slice) and not out.flags.c_contiguous:
                    chunks.append(out.nbytes)
                return out

        rng = np.random.default_rng(22)
        dims = SpaceTimeDims(100, 10)
        cov = shrink(GramCovariance(dims, gram_rows(rng, 50, dims)), 0.2)
        view = stream_windows(rng, 1500, dims)
        cov.inverse_quad_forms(view[:1])  # the kept Gram eigh, outside the measured call
        chunks, scores = [], []
        peak = traced_peak(lambda: scores.append(cov.inverse_quad_forms(view.view(Sliced))[0]))
        assert peak < 8 * dims.pt ** 2
        assert chunks and max(chunks) <= 2 * 1024 ** 2
        np.testing.assert_array_equal(scores[0], cov.inverse_quad_forms(view)[0])

    def test_scores_do_not_depend_on_the_chunk_size(self, monkeypatch):
        rng = np.random.default_rng(13)
        dims = SpaceTimeDims(4, 3)
        cov = shrink(GramCovariance(dims, gram_rows(rng, 5, dims)), 0.2)
        wins = windows(rng, 11, dims)
        whole = cov.inverse_quad_forms(wins)
        view = stream_windows(rng, 11, dims)
        from_view = cov.inverse_quad_forms(view)[0]
        np.testing.assert_array_equal(from_view, cov.inverse_quad_forms(view.copy())[0])
        monkeypatch.setattr(kron_ops, "GRAM_SCORE_CHUNK", 4)
        chunked = cov.inverse_quad_forms(wins)
        assert_close(chunked[0], whole[0], rtol=1e-14)
        assert chunked[1] == whole[1]
        np.testing.assert_array_equal(cov.inverse_quad_forms(view)[0],
                                      cov.inverse_quad_forms(view.copy())[0])
        assert_close(cov.inverse_quad_forms(view)[0], from_view, rtol=1e-14)

    def test_full_shrinkage_scores_by_the_norm(self):
        rng = np.random.default_rng(14)
        dims = SpaceTimeDims(3, 4)
        cov = shrink(GramCovariance(dims, gram_rows(rng, 6, dims)), 1.0)
        y = windows(rng, 7, dims)
        q, logdet = cov.inverse_quad_forms(y)
        np.testing.assert_array_equal(q, np.einsum("ij,ij->i", y, y) / cov.a)
        assert logdet == pytest.approx(dims.pt * np.log(cov.a), rel=1e-14)

    def test_a_singular_sample_covariance_is_not_scored(self):
        rng = np.random.default_rng(15)
        dims = SpaceTimeDims(3, 4)
        cov = GramCovariance(dims, gram_rows(rng, 6, dims))
        with pytest.raises(np.linalg.LinAlgError):
            cov.inverse_quad_forms(windows(rng, 2, dims))
        with pytest.raises(ValueError, match="singular or indefinite"):
            mahalanobis_scores(windows(rng, 2, dims), cov)

    def test_eigenvalues_outside_the_rows_are_exact(self):
        rng = np.random.default_rng(16)
        dims = SpaceTimeDims(5, 4)
        x = gram_rows(rng, 8, dims)  # centered: rank 7, so one more zero from the Gram
        lam = GramCovariance(dims, x).eigvalsh()
        assert np.array_equal(lam[:dims.pt - 8], np.zeros(dims.pt - 8))
        assert 0.0 <= lam[dims.pt - 8] <= 1e-12 * lam[-1] < lam[dims.pt - 7]
        shrunk = shrink(GramCovariance(dims, x), 0.25)
        assert np.array_equal(shrunk.eigvalsh()[:dims.pt - 8], np.full(dims.pt - 8, shrunk.a))

    @pytest.mark.parametrize("rows, a, b, match", [
        (np.ones((2, 5)), 0.0, 1.0, "do not match dims"),
        (np.ones((0, 6)), 0.0, 1.0, "do not match dims"),
        (np.ones((2, 6)), np.nan, 1.0, "finite"),
        (np.ones((2, 6)), 1.0, -0.5, "b >= 0"),
    ])
    def test_bad_arguments_rejected(self, rows, a, b, match):
        with pytest.raises(ValueError, match=match):
            GramCovariance(SpaceTimeDims(3, 2), rows, a, b)

    @pytest.mark.parametrize("n", [6, 13])
    def test_pt_rows_and_more_are_accepted(self, n):
        rng = np.random.default_rng(n)
        rows = rng.standard_normal((n, 6))
        cov = GramCovariance(SpaceTimeDims(3, 2), rows, 0.0, 1.0)
        plain = rows.T @ rows
        plain /= n
        np.testing.assert_array_equal(cov.entries, plain)
        assert cov.eigvalsh().shape == (6,)


class TestInverseQuadForms:
    @settings(max_examples=150, deadline=None)
    @given(d=st.integers(1, 8), n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_matches_solve_and_slogdet(self, d, n, seed):
        rng = np.random.default_rng(seed)
        q_mat, _ = np.linalg.qr(rng.standard_normal((d, d)))
        spd = (q_mat * rng.uniform(0.05, 20.0, d)) @ q_mat.T
        spd = 0.5 * (spd + spd.T)
        x = rng.standard_normal((n, d))
        q, logdet = DenseCovariance(SpaceTimeDims(d, 1), spd).inverse_quad_forms(x)
        expect = np.einsum("ij,ji->i", x, np.linalg.solve(spd, x.T))
        np.testing.assert_allclose(q, expect, rtol=1e-10)
        sign, expect_logdet = np.linalg.slogdet(spd)
        assert sign == 1.0
        assert logdet == pytest.approx(expect_logdet, rel=1e-10, abs=1e-10)

    def test_indefinite_matrix_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            DenseCovariance(SpaceTimeDims(3, 1), np.diag([2.0, -1.0, 3.0])).inverse_quad_forms(np.ones((2, 3)))

    # one block, one row either side of a block edge, and several blocks with a short last one
    BLOCKED_SIZES = [1, kron_ops.SOLVE_BLOCK - 1, kron_ops.SOLVE_BLOCK, kron_ops.SOLVE_BLOCK + 1,
                     3 * kron_ops.SOLVE_BLOCK + 5]

    @settings(max_examples=100, deadline=None)
    @given(d=st.sampled_from(BLOCKED_SIZES), n=st.integers(1, 9),
           log_cond=st.floats(0.0, 12.0), seed=st.integers(0, 2**32 - 1))
    def test_blocked_solve_matches_lapack(self, d, n, log_cond, seed):
        """The blocked forward solve against scipy's LAPACK Cholesky solve, up to condition number
        1e12.  Two LAPACK builds' factors of one matrix differ by about kappa eps, more than the
        solves do, so q is held to cho_solve on the factor the form keeps (np.linalg.cholesky's),
        and the log det to cho_factor's own factor within the first-order bound d kappa eps."""
        rng = np.random.default_rng(seed)
        q_mat, _ = np.linalg.qr(rng.standard_normal((d, d)))
        cond = 10.0 ** log_cond
        spd = (q_mat * np.geomspace(1.0, 1.0 / cond, d)) @ q_mat.T
        spd = 0.5 * (spd + spd.T)
        x = rng.standard_normal((n, d))
        q, logdet = DenseCovariance(SpaceTimeDims(d, 1), spd).inverse_quad_forms(x)
        kept = (np.linalg.cholesky(spd), True)
        np.testing.assert_allclose(q, np.einsum("ij,ji->i", x, cho_solve(kept, x.T)), rtol=1e-12)
        factor, _ = cho_factor(spd)
        expect = 2.0 * np.log(np.diagonal(factor)).sum()
        assert abs(logdet - expect) <= 1e-12 * abs(expect) + d * cond * np.finfo(float).eps

    @pytest.mark.parametrize("d", BLOCKED_SIZES)
    def test_indefinite_matrix_raises_at_every_size(self, d):
        rng = np.random.default_rng(d)
        q_mat, _ = np.linalg.qr(rng.standard_normal((d, d)))
        lam = np.linspace(1.0, 2.0, d)
        lam[rng.integers(d)] = -1e-3
        sym = (q_mat * lam) @ q_mat.T
        with pytest.raises(np.linalg.LinAlgError):
            DenseCovariance(SpaceTimeDims(d, 1), 0.5 * (sym + sym.T)).inverse_quad_forms(np.ones((2, d)))


class TestBlock:
    def test_identity_blocks(self):
        sigma = DenseCovariance(SpaceTimeDims(3, 2), np.eye(6))
        np.testing.assert_array_equal(block(sigma, 0, 0), np.eye(3))
        np.testing.assert_array_equal(block(sigma, 0, 1), np.zeros((3, 3)))

    def test_kron_blocks(self):
        rng = np.random.default_rng(19)
        a = random_symmetric(rng, 3)
        b = random_symmetric(rng, 2)
        sigma = DenseCovariance(SpaceTimeDims(2, 3), np.kron(a, b))
        for i in range(3):
            for j in range(3):
                np.testing.assert_array_equal(block(sigma, i, j), a[i, j] * b)

    def test_symmetry_between_blocks(self):
        rng = np.random.default_rng(20)
        sigma = make_cov(rng, 2, 3)
        for i in range(3):
            for j in range(3):
                np.testing.assert_array_equal(block(sigma, i, j), block(sigma, j, i).T)

    def test_out_of_range(self):
        sigma = DenseCovariance(SpaceTimeDims(2, 2), np.eye(4))
        with pytest.raises(IndexError):
            block(sigma, 0, 2)


class TestValidation:
    def test_asymmetric_input_rejected(self):
        bad = np.array([[1.0, 2.0], [2.1, 1.0]])
        with pytest.raises(ValueError, match="not symmetric"):
            DenseCovariance(SpaceTimeDims(1, 2), bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_non_finite_entries_rejected_without_a_warning(self, bad, where):
        entries = np.eye(2)
        entries[where] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="entries must be finite"):
                DenseCovariance(SpaceTimeDims(1, 2), entries)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DenseCovariance(SpaceTimeDims(2, 2), np.eye(3))

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError):
            SpaceTimeDims(0, 2)

    def test_entries_read_only(self):
        sigma = DenseCovariance(SpaceTimeDims(1, 2), np.eye(2))
        with pytest.raises(ValueError):
            sigma.entries[0, 0] = 5.0

    def test_adopt_keeps_the_array_and_makes_it_read_only(self):
        entries = np.array([[2.0, 1.0], [1.0, 3.0]])
        sigma = DenseCovariance.adopt(SpaceTimeDims(1, 2), entries)
        assert sigma.entries is entries and not entries.flags.writeable
        assert sigma.dims == SpaceTimeDims(1, 2)
        with pytest.raises(ValueError):
            sigma.entries[0, 0] = 5.0

    @pytest.mark.parametrize("entries", [np.eye(3), np.eye(2, dtype=np.float32)])
    def test_adopt_rejects_a_wrong_shape_or_dtype(self, entries):
        with pytest.raises(ValueError, match="cannot adopt"):
            DenseCovariance.adopt(SpaceTimeDims(1, 2), entries)
