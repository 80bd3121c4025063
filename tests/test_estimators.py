"""Estimator tests: frozen hand-computed values, plant-and-recover oracles,
and Monte-Carlo consistency checks at desk scale."""
import warnings

import numpy as np
import pytest
from scipy.linalg import toeplitz

from kroncov import (
    DenseCovariance,
    EstimatorConfig,
    SampleSet,
    ShrinkageIntensity,
    SpaceTimeDims,
    chen_tyler,
    dc_kronpca,
    dc_kronpca_lw,
    flipflop_S,
    kron_spectrum,
    kronpca,
    kronpca_T,
    lw_intensity,
    ar1_kron_truth,
    robust_kronpca,
    sample_gaussian,
    sample_student_t,
    scm,
    set_diag_correction,
    shrink,
    soft_impute,
    svt,
)
from kroncov.estimators import ESTIMATORS, components_for_energy, fit_by_name, make_config
from kroncov.cli import trial_seed


def sample_set(vectors, p=None, T=None):
    vectors = np.asarray(vectors, dtype=float)
    d = vectors.shape[1]
    if p is None:
        p, T = d, 1
    return SampleSet(SpaceTimeDims(p, T), vectors.shape[0], vectors)


def random_spd(rng, n, cond=10.0):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.linspace(1.0, cond, n)
    return (q * lam) @ q.T


class TestScm:
    def test_two_point_example(self):
        out = scm(sample_set([[1.0, 0.0], [-1.0, 0.0]]))
        np.testing.assert_allclose(out.entries, [[1.0, 0.0], [0.0, 0.0]])

    def test_single_sample_is_zero_with_warning(self):
        with pytest.warns(UserWarning, match="single sample"):
            out = scm(sample_set([[2.0, 3.0]]))
        np.testing.assert_array_equal(out.entries, np.zeros((2, 2)))

    def test_psd(self):
        rng = np.random.default_rng(0)
        out = scm(sample_set(rng.standard_normal((20, 6)), p=3, T=2))
        assert np.linalg.eigvalsh(out.entries)[0] >= -1e-12


class TestShrink:
    def test_rho_zero_identity_map(self):
        sigma = DenseCovariance(SpaceTimeDims(2, 1), np.diag([3.0, 1.0]))
        np.testing.assert_array_equal(shrink(sigma, 0.0).entries, sigma.entries)

    def test_rho_one_gives_scaled_identity(self):
        sigma = DenseCovariance(SpaceTimeDims(2, 1), np.diag([3.0, 1.0]))
        np.testing.assert_allclose(shrink(sigma, 1.0).entries, 2.0 * np.eye(2))

    def test_halfway_example(self):
        sigma = DenseCovariance(SpaceTimeDims(2, 1), np.diag([3.0, 1.0]))
        np.testing.assert_allclose(shrink(sigma, 0.5).entries, np.diag([2.5, 1.5]))

    def test_trace_preserved_and_spectrum_affine(self):
        rng = np.random.default_rng(1)
        sigma = DenseCovariance(SpaceTimeDims(3, 2), random_spd(rng, 6))
        rho = 0.3
        out = shrink(sigma, ShrinkageIntensity(rho))
        assert np.trace(out.entries) == pytest.approx(np.trace(sigma.entries), rel=1e-14)
        lam_in = np.linalg.eigvalsh(sigma.entries)
        lam_out = np.linalg.eigvalsh(out.entries)
        target = np.trace(sigma.entries) / 6
        np.testing.assert_allclose(lam_out, (1 - rho) * lam_in + rho * target, rtol=1e-10)


class TestLwIntensity:
    def test_hand_computed_two_point_case(self):
        # centered samples (+-0.5, -+0.5); every x~ x~^T equals the SCM, so
        # the scatter term vanishes and rho = 0
        samples = sample_set([[1.0, 0.0], [0.0, 1.0]])
        plugin = scm(samples)
        np.testing.assert_allclose(
            plugin.entries, [[0.25, -0.25], [-0.25, 0.25]]
        )
        assert lw_intensity(samples, plugin).rho == 0.0

    def test_pure_target_plugin_gives_one(self):
        rng = np.random.default_rng(2)
        samples = sample_set(rng.standard_normal((8, 3)), p=3, T=1)
        plugin = DenseCovariance(SpaceTimeDims(3, 1), 2.5 * np.eye(3))
        assert lw_intensity(samples, plugin).rho == 1.0

    def test_bounds_always_hold(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            samples = sample_set(rng.standard_normal((n, 4)), p=2, T=2)
            rho = lw_intensity(samples, scm(samples)).rho
            assert 0.0 <= rho <= 1.0

    def test_decreases_with_sample_size(self):
        truth = ar1_kron_truth(3, 2, 0.5, 0.9)
        medians = []
        for n in (10, 100, 1000):
            rhos = [
                lw_intensity(s := sample_gaussian(truth, n, 100 + t), scm(s)).rho
                for t in range(20)
            ]
            medians.append(np.median(rhos))
        assert medians[0] > medians[1] > medians[2]

    @pytest.mark.parametrize("plugin", ["scm", "random-spd"])
    def test_scatter_term_equals_the_sum_over_samples(self, plugin):
        rng = np.random.default_rng(4)
        n, d = 60, 6
        samples = sample_set(rng.standard_normal((n, d)) @ random_spd(rng, d), p=3, T=2)
        s = scm(samples).entries if plugin == "scm" else random_spd(rng, d, cond=100.0)
        x = samples.samples - samples.samples.mean(axis=0)
        b2bar = sum(np.sum((np.outer(xi, xi) - s) ** 2) for xi in x) / (n * n * d)
        d2 = np.sum((s - np.trace(s) / d * np.eye(d)) ** 2) / d
        assert b2bar < d2  # rho below 1, so the scatter term sets it
        rho = lw_intensity(samples, DenseCovariance(samples.dims, s)).rho
        np.testing.assert_allclose(rho, b2bar / d2, rtol=1e-12)

    def test_needs_two_samples(self):
        samples = sample_set([[1.0, 0.0]])
        with pytest.raises(ValueError):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                lw_intensity(samples, scm(samples))


class TestSvt:
    def test_threshold_example(self):
        out = svt(np.diag([3.0, 1.0]), 2.0)
        np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-12)

    def test_zero_threshold_full_rank_reproduces(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((5, 7))
        np.testing.assert_allclose(svt(m, 0.0), m, atol=1e-12)

    def test_nuclear_norm_matches_thresholded_values(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((6, 4))
        tau = 0.7
        out = svt(m, tau, max_rank=3)
        sv_in = np.linalg.svd(m, compute_uv=False)
        expected = np.maximum(sv_in[:3] - tau, 0.0).sum()
        assert np.linalg.svd(out, compute_uv=False).sum() == pytest.approx(expected, abs=1e-10)


class TestSoftImpute:
    def test_full_mask_is_single_svt(self):
        rng = np.random.default_rng(6)
        b = rng.standard_normal((5, 8))
        cfg = EstimatorConfig(r=3, beta=0.5)
        res = soft_impute(b, np.ones_like(b), 0.5, cfg)
        np.testing.assert_allclose(res.z, svt(b, 0.25, 3), atol=1e-12)
        assert res.converged

    def test_no_penalty_full_rank_reproduces(self):
        rng = np.random.default_rng(7)
        b = rng.standard_normal((4, 6))
        cfg = EstimatorConfig(r=4, beta=0.0)
        res = soft_impute(b, np.ones_like(b), 0.0, cfg)
        np.testing.assert_allclose(res.z, b, atol=1e-12)

    def test_rank_one_completion_recovers_hidden_entries(self):
        rng = np.random.default_rng(8)
        u, v = rng.standard_normal(9), rng.standard_normal(12)
        b = np.outer(u, v)
        mask = (rng.random(b.shape) > 0.1).astype(float)
        cfg = EstimatorConfig(r=1, beta=1e-8, tol=1e-11, max_iter=3000)
        res = soft_impute(b, mask, 1e-8, cfg)
        hidden = mask == 0
        assert np.abs(res.z[hidden] - b[hidden]).max() < 1e-6

    def test_objective_trace_nonincreasing(self):
        rng = np.random.default_rng(9)
        for trial in range(10):
            b = rng.standard_normal((7, 10))
            mask = (rng.random(b.shape) > 0.3).astype(float)
            res = soft_impute(b, mask, 0.4, EstimatorConfig(r=3, beta=0.4))
            diffs = np.diff(res.objective_trace)
            assert (diffs <= 1e-9 * max(1.0, res.objective_trace[0])).all()

    def test_nonconvergence_flagged(self):
        rng = np.random.default_rng(10)
        b = rng.standard_normal((6, 6))
        mask = (rng.random(b.shape) > 0.4).astype(float)
        cfg = EstimatorConfig(r=2, beta=0.1, tol=1e-14, max_iter=3)
        with pytest.warns(UserWarning, match="did not converge"):
            res = soft_impute(b, mask, 0.1, cfg)
        assert not res.converged
        assert res.iterations == 3


class TestKronpca:
    def test_exact_rank_one_recovery(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((4, 4)); a += a.T
        b = rng.standard_normal((3, 3)); b += b.T
        sigma = DenseCovariance(SpaceTimeDims(3, 4), np.kron(a, b))
        model = kronpca(sigma, EstimatorConfig(r=1, beta=0.0))
        rec = model.covariance()
        scale = np.abs(sigma.entries).max()
        assert np.abs(rec.entries - sigma.entries).max() < 1e-10 * scale

    def test_toeplitz_flag_recovers_toeplitz_factor(self):
        rng = np.random.default_rng(12)
        a = toeplitz(rng.standard_normal(5))
        b = rng.standard_normal((3, 3)); b += b.T
        sigma = DenseCovariance(SpaceTimeDims(3, 5), np.kron(a, b))
        model = kronpca(sigma, EstimatorConfig(r=1, beta=0.0, toeplitz=True))
        _, tm, _ = model.factors[0]
        assert np.abs(tm - toeplitz(tm[:, 0], tm[0, :])).max() == 0.0
        rec = model.covariance()
        assert np.abs(rec.entries - sigma.entries).max() < 1e-10 * np.abs(sigma.entries).max()

    def test_total_thresholding_empties_model(self):
        rng = np.random.default_rng(13)
        sigma = DenseCovariance(SpaceTimeDims(2, 2), random_spd(rng, 4))
        top = np.linalg.svd(
            np.outer(np.eye(2).ravel(), np.eye(2).ravel()), compute_uv=False
        )[0]
        beta = 10.0 * np.linalg.norm(sigma.entries)
        model = kronpca(sigma, EstimatorConfig(r=2, beta=beta))
        assert model.factors == []
        np.testing.assert_array_equal(model.covariance().entries, np.zeros((4, 4)))

    def test_requires_no_diag_correction(self):
        sigma = DenseCovariance(SpaceTimeDims(2, 2), np.eye(4))
        with pytest.raises(ValueError):
            kronpca(sigma, EstimatorConfig(diag_correct=True))

    def test_toeplitz_fit_is_block_toeplitz(self):
        from kroncov import block

        rng = np.random.default_rng(40)
        m = rng.standard_normal((12, 12))
        sigma = DenseCovariance(SpaceTimeDims(3, 4), m + m.T)
        for fit in (
            kronpca(sigma, EstimatorConfig(r=2, beta=0.0, toeplitz=True)),
            dc_kronpca(sigma, EstimatorConfig(r=2, beta=0.0, toeplitz=True,
                                              diag_correct=True, max_iter=2000)),
        ):
            cov = fit.covariance()
            for i in range(3):
                for j in range(3):
                    np.testing.assert_array_equal(
                        block(cov, i, j), block(cov, i + 1, j + 1)
                    )


class TestSetDiagCorrection:
    def test_equal_inputs_give_zero(self):
        sigma = DenseCovariance(SpaceTimeDims(2, 2), np.eye(4))
        np.testing.assert_array_equal(set_diag_correction(sigma, sigma), np.zeros(2))

    def test_additive_identity_case(self):
        rng = np.random.default_rng(14)
        low = random_spd(rng, 6)
        d = np.array([0.5, 1.5, 0.0])
        dims = SpaceTimeDims(3, 2)
        full = DenseCovariance(dims, low + np.kron(np.eye(2), np.diag(d)))
        lowrank = DenseCovariance(dims, low)
        np.testing.assert_allclose(set_diag_correction(full, lowrank), d, atol=1e-12)

    def test_negative_residual_floored(self):
        dims = SpaceTimeDims(2, 2)
        sigma = DenseCovariance(dims, np.zeros((4, 4)))
        lowrank = DenseCovariance(dims, np.eye(4))
        np.testing.assert_array_equal(set_diag_correction(sigma, lowrank), np.zeros(2))


class TestDcKronpca:
    def test_plant_and_recover(self):
        rng = np.random.default_rng(15)
        T, p = 4, 5
        a = toeplitz(rng.standard_normal(T))
        b = rng.standard_normal((p, p)); b += b.T
        d = rng.uniform(0.1, 1.0, p)
        dims = SpaceTimeDims(p, T)
        sigma = DenseCovariance(dims, np.kron(a, b) + np.kron(np.eye(T), np.diag(d)))
        cfg = EstimatorConfig(r=1, beta=1e-6, toeplitz=True, diag_correct=True,
                              tol=1e-10, max_iter=2000)
        model = dc_kronpca(sigma, cfg)
        rec = model.covariance()
        err = np.linalg.norm(rec.entries - sigma.entries) / np.linalg.norm(sigma.entries)
        assert err < 1e-6
        np.testing.assert_allclose(model.u, d, atol=1e-5)

    def test_unconstrained_completion_keeps_observed_entries(self):
        rng = np.random.default_rng(16)
        dims = SpaceTimeDims(2, 2)
        sigma = DenseCovariance(dims, random_spd(rng, 4))
        cfg = EstimatorConfig(r=4, beta=0.0, toeplitz=False, diag_correct=True)
        model = dc_kronpca(sigma, cfg)
        rec = model.covariance().entries
        off_diag = ~np.eye(4, dtype=bool)
        assert np.abs((rec - sigma.entries)[off_diag]).max() < 1e-10
        # diagonal goes through the time-averaged u term
        expected_u = np.diag(sigma.entries).reshape(2, 2).mean(axis=0)
        np.testing.assert_allclose(model.u, expected_u, atol=1e-10)

    def test_degenerate_single_cell(self):
        sigma = DenseCovariance(SpaceTimeDims(1, 1), np.array([[2.5]]))
        model = dc_kronpca(sigma, EstimatorConfig(r=1, beta=0.0, diag_correct=True))
        assert model.factors == []
        np.testing.assert_allclose(model.u, [2.5])

    def test_fit_error_nonincreasing_in_rank(self):
        rng = np.random.default_rng(17)
        dims = SpaceTimeDims(3, 3)
        sigma = DenseCovariance(dims, random_spd(rng, 9, cond=50))
        errs = []
        for r in (1, 2, 3):
            cfg = EstimatorConfig(r=r, beta=0.0, toeplitz=False, diag_correct=True,
                                  tol=1e-9, max_iter=1000)
            rec = dc_kronpca(sigma, cfg).covariance().entries
            off = ~np.eye(9, dtype=bool)
            errs.append(np.linalg.norm((rec - sigma.entries)[off]))
        assert errs[0] >= errs[1] - 1e-9 and errs[1] >= errs[2] - 1e-9


class TestDcKronpcaLw:
    def test_consistency_at_large_n(self):
        truth = ar1_kron_truth(5, 4, 0.5, 0.95)
        samples = sample_gaussian(truth, 10_000, 31)
        cfg = EstimatorConfig(r=1, beta=0.0, toeplitz=True, diag_correct=True)
        cov, info = dc_kronpca_lw(samples, cfg, full_output=True)
        err = np.linalg.norm(cov.entries - truth.sigma.entries) / np.linalg.norm(truth.sigma.entries)
        assert err < 0.05
        assert info["rho"] < 0.05

    def test_low_sample_output_positive_definite(self):
        truth = ar1_kron_truth(10, 2, 0.5, 0.95)
        samples = sample_gaussian(truth, 2, 32)
        cfg = EstimatorConfig(r=1, beta=0.0, toeplitz=True, diag_correct=True)
        cov = dc_kronpca_lw(samples, cfg)
        assert np.linalg.eigvalsh(cov.entries)[0] > 0

    def test_forced_full_shrinkage_gives_scaled_identity(self):
        truth = ar1_kron_truth(3, 2, 0.5, 0.95)
        samples = sample_gaussian(truth, 20, 33)
        cfg = EstimatorConfig(r=1, beta=0.0, rho=1.0, toeplitz=True, diag_correct=True)
        cov = dc_kronpca_lw(samples, cfg)
        m = np.trace(cov.entries) / 6
        np.testing.assert_allclose(cov.entries, m * np.eye(6), atol=1e-12)


class TestChenTyler:
    def test_scale_invariance_bit_identical(self):
        rng = np.random.default_rng(18)
        x = rng.standard_normal((40, 6))
        base = chen_tyler(sample_set(x, p=3, T=2), 0.1)
        scales = 2.0 ** rng.integers(-8, 9, size=40).astype(float)
        rescaled = chen_tyler(sample_set(x * scales[:, None], p=3, T=2), 0.1)
        assert np.array_equal(base.entries, rescaled.entries)

    def test_full_shrinkage_returns_identity(self):
        rng = np.random.default_rng(19)
        out = chen_tyler(sample_set(rng.standard_normal((20, 4)), p=2, T=2), 1.0)
        np.testing.assert_array_equal(out.entries, np.eye(4))

    def test_shape_consistency_on_gaussian_data(self):
        truth_mat = np.diag([4.0, 1.0])
        truth = ar1_kron_truth(2, 1, 0.0, 0.0)
        rng = np.random.default_rng(20)
        x = rng.standard_normal((10_000, 2)) @ np.diag([2.0, 1.0])
        out = chen_tyler(sample_set(x), 0.05)
        target = truth_mat * (2.0 / truth_mat.trace())
        rel = np.linalg.norm(out.entries - target) / np.linalg.norm(target)
        assert rel < 0.10

    def test_trace_normalized(self):
        rng = np.random.default_rng(21)
        out = chen_tyler(sample_set(rng.standard_normal((30, 4)), p=2, T=2), 0.2)
        assert np.trace(out.entries) == pytest.approx(4.0, abs=1e-9)

    def test_zero_sample_rejected(self):
        x = np.array([[1.0, 2.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="zero sample"):
            chen_tyler(sample_set(x), 0.1)

    def test_rho_zero_rejected(self):
        rng = np.random.default_rng(22)
        with pytest.raises(ValueError):
            chen_tyler(sample_set(rng.standard_normal((10, 2))), 0.0)


class TestKronpcaT:
    def test_recovers_toeplitz_temporal_factor(self):
        rng = np.random.default_rng(23)
        T, p = 4, 3
        a = ar1 = np.array([[0.5 ** abs(i - j) for j in range(T)] for i in range(T)])
        b = random_spd(rng, p)
        sigma = DenseCovariance(SpaceTimeDims(p, T), np.kron(a, b))
        out = kronpca_T(sigma)
        expected = a * (T / np.trace(a))
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_identity_fixed_point(self):
        sigma = DenseCovariance(SpaceTimeDims(2, 3), np.eye(6))
        np.testing.assert_allclose(kronpca_T(sigma), np.eye(3), atol=1e-12)

    def test_output_psd_toeplitz_trace_t_on_indefinite_input(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            T, p = 4, 3
            m = rng.standard_normal((12, 12))
            sigma = DenseCovariance(SpaceTimeDims(p, T), m + m.T)
            out = kronpca_T(sigma)
            assert np.linalg.eigvalsh(out)[0] >= 0.0
            np.testing.assert_allclose(out, toeplitz(out[:, 0]), atol=1e-12)
            assert np.trace(out) == pytest.approx(T, rel=1e-12)

    def test_zero_input_rejected(self):
        sigma = DenseCovariance(SpaceTimeDims(2, 2), np.zeros((4, 4)))
        with pytest.raises(ValueError):
            kronpca_T(sigma)


class TestFlipflopS:
    def test_exact_factor_recovery(self):
        rng = np.random.default_rng(25)
        t0 = random_spd(rng, 4)
        s0 = random_spd(rng, 3)
        sigma = DenseCovariance(SpaceTimeDims(3, 4), np.kron(t0, s0))
        np.testing.assert_allclose(flipflop_S(sigma, t0), s0, atol=1e-10)

    def test_identity_temporal_gives_block_average(self):
        rng = np.random.default_rng(26)
        dims = SpaceTimeDims(3, 4)
        sigma = DenseCovariance(dims, random_spd(rng, 12))
        out = flipflop_S(sigma, np.eye(4))
        blocks = sigma.entries.reshape(4, 3, 4, 3)
        expected = np.mean([blocks[i, :, i, :] for i in range(4)], axis=0)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_psd_preserved(self):
        rng = np.random.default_rng(27)
        for _ in range(100):
            t_hat = random_spd(rng, 3, cond=20)
            sigma = DenseCovariance(SpaceTimeDims(2, 3), random_spd(rng, 6, cond=50))
            out = flipflop_S(sigma, t_hat)
            assert np.linalg.eigvalsh(out)[0] > -1e-10

    def test_singular_temporal_rejected(self):
        sigma = DenseCovariance(SpaceTimeDims(2, 2), np.eye(4))
        with pytest.raises(ValueError):
            flipflop_S(sigma, np.zeros((2, 2)))


class TestRobustKronpca:
    def test_scale_invariance_bit_identical(self):
        rng = np.random.default_rng(28)
        x = rng.standard_normal((40, 6))
        base = robust_kronpca(sample_set(x, p=3, T=2), 0.1)
        scales = 2.0 ** rng.integers(-8, 9, size=40).astype(float)
        rescaled = robust_kronpca(sample_set(x * scales[:, None], p=3, T=2), 0.1)
        assert np.array_equal(base.entries, rescaled.entries)

    def test_full_shrinkage_returns_identity(self):
        rng = np.random.default_rng(29)
        out = robust_kronpca(sample_set(rng.standard_normal((20, 4)), p=2, T=2), 1.0)
        np.testing.assert_array_equal(out.entries, np.eye(4))

    def test_beats_unstructured_robust_estimate_on_kron_truth(self):
        # paired heavy-tailed draws; the structured fit should win nearly always
        truth = ar1_kron_truth(10, 5, 0.5, 0.95)
        shape_truth = truth.sigma.entries / np.trace(truth.sigma.entries)
        wins = 0
        trials = 30
        for t in range(trials):
            ss = sample_student_t(truth, 3.0, 500, trial_seed(904, 500, t))
            e_robust = robust_kronpca(ss, 0.05)
            e_chen = chen_tyler(ss, 0.05)
            err_r = np.linalg.norm(e_robust.entries / np.trace(e_robust.entries) - shape_truth)
            err_c = np.linalg.norm(e_chen.entries / np.trace(e_chen.entries) - shape_truth)
            wins += err_r < err_c
        assert wins >= 0.8 * trials

    def test_trace_and_floor(self):
        truth = ar1_kron_truth(3, 3, 0.5, 0.95)
        ss = sample_student_t(truth, 3.0, 100, 5)
        out = robust_kronpca(ss, 0.2)
        assert np.trace(out.entries) == pytest.approx(9.0, abs=1e-9)
        assert np.linalg.eigvalsh(out.entries)[0] >= 0.2 - 1e-10


class TestKronSpectrum:
    def test_kron_truth_single_component(self):
        rng = np.random.default_rng(30)
        a = random_spd(rng, 3)
        b = random_spd(rng, 2)
        sigma = DenseCovariance(SpaceTimeDims(2, 3), np.kron(a, b))
        kron_sv, _ = kron_spectrum(sigma, toeplitz_rows=False)
        assert kron_sv[0] == pytest.approx(1.0, abs=1e-12)
        assert kron_sv[1] < 1e-12

    def test_identity_spectra(self):
        sigma = DenseCovariance(SpaceTimeDims(2, 3), np.eye(6))
        kron_sv, pca_ev = kron_spectrum(sigma, toeplitz_rows=True)
        assert kron_sv[0] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(pca_ev, pca_ev[0])

    def test_unit_energy_and_ordering(self):
        rng = np.random.default_rng(31)
        sigma = DenseCovariance(SpaceTimeDims(2, 3), random_spd(rng, 6, cond=100))
        for flag in (True, False):
            kron_sv, pca_ev = kron_spectrum(sigma, flag)
            assert np.sum(kron_sv ** 2) == pytest.approx(1.0, abs=1e-12)
            assert np.sum(pca_ev ** 2) == pytest.approx(1.0, abs=1e-12)
            assert (np.diff(kron_sv) <= 1e-12).all()
            assert (np.diff(pca_ev) <= 1e-12).all()

    def test_energy_count_helper(self):
        assert components_for_energy(np.array([1.0, 0.0])) == 1
        assert components_for_energy(np.array([3.0, 4.0]) / 5.0) == 2


class TestConfigValidation:
    def test_bad_fields_rejected(self):
        with pytest.raises(ValueError):
            EstimatorConfig(r=0)
        with pytest.raises(ValueError, match="r must be"):
            EstimatorConfig(r=1.5)
        with pytest.raises(ValueError, match="r must be"):
            EstimatorConfig(r=True)
        with pytest.raises(ValueError, match="rho must be"):
            EstimatorConfig(rho=True)
        with pytest.raises(ValueError, match="max_iter must be"):
            EstimatorConfig(max_iter=2.5)
        with pytest.raises(ValueError):
            EstimatorConfig(beta=-0.1)
        with pytest.raises(ValueError):
            EstimatorConfig(rho=1.5)
        with pytest.raises(ValueError):
            EstimatorConfig(rho="sometimes")
        with pytest.raises(ValueError):
            EstimatorConfig(tol=0.0)
        with pytest.raises(ValueError, match="toeplitz must be true or false"):
            EstimatorConfig(toeplitz="no")
        with pytest.raises(ValueError, match="diag_correct must be true or false"):
            EstimatorConfig(diag_correct=1)
        with pytest.raises(ValueError, match="beta must be a nonnegative number"):
            EstimatorConfig(beta="x")
        with pytest.raises(ValueError, match="tol must be a positive number"):
            EstimatorConfig(tol=float("inf"))

    def test_intensity_clamped(self):
        assert ShrinkageIntensity(1.7).rho == 1.0
        assert ShrinkageIntensity(-0.2).rho == 0.0


class TestRegistry:
    @pytest.mark.parametrize("name, own", [("kronpca", False), ("dc-kronpca-lw", True)])
    def test_diag_correct_override_must_match_the_estimator(self, name, own):
        assert make_config(name, {"diag_correct": own}).diag_correct is own
        with pytest.raises(ValueError, match=f"diag_correct={not own} contradicts"):
            make_config(name, {"diag_correct": not own})

    def test_unknown_name_rejected(self):
        rng = np.random.default_rng(32)
        with pytest.raises(ValueError, match="unknown estimator"):
            fit_by_name("nope", sample_set(rng.standard_normal((5, 2))))

    def test_scm_lw_shrinks_toward_identity(self):
        truth = ar1_kron_truth(4, 2, 0.5, 0.95)
        ss = sample_gaussian(truth, 6, 3)
        cov, info = fit_by_name("scm-lw", ss)
        assert 0.0 < info["rho"] <= 1.0
        assert np.linalg.eigvalsh(cov.entries)[0] > 0

    def test_auto_rho_cross_validation_runs(self):
        truth = ar1_kron_truth(3, 2, 0.5, 0.95)
        ss = sample_student_t(truth, 3.0, 60, 8)
        cov, info = fit_by_name("chen-tyler", ss, {"rho": "auto"})
        assert 0.01 <= info["rho"] <= 0.5
        assert np.trace(cov.entries) == pytest.approx(6.0, abs=1e-9)

    def test_kron_model_json_roundtrip(self):
        from kroncov.estimators import KronModel

        truth = ar1_kron_truth(3, 3, 0.5, 0.95)
        ss = sample_gaussian(truth, 50, 13)
        cfg = EstimatorConfig(r=2, beta=0.01, toeplitz=True, diag_correct=True)
        model = dc_kronpca(scm(ss), cfg)
        doc = model.to_json_dict()
        back = KronModel.from_json_dict(doc)
        np.testing.assert_allclose(
            back.covariance().entries, model.covariance().entries, atol=1e-12
        )
        assert back.config == model.config


@pytest.mark.parametrize("name", sorted(ESTIMATORS))
def test_every_registered_estimator_meets_the_table_contract(name):
    spec = ESTIMATORS[name]
    truth = ar1_kron_truth(3, 2, 0.5, 0.95)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for n in (spec.min_n, 30):
            samples = sample_student_t(truth, 3.0, n, 17)
            cov, info = fit_by_name(name, samples)
            assert cov.dims == truth.sigma.dims
            np.testing.assert_allclose(cov.entries, cov.entries.T, rtol=0, atol=1e-12)
            assert {"estimator", "iterations", "converged", "rho", "model"} <= set(info)
            if spec.shape:
                assert np.trace(cov.entries) == pytest.approx(truth.sigma.dims.pt, rel=1e-9)
    too_few = SampleSet(truth.sigma.dims, spec.min_n - 1,
                        np.ones((spec.min_n - 1, truth.sigma.dims.pt)))
    with pytest.raises(ValueError, match=rf"needs n >= {spec.min_n} samples, got n={spec.min_n - 1}"):
        fit_by_name(name, too_few)
