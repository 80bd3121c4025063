"""Generator tests: formulas, determinism, and distributional sanity."""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kroncov import (
    GroundTruth,
    KronCovariance,
    SampleSet,
    SpaceTimeDims,
    ar1_cov,
    inject_anomalies,
    ar1_kron_truth,
    rearrange,
    sample_gaussian,
    sample_student_t,
)
from kroncov.synth import _root_from_eigh, ar1_frame_stream, read_sample_csv, write_sample_csv


class TestAr1Cov:
    def test_formula(self):
        expected = np.array([[1, 0.5, 0.25], [0.5, 1, 0.5], [0.25, 0.5, 1]])
        np.testing.assert_allclose(ar1_cov(3, 0.5), expected)

    def test_zero_coeff_is_identity(self):
        np.testing.assert_array_equal(ar1_cov(4, 0.0), np.eye(4))

    def test_positive_definite_at_strong_correlation(self):
        assert np.linalg.eigvalsh(ar1_cov(10, 0.95))[0] > 0

    def test_invalid_coeff(self):
        with pytest.raises(ValueError):
            ar1_cov(3, 1.0)


class TestPaperTruth:
    def test_degenerate_single_cell(self):
        truth = ar1_kron_truth(1, 1, 0.5, 0.95)
        np.testing.assert_array_equal(truth.sigma.entries, [[1.0]])

    def test_rearrangement_is_rank_one(self):
        truth = ar1_kron_truth(4, 3, 0.5, 0.95)
        sv = np.linalg.svd(rearrange(truth.sigma).entries, compute_uv=False)
        assert sv[1] < 1e-12 * sv[0]

    def test_cross_entry_from_kron_expansion(self):
        # covariance between (frame 0, coord 0) and (frame 1, coord 1)
        truth = ar1_kron_truth(2, 2, 0.5, 0.95)
        assert truth.sigma.entries[0, 3] == pytest.approx(0.5 * 0.95)

    def test_defaults_match_benchmark_grid(self):
        truth = ar1_kron_truth()
        assert truth.sigma.dims == SpaceTimeDims(100, 10)

    def test_positive_definite_enforced(self):
        zero = KronCovariance(SpaceTimeDims(1, 2), [(np.zeros((2, 2)), np.zeros((1, 1)))], 0.0)
        with pytest.raises(ValueError, match="positive definite"):
            GroundTruth(zero, "zero")

    @pytest.mark.parametrize("pairs, d", [
        ([(np.eye(2), np.eye(1))] * 2, 0.0), ([(np.eye(2), np.eye(1))], 1.0)])
    def test_only_one_term_without_a_diagonal_accepted(self, pairs, d):
        with pytest.raises(ValueError, match="one Kronecker term"):
            GroundTruth(KronCovariance(SpaceTimeDims(1, 2), pairs, d), "not separable")

    def test_truth_is_carried_as_its_factors(self):
        truth = ar1_kron_truth(4, 3, 0.5, 0.95)
        (tm, sm), = truth.sigma.pairs
        np.testing.assert_array_equal(tm, ar1_cov(3, 0.5))
        np.testing.assert_array_equal(sm, ar1_cov(4, 0.95))
        np.testing.assert_array_equal(truth.sigma.d, np.zeros(4))

    def test_paper_scale_truth_factorizes_only_small_matrices(self, monkeypatch):
        for name in ("eigh", "eigvalsh"):
            real = getattr(np.linalg, name)

            def small_only(a, *args, _real=real, _name=name, **kwargs):
                if np.shape(a)[-1] > 100:
                    raise AssertionError(f"{_name} of a {np.shape(a)} input")
                return _real(a, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, small_only)
        truth = ar1_kron_truth(100, 10)
        assert [r.shape for r in truth.root] == [(10, 10), (100, 100)]


@settings(max_examples=40, deadline=None)
@given(p=st.integers(1, 8), T=st.integers(1, 6),
       tcoeff=st.floats(-0.95, 0.95, exclude_min=True, exclude_max=True),
       scoeff=st.floats(-0.95, 0.95, exclude_min=True, exclude_max=True))
def test_truth_root_is_the_symmetric_square_root(p, T, tcoeff, scoeff):
    truth = ar1_kron_truth(p, T, tcoeff, scoeff)
    for root, factor in zip(truth.root, truth.sigma.pairs[0]):
        np.testing.assert_array_equal(root, root.T)
        assert np.abs(root @ root - factor).max() <= 1e-12 * np.abs(factor).max()


class TestGaussianSampler:
    def test_sample_covariance_converges(self):
        truth = ar1_kron_truth(2, 2, 0.0, 0.0)  # identity truth, pT=4
        sset = sample_gaussian(truth, 10_000, 123)
        emp = sset.samples.T @ sset.samples / sset.n
        rel = np.linalg.norm(emp - np.eye(4)) / np.linalg.norm(np.eye(4))
        assert rel < 0.10

    def test_same_seed_bit_identical(self):
        truth = ar1_kron_truth(3, 2, 0.5, 0.95)
        a = sample_gaussian(truth, 50, 9)
        b = sample_gaussian(truth, 50, 9)
        assert np.array_equal(a.samples, b.samples)

    def test_single_sample_shape(self):
        truth = ar1_kron_truth(3, 2, 0.5, 0.95)
        sset = sample_gaussian(truth, 1, 0)
        assert sset.samples.shape == (1, 6)


def symmetric_root(a):
    return _root_from_eigh(*np.linalg.eigh(a))


class TestSamplerRoot:
    @settings(max_examples=30, deadline=None)
    @given(p=st.integers(1, 8), T=st.integers(1, 8), n=st.sampled_from([1, 2, 9, 40]),
           dof=st.sampled_from([1.0, 3.0, 30.0]), seed=st.integers(0, 2 ** 16))
    def test_samplers_apply_the_symmetric_root_bit_for_bit(self, p, T, n, dof, seed):
        truth = ar1_kron_truth(p, T, 0.5, 0.95)
        root_t, root_s = truth.root
        np.testing.assert_array_equal(root_t, symmetric_root(ar1_cov(T, 0.5)))
        np.testing.assert_array_equal(root_s, symmetric_root(ar1_cov(p, 0.95)))
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((n, p * T))
        scale = np.sqrt(dof / rng.chisquare(dof, size=n))
        # per frame, bit for bit: root(T) Z root(S) for each row read as T x p
        frames = (root_t @ z.reshape(n, T, p) @ root_s).reshape(n, p * T)
        gauss = sample_gaussian(truth, n, seed).samples
        heavy = sample_student_t(truth, dof, n, seed).samples
        assert np.array_equal(gauss, frames)
        assert np.array_equal(heavy, frames * scale[:, None])
        # the same map as the dense root root(T) (x) root(S), the symmetric root of sigma
        kron_root = np.kron(root_t, root_s)
        dense_root = symmetric_root(truth.sigma.entries)
        assert np.abs(kron_root - dense_root).max() <= 1e-12 * np.abs(dense_root).max()
        dense = z @ kron_root
        for out, ref in ((gauss, dense), (heavy, dense * scale[:, None])):
            assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_paper_scale_sampling_forms_no_kronecker_product(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.kron called")
        monkeypatch.setattr(np, "kron", refuse)
        truth = ar1_kron_truth(100, 10)
        assert sample_gaussian(truth, 3, 0).samples.shape == (3, 1000)
        assert sample_student_t(truth, 3.0, 3, 0).samples.shape == (3, 1000)

    def test_sampling_runs_no_eigendecomposition(self, monkeypatch):
        truth = ar1_kron_truth(3, 2, 0.5, 0.95)

        def refuse(*args, **kwargs):
            raise AssertionError("the sampler factorized the truth")
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        assert sample_gaussian(truth, 5, 0).samples.shape == (5, 6)
        assert sample_student_t(truth, 3.0, 5, 0).samples.shape == (5, 6)


class TestStudentTSampler:
    def test_scale_factor_concentrates_at_large_dof(self):
        truth = ar1_kron_truth(2, 2, 0.5, 0.95)
        n = 2000
        gauss = sample_gaussian(truth, n, 77)
        heavy = sample_student_t(truth, 1e6, n, 77)
        # same z-draws, so the per-sample norm ratio is the scale factor
        ratio = np.linalg.norm(heavy.samples, axis=1) / np.linalg.norm(gauss.samples, axis=1)
        assert np.mean((ratio > 0.99) & (ratio < 1.01)) >= 0.99

    def test_deterministic(self):
        truth = ar1_kron_truth(2, 2, 0.5, 0.95)
        a = sample_student_t(truth, 3.0, 30, 5)
        b = sample_student_t(truth, 3.0, 30, 5)
        assert np.array_equal(a.samples, b.samples)

    def test_heavy_tails_present_at_dof_3(self):
        truth = ar1_kron_truth(2, 2, 0.5, 0.95)
        heavy = sample_student_t(truth, 3.0, 4000, 21)
        gauss = sample_gaussian(truth, 4000, 21)
        assert np.abs(heavy.samples).max() > 3 * np.abs(gauss.samples).max()

    def test_bad_dof(self):
        truth = ar1_kron_truth(2, 2, 0.5, 0.95)
        with pytest.raises(ValueError):
            sample_student_t(truth, 0.0, 10, 0)


class TestFrameStream:
    def test_window_covariance_matches_kronecker_truth(self):
        p, T = 3, 4
        frames = ar1_frame_stream(p, 200_000, 0.5, 0.9, seed=11)
        windows = np.stack([frames[s:s + T].reshape(-1) for s in range(0, 199_000, 7)])
        emp = windows.T @ windows / windows.shape[0]
        target = np.kron(ar1_cov(T, 0.5), ar1_cov(p, 0.9))
        assert np.linalg.norm(emp - target) / np.linalg.norm(target) < 0.05

    def test_deterministic(self):
        a = ar1_frame_stream(4, 100, 0.3, 0.9, seed=2)
        b = ar1_frame_stream(4, 100, 0.3, 0.9, seed=2)
        assert np.array_equal(a, b)

    def test_burst_scaling_preserves_mean(self):
        frames = ar1_frame_stream(5, 50_000, 0.2, 0.8, seed=3, dof=3.0)
        assert np.abs(frames.mean(axis=0)).max() < 0.1


class TestInjectAnomalies:
    def test_zero_rate_is_identity(self):
        rng = np.random.default_rng(0)
        base = rng.standard_normal((100, 4))
        series, labels = inject_anomalies(base, 0.0, 5.0, seed=1)
        assert np.array_equal(series, base)
        assert labels.sum() == 0

    def test_zero_magnitude_keeps_data(self):
        rng = np.random.default_rng(1)
        base = rng.standard_normal((500, 4))
        series, labels = inject_anomalies(base, 0.2, 0.0, seed=2)
        assert np.array_equal(series, base)
        assert labels.sum() > 0

    def test_label_fraction_concentrates(self):
        rng = np.random.default_rng(2)
        base = rng.standard_normal((10_000, 3))
        _, labels = inject_anomalies(base, 0.1, 5.0, seed=3)
        assert 0.05 <= labels.mean() <= 0.15

    def test_episodes_are_contiguous_shifts(self):
        rng = np.random.default_rng(3)
        base = rng.standard_normal((2000, 6))
        series, labels = inject_anomalies(base, 0.1, 8.0, seed=4)
        delta = series - base
        assert np.array_equal(np.any(delta != 0, axis=1), labels.astype(bool))

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            inject_anomalies(np.zeros((10, 2)), 1.0, 5.0, seed=0)


class TestSampleCsv:
    def test_roundtrip(self, tmp_path):
        truth = ar1_kron_truth(2, 3, 0.5, 0.95)
        sset = sample_gaussian(truth, 17, 4)
        path = tmp_path / "s.csv"
        write_sample_csv(path, sset)
        back = read_sample_csv(path, sset.dims)
        assert np.array_equal(back.samples, sset.samples)

    def test_dimension_check(self, tmp_path):
        truth = ar1_kron_truth(2, 2, 0.5, 0.95)
        sset = sample_gaussian(truth, 5, 4)
        path = tmp_path / "s.csv"
        write_sample_csv(path, sset)
        with pytest.raises(ValueError):
            read_sample_csv(path, SpaceTimeDims(3, 2))

    @pytest.mark.parametrize("text", ["x0,x1,x2,x3\n", ""])
    def test_no_sample_rows_named_by_path(self, tmp_path, text):
        path = tmp_path / "s.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="holds no sample rows"):
                read_sample_csv(path, SpaceTimeDims(2, 2))

    def test_quoted_numbers_read_as_unquoted(self, tmp_path):
        plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
        plain.write_text("x0,x1\n1.5,-2\n\n3e-1,4\n")
        quoted.write_text('"x0","x1"\n"1.5",-2\n\n3e-1,"4"\n')
        back = read_sample_csv(quoted, SpaceTimeDims(2, 1)).samples
        np.testing.assert_array_equal(back, read_sample_csv(plain, SpaceTimeDims(2, 1)).samples)
        np.testing.assert_array_equal(back, [[1.5, -2.0], [0.3, 4.0]])


class TestSampleSet:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_rejected(self, bad):
        data = np.ones((3, 4))
        data[1, 2] = bad
        with pytest.raises(ValueError, match="samples must be finite"):
            SampleSet(SpaceTimeDims(2, 2), 3, data)
        with pytest.raises(ValueError, match="samples must be finite"):
            SampleSet.adopt(SpaceTimeDims(2, 2), data)

    def test_adopt_keeps_a_view_and_the_constructor_copies_it(self):
        # overlapping windows of frozen frames, as the anomaly pipeline cuts them
        frames = np.arange(24.0).reshape(12, 2)
        frames.setflags(write=False)
        windows = np.lib.stride_tricks.sliding_window_view(frames, (3, 2))[:, 0].reshape(10, 6)
        adopted = SampleSet.adopt(SpaceTimeDims(2, 3), windows)
        assert adopted.n == 10 and adopted.seed is None
        assert adopted.samples is windows
        assert not np.shares_memory(SampleSet(SpaceTimeDims(2, 3), 10, windows).samples, frames)

    def test_adopt_checks_the_shape(self):
        with pytest.raises(ValueError, match="expected"):
            SampleSet.adopt(SpaceTimeDims(2, 2), np.zeros((3, 5)))
        with pytest.raises(ValueError, match="cannot adopt"):
            SampleSet.adopt(SpaceTimeDims(2, 2), np.zeros(4))

    @pytest.mark.parametrize("n", [3, 8])
    def test_centered_rows(self, n):
        # below pT samples they are the rows the kept covariance holds; from pT on a fresh array
        samples = SampleSet(SpaceTimeDims(2, 2), n, np.random.default_rng(n).standard_normal((n, 4)))
        centered = samples.centered()
        np.testing.assert_array_equal(centered, samples.samples - samples.samples.mean(axis=0))
        assert (getattr(samples.covariance(), "x", None) is centered) == (n < 4)
