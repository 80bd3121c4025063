"""Estimator tests: frozen hand-computed values, plant-and-recover oracles,
and Monte-Carlo consistency checks at desk scale."""
import itertools
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve, toeplitz

from kroncov import (
    DenseCovariance,
    EstimatorConfig,
    GramCovariance,
    KronCovariance,
    KronModel,
    SampleSet,
    ShrinkageIntensity,
    SpaceTimeDims,
    chen_tyler,
    dc_kronpca,
    dc_kronpca_lw,
    diag_mask,
    flipflop_S,
    kron_spectrum,
    kronpca,
    kronpca_T,
    lw_intensity,
    ar1_kron_truth,
    rearrange,
    robust_kronpca,
    sample_gaussian,
    sample_student_t,
    scm,
    shrink,
    soft_impute,
    svt,
)
from kroncov import estimators as est
from kroncov.estimators import (
    ESTIMATORS,
    _thresholded_svd,
    components_for_energy,
    fit_by_name,
    kron_plugin_intensity,
    make_config,
)
from kroncov.cli import trial_seed
from kroncov import kron_ops
from kroncov.kron_ops import compress_diagonals


def sample_set(vectors, p=None, T=None):
    vectors = np.asarray(vectors, dtype=float)
    d = vectors.shape[1]
    if p is None:
        p, T = d, 1
    return SampleSet(SpaceTimeDims(p, T), vectors.shape[0], vectors)


def rearranged(sigma, toeplitz_rows):
    """The rearranged matrix of sigma, compressed when toeplitz_rows, from the reference operators."""
    r = rearrange(sigma).entries
    return compress_diagonals(r, sigma.dims.T) if toeplitz_rows else r


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

    @pytest.mark.parametrize("p, T, n", [(3, 2, 1), (3, 2, 7), (100, 10, 10), (100, 10, 50),
                                         (100, 10, 400)])
    def test_entries_equal_the_symmetrized_quotient_bit_for_bit(self, p, T, n):
        rng = np.random.default_rng(n)
        samples = sample_set(rng.standard_normal((n, p * T)), p=p, T=T)
        x = samples.samples - samples.samples.mean(axis=0)
        quotient = x.T @ x / n
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # n = 1
            out = scm(samples)
        np.testing.assert_array_equal(out.entries, 0.5 * (quotient + quotient.T))
        np.testing.assert_array_equal(out.entries, out.entries.T)
        assert not out.entries.flags.writeable

    def test_the_sample_set_keeps_one_covariance(self):
        rng = np.random.default_rng(5)
        samples = sample_set(rng.standard_normal((7, 6)), p=3, T=2)
        x = samples.samples - samples.samples.mean(axis=0)
        out = scm(samples)
        assert scm(samples) is out and samples.covariance() is out
        np.testing.assert_array_equal(out.entries, x.T @ x / 7)

    def test_overflowing_gram_rejected(self):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="entries must be finite"):
            scm(sample_set([[1e200, 0.0], [-1e200, 0.0]]))


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

    def test_dense_branch_bit_identical_to_adding_a_scaled_identity(self):
        rng = np.random.default_rng(2)
        sigma = DenseCovariance(SpaceTimeDims(4, 3), random_spd(rng, 12) - 3.0 * np.eye(12))
        target = np.trace(sigma.entries) / 12
        for rho in (0.0, 1e-3, 0.3, 0.5, 0.97, 1.0):
            old = (1.0 - rho) * sigma.entries + (rho * target) * np.eye(12)
            new = shrink(sigma, rho).entries
            if rho < 1.0:
                assert np.array_equal(new.view(np.uint64), old.view(np.uint64))
            else:  # 0 * a negative entry is -0.0, which the old sum turned into +0.0
                assert np.array_equal(new, old)

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

    @pytest.mark.parametrize("form", ["dense", "factor pair", "diagonal term"])
    @pytest.mark.parametrize("p, T", [(3, 1), (7, 1), (5, 3), (10, 10)])
    def test_scaled_identity_pilot_gives_exactly_one(self, p, T, form):
        # ||S||^2 - pT m^2 of 0.1 I may round below zero; d2 is floored at 0
        dims = SpaceTimeDims(p, T)
        samples = SampleSet(dims, 10, np.random.default_rng(p * T).standard_normal((10, p * T)))
        pilot = {"dense": DenseCovariance(dims, 0.1 * np.eye(p * T)),
                 "factor pair": KronCovariance(dims, [(np.eye(T), 0.1 * np.eye(p))], 0.0),
                 "diagonal term": KronCovariance(dims, [], 0.1)}[form]
        assert est._lw_terms(samples, pilot)[1] >= 0.0
        assert lw_intensity(samples, pilot).rho == 1.0

    def test_factor_form_terms_equal_the_dense_formula(self):
        rng = np.random.default_rng(9)
        dims = SpaceTimeDims(5, 4)
        samples = sample_gaussian(ar1_kron_truth(5, 4, 0.5, 0.95), 12, 9)
        fitted = dc_kronpca(scm(samples), EstimatorConfig(r=1, toeplitz=True, diag_correct=True))
        skewed = KronCovariance(dims, [(rng.standard_normal((4, 4)), rng.standard_normal((5, 5)))
                                       for _ in range(3)], rng.standard_normal(5))
        for pilot in (fitted.covariance(), skewed):
            entries = sum(np.kron(tm, sm) for tm, sm in pilot.pairs) + np.diag(np.tile(pilot.d, 4))
            dense = DenseCovariance.adopt(dims, entries)
            np.testing.assert_allclose(est._lw_terms(samples, pilot),
                                       est._lw_terms(samples, dense), rtol=1e-12, atol=0)


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


def thresholded_svd_by_lapack(m, tau, max_rank):
    """_thresholded_svd computed from a LAPACK SVD, kept as its reference."""
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    s_thr = np.maximum(s - tau, 0.0)
    if max_rank is not None:
        s_thr[max_rank:] = 0.0
    top = s_thr[0] if s_thr.size else 0.0
    keep = s_thr > 1e-13 * max(top, 1e-300)
    return u[:, keep], s_thr[keep], vt[keep], float(s_thr.sum())


@st.composite
def svd_inputs(draw):
    """A matrix of one of five shapes, scaled by 10^-6 .. 10^6, with a
    threshold tau (a fraction of sigma_1) and an optional rank cap: 0, 1 to
    4, or above min(rows, cols)."""
    kind = draw(st.sampled_from(["wide", "tall", "square", "rank-deficient", "zero"]))
    short, long = draw(st.integers(2, 12)), draw(st.integers(13, 52))
    shapes = {"wide": (short, long), "tall": (long, short), "square": (short, short)}
    rows, cols = shapes.get(kind) or draw(st.permutations([short, long]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-6, 6))
    if kind == "zero":
        m = np.zeros((rows, cols))
    elif kind == "rank-deficient":
        rank = draw(st.integers(1, short - 1))
        m = scale * rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
    else:
        m = scale * rng.standard_normal((rows, cols))
    sigma1 = np.linalg.norm(m, 2)
    tau = draw(st.sampled_from([0.0, 0.1, 0.5, 1.5])) * sigma1
    max_rank = draw(st.one_of(st.none(), st.integers(0, 4), st.integers(short + 1, short + 3)))
    return m, tau, max_rank


class TestThresholdedSvd:
    """The Gram-matrix route against a LAPACK SVD of the same matrix."""

    def check_against_lapack(self, m, tau, max_rank):
        u, s, vt, nuclear = _thresholded_svd(m, tau, max_rank)
        u_ref, s_ref, vt_ref, nuclear_ref = thresholded_svd_by_lapack(m, tau, max_rank)
        sv = np.linalg.svd(m, compute_uv=False)
        tol = 1e-12 * max(sv[0], 1.0)
        width = max(len(s), len(s_ref))
        np.testing.assert_allclose(np.pad(s, (0, width - len(s))),
                                   np.pad(s_ref, (0, width - len(s_ref))), rtol=0, atol=tol)
        assert nuclear == pytest.approx(nuclear_ref, rel=0, abs=tol * len(sv))
        assert u.shape == (m.shape[0], len(s)) and vt.shape == (len(s), m.shape[1])
        np.testing.assert_allclose((u * s) @ vt, (u_ref * s_ref) @ vt_ref, rtol=0, atol=tol)
        if len(s):
            # one side comes from eigh, the other is a^T u_i / sigma_i, whose
            # orthogonality error grows as (sigma_1 / sigma_i)^2
            ortho_tol = 1e-12 * (sv[0] / (s[-1] + tau)) ** 2
            for vecs in (u.T @ u, vt @ vt.T):
                np.testing.assert_allclose(vecs, np.eye(len(s)), rtol=0, atol=ortho_tol)

    @settings(max_examples=300, deadline=None)
    @given(svd_inputs())
    def test_matches_lapack(self, case):
        m, tau, max_rank = case
        sv = np.linalg.svd(m, compute_uv=False)
        if max_rank and max_rank < len(sv):
            # a rank cap through a near-tie of kept values has no unique answer
            kept = sv[max_rank - 1] - tau
            assume(sv[max_rank - 1] - sv[max_rank] > 1e-3 * sv[0]
                   or kept < 1e-12 * max(sv[0], 1.0))
        self.check_against_lapack(m, tau, max_rank)

    @pytest.mark.parametrize("shape", [(19, 10_000), (100, 10_000)],
                             ids=["compressed-paper-scale", "rearranged-paper-scale"])
    def test_paper_scale(self, shape):
        m = np.random.default_rng(11).standard_normal(shape)
        self.check_against_lapack(m, 0.0, 1)
        self.check_against_lapack(m.T, 0.5 * np.linalg.norm(m, 2), None)

    def test_graded_rank_deficient_reconstruction(self):
        # nonzero values far below sigma_1 beside exact zeros: the spurious
        # components the Gram route may keep still reconstruct the input
        rng = np.random.default_rng(12)
        q1, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        q2, _ = np.linalg.qr(rng.standard_normal((40, 6)))
        m = (q1 * [1.0, 1e-5, 1e-8, 0.0, 0.0, 0.0]) @ q2.T
        u, s, vt, _ = _thresholded_svd(m, 0.0, None)
        np.testing.assert_allclose((u * s) @ vt, m, rtol=0, atol=1e-15)


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

    def test_triples_are_the_last_iterations_factorization(self):
        rng = np.random.default_rng(41)
        b = rng.standard_normal((6, 9))
        mask = (rng.random(b.shape) > 0.2).astype(float)
        res = soft_impute(b, mask, 0.3, EstimatorConfig(r=2, beta=0.3))
        u, s, vt = res.triples
        assert s.shape == (2,)
        np.testing.assert_array_equal((u * s) @ vt, res.z)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fill_and_objective_equal_the_mask_arithmetic(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(10):  # criterion 3's masks
            b = rng.standard_normal((int(rng.integers(2, 12)), int(rng.integers(2, 16))))
            mask = (rng.random(b.shape) > rng.uniform(0.05, 0.5)).astype(float)
            beta = float(rng.uniform(0.0, 1.0))
            cfg = EstimatorConfig(r=int(rng.integers(1, 5)), beta=beta,
                                  max_iter=int(rng.integers(5, 200)))
            z, trace, converged = np.zeros_like(b), [], False
            for iterations in range(1, cfg.max_iter + 1):
                u, s, vt, nuclear = _thresholded_svd(mask * b + (1.0 - mask) * z, beta / 2.0, cfg.r)
                z_new = (u * s) @ vt
                trace.append(float(np.sum((mask * (b - z_new)) ** 2) + beta * nuclear))
                change = np.linalg.norm(z_new - z) / max(np.linalg.norm(z), 1e-30)
                z = z_new
                if change < cfg.tol:
                    converged = True
                    break
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                res = soft_impute(b, mask, beta, cfg)
            np.testing.assert_array_equal(res.z, z)
            assert res.objective_trace == trace
            assert (res.iterations, res.converged, res.final_change) == (iterations, converged, change)

    def test_mask_entry_other_than_zero_or_one_rejected(self):
        mask = np.ones((3, 4))
        mask[1, 2] = 0.5
        with pytest.raises(ValueError, match="mask entries must be exactly 0 or 1, found 0.5"):
            soft_impute(np.ones((3, 4)), mask, 0.1, EstimatorConfig())

    def test_nonconvergence_flagged(self):
        rng = np.random.default_rng(10)
        b = rng.standard_normal((6, 6))
        mask = (rng.random(b.shape) > 0.4).astype(float)
        cfg = EstimatorConfig(r=2, beta=0.1, tol=1e-14, max_iter=3)
        with pytest.warns(UserWarning, match="did not converge"):
            res = soft_impute(b, mask, 0.1, cfg)
        assert not res.converged
        assert res.iterations == 3


class TestFixedPoint:
    """The one stop rule of every iterative fit, on scripted sequences of changes."""

    TOL = 1e-6

    def run(self, changes, max_iter, name=None):
        calls = []

        def step(state):
            calls.append(state)
            return state + 1, changes[state]
        out = est._fixed_point(step, 0, EstimatorConfig(tol=self.TOL, max_iter=max_iter), name)
        return out, len(calls)

    def test_a_change_first_below_tol_at_max_iter_converges(self):
        (state, steps, converged, change), _ = self.run([1.0, 1.0, 1.0, 0.5e-6], 4)
        assert (state, steps, converged, change) == (4, 4, True, 0.5e-6)

    def test_a_change_equal_to_tol_keeps_iterating(self):
        (_, steps, converged, _), _ = self.run([1.0, self.TOL, self.TOL, 0.0], 10)
        assert (steps, converged) == (4, True)

    def test_a_run_that_never_falls_below_tol_warns_only_when_named(self):
        changes = [1.0, 0.5, 0.25]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            (_, steps, converged, change), _ = self.run(changes, 3)
        assert (steps, converged, change) == (3, False, 0.25) and caught == []
        with pytest.warns(UserWarning, match=re.escape(
                "fit did not converge in 3 iterations (final relative change 2.500e-01)")):
            (_, steps, converged, change), _ = self.run(changes, 3, "fit")
        assert (steps, converged, change) == (3, False, 0.25)

    @pytest.mark.parametrize("k", [1, 2, 5, 9])
    @pytest.mark.parametrize("max_iter", [1, 5, 8])
    def test_the_step_runs_until_the_first_change_below_tol(self, k, max_iter):
        # the change first falls below tol at step k
        changes = [1.0] * (k - 1) + [0.0] * 10
        (_, steps, converged, _), calls = self.run(changes, max_iter)
        assert calls == steps == min(k, max_iter)
        assert converged == (k <= max_iter)


def stuck_soft_impute(cfg):
    rng = np.random.default_rng(10)
    b = rng.standard_normal((6, 6))
    return soft_impute(b, (rng.random(b.shape) > 0.4).astype(float), 0.1, cfg)


def stuck_chen_tyler(cfg):
    return chen_tyler(sample_student_t(ar1_kron_truth(4, 3, 0.5, 0.95), 3.0, 30, 4), 0.1, cfg)


def stuck_robust_kronpca(cfg):
    # started from a converged fit, so only the outer loop can warn
    samples = sample_student_t(ar1_kron_truth(4, 3, 0.5, 0.95), 3.0, 30, 4)
    start = robust_kronpca(samples, 0.1, full_output=True)[1]["warm_start"]
    return robust_kronpca(samples, 0.1, cfg, start=start)


@pytest.mark.parametrize("name, fit", [
    ("soft_impute", stuck_soft_impute), ("chen_tyler", stuck_chen_tyler),
    ("robust_kronpca", stuck_robust_kronpca),
])
def test_a_fit_at_max_iter_warns_with_its_final_change(name, fit):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fit(EstimatorConfig(r=2, beta=0.1, tol=1e-14, max_iter=3))
    messages = [str(w.message) for w in caught]
    assert len(messages) == 1, messages
    assert re.fullmatch(rf"{name} did not converge in 3 iterations "
                        r"\(final relative change \d\.\d{3}e[+-]\d+\)", messages[0]), messages


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

    @settings(max_examples=60, deadline=None)
    @given(p=st.integers(1, 6), T=st.integers(1, 6), toeplitz_rows=st.booleans(),
           beta=st.sampled_from([0.0, 0.1, 1e6]), r=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1))
    def test_objective_equals_the_dense_residual(self, p, T, toeplitz_rows, beta, r, seed):
        # the recorded objective comes from the kept singular values alone
        n = int(np.random.default_rng(seed).integers(2, 2 * p * T + 2))
        sigma = scm(sample_gaussian(ar1_kron_truth(p, T, 0.5, 0.95), n, seed))
        base = rearranged(sigma, toeplitz_rows)
        u, s, vt, nuclear = _thresholded_svd(base, beta / 2.0, r)
        dense = np.sum((base - (u * s) @ vt) ** 2) + beta * nuclear
        model = kronpca(sigma, EstimatorConfig(r=r, beta=beta, toeplitz=toeplitz_rows))
        assert len(model.objective_trace) == 1
        assert abs(model.objective_trace[0] - dense) <= 1e-10 * np.sum(base ** 2)

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


@pytest.mark.parametrize("fit, name, toeplitz_rows", [
    (kronpca, "kronpca", False), (kronpca, "kronpca", True),
    (dc_kronpca, "dc-kronpca-lw", False), (dc_kronpca, "dc-kronpca-lw", True)])
def test_paper_scale_fit_copies_no_rearranged_sized_array(monkeypatch, fit, name, toeplitz_rows):
    # the operators adopt what they compute: at p=100, T=10 a copy of an
    # array of T^2 p^2 entries (the rearranged matrix, or pT x pT) is 8 MB
    from kroncov import kron_ops

    dims = SpaceTimeDims(100, 10)
    sigma = scm(sample_gaussian(ar1_kron_truth(dims.p, dims.T), 20, 3))
    copy = kron_ops._frozen_array

    def refuse_large(a, dtype=float):
        if np.size(a) >= dims.T ** 2 * dims.p ** 2:
            raise AssertionError(f"copied an array of shape {np.shape(a)}")
        return copy(a, dtype)
    monkeypatch.setattr(kron_ops, "_frozen_array", refuse_large)
    model = fit(sigma, make_config(name, {"toeplitz": toeplitz_rows}))
    assert model.factors


def kron_sum(model):
    """sum_i w_i T_i (x) S_i + I (x) diag(u) of a KronModel, with no symmetry check."""
    return sum((w * np.kron(tm, sm) for w, tm, sm in model.factors),
               np.kron(np.eye(model.dims.T), np.diag(model.u)))


class TestFitsFromTheRows:
    """kronpca and dc_kronpca read a GramCovariance through its frame Gram below the crossover."""

    @staticmethod
    def crossover(p, T):
        """The smallest n from which GramCovariance.rearranged_gram reads its dense entries."""
        return next(n for n in itertools.count(1)
                    if n * n * T * T * (p + T * T) >= n * (p * T) ** 2 + T ** 4 * p * p)

    @settings(max_examples=60, deadline=None)
    @given(p=st.integers(1, 8), T=st.integers(1, 8), toeplitz_rows=st.booleans(),
           beta=st.sampled_from([0.0, 0.1, 1e6]), r=st.integers(1, 3), frames=st.booleans(),
           a=st.sampled_from([0.0, 0.5]), seed=st.integers(0, 2**32 - 1))
    def test_rows_route_equals_the_dense_route(self, p, T, toeplitz_rows, beta, r, frames, a, seed):
        rng = np.random.default_rng(seed)
        dims = SpaceTimeDims(p, T)
        cross = self.crossover(p, T)
        # n >= 2: one row's rearranged matrix is X (x) X, whose singular values s_i s_j tie in
        # pairs, so a rank-r fit of it is not unique and the two routes may pick different ones
        n = int(rng.integers(2, cross)) if frames and cross > 2 else int(rng.integers(max(cross, 2), 3 * cross + 2))
        x = rng.standard_normal((n, dims.pt))
        rows = GramCovariance(dims, x, a, 1.0)
        dense = DenseCovariance.adopt(dims, np.array(GramCovariance(dims, x, a, 1.0).entries))
        scale = np.abs(dense.entries).max()
        for fit, diag_correct in ((kronpca, False), (dc_kronpca, True)):
            cfg = EstimatorConfig(r=r, beta=beta, toeplitz=toeplitz_rows, diag_correct=diag_correct)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # beta = 0 without Toeplitz rows may stop at max_iter
                from_rows, from_dense = fit(rows, cfg), fit(dense, cfg)
            assert len(from_rows.objective_trace) == len(from_dense.objective_trace)
            assert from_rows.converged == from_dense.converged
            np.testing.assert_allclose(from_rows.objective_trace, from_dense.objective_trace,
                                       rtol=1e-10, atol=1e-10 * scale ** 2 * dims.pt)
            # summed here, not through kron_assemble: an r >= 2 term's factors can miss exact
            # symmetry by more than its 1e-12 check, on either route
            assert np.abs(kron_sum(from_rows) - kron_sum(from_dense)).max() <= 1e-10 * scale
        assert ("_entries" in rows.__dict__) == (n >= cross)


@pytest.mark.parametrize("name, overrides", [
    ("scm", {}), ("scm-lw", {}), ("kronpca", {}), ("kronpca", {"toeplitz": True}),
    ("dc-kronpca-lw", {})])
def test_paper_scale_fit_reads_the_rows_unassembled(monkeypatch, name, overrides):
    # p=100, T=10, n=50 (mc-paper's larger n): the Kronecker fits read the frame Gram, so
    # nothing rearranges and the sample covariance never makes its 8 MB dense entries
    from kroncov import kron_ops

    samples = sample_gaussian(ar1_kron_truth(100, 10), 50, 4)
    rearranged = []
    real = kron_ops.rearrange

    def counted(sigma):
        rearranged.append(type(sigma))
        return real(sigma)
    monkeypatch.setattr(kron_ops, "rearrange", counted)
    monkeypatch.setattr(est, "rearrange", counted)
    fit_by_name(name, samples, overrides)
    sigma = samples.covariance()
    assert isinstance(sigma, GramCovariance)
    assert rearranged == []
    assert "_entries" not in sigma.__dict__ and "_dense" not in sigma.__dict__


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

    def test_diagonal_correction_from_the_factors(self, monkeypatch):
        # u is the completion's residual on the hidden diagonal; the factors'
        # own diagonal w diag(T) (x) diag(S) gives it again up to rounding.  beta = 0
        # without Toeplitz rows leaves some of these completions at max_iter (slow
        # soft_impute, ROADMAP item 5); the identity holds for any iterate and any beta
        from kroncov import kron_ops

        def refuse(*args, **kwargs):
            raise AssertionError("dc_kronpca assembled a pT x pT matrix")
        monkeypatch.setattr(kron_ops, "kron_assemble", refuse)
        dims = SpaceTimeDims(4, 3)
        for r, toeplitz_rows, beta, seed in itertools.product(
                (1, 2), (True, False), (0.0, 0.5), (42, 43, 44)):
            if beta == 0.0 and not toeplitz_rows:
                continue
            cfg = EstimatorConfig(r=r, beta=beta, toeplitz=toeplitz_rows, diag_correct=True,
                                  max_iter=2000)
            sigma = DenseCovariance(dims, random_spd(np.random.default_rng(seed), 12, cond=20))
            model = dc_kronpca(sigma, cfg)
            lowrank = sum(np.kron(w * np.diag(tm), np.diag(sm)) for w, tm, sm in model.factors)
            resid = (np.diag(sigma.entries) - lowrank).reshape(dims.T, dims.p)
            np.testing.assert_allclose(model.u, np.maximum(resid.mean(axis=0), 0.0), rtol=0,
                                       atol=1e-13 * np.abs(np.diag(sigma.entries)).max())

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

    @settings(max_examples=80, deadline=None)
    @given(p=st.integers(1, 8), T=st.integers(1, 6), toeplitz_rows=st.booleans(),
           beta=st.sampled_from([0.0, 0.1, 1e6]), r=st.integers(1, 3),
           below_rows=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_reduced_completion_equals_the_full_one(self, p, T, toeplitz_rows, beta, r,
                                                    below_rows, seed):
        # beta = 1e6 thresholds every component away; r = 3 exceeds the rank
        # of b when p = 1 or n is small
        rows = 2 * T - 1 if toeplitz_rows else T * T
        rng = np.random.default_rng(seed)
        if below_rows and rows > 2:
            n = int(rng.integers(2, rows))
        else:
            n = int(rng.integers(rows + 1, 2 * rows + 4))
        sigma = scm(sample_gaussian(ar1_kron_truth(p, T, 0.5, 0.95), n, seed))
        cfg = EstimatorConfig(r=r, beta=beta, toeplitz=toeplitz_rows, diag_correct=True)
        b = rearranged(sigma, toeplitz_rows)
        hidden_rows, cols = diag_mask(sigma.dims)
        mask = np.ones_like(b)
        mask[np.ix_([T - 1] if toeplitz_rows else hidden_rows, cols)] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            full = soft_impute(b, mask, beta, cfg)
            model = dc_kronpca(sigma, cfg)
        lowrank = sum((np.kron(w * tm, sm) for w, tm, sm in
                       est._extract_factors(*full.triples, sigma.dims, toeplitz_rows)),
                      np.zeros((p * T, p * T)))
        u = np.maximum((np.diag(sigma.entries) - np.diag(lowrank)).reshape(T, p).mean(axis=0), 0.0)
        assert len(model.objective_trace) == full.iterations
        assert model.converged == full.converged
        # ||b||^2 is the objective at Z = 0: a residual that cancels to rounding
        # level is judged against it, not against itself
        np.testing.assert_allclose(model.objective_trace, full.objective_trace,
                                   rtol=1e-12, atol=1e-12 * np.sum(b ** 2))
        reference = lowrank + np.kron(np.eye(T), np.diag(u))
        assert np.abs(model.covariance().entries - reference).max() <= (
            1e-10 * np.abs(sigma.entries).max())

    def test_paper_scale_completion_runs_on_the_reduced_matrix(self, monkeypatch):
        sigma = scm(sample_gaussian(ar1_kron_truth(100, 10, 0.5, 0.95), 10, 5))
        shapes = []
        real = est.soft_impute

        def record(b, mask, beta, cfg):
            shapes.append(np.shape(b))
            return real(b, mask, beta, cfg)
        monkeypatch.setattr(est, "soft_impute", record)
        hidden = 100  # the columns of the p diagonal entries of a spatial block
        for toeplitz_rows, rows in ((True, 19), (False, 100)):
            dc_kronpca(sigma, EstimatorConfig(r=1, toeplitz=toeplitz_rows, diag_correct=True))
            assert shapes[-1][0] == rows
            assert shapes[-1][1] <= min(rows, 100 ** 2 - hidden) + hidden
        assert len(shapes) == 2


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


class TestShrunkEstimatesArePositiveDefinite:
    """scm-lw keeps rho m as its smallest eigenvalue; dc-kronpca-lw is positive definite."""

    @settings(max_examples=40, deadline=None)
    @given(p=st.integers(1, 5), T=st.integers(1, 5), n_frac=st.floats(0.1, 3.0),
           seed=st.integers(0, 2**32 - 1))
    # a pilot whose negative dip is deeper than its mean eigenvalue
    @example(p=3, T=3, n_frac=0.25, seed=3)
    def test_scm_lw_floor_and_dc_kronpca_lw(self, p, T, n_frac, seed):
        dims = SpaceTimeDims(p, T)
        n = max(2, int(n_frac * dims.pt))
        samples = sample_gaussian(ar1_kron_truth(p, T, 0.5, 0.9), n, seed)
        cov, info = fit_by_name("scm-lw", samples)
        floor = info["rho"] * scm(samples).trace() / dims.pt
        lam = cov.eigvalsh()
        slack = 1e-13 * lam[-1]  # a dense eigensolver rounds a zero of S to about eps |S|
        # below pT samples the spectrum comes from the Gram: pT - n values are exactly rho m
        assert lam[0] >= floor * (1 - 1e-10) - (0.0 if n < dims.pt else slack)
        assert np.linalg.eigvalsh(cov.entries)[0] >= floor * (1 - 1e-10) - slack
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # soft_impute may stop at max_iter
            dc, _ = fit_by_name("dc-kronpca-lw", samples, {"r": 1})
        assert dc.eigvalsh()[0] > 0
        assert np.linalg.eigvalsh(dc.entries)[0] > 0


def symmetric_unit(rng, n, toeplitz_form=False):
    """A random symmetric (optionally Toeplitz) matrix of unit Frobenius norm,
    mostly positive with eigenvalues that may dip below zero, as a fitted
    factor's do."""
    if toeplitz_form:
        a = toeplitz(rng.uniform(-0.3, 1.0) ** np.arange(n) + 0.3 * rng.standard_normal(n))
    else:
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = (q * rng.uniform(-0.3, 1.0, n)) @ q.T
        a = 0.5 * (a + a.T)
    return a / np.linalg.norm(a)


def kron_model(p, T, terms, u, toeplitz_form=False):
    dims = SpaceTimeDims(p, T)
    terms = sorted(terms, key=lambda f: -abs(f[0]))
    return KronModel(dims, terms, np.asarray(u, dtype=float), [],
                     EstimatorConfig(r=max(len(terms), 1), toeplitz=toeplitz_form))


def dense_extremes(kron_cov):
    """(lambda_min, lambda_max) from a dense pT x pT eigvalsh, kept as the reference."""
    lam = np.linalg.eigvalsh(kron_cov.entries)
    return float(lam[0]), float(lam[-1])


class TestPluginMinEigenvalue:
    """kron_plugin_intensity's lambda_min against a dense eigvalsh."""

    def assert_matches_dense(self, model, monkeypatch):
        samples = sample_gaussian(ar1_kron_truth(model.dims.p, model.dims.T, 0.5, 0.9), 400, 5)
        kron_cov = model.covariance()
        lam = kron_cov.extremes()[0]
        lam_ref = dense_extremes(kron_cov)[0]
        assert lam == pytest.approx(lam_ref, rel=0, abs=1e-12 * np.abs(kron_cov.entries).max())
        rho = kron_plugin_intensity(samples, model, kron_cov).rho
        with monkeypatch.context() as patch:
            patch.setattr(KronCovariance, "extremes", dense_extremes)
            rho_ref = kron_plugin_intensity(samples, model, kron_cov).rho
        assert rho == pytest.approx(rho_ref, rel=0, abs=1e-12)
        return rho

    @settings(max_examples=100, deadline=None)
    @given(p=st.integers(1, 6), T=st.integers(1, 6), toeplitz_form=st.booleans(),
           sign=st.sampled_from([1.0, -1.0]), with_u=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_one_term_matches_dense(self, p, T, toeplitz_form, sign, with_u, seed):
        rng = np.random.default_rng(seed)
        tm = symmetric_unit(rng, T, toeplitz_form)
        if np.trace(tm) < 0:
            tm = -tm
        term = (sign * rng.uniform(0.5, 5.0), tm, symmetric_unit(rng, p))
        u = rng.uniform(0.0, 2.0, p) if with_u else np.zeros(p)
        # hypothesis's monkeypatch fixture is function-scoped, so take a fresh one
        with pytest.MonkeyPatch.context() as monkeypatch:
            self.assert_matches_dense(kron_model(p, T, [term], u, toeplitz_form), monkeypatch)

    def test_conditioning_floor_case_matches_dense(self, monkeypatch):
        # a pilot whose lambda_min sets rho through the conditioning floor
        tm = toeplitz(0.6 ** np.arange(4))
        sm = np.diag([1.0, 0.5, -0.05])
        model = kron_model(3, 4, [(2.0, tm / np.linalg.norm(tm), sm / np.linalg.norm(sm))],
                           np.zeros(3), toeplitz_form=True)
        kron_cov = model.covariance()
        lam, m = dense_extremes(kron_cov)[0], np.trace(kron_cov.entries) / 12
        assert lam < -lam < m
        rho = self.assert_matches_dense(model, monkeypatch)
        assert rho == pytest.approx(-2.0 * lam / (m - lam), rel=1e-12)

    def test_two_terms_match_dense(self, monkeypatch):
        rng = np.random.default_rng(21)
        terms = [(3.0, symmetric_unit(rng, 4), symmetric_unit(rng, 3)),
                 (-1.0, symmetric_unit(rng, 4), symmetric_unit(rng, 3))]
        self.assert_matches_dense(kron_model(3, 4, terms, rng.uniform(0, 1, 3)), monkeypatch)

    def test_antisymmetric_term_matches_dense(self, monkeypatch):
        # antisymmetric (x) antisymmetric is a symmetric covariance, but the
        # eigenvalues of the factors do not split it
        rng = np.random.default_rng(22)
        a, b = rng.standard_normal((3, 3)), rng.standard_normal((4, 4))
        tm, sm = a - a.T, b - b.T
        model = kron_model(4, 3, [(2.0, tm / np.linalg.norm(tm), sm / np.linalg.norm(sm))],
                           np.full(4, 0.5))
        self.assert_matches_dense(model, monkeypatch)

    def test_one_term_fit_has_no_dense_eigvalsh(self, monkeypatch):
        truth = ar1_kron_truth(5, 4, 0.5, 0.95)
        samples = sample_gaussian(truth, 12, 23)
        real = np.linalg.eigvalsh

        def refuse_dense(a, *args, **kwargs):
            assert np.shape(a)[-1] != samples.dims.pt, "dense pT x pT eigvalsh on a one-term fit"
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse_dense)
        cfg = EstimatorConfig(r=1, beta=0.0, toeplitz=True, diag_correct=True)
        cov, info = dc_kronpca_lw(samples, cfg, full_output=True)
        assert len(info["model"].factors) == 1
        assert info["rho"] > 0


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

    def test_one_compression_and_an_identity_ridge_on_an_indefinite_factor(self, monkeypatch):
        T, p = 3, 2
        a = toeplitz([1.0, 2.0, 0.5])  # positive trace, eigenvalues -1.59, 0.5, 4.09
        sigma = DenseCovariance(SpaceTimeDims(p, T), np.kron(a, random_spd(np.random.default_rng(30), p)))
        compressed = []

        def counted(*args, _real=kron_ops.compress_diagonals):
            compressed.append(args[0].shape)
            return _real(*args)
        monkeypatch.setattr(kron_ops, "compress_diagonals", counted)
        out = kronpca_T(sigma)
        assert len(compressed) == 1
        lam = np.linalg.eigvalsh(a)
        ridged = a + (1e-8 * lam[-1] - lam[0]) * np.eye(T)
        np.testing.assert_allclose(out, ridged * (T / np.trace(ridged)), rtol=1e-12, atol=0)


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

    @pytest.mark.parametrize("form", ["gram", "kron"])
    def test_rows_and_factor_forms_are_read_unassembled(self, form, monkeypatch):
        from kroncov import kron_ops

        rng = np.random.default_rng(29)
        dims = SpaceTimeDims(3, 4)
        if form == "gram":
            x = rng.standard_normal((7, dims.pt))
            sigma = shrink(sample_set(x, 3, 4).covariance(), 0.3)
            xc = x - x.mean(axis=0)
            plain = xc.T @ xc / 7
            dense = 0.7 * plain + 0.3 * np.trace(plain) / dims.pt * np.eye(dims.pt)
        else:  # two terms: a form that does not split
            pairs = [(random_spd(rng, 4), random_spd(rng, 3)), (random_spd(rng, 4), random_spd(rng, 3))]
            d = rng.uniform(0.1, 1.0, 3)
            sigma = KronCovariance(dims, pairs, d)
            dense = sum(np.kron(tm, sm) for tm, sm in pairs) + np.kron(np.eye(4), np.diag(d))

        def refuse(*args, **kwargs):
            raise AssertionError("flipflop_S assembled a pT x pT matrix")
        monkeypatch.setattr(kron_ops, "kron_assemble", refuse)
        t_hat = random_spd(rng, 4, cond=20)
        out = flipflop_S(sigma, t_hat)
        assert "_entries" not in sigma.__dict__ and "_dense" not in sigma.__dict__
        want = flipflop_S(DenseCovariance(dims, 0.5 * (dense + dense.T)), t_hat)
        np.testing.assert_allclose(out, want, rtol=0, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("shape", [(3, 3), (4, 3), (12, 12)])
    def test_temporal_factor_of_another_size_rejected(self, shape):
        sigma = DenseCovariance(SpaceTimeDims(3, 4), np.eye(12))
        with pytest.raises(ValueError, match="not T x T for T=4"):
            flipflop_S(sigma, np.eye(*shape))


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

    def test_inner_steps_never_factor_densely(self, monkeypatch):
        # the inner iterates are solved through their blocks: a pT x pT Cholesky
        # factors each chen_tyler step's iterate, and once more the start the
        # first inner step solves with
        samples = sample_student_t(ar1_kron_truth(4, 3, 0.5, 0.95), 3.0, 30, 4)
        factored = []

        def counted(a, *args, _real=np.linalg.cholesky, **kwargs):
            factored.append(np.shape(a))
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, "cholesky", counted)
        _, start = chen_tyler(samples, 0.1, full_output=True)
        factored.clear()
        _, info = robust_kronpca(samples, 0.1, full_output=True)
        assert info["inner_iterations"] > 1
        assert factored.count((12, 12)) == start["iterations"] + 1

    def test_inner_steps_make_no_dense_matrix(self, monkeypatch):
        # the chen_tyler start wraps its identity start, and each step's average and iterate;
        # the inner steps read each Tyler average through its rows, whatever their number
        samples = sample_student_t(ar1_kron_truth(4, 3, 0.5, 0.95), 3.0, 30, 4)
        _, start = chen_tyler(samples, 0.1, full_output=True)
        wraps, (_, info) = count_dense_wraps(monkeypatch, robust_kronpca, samples, 0.1, full_output=True)
        assert info["inner_iterations"] > 1
        assert wraps == 1 + 2 * start["iterations"]

    def test_a_start_stopped_at_max_iter_is_not_converged(self):
        # the README quickstart: the chen_tyler start needs more than 500 steps
        samples = sample_gaussian(ar1_kron_truth(p=20, T=5), n=10, seed=0)
        with pytest.warns(UserWarning, match="chen_tyler did not converge"):
            _, info = fit_by_name("tyler-kronpca", samples, {"rho": 0.05})
        assert info["converged"] is False

    def test_an_inner_loop_stopped_at_max_iter_is_not_converged(self, monkeypatch):
        samples = sample_student_t(ar1_kron_truth(4, 3, 0.5, 0.95), 3.0, 30, 4)
        _, info = robust_kronpca(samples, 0.1, full_output=True)
        assert info["converged"] is True
        loops = []
        real = est._kron_tyler_loop

        def first_inner_loop_stuck(*args):
            loops.append(args[-1])
            out = real(*args)
            return (*out[:3], False, *out[4:]) if len(loops) == 1 else out
        monkeypatch.setattr(est, "_kron_tyler_loop", first_inner_loop_stuck)
        _, stuck = robust_kronpca(samples, 0.1, full_output=True)
        assert len(loops) > 2
        assert stuck["converged"] is False
        assert (stuck["iterations"], stuck["inner_iterations"]) == (info["iterations"], info["inner_iterations"])

    @pytest.mark.parametrize("warm", [False, True])
    def test_one_temporal_eigh_per_loop_and_one_spatial_eigh_per_step(self, warm, monkeypatch):
        # p=4, T=3: each inner loop takes one 3 x 3 eigh of its temporal factor, and each step one
        # 4 x 4 eigh for the quadratic forms of its iterate (kronpca_T's eigh is of the 5 x 5
        # compressed Gram); only the start is solved as a covariance form: the dense chen_tyler
        # start, or a split warm start with its own two eighs
        samples = sample_student_t(ar1_kron_truth(4, 3, 0.5, 0.95), 3.0, 30, 4)
        start = robust_kronpca(samples, 0.3, full_output=True)[1]["warm_start"] if warm else None
        shapes, splits = [], []

        def counted(a, *args, _real=np.linalg.eigh, **kwargs):
            shapes.append(np.shape(a))
            return _real(a, *args, **kwargs)
        real_split = KronCovariance._split

        def counted_split(self, *args, **kwargs):
            splits.append(self)
            return real_split(self, *args, **kwargs)
        monkeypatch.setattr(np.linalg, "eigh", counted)
        monkeypatch.setattr(KronCovariance, "_split", counted_split)
        _, info = robust_kronpca(samples, 0.1, full_output=True, start=start)
        assert info["converged"] is True and info["inner_iterations"] > info["iterations"]
        assert splits == ([start[0]] if warm else [])
        assert shapes.count((3, 3)) == info["iterations"] - 1 + warm
        assert shapes.count((4, 4)) == info["inner_iterations"] + warm

    @pytest.mark.parametrize("rho", [0.05, 0.3, "auto"])
    def test_estimate_is_one_pair_of_symmetric_factors_plus_rho(self, rho):
        ss = sample_student_t(ar1_kron_truth(3, 4, 0.5, 0.95), 3.0, 30, 8)
        cov, info = fit_by_name("tyler-kronpca", ss, {"rho": rho})
        assert isinstance(cov, KronCovariance)
        (tm, sm), = cov.pairs
        np.testing.assert_array_equal(tm, tm.T)
        np.testing.assert_array_equal(sm, sm.T)
        np.testing.assert_array_equal(cov.d, np.full(3, info["rho"]))
        np.testing.assert_allclose(tm, toeplitz(tm[:, 0]), rtol=0, atol=1e-12 * np.abs(tm).max())
        assert cov.trace() == pytest.approx(12.0, rel=1e-12)


class TestWarmStartedCV:
    SAMPLES = sample_student_t(ar1_kron_truth(4, 3, 0.5, 0.95), 3.0, 30, 4)

    @pytest.mark.parametrize("name", ["chen-tyler", "tyler-kronpca"])
    def test_final_fit_starts_cold(self, name):
        auto, info = fit_by_name(name, self.SAMPLES, {"rho": "auto"})
        explicit, explicit_info = fit_by_name(name, self.SAMPLES, {"rho": info["rho"]})
        np.testing.assert_array_equal(auto.entries, explicit.entries)
        assert info.keys() == explicit_info.keys()
        assert "warm_start" not in info

    def test_one_chen_tyler_start_per_fold(self, monkeypatch):
        starts = []
        real = est.chen_tyler

        def counted(*args, **kwargs):
            starts.append(kwargs.get("start"))
            return real(*args, **kwargs)
        monkeypatch.setattr(est, "chen_tyler", counted)
        fit_by_name("tyler-kronpca", self.SAMPLES, {"rho": "auto"})
        assert starts == [None] * (est.CV_FOLDS + 1)

    def test_a_warm_start_reaches_the_cold_fixed_point(self):
        cfg = EstimatorConfig(tol=1e-10)
        for fitter in (chen_tyler, robust_kronpca):
            _, info = fitter(self.SAMPLES, 0.3, cfg, full_output=True)
            warm = fitter(self.SAMPLES, 0.1, cfg, start=info["warm_start"])
            assert rel_diff(warm.entries, fitter(self.SAMPLES, 0.1, cfg).entries) < 1e-8

    def test_a_start_of_other_dims_is_refused(self):
        other = chen_tyler(sample_student_t(ar1_kron_truth(3, 3, 0.5, 0.95), 3.0, 30, 4), 0.3)
        with pytest.raises(ValueError, match="does not match"):
            chen_tyler(self.SAMPLES, 0.1, start=other)
        with pytest.raises(ValueError, match="does not match"):
            robust_kronpca(self.SAMPLES, 0.1, start=(other, other))


def count_dense_wraps(monkeypatch, fit, *args, **kwargs):
    """(the DenseCovariance.adopt calls that fit(*args, **kwargs) makes, its result)."""
    wraps = []
    real = DenseCovariance.adopt.__func__

    def counted(cls, *a, **kw):
        wraps.append(cls)
        return real(cls, *a, **kw)
    with monkeypatch.context() as patch:
        patch.setattr(DenseCovariance, "adopt", classmethod(counted))
        out = fit(*args, **kwargs)
    return len(wraps), out


# the Tyler loops as first written: cho_factor/cho_solve quadratic forms, a
# separate shrunk step, and one hand-written loop per estimator

def reference_tyler_average(s, sigma):
    n, d = s.shape
    q = np.einsum("ij,ji->i", s, cho_solve(cho_factor(sigma), s.T))
    a = (d / n) * (s.T @ (s / q[:, None]))
    return 0.5 * (a + a.T)


def reference_shrunk_step(scatter, sigma, r):
    d = scatter.shape[0]
    new = (1.0 - r) * (d / np.trace(scatter)) * scatter + r * np.eye(d)
    return new, np.linalg.norm(new - sigma) / np.linalg.norm(sigma)


def reference_directions(samples):
    x = samples.samples
    return x / np.sqrt(np.einsum("ij,ij->i", x, x))[:, None]


def reference_chen_tyler(samples, r, cfg):
    s = reference_directions(samples)
    sigma = np.eye(samples.dims.pt)
    for iterations in range(1, cfg.max_iter + 1):
        sigma, rel = reference_shrunk_step(reference_tyler_average(s, sigma), sigma, r)
        if rel < cfg.tol:
            break
    return sigma, iterations


def reference_robust_kronpca(samples, r, cfg, start=None):
    # start: the dense (estimate, Tyler average) of a warm start, in place of the chen_tyler start
    s = reference_directions(samples)
    if start is None:
        sigma_hat, _ = reference_chen_tyler(samples, r, cfg)
        start = (sigma_hat, sigma_hat)
    (sigma_hat, sigma_tilde), t_prev, inner = start, None, 0
    for outer in range(1, cfg.max_iter + 1):
        t_hat = kronpca_T(DenseCovariance(samples.dims, sigma_tilde))
        if t_prev is not None and rel_diff(t_hat, t_prev) < cfg.tol:
            break
        t_prev = t_hat
        for _ in range(cfg.max_iter):
            inner += 1
            sigma_tilde = reference_tyler_average(s, sigma_hat)
            kron = np.kron(t_hat, flipflop_S(DenseCovariance(samples.dims, sigma_tilde), t_hat))
            sigma_hat, rel = reference_shrunk_step(kron, sigma_hat, r)
            if rel < cfg.tol:
                break
    return sigma_hat, outer, inner


def reference_acg_loglik(directions, sigma):
    sign, logdet = np.linalg.slogdet(sigma)
    if sign <= 0:
        return -np.inf
    q = np.einsum("ij,ji->i", directions, cho_solve(cho_factor(sigma), directions.T))
    return -0.5 * directions.shape[0] * logdet - 0.5 * sigma.shape[0] * np.sum(np.log(q))


def reference_cv_rho(samples, fitter, cfg):
    n = samples.n
    folds = max(2, min(est.CV_FOLDS, n))
    directions = reference_directions(samples)
    scores = np.zeros(len(est.CV_RHO_GRID))
    for k in range(folds):
        hold = np.zeros(n, dtype=bool)
        hold[k::folds] = True
        train = SampleSet(samples.dims, int((~hold).sum()), samples.samples[~hold])
        for gi, rho in enumerate(est.CV_RHO_GRID):
            scores[gi] += reference_acg_loglik(directions[hold], fitter(train, rho, cfg)[0])
    return est.CV_RHO_GRID[int(np.argmax(scores))]


def rel_diff(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


FEWER_THAN_PT = sample_student_t(ar1_kron_truth(4, 3, 0.5, 0.95), 3.0, 8, 53)  # n = 8 < pT = 12
AS_MANY_AS_PT = sample_student_t(ar1_kron_truth(4, 3, 0.5, 0.95), 3.0, 12, 54)  # n = pT = 12


class TestTylerLoopMatchesTheReference:
    @pytest.fixture(params=[51, 52])
    def samples(self, request):
        return sample_student_t(ar1_kron_truth(3, 3, 0.5, 0.95), 3.0, 45, request.param)

    @staticmethod
    def assert_chen_tyler_matches(samples, rho, cfg):
        cov, info = chen_tyler(samples, rho, cfg, full_output=True)
        sigma, iterations = reference_chen_tyler(samples, rho, cfg)
        assert rel_diff(cov.entries, sigma) <= 1e-12
        assert info["iterations"] == iterations

    @staticmethod
    def assert_robust_kronpca_matches(samples, rho, cfg):
        cov, info = robust_kronpca(samples, rho, cfg, full_output=True)
        sigma, outer, inner = reference_robust_kronpca(samples, rho, cfg)
        assert rel_diff(cov.entries, sigma) <= 1e-12
        assert (info["iterations"], info["inner_iterations"]) == (outer, inner)

    def test_chen_tyler(self, samples):
        self.assert_chen_tyler_matches(samples, 0.1, EstimatorConfig())

    def test_robust_kronpca(self, samples):
        self.assert_robust_kronpca_matches(samples, 0.1, EstimatorConfig())

    @pytest.mark.parametrize("rho", [0.01, 1.0])
    def test_fewer_samples_than_pt(self, rho):
        self.assert_chen_tyler_matches(FEWER_THAN_PT, rho, EstimatorConfig())
        self.assert_robust_kronpca_matches(FEWER_THAN_PT, rho, EstimatorConfig())

    @pytest.mark.parametrize("rho", [0.01, 1.0])
    def test_as_many_samples_as_pt(self, rho, monkeypatch):
        # the Tyler averages keep their rows form at n = pT too: no inner step makes a dense matrix
        self.assert_chen_tyler_matches(AS_MANY_AS_PT, rho, EstimatorConfig())
        self.assert_robust_kronpca_matches(AS_MANY_AS_PT, rho, EstimatorConfig())
        _, start = chen_tyler(AS_MANY_AS_PT, rho, full_output=True)
        wraps, (_, info) = count_dense_wraps(monkeypatch, robust_kronpca, AS_MANY_AS_PT, rho,
                                             full_output=True)
        assert info["inner_iterations"] >= 1 and wraps == 1 + 2 * start["iterations"]

    # the tests above run at the default tol 1e-6; an expanded |new|^2 - 2 <new, old> + |old|^2
    # cannot see a change below about 1e-8, so these tols stop only on an exact change
    @pytest.mark.parametrize("tol", [1e-9, 1e-10, 1e-12])
    def test_tols_below_what_an_expanded_change_resolves(self, samples, tol):
        cfg = EstimatorConfig(tol=tol)
        self.assert_chen_tyler_matches(samples, 0.1, cfg)
        self.assert_robust_kronpca_matches(samples, 0.1, cfg)
        for rho in (0.01, 1.0):
            self.assert_chen_tyler_matches(FEWER_THAN_PT, rho, cfg)
            self.assert_robust_kronpca_matches(FEWER_THAN_PT, rho, cfg)

    @pytest.mark.parametrize("fitter, reference", [
        (chen_tyler, reference_chen_tyler), (robust_kronpca, reference_robust_kronpca)
    ])
    def test_cv_picks_the_same_rho(self, samples, fitter, reference):
        cfg = EstimatorConfig()
        chosen = est.cv_shrinkage_intensity(samples, fitter, cfg).rho
        assert chosen == reference_cv_rho(samples, reference, cfg)

    @pytest.mark.parametrize("samples", [FEWER_THAN_PT, AS_MANY_AS_PT], ids=["fewer", "as_many"])
    @pytest.mark.parametrize("fitter, reference", [
        (chen_tyler, reference_chen_tyler), (robust_kronpca, reference_robust_kronpca)
    ])
    def test_warm_path_picks_the_cold_rho_at_pt_and_below(self, samples, fitter, reference):
        # each fold's grid runs as a warm-started path; the cold reference fits every rho from I
        cfg = EstimatorConfig()
        chosen = est.cv_shrinkage_intensity(samples, fitter, cfg).rho
        assert chosen == reference_cv_rho(samples, reference, cfg)

    @settings(max_examples=40, deadline=None)
    @example(p=1, T=5, rows="as_many", rho=0.01, tol=1e-12, warm_rho=0.3, seed=50382)
    @given(p=st.integers(1, 5), T=st.integers(1, 5), rows=st.sampled_from(["fewer", "as_many", "more"]),
           rho=st.sampled_from([0.01, 0.3, 1.0]), tol=st.sampled_from([1e-6, 1e-12]),
           warm_rho=st.sampled_from([None, 0.01, 0.3, 1.0]), seed=st.integers(0, 2 ** 16))
    def test_eigenbasis_loop_matches_the_reference(self, p, T, rows, rho, tol, warm_rho, seed):
        # n below, at and above pT; cold, or warm from the pair of a fit at warm_rho
        pt = p * T
        n = {"fewer": max(2, pt // 2), "as_many": max(2, pt), "more": 2 * pt + 5}[rows]
        samples = sample_student_t(ar1_kron_truth(p, T, 0.5, 0.95), 3.0, n, seed)
        cfg = EstimatorConfig(tol=tol)
        start = ref_start = None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a start at max_iter is still a start
            if warm_rho is not None:
                start = robust_kronpca(samples, warm_rho, cfg, full_output=True)[1]["warm_start"]
                ref_start = tuple(form.entries for form in start)
            cov, info = robust_kronpca(samples, rho, cfg, full_output=True, start=start)
            sigma, outer, inner = reference_robust_kronpca(samples, rho, cfg, ref_start)
        assert (info["iterations"], info["inner_iterations"]) == (outer, inner)
        # an outer loop still moving at max_iter (p=1, T=5, n=5, rho=0.01 moves by about 0.1 per
        # step) carries 500 outer steps of rounding differences; only its counts are compared
        if outer < cfg.max_iter:
            assert rel_diff(cov.entries, sigma) <= 1e-12
        else:
            assert info["converged"] is False

    @pytest.mark.parametrize("samples", [FEWER_THAN_PT, AS_MANY_AS_PT, TestWarmStartedCV.SAMPLES],
                             ids=["fewer", "as_many", "more"])
    def test_a_step_takes_the_closed_form_spatial_factor(self, samples):
        # the loop's S' is flipflop_S of the Tyler average it returns, exactly symmetric
        s = est._normalized_directions(samples)
        start = chen_tyler(samples, 0.1)
        t_hat = kronpca_T(start)
        q = start.inverse_quad_forms(s)[0]
        for max_iter in (1, 2, 5):
            cov, average, steps, _, _ = est._kron_tyler_loop(s, t_hat, start, q, 0.1,
                                                             EstimatorConfig(max_iter=max_iter))
            (ct, s_hat), = cov.pairs
            want = flipflop_S(average, t_hat)
            assert steps == max_iter
            np.testing.assert_array_equal(s_hat, s_hat.T)
            np.testing.assert_allclose(s_hat, want, rtol=0, atol=1e-12 * np.abs(want).max())
            np.testing.assert_allclose(ct, (0.9 * 12 / (np.trace(t_hat) * np.trace(s_hat))) * t_hat,
                                       rtol=1e-14, atol=0)

    def test_factor_form_cv_assembles_nothing(self, samples, monkeypatch):
        from kroncov import kron_ops

        def refuse(*args, **kwargs):
            raise AssertionError("the cross-validated tyler-kronpca fit assembled its covariance")
        monkeypatch.setattr(kron_ops, "kron_assemble", refuse)
        cfg = make_config("tyler-kronpca", {"rho": "auto"})
        cov, info = fit_by_name("tyler-kronpca", samples, cfg)
        assert isinstance(cov, KronCovariance)
        assert info["rho"] == reference_cv_rho(samples, reference_robust_kronpca, cfg)


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

    @pytest.mark.parametrize("name, reads", [
        ("scm", ()), ("scm-lw", ("rho",)),
        ("kronpca", ("r", "beta", "toeplitz", "diag_correct")),
        ("dc-kronpca-lw", ("r", "beta", "rho", "toeplitz", "diag_correct", "tol", "max_iter")),
        ("chen-tyler", ("rho", "tol", "max_iter")),
        ("tyler-kronpca", ("rho", "tol", "max_iter"))])
    def test_only_the_fields_a_fit_reads_are_accepted(self, name, reads):
        valid = {"r": 2, "beta": 0.1, "rho": 0.2, "toeplitz": True,
                 "diag_correct": name == "dc-kronpca-lw", "tol": 1e-5, "max_iter": 9}
        assert set(ESTIMATORS[name].fields) == set(reads)
        make_config(name, {field: valid[field] for field in reads})
        for field in sorted(set(valid) - set(reads)):
            with pytest.raises(ValueError, match=f"estimator {name!r} does not read "
                                                 f"config field {field!r}"):
                make_config(name, {field: valid[field]})

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

    @pytest.mark.parametrize("field, entry, named", [
        ("weight", np.nan, "factors[0]"), ("spatial", np.nan, "factors[0]"),
        ("temporal", np.inf, "factors[0]"), ("u", np.nan, "u")])
    def test_non_finite_kron_model_rejected(self, field, entry, named):
        ss = sample_gaussian(ar1_kron_truth(3, 2, 0.5, 0.95), 20, 13)
        doc = kronpca(scm(ss), EstimatorConfig()).to_json_dict()
        if field == "weight":
            doc["factors"][0]["weight"] = entry
        elif field == "u":
            doc["u"][1] = entry
        else:
            doc["factors"][0][field][1][0] = entry
        with pytest.raises(ValueError, match=re.escape(f"{named} must be finite")):
            KronModel.from_json_dict(json.loads(json.dumps(doc)))


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


@pytest.mark.parametrize("name", sorted(ESTIMATORS))
@settings(max_examples=40, deadline=None)
@given(p=st.integers(1, 4), T=st.integers(1, 4), a=st.floats(0.1, 10.0),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_every_registered_estimator_is_symmetric_and_invariant(name, p, T, a, seed, data):
    """Symmetry, the trace each estimator keeps, invariance to the sample
    order and the scaling each estimator follows when every sample is
    multiplied by a > 0.  The Tyler pair runs at an explicit rho: its
    rho="auto" folds are stride splits, which a permutation changes."""
    spec = ESTIMATORS[name]
    n = data.draw(st.integers(spec.min_n, 12), label="n")
    dims = SpaceTimeDims(p, T)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, dims.pt))
    cfg = make_config(name, {"rho": 0.2} if spec.shape else {})
    # the closed-form fits agree to rounding, the iterative ones (those reading tol) to their stop
    tol = 10 * cfg.tol if "tol" in spec.fields else 1e-10

    def fit(rows):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a soft_impute stuck at max_iter is still compared
            return fit_by_name(name, SampleSet(dims, n, rows), cfg)[0].entries

    def assert_close(actual, desired):
        np.testing.assert_allclose(actual, desired, rtol=0, atol=tol * np.abs(desired).max())

    est0 = fit(x)
    assert_close(est0, est0.T)
    if spec.shape:
        assert np.trace(est0) == pytest.approx(dims.pt, rel=1e-10)
    if name == "scm-lw":
        assert np.trace(est0) == pytest.approx(np.trace(scm(SampleSet(dims, n, x)).entries),
                                               rel=1e-10)
    assert_close(fit(x[rng.permutation(n)]), est0)
    assert_close(fit(a * x), est0 if spec.shape else a * a * est0)
