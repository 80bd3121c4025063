"""Detrending, windowing, scoring, and ROC tests."""
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kroncov import (
    ANOMALOUS,
    EXCLUDED,
    NOMINAL,
    DenseCovariance,
    FrameSeries,
    GramCovariance,
    KronCovariance,
    SampleSet,
    SpaceTimeDims,
    detrend,
    fit_by_name,
    mahalanobis_scores,
    make_windows,
    roc,
)
from kroncov.anomaly import read_frame_csv, write_frame_csv, write_roc_csv
from kroncov.synth import ar1_frame_stream, inject_anomalies


def series_from(values, labels=None):
    return FrameSeries(np.asarray(values, dtype=float), labels)


def windows_by_loop(series, T, stride):
    """Starts, vectors and labels of make_windows, built one window at a time."""
    starts = np.arange(0, series.n_frames - T + 1, stride)
    vectors = np.stack([series.values[s:s + T].reshape(-1) for s in starts])
    frame_labels = np.zeros(series.n_frames, dtype=int) if series.labels is None else series.labels
    labels = []
    for s in starts:
        frac = frame_labels[s:s + T].mean()
        labels.append(ANOMALOUS if frac > 0.75 else NOMINAL if frac < 0.25 else EXCLUDED)
    return starts, vectors, np.array(labels)


class TestDetrend:
    def test_constant_series_zeroes_out(self):
        s = series_from(np.full((10, 3), 7.0))
        out = detrend(s, (0, 5))
        np.testing.assert_allclose(out.values, np.zeros((10, 3)))

    def test_linear_ramp_removed(self):
        t = np.arange(20, dtype=float)
        s = series_from(np.column_stack([2.0 + 3.0 * t, 1.0 - 0.5 * t]))
        out = detrend(s, (0, 20), linear=True)
        assert np.abs(out.values).max() < 1e-10

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        s = series_from(rng.standard_normal((30, 4)) + 5.0)
        once = detrend(s, (0, 15))
        twice = detrend(once, (0, 15))
        np.testing.assert_allclose(twice.values, once.values, atol=1e-12)
        once_lin = detrend(s, (0, 15), linear=True)
        twice_lin = detrend(once_lin, (0, 15), linear=True)
        np.testing.assert_allclose(twice_lin.values, once_lin.values, atol=1e-10)

    def test_labels_pass_through(self):
        labels = np.array([0, 1, 0, 1])
        s = series_from(np.ones((4, 2)), labels=labels)
        out = detrend(s, (0, 2))
        np.testing.assert_array_equal(out.labels, labels)

    def test_empty_range_rejected(self):
        s = series_from(np.ones((4, 2)))
        with pytest.raises(ValueError):
            detrend(s, (2, 2))


class TestMakeWindows:
    def test_single_window_when_t_equals_length(self):
        s = series_from(np.arange(20).reshape(10, 2))
        out = make_windows(s, 10)
        assert len(out.starts) == 1
        np.testing.assert_array_equal(out.vectors[0], np.arange(20, dtype=float))

    def test_stride_one_count(self):
        s = series_from(np.zeros((25, 2)))
        assert len(make_windows(s, 10).starts) == 16

    def test_vectors_concatenate_frames_in_order(self):
        rng = np.random.default_rng(1)
        frames = rng.standard_normal((8, 3))
        out = make_windows(series_from(frames), 4, stride=2)
        for start, vec in zip(out.starts, out.vectors):
            np.testing.assert_array_equal(vec, frames[start:start + 4].reshape(-1))

    def test_label_rule_boundary_excluded(self):
        s = series_from(np.zeros((4, 1)), labels=[1, 1, 1, 0])
        out = make_windows(s, 4)
        assert out.labels[0] == EXCLUDED  # 75% exactly is not "> 75%"

    def test_all_anomalous(self):
        s = series_from(np.zeros((4, 1)), labels=[1, 1, 1, 1])
        assert make_windows(s, 4).labels[0] == ANOMALOUS

    def test_mostly_clean_is_nominal(self):
        s = series_from(np.zeros((5, 1)), labels=[0, 0, 0, 0, 1])
        assert make_windows(s, 5).labels[0] == NOMINAL

    def test_unlabeled_series_gives_nominal(self):
        s = series_from(np.zeros((6, 2)))
        assert (make_windows(s, 3).labels == NOMINAL).all()

    def test_too_short_rejected(self):
        s = series_from(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            make_windows(s, 4)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_equals_the_per_window_loop(self, data):
        n = data.draw(st.integers(1, 40), label="n")
        p = data.draw(st.integers(1, 3), label="p")
        T = data.draw(st.integers(1, min(6, n)), label="T")
        stride = data.draw(st.integers(1, 4), label="stride")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        labels = rng.integers(0, 2, n) if data.draw(st.booleans(), label="labeled") else None
        series = series_from(rng.standard_normal((n, p)), labels=labels)
        out = make_windows(series, T, stride)
        starts, vectors, want = windows_by_loop(series, T, stride)
        # the windows are a read-only view of the frames, not a copy
        assert np.shares_memory(out.vectors, series.values)
        assert not any(a.flags.writeable for a in (out.starts, out.vectors, out.labels))
        assert np.array_equal(out.starts, starts)
        assert np.array_equal(out.vectors, vectors)
        assert np.array_equal(out.labels, want)


class TestMahalanobisScores:
    def test_identity_unit_vector(self):
        sigma = DenseCovariance(SpaceTimeDims(2, 1), np.eye(2))
        scores = mahalanobis_scores(np.array([[1.0, 0.0]]), sigma)
        assert scores[0] == pytest.approx(1.0)

    def test_diagonal_weighting(self):
        sigma = DenseCovariance(SpaceTimeDims(2, 1), np.diag([4.0, 1.0]))
        scores = mahalanobis_scores(np.array([[2.0, 0.0]]), sigma)
        assert scores[0] == pytest.approx(1.0)

    def test_joint_rescaling_invariance(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((4, 4))
        spd = a @ a.T + 4 * np.eye(4)
        x = rng.standard_normal((5, 4))
        base = mahalanobis_scores(x, DenseCovariance(SpaceTimeDims(2, 2), spd))
        scaled = mahalanobis_scores(
            np.sqrt(3.0) * x, DenseCovariance(SpaceTimeDims(2, 2), 3.0 * spd)
        )
        np.testing.assert_allclose(scaled, base, rtol=1e-12)

    def test_identity_equals_squared_norm(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((7, 6))
        sigma = DenseCovariance(SpaceTimeDims(3, 2), np.eye(6))
        np.testing.assert_allclose(
            mahalanobis_scores(x, sigma),
            np.sum(x ** 2, axis=1), rtol=1e-12,
        )

    def test_dense_scores_match_a_linear_solve(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((12, 12))
        spd = a @ a.T + 0.5 * np.eye(12)
        x = rng.standard_normal((9, 12))
        expect = np.einsum("ij,ji->i", x, np.linalg.solve(spd, x.T))
        sigma = DenseCovariance(SpaceTimeDims(4, 3), spd)
        scores = mahalanobis_scores(x, sigma)
        np.testing.assert_allclose(scores, expect, rtol=1e-10)
        # overlapping windows of a frame stream, scored in place and as a copy
        view = make_windows(series_from(rng.standard_normal((11, 4))), 3).vectors
        np.testing.assert_array_equal(mahalanobis_scores(view, sigma),
                                      mahalanobis_scores(view.copy(), sigma))

    def test_singular_covariance_rejected(self):
        sigma = DenseCovariance(SpaceTimeDims(2, 1), np.diag([1.0, 0.0]))
        with pytest.raises(ValueError, match="singular"):
            mahalanobis_scores(np.array([[1.0, 1.0]]), sigma)

    @pytest.mark.parametrize("form", ["dense", "kron", "rows"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
    def test_non_finite_score_names_its_window(self, form, bad):
        dims = SpaceTimeDims(3, 2)
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 12))
        sigma = {
            "dense": DenseCovariance(dims, a @ a.T / 12 + np.eye(6)),
            "kron": KronCovariance(dims, [(2.0 * np.eye(2), np.eye(3))], 0.5),
            "rows": GramCovariance(dims, rng.standard_normal((3, 6)), 1.0, 1.0),
        }[form]
        x = rng.standard_normal((5, 6))
        x[3, 4] = bad
        x[4, 0] = bad
        with pytest.raises(ValueError, match=r"window 3 has a non-finite score"):
            mahalanobis_scores(x, sigma)
        np.testing.assert_array_equal(mahalanobis_scores(x[:3], sigma),
                                      sigma.inverse_quad_forms(x[:3])[0])

    def test_tyler_kronpca_is_scored_from_its_blocks(self, monkeypatch):
        p, T = 4, 3
        frames = ar1_frame_stream(p, 400, 0.3, 0.9, seed=6, dof=3.0)
        shifted, labels = inject_anomalies(frames[100:], rate=0.1, magnitude=4.0, seed=7)
        train = make_windows(series_from(frames[:100]), T)
        test = make_windows(series_from(shifted, labels), T)
        samples = SampleSet(SpaceTimeDims(p, T), len(train.vectors), train.vectors)
        cov, _ = fit_by_name("tyler-kronpca", samples, {"rho": 0.1})
        assert isinstance(cov, KronCovariance)
        dense_auc = roc(mahalanobis_scores(test.vectors, DenseCovariance(cov.dims, cov.entries)),
                        test.labels).auc
        for name in ("cholesky", "eigh", "eigvalsh"):
            real = getattr(np.linalg, name)

            def refuse_dense(a, *args, _real=real, _name=name, **kwargs):
                assert np.shape(a)[-1] != p * T, f"dense pT x pT {_name}"
                return _real(a, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, refuse_dense)
        block_auc = roc(mahalanobis_scores(test.vectors, cov), test.labels).auc
        assert block_auc == pytest.approx(dense_auc, rel=0, abs=1e-12)

    def test_dc_kronpca_lw_check_solves_two_blocks(self, monkeypatch):
        # the usability check eigensolves the end blocks only, the solve all T of them
        p, T = 5, 3
        frames = ar1_frame_stream(p, 200, 0.3, 0.9, seed=8)
        train = make_windows(series_from(frames[:100]), T)
        test = make_windows(series_from(frames[100:]), T)
        cov, _ = fit_by_name("dc-kronpca-lw", SampleSet(SpaceTimeDims(p, T), len(train.vectors),
                                                        train.vectors))
        assert isinstance(cov, KronCovariance) and len(cov.pairs) == 1 and np.ptp(cov.d) > 0
        want = mahalanobis_scores(test.vectors, cov.to_dense())
        calls = {"eigvalsh": [], "eigh": []}
        for name, shapes in calls.items():
            def counted(a, *args, _real=getattr(np.linalg, name), _shapes=shapes, **kwargs):
                _shapes.append(np.shape(a))
                return _real(a, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        np.testing.assert_allclose(mahalanobis_scores(test.vectors, cov), want, rtol=1e-10)
        assert calls["eigvalsh"] == [(2, p, p)]
        assert [shape for shape in calls["eigh"] if shape[-1] == p] == [(T, p, p)]


class TestRoc:
    def test_perfect_separation(self):
        curve = roc([0.9, 0.8, 0.2, 0.1], [ANOMALOUS, ANOMALOUS, NOMINAL, NOMINAL])
        assert curve.auc == pytest.approx(1.0)

    def test_inverted_labels(self):
        curve = roc([0.9, 0.8, 0.2, 0.1], [NOMINAL, NOMINAL, ANOMALOUS, ANOMALOUS])
        assert curve.auc == pytest.approx(0.0)

    def test_null_scores_near_half(self):
        rng = np.random.default_rng(4)
        n = 10_000
        scores = rng.standard_normal(n)
        labels = np.where(rng.random(n) < 0.5, ANOMALOUS, NOMINAL)
        assert 0.47 <= roc(scores, labels).auc <= 0.53

    def test_complement_property_without_ties(self):
        rng = np.random.default_rng(5)
        scores = rng.standard_normal(200)
        labels = np.where(rng.random(200) < 0.4, ANOMALOUS, NOMINAL)
        a = roc(scores, labels).auc
        b = roc(-scores, labels).auc
        assert a + b == pytest.approx(1.0, abs=1e-12)

    def test_ties_grouped_into_one_step(self):
        curve = roc([1.0, 1.0, 0.0], [ANOMALOUS, NOMINAL, NOMINAL])
        # one step covers both tied scores: (fpr, tpr) jumps to (0.5, 1.0)
        np.testing.assert_allclose(curve.fpr, [0.0, 0.5, 1.0])
        np.testing.assert_allclose(curve.tpr, [0.0, 1.0, 1.0])
        assert curve.auc == pytest.approx(0.75)

    def test_monotone_curve(self):
        rng = np.random.default_rng(6)
        scores = rng.standard_normal(500)
        labels = np.where(rng.random(500) < 0.3, ANOMALOUS, NOMINAL)
        curve = roc(scores, labels)
        assert (np.diff(curve.fpr) >= 0).all()
        assert (np.diff(curve.tpr) >= 0).all()
        assert (np.diff(curve.thresholds) <= 0).all()

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            roc([1.0, 2.0], [NOMINAL, NOMINAL])


class TestFrameSeries:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_values_rejected(self, bad):
        values = np.zeros((4, 2))
        values[2, 0] = bad
        with pytest.raises(ValueError, match="frame values must be finite"):
            series_from(values)

    @pytest.mark.parametrize("bad", [0.9, 7, -1, 0.5, np.nan, np.inf])
    def test_labels_other_than_zero_or_one_rejected(self, bad):
        with pytest.raises(ValueError, match="labels must be exactly 0 or 1"):
            series_from(np.zeros((4, 2)), labels=[0.0, 1.0, bad, 0.0])

    def test_label_column_read_unconverted(self, tmp_path):
        path = tmp_path / "frames.csv"
        path.write_text("c0,c1,label\n1,2,0\n3,4,0.9\n")
        with pytest.raises(ValueError, match="labels must be exactly 0 or 1, found 0.9"):
            read_frame_csv(path)


class TestCsv:
    def test_frame_roundtrip_with_labels(self, tmp_path):
        rng = np.random.default_rng(7)
        s = series_from(rng.standard_normal((12, 3)), labels=rng.integers(0, 2, 12))
        path = tmp_path / "frames.csv"
        write_frame_csv(path, s)
        back = read_frame_csv(path)
        np.testing.assert_array_equal(back.values, s.values)
        np.testing.assert_array_equal(back.labels, s.labels)

    def test_frame_roundtrip_without_labels(self, tmp_path):
        rng = np.random.default_rng(8)
        s = series_from(rng.standard_normal((5, 2)))
        path = tmp_path / "frames.csv"
        write_frame_csv(path, s)
        back = read_frame_csv(path)
        assert back.labels is None
        np.testing.assert_array_equal(back.values, s.values)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text, values, labels", [
        ("c0,c1,label\n1,2,0\n\n3,4,1\n", [[1, 2], [3, 4]], [0, 1]),
        ('c0,c1\n"1.5",2\n3,"-4e0"\n', [[1.5, 2], [3, -4]], None),
    ], ids=["blank-line-skipped", "quoted-numbers"])
    def test_frame_csv_read(self, tmp_path, text, values, labels):
        path = tmp_path / "frames.csv"
        path.write_text(text)
        back = read_frame_csv(path)
        np.testing.assert_array_equal(back.values, values)
        assert (back.labels is None) if labels is None else back.labels.tolist() == labels

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text, names_path", [
        ("", True),
        ("c0,c1,label\n", True),
        ("c0,c1\n1,2\n3\n", False),
        ("c0,c1\n1,2\n  \n3,4\n", False),
        ("c0\n1\n \n2\n", False),
    ], ids=["empty", "header-only", "short-row", "whitespace-row", "whitespace-row-one-column"])
    def test_malformed_frame_csv_rejected(self, tmp_path, text, names_path):
        path = tmp_path / "frames.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(str(path)) if names_path else None):
            read_frame_csv(path)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("header", ["c0,c1,label", "c0"])
    def test_header_only_frame_csv_holds_no_frames(self, tmp_path, header):
        path = tmp_path / "frames.csv"
        path.write_text(header + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: holds no frames")):
            read_frame_csv(path)

    @pytest.mark.filterwarnings("error")
    def test_empty_frame_csv_holds_no_frames(self, tmp_path):
        path = tmp_path / "frames.csv"
        path.write_text("")
        with pytest.raises(ValueError, match=re.escape(f"{path}: holds no frames")):
            read_frame_csv(path)

    def test_roc_csv_written(self, tmp_path):
        curve = roc([0.9, 0.1], [ANOMALOUS, NOMINAL])
        path = tmp_path / "roc.csv"
        write_roc_csv(path, curve)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "threshold,fpr,tpr"
        assert len(lines) == 1 + len(curve.thresholds)
