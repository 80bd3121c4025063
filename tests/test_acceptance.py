"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Expected values come from independent constructions (np.kron,
hand-computed cases, paired Monte-Carlo), never from the code under test.
"""
import filecmp
import json
import time
import warnings

import numpy as np
from scipy.linalg import toeplitz as sp_toeplitz

from kroncov import (
    DenseCovariance,
    EstimatorConfig,
    SampleSet,
    SpaceTimeDims,
    ar1_cov,
    chen_tyler,
    dc_kronpca,
    derearrange,
    kron_spectrum,
    kronpca,
    lw_intensity,
    ar1_kron_truth,
    rearrange,
    robust_kronpca,
    sample_gaussian,
    scm,
    shrink,
    soft_impute,
    toeplitz_embed,
    toeplitz_project,
)
from kroncov.anomaly import FrameSeries, write_frame_csv
from kroncov.cli import main, run_mse_bench
from kroncov.estimators import components_for_energy
from kroncov.kron_ops import RearrangedMatrix, ToeplitzCompressed
from kroncov.synth import ar1_frame_stream, inject_anomalies, write_sample_csv


def report(k, message):
    print(f"\n[criterion {k}] PASS - {message}")


def rel_err(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def test_criterion_1_operator_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    for _ in range(200):
        p = int(rng.integers(1, 6))
        T = int(rng.integers(1, 7))
        dims = SpaceTimeDims(p, T)

        m = rng.standard_normal((p * T, p * T))
        sigma = DenseCovariance(dims, m + m.T)
        scale = np.abs(sigma.entries).max()

        r = rearrange(sigma)
        back = derearrange(r)
        assert np.abs(back.entries - sigma.entries).max() <= 1e-12 * scale

        a = rng.standard_normal((T, T))
        b = rng.standard_normal((p, p))
        kr = DenseCovariance(dims, np.kron(a + a.T, b + b.T))
        outer = np.outer((a + a.T).flatten(order="F"), (b + b.T).flatten(order="F"))
        assert np.abs(rearrange(kr).entries - outer).max() <= 1e-12 * max(np.abs(outer).max(), 1e-300)

        t = ToeplitzCompressed(dims, rng.standard_normal((2 * T - 1, p * p)))
        rt = toeplitz_project(toeplitz_embed(t))
        assert np.abs(rt.entries - t.entries).max() <= 1e-12 * max(np.abs(t.entries).max(), 1e-300)

        rm = RearrangedMatrix(dims, rng.standard_normal((T * T, p * p)))
        once = toeplitz_embed(toeplitz_project(rm))
        twice = toeplitz_embed(toeplitz_project(once))
        assert np.abs(twice.entries - once.entries).max() <= 1e-12 * max(np.abs(once.entries).max(), 1e-300)

        assert abs(np.linalg.norm(r.entries) - np.linalg.norm(sigma.entries)) <= 1e-12 * np.linalg.norm(sigma.entries)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(1, f"operator identities exact on 200 instances in {elapsed:.2f}s")


def correlated_spd(rng, n):
    """Random SPD with substantial off-diagonal mass (scaled AR-style
    correlation), the covariance-shaped ensemble the fits are meant for.
    Keeping the correlation away from zero keeps the masked diagonal
    identifiable; a diagonal spatial factor would be confounded with the
    I (x) D correction term."""
    corr = ar1_cov(n, float(rng.choice([-1, 1]) * rng.uniform(0.5, 0.95)))
    scales = np.sqrt(rng.uniform(1.0, 2.0, n))
    return corr * np.outer(scales, scales)


def test_criterion_2_exact_recovery():
    start = time.perf_counter()
    rng = np.random.default_rng(1002)
    toeplitz_checked = 0
    for plant in range(50):
        T = int(rng.integers(1, 7))
        use_toeplitz = plant % 2 == 0

        if use_toeplitz:
            t0 = ar1_cov(T, float(rng.uniform(-0.9, 0.9))) * float(rng.uniform(0.5, 2.0))
        else:
            q, _ = np.linalg.qr(rng.standard_normal((T, T)))
            t0 = (q * rng.uniform(0.2, 2.0, T)) @ q.T

        # pure Kronecker plant, direct SVD route (any symmetric spatial factor)
        p = int(rng.integers(1, 11))
        q, _ = np.linalg.qr(rng.standard_normal((p, p)))
        s0 = (q * rng.uniform(0.2, 2.0, p)) @ q.T
        dims = SpaceTimeDims(p, T)
        sigma = DenseCovariance(dims, np.kron(t0, s0))
        cfg = EstimatorConfig(r=1, beta=0.0, toeplitz=use_toeplitz)
        model = kronpca(sigma, cfg)
        assert rel_err(model.covariance().entries, sigma.entries) <= 1e-6
        if use_toeplitz:
            _, tm, _ = model.factors[0]
            assert np.abs(tm - sp_toeplitz(tm[:, 0], tm[0, :])).max() <= 1e-12 * np.abs(tm).max()
            toeplitz_checked += 1

        # diagonally corrected plant, masked completion route (p >= 3: at
        # p = 1 the split is structurally unidentifiable)
        p_dc = int(rng.integers(3, 11))
        dims_dc = SpaceTimeDims(p_dc, T)
        s_dc = correlated_spd(rng, p_dc)
        d = rng.uniform(0.1, 1.0, p_dc)
        sigma_dc = DenseCovariance(
            dims_dc, np.kron(t0, s_dc) + np.kron(np.eye(T), np.diag(d))
        )
        cfg_dc = EstimatorConfig(r=1, beta=1e-6, toeplitz=use_toeplitz,
                                 diag_correct=True, tol=1e-12, max_iter=20000)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model_dc = dc_kronpca(sigma_dc, cfg_dc)
        assert rel_err(model_dc.covariance().entries, sigma_dc.entries) <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    assert toeplitz_checked == 25
    report(2, f"50 plants recovered to 1e-6 ({toeplitz_checked} Toeplitz) in {elapsed:.1f}s")


def test_criterion_3_soft_impute_monotonicity():
    rng = np.random.default_rng(1003)
    runs = 0
    violations = 0
    for _ in range(40):
        rows = int(rng.integers(2, 12))
        cols = int(rng.integers(2, 16))
        b = rng.standard_normal((rows, cols)) * float(rng.uniform(0.5, 4.0))
        mask = (rng.random((rows, cols)) > rng.uniform(0.05, 0.5)).astype(float)
        beta = float(rng.uniform(0.0, 1.0))
        cfg = EstimatorConfig(r=int(rng.integers(1, 5)), beta=beta,
                              max_iter=int(rng.integers(5, 200)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = soft_impute(b, mask, beta, cfg)
        runs += 1
        trace = np.array(res.objective_trace)
        slack = 1e-9 * max(1.0, trace[0])
        violations += int((np.diff(trace) > slack).sum())
    assert violations == 0
    report(3, f"objective nonincreasing across {runs} randomized runs, 0 violations")


def test_criterion_4_shrinkage_contracts():
    rng = np.random.default_rng(1004)
    # trace preservation and spectral floor on trace-normalized PSD inputs
    for _ in range(25):
        n = int(rng.integers(2, 12))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        spd = (q * rng.uniform(0.01, 5.0, n)) @ q.T
        spd *= n / np.trace(spd)
        sigma = DenseCovariance(SpaceTimeDims(n, 1), spd)
        rho = float(rng.uniform(0.0, 1.0))
        out = shrink(sigma, rho)
        assert abs(np.trace(out.entries) - np.trace(sigma.entries)) <= 1e-12 * np.trace(sigma.entries)
        assert np.linalg.eigvalsh(out.entries)[0] >= rho - 1e-10

    # intensity bounds on random data
    for _ in range(25):
        n = int(rng.integers(2, 40))
        samples = SampleSet(SpaceTimeDims(3, 2), n, rng.standard_normal((n, 6)))
        rho = lw_intensity(samples, scm(samples)).rho
        assert 0.0 <= rho <= 1.0

    # hand-computed zero case
    two_point = SampleSet(SpaceTimeDims(2, 1), 2, np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert lw_intensity(two_point, scm(two_point)).rho == 0.0

    # pure-target plugin
    samples = SampleSet(SpaceTimeDims(2, 1), 5, rng.standard_normal((5, 2)))
    plugin = DenseCovariance(SpaceTimeDims(2, 1), 3.7 * np.eye(2))
    assert lw_intensity(samples, plugin).rho == 1.0
    report(4, "trace preserved to 1e-12, spectral floor rho, intensity bounds and special cases")


def test_criterion_5_tyler_invariances():
    rng = np.random.default_rng(1005)
    x = rng.standard_normal((40, 6))
    dims = (3, 2)
    base_ct = chen_tyler(SampleSet(SpaceTimeDims(*dims), 40, x), 0.1)
    base_rk = robust_kronpca(SampleSet(SpaceTimeDims(*dims), 40, x), 0.1)
    assert abs(np.trace(base_ct.entries) - 6.0) <= 1e-9
    assert abs(np.trace(base_rk.entries) - 6.0) <= 1e-9

    for draw in range(10):
        # powers of two keep the rescaled inputs exactly representable, so
        # the direction normalization must cancel them bit for bit
        scales = 2.0 ** rng.integers(-10, 11, size=40).astype(float)
        rescaled = x * scales[:, None]
        ct = chen_tyler(SampleSet(SpaceTimeDims(*dims), 40, rescaled), 0.1)
        rk = robust_kronpca(SampleSet(SpaceTimeDims(*dims), 40, rescaled), 0.1)
        assert np.array_equal(ct.entries, base_ct.entries)
        assert np.array_equal(rk.entries, base_rk.entries)

    # arbitrary positive rescalings round the inputs themselves; demand
    # agreement to 1e-10 relative instead of bitwise
    scales = rng.uniform(0.2, 5.0, size=40)
    ct = chen_tyler(SampleSet(SpaceTimeDims(*dims), 40, x * scales[:, None]), 0.1)
    assert rel_err(ct.entries, base_ct.entries) < 1e-10
    report(5, "bit-identical under 10 power-of-two rescaling draws; trace = pT to 1e-9")


def test_criterion_6_gaussian_mse_ordering():
    start = time.perf_counter()
    cfg = {
        "p": 20, "T": 5, "seed": 20260810, "trials": 100, "n_grid": [10],
        "estimators": [
            {"name": "scm"},
            {"name": "kronpca", "config": {"r": 1, "beta": 0.0}},
            {"name": "dc-kronpca-lw", "config": {"r": 1, "beta": 0.0}},
        ],
    }
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows, _ = run_mse_bench(cfg, threads=1)
    cells = {label: cell for label, _, _, _, cell in rows}
    means = {label: cell.mean() for label, cell in cells.items()}
    assert means["dc-kronpca-lw"] < means["kronpca"] < means["scm"]
    for better, worse in [("dc-kronpca-lw", "kronpca"), ("kronpca", "scm")]:
        diff = cells[worse] - cells[better]
        stderr = diff.std(ddof=1) / np.sqrt(len(diff))
        assert diff.mean() > 2.0 * stderr, f"{better} vs {worse} not separated"
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(6, "mean MSE {dc:.3f} < {k:.3f} < {s:.3f}, gaps > 2 SE, {t:.0f}s".format(
        dc=means["dc-kronpca-lw"], k=means["kronpca"], s=means["scm"], t=elapsed))


def test_criterion_7_heavy_tail_mse_ordering():
    start = time.perf_counter()
    cfg = {
        "p": 10, "T": 5, "seed": 20260811, "trials": 100, "n_grid": [100], "dof": 3,
        "estimators": [
            {"name": "chen-tyler", "config": {"rho": 0.05}},
            {"name": "tyler-kronpca", "config": {"rho": 0.05}},
        ],
    }
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows, _ = run_mse_bench(cfg, threads=1)
    cells = {label: cell for label, _, _, _, cell in rows}
    diff = cells["chen-tyler"] - cells["tyler-kronpca"]
    stderr = diff.std(ddof=1) / np.sqrt(len(diff))
    assert cells["tyler-kronpca"].mean() < cells["chen-tyler"].mean()
    assert diff.mean() > 2.0 * stderr
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    report(7, "shape MSE {t:.4f} < {c:.4f} at {z:.1f} SE, {s:.0f}s".format(
        t=cells["tyler-kronpca"].mean(), c=cells["chen-tyler"].mean(),
        z=diff.mean() / stderr, s=elapsed))


def test_criterion_8_spectrum_ordering():
    truth = ar1_kron_truth(10, 5, 0.5, 0.95)
    samples = sample_gaussian(truth, 10_000, 1008)
    kron_sv, pca_ev = kron_spectrum(scm(samples), toeplitz_rows=True)
    k_scm = components_for_energy(kron_sv)
    k_pca = components_for_energy(pca_ev)
    assert k_scm <= k_pca

    kron_exact, _ = kron_spectrum(truth.sigma, toeplitz_rows=True)
    assert components_for_energy(kron_exact) == 1
    report(8, f"95% energy components: kron {k_scm} <= pca {k_pca}; exact truth needs 1")


def _write_stream(path, magnitude, seed, p=10, n_train=200, n_test=3000):
    frames = ar1_frame_stream(p, n_train + n_test, tcoeff=0.2, scoeff=0.95, seed=seed)
    shifted, labels = inject_anomalies(
        frames[n_train:], rate=0.1, magnitude=magnitude, seed=seed + 1,
        width_range=(1.0, 1.0),
    )
    values = np.vstack([frames[:n_train], shifted])
    labels = np.concatenate([np.zeros(n_train, dtype=int), labels])
    write_frame_csv(path, FrameSeries(values, labels))


def _run_anomaly_cli(tmp_path, tag, stream, T, estimators):
    cfg = {"input": str(stream), "T": T, "train_range": [0, 200],
           "estimators": estimators}
    cfg_path = tmp_path / f"anomaly-{tag}.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / f"out-{tag}"
    out.mkdir()
    assert main(["anomaly", "--config", str(cfg_path), "--out", str(out)]) == 0
    return {
        spec.get("label", spec["name"]): json.loads(
            (out / f"auc_{spec.get('label', spec['name'])}.json").read_text()
        )["auc"]
        for spec in estimators
    }


def test_criterion_9_anomaly_pipeline(tmp_path):
    stream = tmp_path / "stream.csv"
    _write_stream(stream, magnitude=5.0, seed=42)

    kron_aucs = _run_anomaly_cli(
        tmp_path, "t10", stream, 10,
        [{"name": "dc-kronpca-lw", "config": {"r": 1}},
         {"name": "tyler-kronpca", "config": {"rho": 0.1}}],
    )
    single = _run_anomaly_cli(
        tmp_path, "t1", stream, 1,
        [{"name": "chen-tyler", "config": {"rho": 0.1}}],
    )
    assert kron_aucs["dc-kronpca-lw"] >= 0.95
    for name, auc in kron_aucs.items():
        assert auc >= single["chen-tyler"], f"{name} below single-frame baseline"

    null_stream = tmp_path / "null.csv"
    _write_stream(null_stream, magnitude=0.0, seed=42)
    null_auc = _run_anomaly_cli(
        tmp_path, "null", null_stream, 10,
        [{"name": "dc-kronpca-lw", "config": {"r": 1}}],
    )["dc-kronpca-lw"]
    assert 0.4 <= null_auc <= 0.6
    report(9, "AUC dc {dc:.3f} >= 0.95, kron >= single-frame {ct:.3f}, null {n:.3f}".format(
        dc=kron_aucs["dc-kronpca-lw"], ct=single["chen-tyler"], n=null_auc))


def test_criterion_10_cli_reproducibility(tmp_path):
    def dirs_identical(a, b):
        names = sorted(x.name for x in a.iterdir())
        assert names == sorted(x.name for x in b.iterdir())
        match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
        return mismatch == [] and errors == []

    stream = tmp_path / "stream.csv"
    _write_stream(stream, magnitude=5.0, seed=3, n_test=600)
    truth = ar1_kron_truth(3, 2, 0.5, 0.95)
    samples_csv = tmp_path / "samples.csv"
    write_sample_csv(samples_csv, sample_gaussian(truth, 40, 2))

    configs = {
        "synth": {"p": 3, "T": 2, "n": 25, "seed": 4, "dof": 3},
        "estimate": {"input": str(samples_csv), "p": 3, "T": 2,
                     "estimator": "dc-kronpca-lw", "estimator_config": {"r": 1}},
        "mse-bench": {"p": 2, "T": 2, "seed": 6, "trials": 3, "n_grid": [12],
                      "estimators": [{"name": "scm"}, {"name": "scm-lw"}]},
        "anomaly": {"input": str(stream), "T": 5, "train_range": [0, 200],
                    "estimators": [{"name": "scm-lw"}]},
        "spectrum": {"input": str(samples_csv), "kind": "samples", "p": 3, "T": 2},
    }
    for command, cfg in configs.items():
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(cfg))
        out_a = tmp_path / f"{command}-a"
        out_b = tmp_path / f"{command}-b"
        for out in (out_a, out_b):
            out.mkdir()
            code = main(["anomaly" if command == "anomaly" else command,
                         "--config", str(cfg_path), "--out", str(out)])
            assert code == 0, command
        assert dirs_identical(out_a, out_b), f"{command} outputs differ between runs"
    report(10, "all five subcommands byte-identical across re-runs")
