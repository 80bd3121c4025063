"""End-to-end subcommand tests: files, determinism, exit codes."""
import copy
import filecmp
import inspect
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import kroncov
from kroncov import SpaceTimeDims, ar1_kron_truth, sample_gaussian, scm, shrink
from kroncov import anomaly as anom
from kroncov import files, synth
from kroncov import estimators as est
from kroncov.anomaly import FrameSeries, write_frame_csv
from kroncov.cli import COMMANDS, config_hash, main, read_matrix_binary, write_matrix_binary
from kroncov.synth import ar1_frame_stream, inject_anomalies, read_sample_csv, write_sample_csv


def normalized_mse(estimate: np.ndarray, truth: np.ndarray, shape_only: bool) -> float:
    """||estimate - truth||_F^2 / ||truth||_F^2 of two dense matrices, the
    reference for the factor-form error; shape-only estimators compare
    unit-trace rescalings of both sides."""
    if shape_only:
        estimate = estimate / np.trace(estimate)
        truth = truth / np.trace(truth)
    return float(np.sum((estimate - truth) ** 2) / np.sum(truth ** 2))


def record_sample_covariances(monkeypatch) -> dict:
    """Patch SampleSet.covariance to keep each covariance it returns under its
    id (kept alive, so no id is reused): the dict's size counts the
    covariances computed, however often each one is read."""
    computed = {}
    read = synth.SampleSet.covariance

    def recorded(self):
        cov = read(self)
        computed[id(cov)] = cov
        return cov
    monkeypatch.setattr(synth.SampleSet, "covariance", recorded)
    return computed


def run_cli(command, cfg, out, tmp_path, extra=()):
    cfg_path = tmp_path / f"{command}-{abs(hash(json.dumps(cfg, sort_keys=True)))}.json"
    cfg_path.write_text(json.dumps(cfg))
    out.mkdir(parents=True, exist_ok=True)
    return main([command, "--config", str(cfg_path), "--out", str(out), *extra])


def assert_dirs_byte_identical(a, b):
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    assert mismatch == [] and errors == []


def modules_after_importing_the_cli() -> set:
    """The modules a fresh interpreter has loaded once it has imported kroncov.cli."""
    src = str(Path(kroncov.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, kroncov.cli; print(*sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


def test_importing_the_cli_loads_no_scipy():
    """The program needs numpy alone, so a run loads one BLAS (numpy's): a fresh
    interpreter that imports kroncov.cli has no scipy module."""
    loaded = modules_after_importing_the_cli()
    assert "scipy" not in loaded, sorted(m for m in loaded if m.startswith("scipy"))


def test_importing_the_cli_loads_no_thread_pool():
    """A run with one thread starts no pool, so importing kroncov.cli loads neither
    concurrent.futures nor the logging it imports."""
    assert not {"concurrent.futures", "logging"} & modules_after_importing_the_cli()


class TestSynthCommand:
    def test_writes_samples_and_sidecar(self, tmp_path):
        cfg = {"p": 2, "T": 2, "n": 3, "seed": 7}
        assert run_cli("synth", cfg, tmp_path / "out", tmp_path) == 0
        data = np.loadtxt(tmp_path / "out" / "samples.csv", delimiter=",", skiprows=1)
        assert data.shape == (3, 4)
        sidecar = json.loads((tmp_path / "out" / "samples.json").read_text())
        assert sidecar["seed"] == 7 and sidecar["n"] == 3
        assert "config_hash" in sidecar

    def test_byte_identical_reruns(self, tmp_path):
        cfg = {"p": 2, "T": 2, "n": 5, "seed": 11}
        run_cli("synth", cfg, tmp_path / "a", tmp_path)
        run_cli("synth", cfg, tmp_path / "b", tmp_path)
        assert_dirs_byte_identical(tmp_path / "a", tmp_path / "b")

    def test_dof_selects_heavy_tails(self, tmp_path):
        base = {"p": 2, "T": 2, "n": 200, "seed": 3}
        run_cli("synth", base, tmp_path / "gauss", tmp_path)
        run_cli("synth", {**base, "dof": 3}, tmp_path / "heavy", tmp_path)
        g = np.loadtxt(tmp_path / "gauss" / "samples.csv", delimiter=",", skiprows=1)
        h = np.loadtxt(tmp_path / "heavy" / "samples.csv", delimiter=",", skiprows=1)
        assert np.abs(h).max() > np.abs(g).max()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = {"p": 2, "T": 2, "n": 4, "seed": 1}
        run_cli("synth", cfg, tmp_path / "a", tmp_path, extra=("--seed", "99"))
        sidecar = json.loads((tmp_path / "a" / "samples.json").read_text())
        assert sidecar["seed"] == 99

    def test_missing_key_is_config_error(self, tmp_path):
        assert run_cli("synth", {"p": 2, "T": 2}, tmp_path / "x", tmp_path) == 2


class TestEstimateCommand:
    def test_scm_two_point_example(self, tmp_path):
        csv = tmp_path / "samples.csv"
        csv.write_text("x0,x1\n1,0\n-1,0\n")
        cfg = {"input": str(csv), "p": 2, "T": 1, "estimator": "scm"}
        assert run_cli("estimate", cfg, tmp_path / "out", tmp_path) == 0
        cov = read_matrix_binary(tmp_path / "out" / "covariance.bin")
        np.testing.assert_allclose(cov, [[1.0, 0.0], [0.0, 0.0]])
        diag = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
        assert diag["estimator"] == "scm"

    def test_robust_trace_in_diagnostics(self, tmp_path):
        truth = ar1_kron_truth(3, 2, 0.5, 0.95)
        sset = sample_gaussian(truth, 60, 5)
        csv = tmp_path / "s.csv"
        write_sample_csv(csv, sset)
        cfg = {"input": str(csv), "p": 3, "T": 2, "estimator": "tyler-kronpca",
               "estimator_config": {"rho": 0.1}}
        assert run_cli("estimate", cfg, tmp_path / "out", tmp_path) == 0
        diag = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
        assert diag["trace"] == pytest.approx(6.0, abs=1e-9)
        assert diag["converged"] is True

    def test_structured_estimate_better_conditioned_than_scm(self, tmp_path):
        truth = ar1_kron_truth(5, 4, 0.5, 0.95)
        sset = sample_gaussian(truth, 10, 21)  # n < pT
        csv = tmp_path / "s.csv"
        write_sample_csv(csv, sset)
        base = {"input": str(csv), "p": 5, "T": 4}
        run_cli("estimate", {**base, "estimator": "scm"}, tmp_path / "scm", tmp_path)
        run_cli("estimate", {**base, "estimator": "dc-kronpca-lw"}, tmp_path / "dc", tmp_path)
        scm_diag = json.loads((tmp_path / "scm" / "diagnostics.json").read_text())
        dc_diag = json.loads((tmp_path / "dc" / "diagnostics.json").read_text())
        assert scm_diag["condition_number"] is None  # singular
        assert dc_diag["condition_number"] is not None
        model = json.loads((tmp_path / "dc" / "model.json").read_text())
        assert model["dims"] == {"p": 5, "T": 4}

    def test_scm_below_pt_samples_reports_exact_zero_eigenvalues(self, tmp_path):
        csv = tmp_path / "s.csv"
        write_sample_csv(csv, sample_gaussian(ar1_kron_truth(5, 4, 0.5, 0.95), 10, 21))
        cfg = {"input": str(csv), "p": 5, "T": 4, "estimator": "scm"}
        assert run_cli("estimate", cfg, tmp_path / "out", tmp_path) == 0
        diag = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
        assert diag["min_eigenvalue"] == 0.0 and diag["condition_number"] is None
        assert diag["max_eigenvalue"] > 0

    @pytest.mark.parametrize("n", [8, 30], ids=["below-pT", "above-pT"])
    @pytest.mark.parametrize("name", sorted(est.ESTIMATORS))
    def test_diagnostics_eigenvalues_are_those_of_the_written_covariance(self, tmp_path, name, n):
        csv = tmp_path / "s.csv"
        write_sample_csv(csv, sample_gaussian(ar1_kron_truth(4, 3, 0.5, 0.9), n, 17))
        cfg = {"input": str(csv), "p": 4, "T": 3, "estimator": name}
        assert run_cli("estimate", cfg, tmp_path / "out", tmp_path) == 0
        lam = np.linalg.eigvalsh(read_matrix_binary(tmp_path / "out" / "covariance.bin"))
        diag = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
        # relative, or within 1e-12 of the spectral norm for the SCM's zero eigenvalues below pT
        assert diag["min_eigenvalue"] == pytest.approx(lam[0], rel=1e-12, abs=1e-12 * lam[-1])
        assert diag["max_eigenvalue"] == pytest.approx(lam[-1], rel=1e-12)
        if diag["condition_number"] is None:
            assert diag["min_eigenvalue"] <= 0 and lam[0] <= 1e-12 * lam[-1]
        else:
            assert diag["condition_number"] == pytest.approx(lam[-1] / lam[0], rel=1e-12)

    def test_unknown_estimator_is_config_error(self, tmp_path):
        csv = tmp_path / "s.csv"
        csv.write_text("x0\n1\n2\n")
        cfg = {"input": str(csv), "p": 1, "T": 1, "estimator": "magic"}
        assert run_cli("estimate", cfg, tmp_path / "out", tmp_path) == 2

    def test_malformed_csv_is_config_error(self, tmp_path):
        csv = tmp_path / "bad.csv"
        csv.write_text("x0,x1\n1,2\n")
        cfg = {"input": str(csv), "p": 3, "T": 1, "estimator": "scm"}
        assert run_cli("estimate", cfg, tmp_path / "out", tmp_path) == 2

    @pytest.mark.parametrize("override, message", [
        ({"r": 1.5}, "r must be a positive integer"),
        ({"rho": True}, "rho must be a number"),
    ])
    def test_wrongly_typed_estimator_config_is_config_error(self, tmp_path, capsys,
                                                            override, message):
        csv = tmp_path / "s.csv"
        csv.write_text("x0,x1\n1,0\n-1,2\n0,1\n")
        cfg = {"input": str(csv), "p": 2, "T": 1, "estimator": "kronpca",
               "estimator_config": override}
        assert run_cli("estimate", cfg, tmp_path / "out", tmp_path) == 2
        assert message in capsys.readouterr().err

    def test_header_only_csv_is_config_error(self, tmp_path, capsys):
        csv = tmp_path / "s.csv"
        csv.write_text("x0,x1,x2,x3\n")
        cfg = {"input": str(csv), "p": 2, "T": 2, "estimator": "scm"}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("estimate", cfg, tmp_path / "out", tmp_path) == 2
        assert f"{csv}: holds no sample rows" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "x0,x1\n1,0\n# a note\n0,1\n", "x0\n1\n# a note\n0\n",
        "x0,x1,x2\n1,0\n-1,2\n0,1\n", "x0\n1,0\n-1,2\n0,1\n",
    ], ids=["comment-line", "comment-line-one-column", "header-wider-than-rows",
            "header-narrower-than-rows"])
    def test_sample_csv_off_the_format_is_config_error(self, tmp_path, capsys, text):
        csv = tmp_path / "s.csv"
        csv.write_text(text)
        p = len(text.splitlines()[1].split(","))
        cfg = {"input": str(csv), "p": p, "T": 1, "estimator": "scm"}
        assert run_cli("estimate", cfg, tmp_path / "out", tmp_path) == 2
        assert f"config error: input (sample CSV): {csv}: " in capsys.readouterr().err

    def test_comment_line_names_the_line_and_the_header_width(self, tmp_path, capsys):
        csv = tmp_path / "s.csv"
        csv.write_text("x0,x1\n1,0\n# a note\n0,1\n")
        cfg = {"input": str(csv), "p": 2, "T": 1, "estimator": "scm"}
        assert run_cli("estimate", cfg, tmp_path / "out", tmp_path) == 2
        err = capsys.readouterr().err
        assert f"{csv}: line 3 has 1 field where the header has 2" in err
        assert "usecols" not in err and "number of columns changed" not in err

    def test_non_finite_sample_is_config_error(self, tmp_path, capsys):
        csv = tmp_path / "s.csv"
        csv.write_text("x0,x1\n1,0\nnan,2\n0,1\n")
        cfg = {"input": str(csv), "p": 2, "T": 1, "estimator": "kronpca"}
        assert run_cli("estimate", cfg, tmp_path / "out", tmp_path) == 2
        assert "samples must be finite" in capsys.readouterr().err

    def test_too_few_samples_is_config_error(self, tmp_path, capsys):
        csv = tmp_path / "s.csv"
        csv.write_text("x0,x1\n1,0\n")
        cfg = {"input": str(csv), "p": 2, "T": 1, "estimator": "scm-lw"}
        assert run_cli("estimate", cfg, tmp_path / "out", tmp_path) == 2
        err = capsys.readouterr().err
        assert "input" in err and "needs n >= 2" in err

    def test_explicit_rho_used_by_scm_lw(self, tmp_path):
        csv = tmp_path / "s.csv"
        write_sample_csv(csv, sample_gaussian(ar1_kron_truth(2, 2, 0.5, 0.95), 12, 1))
        cfg = {"input": str(csv), "p": 2, "T": 2, "estimator": "scm-lw",
               "estimator_config": {"rho": 0.3}}
        assert run_cli("estimate", cfg, tmp_path / "out", tmp_path) == 0
        diag = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
        assert diag["rho"] == 0.3
        samples = read_sample_csv(csv, SpaceTimeDims(2, 2))
        assert np.array_equal(read_matrix_binary(tmp_path / "out" / "covariance.bin"),
                              shrink(scm(samples), 0.3).entries)

    @staticmethod
    def _zero_row_csv(tmp_path):
        x = np.random.default_rng(14).standard_normal((30, 6))
        x[7] = 0.0
        csv = tmp_path / "s.csv"
        np.savetxt(csv, x, delimiter=",", header=",".join(f"x{i}" for i in range(6)),
                   comments="")
        return csv

    def test_zero_sample_for_a_tyler_estimator_is_config_error(self, tmp_path, capsys):
        csv = self._zero_row_csv(tmp_path)
        for name in ("chen-tyler", "tyler-kronpca"):
            cfg = {"input": str(csv), "p": 3, "T": 2, "estimator": name,
                   "estimator_config": {"rho": 0.1}}
            assert run_cli("estimate", cfg, tmp_path / name, tmp_path) == 2
            assert "input: a zero sample (row 7)" in capsys.readouterr().err
            assert list((tmp_path / name).iterdir()) == []

    def test_zero_sample_is_accepted_by_scm_lw(self, tmp_path):
        cfg = {"input": str(self._zero_row_csv(tmp_path)), "p": 3, "T": 2,
               "estimator": "scm-lw"}
        assert run_cli("estimate", cfg, tmp_path / "out", tmp_path) == 0
        assert (tmp_path / "out" / "covariance.bin").exists()


class TestMseBenchCommand:
    def test_csv_and_manifest(self, tmp_path):
        cfg = {
            "p": 3, "T": 2, "seed": 5, "trials": 4, "n_grid": [20, 40],
            "estimators": [
                {"name": "scm"},
                {"name": "kronpca", "config": {"r": 1}},
            ],
        }
        assert run_cli("mse-bench", cfg, tmp_path / "out", tmp_path) == 0
        lines = (tmp_path / "out" / "mse.csv").read_text().strip().splitlines()
        assert lines[0] == "estimator,n,mean,stderr"
        assert len(lines) == 1 + 2 * 2
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["metric"]["scm"] == "mse"

    def test_csv_rows_keep_their_format(self, tmp_path, monkeypatch):
        import kroncov.cli

        def fixed_rows(cfg, threads):
            return [("scm", 20, 0.1, 0.0, None), ("scm", 1000, 2.5e-17, 1 / 3, None)], True
        monkeypatch.setattr(kroncov.cli, "run_mse_bench", fixed_rows)
        cfg = {"p": 3, "T": 2, "seed": 5, "trials": 4, "n_grid": [20, 1000],
               "estimators": [{"name": "scm"}]}
        assert run_cli("mse-bench", cfg, tmp_path / "out", tmp_path) == 0
        assert (tmp_path / "out" / "mse.csv").read_text() == (
            "estimator,n,mean,stderr\n"
            "scm,20,0.10000000000000001,0\n"
            "scm,1000,2.4999999999999999e-17,0.33333333333333331\n")

    def test_reruns_and_thread_counts_agree(self, tmp_path):
        cfg = {
            "p": 2, "T": 2, "seed": 9, "trials": 6, "n_grid": [15],
            "estimators": [{"name": "scm"}, {"name": "scm-lw"}],
        }
        run_cli("mse-bench", cfg, tmp_path / "a", tmp_path)
        run_cli("mse-bench", cfg, tmp_path / "b", tmp_path)
        run_cli("mse-bench", cfg, tmp_path / "c", tmp_path, extra=("--threads", "3"))
        assert_dirs_byte_identical(tmp_path / "a", tmp_path / "b")
        assert_dirs_byte_identical(tmp_path / "a", tmp_path / "c")

    def test_shape_metric_tagged(self, tmp_path):
        cfg = {
            "p": 2, "T": 2, "seed": 2, "trials": 2, "n_grid": [30], "dof": 3,
            "estimators": [{"name": "chen-tyler", "config": {"rho": 0.1}}],
        }
        run_cli("mse-bench", cfg, tmp_path / "out", tmp_path)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["metric"]["chen-tyler"] == "shape_mse"

    def test_empty_estimators_is_config_error(self, tmp_path):
        cfg = {"p": 2, "T": 2, "seed": 1, "trials": 1, "n_grid": [5], "estimators": []}
        assert run_cli("mse-bench", cfg, tmp_path / "out", tmp_path) == 2

    def test_n_grid_below_estimator_minimum_is_config_error(self, tmp_path, capsys):
        cfg = {"p": 2, "T": 2, "seed": 1, "trials": 1, "n_grid": [1],
               "estimators": [{"name": "dc-kronpca-lw", "config": {"r": 1}}]}
        assert run_cli("mse-bench", cfg, tmp_path / "out", tmp_path) == 2
        err = capsys.readouterr().err
        assert "n_grid" in err and "needs n >= 2" in err

    def test_scm_error_shrinks_with_sample_size(self, tmp_path):
        from kroncov.cli import run_mse_bench

        cfg = {"p": 10, "T": 5, "seed": 14, "trials": 20, "n_grid": [50, 200, 1000],
               "estimators": [{"name": "scm"}]}
        rows, _ = run_mse_bench(cfg)
        means = {n: mean for _, n, mean, _, _ in rows}
        assert means[50] > means[200] > means[1000]

    def test_factor_form_mse_equals_the_dense_shrink(self):
        from kroncov.cli import _ar1_sampler, run_mse_bench, trial_seed

        cfg = {"p": 5, "T": 4, "seed": 3, "trials": 3, "n_grid": [10, 40],
               "estimators": [{"name": "dc-kronpca-lw", "config": {"r": 1}}]}
        rows, _ = run_mse_bench(cfg)
        truth, sample = _ar1_sampler(cfg)
        for _, n, _, _, values in rows:
            for t, value in enumerate(values):
                samples = sample(n, trial_seed(cfg["seed"], n, t))
                _, info = est.fit_by_name("dc-kronpca-lw", samples, {"r": 1})
                dense = shrink(info["model"].covariance().to_dense(), info["rho"])
                ref = normalized_mse(dense.entries, truth.sigma.entries, False)
                assert value == pytest.approx(ref, rel=1e-12, abs=0)


    def test_every_estimator_error_equals_the_dense_mse(self):
        from kroncov.cli import _ar1_sampler, kron_truth_error, run_mse_bench, trial_seed

        names = sorted(est.ESTIMATORS)
        cfg = {"p": 4, "T": 3, "seed": 5, "trials": 2, "n_grid": [9], "dof": 5,
               "estimators": [{"name": name} for name in names]}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rows, _ = run_mse_bench(cfg)
            truth, sample = _ar1_sampler(cfg)
            error = kron_truth_error(truth)
            cells = {label: values for label, _, _, _, values in rows}
            for t in range(cfg["trials"]):
                samples = sample(9, trial_seed(cfg["seed"], 9, t))
                for name in names:
                    cov, _ = est.fit_by_name(name, samples)
                    dense = {shape: normalized_mse(cov.entries, truth.sigma.entries, shape)
                             for shape in (False, True)}
                    assert cells[name][t] == pytest.approx(
                        dense[est.ESTIMATORS[name].shape], rel=1e-10, abs=0)
                    for shape in (False, True):
                        assert error(cov, shape) == pytest.approx(dense[shape], rel=1e-10, abs=0)

    def test_factor_form_fits_are_scored_without_assembly(self, monkeypatch):
        from kroncov import kron_ops
        from kroncov.cli import run_mse_bench

        def refuse(*args, **kwargs):
            raise AssertionError("mse-bench assembled a pT x pT matrix")
        monkeypatch.setattr(kron_ops, "kron_assemble", refuse)
        cfg = {"p": 5, "T": 4, "seed": 2, "trials": 2, "n_grid": [10, 30],
               "estimators": [{"name": "kronpca"}, {"name": "dc-kronpca-lw"}]}
        rows, _ = run_mse_bench(cfg)
        assert all(np.isfinite(values).all() for _, _, _, _, values in rows)

    def test_one_sample_covariance_per_trial(self, monkeypatch):
        from kroncov.cli import run_mse_bench

        computed = record_sample_covariances(monkeypatch)
        cfg = {"p": 3, "T": 2, "seed": 4, "trials": 3, "n_grid": [6],
               "estimators": [{"name": name} for name in ("scm", "scm-lw", "kronpca",
                                                          "dc-kronpca-lw", "chen-tyler")]}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run_mse_bench(cfg)
        assert len(computed) == 3


def make_stream_csv(path, seed=3, n_train=120, n_test=800, p=4, magnitude=6.0):
    frames = ar1_frame_stream(p, n_train + n_test, 0.3, 0.9, seed=seed)
    shifted, labels = inject_anomalies(
        frames[n_train:], rate=0.08, magnitude=magnitude, seed=seed + 1,
        width_range=(1.0, 1.0),
    )
    values = np.vstack([frames[:n_train], shifted])
    labels = np.concatenate([np.zeros(n_train, dtype=int), labels])
    write_frame_csv(path, FrameSeries(values, labels))
    return n_train


class TestAnomalyCommand:
    def test_end_to_end_roc(self, tmp_path):
        csv = tmp_path / "stream.csv"
        n_train = make_stream_csv(csv)
        cfg = {
            "input": str(csv), "T": 5, "train_range": [0, n_train],
            "estimators": [
                {"name": "dc-kronpca-lw", "config": {"r": 1}},
                {"name": "chen-tyler", "config": {"rho": 0.1}},
            ],
        }
        assert run_cli("anomaly", cfg, tmp_path / "out", tmp_path) == 0
        for label in ("dc-kronpca-lw", "chen-tyler"):
            doc = json.loads((tmp_path / "out" / f"auc_{label}.json").read_text())
            assert doc["auc"] > 0.9
            assert doc["n_anomalous"] > 0 and doc["n_nominal"] > 0
            roc_lines = (tmp_path / "out" / f"roc_{label}.csv").read_text().splitlines()
            assert roc_lines[0] == "threshold,fpr,tpr"
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["n_train_windows"] == n_train - 5 + 1

    def test_single_frame_windows_supported(self, tmp_path):
        csv = tmp_path / "stream.csv"
        n_train = make_stream_csv(csv, seed=8)
        cfg = {
            "input": str(csv), "T": 1, "train_range": [0, n_train],
            "estimators": [{"name": "chen-tyler", "config": {"rho": 0.1}}],
        }
        assert run_cli("anomaly", cfg, tmp_path / "out", tmp_path) == 0
        doc = json.loads((tmp_path / "out" / "auc_chen-tyler.json").read_text())
        assert 0.5 < doc["auc"] <= 1.0

    def test_anomalous_training_range_warns_not_fails(self, tmp_path):
        csv = tmp_path / "stream.csv"
        make_stream_csv(csv, seed=12)
        cfg = {
            "input": str(csv), "T": 5, "train_range": [150, 400],
            "estimators": [{"name": "scm-lw"}, {"name": "dc-kronpca-lw", "config": {"r": 1}}],
        }
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run_cli("anomaly", cfg, tmp_path / "out", tmp_path) == 0
        # the windows before and after the range score as a contiguous copy of the kept rows does
        windows = anom.make_windows(anom.detrend(anom.read_frame_csv(csv), (150, 400)), 5)
        inside = (windows.starts >= 150) & (windows.starts + 5 <= 400)
        outside = (windows.starts + 5 <= 150) | (windows.starts >= 400)
        assert outside[0] and outside[-1]
        keep = outside & (windows.labels != anom.EXCLUDED)
        train = synth.SampleSet(SpaceTimeDims(4, 5), int(inside.sum()), windows.vectors[inside])
        for entry in cfg["estimators"]:
            cov, _ = est.fit_by_name(entry["name"], train, entry.get("config"))
            curve = anom.roc(anom.mahalanobis_scores(windows.vectors[keep], cov),
                             windows.labels[keep])
            _, rows = files.read_csv(tmp_path / "out" / f"roc_{entry['name']}.csv", "ROC rows")
            np.testing.assert_array_equal(rows[:, 1:], np.column_stack([curve.fpr, curve.tpr]))
            np.testing.assert_allclose(rows[:, 0], curve.thresholds, rtol=1e-13, atol=0)
            doc = json.loads((tmp_path / "out" / f"auc_{entry['name']}.json").read_text())
            assert doc["auc"] == curve.auc

    def test_training_rows_are_a_view_of_the_detrended_frames(self, tmp_path, monkeypatch):
        # the training set adopts its windows of the detrended frames: no copy of the rows is made
        seen = {"rows": []}

        def detrend(*args, _real=anom.detrend, **kwargs):
            series = _real(*args, **kwargs)
            seen["frames"] = series.values
            return series

        def fit_by_name(name, samples, *args, _real=est.fit_by_name):
            seen["rows"].append(samples.samples)
            return _real(name, samples, *args)
        monkeypatch.setattr(anom, "detrend", detrend)
        monkeypatch.setattr(est, "fit_by_name", fit_by_name)
        csv = tmp_path / "stream.csv"
        n_train = make_stream_csv(csv)
        cfg = {"input": str(csv), "T": 5, "train_range": [0, n_train],
               "estimators": [{"name": "scm-lw"}, {"name": "dc-kronpca-lw"}]}
        assert run_cli("anomaly", cfg, tmp_path / "out", tmp_path) == 0
        assert len(seen["rows"]) == 2
        assert all(np.shares_memory(rows, seen["frames"]) for rows in seen["rows"])

    def test_one_sample_covariance_per_training_set(self, tmp_path, monkeypatch):
        computed = record_sample_covariances(monkeypatch)
        csv = tmp_path / "stream.csv"
        n_train = make_stream_csv(csv)
        cfg = {"input": str(csv), "T": 5, "train_range": [0, n_train],
               "estimators": [{"name": "scm-lw"}, {"name": "dc-kronpca-lw"}]}
        assert run_cli("anomaly", cfg, tmp_path / "out", tmp_path) == 0
        assert len(computed) == 1

    def test_scm_lw_factors_no_pt_by_pt_matrix_below_pt_windows(self, tmp_path, monkeypatch):
        factored = []
        for name in ("cholesky", "eigh", "eigvalsh"):
            def recorded(a, *args, _original=getattr(np.linalg, name), **kwargs):
                factored.append(np.shape(a))
                return _original(a, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, recorded)
        csv = tmp_path / "stream.csv"
        n_train = make_stream_csv(csv, n_train=30, n_test=600, p=8)
        cfg = {"input": str(csv), "T": 4, "train_range": [0, n_train],
               "estimators": [{"name": "scm-lw"}]}
        assert run_cli("anomaly", cfg, tmp_path / "out", tmp_path) == 0
        n_windows = n_train - 4 + 1  # 27 training windows, pT = 32
        assert (n_windows, n_windows) in factored  # the Gram is factored
        assert all(shape[-2:] != (32, 32) for shape in factored), factored

    def test_mid_stream_dense_fit_runs_one_eigvalsh(self, tmp_path, monkeypatch):
        # both test slices are scored, and the fit keeps its eigenvalues and its Cholesky for the second
        p, T = 4, 3
        solved, factored = [], []
        for name, calls in (("eigvalsh", solved), ("cholesky", factored)):
            def counted(a, *args, _real=getattr(np.linalg, name), _calls=calls, **kwargs):
                _calls.append(np.shape(a))
                return _real(a, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        csv = tmp_path / "stream.csv"
        make_stream_csv(csv, seed=12, p=p)
        cfg = {"input": str(csv), "T": T, "train_range": [150, 400],
               "estimators": [{"name": "scm"}]}  # 248 training windows, pT = 12: dense
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the training range holds anomalous frames
            assert run_cli("anomaly", cfg, tmp_path / "out", tmp_path) == 0
        assert solved.count((p * T, p * T)) == 1
        assert factored.count((p * T, p * T)) == 1

    @pytest.mark.parametrize("header", ["c0,c1,label", "c0"])
    def test_header_only_stream_is_config_error(self, tmp_path, capsys, header):
        csv = tmp_path / "stream.csv"
        csv.write_text(header + "\n")
        cfg = {"input": str(csv), "T": 1, "train_range": [0, 1],
               "estimators": [{"name": "scm"}]}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("anomaly", cfg, tmp_path / "out", tmp_path) == 2
        assert f"{csv}: holds no frames" in capsys.readouterr().err

    def test_unlabeled_stream_is_config_error(self, tmp_path):
        csv = tmp_path / "plain.csv"
        rng = np.random.default_rng(0)
        write_frame_csv(csv, FrameSeries(rng.standard_normal((50, 3))))
        cfg = {"input": str(csv), "T": 5, "train_range": [0, 20],
               "estimators": [{"name": "scm"}]}
        assert run_cli("anomaly", cfg, tmp_path / "out", tmp_path) == 2

    def test_non_finite_frame_is_config_error(self, tmp_path, capsys):
        csv = tmp_path / "stream.csv"
        make_stream_csv(csv, seed=4, n_train=30, n_test=60)
        lines = csv.read_text().splitlines()
        lines[5] = "nan," + lines[5].split(",", 1)[1]
        csv.write_text("\n".join(lines) + "\n")
        cfg = {"input": str(csv), "T": 5, "train_range": [0, 30],
               "estimators": [{"name": "scm-lw"}]}
        assert run_cli("anomaly", cfg, tmp_path / "out", tmp_path) == 2
        assert "frame values must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["0.9", "7", "nan"])
    def test_label_other_than_zero_or_one_is_config_error(self, tmp_path, capsys, bad):
        csv = tmp_path / "stream.csv"
        make_stream_csv(csv, seed=4, n_train=30, n_test=60)
        lines = csv.read_text().splitlines()
        lines[40] = lines[40].rsplit(",", 1)[0] + "," + bad
        csv.write_text("\n".join(lines) + "\n")
        cfg = {"input": str(csv), "T": 5, "train_range": [0, 30],
               "estimators": [{"name": "scm-lw"}]}
        assert run_cli("anomaly", cfg, tmp_path / "out", tmp_path) == 2
        assert "labels must be exactly 0 or 1" in capsys.readouterr().err

    @pytest.mark.parametrize("label", ["sub/x", "../x", "a,b\nc", ".hidden", "", "x y"])
    def test_label_that_is_no_file_name_stem_is_config_error(self, tmp_path, capsys,
                                                             monkeypatch, label):
        def unreachable(*args, **kwargs):
            raise AssertionError("input read or estimator fitted before the labels were checked")
        monkeypatch.setattr(anom, "read_frame_csv", unreachable)
        monkeypatch.setattr(est, "fit_by_name", unreachable)
        cfg = {"input": str(tmp_path / "stream.csv"), "T": 2, "train_range": [0, 30],
               "estimators": [{"name": "scm"}, {"name": "scm", "label": label}]}
        assert run_cli("anomaly", cfg, tmp_path / "out", tmp_path) == 2
        assert "estimators[1]: config key 'label'" in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []
        assert [p.name for p in tmp_path.iterdir() if p.suffix != ".json"] == ["out"]

    @pytest.mark.parametrize("later_label, train_range", [
        (0, [0, 100]), (1, [0, 100]), (0, [0, 300])])
    def test_one_class_test_windows_are_config_error(self, tmp_path, capsys, monkeypatch,
                                                     later_label, train_range):
        def unreachable(*args, **kwargs):
            raise AssertionError("estimator fitted before the test windows were checked")
        monkeypatch.setattr(est, "fit_by_name", unreachable)
        rng = np.random.default_rng(0)
        labels = np.r_[np.zeros(100, dtype=int), np.full(200, later_label)]
        csv = tmp_path / "stream.csv"
        write_frame_csv(csv, FrameSeries(rng.standard_normal((300, 3)), labels))
        cfg = {"input": str(csv), "T": 5, "train_range": train_range,
               "estimators": [{"name": "scm-lw"}, {"name": "dc-kronpca-lw"}]}
        assert run_cli("anomaly", cfg, tmp_path / "out", tmp_path) == 2
        err = capsys.readouterr().err
        assert "train_range" in err and "label column" in err
        assert list((tmp_path / "out").iterdir()) == []

    def test_dc_kronpca_lw_runs_without_a_dense_eigendecomposition(self, tmp_path,
                                                                   monkeypatch):
        p, T = 4, 3
        for name in ("eigh", "eigvalsh"):
            real = getattr(np.linalg, name)

            def refuse_dense(a, *args, _real=real, _name=name, **kwargs):
                assert np.shape(a)[-1] != p * T, f"dense pT x pT {_name}"
                return _real(a, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, refuse_dense)
        csv = tmp_path / "stream.csv"
        n_train = make_stream_csv(csv, seed=5, p=p)
        cfg = {"input": str(csv), "T": T, "train_range": [0, n_train],
               "estimators": [{"name": "dc-kronpca-lw", "config": {"r": 1}}]}
        assert run_cli("anomaly", cfg, tmp_path / "out", tmp_path) == 0
        assert json.loads((tmp_path / "out" / "auc_dc-kronpca-lw.json").read_text())["auc"] > 0.9

    def test_tyler_kronpca_is_scored_without_a_dense_eigendecomposition(self, tmp_path,
                                                                        monkeypatch):
        p, T = 4, 3
        for name in ("eigh", "eigvalsh"):
            real = getattr(np.linalg, name)

            def refuse_dense(a, *args, _real=real, _name=name, **kwargs):
                assert np.shape(a)[-1] != p * T, f"dense pT x pT {_name}"
                return _real(a, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, refuse_dense)
        csv = tmp_path / "stream.csv"
        n_train = make_stream_csv(csv, seed=5, p=p)
        cfg = {"input": str(csv), "T": T, "train_range": [0, n_train],
               "estimators": [{"name": "tyler-kronpca", "config": {"rho": 0.1}}]}
        assert run_cli("anomaly", cfg, tmp_path / "out", tmp_path) == 0
        assert json.loads((tmp_path / "out" / "auc_tyler-kronpca.json").read_text())["auc"] > 0.9

    def test_zero_training_window_for_a_tyler_estimator_is_config_error(self, tmp_path,
                                                                         capsys):
        # integer training frames summing to zero per column: the training
        # mean is exactly 0, so frames 10 and 11 stay zero after detrending
        rng = np.random.default_rng(15)
        train = rng.integers(-3, 4, size=(40, 3)).astype(float)
        train[10:12] = 0.0
        train[-1] -= train.sum(axis=0)
        values = np.vstack([train, rng.standard_normal((60, 3))])
        labels = np.r_[np.zeros(70, dtype=int), np.ones(10, dtype=int), np.zeros(20, dtype=int)]
        csv = tmp_path / "stream.csv"
        write_frame_csv(csv, FrameSeries(values, labels))
        cfg = {"input": str(csv), "T": 2, "train_range": [0, 40],
               "estimators": [{"name": "scm-lw"}, {"name": "chen-tyler", "config": {"rho": 0.1}}]}
        assert run_cli("anomaly", cfg, tmp_path / "out", tmp_path) == 2
        assert "train_range (windows inside it): a zero sample (row 10)" in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []
        cfg["estimators"] = cfg["estimators"][:1]
        assert run_cli("anomaly", cfg, tmp_path / "out", tmp_path) == 0

    def test_singular_training_covariance_is_numerical_error(self, tmp_path):
        csv = tmp_path / "stream.csv"
        make_stream_csv(csv, seed=10, n_train=12, p=4)
        cfg = {"input": str(csv), "T": 10, "train_range": [0, 12],
               "estimators": [{"name": "scm"}]}  # 3 windows, dim 40: singular
        assert run_cli("anomaly", cfg, tmp_path / "out", tmp_path) == 3

    def test_scm_lw_on_two_training_windows_is_singular(self, tmp_path, capsys):
        # two samples center to +-x, so the plug-in rho is 0 and scm-lw is the rank-1 SCM
        samples = sample_gaussian(ar1_kron_truth(4, 3, 0.5, 0.9), 2, 7)
        _, info = est.fit_by_name("scm-lw", samples)
        assert 0.0 <= info["rho"] <= 1e-15
        csv = tmp_path / "stream.csv"
        make_stream_csv(csv, seed=10, n_train=11, p=4)
        cfg = {"input": str(csv), "T": 10, "train_range": [0, 11],
               "estimators": [{"name": "scm-lw"}]}  # 2 windows, dim 40
        assert run_cli("anomaly", cfg, tmp_path / "out", tmp_path) == 3
        assert "singular" in capsys.readouterr().err

    @pytest.mark.parametrize("stride", [1, 3])
    def test_a_non_finite_score_names_its_start_frame(self, tmp_path, capsys, stride):
        # the windows after train_range form the second test slice; the first one that holds
        # frame 180 starts at frame 179 with stride 1, 180 with stride 3, not at its slice index
        rng = np.random.default_rng(16)
        values = rng.standard_normal((200, 3))
        values[180, 1] = 1e200
        labels = np.zeros(200, dtype=int)
        labels[20:30] = labels[150:160] = 1
        csv = tmp_path / "stream.csv"
        write_frame_csv(csv, FrameSeries(values, labels))
        cfg = {"input": str(csv), "T": 2, "stride": stride, "train_range": [50, 120],
               "estimators": [{"name": "scm-lw"}]}
        assert run_cli("anomaly", cfg, tmp_path / "out", tmp_path) == 3
        first = {1: 179, 3: 180}[stride]
        assert f"the window at frame {first} has a non-finite score" in capsys.readouterr().err


class TestSpectrumCommand:
    def test_sample_input_counts(self, tmp_path):
        truth = ar1_kron_truth(4, 3, 0.5, 0.95)
        sset = sample_gaussian(truth, 5000, 17)
        csv = tmp_path / "s.csv"
        write_sample_csv(csv, sset)
        cfg = {"input": str(csv), "kind": "samples", "p": 4, "T": 3, "toeplitz": True}
        assert run_cli("spectrum", cfg, tmp_path / "out", tmp_path) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["kron_components_95"] <= summary["pca_components_95"]
        lines = (tmp_path / "out" / "spectrum.csv").read_text().strip().splitlines()
        assert lines[0] == "spectrum,index,value"

    def test_csv_rows_keep_their_format(self, tmp_path, monkeypatch):
        monkeypatch.setattr(est, "kron_spectrum",
                            lambda cov, toeplitz_rows: (np.array([2.5, 1 / 3]), np.array([1.0])))
        bin_path = tmp_path / "eye.bin"
        write_matrix_binary(bin_path, np.eye(6))
        cfg = {"input": str(bin_path), "kind": "covariance", "p": 2, "T": 3}
        assert run_cli("spectrum", cfg, tmp_path / "out", tmp_path) == 0
        assert (tmp_path / "out" / "spectrum.csv").read_text() == (
            "spectrum,index,value\n"
            "kron,0,2.5\n"
            "kron,1,0.33333333333333331\n"
            "pca,0,1\n")

    def test_covariance_input_kron_truth(self, tmp_path):
        truth = ar1_kron_truth(3, 3, 0.5, 0.95)
        bin_path = tmp_path / "cov.bin"
        write_matrix_binary(bin_path, truth.sigma.entries)
        cfg = {"input": str(bin_path), "kind": "covariance", "p": 3, "T": 3}
        assert run_cli("spectrum", cfg, tmp_path / "out", tmp_path) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["kron_components_95"] == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_covariance_input_is_config_error(self, tmp_path, capsys, bad):
        entries = np.eye(6)
        entries[1, 4] = bad
        bin_path = tmp_path / "bad.bin"
        write_matrix_binary(bin_path, entries)
        cfg = {"input": str(bin_path), "kind": "covariance", "p": 2, "T": 3}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("spectrum", cfg, tmp_path / "out", tmp_path) == 2
        assert "entries must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("cut, named", [
        (lambda raw: raw[:10], "truncated matrix header"),
        (lambda raw: raw[:-8], "expected 36 values, found 35")], ids=["header", "size"])
    def test_malformed_covariance_file_is_config_error(self, tmp_path, capsys, cut, named):
        bin_path = tmp_path / "cut.bin"
        write_matrix_binary(bin_path, np.eye(6))
        bin_path.write_bytes(cut(bin_path.read_bytes()))
        cfg = {"input": str(bin_path), "kind": "covariance", "p": 2, "T": 3}
        assert run_cli("spectrum", cfg, tmp_path / "out", tmp_path) == 2
        assert f"input (covariance file): {bin_path}: {named}" in capsys.readouterr().err

    def test_identity_covariance_needs_one_component(self, tmp_path):
        bin_path = tmp_path / "eye.bin"
        write_matrix_binary(bin_path, np.eye(6))
        cfg = {"input": str(bin_path), "kind": "covariance", "p": 2, "T": 3}
        assert run_cli("spectrum", cfg, tmp_path / "out", tmp_path) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["kron_components_95"] == 1

    def test_bad_kind_is_config_error(self, tmp_path):
        cfg = {"input": "nowhere", "kind": "what", "p": 2, "T": 2}
        assert run_cli("spectrum", cfg, tmp_path / "out", tmp_path) == 2


class TestBinaryFormat:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(23)
        m = rng.standard_normal((5, 7))
        path = tmp_path / "m.bin"
        write_matrix_binary(path, m)
        np.testing.assert_array_equal(read_matrix_binary(path), m)

    def test_header_is_little_endian_uint64(self, tmp_path):
        path = tmp_path / "m.bin"
        write_matrix_binary(path, np.eye(2))
        raw = path.read_bytes()
        assert raw[:16] == (2).to_bytes(8, "little") * 2
        assert len(raw) == 16 + 4 * 8


class TestBadConfigs:
    def test_unreadable_config(self, tmp_path, capsys):
        assert main(["synth", "--config", str(tmp_path / "nope.json")]) == 2

    def test_non_object_config(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("[1, 2]")
        assert main(["synth", "--config", str(path)]) == 2

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_is_config_error(self, tmp_path, capsys, threads):
        cfg = {"p": 2, "T": 2, "n": 3, "seed": 7}
        assert run_cli("synth", cfg, tmp_path / "out", tmp_path,
                       extra=("--threads", threads)) == 2
        assert "--threads" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_threads_below_one_is_config_error_for_every_command(self, tmp_path, capsys,
                                                                 command):
        assert run_cli(command, {}, tmp_path / "out", tmp_path, extra=("--threads", "0")) == 2
        assert "--threads" in capsys.readouterr().err

    def test_only_mse_bench_takes_threads(self):
        for name, command in COMMANDS.items():
            assert ("threads" in inspect.signature(command).parameters) == (name == "mse-bench")


# ---------------------------------------------------------------------------
# config schema: every documented field of every subcommand, read by kind

MISSING = object()  # a field value meaning "leave the key out"


@pytest.fixture(scope="module")
def schema_inputs(tmp_path_factory):
    """A minimal valid config (p, T <= 3) per subcommand, on small input files."""
    root = tmp_path_factory.mktemp("schema")
    csv = root / "samples.csv"
    csv.write_text("x0,x1\n1,0\n-1,2\n0,1\n2,1\n")
    stream = root / "stream.csv"
    make_stream_csv(stream, seed=4, n_train=30, n_test=60, p=2)
    return root, {
        "synth": {"p": 2, "T": 2, "n": 3, "seed": 1},
        "estimate": {"input": str(csv), "p": 2, "T": 1, "estimator": "scm"},
        "mse-bench": {"p": 2, "T": 2, "seed": 1, "trials": 1, "n_grid": [3],
                      "estimators": [{"name": "scm"}]},
        "anomaly": {"input": str(stream), "T": 2, "train_range": [0, 30],
                    "estimators": [{"name": "scm"}]},
        "spectrum": {"input": str(csv), "p": 2, "T": 1},
    }


def run_config(root, command, cfg):
    path = root / "config.json"
    path.write_text(json.dumps(cfg))
    return main([command, "--config", str(path), "--out", str(root / "out")])


def with_field(cfg, path, value):
    """A copy of cfg with the field at path (keys and list indices) set to
    value, or removed when value is MISSING."""
    cfg = copy.deepcopy(cfg)
    inner = cfg
    for step in path[:-1]:
        inner = inner[step] if isinstance(inner, list) else inner.setdefault(step, {})
    if value is MISSING:
        inner.pop(path[-1], None)
    else:
        inner[path[-1]] = value
    return cfg


# (path, kind, default) of every documented field, with the default as in
# the README: ... for a required field; only a None default accepts null
ESTIMATOR_ENTRY = [(("estimators", 0, "name"), str, ...),
                   (("estimators", 0, "label"), str, "the name"),
                   (("estimators", 0, "config"), dict, {})]
ESTIMATOR_CONFIG = [(("estimator_config", key), kind, default) for key, kind, default in (
    ("r", int, 1), ("max_iter", int, 500), ("beta", float, 0.0), ("tol", float, 1e-6),
    ("rho", "rho", "auto"), ("toeplitz", bool, False), ("diag_correct", bool, False))]
SCHEMA = {
    "synth": [(("p",), int, ...), (("T",), int, ...), (("n",), int, ...),
              (("seed",), int, ...), (("tcoeff",), float, 0.5), (("scoeff",), float, 0.95),
              (("dof",), float, None)],
    "estimate": [(("input",), str, ...), (("p",), int, ...), (("T",), int, ...),
                 (("estimator",), str, ...), (("estimator_config",), dict, {}),
                 (("seed",), int, None), *ESTIMATOR_CONFIG],
    "mse-bench": [(("p",), int, ...), (("T",), int, ...), (("seed",), int, ...),
                  (("trials",), int, ...), (("n_grid",), [int], ...),
                  (("estimators",), [dict], ...), (("tcoeff",), float, 0.5),
                  (("scoeff",), float, 0.95), (("dof",), float, None), *ESTIMATOR_ENTRY],
    "anomaly": [(("input",), str, ...), (("T",), int, ...), (("stride",), int, 1),
                (("train_range",), [int], ...), (("detrend_linear",), bool, False),
                (("estimators",), [dict], ...), (("seed",), int, None), *ESTIMATOR_ENTRY],
    "spectrum": [(("input",), str, ...), (("kind",), str, "samples"), (("p",), int, ...),
                 (("T",), int, ...), (("toeplitz",), bool, True), (("seed",), int, None)],
}
FIELDS = [(command, *field) for command, fields in SCHEMA.items() for field in fields]

texts = st.text(max_size=4)
lists = st.lists(st.integers(0, 3), max_size=2)
objects = st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2)
non_numbers = st.one_of(texts, st.booleans(), lists, objects)
WRONG = {
    int: st.one_of(non_numbers, st.integers(max_value=-1),
                   st.floats().filter(lambda x: not float(x).is_integer())),
    float: st.one_of(non_numbers, st.sampled_from([math.inf, -math.inf, math.nan])),
    "rho": st.one_of(texts.filter(lambda t: t != "auto"), st.booleans(), lists, objects),
    bool: st.one_of(texts, st.integers(), st.floats(), lists, objects),
    str: st.one_of(st.integers(), st.floats(), st.booleans(), lists, objects),
    dict: st.one_of(texts, st.integers(), st.booleans(), lists),
    list: st.one_of(texts, st.integers(), st.booleans(), objects, st.just([])),
}


def wrong_value(kind, default):
    if isinstance(kind, list):
        wrong = st.one_of(WRONG[list], st.builds(lambda v: [v], WRONG[kind[0]]))
    else:
        wrong = WRONG[kind]
    if default is ...:
        return st.one_of(wrong, st.sampled_from([None, MISSING]))
    return wrong if default is None else st.one_of(wrong, st.none())


@st.composite
def wrongly_typed_configs(draw, base):
    command, path, kind, default = draw(st.sampled_from(FIELDS))
    value = draw(wrong_value(kind, default))
    return command, path, with_field(base[command], path, value)


# probes that exited 3, or 0 after a silent coercion or a silently ignored key
PROBES = [
    ("mse-bench", {"trials": "x"}, "'trials'"),
    ("mse-bench", {"n_grid": ["a"]}, "'n_grid[0]'"),
    ("mse-bench", {"n_grid": [10, 10]}, "'n_grid' must not repeat"),
    ("synth", {"tcoeff": "x"}, "'tcoeff'"),
    ("anomaly", {"T": "x"}, "'T'"),
    ("anomaly", {"train_range": ["a", 20]}, "'train_range[0]'"),
    ("mse-bench", {"estimators": [1]}, "'estimators[0]'"),
    ("anomaly", {"estimators": [1]}, "'estimators[0]'"),
    ("mse-bench", {"tcoeff": 1.5}, "tcoeff must satisfy"),
    ("mse-bench", {"seed": -1}, "'seed'"),
    ("synth", {"tcoeff": 1.5}, "tcoeff must satisfy"),
    ("synth", {"seed": -1}, "'seed'"),
    ("synth", {"n": 2.7}, "'n'"),
    ("synth", {"p": 2.5}, "'p'"),
    ("anomaly", {"train_range": [0.5, 20.7]}, "'train_range[0]'"),
    ("spectrum", {"toeplitz": "no"}, "'toeplitz'"),
    ("anomaly", {"detrend_linear": "no"}, "'detrend_linear'"),
    ("mse-bench", {"dof": -3}, "'dof'"),
    ("estimate", {"estimator": "kronpca", "estimator_config": {"diag_correct": True}},
     "diag_correct=True contradicts"),
    ("estimate", {"estimator": "dc-kronpca-lw", "estimator_config": {"diag_correct": False}},
     "diag_correct=False contradicts"),
    ("mse-bench", {"estimators": [{"name": "kronpca", "config": {"diag_correct": True}}]},
     "diag_correct=True contradicts"),
    ("estimate", {"input": "."}, "input"),
    ("anomaly", {"estimators": [{"name": "scm", "label": "sub/x"}]},
     "estimators[0]: config key 'label'"),
    ("mse-bench", {"estimators": [{"name": "scm", "label": "a,b\nc"}]},
     "estimators[0]: config key 'label'"),
    ("anomaly", {"stide": 5}, "'stide'"),
    ("mse-bench", {"estimators": [{"name": "kronpca", "confg": {"r": 2}}]},
     "estimators[0]: unknown config key 'confg'"),
    ("synth", {"dfo": 3}, "'dfo'"),
    ("estimate", {"estimator": "chen-tyler", "estimator_config": {"rho": 0}},
     "rho must be a number in (0, 1]"),
    ("mse-bench", {"estimators": [{"name": "tyler-kronpca", "config": {"rho": 0}}]},
     "estimators[0]: rho must be a number in (0, 1]"),
    ("mse-bench", {"n_grid": [1], "estimators": [{"name": "chen-tyler"}]},
     "needs n >= 2 samples, got n=1"),
    ("estimate", {"estimator": "tyler-kronpca", "estimator_config": {"toeplitz": False, "r": 3}},
     "estimator 'tyler-kronpca' does not read config field 'r'"),
    ("estimate", {"estimator": "scm", "estimator_config": {"rho": 0.1}},
     "estimator 'scm' does not read config field 'rho'"),
    ("estimate", {"estimator": "kronpca", "estimator_config": {"toeplits": True}},
     "estimator 'kronpca' does not read config field 'toeplits' "
     "(it reads: r, beta, toeplitz, diag_correct)"),
    ("mse-bench", {"estimators": [{"name": "scm-lw", "config": {"r": 2}}]},
     "estimators[0]: estimator 'scm-lw' does not read config field 'r'"),
    ("mse-bench", {"estimators": [{"name": "kronpca", "config": {"rho": 0.1}}]},
     "estimators[0]: estimator 'kronpca' does not read config field 'rho'"),
    ("mse-bench", {"estimators": [{"name": "scm"}, {"name": "scm"}]},
     "estimator labels must be unique (set 'label'"),
    ("anomaly", {"estimators": [{"name": "scm", "label": "a"}, {"name": "scm-lw", "label": "a"}]},
     "estimator labels must be unique (set 'label'"),
    ("mse-bench", {"trials": 0}, "config key 'trials' must be at least 1"),
    ("anomaly", {"train_range": [0]}, "train_range must be [start, stop]"),
    ("anomaly", {"train_range": [0, 10, 30]}, "train_range must be [start, stop]"),
]


class TestConfigSchema:
    @pytest.mark.parametrize("command", sorted(SCHEMA))
    def test_minimal_config_runs(self, schema_inputs, command):
        root, base = schema_inputs
        assert run_config(root, command, base[command]) == 0

    @settings(max_examples=250, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_wrong_kind_exits_2_naming_the_field(self, schema_inputs, capsys, data):
        root, base = schema_inputs
        command, path, cfg = data.draw(wrongly_typed_configs(base))
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = run_config(root, command, cfg)
        err = capsys.readouterr().err
        assert code == 2, (command, cfg, err)
        assert re.search(rf"\b{re.escape(path[-1])}\b", err), (command, cfg, err)

    @pytest.mark.parametrize("command, override, named", PROBES, ids=[
        c + "-" + json.dumps(o, separators=(",", "=")).replace('"', "") for c, o, _ in PROBES])
    def test_bad_value_exits_2_naming_the_field(self, schema_inputs, capsys,
                                                 command, override, named):
        root, base = schema_inputs
        assert run_config(root, command, {**base[command], **override}) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(SCHEMA))
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_undocumented_key_exits_2_naming_it(self, schema_inputs, capsys, command, data):
        root, base = schema_inputs
        documented = {path[0] for path, _, _ in SCHEMA[command]}
        key = data.draw(st.text(min_size=1, max_size=8).filter(lambda k: k not in documented))
        value = data.draw(st.one_of(st.none(), st.integers(), texts, lists, objects))
        capsys.readouterr()
        assert run_config(root, command, {**base[command], key: value}) == 2
        assert f"unknown config key {key!r}" in capsys.readouterr().err

    def test_integral_numbers_read_as_integers(self, schema_inputs, tmp_path):
        root, base = schema_inputs
        cfg = {**base["synth"], "p": 2.0, "n": 3.0}
        for out, config in ((tmp_path / "a", base["synth"]), (tmp_path / "b", cfg)):
            assert run_cli("synth", config, out, tmp_path) == 0
        a, b = (np.loadtxt(tmp_path / d / "samples.csv", delimiter=",", skiprows=1)
                for d in "ab")
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("seed_case", ["config seed", "--seed", "integral float seed"])
    @pytest.mark.parametrize("command, document", [
        ("synth", "samples.json"), ("mse-bench", "manifest.json"),
        ("anomaly", "manifest.json"), ("spectrum", "summary.json")])
    def test_documents_record_the_resolved_config_its_hash_and_seed(self, schema_inputs, tmp_path,
                                                                    command, document, seed_case):
        """The document of each command echoes the resolved config (the --seed override
        included), its hash, and the seed the run used as an integer, also when the
        config gives it as an integral float."""
        _, base = schema_inputs
        cfg = {**base[command], "seed": 7.0 if seed_case == "integral float seed" else 3}
        extra = ("--seed", "11") if seed_case == "--seed" else ()
        assert run_cli(command, cfg, tmp_path / "out", tmp_path, extra) == 0
        doc = json.loads((tmp_path / "out" / document).read_text())
        resolved = {**cfg, "seed": 11} if extra else cfg
        assert doc["config"] == resolved
        assert config_hash(doc["config"]) == doc["config_hash"] == config_hash(resolved)
        seed = {"config seed": 3, "--seed": 11, "integral float seed": 7}[seed_case]
        assert type(doc["seed"]) is int and doc["seed"] == seed

    def test_diagnostics_record_the_seed_run_as_an_integer(self, schema_inputs, tmp_path):
        """estimate's diagnostics hold the estimator config, and the config hash and the
        seed as the other documents do."""
        _, base = schema_inputs
        cfg = {**base["estimate"], "seed": 7.0}
        assert run_cli("estimate", cfg, tmp_path / "out", tmp_path) == 0
        doc = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
        assert doc["config_hash"] == config_hash(cfg)
        assert type(doc["seed"]) is int and doc["seed"] == 7
