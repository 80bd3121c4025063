"""Record, or compare, the robust-heavy `tyler-kronpca` fits of the 40 benchmark call seeds.

    PYTHONPATH=<checkout>/src python3 tools/robust_heavy_seeds.py run <out.npz>
    python3 tools/robust_heavy_seeds.py compare <parent.npz> <change.npz>

`run` fits "tyler-kronpca" with rho "auto" to the sample that `mse-bench` draws for
perfbench's robust-heavy workload (p=20, T=5, n=200, Student-t dof 3, one trial) at each call
seed 0-39, on one BLAS thread, and records the chosen rho, the (outer, inner) step counts,
`converged`, the entries and the wall time of each fit.  `compare` prints the seeds whose rho,
counts or `converged` differ, the largest relative entry difference, and the median fit times.
"""
import os
import sys
import time

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import numpy as np  # noqa: E402

SEEDS = range(40)
CONFIG = {"p": 20, "T": 5, "dof": 3, "n": 200}


def run(out: str) -> None:
    from kroncov import cli, estimators

    _, sample = cli._ar1_sampler({**CONFIG, "seed": 0})
    record = {key: [] for key in ("rho", "counts", "converged", "entries", "seconds")}
    for seed in SEEDS:
        samples = sample(CONFIG["n"], cli.trial_seed(seed, CONFIG["n"], 0))
        tic = time.perf_counter()
        cov, info = estimators.fit_by_name("tyler-kronpca", samples, {"rho": "auto"})
        record["seconds"].append(time.perf_counter() - tic)
        record["rho"].append(info["rho"])
        record["counts"].append((info["iterations"], info["inner_iterations"]))
        record["converged"].append(info["converged"])
        record["entries"].append(cov.entries)
    np.savez(out, **{key: np.array(value) for key, value in record.items()})


def compare(parent: str, change: str) -> None:
    a, b = np.load(parent), np.load(change)
    for key in ("rho", "counts", "converged"):
        differ = [seed for seed in SEEDS if not np.array_equal(a[key][seed], b[key][seed])]
        print(f"{key}: {'same on every seed' if not differ else f'differs on seeds {differ}'}")
    rel = [np.linalg.norm(b["entries"][s] - a["entries"][s]) / np.linalg.norm(a["entries"][s])
           for s in SEEDS]
    print(f"entries: largest relative difference {max(rel):.2e}")
    print(f"median fit: {np.median(a['seconds']):.4f} s -> {np.median(b['seconds']):.4f} s")


if __name__ == "__main__":
    {"run": run, "compare": compare}[sys.argv[1]](*sys.argv[2:])
