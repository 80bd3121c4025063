"""Print the resident memory at each stage boundary of one `anomaly` call.  Linux only: it reads
VmRSS and VmHWM (the high-water mark) from /proc/self/status.

    python3 tools/anomaly_peak.py [<call seed>]

Run it from the root of a source checkout.  It writes perfbench's anomaly-stream input for the
call seed (default 0) to a temporary directory, then makes the call the benchmark makes
(`kroncov.cli.main`, on one BLAS thread) with the stages wrapped at run time, so nothing in
src/ is patched.  A line is printed once the input is written, then at the end of each stage:
the frame read, the detrend, the windowing, each fit, each covariance's `extremes` (the
scoring check) and `inverse_quad_forms` (the scores), each ROC and each ROC write.  A stage
inside another (a rows form solving by its dense form) is indented under it.  The stage at
which VmHWM last rises is where the call's peak is reached.
"""
import os
import sys
import tempfile
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from kroncov import anomaly, cli, estimators  # noqa: E402
from kroncov.kron_ops import DenseCovariance, GramCovariance, KronCovariance  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

STAGES = [(anomaly, "read_frame_csv"), (anomaly, "detrend"), (anomaly, "make_windows"),
          (estimators, "fit_by_name"), (anomaly, "roc"), (anomaly, "write_roc_csv")]
FORM_STAGES = [(form, name) for form in (DenseCovariance, GramCovariance, KronCovariance)
               for name in ("extremes", "inverse_quad_forms")]


def memory_mb() -> tuple[float, float]:
    """(VmRSS, VmHWM) of this process in MB."""
    fields = {}
    with open("/proc/self/status") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            if key in ("VmRSS", "VmHWM"):
                fields[key] = int(value.split()[0]) / 1024.0  # the file gives kB
    return fields["VmRSS"], fields["VmHWM"]


def report(stage: str, depth: int = 0) -> None:
    rss, hwm = memory_mb()
    print(f"{'  ' * depth + stage:<44} VmRSS {rss:7.1f} MB   VmHWM {hwm:7.1f} MB", flush=True)


def wrap(owner, name: str, label: str, depth: list) -> None:
    real = getattr(owner, name)

    def staged(*args, **kwargs):
        depth[0] += 1
        try:
            return real(*args, **kwargs)
        finally:
            depth[0] -= 1
            report(f"{label}({args[0]})" if name == "fit_by_name" else label, depth[0])
    setattr(owner, name, staged)


def main(seed: int = 0) -> None:
    workload = WORKLOADS["anomaly-stream"]
    depth = [0]
    with tempfile.TemporaryDirectory() as work:
        config = workload.prepare(seed, Path(work))
        report(f"input written (call seed {seed})")
        for owner, name in STAGES:
            wrap(owner, name, name, depth)
        for form, name in FORM_STAGES:
            wrap(form, name, f"{form.__name__}.{name}", depth)
        code = cli.main([workload.command, "--config", str(config), "--out", str(Path(work) / "call"),
                         "--seed", str(seed), "--threads", "1"])
    report(f"call done (exit {code})")


if __name__ == "__main__":
    main(*(int(arg) for arg in sys.argv[1:2]))
