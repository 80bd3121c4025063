"""kroncov benchmark: one workload per process, driven through the public
CLI entry point ``kroncov.cli.main`` in-process, as a closed loop with one
client.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source checkout; it imports kroncov from
``src/`` and writes only under ``perfbench/out/``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  The line before it
records the environment and the calls made.  See ``perfbench/README.md``.
"""
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
HARD_STOP_S = 150.0     # past the scored calls, start no call after this much process time
NOT_APPLICABLE = 1.0    # a quality metric on a workload it does not apply to
NO_ANSWER_AUC = 0.5     # auc_mean when no scored call gave a readable answer: chance level
NO_ANSWER_MSE = 1e6     # mse_mean then: far above any normalized MSE the estimators give


# unit of every end-to-end metric an untraced run reports
END_TO_END = {
    "setup_s": "s", "trials_per_s": "1/s", "windows_per_s": "1/s", "call_p50_s": "s",
    "op_fail_ratio": "ratio", "peak_rss_mb": "MB", "mse_mean": "ratio", "auc_mean": "ratio",
}


def pin_blas() -> None:
    """One BLAS thread; must run before numpy loads.  With the default pool
    of nproc threads the d=100 Tyler work of robust-heavy runs about 9x
    slower and too noisily to resolve a 10% change (see README.md)."""
    if "numpy" in sys.modules:
        raise RuntimeError("pin_blas() must run before numpy is imported")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def load_program():
    """Import kroncov.cli from this checkout's src/, or exit with 1."""
    src = ROOT / "src"
    if not (src / "kroncov" / "cli.py").is_file():
        sys.exit(f"error: {src / 'kroncov'} not found; run from a kroncov source checkout")
    sys.path.insert(0, str(src))
    import kroncov.cli
    if Path(kroncov.cli.__file__).resolve().parent != (src / "kroncov").resolve():
        sys.exit(f"error: imported kroncov from {kroncov.cli.__file__}, not from {src}")
    return kroncov.cli


def blas_pools() -> list[dict]:
    """Thread-pool size of every OpenBLAS library loaded in this process."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    pools = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                pools.append({"library": Path(lib).name, "threads": getattr(handle, sym)()})
                break
    return pools


def environment(seed: int) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_pools": blas_pools(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
    }


@dataclass
class Outcome:
    call_seed: int
    seconds: float
    output: object = None   # workloads.CallOutput when the outputs could be read
    error: str = ""

    @property
    def ok(self) -> bool:
        return not self.error


class Harness:
    """Prepares, runs and checks single calls of one workload."""

    def __init__(self, cli, workload, references: dict):
        self.cli = cli
        self.workload = workload
        self.references = references
        self.work = OUT / f"work-{workload.name}"
        self.out = self.work / "call"

    def run(self, call_seed: int, recorder=None) -> tuple[int, float]:
        """Write the call's inputs, then time one ``cli.main`` call on them.
        Returns its exit code and seconds."""
        import layers

        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        config = self.workload.prepare(call_seed, self.work)
        argv = [self.workload.command, "--config", str(config), "--out", str(self.out),
                "--seed", str(call_seed), "--threads", "1"]
        patch = layers.install(recorder) if recorder is not None else None
        try:
            start = time.perf_counter()
            root = recorder.begin(layers.ROOT) if recorder is not None else None
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            if root is not None:
                recorder.end(root)
            seconds = time.perf_counter() - start
        finally:
            if patch is not None:
                patch.restore()
        return code, seconds

    def call(self, call_seed: int, recorder=None) -> Outcome:
        """Run one call and check its outputs against the reference."""
        from workloads import CheckError

        code, seconds = self.run(call_seed, recorder)
        outcome = Outcome(call_seed, seconds)
        try:
            if code != 0:
                raise CheckError(f"exit code {code}")
            outcome.output = self.workload.read(self.out, call_seed)
            self.workload.check_reference(outcome.output.values,
                                          self.references[str(call_seed)])
        except CheckError as exc:
            outcome.error = f"call seed {call_seed}: {exc}"
        return outcome

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def warm_up(harness: Harness, order) -> Outcome:
    """The first call of the process, on the last seed of the run's
    permutation, timed with its input generation and output check."""
    from workloads import POOL
    start = time.perf_counter()
    outcome = harness.call(int(order[POOL - 1]))
    outcome.seconds = time.perf_counter() - start
    return outcome


def call_seed(order, i: int, scored: int) -> int:
    """Call seed of the i-th timed call.  The first ``scored`` calls use
    pool seeds 0, 1, ... in every run, so the quality metrics and the
    failure ratio taken over them do not vary with the run's seed; later
    calls follow the run's permutation of the pool."""
    from workloads import POOL
    return i if i < scored else int(order[i % POOL])


def keep_going(loop_start: float, seconds: float, done: int, minimum: int) -> bool:
    """True until ``minimum`` calls are done and then ``seconds`` have
    passed; the hard stop never cuts the ``minimum`` calls short."""
    if done < minimum:
        return True
    now = time.perf_counter()
    return now - loop_start < seconds and now - T0 < HARD_STOP_S


def untraced(harness: Harness, order, seconds: float, import_s: float):
    from workloads import MseBench
    workload = harness.workload
    first = warm_up(harness, order)
    calls = []
    loop_start = time.perf_counter()
    while keep_going(loop_start, seconds, len(calls), workload.min_calls):
        calls.append(harness.call(call_seed(order, len(calls), workload.min_calls)))

    scored = calls[:workload.min_calls]
    # answers of the scored calls that could be read, checked or not, so a
    # changed answer moves the quality metric
    quality = [v for c in scored if c.output is not None for v in c.output.values.values()]
    busy = sum(c.seconds for c in calls)
    if isinstance(workload, MseBench):
        mse = statistics.fmean(quality) if quality else NO_ANSWER_MSE
        auc = NOT_APPLICABLE
    else:
        mse = NOT_APPLICABLE
        auc = statistics.fmean(quality) if quality else NO_ANSWER_AUC
    values = {
        "setup_s": import_s + first.seconds,
        "trials_per_s": sum(c.output.trials for c in calls if c.ok) / busy,
        "windows_per_s": sum(c.output.windows for c in calls if c.ok) / busy,
        "call_p50_s": statistics.median(c.seconds for c in calls),
        "op_fail_ratio": (sum(not c.ok for c in scored) + 1) / (len(scored) + 1),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "mse_mean": mse,
        "auc_mean": auc,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    details = {"import_s": import_s, "warm_up_s": first.seconds,
               "call_s": [c.seconds for c in calls], "calls": len(calls),
               "scored_calls": len(scored)}
    return [first] + calls, metrics, details, None


def traced(harness: Harness, order, seconds: float):
    """Calls run in pairs, traced and untraced on the same call seed, in
    alternating order.  Pool seed 0 is traced twice; its counts must repeat
    exactly, and they are the ones reported, so they do not depend on the
    run's seed."""
    import layers
    from spans import Recorder
    from workloads import POOL
    warm = warm_up(harness, order)
    loop_start = time.perf_counter()
    recorder = Recorder()
    first = 0
    recorder.call_id = 0
    calls = [harness.call(first, recorder)]
    recorder.call_id = 1
    calls.append(harness.call(first, recorder))
    per_call = [
        (dict(recorder.counts.get(i, {})),
         sorted(s.name for s in recorder.spans if s.call_id == i))
        for i in (0, 1)
    ]
    repeat_error = None if per_call[0] == per_call[1] else \
        f"counts of call seed {first} differ between two traced calls"
    plain = [harness.call(first)]
    pairs = [((calls[0].seconds + calls[1].seconds) / 2, plain[0].seconds)]
    i = 1
    while keep_going(loop_start, seconds, i, 1):
        seed = int(order[i % POOL])
        recorder.call_id = i + 1
        if i % 2:
            calls.append(harness.call(seed, recorder))
            plain.append(harness.call(seed))
        else:
            plain.append(harness.call(seed))
            calls.append(harness.call(seed, recorder))
        pairs.append((calls[-1].seconds, plain[-1].seconds))
        i += 1

    overhead = sum(t for t, _ in pairs) / sum(u for _, u in pairs) - 1.0
    values = layers.layer_metrics(recorder, 0, overhead)
    units = layers.metric_units()
    metrics = {name: (values[name], units[name]) for name in units}
    details = {"traced_s": [t for t, _ in pairs], "untraced_s": [u for _, u in pairs],
               "spans": recorder.to_json()}
    return [warm] + calls + plain, metrics, details, repeat_error


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_blas()
    cli = load_program()
    import_s = time.perf_counter() - T0
    sys.path.insert(0, str(HERE))
    import numpy as np
    from workloads import POOL, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]
    with open(HERE / "references.json") as fh:
        references = json.load(fh)["workloads"][workload.name]
    if sorted(references, key=int) != [str(i) for i in range(POOL)]:
        sys.exit(f"error: references.json does not cover call seeds 0..{POOL - 1}")

    order = np.random.default_rng(args.seed).permutation(POOL)
    harness = Harness(cli, workload, references)
    try:
        if args.trace:
            outcomes, metrics, details, extra_error = traced(harness, order, args.seconds)
        else:
            outcomes, metrics, details, extra_error = untraced(harness, order, args.seconds,
                                                               import_s)
    finally:
        harness.cleanup()

    errors = [o.error for o in outcomes if not o.ok] + ([extra_error] if extra_error else [])
    failed = sum(not o.ok for o in outcomes)
    record = {
        "workload": workload.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "call_seeds": [o.call_seed for o in outcomes],
        "errors": errors,
        **{k: v for k, v in details.items() if k != "spans"},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({**record, "metrics": metrics, "spans": details.get("spans")}, fh)
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps({
        "correct": not errors,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
