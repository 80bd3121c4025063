"""Record the reference outputs that every benchmark call is checked against.

    python3 perfbench/record_references.py

For each workload and each call seed of the pool it runs the call through
``kroncov.cli.main`` and stores the per-cell MSE means (mse-bench) or the
per-estimator AUCs (anomaly) in ``perfbench/references.json``, replacing
the whole file.  Record only from a commit whose
outputs are trusted: later runs count any other answer as a failure.
"""
import argparse
import json
import sys

from run import HERE, Harness, environment, load_program, pin_blas


def main() -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    pin_blas()
    cli = load_program()
    from workloads import POOL, WORKLOADS

    path = HERE / "references.json"
    recorded = {}
    for name, workload in WORKLOADS.items():
        harness = Harness(cli, workload, {})
        values = {}
        try:
            for seed in range(POOL):
                code, _ = harness.run(seed)
                if code != 0:
                    sys.exit(f"error: {name} call seed {seed} exited with {code}")
                values[str(seed)] = workload.read(harness.out, seed).values
                print(name, seed, values[str(seed)], flush=True)
        finally:
            harness.cleanup()
        recorded[name] = values
    env = environment(None)
    doc = {"workloads": recorded,
           "recorded_with": {k: env[k] for k in ("python", "numpy", "scipy", "blas")}}
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
