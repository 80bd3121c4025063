"""Span self-time arithmetic, wrapper install/restore, and the metric list
in BENCHMARK.json, for the benchmark under perfbench/."""
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import layers  # noqa: E402
from spans import Patch, Recorder, Span, self_times, wrap  # noqa: E402


def ticking_clock():
    ticks = iter(range(1000))
    return lambda: float(next(ticks))


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.child", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 6.0, 0, 0),
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_self_time_merges_overlapping_children_and_clips_to_parent():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("x", 1.0, 5.0, 0, 0),
        Span("y", 3.0, 7.0, 0, 0),
        Span("z", 9.0, 12.0, 0, 0),
    ]
    # children cover [1, 7] and [9, 10] of the root
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_wrap_records_nested_spans_with_parent_and_call_id():
    rec = Recorder(clock=ticking_clock())
    inner = wrap(rec, lambda x: x + 1, "inner")
    outer = wrap(rec, lambda x: inner(x) * 2, "outer")
    rec.call_id = 7
    assert outer(1) == 4
    assert [(s.name, s.start, s.end, s.parent, s.call_id) for s in rec.spans] == [
        ("outer", 0.0, 3.0, None, 7),
        ("inner", 1.0, 2.0, 0, 7),
    ]
    assert self_times(rec.spans) == [2.0, 1.0]


def test_wrap_closes_span_when_the_function_raises():
    rec = Recorder(clock=ticking_clock())

    def boom():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        wrap(rec, boom, "boom")()
    assert rec.spans[0].end == 1.0
    rec.begin("next")  # the stack is empty again: no parent
    assert rec.spans[1].parent is None


def test_closing_out_of_order_is_an_error():
    rec = Recorder()
    first = rec.begin("a")
    rec.begin("b")
    with pytest.raises(RuntimeError):
        rec.end(first)


def test_patch_restores_module_and_dict_bindings():
    import types

    def original():
        return "original"

    module = types.ModuleType("fake")
    module.f = original
    module.alias = original
    table = {"cmd": original, "other": len}
    patch = Patch()
    assert patch.replace([module, table], original, lambda: "wrapped") == 3
    assert module.f() == module.alias() == table["cmd"]() == "wrapped"
    patch.restore()
    assert module.f is original and module.alias is original and table["cmd"] is original
    assert table["other"] is len


def _bindings():
    import kroncov
    from kroncov import anomaly, cli, estimators, kron_ops, synth
    namespaces = [kroncov, synth, kron_ops, estimators, anomaly, cli]
    out = {(ns.__name__, k): v for ns in namespaces for k, v in vars(ns).items() if callable(v)}
    out.update({("COMMANDS", k): v for k, v in cli.COMMANDS.items()})
    return out


def test_install_wraps_every_namespace_and_restore_puts_originals_back():
    from kroncov import cli, estimators, kron_ops

    before = _bindings()
    rec = Recorder()
    patch = layers.install(rec)
    try:
        # the from-import inside estimators and the lookup inside kron_ops
        assert estimators.compress_diagonals is not before[("kroncov.kron_ops", "compress_diagonals")]
        assert estimators.compress_diagonals is kron_ops.compress_diagonals
        assert cli.COMMANDS["mse-bench"] is not before[("COMMANDS", "mse-bench")]
        assert cli.write_json is not before[("kroncov.cli", "write_json")]
    finally:
        patch.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_fit_reports_spans_and_counts():
    from kroncov import estimators, synth

    truth = synth.ar1_kron_truth(4, 3)
    samples = synth.sample_gaussian(truth, 20, seed=0)
    rec = Recorder()
    patch = layers.install(rec)
    try:
        cov, info = estimators.fit_by_name("dc-kronpca-lw", samples, {"r": 1})
    finally:
        patch.restore()
    names = [s.name for s in rec.spans]
    assert names[0] == "estimators.fit.dc-kronpca-lw"
    for name in ("estimators.scm", "estimators.soft_impute", "kron_ops.diag_mask",
                 "kron_ops.compress_diagonals", "estimators.kron_plugin_intensity",
                 "estimators.shrink"):
        assert name in names
    counts = rec.counts[0]
    assert counts["estimators.soft_impute.iters"] == info["iterations"]
    assert counts["estimators.fits"] == 1
    assert counts["kron_ops.computed_bytes"] > 0
    assert np.all(np.isfinite(cov.entries))


def test_layer_metrics_cover_every_declared_metric():
    rec = Recorder(clock=ticking_clock())
    main = wrap(rec, lambda: cmd(), layers.ROOT)
    cmd = wrap(rec, lambda: fit(), "cli.mse-bench")
    fit = wrap(rec, lambda: None, "estimators.fit.scm")
    main()
    values = layers.layer_metrics(rec, 0, 0.05)
    assert set(values) == set(layers.metric_units())
    # root [0,5], command [1,4], fit [2,3]: the fit covers 1 of 5
    assert values["cli.covered_ratio"] == pytest.approx(0.2)
    assert values["estimators.fit.scm.calls"] == 1
    assert values["cli.mse-bench.self_s"] == pytest.approx(2.0)
    assert values["trace.overhead_ratio"] == 0.05


def test_declared_metrics_match_benchmark_json():
    import json

    import run

    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == layers.metric_units()
