"""Smoke test of the benchmark's own code at tiny sizes.

Run from the repository root: PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import bench  # noqa: E402
import simulbench.metrics  # noqa: E402
from simulbench.model import ModelConfig  # noqa: E402

TINY_MODEL = ModelConfig(n_layers=1, n_heads=2, d_model=8, vocab_size=12, seed=0)
TINY = {
    "stream_long": lambda: bench.StreamLong(n_sources=2, min_len=6, max_len=9,
                                            model=TINY_MODEL),
    "compare_short": lambda: bench.CompareShort(lengths=(5, 6), blocks=2,
                                                model=TINY_MODEL),
    "train_short": lambda: bench.TrainShort(lengths=(5, 6), batch=3,
                                            model=TINY_MODEL),
}
EXACT_COUNTS = ("engine.reads", "engine.writes", "model.kv_rows",
                "model.shadow_flops", "kernel.attend_row.keys",
                "training.batch_forward_backward.tokens",
                "metrics.recompute_share")


def _spec():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(name, trace, out_dir):
    return bench.run(TINY[name](), seed=7, seconds=0, trace=trace,
                     out_dir=str(out_dir))


@pytest.mark.parametrize("name", sorted(TINY))
def test_every_named_metric_prints_with_its_unit(name, tmp_path):
    spec = _spec()
    assert name in {w["name"] for w in spec["workloads"]}
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result, lines = _run(name, trace, tmp_path)
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in spec[key]}
        for metric in spec[key]:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
            assert any(line.startswith(f"  {metric['name']} = ")
                       and line.endswith(f" {metric['unit']}")
                       for line in lines), metric["name"]
        if key == "end_to_end":
            assert all(v["value"] > 0 for v in result["metrics"].values())
    assert (tmp_path / f"{name}.spans.csv.gz").exists()
    assert (tmp_path / f"{name}.layers.txt").exists()


def test_forced_failing_check_counts_in_failed_share(tmp_path, monkeypatch):
    real = simulbench.metrics.flops_generate

    def off_by_one(trace, model, mode):
        """Miscount the recompute run of the second sentence of a block."""
        report = real(trace, model, mode)
        if mode.kind == "recompute" and len(trace.writes()) == 4:
            return simulbench.metrics.FlopsReport(report.initial,
                                                  report.recompute + 1)
        return report

    monkeypatch.setattr(simulbench.metrics, "flops_generate", off_by_one)
    result, lines = _run("compare_short", 0, tmp_path)
    failures = [line for line in lines if line.startswith("failed: ")]
    assert result["failed"] == len(failures) == bench.MIN_PASSES
    assert not result["correct"]
    assert all("op s1/recompute" in line and "analytic FLOPs" in line
               for line in failures)
    share = f"failed_share = {result['failed'] / result['attempted']:.4f}"
    assert any(share in line for line in lines)


@pytest.mark.parametrize("name", sorted(TINY))
def test_exact_layer_counts_repeat(name, tmp_path):
    first, _ = _run(name, 1, tmp_path)
    second, _ = _run(name, 1, tmp_path)
    for metric in EXACT_COUNTS:
        assert first["metrics"][metric] == second["metrics"][metric], metric
