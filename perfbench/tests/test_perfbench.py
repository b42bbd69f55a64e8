"""Tests of the benchmark's own logic.

    python3 -m pytest -q perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import numpy as np  # noqa: E402

from stats import beyond, tail_ok  # noqa: E402
from tracing import TARGETS, Tracer, self_times, sum_within  # noqa: E402


def span(name, start, end, parent=None):
    return [name, start, end, parent, "req"]


class TestSelfTime:
    def test_nested_and_overlapping_children(self):
        spans = [
            span("root", 0.0, 10.0),
            span("a", 1.0, 4.0, 0),
            span("b", 3.0, 6.0, 0),       # overlaps a: together they cover 1..6
            span("a.inner", 1.5, 2.5, 1),  # nested in a
            span("c", 8.0, 12.0, 0),      # runs past the root: clipped to 8..10
        ]
        selfs = self_times(spans)
        assert selfs[0] == pytest.approx(10.0 - 5.0 - 2.0)
        assert selfs[1] == pytest.approx(3.0 - 1.0)
        assert selfs[2] == pytest.approx(3.0)
        assert selfs[3] == pytest.approx(1.0)
        assert selfs[4] == pytest.approx(4.0)

    def test_leaf_self_time_is_its_duration(self):
        assert self_times([span("x", 2.0, 5.0)]) == [pytest.approx(3.0)]

    def test_sum_within_counts_descendants_only(self):
        spans = [
            span("train", 0.0, 4.0),
            span("backward", 1.0, 3.0, 0),
            span("backward", 5.0, 6.0),  # outside any train span
        ]
        inside = sum_within(spans, self_times(spans), "train")
        assert inside["backward"] == pytest.approx(2.0)
        assert inside["train"] == pytest.approx(2.0)


class TestPercentiles:
    SAMPLES = [float(v) for v in range(1, 101)]  # 1..100

    def test_linear_between_ranks(self):
        assert np.percentile(self.SAMPLES, 50) == pytest.approx(50.5)
        assert np.percentile(self.SAMPLES, 90) == pytest.approx(90.1)
        assert np.percentile([3.0, 1.0, 2.0], 50) == 2.0

    def test_ten_samples_beyond_p90(self):
        assert beyond(self.SAMPLES, np.percentile(self.SAMPLES, 90)) == 10
        assert tail_ok(self.SAMPLES, 90)
        # 1..92: p90 is 82.9, with 83..92 beyond; 1..91: p90 is 82, 9 beyond
        assert tail_ok(self.SAMPLES[:92], 90)
        assert not tail_ok(self.SAMPLES[:91], 90)
        assert tail_ok(self.SAMPLES[:20], 50)
        assert not tail_ok(self.SAMPLES[:19], 50)


class TestTracer:
    def test_by_name_imports_are_wrapped_and_restored(self):
        from b3sum import classifier, layers, pipeline, summarizer

        original = layers.bilstm_encode
        tracer = Tracer()
        tracer.install()
        try:
            assert summarizer.bilstm_encode is layers.bilstm_encode is not original
            assert classifier.bilstm_encode is layers.bilstm_encode
            assert pipeline.decode is summarizer.decode
        finally:
            tracer.uninstall()
        assert summarizer.bilstm_encode is original

    def test_a_wrapper_that_never_fires_is_reported(self):
        from b3sum import corpus

        tracer = Tracer()
        tracer.install()
        try:
            corpus.synth_generate(1, 2)
        finally:
            tracer.uninstall()
        unfired = tracer.unfired(["corpus.synth_generate", "corpus.build_vocab"])
        assert unfired == ["corpus.build_vocab"]

    def test_every_target_is_expected_on_pipeline_synth(self):
        assert run.expected_spans("pipeline-synth") == list(TARGETS)
        assert "classifier.classify" not in run.expected_spans("paper-shape")


class TestBenchmarkFile:
    def test_metric_lists_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert [m["name"] for m in spec["end_to_end"]] == list(run.GATED)
        units = {name: unit for name, unit, _ in run.END_TO_END}
        assert all(m["unit"] == units[m["name"]] for m in spec["end_to_end"])
        assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
        assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_prints_every_end_to_end_metric(workload):
    lines, last = smoke(workload, trace=0)
    for name, unit, where in run.END_TO_END:
        printed = [line.split() for line in lines if line.split()[:1] == [name]]
        assert printed, name
        assert unit in printed[0], (name, printed[0])
        if workload in where:
            float(printed[0][1])
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    assert set(last["metrics"]) == set(run.GATED)
    assert all(m["value"] > 0 for m in last["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_traced_run_prints_every_per_layer_metric(workload):
    lines, last = smoke(workload, trace=1)
    assert last["correct"]
    assert [(k, v["unit"]) for k, v in last["metrics"].items()] == run.PER_LAYER
    assert last["metrics"]["layers.lstm_step_calls"]["value"] > 0
    assert last["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_refuses_to_run_without_the_source_tree(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in BENCH.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "paper-shape", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
