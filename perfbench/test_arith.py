"""Tests of the benchmark's own arithmetic on hand-made spans; no pipeline run.

Run from the repository root: python3 -m pytest perfbench -q
"""
import json
from collections import Counter, defaultdict
from pathlib import Path

import pytest

import arith
import layers
import run
import workloads
from tracer import Span

MAIN, POOL_A, POOL_B = 1, 2, 3


def test_self_time_counts_overlapping_children_on_two_threads_once():
    spans = [
        Span(1, "pipeline.cmd_build_ssm", 0.0, 10.0, None, MAIN, "build_ssm"),
        Span(2, "pipeline.subject", 1.0, 6.0, 1, POOL_A, "build_ssm"),
        Span(3, "pipeline.subject", 4.0, 8.0, 1, POOL_B, "build_ssm"),
        Span(4, "register.nonrigid_fit", 2.0, 3.0, 2, POOL_A, "build_ssm"),
        Span(5, "mesh.save_mesh", 9.5, 11.0, 1, MAIN, "build_ssm"),  # runs past its parent
    ]
    own = arith.self_times(spans)
    # children cover [1, 8] and [9.5, 10] of the parent's [0, 10]
    assert own[1] == pytest.approx(10.0 - 7.0 - 0.5)
    assert own[2] == pytest.approx(5.0 - 1.0)
    assert own[3] == pytest.approx(4.0)
    assert own[4] == pytest.approx(1.0)
    assert own[5] == pytest.approx(1.5)


def test_covered_length_merges_touching_and_nested_intervals():
    assert arith.covered_length([(0, 2), (2, 3), (0.5, 1), (5, 6)], 0, 10) == pytest.approx(4.0)
    assert arith.covered_length([(-5, 1), (9, 20)], 0, 10) == pytest.approx(2.0)
    assert arith.covered_length([], 0, 10) == 0.0


def test_percentile_needs_ten_samples_beyond_it():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert arith.percentile(values, 90) == 90  # 91..100 lie beyond
    assert arith.percentile(values, 50) == 50
    with pytest.raises(ValueError):
        arith.percentile(values[:99], 90)  # only 9 beyond
    assert arith.min_samples_for(90) == 100
    assert arith.min_samples_for(50) == 20
    arith.percentile(range(20), 50)
    with pytest.raises(ValueError):
        arith.percentile(range(19), 50)


def _stage_spans(stage, first_id, wall, subject_durations):
    threads = [POOL_A, POOL_B]
    spans = [Span(first_id, f"pipeline.cmd_{stage}", 0.0, wall, None, MAIN, stage)]
    for i, d in enumerate(subject_durations):
        spans.append(Span(first_id + 1 + i, "pipeline.subject", 0.0, d, first_id, threads[i % 2], stage))
    return spans


def test_efficiency_is_subject_time_over_wall_times_threads():
    assert arith.efficiency(17.0, 10.0, 2) == pytest.approx(0.85)
    spans = (
        _stage_spans("build_ssm", 1, 10.0, [9.0, 8.0])
        + _stage_spans("slice", 10, 4.0, [2.0, 2.0, 2.0, 2.0])
        + _stage_spans("evaluate", 20, 5.0, [5.0])
    )
    m = layers.layer_metrics(spans, Counter(), defaultdict(set), threads=2)
    assert m.keys() == layers.UNITS.keys()
    assert m["pipeline.build_ssm_efficiency"] == pytest.approx(0.85)
    assert m["pipeline.slice_efficiency"] == pytest.approx(1.0)
    assert m["pipeline.evaluate_efficiency"] == pytest.approx(0.5)
    with pytest.raises(ValueError):
        arith.efficiency(1.0, 0.0, 2)


def test_failed_ratio():
    assert arith.failed_ratio(0, 105) == 0.0
    assert arith.failed_ratio(3, 4) == 0.75
    for failed, attempted in ((0, 0), (5, 4), (-1, 4)):
        with pytest.raises(ValueError):
            arith.failed_ratio(failed, attempted)


def test_train_flops_by_hand():
    # D=2, H=3, K=1; 4 training and 1 validation sample; one epoch of one step
    sgd = 4 * (4 * 2 * 3 + 6 * 3 * 1) + 2 * (6 + 3 + 3 + 1)
    evals = 5 * (2 * 2 * 3 + 2 * 3 * 1)
    assert arith.train_flops(2, 3, 1, 4, 1, epochs=1, steps=1) == sgd + evals


def test_seed_leaves_the_population_fixed_and_balanced():
    for name in ("acceptance-8", "fine-mesh"):
        docs = [workloads.config(name, seed)[0] for seed in (0, 7)]
        assert docs[0]["synth"] == docs[1]["synth"]
        assert (docs[0]["train"]["seed"], docs[1]["evaluate"]["seed"]) == (0, 7)
        s, n = docs[0]["synth"]["seed"], docs[0]["synth"]["n"]
        ref = workloads.reference_index(n, docs[0]["split"]["train_fraction"], docs[0]["split"]["seed"])
        levels = [workloads.subject_level_index(s, i, 2) for i in range(n)]
        assert levels[ref] == 0 and sum(levels) == n // 2
    doc, balanced = workloads.config("acceptance-60", 0)
    assert not balanced and doc["synth"]["seed"] == 2024 and doc["train"]["seed"] == 0


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {n: run.END_TO_END_UNITS[n] for n in run.GATED}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.TRACED_UNITS
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
