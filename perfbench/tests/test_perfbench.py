"""Tests of the benchmark itself: names, predictions, checks, and every
workload run end to end at minimal size.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import clock  # noqa: E402
import run  # noqa: E402
from layers import PREDICTIONS  # noqa: E402
from layers import WORKLOADS as PREDICTED_WORKLOADS  # noqa: E402
from workloads import WORKLOADS, Certify, Checks, Reproduce, single_runs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}
WORKLOAD_NAMES = [workload["name"] for workload in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# Each workload at minimal size; a few seconds each.
MINIMAL = {
    "reproduce": lambda: Reproduce(restarts=20, single_run_seeds=1),
    "certify": lambda: Certify(typical_ids=(2, 37), gated=((11, "AQ"),), tail=((38, "AQ"),)),
}


def test_names_use_only_allowed_characters_and_are_unique():
    names = WORKLOAD_NAMES + list(END_TO_END) + list(PER_LAYER)
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(names) == len(set(names))


def test_workloads_agree_across_spec_code_and_predictions():
    assert set(WORKLOAD_NAMES) == set(WORKLOADS) == set(PREDICTED_WORKLOADS) == set(MINIMAL)


def test_every_layer_metric_names_the_end_to_end_metric_and_workload_it_moves():
    assert set(PREDICTIONS) == set(PER_LAYER)
    for name, predictions in PREDICTIONS.items():
        assert predictions, name
        for metric, workload, effect in predictions:
            assert metric in END_TO_END, (name, metric)
            assert workload in WORKLOAD_NAMES, (name, workload)
            assert effect in ("improves", "unmoved"), (name, effect)


def test_a_check_that_raises_counts_as_failed_and_the_next_one_runs():
    checks = Checks()
    with checks.guard("first"):
        raise ValueError("boom")
    with checks.guard("second"):
        checks.expect(True, "second")
    assert (checks.attempted, checks.failed) == (2, 1)
    assert checks.failures == ["first: ValueError: boom"]


def test_tail_latency_has_ten_samples_beyond_it():
    samples = [float(k) for k in range(1, 101)]
    assert run.tail_latency(samples) == (90.0, 90.0, 10)
    assert run.tail_latency(samples[:99]) == (100.0, 99.0, 0)


def test_clock_scales_item_seconds_to_the_reference_speed(monkeypatch):
    # The loop takes 0.01 s before the item and 0.07 s after it: on
    # average, the machine runs at half the reference speed.
    loop_s = [0.01] * clock.LOOPS_EACH_SIDE + [0.07] * clock.LOOPS_EACH_SIDE
    loops = iter(loop_s)
    monkeypatch.setattr(clock, "speed_loop", lambda: next(loops))
    timer = clock.Clock(clock.EDGES)
    with timer.item("item"):
        pass
    (item,) = timer.items
    assert item["loop_s"] == loop_s
    assert item["seconds"] == pytest.approx(item["raw_s"] * clock.REFERENCE_LOOP_S / 0.04)
    assert timer.seconds() == [item["seconds"]]

    raw = clock.Clock()
    with raw.item("item"):
        pass
    assert raw.items[0]["loop_s"] == [] and raw.seconds() == [raw.items[0]["raw_s"]]


def test_sampled_clock_scales_by_the_median_of_loops_taken_during_the_item(monkeypatch):
    monkeypatch.setattr(clock, "SAMPLE_INTERVAL_S", 0.001)
    timer = clock.Clock(clock.SAMPLED)
    with timer.item("item"):
        time.sleep(0.05)
    (item,) = timer.items
    assert len(item["loop_s"]) >= 2
    assert item["seconds"] == pytest.approx(
        item["raw_s"] * clock.REFERENCE_SAMPLE_S / statistics.median(item["loop_s"]))
    assert not [thread for thread in threading.enumerate() if thread.name == "speed-sampler"]


def test_same_seed_same_inputs():
    for name, make in MINIMAL.items():
        assert make().inputs(7) == make().inputs(7), name
    assert single_runs(1, 2) == single_runs(1, 2) != single_runs(2, 2)
    assert sorted(Certify().inputs(1)) == sorted(Certify().inputs(2))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(MINIMAL))
def test_workload_at_minimal_size(name, trace):
    record = run.run(name, seed=3, seconds=0, trace=bool(trace), workload=MINIMAL[name]())
    result = record["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, record["checks"]["failures"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = PER_LAYER if trace else END_TO_END
    assert {key: value["unit"] for key, value in result["metrics"].items()} == expected
    for key, value in result["metrics"].items():
        assert math.isfinite(value["value"]), key
    assert (ROOT / record["path"]).is_file()
    assert set(record["predictions"]) == set(PER_LAYER)
    if not trace:
        for key, value in result["metrics"].items():
            assert value["value"] > 0, key
    if trace:
        spans = json.loads((ROOT / record["spans"]).read_text(encoding="utf-8"))
        assert spans and all(span["end"] >= span["start"] for span in spans)


def test_certify_traced_run_counts_iterations_per_level():
    record = run.run("certify", seed=0, seconds=0, trace=True, workload=MINIMAL["certify"]())
    metrics = {key: value["value"] for key, value in record["result"]["metrics"].items()}
    items = record["items"]
    timed = [item for item in items if item["id"] != 38]
    for level, key in (("AQ", "aq"), ("1+AB", "1ab")):
        assert metrics[f"npa.iterations.{key}"] == sum(
            item["iterations"] for item in timed if item["level"] == level)
    assert metrics["npa.tail_iterations"] == next(
        item["iterations"] for item in items if (item["id"], item["level"]) == (38, "AQ"))
    assert metrics["npa.capped"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert "cannot import tribell" in done.stderr
    assert '"metrics"' not in done.stdout
