"""Smoke test of the benchmark harness; it never gates on a timing.

Run from the root of a checkout:  python -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

wl = run.load_program()
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ops_per_s": "1/s",
    "fail_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def test_benchmark_json_names_every_workload_and_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    for m in SPEC["end_to_end"]:
        assert END_TO_END[m["name"]] == m["unit"]


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_end_to_end_metrics_present_and_no_failures(name):
    metrics, loop = run.end_to_end(wl, name, seed=3, seconds=0, setups=1, min_ops=run.BLOCK)
    assert {k: unit for k, (_, unit, _) in metrics.items()} == END_TO_END
    assert loop.attempted == run.BLOCK
    assert metrics["fail_ratio"][0] == 0, loop.errors
    line = run.result_line(metrics, loop, [m["name"] for m in SPEC["end_to_end"]])
    assert line["correct"] and line["failed"] == 0


def test_second_seed_gives_other_inputs_and_no_failures():
    run.WORKDIR.mkdir(exist_ok=True)
    a, b, a2 = (wl.CliBatch(s, run.NULL_TRACER, str(run.WORKDIR)).seeds for s in (3, 4, 3))
    assert a == a2 and a != b
    for seed in (3, 4):
        metrics, loop = run.end_to_end(wl, "gauge-writes", seed, seconds=0, setups=1, min_ops=run.BLOCK)
        assert (loop.attempted, loop.failed) == (run.BLOCK, 0), loop.errors


def test_traced_run_emits_every_per_layer_metric():
    metrics, loop = run.traced_run(wl, "closed-holonomy", seed=3, seconds=0)
    assert loop.failed == 0, loop.errors
    assert {k: unit for k, (_, unit, _) in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    spans = (run.WORKDIR / "spans-closed-holonomy-3.jsonl").read_text().splitlines()
    assert {"name", "start", "end", "parent", "op"} <= set(json.loads(spans[0]))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gauge-writes",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
