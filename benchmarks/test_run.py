"""Tests of the benchmark itself, at a tiny size (a few seconds per run).

    python3 -m pytest benchmarks/test_run.py -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
COUNTS = ("linalg.eigh.calls_per_gen", "linalg.slogdet.calls_per_gen", "harness.history_rows",
          "cli.bytes_written", "lra.eta_sigma_lt1_frac", "lra.floored_per_kgen")


def tiny_run(workload, trace, seed=3, root=ROOT):
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True,
        text=True,
        cwd=str(root),
        timeout=170,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    report = json.loads((ROOT / proc.stdout.splitlines()[-2].split()[-1]).read_text())
    return result, report


@pytest.mark.parametrize("workload", WORKLOADS)
def test_metrics_match_the_spec_and_counts_repeat(workload):
    runs = [result_of(tiny_run(workload, 1)) for _ in range(2)]
    result, report = runs[0]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    layers = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == layers
    assert report["absent"] == []
    for name in COUNTS:
        assert runs[0][0]["metrics"][name] == runs[1][0]["metrics"][name], name
    assert runs[0][1]["digest_all"] == runs[1][1]["digest_all"]
    assert runs[0][1]["digest_first_round"] == runs[1][1]["digest_first_round"]

    end_to_end, _ = result_of(tiny_run(workload, 0))
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in end_to_end["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in end_to_end["metrics"].values())


def test_metric_names_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"] + SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name


def test_seed_changes_the_trials():
    a, b = (result_of(tiny_run("rastrigin_d10_lra", 0, seed=s))[1] for s in (3, 4))
    assert a["digest_all"] != b["digest_all"]


def test_tracer_survives_a_missing_name():
    tracer = Tracer()
    assert not tracer.install("lracma_no_such_module", "f", "gone.module")
    assert not tracer.install("json", "no_such_function", "gone.function")
    assert not tracer.install("json", "JSONDecoder.no_such_method", "gone.method")
    assert tracer.install("json", "dumps", "json.dumps")
    try:
        assert json.dumps([1]) == "[1]"
    finally:
        tracer.uninstall()
    assert tracer.absent == ["gone.module", "gone.function", "gone.method"]
    assert tracer.calls("json.dumps") == 1 and tracer.calls("gone.function") == 0
    assert not hasattr(json.dumps, "__wrapped__")


def test_tracer_self_time_excludes_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(10_000)))
    outer = tracer.wrap("outer", lambda: inner() + inner())
    outer()
    assert tracer.calls("inner") == 2
    assert tracer.self_ns("outer") == tracer.total_ns("outer") - tracer.total_ns("inner")


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = tiny_run(WORKLOADS[0], 0, root=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
