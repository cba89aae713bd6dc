"""Tests of the benchmark itself (not part of the sidonlab suite).

    python3 -m pytest benchmarks/test_bench.py -q

They take about a minute: each runs real passes of a workload.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

run.bootstrap()

import layers  # noqa: E402
import sidonlab  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TIMING_UNITS = ("s", "ns")


def _exact_counts(doc):
    return {k: v for k, (v, unit) in doc["metrics"].items()
            if unit not in TIMING_UNITS
            and k not in ("counting.fast_over_oracle", "trace.overhead_frac")}


def test_wrong_reference_fails_the_run(capsys):
    bad = workloads.load_reference()
    bad["et17_odd"]["model"]["bohr_size"] += 1
    code = run.main(["--workload", "report", "--seed", "3", "--seconds", "0"],
                    reference=bad)
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert last["correct"] is False
    assert last["failed"] == 1 and last["attempted"] == 3


def test_wrong_float_beyond_tolerance_is_a_mismatch():
    ref = workloads.load_reference()["et17_even"]
    got = json.loads(json.dumps(ref))
    fd = ref["model"]["fourier_distance"]
    got["model"]["fourier_distance"] = fd * (1 + 1e-12)
    assert workloads._compare(ref, got) == []
    got["model"]["fourier_distance"] = fd * (1 + 1e-8)
    assert workloads._compare(ref, got) != []


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_counts_repeat_exactly(name):
    first = run.run_traced(name, seed=7, passes=1)
    second = run.run_traced(name, seed=7, passes=1)
    assert first["failed"] == second["failed"] == 0
    assert first["absent"] == []
    assert _exact_counts(first) == _exact_counts(second)


def test_deleted_function_is_recorded_absent(monkeypatch):
    monkeypatch.delattr(sidonlab.convolve, "convolve_many")
    doc = run.run_traced("count", seed=7, passes=1)
    assert doc["failed"] == 0
    assert "convolve.convolve_many" in doc["absent"]
    assert doc["metrics"]["counting.partitions"][0] == 0
    assert doc["metrics"]["convolve.calls"][0] > 0


def test_tracer_restores_the_library():
    orig = sidonlab.counting.count_solutions
    with tracing.Tracer() as tracer:
        assert sidonlab.counting.count_solutions is not orig
        assert sidonlab.count_solutions is sidonlab.counting.count_solutions
        assert not tracer.absent
    assert sidonlab.counting.count_solutions is orig
    assert sidonlab.count_solutions is orig


def test_partition_stats_of_balanced_equation():
    # 52 partitions of five variables; merging all of them leaves 0 = 0
    parts, unique = tracing.partition_stats((1, 1, 1, 1, -4))
    assert parts == 51
    assert unique == 7


def test_benchmark_json_names_every_metric():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert spec["per_layer"] == (
        [{"name": m.name, "unit": m.unit, "better": m.better} for m in layers.PER_LAYER]
        + [{"name": "trace.overhead_frac", "unit": "ratio", "better": "lower"}])
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_fails_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "count",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 2
    assert '"correct"' not in proc.stdout
