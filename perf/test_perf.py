"""Self-tests of the benchmark.  Not collected by tier-1 (``testpaths``):

    python -m pytest perf/

They run ``run.py --quick`` for real (two short repeats per workload, the
traced run, the micro-costs), so the whole file takes about a minute.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
#: Counts made by the program that must repeat exactly for one seed.
EXACT = (
    "wire.frames_per_op",
    "wire.bytes_per_op",
    "core.votes_per_op",
    "explore.schedules_per_op",
)


def run_benchmark(*args, cwd=ROOT):
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, os.path.join(cwd, "perf", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return done, time.monotonic() - started


def result_of(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def quick_runs():
    """Two full ``--quick`` runs of one seed: ``[(completed, seconds), ...]``."""
    return [run_benchmark("--quick", "--seed", "5") for _ in range(2)]


def test_quick_run_is_quick_and_correct(quick_runs):
    for done, seconds in quick_runs:
        assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
        assert seconds < 30.0
        result = result_of(done)
        assert result["correct"] is True
        assert result["failed"] == 0
        assert result["attempted"] >= 1


def test_every_promised_name_is_measured(quick_runs, contract):
    result = result_of(quick_runs[0][0])
    promised = [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    workloads = [w["name"] for w in contract["workloads"]]
    assert sorted(result["metrics"]) == sorted(workloads)
    for name in promised + workloads:
        assert NAME.match(name), name
    for workload in workloads:
        measured = result["metrics"][workload]
        assert sorted(measured) == sorted(promised)
        for metric in contract["end_to_end"] + contract["per_layer"]:
            assert measured[metric["name"]]["unit"] == metric["unit"]
        for metric in contract["end_to_end"]:
            assert measured[metric["name"]]["value"] > 0
    # Printed by name with its unit, not only in the JSON line.
    text = quick_runs[0][0].stdout
    for name in promised:
        assert re.search(rf"^\s+{re.escape(name)}\s", text, re.M), name


def test_exact_counts_repeat_for_one_seed(quick_runs, contract):
    first, second = (result_of(done)["metrics"] for done, _ in quick_runs)
    for workload in (w["name"] for w in contract["workloads"]):
        for name in EXACT:
            assert (
                first[workload][name]["value"] == second[workload][name]["value"]
            ), (workload, name)


def test_frame_counts_match_the_pinned_wire_story(quick_runs):
    """16 frames per (1,2,5) instance, 66 per (2,2,7), batched (CHANGES.md)."""
    metrics = result_of(quick_runs[0][0])["metrics"]
    assert metrics["serve_local_n5"]["wire.frames_per_op"]["value"] == 16.0
    assert metrics["serve_open_n5"]["wire.frames_per_op"]["value"] == 16.0
    assert metrics["serve_tcp_n7"]["wire.frames_per_op"]["value"] == 66.0
    assert metrics["core_grid"]["wire.frames_per_op"]["value"] == 0.0


@pytest.mark.parametrize("workload", ["serve_local_n5", "core_grid", "explore_certify"])
def test_a_wrong_output_fails_the_run(workload):
    done, _ = run_benchmark(
        "--quick", "--workload", workload, "--trace", "0", "--inject-failure"
    )
    assert done.returncode == 1
    result = result_of(done)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert "FAILED op" in done.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    """A directory holding only BENCHMARK.json and perf/: exit non-zero, no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perf", ignore=shutil.ignore_patterns("__pycache__")
    )
    done, _ = run_benchmark(
        "--workload", "core_grid", "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=str(tmp_path),
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
