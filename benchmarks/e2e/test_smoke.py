"""Smoke test of the end-to-end benchmark.

Not under ``testpaths``, so tier-1 time is unchanged; run it as
``PYTHONPATH=src python -m pytest benchmarks/e2e -q``. The windows are one
second, so the time goes into set-up (three per run): about three minutes.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, ROOT)

from benchmarks.e2e import check_repeat, run  # noqa: E402
from benchmarks.e2e.trace import child_pids  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def spec():
    return run.load_spec()


def test_benchmark_json_meets_the_contract(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert spec["paths"] == ["benchmarks/e2e"]
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [w["name"] for w in spec["workloads"]]
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    metrics = spec["end_to_end"] + spec["per_layer"]
    names += [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(UNIT.fullmatch(m["unit"]) for m in metrics)
    assert all(m["better"] in ("lower", "higher") for m in metrics)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def ledger(tmp_path, label):
    out = tmp_path / label
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, RUN, "--seed", "2015", "--seconds", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=900,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    with open(out / "results-1.json") as handle:
        return json.load(handle), time.monotonic() - started


def test_every_metric_is_emitted_and_counts_repeat(spec, tmp_path):
    first, seconds = ledger(tmp_path, "first")
    second, __ = ledger(tmp_path, "second")
    runs = 2 * len(spec["workloads"])
    assert seconds < 60 * runs, f"{seconds:.0f} s for {runs} one-second runs"
    for results in (first, second):
        assert set(results) == {w["name"] for w in spec["workloads"]}
        for workload, entry in results.items():
            for kind in ("end_to_end", "per_layer"):
                assert set(entry[kind]) == {m["name"] for m in spec[kind]}
                assert entry[f"{kind}_failed"] == 0
                assert entry[f"{kind}_attempted"] >= 1
                units = {m["name"]: m["unit"] for m in spec[kind]}
                for name, value in entry[kind].items():
                    assert value["unit"] == units[name], name
            for name, value in entry["end_to_end"].items():
                assert value["value"] > 0, (workload, name)
    # exact-repeat counts must be identical between the two ledgers
    for workload in first:
        for name in check_repeat.exact_metrics(workload):
            a = first[workload]["per_layer"][name]["value"]
            b = second[workload]["per_layer"][name]["value"]
            assert a == b, (workload, name, a, b)
    rows, __ = check_repeat.compare(first, second, spec)
    assert len(rows) == len(spec["workloads"]) * (
        len(spec["end_to_end"]) + len(spec["per_layer"])
    )


def test_a_crashed_workload_leaves_no_process(tmp_path):
    runner = subprocess.Popen(
        [
            sys.executable, RUN, "--workload", "mixed_process", "--seed", "7",
            "--seconds", "30", "--trace", "0", "--out", str(tmp_path),
        ],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        # the workload child leads a session of its own; wait until it
        # has spawned the TDStore host and the Storm worker, then kill it
        # the hard way so that nothing it started gets torn down
        deadline = time.monotonic() + 120
        session = None
        while time.monotonic() < deadline and runner.poll() is None:
            children = child_pids(runner.pid)
            if children and len(run.session_members(children[0])) >= 4:
                session = children[0]
                break
            time.sleep(0.05)
        assert session is not None, "the workload never spawned its substrate"
        os.kill(session, signal.SIGKILL)
        stdout, stderr = runner.communicate(timeout=60)
    finally:
        if runner.poll() is None:
            runner.kill()
    assert runner.returncode != 0
    assert "leftover pids" in stderr
    assert not stdout.strip(), "a crashed workload must print no result"
    assert run.session_members(session) == []
