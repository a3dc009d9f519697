"""Runner of the end-to-end benchmark. See ``README.md`` beside this file.

``python3 benchmarks/e2e/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload once and prints, as the last line of
its standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.

Without ``--workload`` it runs the whole ledger: every workload untraced,
then traced, printing every metric by name with its unit. ``--sets 2``
does that twice and compares the sets with ``check_repeat.py``.

This module never imports the substrates: ``multiprocessing``'s spawn
context leaves a ``resource_tracker`` child that outlives
``ProcessSubstrate.teardown()`` and exits only after the process that
used it. Each workload therefore runs as a child
``python -m benchmarks.e2e.workload`` in a session of its own, and the
runner moves on only when no live process has that session id.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, ROOT)  # run as a script: make the package importable

from benchmarks.e2e import check_repeat  # noqa: E402
from benchmarks.e2e.trace import stat_fields  # noqa: E402

CHILD_TIMEOUT = 150.0  # the contract allows a run 180 s


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def session_members(sid: int) -> "list[int]":
    """Live (non-zombie) processes whose session id is ``sid``."""
    members = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = stat_fields(int(entry))
            if fields and fields[0] != "Z" and int(fields[3]) == sid:
                members.append(int(entry))
    return members


def _wait_empty(sid: int, seconds: float) -> "list[int]":
    deadline = time.monotonic() + seconds
    while True:
        members = session_members(sid)
        if not members or time.monotonic() >= deadline:
            return members
        time.sleep(0.01)


def clear_session(sid: int) -> "list[int]":
    """Wait for the session to empty; returns the pids that had to be
    signalled because they did not leave on their own."""
    stragglers = _wait_empty(sid, 2.0)
    for signum in (signal.SIGTERM, signal.SIGKILL):
        if not _wait_empty(sid, 0.0):
            break
        try:
            os.killpg(sid, signum)
        except ProcessLookupError:
            break
        _wait_empty(sid, 5.0)
    return stragglers


def run_workload(name: str, seed: int, seconds: float, trace: int, out: str):
    """One workload in a session of its own.

    Returns ``(result, problems)``: the child's JSON result (``None``
    unless it exited 0) and what went wrong, if anything.
    """
    env = dict(os.environ)
    paths = [os.path.join(ROOT, "src"), ROOT]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    command = [
        sys.executable, "-m", "benchmarks.e2e.workload",
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--out", out,
    ]
    # stdout goes to a file, not a pipe: a pipe would stay open in any
    # process the workload leaves behind, and reading it would wait on them
    result_path = os.path.join(out, f"{name}-trace{trace}.stdout")
    problems = []
    with open(result_path, "w") as sink:
        child = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=sink, start_new_session=True
        )
        try:
            child.wait(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            problems.append(f"{name}: no result within {CHILD_TIMEOUT:.0f} s")
            os.killpg(child.pid, signal.SIGTERM)
        finally:
            stragglers = clear_session(child.pid)
            child.wait()
    with open(result_path) as source:
        stdout = source.read()
    os.remove(result_path)
    if stragglers:
        problems.append(f"{name}: had to signal leftover pids {stragglers}")
    if child.returncode != 0:
        problems.append(f"{name}: workload exited with code {child.returncode}")
        return None, problems
    try:
        result = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        problems.append(f"{name}: workload printed no result")
        return None, problems
    return result, problems


def check_names(result: dict, expected: "list[dict]", what: str) -> "list[str]":
    got, want = set(result["metrics"]), {m["name"] for m in expected}
    if got == want:
        return []
    return [
        f"{what}: metrics differ from BENCHMARK.json "
        f"(missing {sorted(want - got)}, extra {sorted(got - want)})"
    ]


def run_ledger(spec, names, seed, seconds, traces, out) -> "tuple[dict, list[str]]":
    """Every workload in ``names`` in every mode of ``traces``; prints
    each metric by name with its unit."""
    ledger: dict = {}
    problems: list[str] = []
    for trace in traces:
        kind = "per_layer" if trace else "end_to_end"
        for name in names:
            result, failed = run_workload(name, seed, seconds, trace, out)
            problems += failed
            if result is None:
                continue
            problems += check_names(result, spec[kind], f"{name} --trace {trace}")
            if not result["correct"]:
                problems.append(
                    f"{name}: {result['failed']} of {result['attempted']} failed"
                )
            entry = ledger.setdefault(name, {})
            entry[kind] = result["metrics"]
            entry[f"{kind}_attempted"] = result["attempted"]
            entry[f"{kind}_failed"] = result["failed"]
            print(
                f"{name} ({kind}, seed {seed}, {seconds:g} s): "
                f"attempted {result['attempted']}, failed {result['failed']}"
            )
            for metric, value in result["metrics"].items():
                print(f"  {metric:45s} {value['value']:16.6g} {value['unit']}")
    return ledger, problems


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, help="only this workload")
    parser.add_argument("--seed", type=int, default=2015)
    parser.add_argument(
        "--seconds", type=float, default=float(spec["run_seconds"]),
        help="length of each measured window",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1),
        help="0: end-to-end metrics only, 1: per-layer metrics only",
    )
    parser.add_argument(
        "--sets", type=int, default=1,
        help="run the ledger this many times; 2 compares them",
    )
    parser.add_argument(
        "--out", default=os.path.join(HERE, "out"),
        help="where spans, probe files and result sets are written",
    )
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)

    if args.workload is not None and args.trace is not None:
        # the single run the benchmark contract asks for
        result, problems = run_workload(
            args.workload, args.seed, args.seconds, args.trace, args.out
        )
        if result is not None:
            kind = "per_layer" if args.trace else "end_to_end"
            problems += check_names(result, spec[kind], args.workload)
        for problem in problems:
            print(problem, file=sys.stderr)
        if problems or result is None:
            return 1
        print(json.dumps(result))
        return 0

    selected = [args.workload] if args.workload is not None else names
    traces = (0, 1) if args.trace is None else (args.trace,)
    problems = []
    paths = []
    for index in range(args.sets):
        ledger, failed = run_ledger(
            spec, selected, args.seed, args.seconds, traces, args.out
        )
        problems += failed
        paths.append(os.path.join(args.out, f"results-{index + 1}.json"))
        with open(paths[-1], "w") as handle:
            json.dump(ledger, handle, indent=1)
    for problem in problems:
        print(problem, file=sys.stderr)
    status = 1 if problems else 0
    if args.sets >= 2:
        status |= check_repeat.main(paths[-2:])
    return status


if __name__ == "__main__":
    sys.exit(main())
