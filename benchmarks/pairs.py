"""Paired parent/change runs of the end-to-end benchmark, summarised.

``python3 benchmarks/pairs.py <parent-rev>`` extracts the committed files
of ``<parent-rev>`` into a temporary directory (``git archive``; removed
at exit) and runs each side's own ``benchmarks/e2e/run.py --trace 0``
alternately, parent and change, for ``--pairs`` pairs per workload at
``--seed``; the side that runs first alternates from pair to pair. The
change is this checkout's working tree. Then ``--unseen-pairs`` pairs at
``--unseen-seed``, and with ``--trace [N]`` N traced pairs (default 1)
per workload at ``--seed``. Before each pair it times the host's speed,
the median of three ``trace.calibration_ms`` loops, and records it with
every run of that pair.

It writes ``benchmarks/results/pairs/<change>-vs-<parent>.json`` (every
run and the summary) and ``.md`` (the summary as tables), adding ``-2``,
``-3``, ... to the name rather than replace an earlier set, and prints
the JSON path as the last line of its output. Per workload and end-to-end
row the summary gives each side's median and quartiles, the ratio
change/parent, wins out of pairs in the row's ``better`` direction from
``BENCHMARK.json`` (ties count for neither side), whether every change
run beats every parent run, by how much the change's median is worse
than the parent's and whether that stays within the row's bound, and
whether every run was correct. The traced pass compares the exact-repeat
rows of ``check_repeat.exact_metrics`` across all its runs, and
summarises the per-layer rows the same way, without bounds.

A gain is *claimable* on a row when the change wins at least nine in ten
pairs and the medians differ, in the better direction, by more than the
distance between the parent's quartiles.

Exits 1 when any run was incorrect or failed. Stdlib only; no network.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)  # run as a script: make the package importable

from benchmarks.e2e.check_repeat import exact_metrics  # noqa: E402
from benchmarks.e2e.trace import calibration_ms  # noqa: E402

RUN = os.path.join("benchmarks", "e2e", "run.py")
RUN_TIMEOUT = 900.0  # run.py allows each workload child 150 s
WIN_SHARE = 0.9


# -- the summary (pure) -------------------------------------------------------


def quartiles(values: "list[float]") -> "tuple[float, float, float]":
    """(lower quartile, median, upper quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def _side(values: "list[float]") -> dict:
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def compare_row(
    parent: "list[float | None]",
    change: "list[float | None]",
    better: str,
    bound: "float | None" = None,
) -> dict:
    """One metric over aligned pairs: ``parent[i]`` ran beside
    ``change[i]``. A ``None`` is a run that reported nothing; it loses
    its pair and is left out of the medians."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = len(parent)
    wins = sum(
        p is not None and c is not None and sign * (c - p) > 0.0
        for p, c in zip(parent, change)
    )
    p_values = [v for v in parent if v is not None]
    c_values = [v for v in change if v is not None]
    row = {"better": better, "pairs": pairs, "wins": wins}
    if not p_values or not c_values:
        return row | {
            "parent": None, "change": None, "ratio": None,
            "every_beats_every": False, "worse_by": None,
            "within_bound": None if bound is None else False,
            "claimable": False,
        }
    p_side, c_side = _side(p_values), _side(c_values)
    p_median, c_median = p_side["median"], c_side["median"]
    if better == "higher":
        every = min(c_values) > max(p_values)
    else:
        every = max(c_values) < min(p_values)
    # > 0: the change is worse by that share of the parent's median
    if p_median:
        worse_by = -sign * (c_median - p_median) / abs(p_median)
    else:
        worse_by = 0.0 if c_median == p_median else None
    parent_spread = p_side["q3"] - p_side["q1"]
    return row | {
        "parent": p_side,
        "change": c_side,
        "ratio": c_median / p_median if p_median else None,
        "every_beats_every": every and len(p_values) == len(c_values) == pairs,
        "worse_by": worse_by,
        "within_bound": (
            None if bound is None else worse_by is not None and worse_by <= bound
        ),
        "claimable": (
            wins >= WIN_SHARE * pairs
            and sign * (c_median - p_median) > parent_spread
        ),
    }


def exact_differences(runs: "list[dict]", names: "set[str]") -> dict:
    """Exact-repeat rows whose value is not the same in every run:
    ``{metric: {"parent": [...], "change": [...]}}``."""
    differing = {}
    for name in sorted(names):
        values = {
            side: [run["metrics"].get(name) for run in runs if run["side"] == side]
            for side in ("parent", "change")
        }
        if len({*values["parent"], *values["change"]}) > 1:
            differing[name] = values
    return differing


def run_ok(run: dict) -> bool:
    return bool(run["correct"]) and run["failed"] == 0


def summarize(runs: "list[dict]", spec: dict) -> dict:
    """The whole report from recorded runs.

    A run is ``{"phase", "seed", "workload", "side", "pair", "correct",
    "attempted", "failed", "metrics": {name: value}}``; ``phase`` is
    ``seed``, ``unseen`` or ``trace``, ``side`` is ``parent`` or
    ``change``. A phase's rows are the end-to-end rows, the trace
    phase's the per-layer rows.
    """
    report: dict = {}
    for phase in ("seed", "unseen", "trace"):
        in_phase = [r for r in runs if r["phase"] == phase]
        if not in_phase:
            continue
        rows = spec["per_layer" if phase == "trace" else "end_to_end"]
        workloads = {}
        for workload in dict.fromkeys(r["workload"] for r in in_phase):
            mine = [r for r in in_phase if r["workload"] == workload]
            by_side = {
                side: {r["pair"]: r for r in mine if r["side"] == side}
                for side in ("parent", "change")
            }
            pair_ids = sorted(set(by_side["parent"]) & set(by_side["change"]))
            entry: dict = {
                "pairs": len(pair_ids),
                "correct": all(run_ok(r) for r in mine),
                "runs": {side: len(by_side[side]) for side in by_side},
                "rows": {
                    row["name"]: compare_row(
                        *(
                            [
                                by_side[side][i]["metrics"].get(row["name"])
                                for i in pair_ids
                            ]
                            for side in ("parent", "change")
                        ),
                        row["better"],
                        row.get("bound"),
                    )
                    for row in rows
                },
            }
            if phase == "trace":
                entry["exact_differences"] = exact_differences(
                    [r for r in mine if run_ok(r)], exact_metrics(workload)
                )
                entry["exact_equal"] = entry["correct"] and not (
                    entry["exact_differences"]
                )
            workloads[workload] = entry
        report[phase] = {"seed": in_phase[0]["seed"], "workloads": workloads}
    return report


# -- markdown -----------------------------------------------------------------


def _num(value: "float | None") -> str:
    if value is None:
        return "–"
    return f"{value:,.4g}" if abs(value) < 1000 else f"{value:,.0f}"


def _cell(side: "dict | None") -> str:
    if side is None:
        return "–"
    if side["q1"] == side["q3"]:
        return _num(side["median"])
    return f"{_num(side['median'])} [{_num(side['q1'])}–{_num(side['q3'])}]"


def render(report: dict) -> str:
    head = report["settings"]
    speeds = [
        r["calibration_ms"] for r in report.get("runs", ()) if "calibration_ms" in r
    ]
    speed = (
        f"`calibration_ms` {min(speeds):.1f}–{max(speeds):.1f} before the "
        "pairs; " if speeds else ""
    )
    lines = [
        f"# `{head['change']}` vs `{head['parent']}`",
        "",
        f"`benchmarks/pairs.py`, per workload: {head['pairs']} pairs at seed "
        f"{head['seed']}, {head['unseen_pairs']} at seed {head['unseen_seed']}, "
        f"{head['trace']} traced at seed {head['seed']}; {head['seconds']:g} s "
        f"windows; {speed}change = {head['change_desc']}. "
        "Median [quartiles]; wins = pairs the change "
        "won in the row's better direction; *every* = every change run beats "
        "every parent run; *worse* = how much worse the change's median is "
        "than the parent's (negative: better); *gain* = wins ≥ 9/10 and the "
        "medians differ by more than the parent's quartile distance.",
    ]
    for phase, summary in report["summary"].items():
        traced = phase == "trace"
        for workload, entry in summary["workloads"].items():
            lines += [
                "",
                f"## {workload}, {phase} pass (seed {summary['seed']}, "
                f"{entry['pairs']} pairs, "
                f"{'all correct' if entry['correct'] else 'NOT ALL CORRECT'})",
                "",
            ]
            if traced:
                lines += [
                    "Exact-repeat rows: "
                    + (
                        "equal in every run."
                        if entry["exact_equal"]
                        else "DIFFER: " + json.dumps(entry["exact_differences"])
                    ),
                    "",
                ]
            lines += [
                "| metric | parent | change | ratio | wins | every | worse "
                + ("|" if traced else "| bound | gain |"),
                "|---|---:|---:|---:|---:|:-:|---:|" + ("" if traced else ":-:|:-:|"),
            ]
            for name, row in entry["rows"].items():
                cells = [
                    f"`{name}`", _cell(row["parent"]), _cell(row["change"]),
                    _num(row["ratio"]), f"{row['wins']}/{row['pairs']}",
                    "yes" if row["every_beats_every"] else "",
                    "–" if row["worse_by"] is None else f"{row['worse_by']:+.1%}",
                ]
                if not traced:
                    cells += [
                        "ok" if row["within_bound"] else "BREACH",
                        "yes" if row["claimable"] else "",
                    ]
                lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


# -- running ------------------------------------------------------------------


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def extract(rev: str, into: str):
    """The committed files of ``rev``, as the benchmark checks them out
    (an archive rather than a worktree: nothing is registered in the
    repository, so an interrupted run leaves nothing to prune)."""
    os.makedirs(into)
    archive = into + ".tar"
    git("archive", "--format=tar", f"--output={archive}", rev)
    subprocess.run(["tar", "-xf", archive, "-C", into], check=True)
    os.remove(archive)


def run_once(root: str, workload: str, seed: int, seconds: float, trace: int,
             out: str) -> dict:
    """One ``run.py`` call in the checkout at ``root``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    command = [
        sys.executable, RUN, "--workload", workload, "--seed", str(seed),
        "--seconds", f"{seconds:g}", "--trace", str(trace), "--out", out,
    ]
    started = time.monotonic()
    try:
        done = subprocess.run(
            command, cwd=root, env=env, capture_output=True, text=True,
            timeout=RUN_TIMEOUT,
        )
        exit_code, stdout, stderr = done.returncode, done.stdout, done.stderr
    except subprocess.TimeoutExpired:
        exit_code, stdout, stderr = None, "", f"no result in {RUN_TIMEOUT:.0f} s"
    record = {
        "exit": exit_code, "wall_s": round(time.monotonic() - started, 2),
        "correct": False, "attempted": 0, "failed": None, "metrics": {},
    }
    try:
        result = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return record | {"stderr": stderr[-2000:]}
    return record | {
        "correct": exit_code == 0 and bool(result["correct"]),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def host_speed_ms() -> float:
    """The median of three calibration loops: how fast this host runs
    pure python right now (lower is faster)."""
    return round(statistics.median(calibration_ms() for __ in range(3)), 2)


def plan(args) -> "list[tuple[str, int, int, int]]":
    """``(phase, seed, pairs, trace)`` passes, in the order they run."""
    passes = [("seed", args.seed, args.pairs, 0)]
    if args.unseen_pairs:
        passes.append(("unseen", args.unseen_seed, args.unseen_pairs, 0))
    if args.trace:
        passes.append(("trace", args.seed, args.trace, 1))
    return passes


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    parser.add_argument("parent", help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=10,
                        help="untraced pairs per workload at --seed")
    parser.add_argument("--workloads", nargs="+", choices=names, default=names,
                        help="workloads of BENCHMARK.json to run")
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="window length of every run")
    parser.add_argument("--seed", type=int, default=2015, help="workload seed")
    parser.add_argument("--unseen-seed", type=int, default=7,
                        help="seed of the unseen-seed pass")
    parser.add_argument("--unseen-pairs", type=int, default=2,
                        help="untraced pairs per workload at --unseen-seed")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        metavar="N", help="add N traced pairs per workload")
    parser.add_argument("--out", default=os.path.join(HERE, "results", "pairs"),
                        help="where the .json and .md go")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.unseen_pairs < 0 or args.trace < 0:
        parser.error("--pairs must be >= 1, --unseen-pairs and --trace >= 0")

    parent = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    head = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    change = head[:7] + ("-dirty" if dirty else "")
    settings = {
        "parent": parent[:7], "parent_rev": parent, "change": change,
        "change_desc": f"working tree at {head[:7]}"
        + (" plus uncommitted changes" if dirty else ""),
        "pairs": args.pairs, "seed": args.seed, "seconds": args.seconds,
        "unseen_seed": args.unseen_seed, "unseen_pairs": args.unseen_pairs,
        "trace": args.trace, "workloads": args.workloads,
        "python": sys.version.split()[0], "cpus": os.cpu_count(),
    }
    os.makedirs(args.out, exist_ok=True)
    stem = base = os.path.join(args.out, f"{change}-vs-{parent[:7]}")
    for count in itertools.count(2):
        if not os.path.exists(stem + ".json"):
            break
        stem = f"{base}-{count}"
    workdir = tempfile.mkdtemp(prefix="pairs-")
    runs: list[dict] = []
    try:
        parent_root = os.path.join(workdir, "parent")
        extract(parent, parent_root)
        roots = {"parent": parent_root, "change": ROOT}
        for phase, seed, pairs, trace in plan(args):
            for pair in range(pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                speed = host_speed_ms()
                for workload in args.workloads:
                    for side in order:
                        out = os.path.join(workdir, f"out-{side}")
                        record = run_once(
                            roots[side], workload, seed, args.seconds, trace, out
                        )
                        runs.append({
                            "phase": phase, "seed": seed, "workload": workload,
                            "side": side, "pair": pair, "first": order[0],
                            "calibration_ms": speed,
                        } | record)
                        print(
                            f"[{phase} {seed}] pair {pair + 1}/{pairs} "
                            f"{workload} {side}: exit {record['exit']}, "
                            f"{'correct' if run_ok(record) else 'INCORRECT'}, "
                            f"{record['wall_s']:.0f} s",
                            file=sys.stderr, flush=True,
                        )
                        # rewritten after every run: an interrupted
                        # run keeps what it measured
                        report = {
                            "settings": settings, "runs": runs,
                            "summary": summarize(runs, spec),
                        }
                        with open(stem + ".json", "w") as handle:
                            json.dump(report, handle, indent=1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(stem + ".md", "w") as handle:
        handle.write(render(report))
    print(stem + ".json")
    return 0 if all(run_ok(r) for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
