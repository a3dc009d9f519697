"""Compare two result sets of ``run.py`` metric by metric.

``python3 benchmarks/e2e/check_repeat.py a.json b.json`` prints one row
per (metric, workload) with both values and the relative gap. An
end-to-end metric breaches when the sets differ by more than its bound in
``BENCHMARK.json``; an exact-repeat count breaches when it differs at
all; other per-layer metrics are shown and never breach. Exits non-zero
on any breach. ``run.py --sets 2`` calls this on its two sets.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

# Counts over the fixed cycles that open a traced run: they must repeat
# exactly between runs of the same code and seed.
EXACT = {
    "storm.tuples_per_event",
    "storm.trees_failed",
    "tdstore.calls_per_event",
    "tdstore.ops_deduped",
    "tdstore.route_refreshes",
    "serving.invalidations_per_window",
    "retrieval.centroids",
    "retrieval.posting_p99",
    "resilience.breaker_rejections",
    "resilience.deadline_misses",
} | {
    f"topology.{component}.executed_per_event"
    for component in (
        "pretreatment", "userHistory", "itemCount", "pairCount", "simList",
        "groupCount",
    )
}
# exact on the process substrate too: requests and WAL records of the
# bracketed ingest calls
EXACT_PROCESS = EXACT | {
    "runtime.rpc_requests_per_event",
    "runtime.worker_rpc_requests_per_event",
    "runtime.wal_records_per_event",
}


def exact_metrics(workload: str) -> "set[str]":
    return EXACT_PROCESS if workload.endswith("_process") else EXACT


def compare(first: dict, second: dict, spec: dict) -> "tuple[list[str], int]":
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    rows, breaches = [], 0
    for workload in sorted(set(first) & set(second)):
        for kind in ("end_to_end", "per_layer"):
            a_metrics = first[workload].get(kind, {})
            b_metrics = second[workload].get(kind, {})
            for metric in a_metrics:
                if metric not in b_metrics:
                    continue
                a = a_metrics[metric]["value"]
                b = b_metrics[metric]["value"]
                gap = abs(b - a) / max(abs(a), abs(b)) if a != b else 0.0
                if metric in bounds:
                    limit = f"{bounds[metric]:.2f}"
                    ok = gap <= bounds[metric]
                elif metric in exact_metrics(workload):
                    limit = "exact"
                    ok = a == b
                else:
                    limit = "-"
                    ok = True
                breaches += not ok
                rows.append(
                    f"{workload:15s} {metric:42s} {a:14.6g} {b:14.6g} "
                    f"{gap:8.4f} {limit:>6s} {'ok' if ok else 'BREACH'}"
                )
    return rows, breaches


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        first = json.load(handle)
    with open(argv[1]) as handle:
        second = json.load(handle)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    rows, breaches = compare(first, second, spec)
    print(
        f"{'workload':15s} {'metric':42s} {'first':>14s} {'second':>14s} "
        f"{'gap':>8s} {'bound':>6s}"
    )
    for row in rows:
        print(row)
    print(f"{breaches} breach(es) over {len(rows)} rows")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
