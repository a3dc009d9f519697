"""Integrity economics: what the checksums cost and what they catch.

Every WAL record and RPC frame carries a CRC-32 (``zlib.crc32``). This
benchmark prices that defense and proves it airtight, writing the CI
gate to ``BENCH_integrity.json``:

- **WAL commit overhead**: CRC share of append+group-commit time under
  the same 1 ms modeled commit barrier ``bench_parallel.py`` pins
  (virtualized ``fsync`` absorbs into the host page cache at 0.1-0.3 ms
  against a production SSD's 0.5-2 ms write barrier, which would
  inflate the checksum's apparent share). Gate: <= 10%.
- **RPC round-trip overhead**: CRC share of a live loopback round trip
  (four checksum passes: encode + verify on each side). Loopback has no
  propagation delay, so this is the checksum's worst case. Gate: <= 5%.
- **Detection rate**: every deterministically corrupted RPC frame is
  caught by the stream decoder, every poisoned WAL record by the replay
  scan — and replay fail-stops instead of applying past the damage.
  Gate: detected == injected, rate == 1.0.
- **Scrub throughput**: keys/s for a full anti-entropy pass over every
  host/slave pair, with every injected silent corruption detected and
  read-repaired, second pass clean. Gate: zero lost keys.

Run with: PYTHONPATH=src python -m pytest benchmarks/bench_integrity.py -q -s
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.runtime.rpc import RpcClient, RpcServer, dispatch_to_methods
from repro.runtime.wal import GroupCommitWal, WalError, replay
from repro.runtime.wire import (
    CALL,
    HEADER_SIZE,
    Request,
    Response,
    StreamDecoder,
    corrupt_frame,
    crc32,
    encode_frame,
)
from repro.tdstore import TDStoreCluster
from repro.tdstore.scrub import ReplicaScrubber

from benchmarks.conftest import SEED, report, report_json

# same modeled write-barrier as bench_parallel.py: group-commit (and
# therefore checksum) economics are priced against a production SSD
# barrier, not this container's page-cache fsync
COMMIT_FLOOR = 0.001
WAL_RECORDS = 4000
GROUP_SIZE = 8

RPC_CALLS = 400

FRAMES_TO_CORRUPT = 64
WAL_RECORDS_TO_POISON = 8

SCRUB_SERVERS = 4
SCRUB_INSTANCES = 16
SCRUB_KEYS = 2000
SCRUB_CORRUPTIONS = 12

# the gates: checksum overhead <= 10% of WAL commit throughput and
# <= 5% of a loopback round trip (no propagation delay, so the
# checksum's worst case)
MAX_WAL_CRC_SHARE = 0.10
MAX_RPC_CRC_SHARE = 0.05


def wal_record(i: int) -> dict:
    return {
        "m": "put",
        "args": [i % SCRUB_INSTANCES, f"itemCount:item-{i}", {"count": float(i)}],
    }


def bench_wal_overhead(tmp_path) -> dict:
    records = [wal_record(i) for i in range(WAL_RECORDS)]
    payloads = [encode_frame(r)[HEADER_SIZE:] for r in records]
    payload_bytes = sum(len(p) for p in payloads)

    start = time.perf_counter()
    for payload in payloads:
        crc32(payload)
    crc_seconds = time.perf_counter() - start

    def run(floor: float) -> float:
        path = str(tmp_path / f"bench-{floor}.wal")
        begin = time.perf_counter()
        with GroupCommitWal(path, commit_floor=floor) as wal:
            for i, record in enumerate(records):
                wal.append(record)
                if i % GROUP_SIZE == GROUP_SIZE - 1:
                    wal.commit()
            wal.commit()
        return time.perf_counter() - begin

    total_seconds = run(COMMIT_FLOOR)
    raw_seconds = run(0.0)  # container-fsync number, context only

    return {
        "records": WAL_RECORDS,
        "payload_bytes": payload_bytes,
        "group_size": GROUP_SIZE,
        "commit_floor_seconds": COMMIT_FLOOR,
        "crc_seconds": round(crc_seconds, 4),
        "total_seconds": round(total_seconds, 4),
        "crc_share": round(crc_seconds / total_seconds, 4),
        "records_per_second": round(WAL_RECORDS / total_seconds, 1),
        "crc_mb_per_second": round(payload_bytes / crc_seconds / 1e6, 2),
        "raw_records_per_second": round(WAL_RECORDS / raw_seconds, 1),
        "raw_crc_share": round(crc_seconds / raw_seconds, 4),
    }


class EchoReceiver:
    def echo(self, value):
        return value


def bench_rpc_overhead() -> dict:
    server = RpcServer(
        dispatch_to_methods(lambda target: EchoReceiver(), {"echo": CALL})
    )
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}
    )
    thread.start()
    client = RpcClient("127.0.0.1", server.port, timeout=5.0)
    value = {"count": 1234.5, "key": "itemCount:item-1234"}
    try:
        client.call("echo", value)  # connect + warm
        start = time.perf_counter()
        for _ in range(RPC_CALLS):
            client.call("echo", value)
        round_trip = (time.perf_counter() - start) / RPC_CALLS
    finally:
        client.close()
        server.stop()
        thread.join(timeout=5.0)

    # the round trip checksums four payloads: request encode (client),
    # request verify (server), response encode (server), response
    # verify (client) — price them against the measured trip
    request_payload = encode_frame(
        Request("echo", (value,), target=None)
    )[HEADER_SIZE:]
    response_payload = encode_frame(Response(value=value))[HEADER_SIZE:]
    reps = 2000
    start = time.perf_counter()
    for _ in range(reps):
        crc32(request_payload)
        crc32(response_payload)
    crc_per_trip = 2 * (time.perf_counter() - start) / reps

    return {
        "calls": RPC_CALLS,
        "round_trip_us": round(round_trip * 1e6, 1),
        "crc_us_per_trip": round(crc_per_trip * 1e6, 2),
        "crc_share": round(crc_per_trip / round_trip, 4),
    }


def bench_detection(tmp_path) -> dict:
    # frames: every deterministically damaged frame trips the decoder
    frames_detected = 0
    decoder = StreamDecoder()
    for i in range(FRAMES_TO_CORRUPT):
        frame = corrupt_frame(encode_frame(wal_record(i)), run=1 + i % 4)
        try:
            decoder.feed(frame)
        except Exception:
            frames_detected += 1
    assert decoder.feed(encode_frame("still synchronized")) == [
        "still synchronized"
    ]

    # WAL: poison complete records mid-log, then replay-scan the file.
    # Replay must fail-stop at the first damaged record, keep scanning
    # to count the rest, and never apply past the damage.
    path = str(tmp_path / "poisoned.wal")
    total, poison_every = 200, 200 // WAL_RECORDS_TO_POISON
    first_poisoned = poison_every - 1
    with open(path, "wb") as fh:
        for i in range(total):
            frame = encode_frame(wal_record(i))
            if i % poison_every == poison_every - 1:
                frame = corrupt_frame(frame, run=8)
            fh.write(frame)
    applied: list = []
    with pytest.raises(WalError) as excinfo:
        replay(path, applied.append)
    wal_detected = excinfo.value.corrupt_records
    # fail-stop: whatever was applied is a prefix of the intact records
    # strictly before the first poisoned one — nothing past the damage
    intact_prefix = [wal_record(i) for i in range(first_poisoned)]
    assert applied == intact_prefix[: len(applied)]

    injected = FRAMES_TO_CORRUPT + WAL_RECORDS_TO_POISON
    detected = frames_detected + wal_detected
    return {
        "frames_injected": FRAMES_TO_CORRUPT,
        "frames_detected": frames_detected,
        "wal_records_injected": WAL_RECORDS_TO_POISON,
        "wal_records_detected": wal_detected,
        "injected": injected,
        "detected": detected,
        "rate": detected / injected,
    }


def bench_scrub() -> dict:
    cluster = TDStoreCluster(
        num_data_servers=SCRUB_SERVERS, num_instances=SCRUB_INSTANCES
    )
    client = cluster.client()
    expected = {}
    for i in range(SCRUB_KEYS):
        key, value = f"itemCount:item-{i}", {"count": float(i)}
        client.put(key, value)
        expected[key] = value
    cluster.sync_replicas()

    table = cluster.config.route_table()
    for i in range(SCRUB_CORRUPTIONS):
        key = f"itemCount:item-{i * (SCRUB_KEYS // SCRUB_CORRUPTIONS)}"
        route = table.route_for_key(key)
        slave = cluster.config.server(route.slave)
        slave.engine(route.instance).put(key, {"count": -1.0})

    scrubber = ReplicaScrubber(cluster)
    start = time.perf_counter()
    first = scrubber.scrub()
    scrub_seconds = time.perf_counter() - start
    second = scrubber.scrub()

    lost = sum(1 for key, value in expected.items() if client.get(key) != value)
    return {
        "servers": SCRUB_SERVERS,
        "instances": SCRUB_INSTANCES,
        "keys": SCRUB_KEYS,
        "corruptions_injected": SCRUB_CORRUPTIONS,
        "corruptions_detected": first.corruptions_detected,
        "keys_repaired": first.keys_repaired,
        "divergent_buckets": first.divergent_buckets,
        "scrub_seconds": round(scrub_seconds, 4),
        "keys_per_second": round(SCRUB_KEYS / scrub_seconds, 1),
        "instances_per_second": round(SCRUB_INSTANCES / scrub_seconds, 2),
        "second_pass_clean": second.clean,
        "lost_keys": lost,
    }


def test_integrity_costs_and_detection(tmp_path):
    wal = bench_wal_overhead(tmp_path)
    rpc = bench_rpc_overhead()
    detection = bench_detection(tmp_path)
    scrub = bench_scrub()

    # the gates CI re-checks from the JSON
    assert wal["crc_share"] <= MAX_WAL_CRC_SHARE
    assert rpc["crc_share"] <= MAX_RPC_CRC_SHARE
    assert detection["rate"] == 1.0
    assert detection["detected"] == detection["injected"]
    assert scrub["corruptions_detected"] == SCRUB_CORRUPTIONS
    assert scrub["second_pass_clean"] is True
    assert scrub["lost_keys"] == 0

    payload = {
        "seed": SEED,
        "max_wal_crc_share": MAX_WAL_CRC_SHARE,
        "max_rpc_crc_share": MAX_RPC_CRC_SHARE,
        "wal": wal,
        "rpc": rpc,
        "detection": detection,
        "scrub": scrub,
    }
    report_json("integrity", payload)

    lines = [
        "Integrity: checksum cost and detection",
        f"  WAL: crc share {wal['crc_share']:.1%} of commit time "
        f"({wal['records_per_second']:.0f} rec/s at "
        f"{COMMIT_FLOOR * 1e3:.0f} ms barrier, group {GROUP_SIZE}; "
        f"crc {wal['crc_mb_per_second']:.1f} MB/s)",
        f"  RPC: crc share {rpc['crc_share']:.1%} of "
        f"{rpc['round_trip_us']:.0f} us loopback round trip",
        f"  detection: {detection['detected']}/{detection['injected']} "
        f"(frames {detection['frames_detected']}, WAL records "
        f"{detection['wal_records_detected']}), rate "
        f"{detection['rate']:.0%}",
        f"  scrub: {scrub['keys_per_second']:.0f} keys/s over "
        f"{SCRUB_SERVERS} servers / {SCRUB_INSTANCES} instances, "
        f"{scrub['corruptions_detected']}/{SCRUB_CORRUPTIONS} silent "
        f"corruptions repaired, second pass clean: "
        f"{scrub['second_pass_clean']}, lost keys: {scrub['lost_keys']}",
    ]
    report("integrity", "\n".join(lines))


if __name__ == "__main__":
    raise SystemExit(
        os.system(
            "PYTHONPATH=src python -m pytest benchmarks/bench_integrity.py -q -s"
        )
    )
