#!/usr/bin/env python3
"""Schema check for BENCH_serving.json (emitted by bench/bench_serving.cc).

Usage: check_bench_serving.py [--require-socket] FILE [FILE...]

Validates every file: required keys, the machine it ran on (nproc and the
worker pool's size, both positive integers), the one serving mode
"snapshot" on every entry, all five canonical mixes present, numeric sanity
(non-negative, percentiles monotone p50 <= p99 <= p999 <= max). Every entry
carries its transport:
"inproc" (threads calling the Connectivity facade directly, client_processes
= 0) or "socket" (forked client processes speaking the wire protocol to a
live connectit_server over a Unix socket, client_processes > 0). With
--require-socket, every mix must additionally have a socket entry — the CI
gate that the multi-process harness keeps producing end-to-end numbers.
Exits non-zero with a message on the first violation, so CI catches a
harness regression that silently stops emitting a mix, a transport, or a
field.
"""

import json
import sys

REQUIRED_TOP = {"bench", "nodes", "readers", "nproc", "pool_workers",
                "mixes"}
REQUIRED_ENTRY = {
    "mix", "mode", "transport", "client_processes", "offered_ops_per_sec",
    "achieved_ops_per_sec", "ops", "batches", "edges_ingested",
    "edges_erased", "p50_us", "p99_us", "p999_us", "max_us",
}
EXPECTED_MIXES = {"read_mostly", "write_heavy", "bursty", "zipfian",
                  "delete_heavy"}
EXPECTED_MODE = "snapshot"
EXPECTED_TRANSPORTS = {"inproc", "socket"}


def fail(path, msg):
    print(f"{path}: {msg}", file=sys.stderr)
    sys.exit(1)


def check(path, require_socket):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(path, f"unreadable or invalid JSON: {e}")

    missing = REQUIRED_TOP - doc.keys()
    if missing:
        fail(path, f"missing top-level keys: {sorted(missing)}")
    if doc["bench"] != "serving":
        fail(path, f'bench is {doc["bench"]!r}, expected "serving"')
    for key in ("nodes", "readers", "nproc", "pool_workers"):
        if not isinstance(doc[key], int) or doc[key] <= 0:
            fail(path, f"{key} must be a positive integer")
    if not isinstance(doc["mixes"], list) or not doc["mixes"]:
        fail(path, "mixes must be a non-empty list")

    inproc_mixes = set()  # mixes with an inproc entry
    socket_mixes = set()  # mixes with a socket entry
    for i, entry in enumerate(doc["mixes"]):
        where = f"mixes[{i}]"
        missing = REQUIRED_ENTRY - entry.keys()
        if missing:
            fail(path, f"{where}: missing keys {sorted(missing)}")
        if entry["mode"] != EXPECTED_MODE:
            fail(path, f'{where}: mode must be {EXPECTED_MODE!r}, got '
                       f'{entry["mode"]!r}')
        if entry["transport"] not in EXPECTED_TRANSPORTS:
            fail(path, f'{where}: unknown transport {entry["transport"]!r}')
        for key in REQUIRED_ENTRY - {"mix", "mode", "transport"}:
            value = entry[key]
            if not isinstance(value, (int, float)) or value < 0:
                fail(path, f"{where}: {key} must be a non-negative number")
        if entry["ops"] == 0:
            fail(path, f"{where}: no operations recorded")
        if not (entry["p50_us"] <= entry["p99_us"] <= entry["p999_us"]
                <= entry["max_us"]):
            fail(path, f"{where}: percentiles not monotone")
        if entry["mix"] == "delete_heavy" and entry["edges_erased"] == 0:
            fail(path, f"{where}: delete_heavy mix recorded no erases")
        if entry["transport"] == "socket":
            # Socket entries measure the live server; client_processes is
            # the forked client count.
            if entry["client_processes"] == 0:
                fail(path, f"{where}: socket entry with no client processes")
            socket_mixes.add(entry["mix"])
        else:
            if entry["client_processes"] != 0:
                fail(path, f"{where}: inproc entry claims client processes")
            inproc_mixes.add(entry["mix"])

    if not EXPECTED_MIXES <= inproc_mixes:
        fail(path, f"missing mixes: {sorted(EXPECTED_MIXES - inproc_mixes)}")
    if require_socket and not EXPECTED_MIXES <= socket_mixes:
        fail(path, f"missing socket-transport entries for mixes: "
                   f"{sorted(EXPECTED_MIXES - socket_mixes)}")
    print(f"{path}: ok ({len(doc['mixes'])} entries, "
          f"{len(socket_mixes)} mixes over socket)")


def main():
    args = sys.argv[1:]
    require_socket = "--require-socket" in args
    paths = [a for a in args if a != "--require-socket"]
    if not paths:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    for path in paths:
        check(path, require_socket)


if __name__ == "__main__":
    main()
