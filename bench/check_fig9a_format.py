#!/usr/bin/env python3
"""Fail when the modelled Fig. 9(a) format rows drift from a reference.

Usage:

    python3 bench/check_fig9a_format.py <committed BENCH_fig9a.json> \
        <fresh BENCH_fig9a.json>

The `format` section of BENCH_fig9a.json holds the modelled average
transaction time of each storage format. It comes from a serial,
seeded run, so any change is a change to the OLTP cost model, not
noise. Only `avg_txn_ns` of the `format` rows is compared; host
wall-clock (`host_ns`) and the worker-scaling rows are never compared.
"""

import json
import sys


def format_rows(path):
    with open(path) as f:
        rows = json.load(f)["rows"]
    return {r["system"]: r["avg_txn_ns"] for r in rows
            if r["section"] == "format"}


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    want = format_rows(sys.argv[1])
    got = format_rows(sys.argv[2])
    if not want:
        print(f"no format rows in {sys.argv[1]}", file=sys.stderr)
        return 1
    ok = want.keys() == got.keys()
    for system in sorted(want.keys() | got.keys()):
        w, g = want.get(system), got.get(system)
        mark = "ok" if w == g else "CHANGED"
        ok = ok and w == g
        print(f"{system:16} committed {w}  now {g}  {mark}")
    if not ok:
        print("modelled Fig. 9(a) avg_txn_ns differ from the committed "
              "BENCH_fig9a.json", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
