#!/usr/bin/env python3
"""Appends one row to BENCH_perfbench.json from the saved stdout of three
benchmark runs, made at the root of a source checkout:

    python3 perfbench/run.py --workload sweep_quad_online --trace 0 > quad.txt
    python3 perfbench/run.py --workload store_grown --trace 0 > store.txt
    python3 perfbench/run.py --workload sweep_quad_online --trace 1 > trace.txt
    python3 tools/bench_row.py quad.txt store.txt trace.txt

The row holds the runs' revision, each end-to-end workload's scaled
medians and quartiles with its attempted/failed ops, and the traced
run's pinned work counts. It exits 2 and appends nothing when a run is
not correct, the runs measured different sources, or a count drifted.
"""

import json
import os
import sys

PINNED = {"des.events": 69_887_995, "verdict.windows_judged": 232_380,
          "store.records": 49_995}
EXPECTED = (("sweep_quad_online", 0), ("store_grown", 0), (None, 1))
DETAIL = "perfbench-detail: "
LEDGER = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "BENCH_perfbench.json")


def fail(msg):
    print(f"bench_row: {msg}", file=sys.stderr)
    sys.exit(2)


def load(path, workload, trace):
    """The detail and result lines of one saved run.py stdout."""
    with open(path) as f:
        lines = f.read().splitlines()
    details = [json.loads(line[len(DETAIL):]) for line in lines if line.startswith(DETAIL)]
    if not details or not lines[-1].startswith("{"):
        fail(f"{path}: not the stdout of perfbench/run.py")
    detail, result = details[-1], json.loads(lines[-1])
    env = detail["env"]
    if env["trace"] != trace or workload not in (None, env["workload"]):
        fail(f"{path}: expected a --trace {trace} run of {workload or 'any workload'}")
    if not result["correct"]:
        fail(f"{path}: correct: false ({result['failed']} of {result['attempted']} ops failed)")
    return detail, result


def main(paths):
    if len(paths) != len(EXPECTED):
        fail("usage: bench_row.py SWEEP_QUAD_ONLINE.txt STORE_GROWN.txt TRACE.txt")
    runs = [load(path, *want) for path, want in zip(paths, EXPECTED)]
    revisions = {json.dumps(d["env"]["revision"], sort_keys=True) for d, _ in runs}
    if len(revisions) != 1:
        fail(f"the runs measured different sources: {sorted(revisions)}")
    row = {"revision": runs[0][0]["env"]["revision"], "workloads": {}}
    for detail, result in runs[:2]:
        row["workloads"][detail["env"]["workload"]] = {
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: {k: detail["metrics"][name][k] for k in ("q1", "median", "q3")}
                        for name in sorted(result["metrics"])}}
    traced = runs[2][1]
    counts = {name: traced["metrics"].get(name, {}).get("value") for name in PINNED}
    drift = {name: (got, PINNED[name]) for name, got in counts.items() if got != PINNED[name]}
    if drift:
        fail(f"pinned counts drifted (got, want): {drift}")
    row["trace"] = {"attempted": traced["attempted"], "failed": traced["failed"],
                    "counts": counts}
    rows = []
    if os.path.exists(LEDGER):
        with open(LEDGER) as f:
            rows = json.load(f)
    rows.append(row)
    with open(LEDGER, "w") as f:
        f.write(json.dumps(rows, indent=1, sort_keys=True) + "\n")
    print(f"bench_row: appended row {len(rows)} to {os.path.normpath(LEDGER)}")


if __name__ == "__main__":
    main(sys.argv[1:])
