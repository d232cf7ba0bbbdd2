#!/usr/bin/env python3
"""Steadiness report: runs workloads repeatedly and prints, per metric, the
median, the quartiles and the spread (Q3 - Q1) / median, the statistic the
benchmark's bounds are checked against.

    python3 perfbench/steadiness.py [--workloads point,live] [--runs 10] \
        [--first-seed 1] [--trace 0] [--save runs.json] [--against old.json]

--workloads defaults to the workloads BENCHMARK.json names.
Each run uses its own seed (first-seed, first-seed + 1, ...). An
end-to-end metric whose spread exceeds its bound is flagged FAIL; one
above a third of its bound is flagged "wide". --save writes every value; --against compares medians with
an earlier --save file and flags any end-to-end metric whose median got
worse by more than its bound. Exit code 1 if anything failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit("run failed: %s seed %d" % (workload, seed))
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["provenance"]


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--save")
    ap.add_argument("--against")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    older = {}
    if args.against:
        with open(args.against) as f:
            older = json.load(f)

    saved = {}
    ok = True
    for w in workloads:
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            res, prov = run_once(w, seed, seconds, args.trace)
            print("%s seed %d: correct=%s attempted=%d failed=%d load=%.2f->%.2f"
                  % (w, seed, res["correct"], res["attempted"], res["failed"],
                     prov["loadavg_start"][0], prov["loadavg_end"][0]),
                  flush=True)
            ok = ok and res["correct"] and res["failed"] == 0
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        saved[w] = values
        print("\n%s (%d runs)" % (w, args.runs))
        print("%-38s %12s %12s %12s %8s %6s  %s"
              % ("metric", "median", "q1", "q3", "spread", "bound", "flag"))
        for name, vals in values.items():
            med, q1, q3, s = spread(vals)
            b = bounds.get(name)
            flag = ""
            if b is not None:
                if s > b["bound"]:
                    flag, ok = "FAIL", False
                elif s > b["bound"] / 3:
                    flag = "wide"
                if name in older.get(w, {}):
                    old = statistics.median(older[w][name])
                    worse = (med - old) / old if b["better"] == "lower" \
                        else (old - med) / old
                    flag += " vs-old %+.3f" % worse
                    if worse > b["bound"]:
                        flag, ok = flag + " WORSE", False
            print("%-38s %12.6g %12.6g %12.6g %8.4f %6s  %s"
                  % (name, med, q1, q3, s, b["bound"] if b else "-", flag))
        print(flush=True)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
