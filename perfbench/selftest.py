#!/usr/bin/env python3
"""Benchmark self-test at the tiny size (a few seconds per run).

    python3 perfbench/selftest.py [--workloads point,fanin,served,live]

For every workload, with --trace 0 and --trace 1:
  * the result line has exactly the keys correct/attempted/failed/metrics,
    and the metrics are exactly the ones BENCHMARK.json names for that
    mode, each with its unit;
  * nothing failed, except in `live`, where wrong index answers across
    replacing updates (ROADMAP item 4) are counted as failures: there
    every failure must be one, and their number is not compared between
    runs, because the reads per rebuild cycle follow the clock;
  * a second run with the same seed reproduces the count and quality
    metrics exactly (scan width, shares, q-error, FPR, bytes,
    generations) and every other failure count.
Exit code 1 if anything did not hold.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

# Metrics that depend only on the seed, never on timing.
EXACT = {
    0: ["card_qerror_mean", "bloom_fpr", "struct_bytes"],
    1: ["core.index_scan_width", "core.index_aux_share",
        "core.card_aux_share", "core.bloom_backup_share",
        "updatable.generations"],
}


def run(workload, trace, seed):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-3000:])
        sys.exit("FAIL %s trace=%d: exit %d" % (workload, trace, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["provenance"]["checks"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="point,fanin,served,live")
    ap.add_argument("--seed", type=int, default=5)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    for w in args.workloads.split(","):
        for trace in (0, 1):
            want = {m["name"]: m["unit"]
                    for m in spec["per_layer" if trace else "end_to_end"]}
            a, checks_a = run(w, trace, args.seed)
            b, checks_b = run(w, trace, args.seed)
            tag = "%s trace=%d" % (w, trace)
            if sorted(a) != ["attempted", "correct", "failed", "metrics"]:
                errors.append("%s: result keys %s" % (tag, sorted(a)))
            tolerated = checks_a["index_wrong"] if w == "live" else 0
            if a["attempted"] < 1 or a["failed"] != tolerated or \
                    a["correct"] != (a["failed"] == 0):
                errors.append("%s: correct=%s failed=%d attempted=%d checks=%s"
                              % (tag, a["correct"], a["failed"], a["attempted"],
                                 checks_a))
            if w == "live":
                checks_a.pop("index_wrong")
                checks_b.pop("index_wrong")
            if checks_a != checks_b:
                errors.append("%s: failures %s vs %s" % (tag, checks_a, checks_b))
            got = {k: v["unit"] for k, v in a["metrics"].items()}
            if got != want:
                errors.append("%s: metrics/units differ from BENCHMARK.json: "
                              "missing %s, extra %s"
                              % (tag, sorted(set(want) - set(got)),
                                 sorted(set(got) - set(want))))
            for m in EXACT[trace]:
                va = a["metrics"][m]["value"]
                vb = b["metrics"][m]["value"]
                if va != vb:
                    errors.append("%s: %s not reproduced (%r vs %r)"
                                  % (tag, m, va, vb))
            print("%-20s %s" % (tag, "ok" if not errors else "errors so far: %d"
                                % len(errors)), flush=True)
    for e in errors:
        print("FAIL " + e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
