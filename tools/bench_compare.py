#!/usr/bin/env python3
"""Compare bench JsonRecord lines against a committed baseline.

The bench binaries print one JSON object per measurement (greppable by
'"bench"'); baselines such as BENCH_build_times.json are those lines
committed to the repo. This tool re-keys both sides by their config
fields and flags median-time regressions beyond a threshold:

    bench/bench_table4_cardinality_time > fresh.json
    python3 tools/bench_compare.py BENCH_table4_cardinality_time.json fresh.json

Records name their host in provenance (`nproc`, `cpu_model`, the fields
perfbench stamps). When either side lacks them or they differ, the diff
measures the machine as much as the code: a loud CROSS-HOST line says
so, and deltas beyond the threshold print as `cross-host` instead of
REGRESSED/improved. The numbers and the exit status are unchanged.

Exit status: 0 = no regression, 1 = regression (or invalid input).
--report-only always exits 0 so PR CI can surface the diff without
gating on a noisy runner; the scheduled/main run gates for real.

--validate FILE checks schema only (each line parses, has "bench",
"metrics"/"provenance" are objects when present) — used by the CI
bench-smoke job to keep the records machine-readable.
"""

import argparse
import json
import sys

# Fields that are measurements (or attachments), not identity. A record's
# identity is its bench name plus every remaining config field, so adding
# a new sweep axis automatically splits the comparison space.
_MEASUREMENT_SUFFIXES = ("_s", "_ms", "_us", "_mb", "_bytes", "_per_s",
                         "_count")
# Quality readouts are measurements even when they happen to be integral
# (a sample count, a q-error of exactly 1) — without this they would join
# the record identity and split the comparison whenever quality moves.
_MEASUREMENT_PREFIXES = ("monitor_", "shadow_")
_ATTACHMENTS = {"samples", "metrics", "provenance"}

# Keys gated on regression: medians are stable; the p99 tail is gated too
# for records that carry it (serving benches accumulate thousands of
# per-request samples, so their tail is meaningful). p95 stays
# informational (single-digit sample counts make it too noisy to gate).
_GATE_KEYS = ("median_s", "median_ms", "p99_s", "p99_ms")
# Prefix-gated keys: model-quality readouts attached by the monitoring
# benches (monitor_qerror_p95, monitor_drift_score, ...). Quality regresses
# the same way latency does — a new commit that doubles the monitored
# q-error should trip the same gate as one that doubles the median.
_GATE_PREFIXES = ("monitor_",)


# Provenance fields that identify the measuring host.
_HOST_FIELDS = ("nproc", "cpu_model")


def host(record):
    """(nproc, cpu_model) from the record's provenance, or None."""
    prov = record.get("provenance")
    if not isinstance(prov, dict) or any(f not in prov for f in _HOST_FIELDS):
        return None
    return tuple(prov[f] for f in _HOST_FIELDS)


def fmt_host(h):
    return "unknown host" if h is None else "nproc=%s cpu_model=%r" % h


def _is_measurement(key, value):
    if key in _ATTACHMENTS:
        return True
    if any(key.endswith(s) for s in _MEASUREMENT_SUFFIXES):
        return True
    if key.startswith(_MEASUREMENT_PREFIXES):
        return True
    return isinstance(value, float)


def parse_records(path):
    """Yields dicts for every JSON line in `path` ('-' = stdin).

    Bench stdout mixes banners and table rows with the JSON records;
    anything that does not parse as a JSON object is skipped.
    """
    stream = sys.stdin if path == "-" else open(path, encoding="utf-8")
    try:
        for line in stream:
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(obj, dict) and "bench" in obj:
                yield obj
    finally:
        if stream is not sys.stdin:
            stream.close()


def identity(record):
    parts = [("bench", record["bench"])]
    for key in sorted(record):
        if key == "bench":
            continue
        value = record[key]
        if _is_measurement(key, value):
            continue
        parts.append((key, value))
    return tuple(parts)


def fmt_identity(ident):
    return " ".join("%s=%s" % (k, v) for k, v in ident)


def gate_keys(record):
    for key, value in record.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue
        if (key in _GATE_KEYS or key.endswith("_ms")
                or key.startswith(_GATE_PREFIXES)):
            yield key


def compare(baseline, fresh, threshold, min_seconds):
    base_by_id = {identity(r): r for r in baseline}
    fresh_by_id = {identity(r): r for r in fresh}
    if not base_by_id:
        print("warning: baseline has no JsonRecord lines", file=sys.stderr)
    if not fresh_by_id:
        print("warning: fresh run has no JsonRecord lines", file=sys.stderr)

    regressions = []
    compared = 0
    host_pairs = set()
    for ident, new in sorted(fresh_by_id.items()):
        old = base_by_id.get(ident)
        if old is None:
            print("new (no baseline): %s" % fmt_identity(ident))
            continue
        if "provenance" in new and "provenance" not in old:
            print("note: baseline for %s predates provenance stamping"
                  % fmt_identity(ident))
        hosts = (host(old), host(new))
        cross = None in hosts or hosts[0] != hosts[1]
        if cross and hosts not in host_pairs:
            host_pairs.add(hosts)
            print("CROSS-HOST: baseline on %s, fresh on %s; deltas mix code "
                  "and machine" % (fmt_host(hosts[0]), fmt_host(hosts[1])))
        for key in gate_keys(new):
            if key not in old or not isinstance(old[key], (int, float)):
                continue
            old_v, new_v = float(old[key]), float(new[key])
            if old_v <= 0 or new_v < 0:
                continue
            # Ignore timings below the noise floor: a 0.2us -> 0.3us move
            # is scheduler jitter, not a regression.
            floor = min_seconds * (1000.0 if key.endswith("_ms") else 1.0)
            if old_v < floor and new_v < floor:
                continue
            compared += 1
            ratio = new_v / old_v
            moved = abs(ratio - 1.0) > threshold
            line = "%-10s %s %s: %.6g -> %.6g (%+.1f%%)" % (
                "ok" if not moved else "cross-host" if cross else
                "REGRESSED" if ratio > 1.0 else "improved",
                fmt_identity(ident), key, old_v, new_v, (ratio - 1.0) * 100)
            print(line)
            if ratio > 1.0 + threshold:
                regressions.append(line)
    for ident in sorted(base_by_id):
        if ident not in fresh_by_id:
            print("missing from fresh run: %s" % fmt_identity(ident))

    print("\ncompared %d measurement(s), %d regression(s) beyond %.0f%%"
          % (compared, len(regressions), threshold * 100))
    return regressions


def validate(path):
    """Schema check: returns a list of problems (empty = valid)."""
    problems = []
    count = 0
    for record in parse_records(path):
        count += 1
        where = "%s record %d (bench=%s)" % (path, count,
                                             record.get("bench"))
        if not isinstance(record.get("bench"), str) or not record["bench"]:
            problems.append("%s: \"bench\" must be a non-empty string"
                            % where)
        for key in ("metrics", "provenance"):
            if key in record and not isinstance(record[key], dict):
                problems.append("%s: \"%s\" must be a JSON object"
                                % (where, key))
        prov = record.get("provenance")
        if isinstance(prov, dict):
            for field in ("git_sha", "compiler", "native", "threads"):
                if field not in prov:
                    problems.append("%s: provenance missing \"%s\""
                                    % (where, field))
        if "samples" in record:
            for field in ("median_s", "p95_s", "p99_s"):
                if field not in record:
                    problems.append("%s: has samples but no %s"
                                    % (where, field))
    if count == 0:
        problems.append("%s: no JsonRecord lines found" % path)
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", nargs="?",
                    help="committed BENCH_*.json baseline")
    ap.add_argument("fresh", nargs="?", default="-",
                    help="fresh bench output (file or '-' for stdin)")
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="relative regression gate (default 0.25 = +25%%)")
    ap.add_argument("--min-seconds", type=float, default=1e-6,
                    help="ignore timings where both sides are below this "
                         "many seconds (noise floor, default 1e-6)")
    ap.add_argument("--report-only", action="store_true",
                    help="print the diff but always exit 0")
    ap.add_argument("--validate", metavar="FILE", action="append",
                    default=[],
                    help="schema-validate FILE instead of comparing "
                         "(repeatable)")
    args = ap.parse_args()

    if args.validate:
        problems = []
        for path in args.validate:
            problems.extend(validate(path))
        for p in problems:
            print("invalid: %s" % p, file=sys.stderr)
        if not problems:
            print("validated %d file(s): ok" % len(args.validate))
        return 1 if problems else 0

    if args.baseline is None:
        ap.error("baseline file required (or use --validate)")
    try:
        baseline = list(parse_records(args.baseline))
    except FileNotFoundError:
        # A brand-new bench has no committed baseline yet. That is a note
        # for the reviewer, not a CI failure: list the fresh records so the
        # run is still inspectable, and exit clean.
        print("note: no baseline at %s (new bench?) — report only"
              % args.baseline)
        for record in parse_records(args.fresh):
            print("new (no baseline): %s" % fmt_identity(identity(record)))
        return 0
    regressions = compare(baseline, list(parse_records(args.fresh)),
                          args.threshold, args.min_seconds)
    if regressions and not args.report_only:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
