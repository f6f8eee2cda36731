#!/usr/bin/env python3
"""Gate a change's perfbench records against its parent's.

    python3 tools/perf_diff.py --base REC... --change REC...

Each REC is a full record that perfbench/run.py writes with --trace 0,
.bench_out/<workload>-seed<n>-trace0.json. Every record of one call must
come from one workload and one seed. The metrics, their direction
(`better`) and their `bound` are BENCHMARK.json's `end_to_end` list.
Each side's value of a metric is the median over its records. A metric
regresses when the change is worse than the base by more than
NOISE_FACTOR times its bound, as a ratio (a halved sim_cycles_per_s is
100% worse, like a doubled wall_s), and also by more than the spread
(max - min) of the base records' own values.

Exit status: 0 no regression; 1 a regression, or a metric the base
records have and a change record lacks; 2 bad input.
"""
import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

# BENCHMARK.json's bounds hold between runs on one quiet host. A gate
# on shared CI runners, whose neighbours come and go between the
# parent's runs and the change's, allows twice the bound.
NOISE_FACTOR = 2.0


class BadInput(Exception):
    """Input the comparison cannot be made from (exit 2)."""


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BadInput("cannot read %s: %s" % (path, e))


def load_records(paths):
    records = []
    for path in paths:
        r = load_json(path)
        if not isinstance(r, dict) or \
                not isinstance(r.get("metrics"), dict):
            raise BadInput("%s is not a perfbench record" % path)
        if r.get("trace") != 0:
            raise BadInput("%s is a --trace %s record; the end-to-end "
                           "metrics come from --trace 0"
                           % (path, r.get("trace")))
        if r.get("problems"):
            raise BadInput("%s: the run failed its checks: %s"
                           % (path, "; ".join(map(str, r["problems"]))))
        records.append(r)
    return records


def values(records, name):
    """The metric's value in every record, or None if one lacks it."""
    out = []
    for r in records:
        m = r["metrics"].get(name)
        if not isinstance(m, dict) or not isinstance(m.get("value"),
                                                     (int, float)):
            return None
        out.append(float(m["value"]))
    return out


def worse_fraction(base, change, better):
    """How much worse the change is: 1.0 means twice as slow, whether
    a lower-is-better metric doubled or a higher-is-better one halved."""
    num, den = (change, base) if better == "lower" else (base, change)
    if den <= 0:
        return float("inf") if num > 0 else 0.0
    return num / den - 1.0


def compare(spec, base, change):
    """(report lines, failed) for two lists of records."""
    runs = {(r.get("workload"), r.get("seed")) for r in base + change}
    if len(runs) != 1:
        raise BadInput("records mix workloads or seeds: %s"
                       % sorted(runs, key=str))
    lines, failed = [], False
    for m in spec["end_to_end"]:
        name, better = m["name"], m["better"]
        if better not in ("lower", "higher"):
            raise BadInput("BENCHMARK.json: %s: better must be lower or "
                           "higher" % name)
        b, c = values(base, name), values(change, name)
        if b is None:
            lines.append("%-18s not in every base record; not compared"
                         % name)
            continue
        if c is None:
            lines.append("%-18s MISSING from a change record" % name)
            failed = True
            continue
        bm, cm = statistics.median(b), statistics.median(c)
        worse = cm - bm if better == "lower" else bm - cm
        frac = worse_fraction(bm, cm, better)
        limit = NOISE_FACTOR * m["bound"]
        spread = max(b) - min(b)
        bad = frac > limit and worse > spread
        failed = failed or bad
        lines.append("%-18s base %-12.6g change %-12.6g %+7.1f%% worse "
                     "(limit %.0f%%, base spread %.3g) %s"
                     % (name, bm, cm, 100.0 * frac, 100.0 * limit, spread,
                        "REGRESSION" if bad else "ok"))
    return lines, failed


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", nargs="+", required=True, metavar="REC")
    p.add_argument("--change", nargs="+", required=True, metavar="REC")
    args = p.parse_args(argv)
    try:
        spec = load_json(SPEC_PATH)
        lines, failed = compare(spec, load_records(args.base),
                                load_records(args.change))
    except BadInput as e:
        print("perf_diff: error: %s" % e, file=sys.stderr)
        return 2
    print("\n".join(lines))
    print("perf_diff: %s (medians of %d base and %d change records)"
          % ("REGRESSION" if failed else "ok", len(args.base),
             len(args.change)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
