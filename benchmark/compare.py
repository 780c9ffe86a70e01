#!/usr/bin/env python3
"""Compare two bench_report result files against the benchmark's bounds.

    python3 benchmark/compare.py A.json B.json

A is the baseline, B the candidate.  For every (workload, end-to-end
metric) pair it prints both medians, the relative delta (positive = B is
worse), the bound from BENCHMARK.json and a verdict:

    PASS        even B's worse launch quartile is within the bound
    WORSE       even B's better launch quartile is beyond the bound
    UNRESOLVED  B's launch quartiles straddle the bound

op_error_rate is compared absolutely: any increase is WORSE.  Exits 1 if
any pair is WORSE, else 0.
"""
import json
import os
import statistics
import sys


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(a_median, b_values, bound, lower_is_better):
    """Relative delta of B's median and the verdict for one metric."""
    sign = 1.0 if lower_is_better else -1.0

    def worse(x):
        return sign * (x - a_median) / a_median

    delta = worse(statistics.median(b_values))
    lo, hi = sorted(worse(q) for q in quartiles(b_values))
    if hi <= bound:
        return delta, "PASS"
    if lo > bound:
        return delta, "WORSE"
    return delta, "UNRESOLVED"


def main(argv):
    if len(argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, os.pardir, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(argv[1]) as f:
        a = json.load(f)
    with open(argv[2]) as f:
        b = json.load(f)

    rows = []
    for workload, wa in a["workloads"].items():
        wb = b["workloads"].get(workload)
        if wb is None:
            rows.append((workload, "*", "-", "-", "-", "-", "UNRESOLVED"))
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            ma = wa["end_to_end"][name]
            mb = wb["end_to_end"][name]
            if not mb["launches"] or not ma["median"]:
                rows.append((workload, name, ma["median"], mb["median"], "-",
                             m["bound"], "UNRESOLVED"))
                continue
            delta, v = verdict(ma["median"], mb["launches"], m["bound"],
                               m["better"] == "lower")
            rows.append((workload, name, ma["median"], mb["median"],
                         "%+.2f%%" % (100 * delta), m["bound"], v))
        ea, eb = wa["op_error_rate"], wb["op_error_rate"]
        rows.append((workload, "op_error_rate", ea, eb, "%+g" % (eb - ea), 0,
                     "WORSE" if eb > ea else "PASS"))

    print("%-14s %-14s %14s %14s %9s %6s  %s" %
          ("workload", "metric", "A median", "B median", "delta", "bound",
           "verdict"))
    for r in rows:
        cells = ["%.6g" % c if isinstance(c, float) else str(c) for c in r]
        print("%-14s %-14s %14s %14s %9s %6s  %s" % tuple(cells))
    return 1 if any(r[-1] == "WORSE" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
