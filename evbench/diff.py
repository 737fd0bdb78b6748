#!/usr/bin/env python3
"""Per-layer diff of two sets of traced runs.

    python3 evbench/run.py --workload W --seed N --trace 1 >> before.txt
    ... (any number of runs and workloads per file)
    python3 evbench/diff.py before.txt after.txt

Each input file is the concatenated standard output of run.py; every
result is filed under the workload named on its "# workload=" line.
For every metric the output has one row per workload. Count metrics
(every unit that is not a time or a time share) repeat for a given seed
(Gc words per op to ~1e-6), so they are shown exactly, with "=" when
both sides agree. Time metrics are
shown as median [first-third quartile] over the runs of each side,
with the change of the medians against the wider of the two spreads.
"""

import json
import statistics
import sys

TIME_UNITS = {"ns", "us", "ms", "s", "1/s", "ns/ns", "%"}


def load(path):
    runs = {}  # workload -> list of {metric: (value, unit)}
    workload = None
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line.startswith("# workload="):
                workload = line.split()[1].split("=", 1)[1]
            elif line.startswith("{") and workload is not None:
                d = json.loads(line)
                runs.setdefault(workload, []).append(
                    {k: (v["value"], v["unit"]) for k, v in d["metrics"].items()})
    return runs


def summary(vals):
    med = statistics.median(vals)
    if len(vals) < 2:
        return med, 0.0, "%.6g (n=1)" % med
    q = statistics.quantiles(vals, n=4)
    spread = (q[2] - q[0]) / abs(med) if med else 0.0
    return med, spread, "%.6g [%.6g-%.6g]" % (med, q[0], q[2])


def exact(vals):
    distinct = sorted(set(vals))
    if len(distinct) == 1:
        return "%.17g" % distinct[0]
    return "%.6g (varies over %d runs)" % (statistics.median(vals), len(vals))


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        sys.exit(2)
    a, b = load(sys.argv[1]), load(sys.argv[2])
    workloads = sorted(set(a) & set(b))
    if not workloads:
        print("diff.py: no workload appears in both files", file=sys.stderr)
        sys.exit(1)
    metrics = sorted({m for w in workloads for r in a[w] + b[w] for m in r})
    print("%-44s %-10s %-34s %-34s %s" % ("metric", "workload", "A", "B", "change"))
    for m in metrics:
        for w in workloads:
            va = [r[m][0] for r in a[w] if m in r]
            vb = [r[m][0] for r in b[w] if m in r]
            if not va or not vb:
                continue
            unit = next(r[m][1] for r in a[w] if m in r)
            if unit in TIME_UNITS:
                ma, sa, ta = summary(va)
                mb, sb, tb = summary(vb)
                change = (mb - ma) / abs(ma) if ma else 0.0
                if min(len(va), len(vb)) < 2:
                    note = "%+.1f%% (spread unknown: one run)" % (100 * change)
                else:
                    note = "%+.1f%% (spread %.1f%%)" % (100 * change, 100 * max(sa, sb))
                    if abs(change) <= max(sa, sb):
                        note += " within spread"
            else:
                ta, tb = exact(va), exact(vb)
                ma, mb = statistics.median(va), statistics.median(vb)
                if ta == tb:
                    note = "="
                elif ma:
                    note = "%+.4g%%" % (100 * (mb - ma) / abs(ma))
                else:
                    note = "%+.6g" % (mb - ma)
            print("%-44s %-10s %-34s %-34s %s" % (m + " (" + unit + ")", w, ta, tb, note))


if __name__ == "__main__":
    main()
