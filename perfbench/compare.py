#!/usr/bin/env python3
"""Compare two result sets of the benchmark (a parent and a change).

Usage:
    python3 perfbench/compare.py PARENT CHANGE [--benchmark BENCHMARK.json]

PARENT and CHANGE are files or directories holding captured standard
output of benchmark runs, e.g.

    for s in 1 2 3 4 5 6 7 8 9 10; do
      cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
        --workload git_audit --seed $s --seconds 35 --trace 0 > parent/git_audit-$s.txt
    done

Each run prints a `perfbench-meta {...}` line (workload, seed, trace)
followed by its JSON result line; every such pair found is used.

For every (workload, end-to-end metric) the comparator prints each
side's median with its quartiles and a verdict against the metric's
bound in BENCHMARK.json:

  worse       the change's median is worse than the parent's by more
              than the bound;
  better      the change wins at least 9 of 10 seed-paired runs and the
              medians differ by more than the parent's own quartile
              spread;
  unresolved  a side's quartile spread exceeds the bound and not every
              change run beats (or loses to) every parent run;
  within      none of the above: no regression beyond the bound.

The open-loop p99 from each run's meta line is listed without a verdict
(it is measured but not gated; see README.md). Traced runs (--trace 1)
are listed as per-layer medians without verdicts.
"""

import json
import os
import statistics
import sys


def runs_in(path):
    """Yields (meta, result) for every run captured under `path`."""
    files = []
    if os.path.isdir(path):
        for root, _, names in os.walk(path):
            files.extend(os.path.join(root, n) for n in sorted(names))
    else:
        files.append(path)
    for name in sorted(files):
        meta = None
        with open(name, encoding="utf-8", errors="replace") as f:
            for line in f:
                line = line.strip()
                if line.startswith("perfbench-meta "):
                    meta = json.loads(line[len("perfbench-meta "):])
                elif meta is not None and line.startswith("{") and '"metrics"' in line:
                    yield meta, json.loads(line)
                    meta = None


def collect(path):
    """{(trace, workload): {metric: {seed: value}}}"""
    out = {}
    for meta, result in runs_in(path):
        key = (int(meta["trace"]), meta["workload"])
        for name, m in result["metrics"].items():
            out.setdefault(key, {}).setdefault(name, {})[meta["seed"]] = m["value"]
        p99 = meta.get("open_loop", {}).get("p99_ms")
        if key[0] == 0 and p99 is not None:
            out[key].setdefault("p99_ms", {})[meta["seed"]] = p99
    return out


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, better, bound):
    p = list(parent.values())
    c = list(change.values())
    p1, pm, p3 = quartiles(p)
    c1, cm, c3 = quartiles(c)
    sign = 1.0 if better == "lower" else -1.0
    # Positive: the change is worse by this share of the parent median.
    worse_by = sign * (cm - pm) / pm if pm else 0.0
    p_spread = (p3 - p1) / pm if pm else 0.0
    c_spread = (c3 - c1) / cm if cm else 0.0
    all_better = all(sign * (x - y) < 0 for x in c for y in p)
    all_worse = all(sign * (x - y) > 0 for x in c for y in p)
    if p_spread > bound or c_spread > bound:
        if all_better:
            return "better", worse_by
        if all_worse:
            return "worse", worse_by
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    pairs = [(parent[s], change[s]) for s in parent if s in change]
    wins = sum(1 for a, b in pairs if sign * (b - a) < 0)
    if pairs and wins >= 0.9 * len(pairs) and abs(cm - pm) > (p3 - p1):
        return "better", worse_by
    return "within", worse_by


def main(argv):
    args = [a for a in argv if not a.startswith("--")]
    bench_path = "BENCHMARK.json"
    if "--benchmark" in argv:
        bench_path = argv[argv.index("--benchmark") + 1]
        args.remove(bench_path)
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(bench_path, encoding="utf-8") as f:
        bench = json.load(f)
    parent, change = collect(args[0]), collect(args[1])
    fmt = "{:<16} {:<16} {:>28} {:>28} {:>8}  {}"
    show = lambda xs: "%.4g/%.4g/%.4g" % quartiles(list(xs.values()))
    print(fmt.format("workload", "metric", "parent q1/med/q3", "change q1/med/q3", "worse%", "verdict"))
    for w in bench["workloads"]:
        for m in bench["end_to_end"]:
            p = parent.get((0, w["name"]), {}).get(m["name"], {})
            c = change.get((0, w["name"]), {}).get(m["name"], {})
            if not p or not c:
                print(fmt.format(w["name"], m["name"], "-", "-", "-", "missing runs"))
                continue
            v, worse_by = verdict(p, c, m["better"], m["bound"])
            print(fmt.format(w["name"], m["name"], show(p), show(c), "%+.1f" % (100 * worse_by), v))
        p = parent.get((0, w["name"]), {}).get("p99_ms", {})
        c = change.get((0, w["name"]), {}).get("p99_ms", {})
        if p and c:
            print(fmt.format(w["name"], "p99_ms", show(p), show(c), "", "not gated"))
    for w in bench["workloads"]:
        p = parent.get((1, w["name"]), {})
        c = change.get((1, w["name"]), {})
        if not p and not c:
            continue
        print("\nper-layer medians, %s (parent -> change)" % w["name"])
        for m in bench["per_layer"]:
            pv = list(p.get(m["name"], {}).values())
            cv = list(c.get(m["name"], {}).values())
            med = lambda xs: "%.4g" % statistics.median(xs) if xs else "-"
            print("  {:<34} {:>12} -> {:<12} {}".format(m["name"], med(pv), med(cv), m["unit"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
