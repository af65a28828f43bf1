#!/usr/bin/env python3
"""Compare two sets of perfbench results, metric by metric and layer by layer.

Each set is a directory of captured runs (one file per run, holding the
standard output of one `perfbench` invocation) or a single such file.
Runs are grouped by workload and by traced/untraced; for every metric the
tool prints the median and quartiles of each set, the change of the
medians, and the metric's bound from BENCHMARK.json.

    python3 perfbench/bench_diff.py BASE_DIR NEW_DIR
    python3 perfbench/bench_diff.py RUNS_DIR          # one set: spreads only

With one set, the spread (interquartile range over median) of every
end-to-end metric is shown against its bound. With two, a metric whose
new median is worse than the base median by more than its bound is
marked REGRESSED, and the exit status is 1; a metric whose base spread
exceeds its bound is marked unresolved.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec(path):
    with open(path) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    layers = {m["name"]: m for m in spec["per_layer"]}
    return bounds, layers


def parse_run(path):
    """(workload, traced, result) of one captured run, or None."""
    with open(path) as f:
        lines = [line.strip() for line in f if line.strip()]
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    workload, traced = "?", False
    for line in lines:
        if line.startswith('{"provenance"'):
            prov = json.loads(line)["provenance"]
            workload, traced = prov["workload"], bool(prov["trace"])
    return workload, traced, result


def load_set(path):
    """{(workload, traced): {metric: [values]}}, plus run and failure counts."""
    files = (
        [os.path.join(path, n) for n in sorted(os.listdir(path))]
        if os.path.isdir(path)
        else [path]
    )
    groups, runs, bad = {}, 0, 0
    for name in files:
        if not os.path.isfile(name):
            continue
        run = parse_run(name)
        if run is None:
            continue
        workload, traced, result = run
        runs += 1
        if not result["correct"] or result["failed"]:
            bad += 1
        metrics = groups.setdefault((workload, traced), {})
        for metric, entry in result["metrics"].items():
            metrics.setdefault(metric, []).append(float(entry["value"]))
    return groups, runs, bad


def summary(values):
    """(median, q1, q3) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def spread(values):
    med, q1, q3 = summary(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def fmt(x):
    return f"{x:.6g}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", help="directory (or file) of captured runs")
    parser.add_argument("new", nargs="?", help="second set to compare against base")
    parser.add_argument(
        "--spec",
        default=os.path.join(HERE, "..", "BENCHMARK.json"),
        help="BENCHMARK.json with the bounds (default: the repository's)",
    )
    args = parser.parse_args()
    bounds, layers = load_spec(args.spec)
    base, base_runs, base_bad = load_set(args.base)
    print(f"base: {base_runs} runs, {base_bad} incorrect")
    new = None
    if args.new:
        new, new_runs, new_bad = load_set(args.new)
        print(f"new:  {new_runs} runs, {new_bad} incorrect")
    regressed = False
    for key in sorted(set(base) | set(new or {})):
        workload, traced = key
        print(f"\n== {workload} ({'traced' if traced else 'untraced'}) ==")
        names = list(bounds) if not traced else list(layers)
        b_metrics = base.get(key, {})
        n_metrics = (new or {}).get(key, {})
        for name in names + sorted(set(b_metrics) - set(names)):
            unit = (bounds.get(name) or layers.get(name) or {}).get("unit", "")
            spec = bounds.get(name)
            bound = spec["bound"] if spec else None
            cells = [f"{name:<28}", f"{unit:<6}"]
            bv = b_metrics.get(name)
            if bv:
                med, q1, q3 = summary(bv)
                cells.append(f"base {fmt(med):>10} [{fmt(q1)}, {fmt(q3)}] n={len(bv)}")
            else:
                cells.append("base -")
            if new is None:
                if bv and bound is not None:
                    s = spread(bv)
                    verdict = "ok" if s <= bound / 3 else ("within bound" if s <= bound else "TOO NOISY")
                    cells.append(f"spread {s:.4f} bound {bound} -> {verdict}")
                print("  ".join(cells))
                continue
            nv = n_metrics.get(name)
            if nv:
                med_n, q1n, q3n = summary(nv)
                cells.append(f"new {fmt(med_n):>10} [{fmt(q1n)}, {fmt(q3n)}] n={len(nv)}")
            else:
                cells.append("new -")
            if bv and nv:
                med_b = summary(bv)[0]
                change = (med_n - med_b) / abs(med_b) if med_b else 0.0
                cells.append(f"change {change:+.2%}")
                if spec:
                    worse = change if spec["better"] == "lower" else -change
                    if spread(bv) > bound:
                        verdict = "unresolved"
                    elif worse > bound:
                        verdict = "REGRESSED"
                        regressed = True
                    else:
                        verdict = "ok"
                    cells.append(f"bound {bound} {verdict}")
            print("  ".join(cells))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
