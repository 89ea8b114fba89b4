#!/usr/bin/env python3
"""Compares two sets of benchmark runs, workload by workload.

    python3 perfbench/compare.py BASE NEW [--benchmark BENCHMARK.json]

BASE and NEW are directories of run records (perfbench/run.py writes one per
run under .bench_build/perfbench/results; copy that directory aside before
measuring the other commit). For each workload and end-to-end metric it
prints both medians and quartiles and a verdict, using the bounds in
BENCHMARK.json:

  regression  NEW's median is worse than BASE's by more than the bound
  unresolved  the run-to-run spread (quartile distance over the median) of
              either side exceeds the bound, and not every NEW run beats
              every BASE run
  better      NEW's median is better by more than BASE's spread
  same        otherwise

A rise in the share of failed operations is flagged on its own. Traced runs
(--trace 1) are listed as per-layer median changes, without verdicts. When
the records' host stamps (nproc, CPU model, compiler, build type) differ, a
warning lists them first: such sets measure different hosts. Exits 1 when
any metric regressed or the failed share rose.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path


def load(where):
    """Records of a file or directory, by (workload, trace), and the set of
    host stamps they carry (without the commit)."""
    paths = [where] if where.is_file() else sorted(where.glob("*.json"))
    runs, hosts = {}, set()
    for path in paths:
        record = json.loads(path.read_text())
        runs.setdefault((record["workload"], record["trace"]), []).append(record)
        host = {k: v for k, v in record.get("host", {}).items() if k != "commit"}
        hosts.add(json.dumps(host, sort_keys=True))
    return runs, hosts


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def verdict(base, new, metric):
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    b_med, _, _, b_spread = summary(base)
    n_med, _, _, n_spread = summary(new)
    worse = (n_med - b_med) / b_med if b_med else 0.0
    if not lower:
        worse = -worse
    all_better = (max(new) < min(base)) if lower else (min(new) > max(base))
    if max(b_spread, n_spread) > bound and not all_better:
        return "unresolved"
    if worse > bound:
        return "regression"
    if all_better or -worse > b_spread:
        return "better"
    return "same"


def failed_share(records):
    attempted = sum(r["attempted"] for r in records)
    return sum(r["failed"] for r in records) / attempted if attempted else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--benchmark", type=Path,
                        default=Path(__file__).resolve().parent.parent /
                        "BENCHMARK.json")
    args = parser.parse_args()
    spec = json.loads(args.benchmark.read_text())
    (base, base_hosts), (new, new_hosts) = load(args.base), load(args.new)
    hosts = base_hosts | new_hosts
    if len(hosts) > 1:
        print("warning: the records come from different hosts or builds:")
        for host in sorted(hosts):
            sides = [side for side, group in (("base", base_hosts),
                                              ("new", new_hosts))
                     if host in group]
            print(f"  {'+'.join(sides):8s} {host}")

    bad = False
    for workload in [w["name"] for w in spec["workloads"]]:
        b_runs, n_runs = base.get((workload, 0)), new.get((workload, 0))
        if not b_runs or not n_runs:
            print(f"{workload}: no end-to-end runs on both sides")
            continue
        print(f"{workload} ({len(b_runs)} base runs, {len(n_runs)} new runs)")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [r["metrics"][name]["value"] for r in b_runs]
            n = [r["metrics"][name]["value"] for r in n_runs]
            outcome = verdict(b, n, metric)
            bad |= outcome == "regression"
            b_med, b_q1, b_q3, _ = summary(b)
            n_med, n_q1, n_q3, _ = summary(n)
            change = (n_med - b_med) / b_med if b_med else 0.0
            print(f"  {name:18s} base {b_med:12.6g} [{b_q1:.6g}, {b_q3:.6g}]"
                  f"  new {n_med:12.6g} [{n_q1:.6g}, {n_q3:.6g}]"
                  f"  {change:+7.1%}  bound {metric['bound']:.0%}  {outcome}")
        b_fail, n_fail = failed_share(b_runs), failed_share(n_runs)
        if n_fail > b_fail:
            bad = True
            print(f"  failed share rose: {b_fail:.3g} -> {n_fail:.3g}")

    for workload in [w["name"] for w in spec["workloads"]]:
        b_runs, n_runs = base.get((workload, 1)), new.get((workload, 1))
        if not b_runs or not n_runs:
            continue
        print(f"{workload} per layer (traced runs)")
        for metric in spec["per_layer"]:
            name = metric["name"]
            b = statistics.median(r["metrics"][name]["value"] for r in b_runs)
            n = statistics.median(r["metrics"][name]["value"] for r in n_runs)
            if b == 0 and n == 0:
                continue
            change = f"{(n - b) / b:+7.1%}" if b else "    new"
            print(f"  {name:36s} {b:12.6g} -> {n:12.6g}  {change}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
