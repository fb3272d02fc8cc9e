"""Paired A/B timing of two source trees of this package, one process per tree.

Runs each tree's ``src/qna`` and its own ``perfbench/workloads.py`` in a
worker process of its own: the parent as side a, the change as side b, and
a second worker on the parent as side c, an A/A control. Each worker builds
its side's workload from the same seed and warms it up; the workers then
time one op each in turn, driven in lock-step over pipes, in rounds of a,
b, c and then c, b, a, so that only one side runs at a time and every pool
item runs in both orders. Separate processes keep one tree's heap and page
faults out of the other's. Fresh workers are started for each workload.

The workloads are those of the parent's ``BENCHMARK.json`` unless named.
Per workload it prints and (with ``--json``) writes, for each side, the
median and p90 op time, the minor page faults per timed op (``ru_minflt``)
and the worker's peak RSS (``ru_maxrss``); and the paired time ratios b/a
and c/a with their quartiles and how many pairs the first side won.

    python tools/ab.py PARENT_TREE CHANGE_TREE [--pairs 40] [--seed 5]
        [--workload NAME]... [--json OUT]

The ops are the benchmark's own (``Workload.build`` and ``Workload.op``), so
they draw the same inputs as ``perfbench/run.py`` does for the same seed.
BLAS threads are pinned by the package on import, as in the benchmark.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import multiprocessing
import os
import resource
import statistics
import sys
import time

# Loading a tree's package and perfbench/workloads.py must leave no bytecode
# there. Workers import this module first, so this holds in them too.
sys.dont_write_bytecode = True

SIDES = "abc"


def worker(tree: str, name: str, seed: int, conn) -> None:
    """Serve ``name``'s ops from ``tree`` over ``conn``: the pool size once
    the workload is built and warm, then (seconds, minor faults) per
    requested op, and ru_maxrss (KiB) when sent None."""
    sys.path.insert(0, os.path.join(tree, "src"))
    spec = importlib.util.spec_from_file_location(
        "workloads", os.path.join(tree, "perfbench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)  # imports qna first, which pins BLAS threads
    wl = workloads.WORKLOADS[name]()
    wl.build(seed)
    for i in range(wl.pool):  # warm caches and lazy set-up
        wl.op(i)
    conn.send(wl.pool)
    while (i := conn.recv()) is not None:
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t = time.perf_counter()
        wl.op(i)
        t = time.perf_counter() - t
        conn.send((t, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults))
    conn.send(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def quartiles(values) -> list[float]:
    return statistics.quantiles(values, n=4, method="inclusive")


def paired(times, base) -> dict:
    ratios = [t / b for t, b in zip(times, base)]
    return {"quartiles": quartiles(ratios), "faster": sum(t < b for t, b in zip(times, base))}


def run_workload(trees: dict, name: str, seed: int, pairs: int) -> dict:
    ctx = multiprocessing.get_context("spawn")
    conns, procs = {}, []
    for side, tree in trees.items():
        conns[side], child = ctx.Pipe()
        procs.append(ctx.Process(target=worker, args=(tree, name, seed, child)))
        procs[-1].start()
        child.close()  # so that a worker's exit ends the parent's recv with EOFError
    try:
        pool = {side: conn.recv() for side, conn in conns.items()}["a"]
        times = {side: [] for side in trees}
        faults = {side: [] for side in trees}
        for p in range(pairs):
            for side in SIDES if (p // pool) % 2 == 0 else SIDES[::-1]:
                conns[side].send(p % pool)
                t, f = conns[side].recv()
                times[side].append(t)
                faults[side].append(f)
        rss = {}
        for side, conn in conns.items():
            conn.send(None)
            rss[side] = conn.recv()
    finally:
        # A worker waiting for its next op takes the closed pipe as EOFError
        # and exits, so a failed worker ends the run instead of hanging it.
        for conn in conns.values():
            conn.close()
        for proc in procs:
            proc.join()
    row = {"pairs": pairs, "sides": {}}
    for side in trees:
        ms = [1e3 * t for t in times[side]]
        row["sides"][side] = {
            "median_ms": statistics.median(ms),
            "p90_ms": statistics.quantiles(ms, n=10, method="inclusive")[8],
            "minflt_per_op": statistics.fmean(faults[side]),
            "maxrss_mib": rss[side] / 1024,
        }
    row["ratio_b_a"] = paired(times["b"], times["a"])
    row["ratio_c_a"] = paired(times["c"], times["a"])
    return row


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, default=40)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--json")
    args = parser.parse_args()

    trees = {"a": args.parent, "b": args.change, "c": args.parent}
    with open(os.path.join(args.parent, "BENCHMARK.json")) as f:
        names = args.workload or [w["name"] for w in json.load(f)["workloads"]]
    report = {}
    for name in names:
        row = report[name] = run_workload(trees, name, args.seed, args.pairs)
        for side, s in row["sides"].items():
            print(f"{name} {side}: median {s['median_ms']:.2f} ms, p90 {s['p90_ms']:.2f} ms, "
                  f"{s['minflt_per_op']:.0f} minor faults/op, maxrss {s['maxrss_mib']:.1f} MiB")
        for key, won in (("ratio_b_a", "b"), ("ratio_c_a", "c")):
            q = row[key]["quartiles"]
            print(f"{name} {key[-3:].replace('_', '/')}: {q[1]:.3f} (IQR {q[0]:.3f}-{q[2]:.3f}), "
                  f"{won} faster in {row[key]['faster']}/{args.pairs}", flush=True)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)


if __name__ == "__main__":
    main()
