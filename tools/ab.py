"""In-process A/B timing of two source trees of this package.

Loads each tree's ``src/qna`` and its own ``perfbench/workloads.py`` (the
parent as side a, the change as side b, and a second copy of the parent as
side c, an A/A control), builds each side's workload from the same seed,
and times its op over the workload's pool in rounds of a, b, c and then
c, b, a. It prints, per workload, the median and quartiles of the paired
time ratios b/a (and c/a), and how many pairs b won. Pairing within one
process removes the run-to-run spread that separate processes show on a
shared machine.

    python tools/ab.py PARENT_TREE CHANGE_TREE [--pairs 40] [--seed 5]
        [--workload NAME]... [--json OUT]

The ops are the benchmark's own (``Workload.build`` and ``Workload.op``), so
they draw the same inputs as ``perfbench/run.py`` does for the same seed.
BLAS threads are pinned by the package on import, as in the benchmark.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import statistics
import sys
import time

# Loading a tree's perfbench/workloads.py must leave no bytecode there.
sys.dont_write_bytecode = True


def load(tree: str, side: str):
    """The workloads module of ``tree``, run against that tree's package.

    ``workloads.py`` imports ``qna`` by name, so the tree's package is
    imported as ``qna`` while the module loads, and its modules then move to
    ``qna_<side>`` to free the name for the next tree."""
    src = os.path.join(tree, "src")
    sys.path.insert(0, src)
    try:
        importlib.import_module("qna")
        spec = importlib.util.spec_from_file_location(
            f"workloads_{side}", os.path.join(tree, "perfbench", "workloads.py"))
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    finally:
        sys.path.remove(src)
    for name in [m for m in sys.modules if m == "qna" or m.startswith("qna.")]:
        sys.modules[f"qna_{side}{name[3:]}"] = sys.modules.pop(name)
    return workloads


def timed(fn, i: int) -> float:
    t = time.perf_counter()
    fn(i)
    return time.perf_counter() - t


def quartiles(values) -> list[float]:
    return statistics.quantiles(values, n=4, method="inclusive")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, default=40)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--json")
    args = parser.parse_args()

    sides = {"a": load(args.parent, "a"), "b": load(args.change, "b"),
             "c": load(args.parent, "c")}
    report = {}
    for name in args.workload or list(sides["a"].WORKLOADS):
        wls = {s: mod.WORKLOADS[name]() for s, mod in sides.items()}
        for wl in wls.values():
            wl.build(args.seed)
            for i in range(wl.pool):  # warm caches and lazy set-up
                wl.op(i)
        pool = wls["a"].pool
        times = {s: [] for s in sides}
        for p in range(args.pairs):
            # every pool item runs in both orders
            order = "abc" if (p // pool) % 2 == 0 else "cba"
            for s in order:
                times[s].append(timed(wls[s].op, p % pool))
        del wls
        a = times["a"]
        row = {"pairs": args.pairs,
               "ms_quartiles": {s: [1e3 * q for q in quartiles(t)] for s, t in times.items()},
               "ratio_b_a": quartiles([b / x for b, x in zip(times["b"], a)]),
               "ratio_c_a": quartiles([c / x for c, x in zip(times["c"], a)]),
               "b_faster_pairs": sum(b < x for b, x in zip(times["b"], a))}
        report[name] = row
        print(f"{name}: b/a {row['ratio_b_a'][1]:.3f} (IQR {row['ratio_b_a'][0]:.3f}-"
              f"{row['ratio_b_a'][2]:.3f}), b faster in {row['b_faster_pairs']}/{args.pairs}; "
              f"A/A c/a {row['ratio_c_a'][1]:.3f} (IQR {row['ratio_c_a'][0]:.3f}-"
              f"{row['ratio_c_a'][2]:.3f})", flush=True)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)


if __name__ == "__main__":
    main()
