"""In-process A/B timing of two source trees of this package.

Loads ``<tree>/src/qna`` of each tree as its own package (``qna_a``,
``qna_b``, and a second copy of the first tree, ``qna_c``, as an A/A
control), builds the same inputs for each from one seed, and times the
benchmark workloads' ops in rounds of a, b, c and then c, b, a. It
prints, per workload, the median and quartiles of the paired time ratios
b/a (and c/a), and how many pairs b won. Pairing within one process removes
the run-to-run spread that separate processes show on a shared machine.

    python tools/ab.py PARENT_TREE CHANGE_TREE [--pairs 40] [--seed 5] [--json OUT]

Each op mirrors the workload of the same name in ``perfbench/``:
``infer_tiny224`` (forward_inference of the tiny preset, f32, 224 x 224),
``layer_ksweep128`` (one qna_forward on 128 x 128 x 64 f32, k cycling
3, 7, 15) and ``train_toy`` (run_train_toy, two steps at lr 0.2). BLAS runs
on one thread, as in the benchmark.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402


def load(name: str, tree: str):
    """Import ``tree/src/qna`` as the package ``name``."""
    path = os.path.join(tree, "src", "qna")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(path, "__init__.py"), submodule_search_locations=[path])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    for sub in ("cli", "layer", "model"):
        importlib.import_module(f"{name}.{sub}")
    return pkg


def ops(pkg, seed: int):
    """One op per workload, each over the same inputs for every package."""
    rng = np.random.default_rng(seed)
    model = pkg.model.build_model("tiny", seed=seed, dtype=np.float32)
    image = rng.standard_normal((224, 224, 3)).astype(np.float32)
    x = rng.standard_normal((128, 128, 64)).astype(np.float32)
    layers = []
    for k in (3, 7, 15):
        cfg = pkg.layer.QnAConfig(k=k, stride=1, heads=1, num_queries=1, dim_in=64, dim_out=64)
        layers.append((cfg, pkg.layer.init_params(cfg, seed + k, dtype=np.float32)))
    ks = iter(range(10**9))
    return {
        "infer_tiny224": lambda: pkg.model.forward_inference(model, image),
        "layer_ksweep128": lambda: pkg.layer.qna_forward(x, *layers[next(ks) % 3]),
        "train_toy": lambda: pkg.cli.run_train_toy(2, 0.2, seed),
    }


def timed(fn) -> float:
    t = time.perf_counter()
    fn()
    return time.perf_counter() - t


def quartiles(values) -> list[float]:
    return [float(q) for q in np.percentile(values, [25, 50, 75])]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, default=40)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--json")
    args = parser.parse_args()

    sides = {"a": load("qna_a", args.parent), "b": load("qna_b", args.change),
             "c": load("qna_c", args.parent)}
    built = {s: ops(pkg, args.seed) for s, pkg in sides.items()}
    report = {}
    for name in args.workload or list(built["a"]):
        fns = {s: built[s][name] for s in sides}
        for fn in fns.values():  # warm caches and lazy set-up
            fn(), fn()
        times = {s: [] for s in sides}
        for p in range(args.pairs):
            order = "abc" if p % 2 == 0 else "cba"
            for s in order:
                times[s].append(timed(fns[s]))
        a = np.array(times["a"])
        row = {"pairs": args.pairs,
               "ms_quartiles": {s: [1e3 * q for q in quartiles(t)] for s, t in times.items()},
               "ratio_b_a": quartiles(np.array(times["b"]) / a),
               "ratio_c_a": quartiles(np.array(times["c"]) / a),
               "b_faster_pairs": int(np.sum(np.array(times["b"]) < a))}
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
