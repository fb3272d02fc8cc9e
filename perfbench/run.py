"""Benchmark of the shared-query local attention package (``src/qna``).

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (one process, one closed-loop client, BLAS at 1 thread):

* ``infer_tiny224``: one op is ``forward_inference`` of the tiny preset (f32)
  on one 224 x 224 x 3 image, cycling over a seeded pool of two images.
  The paper's model at the paper's resolution: ten QnA blocks with k = 3
  plus six global-attention blocks, so per-call overhead, head loops,
  matmuls and layernorms matter, and large-k cost does not.
* ``layer_ksweep128``: one op is one ``qna_forward`` on 128 x 128 x 64 f32
  with one head, one query and stride 1; ops cycle through k = 3, 7, 15.
  The paper's complexity claim: time grows with k^2 through the window
  reduction over a 4 MiB map while memory stays flat. With one head and one
  query there is nothing to batch across heads or queries.
* ``train_toy``: one op is one ``run_train_toy(steps=2, lr=0.2, seed)`` call
  (f64, 32 samples of 12 x 12 x 4). The only training path: backward
  dominates and the maps are tiny, so per-call overhead matters, not
  bandwidth.

``--trace 0`` prints the end-to-end metrics: ``ops_per_s`` (timed ops over
the seconds they took), ``latency_ms_p50``, ``latency_ms_p90`` (nearest
rank; the loop runs past ``--seconds`` until at least MIN_SAMPLES ops, so
that ten or more samples lie beyond it), ``setup_s`` (import time plus the
median of SETUP_REPS rebuilds of params, inputs and one warm-up pass),
``peak_rss_mb`` (read before the gate runs) and ``fail_ratio``.

``--trace 1`` alternates untraced and traced passes for ``--seconds``,
wraps the package's public entry points from outside (see spans.py), and
prints per-op layer metrics, the per-block model table, the ledger-vs-heap
audit and ``trace.overhead``. It checks that call counts and computed bytes
repeat exactly in every traced pass, and writes the spans to
``perfbench/out/``.

Every run gates its outputs against the naive oracles (workloads.py). The
last line of stdout is one JSON object: correct, attempted, failed, and the
metrics that BENCHMARK.json registers for the mode. Printed but not
registered: latency_ms_p50, because on a host whose speed switches between
two levels for seconds to minutes a run's latencies are bimodal and their
median jumps between the levels (interquartile range over ten infer_tiny224
runs: 25% of the median, against 17% for ops_per_s and 7% for
latency_ms_p90); fail_ratio, which is 0 on a passing run and is carried by
attempted, failed and correct; and the times of layers that some workload
never calls, which read 0 on every run of it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

# Thread variables the package pins to 1 on import unless already exported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPS = 3
MIN_SAMPLES = 100
# The run must end within 180 s; the loop never runs past this many seconds
# to reach MIN_SAMPLES.
MAX_LOOP_S = 120.0

TINY_BLOCK_ROWS = (
    [f"stage1.block{j}.qna" for j in range(1, 4)]
    + [f"stage2.block{j}.qna" for j in range(1, 5)]
    + [f"stage3.block{j}.vit" for j in range(1, 5)]
    + [f"stage3.block{j}.qna" for j in range(5, 8)]
    + [f"stage4.block{j}.vit" for j in range(1, 3)]
)


LAYER_UNITS = (
    (".calls", "count"), ("ms", "ms"), ("ms_p50", "ms"), (".share", "1"),
    ("_bytes", "B"), (".bytes_computed", "B"), (".gbps_computed", "GB/s"),
    (".gmacs_per_s", "GMAC/s"), ("trace.overhead", "1"), ("oracles.max_abs_err", "1"),
)


def layer_unit(name: str) -> str:
    return next(unit for suffix, unit in LAYER_UNITS if name.endswith(suffix))


def thread_env_problem() -> str | None:
    if "QNA_THREADS" in os.environ:
        return "QNA_THREADS is set; the benchmark runs at the package's default of 1 thread"
    for var in THREAD_VARS:
        if os.environ.get(var, "1") != "1":
            return f"{var}={os.environ[var]}; the benchmark needs it unset or 1"
    return None


def environment() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            names = (ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name"))
            cpu = next(names, cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in ("QNA_THREADS", *THREAD_VARS)},
    }


class Outcomes:
    """Checks every op's output against the first output for its pool item."""

    def __init__(self, same) -> None:
        self.same = same
        self.refs: dict[int, object] = {}
        self.matched: dict[int, int] = {}
        self.attempted = 0
        self.failed = 0
        self.reported = False

    def run(self, fn, i: int) -> int:
        """Call fn(i), record the outcome, return the op's latency in ns."""
        t = time.perf_counter_ns()
        try:
            out = fn(i)
        except Exception:  # an op that raises is a failed op, not a crash
            out = None
            if not self.reported:
                traceback.print_exc()
                self.reported = True
        dt = time.perf_counter_ns() - t
        self.attempted += 1
        if out is None:
            self.failed += 1
        elif i not in self.refs:
            self.refs[i] = out
            self.matched[i] = 1
        elif self.same(self.refs[i], out):
            self.matched[i] += 1
        else:
            self.failed += 1
        return dt

    def gate(self, workload) -> float:
        """Gate each reference; every op that matched a failing one fails."""
        worst = 0.0
        for i, ref in sorted(self.refs.items()):
            try:
                err, ok = workload.gate(i, ref)
            except Exception:
                traceback.print_exc()
                err, ok = float("inf"), False
            worst = max(worst, err)
            if not ok:
                print(f"gate: pool item {i} failed (max_abs_err {err:.3e})")
                self.failed += self.matched[i]
        if len(self.refs) < workload.pool:
            self.failed += 1  # a pool item never produced an output
        return worst


def percentile_nearest_rank(sorted_vals, q: float):
    """(value, number of samples above it) at nearest rank ceil(q * n)."""
    n = len(sorted_vals)
    rank = max(1, math.ceil(round(q * n, 9)))
    return sorted_vals[rank - 1], n - rank


def timed_run(wl, args, import_s: float) -> dict:
    import resource

    outcomes = Outcomes(wl.same)
    reps = []
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        wl.build(args.seed)
        # latencies of warm-up ops are not kept; outputs are checked
        for i in range(wl.pool):
            outcomes.run(wl.op, i)
        reps.append(time.perf_counter() - t)

    lat_ns: list[int] = []
    cap = max(args.seconds, MAX_LOOP_S)
    start = time.perf_counter()
    while True:
        for i in range(wl.pool):
            lat_ns.append(outcomes.run(wl.op, i))
        elapsed = time.perf_counter() - start
        if elapsed >= cap or (elapsed >= args.seconds and len(lat_ns) >= MIN_SAMPLES):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    max_err = outcomes.gate(wl)
    lat_ms = sorted(v / 1e6 for v in lat_ns)
    p90, beyond = percentile_nearest_rank(lat_ms, 0.9)
    metrics = {
        "ops_per_s": (len(lat_ns) / (sum(lat_ns) / 1e9), "op/s"),
        "latency_ms_p50": (statistics.median(lat_ms), "ms"),
        "latency_ms_p90": (p90, "ms"),
        "setup_s": (import_s + statistics.median(reps), "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
    print(f"timed ops: {len(lat_ns)} in {elapsed:.1f} s; p90 has {beyond} samples beyond it"
          + ("" if beyond >= 10 else " (too few: p90 not valid)"))
    print(f"setup: import {import_s:.3f} s, rebuilds {', '.join(f'{r:.3f}' for r in reps)} s")
    print(f"gate: worst abs error vs oracle {max_err:.3e}")
    return metrics, outcomes


def traced_run(wl, args, env: dict) -> dict:
    import audit
    import spans

    outcomes = Outcomes(wl.same)
    wl.build(args.seed)
    for i in range(wl.pool):
        outcomes.run(wl.op, i)

    rec = spans.SpanRecorder()
    root = rec.wrap(wl.root, wl.op, wl.root_attr)
    untraced_ns = traced_ns = 0
    n_untraced = n_traced = 0
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or n_traced == 0:
        for i in range(wl.pool):
            untraced_ns += outcomes.run(wl.op, i)
            n_untraced += 1
        with rec.patched():
            for i in range(wl.pool):
                rec.op = n_traced
                traced_ns += outcomes.run(root, i)
                n_traced += 1

    counts = spans.pass_counts(rec.spans, wl.pool)
    if any(c != counts[0] for c in counts):
        raise RuntimeError("call counts or computed bytes differ between traced passes")
    metrics = spans.layer_metrics(rec.spans, n_traced, wl.root)
    table = []
    if hasattr(wl, "cost_rows"):
        rows = wl.cost_rows()
        if [r.name for r in rows if r.name.endswith((".qna", ".vit"))] != TINY_BLOCK_ROWS:
            raise RuntimeError("the tiny preset's block rows changed; update TINY_BLOCK_ROWS")
        table = spans.block_table(rec.spans, n_traced, rows)
    by_row = {r["name"]: r for r in table}
    for name in TINY_BLOCK_ROWS:
        row = by_row.get(name, {"ms": 0.0, "gmacs_per_s": 0.0})  # 0: no model in this workload
        metrics[f"model.{name}.ms"] = row["ms"]
        metrics[f"model.{name}.gmacs_per_s"] = row["gmacs_per_s"]
    metrics.update(audit.ledger_vs_heap(args.seed))

    untraced_rate = n_untraced / (untraced_ns / 1e9)
    traced_rate = n_traced / (traced_ns / 1e9)
    metrics["trace.overhead"] = (untraced_rate - traced_rate) / untraced_rate
    metrics["oracles.max_abs_err"] = outcomes.gate(wl)

    print(f"traced ops: {n_traced} (plus {n_untraced} untraced, interleaved by pass); "
          f"per-pass counts repeat exactly over {len(counts)} passes: {counts[0]}")
    if table:
        print("per-block table (ms per op, analytic MACs, achieved GMAC/s):")
        for r in table:
            print(f"  {r['name']:<20} {r['ms']:9.3f} ms {r['macs']:>12} MAC "
                  f"{r['gmacs_per_s']:7.2f} GMAC/s")
    for k in (*(f"qna_forward.k{k}" for k in (3, 7, 15)), "qna_backward"):
        led = metrics[f"layer.{k}.ledger_bytes"]
        heap = metrics[f"layer.{k}.heap_peak_bytes"]
        print(f"ledger vs heap, {k}: ledger {led / 1e6:.2f} MB, heap peak minus output "
              f"{heap / 1e6:.2f} MB, gap {(heap - led) / 1e6:+.2f} MB")

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{wl.name}-seed{args.seed}.json")
    with open(path, "w") as f:
        json.dump({"workload": wl.name, "seed": args.seed, "environment": env,
                   "metrics": metrics, "per_block": table, "pass_counts": counts[0],
                   "spans": rec.to_json()}, f)
    print(f"spans written to {os.path.relpath(path)}")
    return {n: (v, layer_unit(n)) for n, v in metrics.items()}, outcomes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = thread_env_problem()
    if problem:
        print(f"refusing to run: {problem}", file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(SRC, "qna")):
        print(f"refusing to run: no package source at {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    registered = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    t = time.perf_counter()
    sys.path.insert(0, SRC)
    import qna  # noqa: F401  (pins the BLAS pools before numpy loads)
    import workloads
    import_s = time.perf_counter() - t

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()
    print(f"workload {wl.name}, seed {args.seed}, trace {args.trace}")
    env = environment()
    print("environment: " + json.dumps(env))
    metrics, outcomes = traced_run(wl, args, env) if args.trace else timed_run(wl, args, import_s)
    metrics["fail_ratio"] = (outcomes.failed / outcomes.attempted, "1")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    doc = {
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in registered},
    }
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
