"""Command-line interface: verification, benchmarking, cost accounting,
heatmap rendering, and a toy training demo.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O error.
All randomness is seeded via --seed (default 42).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import bench as bench_mod
from .layer import (
    QnAConfig,
    QnAParams,
    attention_heatmap,
    init_params,
    qna_backward,
    qna_forward,
    qna_vjp,
)
from .model import build_model, count_flops, count_params, forward_inference, make_arch
from .oracles import finite_diff_grad, qna_window_oracle
from .tensor import (
    DTYPE_TAGS,
    NumericalRangeError,
    QnatFormatError,
    ShapeError,
    load_qnat,
    make_rng,
)

_GRID_TOL = {"f64": 1e-10, "f32": 1e-5}
# Samples per layer call in the toy trainer. One call per 16 samples instead
# of one per sample removes the per-call overhead that dominated a step; all
# 32 samples in one call ran at about the same speed, but the batch-sized
# temporaries of the backward raised the peak RSS of a 12 x 12 x 4 training
# process from 39.7 to 41.2 MiB (38.4 MiB with one call per sample).
TRAIN_SLICE = 16


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def _check_grid_dims(grid: str):
    if grid == "small":
        return (1, 3, 5), (1, 2), (1, 2), (1, 2), ((4, 5), (5, 4))
    sizes = tuple((h, w) for h in range(4, 9) for w in range(4, 9))
    return (1, 3, 5, 7), (1, 2), (1, 2, 4), (1, 2, 3), sizes


def _run_oracle_grid(grid: str, dtype_tag: str, seed: int, out=None) -> bool:
    out = sys.stdout if out is None else out  # late-bound so redirection works
    ks, strides, heads_list, query_counts, sizes = _check_grid_dims(grid)
    tol = _GRID_TOL[dtype_tag]
    dt = DTYPE_TAGS[dtype_tag]
    rng = make_rng(seed)
    ok = True
    dim_in, dim_out = 5, 8
    for k in ks:
        for stride in strides:
            for h in heads_list:
                for L in query_counts:
                    for hh, ww in sizes:
                        cfg = QnAConfig(k=k, stride=stride, heads=h, num_queries=L,
                                        dim_in=dim_in, dim_out=dim_out)
                        params = init_params(cfg, rng, dtype=dt)
                        # keep relative bias and mixing active, not at init zeros
                        params.bias[...] = rng.standard_normal(params.bias.shape).astype(dt) * 0.3
                        params.mix[...] = (rng.standard_normal(params.mix.shape).astype(dt) * 0.2
                                           + np.asarray(1.0 / L, dtype=dt))
                        x = rng.standard_normal((hh, ww, dim_in)).astype(dt)
                        got = qna_forward(x, cfg, params)
                        want = qna_window_oracle(x, cfg, params)
                        err = float(np.max(np.abs(got - want)))
                        name = f"grid k={k} stride={stride} h={h} L={L} H={hh} W={ww} {dtype_tag}"
                        if err < tol:
                            print(f"PASS {name} max_err={err:.3e}", file=out)
                        else:
                            print(f"FAIL {name} max_err={err:.3e} tol={tol:.0e}", file=out)
                            ok = False
    return ok


def _run_gradcheck(seed: int, out=None) -> bool:
    out = sys.stdout if out is None else out
    cfg = QnAConfig(k=3, stride=1, heads=2, num_queries=2, dim_in=6, dim_out=4)
    rng = make_rng(seed)
    params = init_params(cfg, rng, dtype=np.float64)
    params.bias[...] = rng.standard_normal(params.bias.shape) * 0.2
    params.mix[...] = rng.standard_normal(params.mix.shape) * 0.1 + 0.5
    x = rng.standard_normal((4, 4, cfg.dim_in))
    d_out = rng.standard_normal((4, 4, cfg.dim_out))

    grads = qna_backward(x, cfg, params, d_out).tensors()
    tensors = {"input": x, **params.tensors()}

    ok = True
    for name, target in tensors.items():
        def f(v, _n=name):
            t = {**tensors, _n: v}
            return float(np.sum(d_out * qna_forward(t.pop("input"), cfg, QnAParams(**t))))
        numeric = finite_diff_grad(f, target, 1e-5)
        denom = max(float(np.max(np.abs(numeric))), 1e-12)
        rel = float(np.max(np.abs(grads[f"d_{name}"] - numeric))) / denom
        tag = f"gradcheck {name}"
        if rel < 1e-4:
            print(f"PASS {tag} max_rel_err={rel:.3e}", file=out)
        else:
            print(f"FAIL {tag} max_rel_err={rel:.3e} tol=1e-04", file=out)
            ok = False
    return ok


def _run_tiny_model_check(seed: int, out=None) -> bool:
    out = sys.stdout if out is None else out
    model = build_model("tiny", seed=seed, dtype=np.float32)
    rng = make_rng(seed + 1)
    image = rng.standard_normal((64, 64, 3)).astype(np.float32)
    a = forward_inference(model, image)
    b = forward_inference(model, image, qna_fn=qna_window_oracle)
    err = float(np.max(np.abs(a - b)))
    if err < 1e-4:
        print(f"PASS tiny-model oracle swap max_err={err:.3e}", file=out)
        return True
    print(f"FAIL tiny-model oracle swap max_err={err:.3e} tol=1e-04", file=out)
    return False


def _cmd_check(args) -> int:
    if args.grid == "tiny-model":
        return 0 if _run_tiny_model_check(args.seed) else 1
    ok = _run_oracle_grid(args.grid, args.dtype, args.seed)
    if args.dtype == "f64":
        ok = _run_gradcheck(args.seed) and ok
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def _parse_input_spec(text: str):
    parts = text.lower().split("x")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"--input must look like 256x256x64, got {text!r}")
    try:
        h, w, d = (int(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"--input must be integers HxWxD, got {text!r}") from exc
    if min(h, w, d) < 1:
        raise argparse.ArgumentTypeError("--input dims must be positive")
    return h, w, d


def _parse_int_list(text: str):
    try:
        values = tuple(int(p) for p in text.split(",") if p)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a comma-separated int list, got {text!r}") from exc
    if not values or min(values) < 1:
        raise argparse.ArgumentTypeError("list entries must be positive integers")
    return values


def _parse_impls(text: str):
    values = tuple(p for p in text.split(",") if p)
    for v in values:
        if v not in bench_mod.IMPLS:
            raise argparse.ArgumentTypeError(
                f"unknown impl {v!r}; choose from {', '.join(bench_mod.IMPLS)}"
            )
    if not values:
        raise argparse.ArgumentTypeError("--impls must name at least one implementation")
    return values


def _cmd_bench(args) -> int:
    # the BLAS thread width was fixed when the package was imported
    h, w, d = args.input
    cases = bench_mod.default_cases(H=h, W=w, D=d, dtype=args.dtype,
                                    impls=args.impls, k_values=args.k)

    def progress(row):
        print(
            f"{row.impl} k={row.k}: mean={row.latency_ms_mean:.2f} ms "
            f"std={row.latency_ms_std:.2f} median={row.latency_ms_median:.2f} "
            f"peak_extra_bytes={row.peak_extra_bytes} macs={row.mac_count}"
        )

    rows = bench_mod.run_sweep(cases, seed=args.seed, progress=progress)
    try:
        bench_mod.emit_csv(rows, args.out)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------


def _print_report(report, label: str, show_params: bool, show_flops: bool) -> None:
    print(f"== {label} ==")
    name_w = max(len(r.name) for r in report.rows)
    for r in report.rows:
        cols = [r.name.ljust(name_w)]
        if show_params:
            cols.append(f"params={r.params:>12}")
        if show_flops:
            cols.append(f"macs={r.flops:>14}")
        print("  " + "  ".join(cols))
    if show_params:
        print(f"  total params: {report.params} ({report.params / 1e6:.3f} M)")
    if show_flops:
        print(f"  total macs:   {report.flops} ({report.flops / 1e9:.3f} G)")


def _cmd_model(args) -> int:
    if args.resolution % 32 != 0 or args.resolution <= 0:
        print(f"error: resolution {args.resolution} is not divisible by 32", file=sys.stderr)
        return 2
    model = build_model(args.variant, seed=args.seed, dtype=np.float32)
    show_params = args.report in ("params", "both")
    show_flops = args.report in ("flops", "both")
    report = count_flops(model, args.resolution) if show_flops else count_params(model)
    if args.json:
        doc = asdict(report)
        doc["variant"] = args.variant
        doc["resolution"] = args.resolution
        if not show_params:
            doc.pop("params")
            for row in doc["rows"]:
                row.pop("params")
        if not show_flops:
            doc.pop("flops")
            for row in doc["rows"]:
                row.pop("flops")
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    _print_report(report, f"{args.variant} @ {args.resolution}", show_params, show_flops)
    return 0


# ---------------------------------------------------------------------------
# viz
# ---------------------------------------------------------------------------


def _write_pgm(path, values: np.ndarray) -> None:
    """P5 grayscale, min-max normalized to 0..255 (flat maps become black)."""
    h, w = values.shape
    lo = float(values.min())
    hi = float(values.max())
    if hi > lo:
        scaled = np.round((values - lo) * (255.0 / (hi - lo)))
    else:
        scaled = np.zeros_like(values)
    data = scaled.astype(np.uint8).tobytes()
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(data)


def _cmd_viz(args) -> int:
    try:
        x = load_qnat(args.input)
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return 3
    except QnatFormatError as exc:
        print(f"error: {args.input}: {exc}", file=sys.stderr)
        return 3
    if x.ndim != 3:
        print(f"error: viz input must be rank 3 (H x W x D), got rank {x.ndim}", file=sys.stderr)
        return 2
    d = x.shape[2]
    heads = 2 if d % 2 == 0 else 1
    try:
        cfg = QnAConfig(k=args.k, stride=1, heads=heads, num_queries=2, dim_in=d, dim_out=d)
        params = init_params(cfg, args.seed, dtype=x.dtype.type)
        heats = {f"attn_q{l}_h{g}.pgm": attention_heatmap(x, cfg, params, l, g)
                 for l in range(cfg.num_queries) for g in range(cfg.heads)}
    except (ShapeError, NumericalRangeError) as exc:
        print(f"error: viz: {exc}", file=sys.stderr)
        return 2
    try:
        os.makedirs(args.out, exist_ok=True)
        for name, heat in heats.items():
            _write_pgm(os.path.join(args.out, name), heat)
    except OSError as exc:
        print(f"error: cannot write under {args.out}: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {len(heats)} heatmaps to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# train-toy
# ---------------------------------------------------------------------------


def _make_toy_dataset(rng, n_samples: int = 32, size: int = 12, channels: int = 4):
    """Balanced binary set: half the samples carry a strong 3x3 local motif
    at a random position on top of unit noise, half are pure noise."""
    motif = rng.standard_normal((3, 3, channels)) + 1.5
    xs = rng.standard_normal((n_samples, size, size, channels))
    labels = np.zeros(n_samples, dtype=np.int64)
    labels[: n_samples // 2] = 1
    for i in range(n_samples // 2):
        r = int(rng.integers(0, size - 2))
        c = int(rng.integers(0, size - 2))
        xs[i, r : r + 3, c : c + 3, :] += motif
    perm = rng.permutation(n_samples)
    return xs[perm], labels[perm]


def run_train_toy(steps: int, lr: float, seed: int, log=None):
    """Full-batch SGD on the motif-detection task, one layer call per
    TRAIN_SLICE samples: ``qna_vjp`` in the training steps, whose pullback
    reuses its forward's maps, and ``qna_forward`` for the final loss.
    Returns (initial_loss, final_loss, per-step loss trace)."""
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    rng = make_rng(seed)
    xs, labels = _make_toy_dataset(rng)
    n, size, _, channels = xs.shape
    n_classes = 2
    cfg = QnAConfig(k=3, stride=1, heads=2, num_queries=2, dim_in=channels, dim_out=8)
    params = init_params(cfg, rng, dtype=np.float64)
    # The survey-scale init (std 0.02) puts two near-zero projections in
    # series ahead of the loss; their product starves the gradient within the
    # 200-step budget. Redraw the projections at O(1/sqrt(fan-in)) scale.
    tensors = params.tensors()
    tensors["w_k"][...] = rng.standard_normal(tensors["w_k"].shape) * 0.5
    tensors["w_v"][...] = rng.standard_normal(tensors["w_v"].shape) * 0.5
    tensors["w_o"][...] = rng.standard_normal(tensors["w_o"].shape) * 0.35
    head_w = rng.standard_normal((cfg.dim_out, n_classes)) * 0.35
    head_b = np.zeros(n_classes)
    sites = size * size

    def batch_loss_and_grads(with_grads: bool):
        total = 0.0
        g_head_w = np.zeros_like(head_w)
        g_head_b = np.zeros_like(head_b)
        g_params = {k: np.zeros_like(v) for k, v in params.tensors().items()}
        for lo in range(0, n, TRAIN_SLICE):
            x, y = xs[lo : lo + TRAIN_SLICE], labels[lo : lo + TRAIN_SLICE]
            rows = np.arange(len(y))
            if with_grads:
                feat, pullback = qna_vjp(x, cfg, params)
            else:
                feat = qna_forward(x, cfg, params)
            pooled = feat.reshape(len(y), sites, cfg.dim_out).mean(axis=1)
            logits = pooled @ head_w + head_b
            shifted = logits - logits.max(axis=1, keepdims=True)
            log_z = np.log(np.sum(np.exp(shifted), axis=1))
            total += float(np.sum(log_z - shifted[rows, y]))
            if not with_grads:
                continue
            d_logits = np.exp(shifted - log_z[:, None])
            d_logits[rows, y] -= 1.0
            d_logits /= n
            g_head_w += pooled.T @ d_logits
            g_head_b += d_logits.sum(axis=0)
            d_pooled = d_logits @ head_w.T
            d_feat = np.broadcast_to(d_pooled[:, None, None] / sites, feat.shape)
            gt = pullback(d_feat).tensors()
            del pullback  # frees the tape before the next slice's forward
            for name in g_params:
                g_params[name] += gt[f"d_{name}"]
        return total / n, g_params, g_head_w, g_head_b

    trace = []
    initial = None
    for step in range(steps):
        loss, g_params, g_head_w, g_head_b = batch_loss_and_grads(True)
        if initial is None:
            initial = loss
        trace.append(loss)
        if log is not None and step % 10 == 0:
            log(step, loss)
        tensors = params.tensors()
        for name, g in g_params.items():
            tensors[name] -= lr * g
        head_w -= lr * g_head_w
        head_b -= lr * g_head_b
    final, _, _, _ = batch_loss_and_grads(False)
    trace.append(final)
    if log is not None:
        log(steps, final)
    return initial, final, trace


def _cmd_train_toy(args) -> int:
    if args.steps < 1:
        print(f"error: --steps must be >= 1, got {args.steps}", file=sys.stderr)
        return 2

    def log(step, loss):
        print(f"step {step:4d}  loss {loss:.6f}")

    initial, final, _ = run_train_toy(args.steps, args.lr, args.seed, log=log)
    target = 0.5 * initial
    verdict = "PASS" if final < target else "FAIL"
    print(f"{verdict} initial={initial:.6f} final={final:.6f} target<{target:.6f}")
    return 0 if final < target else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qna",
        description="Shared-query local attention: verification, benchmarks, and demos.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run oracle-equivalence and gradient checks")
    p_check.add_argument("--grid", choices=("small", "full", "tiny-model"), default="small")
    p_check.add_argument("--dtype", choices=tuple(DTYPE_TAGS), default="f64",
                         help="grid dtype; gradcheck runs only for f64")
    p_check.add_argument("--seed", type=int, default=42)
    p_check.set_defaults(handler=_cmd_check)

    p_bench = sub.add_parser("bench", help="window-size complexity sweep, CSV output")
    p_bench.add_argument("--input", type=_parse_input_spec, default=(256, 256, 64),
                         metavar="HxWxD")
    p_bench.add_argument("--k", type=_parse_int_list, default=bench_mod.DEFAULT_K_SWEEP,
                         metavar="K1,K2,...")
    p_bench.add_argument("--impls", type=_parse_impls, default=bench_mod.IMPLS,
                         metavar="IMPL1,IMPL2,...")
    p_bench.add_argument("--out", default="qna_bench.csv")
    p_bench.add_argument("--dtype", choices=tuple(DTYPE_TAGS), default="f32")
    p_bench.add_argument("--seed", type=int, default=42)
    p_bench.set_defaults(handler=_cmd_bench)

    p_model = sub.add_parser("model", help="parameter and MAC accounting per variant")
    p_model.add_argument("--variant", choices=("tiny", "small", "base"), required=True)
    p_model.add_argument("--resolution", type=int, default=224)
    p_model.add_argument("--report", choices=("params", "flops", "both"), default="both")
    p_model.add_argument("--json", action="store_true")
    p_model.add_argument("--seed", type=int, default=42)
    p_model.set_defaults(handler=_cmd_model)

    p_viz = sub.add_parser("viz", help="render per-(query, head) attention heatmaps as PGM")
    p_viz.add_argument("--input", required=True, help="rank-3 QNAT tensor (H x W x D)")
    p_viz.add_argument("--k", type=int, default=3)
    p_viz.add_argument("--seed", type=int, default=42)
    p_viz.add_argument("--out", default="heatmaps")
    p_viz.set_defaults(handler=_cmd_viz)

    p_toy = sub.add_parser("train-toy", help="train one layer on a synthetic motif task")
    p_toy.add_argument("--steps", type=int, default=200)
    p_toy.add_argument("--lr", type=float, default=0.2,
                       help="full-batch SGD step size (tuned for the default task)")
    p_toy.add_argument("--seed", type=int, default=42)
    p_toy.set_defaults(handler=_cmd_train_toy)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
