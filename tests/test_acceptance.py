"""Acceptance suite: ten end-to-end checks, each printing one PASS/FAIL
verdict line in the terminal summary's "acceptance criteria" section.

Every test logs its verdict before asserting, so a red run still reports
the measured numbers for all criteria that executed.
"""

import gc
import time

import numpy as np

from qna.bench import default_cases, run_sweep
from qna.checks import FULL_GRID, gradcheck, gradcheck_case, oracle_grid, oracle_swap
from qna.cli import build_parser, run_train_toy
from qna.layer import QnAConfig, init_params, qna_backward, qna_forward, qna_upsample_forward
from qna.model import build_model, count_flops, count_params, make_arch
from qna.oracles import unfold
from qna.tensor import AllocationLedger, make_rng, offset_bounds


def _v(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def test_01_oracle_equivalence_grid(acceptance_log):
    start = time.perf_counter()
    worst = {}
    cases = 0
    for tag in ("f64", "f32"):
        errs = [err for _, err in oracle_grid(FULL_GRID, tag, 42)]
        worst[tag] = max(errs)
        cases += len(errs)
    elapsed = time.perf_counter() - start
    ok = worst["f64"] < 1e-10 and worst["f32"] < 1e-5 and elapsed < 60.0
    acceptance_log(
        f"{_v(ok)} 01 oracle equivalence: {cases} configurations, worst abs err "
        f"f64={worst['f64']:.2e} (tol 1e-10), f32={worst['f32']:.2e} (tol 1e-5) "
        f"[{elapsed:.1f}s]"
    )
    assert worst["f64"] < 1e-10
    assert worst["f32"] < 1e-5
    assert elapsed < 60.0


def test_02_gradient_check(acceptance_log):
    start = time.perf_counter()
    case = gradcheck_case(42)
    rels = gradcheck(*case, qna_backward(*case))
    elapsed = time.perf_counter() - start
    worst_name = max(rels, key=rels.get)
    ok = max(rels.values()) < 1e-4 and elapsed < 30.0
    acceptance_log(
        f"{_v(ok)} 02 gradient check: {len(rels)} tensors, worst rel err "
        f"{rels[worst_name]:.2e} ({worst_name}, tol 1e-4) [{elapsed:.1f}s]"
    )
    assert max(rels.values()) < 1e-4, rels
    assert elapsed < 30.0


def test_03_memory_scaling(acceptance_log):
    H = W = 256
    D = 64
    ks = (3, 5, 7, 9, 15)
    x = make_rng(0).standard_normal((H, W, D)).astype(np.float32)

    fused_peaks = {}
    for k in ks:
        cfg = QnAConfig(k=k, stride=1, heads=8, num_queries=4, dim_in=D, dim_out=D)
        params = init_params(cfg, make_rng(1), dtype=np.float32)
        ledger = AllocationLedger()
        y = qna_forward(x, cfg, params, ledger=ledger)
        fused_peaks[k] = ledger.peak_extra_bytes
        del y, params
        gc.collect()
    spread = (max(fused_peaks.values()) - min(fused_peaks.values())) / min(fused_peaks.values())

    unfold_peaks = {}
    for k in ks:
        ledger = AllocationLedger()
        uf = unfold(x, k, 1, ledger=ledger)
        unfold_peaks[k] = ledger.peak_extra_bytes
        del uf
        gc.collect()
    # least-squares a * k**2 through the origin
    a_hat = sum(unfold_peaks[k] * k**2 for k in ks) / sum(k**4 for k in ks)
    resid = max(abs(unfold_peaks[k] - a_hat * k**2) / unfold_peaks[k] for k in ks)

    contrast = unfold_peaks[15] / fused_peaks[15]
    ok = spread <= 0.01 and resid < 0.02
    acceptance_log(
        f"{_v(ok)} 03 memory scaling: fused peak spread {spread * 100:.3f}% over "
        f"k={list(ks)} (limit 1%), patch buffer fits a*k^2 with residual "
        f"{resid * 100:.2f}% (limit 2%), k=15 contrast {contrast:.0f}x"
    )
    assert spread <= 0.01, fused_peaks
    assert resid < 0.02, unfold_peaks


def test_04_parameter_budget(acceptance_log):
    counts = {}
    for variant in ("tiny", "small", "base"):
        model = build_model(variant, seed=0, dtype=np.float32)
        counts[variant] = count_params(model).params
        del model
        gc.collect()
    in_band = 14_400_000 <= counts["tiny"] <= 17_600_000
    ordered = counts["tiny"] < counts["small"] < counts["base"]
    ok = in_band and ordered
    acceptance_log(
        f"{_v(ok)} 04 parameter budget: tiny={counts['tiny'] / 1e6:.3f}M "
        f"(band 14.4M..17.6M), small={counts['small'] / 1e6:.3f}M, "
        f"base={counts['base'] / 1e6:.3f}M, strictly increasing={ordered}"
    )
    assert in_band, counts
    assert ordered, counts


def test_05_compute_budget(acceptance_log):
    flops = {}
    for window in (3, 7):
        model = build_model(make_arch("tiny", window=window), seed=0, dtype=np.float32)
        flops[window] = count_flops(model, 224).flops
        del model
        gc.collect()
    growth = (flops[7] - flops[3]) / flops[3]
    in_band = 2_120_000_000 <= flops[3] <= 2_880_000_000
    ok = in_band and growth < 0.05
    acceptance_log(
        f"{_v(ok)} 05 compute budget: tiny@224 {flops[3] / 1e9:.3f}G MACs "
        f"(band 2.12G..2.88G), 7x7 windows cost +{growth * 100:.2f}% (limit +5%)"
    )
    assert in_band, flops
    assert growth < 0.05, flops


def test_06_shift_equivariance(acceptance_log):
    H = W = 12
    cfg = QnAConfig(k=3, stride=1, heads=2, num_queries=2, dim_in=5, dim_out=8)
    rng = make_rng(7)
    lo, hi = offset_bounds(cfg.k)
    checked = mismatched = 0
    for _ in range(50):
        params = init_params(cfg, rng, dtype=np.float64)
        params.bias[...] = rng.normal(0.0, 0.5, params.bias.shape)
        params.mix[...] = rng.normal(0.5, 0.2, params.mix.shape)
        x = rng.normal(0.0, 1.0, (H, W, cfg.dim_in))
        y0 = qna_forward(x, cfg, params)
        for di in (1, 2, 3):
            for dj in (1, 2, 3):
                ys = qna_forward(np.roll(x, (di, dj), axis=(0, 1)), cfg, params)
                # doubly interior: the window stays off the border in both
                # the original and the rolled frame
                i0, i1 = -lo + di, H - hi
                j0, j1 = -lo + dj, W - hi
                want = y0[i0 - di : i1 - di, j0 - dj : j1 - dj]
                got = ys[i0:i1, j0:j1]
                checked += 1
                if not np.array_equal(want, got):
                    mismatched += 1
    ok = mismatched == 0 and checked == 450
    acceptance_log(
        f"{_v(ok)} 06 shift equivariance: {checked - mismatched}/{checked} "
        f"interior regions bitwise-equal after cyclic shifts of 1..3 sites"
    )
    assert mismatched == 0
    assert checked == 450


def test_07_upsampling(acceptance_log):
    rng = make_rng(3)
    cfg = QnAConfig(k=3, stride=1, heads=2, num_queries=4, dim_in=6, dim_out=8)
    params = init_params(cfg, rng, dtype=np.float64)
    params.bias[...] = rng.normal(0.0, 0.4, params.bias.shape)
    params.mix[...] = 123.0  # the upsampling path must ignore mixing weights
    x = rng.normal(0.0, 1.0, (5, 7, cfg.dim_in))
    up = qna_upsample_forward(x, cfg, params)
    shape_ok = up.shape == (10, 14, cfg.dim_out)

    # each query's rows must land on its own output sub-grid, with the values
    # a single-query layer produces for that query
    worst = 0.0
    cfg1 = QnAConfig(k=3, stride=1, heads=2, num_queries=1, dim_in=6, dim_out=8)
    for l in range(cfg.num_queries):
        a, b = divmod(l, 2)
        p1 = init_params(cfg1, make_rng(0), dtype=np.float64)
        t1, t = p1.tensors(), params.tensors()
        for name in ("w_k", "w_v", "b_v", "w_o", "b_o"):
            t1[name][...] = t[name]
        t1["queries"][...] = t["queries"][l : l + 1]
        t1["bias"][...] = t["bias"][l : l + 1]
        t1["mix"][...] = 1.0
        y1 = qna_forward(x, cfg1, p1)
        worst = max(worst, float(np.max(np.abs(up[a::2, b::2] - y1))))

    # scale 1 (a single query) degenerates to the ordinary forward pass
    p_s1 = init_params(cfg1, rng, dtype=np.float64)
    p_s1.bias[...] = rng.normal(0.0, 0.4, p_s1.bias.shape)
    s1_same = np.array_equal(qna_upsample_forward(x, cfg1, p_s1),
                             qna_forward(x, cfg1, p_s1))

    ok = shape_ok and worst < 1e-10 and s1_same
    acceptance_log(
        f"{_v(ok)} 07 upsampling: 2x output grid {up.shape}, per-query "
        f"placement worst abs err {worst:.2e} (tol 1e-10), scale-1 output "
        f"identical to the plain forward pass: {s1_same}"
    )
    assert shape_ok
    assert worst < 1e-10
    assert s1_same


def test_08_model_oracle_swap(acceptance_log):
    err = oracle_swap("tiny", 42, 64)  # image drawn from seed 43
    ok = err < 1e-4
    acceptance_log(
        f"{_v(ok)} 08 model oracle swap: tiny logits at 64x64 differ by "
        f"{err:.2e} when every attention block runs the naive oracle (tol 1e-4)"
    )
    assert err < 1e-4


def test_09_latency_contrast(acceptance_log):
    ks = (5, 7, 9, 11, 13, 15)
    cases = default_cases(H=256, W=256, D=64, dtype="f32",
                          impls=("qna_efficient", "qna_unfold"), k_values=ks)
    rows = run_sweep(cases, seed=42)
    mean = {(r.impl, r.k): r.latency_ms_mean for r in rows}
    ratios = {k: mean[("qna_efficient", k)] / mean[("qna_unfold", k)] for k in ks}
    ok = all(mean[("qna_efficient", k)] < mean[("qna_unfold", k)] for k in ks)
    detail = ", ".join(f"k={k} {ratios[k]:.2f}" for k in ks)
    acceptance_log(
        f"{_v(ok)} 09 latency contrast: fused/unfold mean-latency ratio at "
        f"256x256x64: {detail} (all must be < 1)"
    )
    for k in ks:
        assert mean[("qna_efficient", k)] < mean[("qna_unfold", k)], (k, mean)


def test_10_toy_training(acceptance_log):
    defaults = build_parser().parse_args(["train-toy"])
    start = time.perf_counter()
    initial, final, _ = run_train_toy(defaults.steps, defaults.lr, defaults.seed)
    elapsed = time.perf_counter() - start
    halved = final < 0.5 * initial

    a = run_train_toy(3, defaults.lr, 9)
    b = run_train_toy(3, defaults.lr, 9)
    deterministic = a == b

    ok = halved and deterministic and elapsed < 120.0
    acceptance_log(
        f"{_v(ok)} 10 toy training: loss {initial:.4f} -> {final:.4f} over "
        f"{defaults.steps} steps (target < {0.5 * initial:.4f}), repeat runs "
        f"identical: {deterministic} [{elapsed:.1f}s]"
    )
    assert halved, (initial, final)
    assert deterministic
    assert elapsed < 120.0
