"""The shared-query attention layer: scores, forward, backward, upsampling,
heatmaps, initialization, and parameter serialization."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from qna.layer import (
    GradBundle,
    QnAConfig,
    QnAParams,
    attention_heatmap,
    compute_scores,
    init_params,
    load_params,
    qna_backward,
    qna_forward,
    qna_upsample_forward,
    save_params,
    used_queries,
)
from qna.oracles import finite_diff_grad, qna_window_oracle
from qna.tensor import (
    AllocationLedger,
    NumericalRangeError,
    QnatFormatError,
    ShapeError,
    make_rng,
)


def _rand_params(cfg, rng, dtype=np.float64, lively=True):
    params = init_params(cfg, rng, dtype=dtype)
    if lively:
        params.bias[...] = rng.standard_normal(params.bias.shape).astype(dtype) * 0.3
        params.mix[...] = (rng.standard_normal(params.mix.shape) * 0.2
                           + 1.0 / cfg.num_queries).astype(dtype)
        params.b_v[...] = rng.standard_normal(params.b_v.shape).astype(dtype) * 0.1
        params.b_o[...] = rng.standard_normal(params.b_o.shape).astype(dtype) * 0.1
    return params


# ---------------------------------------------------------------------------
# Config and parameter validation
# ---------------------------------------------------------------------------


def test_config_validation():
    good = dict(k=3, stride=1, heads=2, num_queries=2, dim_in=4, dim_out=8)
    QnAConfig(**good)
    for field, bad in [("k", 0), ("stride", 0), ("heads", 0), ("num_queries", 0),
                       ("dim_in", 0), ("dim_out", 0)]:
        with pytest.raises(ShapeError):
            QnAConfig(**{**good, field: bad})
    with pytest.raises(ShapeError):
        QnAConfig(**{**good, "dim_out": 7})  # not divisible by heads
    assert QnAConfig(**good).head_dim == 4


def test_params_validate_against_config():
    rng = make_rng(0)
    cfg = QnAConfig(k=3, stride=1, heads=2, num_queries=2, dim_in=4, dim_out=8)
    params = init_params(cfg, rng)
    params.validate(cfg)
    bad = init_params(QnAConfig(k=5, stride=1, heads=2, num_queries=2, dim_in=4, dim_out=8), rng)
    with pytest.raises(ShapeError):
        bad.validate(cfg)


def test_forward_input_validation():
    rng = make_rng(1)
    cfg = QnAConfig(k=3, stride=1, heads=1, num_queries=1, dim_in=3, dim_out=4)
    params = init_params(cfg, rng)
    with pytest.raises(ShapeError):
        qna_forward(np.zeros((4, 4)), cfg, params)
    with pytest.raises(ShapeError):
        qna_forward(np.zeros((4, 4, 2)), cfg, params)
    with pytest.raises(ShapeError):
        qna_forward(np.zeros((4, 4, 3), dtype=np.float32), cfg, params)  # dtype mismatch
    bad = np.zeros((4, 4, 3))
    bad[0, 0, 0] = np.nan
    with pytest.raises(NumericalRangeError):
        qna_forward(bad, cfg, params)


def test_zero_norm_query_is_rejected():
    rng = make_rng(2)
    cfg = QnAConfig(k=3, stride=1, heads=1, num_queries=2, dim_in=3, dim_out=4)
    params = init_params(cfg, rng)
    params.queries[1, :] = 0.0
    with pytest.raises(NumericalRangeError):
        used_queries(cfg, params)
    with pytest.raises(NumericalRangeError):
        qna_forward(np.zeros((4, 4, 3)), cfg, params)


# ---------------------------------------------------------------------------
# Scores
# ---------------------------------------------------------------------------


def test_compute_scores_matches_unfused_loops():
    rng = make_rng(3)
    cfg = QnAConfig(k=3, stride=1, heads=2, num_queries=3, dim_in=5, dim_out=8)
    params = _rand_params(cfg, rng)
    x = rng.standard_normal((4, 6, 5))
    s = compute_scores(x, cfg, params)
    assert s.shape == (3, 2, 4, 6)
    q = used_queries(cfg, params) / np.sqrt(cfg.head_dim)
    for l in range(3):
        for g in range(2):
            for i in range(4):
                for j in range(6):
                    keys = x[i, j] @ params.w_k
                    want = q[l, g * 4 : (g + 1) * 4] @ keys[g * 4 : (g + 1) * 4]
                    assert abs(s[l, g, i, j] - want) < 1e-12


def test_compute_scores_respects_flags():
    rng = make_rng(4)
    base = dict(k=3, stride=1, heads=1, num_queries=1, dim_in=3, dim_out=4)
    x = rng.standard_normal((3, 3, 3))
    cfg_plain = QnAConfig(**base, scale_scores=False, normalize_queries=False)
    params = _rand_params(cfg_plain, rng)
    s_plain = compute_scores(x, cfg_plain, params)
    s_scaled = compute_scores(x, QnAConfig(**base, scale_scores=True,
                                           normalize_queries=False), params)
    assert np.allclose(s_scaled, s_plain / 2.0, atol=1e-15)
    s_norm = compute_scores(x, QnAConfig(**base, scale_scores=False,
                                         normalize_queries=True), params)
    norm = np.linalg.norm(params.queries[0])
    assert np.allclose(s_norm, s_plain / norm, atol=1e-12)


# ---------------------------------------------------------------------------
# Forward: hand-computed cases
# ---------------------------------------------------------------------------


def test_forward_hand_computed_even_window():
    """1 x 2 input, k = 2: offsets {0, 1} per axis, so window (0,0) sees both
    sites and window (0,1) is half masked. Every number below is derived by
    hand; out-of-bounds bias/mix entries are set to garbage on purpose."""
    cfg = QnAConfig(k=2, stride=1, heads=1, num_queries=1, dim_in=1, dim_out=1,
                    scale_scores=False, normalize_queries=False)
    params = QnAParams(
        w_k=np.array([[1.0]]),
        w_v=np.array([[3.0]]),
        b_v=np.array([1.0]),
        w_o=np.array([[2.0]]),
        b_o=np.array([-1.0]),
        queries=np.array([[0.5]]),
        mix=np.array([[0.7, 1.3, 9.0, 9.0]]),
        bias=np.array([[[0.2, -0.1], [5.0, 5.0]]]),
    )
    x = np.array([[[1.0], [2.0]]])
    out = qna_forward(x, cfg, params)
    assert out.shape == (1, 2, 1)

    # scores 0.5 and 1.0; values 4 and 7
    # window (0,0): logits [0.5+0.2, 1.0-0.1]; softmax alpha in offset order
    a1 = 1.0 / (1.0 + math.exp(0.2))
    a2 = math.exp(0.2) / (1.0 + math.exp(0.2))
    z00 = 0.7 * a1 * 4.0 + 1.3 * a2 * 7.0
    assert abs(out[0, 0, 0] - (2.0 * z00 - 1.0)) < 1e-12
    # window (0,1): only its own site is in bounds, softmax weight 1
    assert abs(out[0, 1, 0] - (2.0 * (0.7 * 7.0) - 1.0)) < 1e-12
    # the oracle agrees on the same construction
    assert np.allclose(qna_window_oracle(x, cfg, params), out, atol=1e-12)


def test_forward_k1_is_pointwise():
    rng = make_rng(5)
    cfg = QnAConfig(k=1, stride=1, heads=2, num_queries=2, dim_in=3, dim_out=4)
    params = _rand_params(cfg, rng)
    x = rng.standard_normal((3, 4, 3))
    out = qna_forward(x, cfg, params)
    v = x.reshape(-1, 3) @ params.w_v + params.b_v
    mixed = (params.mix[0, 0] + params.mix[1, 0]) * v  # sum over both queries
    want = (mixed @ params.w_o + params.b_o).reshape(3, 4, 4)
    assert np.allclose(out, want, atol=1e-12)


def test_forward_uniform_attention_is_masked_mean():
    # zero scores make every window average its in-bounds values
    rng = make_rng(6)
    cfg = QnAConfig(k=3, stride=1, heads=1, num_queries=1, dim_in=3, dim_out=4)
    params = init_params(cfg, rng)
    params.w_k[...] = 0.0
    params.mix[...] = 1.0
    x = rng.standard_normal((5, 5, 3))
    out = qna_forward(x, cfg, params)
    v = (x.reshape(-1, 3) @ params.w_v + params.b_v).reshape(5, 5, 4)
    i, j = 2, 3
    want = (v[i - 1 : i + 2, j - 1 : j + 2].mean(axis=(0, 1)) @ params.w_o + params.b_o)
    assert np.allclose(out[i, j], want, atol=1e-12)
    corner = (v[:2, :2].reshape(4, 4).mean(axis=0) @ params.w_o + params.b_o)
    assert np.allclose(out[0, 0], corner, atol=1e-12)


def test_forward_stride_two_sites():
    rng = make_rng(7)
    cfg = QnAConfig(k=3, stride=2, heads=1, num_queries=2, dim_in=3, dim_out=4)
    params = _rand_params(cfg, rng)
    x = rng.standard_normal((5, 6, 3))
    out = qna_forward(x, cfg, params)
    assert out.shape == (3, 3, 4)
    # strided output (i, j) equals the stride-1 output at (2i, 2j): same
    # window, same weights
    full = qna_forward(x, QnAConfig(k=3, stride=1, heads=1, num_queries=2,
                                    dim_in=3, dim_out=4), params)
    assert np.allclose(out, full[::2, ::2], atol=1e-14)


# ---------------------------------------------------------------------------
# Forward: structural invariances
# ---------------------------------------------------------------------------


def test_global_score_shift_is_bitwise_invariant_on_exact_scores():
    # integer-valued scores stay exact under the +c shift, and the shift
    # cancels inside the max subtraction before exp ever runs
    rng = make_rng(8)
    cfg = QnAConfig(k=3, stride=1, heads=1, num_queries=1, dim_in=2, dim_out=2,
                    scale_scores=False, normalize_queries=False)
    params = init_params(cfg, rng)
    params.w_k[...] = np.array([[1.0, 2.0], [0.0, 1.0]])
    params.w_v[...] = np.array([[1.0, 0.0], [1.0, 1.0]])
    params.w_o[...] = np.eye(2)
    params.queries[...] = np.array([[1.0, 1.0]])
    params.mix[...] = 1.0
    x = rng.integers(-3, 4, size=(5, 5, 2)).astype(np.float64)
    base = qna_forward(x, cfg, params)
    for shift in (1.0, 7.0, -4.0):
        assert np.array_equal(qna_forward(x, cfg, params, score_shift=shift), base)


def test_query_order_is_irrelevant():
    rng = make_rng(9)
    cfg = QnAConfig(k=3, stride=1, heads=2, num_queries=3, dim_in=4, dim_out=4)
    params = _rand_params(cfg, rng)
    x = rng.standard_normal((4, 5, 4))
    base = qna_forward(x, cfg, params)
    perm = [2, 0, 1]
    shuffled = QnAParams(
        w_k=params.w_k, w_v=params.w_v, b_v=params.b_v, w_o=params.w_o,
        b_o=params.b_o, queries=params.queries[perm], mix=params.mix[perm],
        bias=params.bias[perm],
    )
    assert np.allclose(qna_forward(x, cfg, shuffled), base, atol=1e-12)


def test_query_normalization_ignores_power_of_two_scaling():
    # scaling a query by 8 changes every intermediate by exact powers of two,
    # so the unit-normalized query (and the output) is bitwise unchanged
    rng = make_rng(10)
    cfg = QnAConfig(k=3, stride=1, heads=2, num_queries=2, dim_in=3, dim_out=4)
    params = _rand_params(cfg, rng)
    x = rng.standard_normal((4, 4, 3))
    base = qna_forward(x, cfg, params)
    params.queries[0] *= 8.0
    assert np.array_equal(qna_forward(x, cfg, params), base)


def test_forward_reports_window_underflow():
    # one spiked site dominates the global max; windows that cannot see it
    # underflow to an all-zero weight sum, which must be reported
    cfg = QnAConfig(k=3, stride=1, heads=1, num_queries=1, dim_in=1, dim_out=1,
                    scale_scores=False, normalize_queries=False)
    params = QnAParams(
        w_k=np.array([[1.0]]), w_v=np.array([[1.0]]), b_v=np.zeros(1),
        w_o=np.array([[1.0]]), b_o=np.zeros(1), queries=np.array([[1.0]]),
        mix=np.ones((1, 9)), bias=np.zeros((1, 3, 3)),
    )
    x = np.zeros((8, 8, 1))
    x[0, 0, 0] = 800.0  # exp(-800) is exactly 0.0 in f64
    with pytest.raises(NumericalRangeError):
        qna_forward(x, cfg, params)


def test_forward_f32_matches_f64_reference():
    rng = make_rng(11)
    cfg = QnAConfig(k=3, stride=2, heads=2, num_queries=2, dim_in=4, dim_out=8)
    params64 = _rand_params(cfg, rng)
    x64 = rng.standard_normal((6, 7, 4))
    params32 = QnAParams(**{n: t.astype(np.float32) for n, t in params64.tensors().items()})
    out32 = qna_forward(x64.astype(np.float32), cfg, params32)
    out64 = qna_forward(x64, cfg, params64)
    assert out32.dtype == np.float32
    assert np.allclose(out32, out64, atol=1e-5)


# ---------------------------------------------------------------------------
# Ledger contract
# ---------------------------------------------------------------------------


def test_forward_ledger_aggregate_is_k_independent_up_to_kernels():
    # transient bytes may grow only through the k x k reduction kernels
    rng = make_rng(12)
    peaks = {}
    for k in (3, 9):
        cfg = QnAConfig(k=k, stride=1, heads=2, num_queries=2, dim_in=8, dim_out=8)
        params = init_params(cfg, rng, dtype=np.float32)
        x = rng.standard_normal((32, 32, 8)).astype(np.float32)
        ledger = AllocationLedger()
        qna_forward(x, cfg, params, ledger)
        peaks[k] = max(b for _, b in ledger.events)
    kernel_bytes = (3 * 2 * 81 + 3 * 2 * 9) * 4
    assert 0 <= peaks[9] - peaks[3] <= kernel_bytes


def test_forward_ledger_event_names():
    # all heads of a query share one numerator and one normalizer reduction
    rng = make_rng(13)
    for heads in (1, 4):
        cfg = QnAConfig(k=3, stride=1, heads=heads, num_queries=3, dim_in=3, dim_out=4)
        params = init_params(cfg, rng)
        ledger = AllocationLedger()
        qna_forward(np.zeros((4, 4, 3)), cfg, params, ledger)
        names = [name for name, _ in ledger.events]
        assert "qna_forward" in names
        assert names.count("window_weighted_sum") == 2 * cfg.num_queries


@pytest.mark.parametrize("k,heads,L", [(3, 1, 1), (15, 1, 1), (7, 4, 2)])
def test_forward_ledger_matches_heap_peak(k, heads, L):
    # the ledger's transient is the call's heap high-water mark above its output
    rng = make_rng(14)
    cfg = QnAConfig(k=k, stride=1, heads=heads, num_queries=L, dim_in=64, dim_out=64)
    params = init_params(cfg, rng, dtype=np.float32)
    x = rng.standard_normal((128, 128, 64)).astype(np.float32)
    ledger = AllocationLedger()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = qna_forward(x, cfg, params, ledger)
        heap = tracemalloc.get_traced_memory()[1] - start - out.nbytes
    finally:
        tracemalloc.stop()
    assert abs(ledger.peak_extra_bytes - heap) <= 0.1 * heap, (ledger.peak_extra_bytes, heap)


# ---------------------------------------------------------------------------
# Backward
# ---------------------------------------------------------------------------


def _gradcheck_case(cfg, seed, H=4, W=4):
    rng = make_rng(seed)
    params = _rand_params(cfg, rng)
    x = rng.standard_normal((H, W, cfg.dim_in))
    out = qna_forward(x, cfg, params)
    d_out = rng.standard_normal(out.shape)
    grads = qna_backward(x, cfg, params, d_out)

    worst = 0.0
    tensors = params.tensors()
    for name in ("input", *tensors.keys()):
        if name == "input":
            def f(v):
                return float(np.sum(d_out * qna_forward(v, cfg, params)))
            target, got = x, grads.d_input
        else:
            def f(v, _n=name):
                saved = tensors[_n].copy()
                tensors[_n][...] = v
                try:
                    return float(np.sum(d_out * qna_forward(x, cfg, params)))
                finally:
                    tensors[_n][...] = saved
            target, got = tensors[name], grads.tensors()[f"d_{name}"]
        numeric = finite_diff_grad(f, target, 1e-5)
        rel = np.max(np.abs(got - numeric)) / max(np.max(np.abs(numeric)), 1e-12)
        worst = max(worst, float(rel))
    return worst


def test_backward_gradcheck_even_window_strided():
    cfg = QnAConfig(k=2, stride=2, heads=2, num_queries=2, dim_in=3, dim_out=4)
    assert _gradcheck_case(cfg, 14) < 1e-6


def test_backward_gradcheck_unnormalized_unscaled():
    cfg = QnAConfig(k=3, stride=1, heads=1, num_queries=2, dim_in=3, dim_out=3,
                    scale_scores=False, normalize_queries=False)
    assert _gradcheck_case(cfg, 15) < 1e-6


def test_backward_validates_d_out():
    rng = make_rng(16)
    cfg = QnAConfig(k=3, stride=1, heads=1, num_queries=1, dim_in=3, dim_out=4)
    params = init_params(cfg, rng)
    x = rng.standard_normal((4, 4, 3))
    with pytest.raises(ShapeError):
        qna_backward(x, cfg, params, np.zeros((4, 4, 3)))
    with pytest.raises(ShapeError):
        qna_backward(x, cfg, params, np.zeros((4, 4, 4), dtype=np.float32))
    bad = np.zeros((4, 4, 4))
    bad[0, 0, 0] = np.inf
    with pytest.raises(NumericalRangeError):
        qna_backward(x, cfg, params, bad)


def test_backward_grad_bundle_names():
    rng = make_rng(17)
    cfg = QnAConfig(k=3, stride=1, heads=1, num_queries=1, dim_in=3, dim_out=4)
    params = init_params(cfg, rng)
    x = rng.standard_normal((4, 4, 3))
    grads = qna_backward(x, cfg, params, np.ones((4, 4, 4)))
    assert isinstance(grads, GradBundle)
    want = {"d_input", "d_w_k", "d_w_v", "d_b_v", "d_w_o", "d_b_o",
            "d_queries", "d_mix", "d_bias"}
    assert set(grads.tensors().keys()) == want
    for name, t in grads.tensors().items():
        ref = x if name == "d_input" else params.tensors()[name[2:]]
        assert t.shape == ref.shape


# ---------------------------------------------------------------------------
# Upsampling
# ---------------------------------------------------------------------------


def test_upsample_stride_one_single_query_equals_forward():
    rng = make_rng(18)
    cfg = QnAConfig(k=3, stride=1, heads=2, num_queries=1, dim_in=3, dim_out=4)
    params = init_params(cfg, rng)  # mix = 1/L = 1, the identity-compatible init
    x = rng.standard_normal((5, 6, 3))
    assert np.array_equal(qna_upsample_forward(x, cfg, params), qna_forward(x, cfg, params))


def test_upsample_scale_two_per_window_placement():
    rng = make_rng(19)
    cfg = QnAConfig(k=3, stride=1, heads=2, num_queries=4, dim_in=3, dim_out=4)
    params = _rand_params(cfg, rng)
    params.mix[...] = 123.0  # mixing weights must be dead in this mode
    x = rng.standard_normal((4, 5, 3))
    out = qna_upsample_forward(x, cfg, params)
    assert out.shape == (8, 10, 4)
    # independent oracle: each query is a one-query forward without mixing
    # (mix = 1) and its own W_O row; query a*2+b of window (i, j) lands at
    # (2i + a, 2j + b)
    for l in range(4):
        sub = QnAConfig(k=3, stride=1, heads=2, num_queries=1, dim_in=3, dim_out=4)
        sp = QnAParams(
            w_k=params.w_k, w_v=params.w_v, b_v=params.b_v, w_o=params.w_o,
            b_o=params.b_o, queries=params.queries[l : l + 1],
            mix=np.ones((1, 9)), bias=params.bias[l : l + 1],
        )
        want = qna_forward(x, sub, sp)
        a, b = divmod(l, 2)
        assert np.allclose(out[a::2, b::2], want, atol=1e-12), f"query {l}"


def test_upsample_validation():
    rng = make_rng(20)
    cfg = QnAConfig(k=3, stride=2, heads=1, num_queries=4, dim_in=3, dim_out=4)
    params = init_params(cfg, rng)
    with pytest.raises(ShapeError):
        qna_upsample_forward(np.zeros((4, 4, 3)), cfg, params)
    cfg3 = QnAConfig(k=3, stride=1, heads=1, num_queries=3, dim_in=3, dim_out=4)
    with pytest.raises(ShapeError):
        qna_upsample_forward(np.zeros((4, 4, 3)), cfg3, init_params(cfg3, rng))


# ---------------------------------------------------------------------------
# Heatmaps
# ---------------------------------------------------------------------------


def test_heatmap_uniform_attention_closed_form():
    # with constant scores every window spreads 1/|window| to its members;
    # interior sites sit in nine 9-member windows -> exactly 1. The corner
    # sits in four windows of sizes {4,6,6,9} -> 1/4 + 1/6 + 1/6 + 1/9 = 25/36.
    rng = make_rng(21)
    cfg = QnAConfig(k=3, stride=1, heads=1, num_queries=1, dim_in=3, dim_out=4)
    params = init_params(cfg, rng)
    params.w_k[...] = 0.0
    x = rng.standard_normal((6, 6, 3))
    heat = attention_heatmap(x, cfg, params, 0, 0)
    assert heat.shape == (6, 6)
    assert abs(heat[2, 3] - 1.0) < 1e-12
    want_corner = 25.0 / 36.0
    assert abs(heat[0, 0] - want_corner) < 1e-12
    # total mass = number of windows (each distributes exactly 1)
    assert abs(heat.sum() - 36.0) < 1e-10


def test_heatmap_mass_conservation_random_scores():
    rng = make_rng(22)
    cfg = QnAConfig(k=3, stride=1, heads=2, num_queries=2, dim_in=3, dim_out=4)
    params = _rand_params(cfg, rng)
    x = rng.standard_normal((5, 7, 3))
    heat = attention_heatmap(x, cfg, params, 1, 0)
    assert np.all(heat >= 0.0)
    assert abs(heat.sum() - 35.0) < 1e-10


def test_heatmap_matches_oracle_attention_sums():
    # accumulate the oracle's per-window softmax weights site by site
    rng = make_rng(23)
    cfg = QnAConfig(k=3, stride=1, heads=2, num_queries=2, dim_in=3, dim_out=6)
    params = _rand_params(cfg, rng)
    H, W = 4, 5
    x = rng.standard_normal((H, W, 3))
    l, g = 1, 1
    heat = attention_heatmap(x, cfg, params, l, g)
    s = compute_scores(x, cfg, params)[l, g]
    want = np.zeros((H, W))
    for i in range(H):
        for j in range(W):
            logits, sites = [], []
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    r, c = i + di, j + dj
                    if 0 <= r < H and 0 <= c < W:
                        logits.append(s[r, c] + params.bias[l, di + 1, dj + 1])
                        sites.append((r, c))
            w = np.exp(np.array(logits) - np.max(logits))
            w /= w.sum()
            for wt, (r, c) in zip(w, sites):
                want[r, c] += wt
    assert np.allclose(heat, want, atol=1e-10)


def test_heatmap_validation():
    rng = make_rng(24)
    cfg = QnAConfig(k=3, stride=1, heads=2, num_queries=2, dim_in=3, dim_out=4)
    params = init_params(cfg, rng)
    x = np.zeros((4, 4, 3))
    with pytest.raises(IndexError):
        attention_heatmap(x, cfg, params, 2, 0)
    with pytest.raises(IndexError):
        attention_heatmap(x, cfg, params, 0, -1)
    cfg2 = QnAConfig(k=3, stride=2, heads=2, num_queries=2, dim_in=3, dim_out=4)
    with pytest.raises(ShapeError):
        attention_heatmap(x, cfg2, init_params(cfg2, rng), 0, 0)


# ---------------------------------------------------------------------------
# Initialization and serialization
# ---------------------------------------------------------------------------


def test_init_params_contract():
    cfg = QnAConfig(k=3, stride=1, heads=2, num_queries=2, dim_in=4, dim_out=8)
    a = init_params(cfg, 77)
    b = init_params(cfg, 77)
    for name, t in a.tensors().items():
        assert np.array_equal(t, b.tensors()[name]), name
    assert np.array_equal(a.mix, np.full((2, 9), 0.5))
    assert np.all(a.bias == 0.0) and np.all(a.b_v == 0.0) and np.all(a.b_o == 0.0)
    assert init_params(cfg, 78).w_k[0, 0] != a.w_k[0, 0]
    f32 = init_params(cfg, 77, dtype=np.float32)
    assert f32.dtype == np.dtype(np.float32)
    assert f32.num_scalars() == a.num_scalars()


def test_num_scalars_counts_everything():
    cfg = QnAConfig(k=3, stride=1, heads=2, num_queries=2, dim_in=4, dim_out=8)
    params = init_params(cfg, 0)
    want = 4 * 8 + 4 * 8 + 8 + 8 * 8 + 8 + 2 * 8 + 2 * 9 + 2 * 9
    assert params.num_scalars() == want
    assert sum(t.size for t in params.tensors().values()) == want


def test_save_load_roundtrip(tmp_path):
    rng = make_rng(25)
    cfg = QnAConfig(k=3, stride=2, heads=2, num_queries=2, dim_in=3, dim_out=4,
                    scale_scores=False)
    params = _rand_params(cfg, rng)
    x = rng.standard_normal((5, 5, 3))
    want = qna_forward(x, cfg, params)
    save_params(tmp_path / "layer", cfg, params)
    cfg2, params2 = load_params(tmp_path / "layer")
    assert cfg2 == cfg
    assert np.array_equal(qna_forward(x, cfg2, params2), want)


def test_load_rejects_mismatched_tensor(tmp_path):
    rng = make_rng(26)
    cfg = QnAConfig(k=3, stride=1, heads=1, num_queries=1, dim_in=3, dim_out=4)
    save_params(tmp_path / "layer", cfg, init_params(cfg, rng))
    from qna.tensor import save_qnat

    save_qnat(tmp_path / "layer" / "w_k.qnat", np.zeros((9, 9)))
    with pytest.raises(ShapeError):
        load_params(tmp_path / "layer")


def _saved_layer_with_config(tmp_path, edit):
    cfg = QnAConfig(k=3, stride=1, heads=1, num_queries=1, dim_in=3, dim_out=4)
    save_params(tmp_path / "layer", cfg, init_params(cfg, 27))
    path = tmp_path / "layer" / "config.json"
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    return tmp_path / "layer"


@pytest.mark.parametrize("key", ["stride", "dtype", "tensors"])
def test_load_names_missing_config_key(tmp_path, key):
    with pytest.raises(QnatFormatError, match=key):
        load_params(_saved_layer_with_config(tmp_path, lambda doc: doc.pop(key)))


@pytest.mark.parametrize("tag", ["f16", None, "f32"])
def test_load_rejects_unknown_or_wrong_dtype_tag(tmp_path, tag):
    # "f32" is a known tag, but these tensors are float64
    with pytest.raises(QnatFormatError):
        load_params(_saved_layer_with_config(tmp_path, lambda doc: doc.update(dtype=tag)))
