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
    init_params,
    load_params,
    qna_backward,
    qna_forward,
    qna_upsample_forward,
    qna_vjp,
    save_params,
    used_queries,
)
from qna.layer import (
    _exp_scores,
    _query_key_map,
    _wws_grad_kernel,
    _wws_grad_map,
)
from qna.checks import active_params, gradcheck
from qna.oracles import qna_window_oracle
from qna.tensor import (
    AllocationLedger,
    NumericalRangeError,
    QnatFormatError,
    WWS_GEMM_BYTES,
    ShapeError,
    make_rng,
    same_window_slices,
    window_weighted_sum,
    wws_peak,
    wws_plan,
)


def _rand_params(cfg, rng, dtype=np.float64):
    params = active_params(cfg, rng, dtype)
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
    with pytest.raises(ShapeError):
        qna_forward(np.zeros((1, 2, 4, 4, 3)), cfg, params)  # rank 5
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
        used_queries(params)
    with pytest.raises(NumericalRangeError):
        qna_forward(np.zeros((4, 4, 3)), cfg, params)


# ---------------------------------------------------------------------------
# Scores
# ---------------------------------------------------------------------------


def test_scores_match_unfused_loops():
    # each query's map holds exp(S - max S), one max per head
    rng = make_rng(3)
    cfg = QnAConfig(k=3, stride=1, heads=2, num_queries=3, dim_in=5, dim_out=8)
    params = _rand_params(cfg, rng)
    x = rng.standard_normal((4, 6, 5))
    a = _query_key_map(cfg, params)
    q = used_queries(params) / np.sqrt(cfg.head_dim)
    for l in range(3):
        e = _exp_scores(x, a[l])
        assert e.shape == (4, 6, 2)
        for g in range(2):
            s = np.empty((4, 6))
            for i in range(4):
                for j in range(6):
                    keys = x[i, j] @ params.w_k
                    s[i, j] = q[l, g * 4 : (g + 1) * 4] @ keys[g * 4 : (g + 1) * 4]
            assert np.max(np.abs(e[:, :, g] - np.exp(s - s.max()))) < 1e-12


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("heads", [1, 2, 16])
@pytest.mark.parametrize("lead", [(), (3,)], ids=["hwc", "nhwc"])
def test_exp_scores_shift_by_each_heads_max(lead, heads, dtype):
    # the max taken over a heads-first copy is each sample's and head's max
    # over its sites, so E_l is bitwise the shift by the middle-axes max
    rng = make_rng(90 + heads)
    a_l = rng.standard_normal((heads, 5)).astype(dtype)
    for hw in [(4, 6), (0, 6)]:  # the second map has no sites
        x = rng.standard_normal((*lead, *hw, 5)).astype(dtype)
        s = (x.reshape(-1, 5) @ np.ascontiguousarray(a_l.T)).reshape(*x.shape[:-1], heads)
        want = np.exp(s - s.max(axis=(-3, -2), keepdims=True, initial=-np.inf))
        got = _exp_scores(x, a_l)
        assert got.shape == want.shape and np.array_equal(got, want), hw


# ---------------------------------------------------------------------------
# Forward: hand-computed cases
# ---------------------------------------------------------------------------


def test_forward_hand_computed_even_window():
    """1 x 2 input, k = 2: offsets {0, 1} per axis, so window (0,0) sees both
    sites and window (0,1) is half masked. Every number below is derived by
    hand; out-of-bounds bias/mix entries are set to garbage on purpose. With
    head_dim 1 and a unit query, scaling and normalization are exact."""
    cfg = QnAConfig(k=2, stride=1, heads=1, num_queries=1, dim_in=1, dim_out=1)
    params = QnAParams(
        w_k=np.array([[0.5]]),
        w_v=np.array([[3.0]]),
        b_v=np.array([1.0]),
        w_o=np.array([[2.0]]),
        b_o=np.array([-1.0]),
        queries=np.array([[1.0]]),
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
    # a one-hot query and head_dim 4 keep normalization and the 1/2 scale
    # exact, so the scores are the integers 3*x0 + x1; channel 1 feeds no
    # values, so adding c to it at every site adds c to every score, which
    # cancels inside the max subtraction before exp ever runs
    rng = make_rng(8)
    cfg = QnAConfig(k=3, stride=1, heads=1, num_queries=1, dim_in=2, dim_out=4)
    params = init_params(cfg, rng)
    params.w_k[...] = np.array([[6.0, 5.0, 0.0, 1.0], [2.0, 0.0, 3.0, 0.0]])
    params.w_v[...] = np.array([[1.0, -1.0, 2.0, 3.0], [0.0, 0.0, 0.0, 0.0]])
    params.w_o[...] = np.eye(4)
    params.queries[...] = np.array([[1.0, 0.0, 0.0, 0.0]])
    params.mix[...] = 1.0
    x = rng.integers(-3, 4, size=(5, 5, 2)).astype(np.float64)
    base = qna_forward(x, cfg, params)
    for shift in (1.0, 7.0, -4.0):
        assert np.array_equal(qna_forward(x + np.array([0.0, shift]), cfg, params), base)


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
    cfg = QnAConfig(k=3, stride=1, heads=1, num_queries=1, dim_in=1, dim_out=1)
    params = QnAParams(
        w_k=np.array([[1.0]]), w_v=np.array([[1.0]]), b_v=np.zeros(1),
        w_o=np.array([[1.0]]), b_o=np.zeros(1), queries=np.array([[1.0]]),
        mix=np.ones((1, 9)), bias=np.zeros((1, 3, 3)),
    )
    x = np.zeros((8, 8, 1))
    x[0, 0, 0] = 800.0  # exp(-800) is exactly 0.0 in f64
    with pytest.raises(NumericalRangeError):
        qna_forward(x, cfg, params)


@pytest.mark.parametrize("dtype,b", [(np.float32, 100.0), (np.float32, -120.0),
                                     (np.float64, 800.0), (np.float64, -800.0)],
                         ids=["f32+100", "f32-120", "f64+800", "f64-800"])
def test_forward_matches_oracle_on_wide_bias_tables(dtype, b):
    # exp(b) alone overflows or underflows in these dtypes; the per-query
    # shift of the bias table keeps the reduction kernels in range
    rng = make_rng(19)
    cfg = QnAConfig(k=3, stride=1, heads=2, num_queries=2, dim_in=8, dim_out=8)
    params = _rand_params(cfg, rng, dtype=dtype)
    params.bias[...] = b
    params.bias[:, 0, 1] += 1.0
    x = rng.standard_normal((10, 10, 8)).astype(dtype)
    tol = 1e-5 if dtype == np.float32 else 1e-10  # the acceptance-#1 tolerances
    got = qna_forward(x, cfg, params)
    assert np.max(np.abs(got - qna_window_oracle(x, cfg, params))) < tol


@pytest.mark.parametrize("stride", [1, 2])
def test_maps_without_sites_give_the_oracles_empty_output(stride):
    # the oracle answers on a map without rows or columns, so every entry
    # point does, with zero parameter gradients; so does an empty batch
    rng = make_rng(20)
    cfg = QnAConfig(k=3, stride=stride, heads=2, num_queries=4, dim_in=2, dim_out=4)
    params = _rand_params(cfg, rng)
    for shape in [(0, 4, 2), (4, 0, 2), (2, 0, 4, 2), (0, 5, 7, 2)]:
        x = np.zeros(shape)
        out, pullback = qna_vjp(x, cfg, params)
        sites = qna_window_oracle(np.zeros(shape[-3:]), cfg, params).shape
        assert out.shape == (*shape[:-3], *sites)
        assert qna_forward(x, cfg, params).shape == out.shape
        d_out = np.zeros(out.shape)
        for grads in (pullback(d_out), qna_backward(x, cfg, params, d_out)):
            assert grads.d_input.shape == shape
            for name, g in grads.tensors().items():
                if name != "d_input":
                    assert g.shape == getattr(params, name[2:]).shape and not g.any(), name
        if len(shape) == 3 and stride == 1:
            assert qna_upsample_forward(x, cfg, params).shape == (2 * shape[0], 2 * shape[1], 4)
            assert attention_heatmap(x, cfg, params, 0, 1).shape == shape[:2]


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
    # Transient bytes may grow with k only through the k x k reduction
    # kernels and the window reductions' own scratch, which is bounded by k
    # and the map's width and does not grow with the map's height.
    rng = make_rng(12)
    peaks, wws = {}, {}
    for k in (3, 9):
        cfg = QnAConfig(k=k, stride=1, heads=2, num_queries=2, dim_in=8, dim_out=8)
        params = init_params(cfg, rng, dtype=np.float32)
        for H in (32, 64):
            x = rng.standard_normal((H, 32, 8)).astype(np.float32)
            ledger = AllocationLedger()
            qna_forward(x, cfg, params, ledger)
            # the numerator reduction's, as it records what it allocates
            wws[k, H] = max(b for label, b in ledger.events if label == "window_weighted_sum")
            peaks[k, H] = max(b for _, b in ledger.events)
        assert wws[k, 64] == wws[k, 32]
    kernel_bytes = (3 * 2 * 81 + 3 * 2 * 9) * 4
    for H in (32, 64):
        diff = (peaks[9, H] - wws[9, H]) - (peaks[3, H] - wws[3, H])
        assert 0 <= diff <= kernel_bytes
    # at most kmax rows of products over the 32 x 8-element output rows, k
    # Toeplitz matrices of at most kmax x kmax (one group of kernel rows at
    # k <= kmax - 1), and the three ufunc buffers of the adds into a band
    kmax = (WWS_GEMM_BYTES - 1) // 4
    for k in (3, 9):
        assert wws[k, 32] <= (kmax * 32 * 8 + k * kmax * kmax + 3 * np.getbufsize()) * 4
    assert wws[9, 32] - wws[3, 32] <= 9 * kmax * kmax * 4


def test_forward_ledger_event_names():
    # all heads of a query share one numerator and one normalizer reduction,
    # and on a contiguous x no window reduction copies its map: the forward,
    # the training forward and its pullback each build every query's map
    # contiguous
    rng = make_rng(13)
    for heads in (1, 4):
        cfg = QnAConfig(k=3, stride=1, heads=heads, num_queries=3, dim_in=3, dim_out=4)
        params = init_params(cfg, rng)
        x = np.zeros((4, 4, 3))
        ledger = AllocationLedger()
        qna_forward(x, cfg, params, ledger)
        names = [name for name, _ in ledger.events]
        assert "qna_forward" in names
        assert names.count("window_weighted_sum") == 2 * cfg.num_queries
        assert "window_weighted_sum.copy" not in names
        ledger = AllocationLedger()
        out, pullback = qna_vjp(x, cfg, params, ledger)
        pullback(np.ones_like(out))
        names = [name for name, _ in ledger.events]
        assert {"qna_vjp", "qna_vjp.pullback"} <= set(names)
        assert "window_weighted_sum.copy" not in names


def _assert_ledger_matches_heap_peak(call):
    # the ledger's transient is the call's heap high-water mark above its
    # output. The per-shape caches are cleared first, so that every case is a
    # first call, whatever ran before it: their entries are built inside the
    # call and count in its heap peak.
    wws_plan.cache_clear()
    same_window_slices.cache_clear()
    ledger = AllocationLedger()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = call(ledger)
        tensors = out.tensors().values() if isinstance(out, GradBundle) else [out]
        heap = tracemalloc.get_traced_memory()[1] - start - sum(t.nbytes for t in tensors)
    finally:
        tracemalloc.stop()
    assert abs(ledger.peak_extra_bytes - heap) <= 0.1 * heap, (ledger.peak_extra_bytes, heap)


# 128 x 128 x 64 f32 maps, and small f64 maps (the toy trainer's shape among
# them, alone and as its 16-sample batch) where numpy's fixed-size ufunc
# buffers are a large share of the maps. The 128 x 128 maps and the 64 x 64
# f64 ones span several row bands of the window reduction; the others fit
# one. One, two and three queries each reach the high-water mark in another
# query's reduction. ``batch`` is the leading N, if any.
@pytest.mark.parametrize("batch,size,dim_in,dim_out,k,heads,L,dtype", [
    ((), 128, 64, 64, 3, 1, 1, np.float32),
    ((), 128, 64, 64, 15, 1, 1, np.float32),
    ((), 128, 64, 64, 7, 4, 2, np.float32),
    ((), 12, 4, 8, 3, 2, 2, np.float64),
    ((), 24, 8, 16, 5, 4, 2, np.float64),
    ((16,), 12, 4, 8, 3, 2, 2, np.float64),
    ((), 64, 16, 32, 5, 2, 2, np.float64),
    ((), 64, 16, 32, 5, 2, 3, np.float64),
], ids=["3-1-1", "15-1-1", "7-4-2", "12-4-8-3-2-2-float64", "24-8-16-5-4-2-float64",
        "16x12-4-8-3-2-2-float64", "64-16-32-5-2-2-float64", "64-16-32-5-2-3-float64"])
def test_forward_ledger_matches_heap_peak(batch, size, dim_in, dim_out, k, heads, L, dtype):
    rng = make_rng(14)
    cfg = QnAConfig(k=k, stride=1, heads=heads, num_queries=L, dim_in=dim_in, dim_out=dim_out)
    params = init_params(cfg, rng, dtype=dtype)
    x = rng.standard_normal((*batch, size, size, dim_in)).astype(dtype)
    _assert_ledger_matches_heap_peak(lambda ledger: qna_forward(x, cfg, params, ledger))


@pytest.mark.parametrize("k", [3, 15])
def test_forward_holds_one_value_map(k):
    # One query and one head at 128 x 128 x 64 f32 (4 MiB maps): E·V is
    # written into the value map, which is released before the projection.
    # Beside its output the forward holds the value map, two one-channel
    # maps (scores and normalizer, 64 KiB each) and a window reduction's
    # scratch. Holding E·V apart from the values, or the values through the
    # projection, adds a second 4 MiB map.
    cfg = QnAConfig(k=k, stride=1, heads=1, num_queries=1, dim_in=64, dim_out=64)
    params = init_params(cfg, make_rng(39), dtype=np.float32)
    x = make_rng(40).standard_normal((128, 128, 64)).astype(np.float32)
    wws_plan.cache_clear()
    same_window_slices.cache_clear()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = qna_forward(x, cfg, params)
        heap = tracemalloc.get_traced_memory()[1] - start - out.nbytes
    finally:
        tracemalloc.stop()
    one_channel = x.nbytes // 64
    assert heap <= x.nbytes + 2 * one_channel + wws_peak(x.shape, k, 1, 4) * 4, heap


def test_upsample_ledger_matches_heap_peak():
    rng = make_rng(17)
    # f64 maps that fit one row band of the window reduction, and that span
    # four; with one query (upsampling by 1), its weighted values take the
    # values' buffer
    for size, k, dim_in, dim_out, L in [(12, 3, 4, 8, 4), (64, 5, 16, 32, 4), (64, 5, 16, 32, 1)]:
        cfg = QnAConfig(k=k, stride=1, heads=2, num_queries=L, dim_in=dim_in, dim_out=dim_out)
        params = init_params(cfg, rng)
        x = rng.standard_normal((size, size, dim_in))
        _assert_ledger_matches_heap_peak(
            lambda ledger: qna_upsample_forward(x, cfg, params, ledger))


# The toy trainer's shape (f64), alone and as its 16-sample batch, where
# numpy's fixed-size ufunc buffers are a large share of the maps, a larger f32
# one, and an even window at stride 2, whose map adjoints reduce over an
# input-sized grid with a (k + 1) x (k + 1) kernel. ``batch`` is the leading
# N, if any. The trainer's own d_out is a broadcast view (one gradient per
# sample, spread over the sites); the copy its reshape makes is freed before
# the backward's high-water mark.
@pytest.mark.parametrize("batch,size,dim_in,dim_out,k,stride,heads,L,dtype,broadcast", [
    ((), 12, 4, 8, 3, 1, 2, 2, np.float64, False),
    ((), 48, 16, 32, 3, 1, 4, 2, np.float32, False),
    ((16,), 12, 4, 8, 3, 1, 2, 2, np.float64, False),
    ((), 64, 16, 16, 4, 2, 2, 2, np.float32, False),
    ((16,), 12, 4, 8, 3, 1, 2, 2, np.float64, True),
], ids=["12-4-8-2-2-float64", "48-16-32-4-2-float32", "16x12-4-8-2-2-float64",
        "64-16-16-k4-s2-2-2-float32", "16x12-4-8-2-2-float64-broadcast"])
def test_backward_ledger_matches_heap_peak(batch, size, dim_in, dim_out, k, stride, heads, L,
                                           dtype, broadcast):
    rng = make_rng(16)
    cfg = QnAConfig(k=k, stride=stride, heads=heads, num_queries=L, dim_in=dim_in,
                    dim_out=dim_out)
    params = init_params(cfg, rng, dtype=dtype)
    x = rng.standard_normal((*batch, size, size, dim_in)).astype(dtype)
    out_size = -(-size // stride)
    d_out = rng.standard_normal((*batch, out_size, out_size, dim_out)).astype(dtype)
    if broadcast:
        d_out = np.broadcast_to(d_out[..., :1, :1, :], d_out.shape)
    _assert_ledger_matches_heap_peak(lambda ledger: qna_backward(x, cfg, params, d_out, ledger))
    # the forward alone, whose tape is among its transients
    _assert_ledger_matches_heap_peak(lambda ledger: qna_vjp(x, cfg, params, ledger)[0])


# Maps of at least 128 x 128: at 64 x 64 numpy's fixed-size ufunc buffers are
# a large share of a one-channel map.
@pytest.mark.parametrize("size,dim,k,heads,L", [(128, 16, 5, 1, 1), (192, 64, 5, 1, 1),
                                                (128, 16, 3, 4, 4), (128, 16, 4, 2, 2)])
def test_heatmap_ledger_matches_heap_peak(size, dim, k, heads, L):
    rng = make_rng(15)
    cfg = QnAConfig(k=k, stride=1, heads=heads, num_queries=L, dim_in=dim, dim_out=dim)
    params = init_params(cfg, rng, dtype=np.float32)
    x = rng.standard_normal((size, size, dim)).astype(np.float32)
    _assert_ledger_matches_heap_peak(
        lambda ledger: attention_heatmap(x, cfg, params, L - 1, heads - 1, ledger))


# ---------------------------------------------------------------------------
# Backward
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("hw", [(6, 7), (5, 4), (2, 3), (3, 5, 4)])  # the last: a batch of 3
def test_window_reduction_adjoints(hw, stride, k):
    # <WWS(m, K), g> = <m, grad_map(g, K)> = <K, grad_kernel(g, m)>
    rng = make_rng(100 * k + 10 * stride + hw[0])
    m = rng.standard_normal((*hw, 3))
    kernel = rng.standard_normal((k, k))
    out = window_weighted_sum(m, kernel, stride)
    g = rng.standard_normal(out.shape)
    lhs = np.vdot(out, g)
    via_map = np.vdot(m, _wws_grad_map(g, kernel, stride, hw[-2:]))
    via_kernel = np.vdot(kernel, _wws_grad_kernel(g, m, k, stride))
    assert np.isclose(via_map, lhs, rtol=1e-12, atol=0.0)
    assert np.isclose(via_kernel, lhs, rtol=1e-12, atol=0.0)


def _gradcheck_case(cfg, seed, H=4, W=4, bias_offset=0.0):
    rng = make_rng(seed)
    params = _rand_params(cfg, rng)
    params.bias += bias_offset
    x = rng.standard_normal((H, W, cfg.dim_in))
    d_out = rng.standard_normal(qna_forward(x, cfg, params).shape)
    return max(gradcheck(x, cfg, params, d_out, qna_backward(x, cfg, params, d_out)).values())


def test_backward_gradcheck_even_window_strided():
    cfg = QnAConfig(k=2, stride=2, heads=2, num_queries=2, dim_in=3, dim_out=4)
    assert _gradcheck_case(cfg, 14) < 1e-6


def test_backward_gradcheck_offset_bias():
    # the bias gradient goes through the shifted kernels exp(B - max B)
    cfg = QnAConfig(k=3, stride=1, heads=2, num_queries=2, dim_in=3, dim_out=4)
    assert _gradcheck_case(cfg, 15, bias_offset=40.0) < 1e-6


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
    # a batch's d_out must have the same leading N as x
    with pytest.raises(ShapeError):
        qna_backward(np.stack([x, x]), cfg, params, np.zeros((3, 4, 4, 4)))
    with pytest.raises(ShapeError):
        qna_backward(x, cfg, params, np.zeros((1, 4, 4, 4)))


def _vjp_cases():
    """(cfg, x shape) over stride 1/2, L 1/2/4, one map and a batch of 3."""
    for stride in (1, 2):
        for L in (1, 2, 4):
            for lead in ((), (3,)):
                yield QnAConfig(k=3, stride=stride, heads=2, num_queries=L, dim_in=3,
                                dim_out=4), (*lead, 7, 6, 3)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_vjp_output_is_the_forward_output_bitwise(dtype):
    rng = make_rng(40)
    for cfg, shape in _vjp_cases():
        params = _rand_params(cfg, rng, dtype=dtype)
        x = rng.standard_normal(shape).astype(dtype)
        out, _ = qna_vjp(x, cfg, params)
        assert np.array_equal(out, qna_forward(x, cfg, params)), (cfg, shape)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_vjp_pullback_leaves_its_tape_unchanged(dtype):
    # a second pullback on the same tape, with another d_out in between,
    # gives the same bundle bitwise
    rng = make_rng(41)
    for cfg, shape in _vjp_cases():
        params = _rand_params(cfg, rng, dtype=dtype)
        x = rng.standard_normal(shape).astype(dtype)
        out, pullback = qna_vjp(x, cfg, params)
        d_out = rng.standard_normal(out.shape).astype(dtype)
        first = pullback(d_out).tensors()
        pullback(rng.standard_normal(out.shape).astype(dtype))
        second = pullback(d_out).tensors()
        for name, t in first.items():
            assert np.array_equal(second[name], t), (cfg, shape, name)


def test_vjp_pullback_validates_d_out():
    # the errors qna_backward raises for a bad d_out, from one pullback
    rng = make_rng(42)
    cfg = QnAConfig(k=3, stride=1, heads=1, num_queries=1, dim_in=3, dim_out=4)
    params = init_params(cfg, rng)
    x = rng.standard_normal((4, 4, 3))
    _, pullback = qna_vjp(x, cfg, params)
    with pytest.raises(ShapeError):
        pullback(np.zeros((4, 4, 3)))
    with pytest.raises(ShapeError):
        pullback(np.zeros((1, 4, 4, 4)))
    with pytest.raises(ShapeError):
        pullback(np.zeros((4, 4, 4), dtype=np.float32))
    bad = np.zeros((4, 4, 4))
    bad[0, 0, 0] = np.nan
    with pytest.raises(NumericalRangeError):
        pullback(bad)
    _, batched = qna_vjp(np.stack([x, x]), cfg, params)
    with pytest.raises(ShapeError):
        batched(np.zeros((3, 4, 4, 4)))


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
# A leading batch axis
# ---------------------------------------------------------------------------


def _batch_cases():
    """(cfg, N) over stride 1/2, k 2/3, heads 1/2, L 1/2 and N 1/5."""
    for stride in (1, 2):
        for k in (2, 3):
            for heads in (1, 2):
                for L in (1, 2):
                    for n in (1, 5):
                        yield QnAConfig(k=k, stride=stride, heads=heads, num_queries=L,
                                        dim_in=3, dim_out=4), n


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batched_forward_equals_per_sample_calls(dtype):
    rng = make_rng(30)
    for cfg, n in _batch_cases():
        params = _rand_params(cfg, rng, dtype=dtype)
        x = rng.standard_normal((n, 7, 6, 3)).astype(dtype)
        want = np.stack([qna_forward(sample, cfg, params) for sample in x])
        assert np.array_equal(qna_forward(x, cfg, params), want), (cfg, n)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batched_backward_sums_per_sample_gradients(dtype):
    rng = make_rng(31)
    tol = {np.float32: 1e-5, np.float64: 1e-12}[dtype]
    for cfg, n in _batch_cases():
        params = _rand_params(cfg, rng, dtype=dtype)
        x = rng.standard_normal((n, 7, 6, 3)).astype(dtype)
        d_out = rng.standard_normal(qna_forward(x, cfg, params).shape).astype(dtype)
        got = qna_backward(x, cfg, params, d_out).tensors()
        per = [qna_backward(s, cfg, params, g).tensors() for s, g in zip(x, d_out)]
        assert np.array_equal(got.pop("d_input"), np.stack([p["d_input"] for p in per])), (cfg, n)
        for name, t in got.items():
            want = sum(p[name] for p in per)
            assert np.max(np.abs(t - want)) <= tol * np.max(np.abs(want)), (cfg, n, name)


def test_batched_forward_shifts_each_sample_by_its_own_max():
    # sample 1's scores grow 40-fold; one shift across the batch would move
    # the other samples' exponentials, and so their last bits
    rng = make_rng(32)
    cfg = QnAConfig(k=3, stride=1, heads=2, num_queries=2, dim_in=4, dim_out=8)
    params = _rand_params(cfg, rng)
    params.w_k *= 25.0
    x = rng.standard_normal((3, 8, 8, 4))
    base = qna_forward(x, cfg, params)
    x[1] *= 40.0
    scaled = qna_forward(x, cfg, params)
    assert np.array_equal(scaled[[0, 2]], base[[0, 2]])
    assert not np.array_equal(scaled[1], base[1])


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
    cfg4 = QnAConfig(k=3, stride=1, heads=1, num_queries=4, dim_in=3, dim_out=4)
    with pytest.raises(ShapeError, match="one H x W"):
        qna_upsample_forward(np.zeros((2, 4, 4, 3)), cfg4, init_params(cfg4, rng))


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
    # accumulate the oracle's per-window softmax weights site by site, for
    # every (query, head) so that a swapped or shifted selection shows
    rng = make_rng(23)
    cfg = QnAConfig(k=3, stride=1, heads=2, num_queries=2, dim_in=3, dim_out=6)
    params = _rand_params(cfg, rng)
    H, W = 4, 5
    x = rng.standard_normal((H, W, 3))
    q = used_queries(params) / np.sqrt(cfg.head_dim)
    keys = x @ params.w_k
    dh = cfg.head_dim
    for l in range(cfg.num_queries):
        for g in range(cfg.heads):
            s = keys[:, :, g * dh : (g + 1) * dh] @ q[l, g * dh : (g + 1) * dh]
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
            heat = attention_heatmap(x, cfg, params, l, g)
            assert np.allclose(heat, want, atol=1e-10), (l, g)


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
    with pytest.raises(ShapeError, match="one H x W"):
        attention_heatmap(np.stack([x, x]), cfg, params, 0, 0)


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
    assert {n: t.shape for n, t in f32.tensors().items()} == {
        n: t.shape for n, t in a.tensors().items()}


def test_save_load_roundtrip(tmp_path):
    rng = make_rng(25)
    cfg = QnAConfig(k=3, stride=2, heads=2, num_queries=2, dim_in=3, dim_out=4)
    params = _rand_params(cfg, rng)
    x = rng.standard_normal((5, 5, 3))
    want = qna_forward(x, cfg, params)
    save_params(tmp_path / "layer", cfg, params)
    cfg2, params2 = load_params(tmp_path / "layer")
    assert cfg2 == cfg
    assert np.array_equal(qna_forward(x, cfg2, params2), want)


def test_load_params_reads_each_payload_in_place(tmp_path):
    # each file is read straight into its tensor: loading holds no payload
    # bytes or cast copy beside the tensors it returns
    cfg = QnAConfig(k=3, stride=1, heads=2, num_queries=2, dim_in=256, dim_out=256)
    save_params(tmp_path / "layer", cfg, init_params(cfg, 28))
    tracemalloc.start()
    try:
        _, params = load_params(tmp_path / "layer")
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    largest = max(t.nbytes for t in params.tensors().values())
    assert held >= sum(t.nbytes for t in params.tensors().values())
    assert peak - held < largest, (peak - held, largest)


def test_load_rejects_mismatched_tensor(tmp_path):
    rng = make_rng(26)
    cfg = QnAConfig(k=3, stride=1, heads=1, num_queries=1, dim_in=3, dim_out=4)
    save_params(tmp_path / "layer", cfg, init_params(cfg, rng))
    from qna.tensor import save_qnat

    save_qnat(tmp_path / "layer" / "w_k.qnat", np.zeros((9, 9)))
    # the error names the file, as load_model's does
    with pytest.raises(ShapeError, match=r"w_k\.qnat: .* shape \(9, 9\), expected .* \(3, 4\)"):
        load_params(tmp_path / "layer")


def test_save_params_config_text(tmp_path):
    # the on-disk format: sorted keys, two-space indent, tensors in field order
    cfg = QnAConfig(k=5, stride=2, heads=2, num_queries=3, dim_in=3, dim_out=4)
    save_params(tmp_path, cfg, init_params(cfg, 27))
    assert (tmp_path / "config.json").read_text() == (
        '{\n  "dim_in": 3,\n  "dim_out": 4,\n  "dtype": "f64",\n  "heads": 2,\n  "k": 5,\n'
        '  "num_queries": 3,\n  "stride": 2,\n  "tensors": [\n    "w_k",\n    "w_v",\n'
        '    "b_v",\n    "w_o",\n    "b_o",\n    "queries",\n    "mix",\n    "bias"\n  ]\n}')


def _saved_layer_with_config(tmp_path, edit):
    """A saved layer whose config.json is replaced by ``edit(document)``."""
    cfg = QnAConfig(k=3, stride=1, heads=1, num_queries=1, dim_in=3, dim_out=4)
    save_params(tmp_path / "layer", cfg, init_params(cfg, 27))
    path = tmp_path / "layer" / "config.json"
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    return tmp_path / "layer"


def test_load_params_checks_every_header_before_allocating(tmp_path):
    # a k = 3 layer whose config.json claims k = 1000: building that layer's
    # tensors first would allocate 16 MB
    layer = _saved_layer_with_config(tmp_path, lambda doc: {**doc, "k": 1000})
    tracemalloc.start()
    try:
        with pytest.raises(ShapeError) as info:
            load_params(layer)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == (f"{layer / 'mix.qnat'}: tensor mix is float64 of shape (1, 9), "
                               "expected float64 of shape (1, 1000000)")
    assert peak < 2**20, peak


@pytest.mark.parametrize("key", ["stride", "dtype", "tensors"])
def test_load_names_missing_config_key(tmp_path, key):
    with pytest.raises(QnatFormatError, match=key):
        load_params(_saved_layer_with_config(
            tmp_path, lambda doc: {k: v for k, v in doc.items() if k != key}))


def test_load_rejects_unknown_config_key(tmp_path):
    # a file that carries a key the config does not have (such as a removed
    # option) would otherwise load as a different layer than the one saved
    with pytest.raises(QnatFormatError, match="retired_flag"):
        load_params(_saved_layer_with_config(tmp_path, lambda doc: {**doc, "retired_flag": False}))


@pytest.mark.parametrize("tag,error,match", [
    ("f16", QnatFormatError, "'dtype'"),
    (None, QnatFormatError, "'dtype'"),
    # a known tag, but these tensors are float64: the first file read is named
    ("f32", ShapeError, "w_k.qnat"),
], ids=["f16", "None", "f32"])
def test_load_rejects_unknown_or_wrong_dtype_tag(tmp_path, tag, error, match):
    with pytest.raises(error, match=match):
        load_params(_saved_layer_with_config(tmp_path, lambda doc: {**doc, "dtype": tag}))


@pytest.mark.parametrize("edit,match", [
    (lambda doc: [doc], "JSON object"),
    (lambda doc: {**doc, "k": "3"}, "'k'"),
    (lambda doc: {**doc, "k": 3.0}, "'k'"),
    (lambda doc: {**doc, "heads": True}, "'heads'"),
    (lambda doc: {**doc, "dtype": ["f64"]}, "'dtype'"),
    (lambda doc: {**doc, "tensors": doc["tensors"][:-1]}, "'tensors'"),
    (lambda doc: {**doc, "tensors": doc["tensors"] + ["w_q"]}, "'tensors'"),
    (lambda doc: {**doc, "tensors": "w_k"}, "'tensors'"),
], ids=["top-level-list", "k-string", "k-float", "heads-bool", "dtype-list",
        "tensors-missing-one", "tensors-unknown-name", "tensors-string"])
def test_load_params_rejects_malformed_config(tmp_path, edit, match):
    with pytest.raises(QnatFormatError, match=match) as info:
        load_params(_saved_layer_with_config(tmp_path, edit))
    assert "config.json" in str(info.value)


def test_load_params_rejects_non_json_config(tmp_path):
    layer = _saved_layer_with_config(tmp_path, lambda doc: doc)
    (layer / "config.json").write_text('{"k": 3,')
    with pytest.raises(QnatFormatError, match="config.json"):
        load_params(layer)
