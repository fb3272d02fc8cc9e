"""Reference implementations: unfold invariants, center-query window
attention, the shared-query reduction shim between the two attention forms,
and finite differences."""

import numpy as np
import pytest

from qna.checks import active_params
from qna.layer import QnAConfig, QnAParams, qna_forward
from qna.oracles import SasaParams, finite_diff_grad, qna_window_oracle, sasa_forward, unfold
from qna.tensor import (
    AllocationLedger,
    NumericalRangeError,
    ShapeError,
    make_rng,
    offset_bounds,
    same_output_size,
)


# ---------------------------------------------------------------------------
# unfold
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("stride", [1, 2])
def test_unfold_matches_direct_indexing(k, stride):
    rng = make_rng(k + stride)
    H, W, D = 6, 5, 3
    x = rng.standard_normal((H, W, D))
    uf = unfold(x, k, stride)
    lo, hi = offset_bounds(k)
    Hp, Wp = same_output_size(H, stride), same_output_size(W, stride)
    assert uf.patches.shape == (Hp, Wp, k * k, D)
    assert uf.mask.shape == (Hp, Wp, k * k)
    for i in range(Hp):
        for j in range(Wp):
            for o, (di, dj) in enumerate(
                (a, b) for a in range(lo, hi + 1) for b in range(lo, hi + 1)
            ):
                r, c = i * stride + di, j * stride + dj
                inside = 0 <= r < H and 0 <= c < W
                assert uf.mask[i, j, o] == inside
                if inside:
                    assert np.array_equal(uf.patches[i, j, o], x[r, c])
                else:
                    assert np.all(uf.patches[i, j, o] == 0.0)


def test_unfold_interior_mask_full_and_k1_identity():
    rng = make_rng(9)
    x = rng.standard_normal((5, 5, 2))
    uf = unfold(x, 3, 1)
    assert uf.mask[1:-1, 1:-1].all()
    uf1 = unfold(x, 1, 1)
    assert np.array_equal(uf1.patches[:, :, 0, :], x)
    assert uf1.mask.all()


def test_unfold_ledger_bytes_frozen():
    # the reference scratch law, pinned at one concrete size
    x = np.zeros((16, 16, 4), dtype=np.float32)
    ledger = AllocationLedger()
    unfold(x, 5, 1, ledger)
    assert ledger.events == [("unfold", 102400)]  # 16*16*25*4*4


def test_unfold_validates():
    with pytest.raises(ShapeError):
        unfold(np.zeros((4, 4)), 3)
    with pytest.raises(ShapeError):
        unfold(np.zeros((4, 4, 1)), 0)
    with pytest.raises(ShapeError):
        unfold(np.zeros((4, 4, 1)), 3, 0)


# ---------------------------------------------------------------------------
# qna_window_oracle spot checks (the efficient layer is compared against it
# exhaustively elsewhere; here the oracle itself is pinned on tiny cases)
# ---------------------------------------------------------------------------


def _tiny_cfg_params(rng, k=3, stride=1, heads=1, L=1, dtype=np.float64):
    cfg = QnAConfig(k=k, stride=stride, heads=heads, num_queries=L, dim_in=3, dim_out=4)
    return cfg, active_params(cfg, rng, dtype)


def test_oracle_k1_is_pointwise():
    # a 1x1 window attends only to itself: softmax weight 1, so the layer
    # reduces to mix * (x W_V + b_v) through W_O
    rng = make_rng(21)
    cfg, params = _tiny_cfg_params(rng, k=1)
    x = rng.standard_normal((4, 5, 3))
    got = qna_window_oracle(x, cfg, params)
    v = x.reshape(-1, 3) @ params.w_v + params.b_v
    want = ((params.mix[0, 0] * v) @ params.w_o + params.b_o).reshape(4, 5, 4)
    assert np.allclose(got, want, atol=1e-12)


def test_oracle_hand_loop_single_window():
    # fully by-hand evaluation at one interior site, two queries, one head
    rng = make_rng(22)
    cfg, params = _tiny_cfg_params(rng, k=3, L=2)
    x = rng.standard_normal((5, 5, 3))
    got = qna_window_oracle(x, cfg, params)

    i, j = 2, 3
    q = params.queries / np.linalg.norm(params.queries, axis=1, keepdims=True)
    q = q / np.sqrt(4.0)
    keys = x.reshape(-1, 3) @ params.w_k
    vals = (x.reshape(-1, 3) @ params.w_v + params.b_v).reshape(5, 5, 4)
    keys = keys.reshape(5, 5, 4)
    y = np.zeros(4)
    for l in range(2):
        logits = []
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                logits.append(q[l] @ keys[i + di, j + dj] + params.bias[l, di + 1, dj + 1])
        w = np.exp(logits - np.max(logits))
        w /= w.sum()
        w = w * params.mix[l]
        o = 0
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                y += w[o] * vals[i + di, j + dj]
                o += 1
    want = y @ params.w_o + params.b_o
    assert np.allclose(got[i, j], want, atol=1e-12)


def test_oracle_border_masking_matches_truncated_softmax():
    # corner window of a k=3 map sees only 4 in-bounds offsets
    rng = make_rng(23)
    cfg, params = _tiny_cfg_params(rng, k=3)
    x = rng.standard_normal((4, 4, 3))
    got = qna_window_oracle(x, cfg, params)
    q = params.queries / np.linalg.norm(params.queries, axis=1, keepdims=True)
    q = q / 2.0
    keys = (x.reshape(-1, 3) @ params.w_k).reshape(4, 4, 4)
    vals = (x.reshape(-1, 3) @ params.w_v + params.b_v).reshape(4, 4, 4)
    logits, offs = [], []
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if 0 <= di <= 1 and 0 <= dj <= 1:  # in-bounds at (0, 0)
                logits.append(q[0] @ keys[di, dj] + params.bias[0, di + 1, dj + 1])
                offs.append((di, dj))
    w = np.exp(logits - np.max(logits))
    w /= w.sum()
    y = np.zeros(4)
    mixk = params.mix[0].reshape(3, 3)
    for wt, (di, dj) in zip(w, offs):
        y += wt * mixk[di + 1, dj + 1] * vals[di, dj]
    want = y @ params.w_o + params.b_o
    assert np.allclose(got[0, 0], want, atol=1e-12)


# ---------------------------------------------------------------------------
# sasa_forward
# ---------------------------------------------------------------------------


def test_sasa_hand_loop():
    rng = make_rng(31)
    H, W, D = 5, 4, 3
    x = rng.standard_normal((H, W, D))
    params = SasaParams(
        w_q=rng.standard_normal((D, D)),
        w_k=rng.standard_normal((D, D)),
        w_v=rng.standard_normal((D, D)),
    )
    got = sasa_forward(x, 3, params)
    assert got.shape == (H, W, D)
    for i, j in [(0, 0), (2, 2), (4, 3)]:
        q = (x[i, j] @ params.w_q) / np.sqrt(D)
        logits, vals = [], []
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                r, c = i + di, j + dj
                if 0 <= r < H and 0 <= c < W:
                    logits.append(q @ (x[r, c] @ params.w_k))
                    vals.append(x[r, c] @ params.w_v)
        w = np.exp(np.array(logits) - np.max(logits))
        w /= w.sum()
        want = sum(wt * v for wt, v in zip(w, vals))
        assert np.allclose(got[i, j], want, atol=1e-12)


def test_sasa_k1_is_value_projection():
    rng = make_rng(32)
    x = rng.standard_normal((3, 3, 4))
    params = SasaParams(
        w_q=rng.standard_normal((4, 4)),
        w_k=rng.standard_normal((4, 4)),
        w_v=rng.standard_normal((4, 4)),
    )
    got = sasa_forward(x, 1, params)
    assert np.allclose(got, (x.reshape(-1, 4) @ params.w_v).reshape(3, 3, 4), atol=1e-12)


def test_sasa_validates():
    x = np.zeros((3, 3, 4))
    good = SasaParams(w_q=np.zeros((4, 2)), w_k=np.zeros((4, 2)), w_v=np.zeros((4, 3)))
    with pytest.raises(ShapeError):
        sasa_forward(np.zeros((3, 3)), 3, good)
    with pytest.raises(ShapeError):
        sasa_forward(x, 0, good)
    with pytest.raises(ShapeError):
        sasa_forward(x, 3, SasaParams(w_q=np.zeros((4, 2)), w_k=np.zeros((4, 3)), w_v=np.zeros((4, 3))))
    with pytest.raises(ShapeError):
        sasa_forward(x, 3, SasaParams(w_q=np.zeros((3, 2)), w_k=np.zeros((3, 2)), w_v=np.zeros((3, 3))))


# ---------------------------------------------------------------------------
# shim: center-query window attention as a special case of the shared-query
# layer (queries overridden per site, single query, identity output path)
# ---------------------------------------------------------------------------


def test_sasa_equals_pointwise_specialized_qna():
    """With one query, unit mixing, zero bias, and identity output projection,
    the shared-query layer evaluated with the center's projected query at
    every site reproduces center-query window attention exactly."""
    rng = make_rng(34)
    H, W, D = 5, 5, 4
    k = 3
    x = rng.standard_normal((H, W, D))
    sasa = SasaParams(
        w_q=rng.standard_normal((D, D)),
        w_k=rng.standard_normal((D, D)),
        w_v=rng.standard_normal((D, D)),
    )
    want = sasa_forward(x, k, sasa)

    cfg = QnAConfig(k=k, stride=1, heads=1, num_queries=1, dim_in=D, dim_out=D)
    got = np.empty_like(want)
    for i in range(H):
        for j in range(W):
            # the layer unit-normalizes its query and scales by 1/sqrt(D) as
            # SASA does; the query's norm moves into the key projection
            q = x[i, j] @ sasa.w_q
            params = QnAParams(
                w_k=sasa.w_k * np.linalg.norm(q),
                w_v=sasa.w_v.copy(),
                b_v=np.zeros(D),
                w_o=np.eye(D),
                b_o=np.zeros(D),
                queries=q.reshape(1, D),
                mix=np.ones((1, k * k)),
                bias=np.zeros((1, k, k)),
            )
            got[i, j] = qna_forward(x, cfg, params)[i, j]
    assert np.allclose(got, want, atol=1e-10)


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------


def test_finite_diff_quadratic_is_exact_to_eps_order():
    rng = make_rng(41)
    a = rng.standard_normal((4, 3))

    def f(v):
        return float(np.sum(a * v) + 0.5 * np.sum(v * v))

    x = rng.standard_normal((4, 3))
    grad = finite_diff_grad(f, x, 1e-5)
    assert np.allclose(grad, a + x, atol=1e-9)


def test_finite_diff_does_not_mutate_and_validates():
    x = np.ones((2, 2))
    snapshot = x.copy()
    finite_diff_grad(lambda v: float(v.sum()), x, 1e-6)
    assert np.array_equal(x, snapshot)
    with pytest.raises(ValueError):
        finite_diff_grad(lambda v: 0.0, x, 0.0)
    with pytest.raises(NumericalRangeError):
        finite_diff_grad(lambda v: float("nan"), x, 1e-6)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_oracle_reports_non_finite_scores():
    # finite input whose key map overflows f32: the masked softmax sees
    # inf - inf and must report a range error, not return nan silently
    rng = make_rng(42)
    cfg = QnAConfig(k=3, stride=1, heads=1, num_queries=1, dim_in=3, dim_out=4)
    from qna.layer import init_params

    params = init_params(cfg, rng, dtype=np.float32)
    params.w_k[...] = 1e10
    x = np.full((4, 4, 3), 1e30, dtype=np.float32)
    with pytest.raises(NumericalRangeError):
        qna_window_oracle(x, cfg, params)
