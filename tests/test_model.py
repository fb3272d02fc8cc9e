"""Backbone assembly: architecture validation, deterministic construction,
block forwards against loop oracles, cost accounting, and serialization."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from qna import tensor as tensor_mod
from qna.checks import oracle_swap
from qna.layer import QnAConfig, init_params, qna_forward, qna_upsample_forward
from qna.model import (
    FFN_TILE_ROWS,
    ArchConfig,
    CostReport,
    _ffn_residual,
    _gelu_,
    qna_flops,
    build_model,
    count_flops,
    count_params,
    forward_inference,
    load_model,
    make_arch,
    model_skeleton,
    qna_block_forward,
    save_model,
    vit_block_forward,
)
from qna.tensor import (
    AllocationLedger,
    QnatFormatError,
    ShapeError,
    layernorm,
    make_rng,
    save_qnat,
)


def _mini_arch(base_dim=8, vit=(0, 0, 1, 1), qna=(1, 1, 1, 0), classes=10, **kw):
    d = base_dim
    return ArchConfig(
        base_dim=d,
        vit_blocks=vit,
        qna_blocks=qna,
        qna_heads=kw.pop("qna_heads", (2, 2, 4, 4)),
        ds_heads=kw.pop("ds_heads", (2, 4, 8)),
        sa_heads=kw.pop("sa_heads", (2, 2, 2, 4)),
        num_classes=classes,
        **kw,
    )


# ---------------------------------------------------------------------------
# Architecture configs
# ---------------------------------------------------------------------------


def test_presets_match_reference_tables():
    tiny = make_arch("tiny")
    assert tiny.base_dim == 64
    assert tiny.stage_dims == (64, 128, 256, 512)
    assert tiny.vit_blocks == (0, 0, 4, 2)
    assert tiny.qna_blocks == (3, 4, 3, 0)
    assert tiny.qna_heads == (8, 16, 32, 32)
    assert tiny.ds_heads == (16, 32, 64)
    assert tiny.sa_heads == (8, 8, 8, 16)
    assert tiny.window == 3 and tiny.num_queries == 2
    small = make_arch("small")
    assert small.vit_blocks == (0, 0, 12, 2) and small.qna_blocks == (3, 4, 7, 0)
    base = make_arch("base")
    assert base.base_dim == 96
    assert base.qna_heads == (6, 12, 24, 24) and base.ds_heads == (16, 32, 48)
    with pytest.raises(ValueError):
        make_arch("huge")


def test_arch_validation():
    with pytest.raises(ShapeError):
        _mini_arch(base_dim=0)
    # a stage without its downsampler truncates the model
    with pytest.raises(ShapeError):
        _mini_arch(qna=(1, 0, 1, 0))
    truncated = _mini_arch(vit=(0, 0, 0, 0), qna=(1, 0, 0, 0))
    assert truncated.num_stages() == 2
    assert _mini_arch().num_stages() == 4


def test_arch_json_roundtrip(tmp_path):
    arch = _mini_arch(window=5, num_queries=4)
    save_model(tmp_path / "m", build_model(arch, seed=0))
    assert load_model(tmp_path / "m").arch == arch


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def test_build_model_structure_and_determinism():
    model = build_model("tiny", seed=1)
    assert [len(s) for s in model.stages] == [3, 4, 7, 2]
    # stage composition: stride-1 local blocks then the downsampler; stage 3
    # runs global blocks before local ones; stage 4 is global only
    kinds = [[b.kind for b in s] for s in model.stages]
    assert kinds[0] == ["qna"] * 3
    assert kinds[1] == ["qna"] * 4
    assert kinds[2] == ["vit"] * 4 + ["qna"] * 3
    assert kinds[3] == ["vit"] * 2
    strides = [b.qna_cfg.stride for s in model.stages for b in s if b.kind == "qna"]
    assert strides == [1, 1, 2, 1, 1, 1, 2, 1, 1, 2]
    # downsampler head counts come from the transition table
    assert model.stages[0][-1].qna_cfg.heads == 16
    assert model.stages[1][-1].qna_cfg.heads == 32
    assert model.stages[2][-1].qna_cfg.heads == 64
    assert model.stages[0][0].qna_cfg.heads == 8

    again = build_model("tiny", seed=1)
    named, named2 = model.tensors(), again.tensors()
    assert named.keys() == named2.keys()
    assert all(np.array_equal(named[n], named2[n]) for n in named)
    other = build_model("tiny", seed=2)
    assert not np.array_equal(model.patch_w, other.patch_w)


def test_block_tensor_names_come_from_the_fields():
    # the names are the on-disk file names: nested sets under dotted names,
    # absent (None) sub-blocks contribute none
    model = build_model(_mini_arch(), seed=0)
    downsampler, vit = model.stages[0][-1], model.stages[2][0]
    common = ["ln1_g", "ln1_b", "ln2_g", "ln2_b", "ffn.w1", "ffn.b1", "ffn.w2", "ffn.b2"]
    qna = ["w_k", "w_v", "b_v", "w_o", "b_o", "queries", "mix", "bias"]
    assert list(downsampler.tensors()) == common + [f"qna.{n}" for n in qna] + ["skip_w", "skip_b"]
    msa = ["w_q", "b_q", "w_k", "b_k", "w_v", "b_v", "w_o", "b_o"]
    assert list(vit.tensors()) == common + [f"msa.{n}" for n in msa]
    # the model's own tensors come first, then each block's under its prefix
    names = list(model.tensors())
    assert names[:6] == ["patch_w", "patch_b", "final_ln_g", "final_ln_b", "head_w", "head_b"]
    assert names[6:6 + len(common)] == [f"stage0.block0.{n}" for n in common]
    assert "stage0.block0.qna.w_k" in names


def test_build_model_skip_projection_only_on_downsamplers():
    model = build_model("tiny", seed=0)
    for stage in model.stages:
        for blk in stage:
            if blk.kind != "qna":
                continue
            if blk.qna_cfg.stride == 2:
                assert blk.skip_w is not None and blk.skip_b is not None
                assert blk.skip_w.shape == (blk.qna_cfg.dim_in, blk.qna_cfg.dim_out)
            else:
                assert blk.skip_w is None


# ---------------------------------------------------------------------------
# Parameter counts
# ---------------------------------------------------------------------------


def test_zero_block_closed_form():
    # no blocks at all: patch embedding, final norm, classifier head
    d = 64
    arch = _mini_arch(base_dim=d, vit=(0, 0, 0, 0), qna=(0, 0, 0, 0), classes=1000)
    model = build_model(arch, seed=0)
    report = count_params(model)
    assert report.params == (3 * 16 * d + d) + 2 * d + (d * 1000 + 1000)
    assert report.params == 68264


def test_count_params_equals_tensor_sizes():
    model = build_model(_mini_arch(), seed=3)
    report = count_params(model)
    assert report.params == sum(t.size for t in model.tensors().values())
    assert report.params == sum(r.params for r in report.rows)
    assert report.flops == 0


def test_extra_query_param_delta_closed_form():
    # one more query adds one query row, one mixing row, one bias table per
    # local-attention layer
    a2 = _mini_arch(num_queries=2)
    a3 = _mini_arch(num_queries=3)
    p2 = count_params(build_model(a2, seed=0)).params
    p3 = count_params(build_model(a3, seed=0)).params
    k2 = a2.window**2
    delta = 0
    for blk in (b for s in build_model(a2, seed=0).stages for b in s if b.kind == "qna"):
        delta += blk.qna_cfg.dim_out + 2 * k2
    assert p3 - p2 == delta


def test_preset_param_magnitudes():
    tiny = count_params(build_model("tiny", seed=0)).params
    small = count_params(build_model("small", seed=0)).params
    base = count_params(build_model("base", seed=0)).params
    assert 10e6 < tiny < small < base < 80e6


# ---------------------------------------------------------------------------
# FLOP accounting
# ---------------------------------------------------------------------------


def test_qna_flops_formula():
    from qna.layer import QnAConfig

    cfg = QnAConfig(k=3, stride=2, heads=2, num_queries=2, dim_in=4, dim_out=8)
    got = qna_flops(cfg, 6, 6)
    n_in, n_out = 36, 9
    want = (
        n_in * 4 * 8          # value projection
        + 2 * 8 * 4           # query/key fold
        + n_in * 2 * 8        # score maps, one per query, head-free
        + 9 * n_out * (8 + 2) * 2  # window reductions + normalizers
        + n_out * 8 * 8       # output projection
    )
    assert got == want


def test_count_flops_minimal_model_closed_form():
    # one downsampler block and nothing else
    d = 8
    arch = _mini_arch(base_dim=d, vit=(0, 0, 0, 0), qna=(1, 0, 0, 0), classes=10)
    model = build_model(arch, seed=0)
    res = 32
    grid = res // 4
    report = count_flops(model, res)

    blk = model.stages[0][0]
    hp = grid // 2
    qna = qna_flops(blk.qna_cfg, grid, grid)
    skip = hp * hp * d * 2 * d
    ffn = 2 * hp * hp * (2 * d) * (8 * d)
    want = (grid * grid * 48 * d) + (qna + skip + ffn) + (2 * d * 10)
    assert report.flops == want
    assert report.flops == sum(r.flops for r in report.rows)


def test_count_flops_vit_block_formula():
    d = 8
    arch = _mini_arch(base_dim=d, vit=(0, 0, 0, 0), qna=(0, 0, 0, 0), classes=10)
    base_fl = count_flops(build_model(arch, seed=0), 32).flops
    arch1 = ArchConfig(
        base_dim=d, vit_blocks=(1, 0, 0, 0),
        qna_blocks=(0, 0, 0, 0), qna_heads=(2, 2, 2, 2), ds_heads=(2, 2, 2),
        sa_heads=(2, 2, 2, 2), num_classes=10,
    )
    fl = count_flops(build_model(arch1, seed=0), 32).flops
    n = 8 * 8
    assert fl - base_fl == 4 * n * d * d + 2 * n * n * d + 8 * n * d * d


def test_count_flops_validates_resolution():
    model = build_model(_mini_arch(), seed=0)
    with pytest.raises(ShapeError):
        count_flops(model, 100)
    with pytest.raises(ShapeError):
        count_flops(model, 0)
    assert isinstance(count_flops(model, 64), CostReport)


def test_window_size_flop_insensitivity_presets():
    # the fused accounting keeps the k**2 term small next to projections
    tiny3 = count_flops(build_model(make_arch("tiny", window=3), seed=0), 224).flops
    tiny7 = count_flops(build_model(make_arch("tiny", window=7), seed=0), 224).flops
    assert tiny7 > tiny3
    assert (tiny7 - tiny3) / tiny3 < 0.05


# ---------------------------------------------------------------------------
# Block forwards
# ---------------------------------------------------------------------------


def test_vit_block_matches_loop_oracle():
    # the second case has more heads and a stage-4-like token count (7 x 7)
    for d, h, n in [(8, 2, 12), (16, 4, 49)]:
        _check_vit_block_against_loops(d, h, n)


def _check_vit_block_against_loops(d, h, n):
    rng = make_rng(5)
    arch = _mini_arch(base_dim=d, vit=(1, 0, 0, 0), qna=(0, 0, 0, 0), sa_heads=(h, 2, 2, 4))
    model = build_model(arch, seed=5, dtype=np.float64)
    blk = model.stages[0][0]
    z = rng.standard_normal((n, d))
    got = vit_block_forward(z, blk)

    u = layernorm(z, blk.ln1_g, blk.ln1_b)
    m = blk.msa
    q = (u @ m.w_q + m.b_q).reshape(n, h, d // h)
    kk = (u @ m.w_k + m.b_k).reshape(n, h, d // h)
    v = (u @ m.w_v + m.b_v).reshape(n, h, d // h)
    att_out = np.zeros((n, h, d // h))
    for g in range(h):
        for i in range(n):
            scores = np.array([q[i, g] @ kk[j, g] for j in range(n)]) / np.sqrt(d / h)
            w = np.exp(scores - scores.max())
            w /= w.sum()
            att_out[i, g] = sum(w[j] * v[j, g] for j in range(n))
    z1 = z + (att_out.reshape(n, d) @ m.w_o + m.b_o)
    u2 = layernorm(z1, blk.ln2_g, blk.ln2_b)
    hdn = np.asarray(u2 @ blk.ffn.w1 + blk.ffn.b1)
    gelu = 0.5 * hdn * (1 + np.tanh(np.sqrt(2 / np.pi) * (hdn + 0.044715 * hdn**3)))
    want = z1 + (gelu @ blk.ffn.w2 + blk.ffn.b2)
    assert np.allclose(got, want, atol=1e-10)


def test_qna_block_is_composition():
    rng = make_rng(7)
    arch = _mini_arch(base_dim=8, qna=(2, 1, 1, 0))
    model = build_model(arch, seed=7, dtype=np.float64)
    blk = model.stages[0][0]  # stride 1
    assert blk.qna_cfg.stride == 1
    x = rng.standard_normal((6, 6, 8))
    got = qna_block_forward(x, blk)
    u = layernorm(x, blk.ln1_g, blk.ln1_b)
    z = x + qna_forward(u, blk.qna_cfg, blk.qna)
    u2 = layernorm(z, blk.ln2_g, blk.ln2_b).reshape(36, 8)
    hdn = u2 @ blk.ffn.w1 + blk.ffn.b1
    gelu = 0.5 * hdn * (1 + np.tanh(np.sqrt(2 / np.pi) * (hdn + 0.044715 * hdn**3)))
    want = z + (gelu @ blk.ffn.w2 + blk.ffn.b2).reshape(6, 6, 8)
    assert np.allclose(got, want, atol=1e-12)


def test_qna_block_downsampler_skip_is_strided_conv():
    rng = make_rng(8)
    arch = _mini_arch(base_dim=8)
    model = build_model(arch, seed=8, dtype=np.float64)
    blk = model.stages[0][-1]  # the downsampler
    assert blk.qna_cfg.stride == 2
    x = rng.standard_normal((6, 6, 8))
    got = qna_block_forward(x, blk)
    assert got.shape == (3, 3, 16)
    u = layernorm(x, blk.ln1_g, blk.ln1_b)
    y = qna_forward(u, blk.qna_cfg, blk.qna)
    skip = x[::2, ::2] @ blk.skip_w + blk.skip_b
    z = skip + y
    u2 = layernorm(z, blk.ln2_g, blk.ln2_b).reshape(9, 16)
    hdn = u2 @ blk.ffn.w1 + blk.ffn.b1
    gelu = 0.5 * hdn * (1 + np.tanh(np.sqrt(2 / np.pi) * (hdn + 0.044715 * hdn**3)))
    want = z + (gelu @ blk.ffn.w2 + blk.ffn.b2).reshape(3, 3, 16)
    assert np.allclose(got, want, atol=1e-12)


def _ffn_formula(z, blk):
    """z + gelu(LN2(z) W1 + b1) W2 + b2, unfused, over z's last axis."""
    u2 = layernorm(z, blk.ln2_g, blk.ln2_b).reshape(-1, z.shape[-1])
    hdn = u2 @ blk.ffn.w1 + blk.ffn.b1
    gelu = 0.5 * hdn * (1 + np.tanh(np.sqrt(2 / np.pi) * (hdn + 0.044715 * hdn**3)))
    return z + (gelu @ blk.ffn.w2 + blk.ffn.b2).reshape(z.shape)


# Row counts below one tile, of exactly two tiles, and of two and a ragged tail.
@pytest.mark.parametrize("rows", [FFN_TILE_ROWS // 4 + 3, 2 * FFN_TILE_ROWS,
                                  2 * FFN_TILE_ROWS + 37])
@pytest.mark.parametrize("dtype,atol", [(np.float64, 1e-12), (np.float32, 1e-6)])
def test_tiled_ffn_matches_the_unfused_formula(rows, dtype, atol):
    rng = make_rng(30)
    blk = build_model(_mini_arch(base_dim=8, qna=(2, 1, 1, 0)), seed=30, dtype=dtype).stages[0][0]
    # the built biases and gains are zeros and ones; give every term a value
    for t in (blk.ln2_g, blk.ln2_b, blk.ffn.b1, blk.ffn.b2):
        t[...] = rng.standard_normal(t.shape)
    z = rng.standard_normal((rows, 8)).astype(dtype)
    got = _ffn_residual(z, blk, None)
    assert got.dtype == np.dtype(dtype) and got.shape == z.shape
    assert np.max(np.abs(got - _ffn_formula(z, blk))) <= atol
    # a map of the same rows is the same computation
    grid = _ffn_residual(z.reshape(rows, 1, 8), blk, None)
    assert grid.tobytes() == got.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_in_place_gelu_is_bitwise_the_formula(dtype):
    x = (4 * make_rng(31).standard_normal((67, 40))).astype(dtype)
    c, a, half, one = (np.asarray(v, dtype=dtype)
                       for v in (math.sqrt(2.0 / math.pi), 0.044715, 0.5, 1.0))
    want = half * x * (one + np.tanh(c * (x + a * x * x * x)))
    got = _gelu_(x.copy(), np.empty_like(x))
    assert got.dtype == np.dtype(dtype) and got.tobytes() == want.tobytes()


def test_ffn_ledger_matches_heap_peak():
    # a stage-1 map of the tiny model at 224: several tiles and a ragged tail
    blk = build_model(_mini_arch(base_dim=64, qna=(2, 1, 1, 0)), seed=32).stages[0][0]
    z = make_rng(33).standard_normal((56, 56, 64)).astype(np.float32)
    ledger = AllocationLedger()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = _ffn_residual(z, blk, ledger)
        heap = tracemalloc.get_traced_memory()[1] - start - out.nbytes
    finally:
        tracemalloc.stop()
    # LN2 normalizes each tile into a tile buffer, so one event covers the sub-block
    assert [name for name, _ in ledger.events] == ["ffn"]
    assert abs(ledger.peak_extra_bytes - heap) <= 0.1 * heap, (ledger.peak_extra_bytes, heap)


def test_forward_heap_peak_of_tiny224():
    # the feed-forward tail holds no hidden-sized or normalized map, and the
    # layer writes its last query's weighted values into its value map, so
    # no block needs more than a few stage-1 maps (0.77 MiB each) at once;
    # weights are allocated before tracing starts and are not counted
    model = build_model("tiny", seed=34)
    image = make_rng(35).standard_normal((224, 224, 3)).astype(np.float32)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        forward_inference(model, image)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 5.6 * 2**20, peak / 2**20


def _tensor_bytes(tensor_set):
    return [t.tobytes() for t in tensor_set.tensors().values()]


def test_forward_entry_points_leave_their_inputs_unchanged():
    # the forward passes update their own buffers in place; the input map
    # and every parameter must come out bitwise as they went in
    rng = make_rng(38)
    model = build_model(_mini_arch(base_dim=8, vit=(1, 0, 0, 0), qna=(2, 1, 1, 0)), seed=38,
                        dtype=np.float64)
    for t in model.tensors().values():  # the built biases and gains are zeros and ones
        t[...] = rng.standard_normal(t.shape)
    vit, qna1, ds = model.stages[0][1], model.stages[0][0], model.stages[0][2]
    assert (vit.kind, qna1.qna_cfg.stride, ds.qna_cfg.stride) == ("vit", 1, 2)
    up_cfg = QnAConfig(k=3, stride=1, heads=2, num_queries=4, dim_in=8, dim_out=8)
    up_params = init_params(up_cfg, rng)
    up_params.bias[...] = rng.standard_normal(up_params.bias.shape)
    x = rng.standard_normal((6, 6, 8))
    calls = {
        "layernorm": (lambda x: layernorm(x, vit.ln1_g, vit.ln1_b), vit),
        "_ffn_residual": (lambda x: _ffn_residual(x, vit, None), vit),
        "vit_block_forward": (lambda x: vit_block_forward(x.reshape(36, 8), vit), vit),
        "qna_block_forward stride 1": (lambda x: qna_block_forward(x, qna1), qna1),
        "qna_block_forward stride 2": (lambda x: qna_block_forward(x, ds), ds),
        "qna_forward": (lambda x: qna_forward(x, qna1.qna_cfg, qna1.qna), qna1.qna),
        "qna_upsample_forward": (lambda x: qna_upsample_forward(x, up_cfg, up_params), up_params),
    }
    for name, (call, params) in calls.items():
        before, x_before = _tensor_bytes(params), x.tobytes()
        out = call(x)
        assert not np.shares_memory(out, x), name
        assert x.tobytes() == x_before, name
        assert _tensor_bytes(params) == before, name


def test_qna_block_zeroed_branches_is_identity():
    arch = _mini_arch(base_dim=8, qna=(2, 1, 1, 0))
    model = build_model(arch, seed=9, dtype=np.float64)
    blk = model.stages[0][0]
    blk.qna.w_o[...] = 0.0
    blk.qna.b_o[...] = 0.0
    blk.ffn.w2[...] = 0.0
    blk.ffn.b2[...] = 0.0
    x = make_rng(10).standard_normal((5, 5, 8))
    assert np.array_equal(qna_block_forward(x, blk), x)


def test_block_kind_mismatch_raises():
    model = build_model(_mini_arch(base_dim=8), seed=11, dtype=np.float64)
    qna_blk = model.stages[0][0]
    vit_blk = model.stages[2][0]
    with pytest.raises(ShapeError):
        vit_block_forward(np.zeros((4, 8)), qna_blk)
    with pytest.raises(ShapeError):
        qna_block_forward(np.zeros((4, 4, 8)), vit_blk)


# ---------------------------------------------------------------------------
# Full inference
# ---------------------------------------------------------------------------


def test_forward_inference_shapes_and_validation():
    model = build_model(_mini_arch(classes=10), seed=12)
    rng = make_rng(13)
    img = rng.standard_normal((64, 64, 3)).astype(np.float32)
    logits = model and forward_inference(model, img)
    assert logits.shape == (10,)
    assert np.isfinite(logits).all()
    with pytest.raises(ShapeError):
        forward_inference(model, rng.standard_normal((60, 64, 3)).astype(np.float32))
    with pytest.raises(ShapeError):
        forward_inference(model, rng.standard_normal((64, 64, 1)).astype(np.float32))
    with pytest.raises(ShapeError):
        forward_inference(model, rng.standard_normal((64, 64, 3)))  # f64 vs f32 model
    with pytest.raises(ShapeError, match="height must be positive"):
        forward_inference(model, np.zeros((0, 32, 3), dtype=np.float32))


def test_forward_inference_deterministic_and_finite_many_inputs():
    model = build_model(_mini_arch(classes=7), seed=14)
    rng = make_rng(15)
    img = rng.standard_normal((32, 32, 3)).astype(np.float32)
    a = forward_inference(model, img)
    b = forward_inference(model, img)
    assert np.array_equal(a, b)
    for _ in range(25):
        img = (rng.standard_normal((32, 32, 3)) * 2.0).astype(np.float32)
        out = forward_inference(model, img)
        assert out.shape == (7,) and np.isfinite(out).all()


def test_forward_inference_truncated_model():
    arch = _mini_arch(vit=(0, 0, 0, 0), qna=(1, 0, 0, 0), classes=5)
    model = build_model(arch, seed=16)
    img = make_rng(17).standard_normal((32, 32, 3)).astype(np.float32)
    assert forward_inference(model, img).shape == (5,)


def test_forward_inference_oracle_swap_small():
    assert oracle_swap(_mini_arch(classes=6), 18, 32) < 1e-4  # image drawn from seed 19


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_save_load_roundtrip_preserves_logits(tmp_path):
    arch = _mini_arch(classes=9)
    model = build_model(arch, seed=20)
    img = make_rng(21).standard_normal((32, 32, 3)).astype(np.float32)
    want = forward_inference(model, img)
    save_model(tmp_path / "m", model)
    loaded = load_model(tmp_path / "m")
    assert loaded.arch == arch
    assert np.array_equal(forward_inference(loaded, img), want)


def test_load_model_fills_an_undrawn_skeleton(tmp_path, monkeypatch):
    # loading allocates the tensors it overwrites instead of drawing them
    model = build_model(_mini_arch(classes=9), seed=25)
    save_model(tmp_path / "m", model)

    def no_draws(*args, **kwargs):
        raise AssertionError("load_model drew random numbers")

    monkeypatch.setattr(tensor_mod, "truncated_normal", no_draws)
    loaded = load_model(tmp_path / "m").tensors()
    want = model.tensors()
    assert list(loaded) == list(want)
    for name, t in want.items():
        assert loaded[name].dtype == t.dtype and loaded[name].tobytes() == t.tobytes(), name


def test_model_skeleton_draws_nothing_and_costs_the_same(monkeypatch):
    arch = _mini_arch(classes=9)
    want = count_flops(build_model(arch, seed=27), 32)

    def no_draws(*args, **kwargs):
        raise AssertionError("model_skeleton drew random numbers")

    monkeypatch.setattr(tensor_mod, "truncated_normal", no_draws)
    assert count_flops(model_skeleton(arch), 32) == want


@pytest.mark.parametrize("stored,found", [
    (np.zeros(9), "float64 of shape (9,)"),
    (np.zeros(8, dtype=np.float32), "float32 of shape (8,)"),
], ids=["dtype", "shape"])
def test_load_names_a_mismatched_tensor_file(tmp_path, stored, found):
    save_model(tmp_path / "m", build_model(_mini_arch(classes=9), seed=26))
    path = tmp_path / "m" / "weights" / "head_b.qnat"
    save_qnat(path, stored)
    with pytest.raises(ShapeError) as info:
        load_model(tmp_path / "m")
    assert str(info.value) == f"{path}: tensor head_b is {found}, expected float32 of shape (9,)"


def _saved_model_with_arch_json(tmp_path, edit, seed):
    """A saved mini model whose arch.json is replaced by ``edit(document)``."""
    save_model(tmp_path / "m", build_model(_mini_arch(classes=9), seed=seed))
    path = tmp_path / "m" / "arch.json"
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    return tmp_path / "m"


def test_load_model_checks_every_header_before_allocating(tmp_path):
    # an 8-wide model whose arch.json claims base_dim 64: building that
    # model's tensors first would allocate 30 MB
    root = _saved_model_with_arch_json(tmp_path, _set_arch_key("base_dim", 64), seed=28)
    tracemalloc.start()
    try:
        with pytest.raises(ShapeError) as info:
            load_model(root)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    path = root / "weights" / "patch_w.qnat"
    assert str(info.value) == (f"{path}: tensor patch_w is float32 of shape (48, 8), "
                               "expected float32 of shape (48, 64)")
    assert peak < 2**20, peak


def test_load_rejects_manifest_mismatch(tmp_path):
    with pytest.raises(QnatFormatError, match="tensors"):
        load_model(_saved_model_with_arch_json(
            tmp_path, lambda doc: {**doc, "tensors": doc["tensors"][:-1]}, seed=22))


def _drop_key(*path):
    def edit(doc):
        inner = doc
        for key in path[:-1]:
            inner = inner[key]
        del inner[path[-1]]
        return doc
    return edit


def _set_arch_key(key, value):
    return lambda doc: {**doc, "arch": {**doc["arch"], key: value}}


@pytest.mark.parametrize("edit,match", [
    (_drop_key("dtype"), "dtype"),
    (_drop_key("tensors"), "tensors"),
    (_drop_key("arch", "window"), "window"),
    (lambda doc: {**doc, "dtype": "f16"}, "f16"),
    (lambda doc: [doc], "JSON object"),
    (lambda doc: {**doc, "arch": [doc["arch"]]}, "'arch'"),
    (_set_arch_key("vit_blocks", 3), "'vit_blocks'"),
    (_set_arch_key("vit_blocks", [0, 0, 1.0, 1]), "'vit_blocks'"),
    (_set_arch_key("qna_heads", [2, 2, True, 4]), "'qna_heads'"),
    (_set_arch_key("window", "3"), "'window'"),
    (_set_arch_key("window", 3.0), "'window'"),
    (_set_arch_key("num_queries", True), "'num_queries'"),
    (lambda doc: {**doc, "tensors": doc["tensors"] + ["stage0.block0.msa.w_q"]}, "'tensors'"),
], ids=["no-dtype", "no-tensors", "no-arch.window", "tag-f16", "top-level-list", "arch-list",
        "vit_blocks-int", "vit_blocks-float-item", "qna_heads-bool-item", "window-string",
        "window-float", "num_queries-bool", "tensors-unknown-name"])
def test_load_rejects_malformed_arch_json(tmp_path, edit, match):
    with pytest.raises(QnatFormatError, match=match) as info:
        load_model(_saved_model_with_arch_json(tmp_path, edit, seed=23))
    assert "arch.json" in str(info.value)


@pytest.mark.parametrize("key,value", [("stage_dims", [8, 16, 32, 64]), ("patch_size", 2),
                                       ("ffn_expansion", 4)])
def test_load_rejects_unknown_arch_key(tmp_path, key, value):
    # keys of removed architecture fields must not be dropped silently: a
    # file that set one to another value described a different model
    with pytest.raises(QnatFormatError, match=key):
        load_model(_saved_model_with_arch_json(tmp_path, _set_arch_key(key, value), seed=24))
