"""Backbone assembly: architecture validation, deterministic construction,
block forwards against loop oracles, cost accounting, and serialization."""

import numpy as np
import pytest

from qna.layer import qna_forward
from qna.model import (
    ArchConfig,
    CostReport,
    qna_flops,
    build_model,
    count_flops,
    count_params,
    forward_inference,
    load_model,
    make_arch,
    qna_block_forward,
    save_model,
    vit_block_forward,
)
from qna.oracles import qna_window_oracle
from qna.tensor import QnatFormatError, ShapeError, conv2d, layernorm, make_rng


def _mini_arch(base_dim=8, vit=(0, 0, 1, 1), qna=(1, 1, 1, 0), classes=10, **kw):
    d = base_dim
    return ArchConfig(
        base_dim=d,
        stage_dims=(d, 2 * d, 4 * d, 8 * d),
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
    with pytest.raises(ShapeError):
        ArchConfig(base_dim=8, stage_dims=(8, 16, 32, 65), vit_blocks=(0, 0, 1, 1),
                   qna_blocks=(1, 1, 1, 0), qna_heads=(2, 2, 2, 2), ds_heads=(2, 2, 2),
                   sa_heads=(2, 2, 2, 2))
    # a stage without its downsampler truncates the model
    with pytest.raises(ShapeError):
        _mini_arch(qna=(1, 0, 1, 0))
    truncated = _mini_arch(vit=(0, 0, 0, 0), qna=(1, 0, 0, 0))
    assert truncated.num_stages() == 2
    assert _mini_arch().num_stages() == 4


def test_arch_json_roundtrip():
    arch = _mini_arch(window=5, num_queries=4, msa_rel_bias=True)
    assert ArchConfig.from_json_dict(arch.to_json_dict()) == arch


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
    named, named2 = model.named_tensors(), again.named_tensors()
    assert named.keys() == named2.keys()
    assert all(np.array_equal(named[n], named2[n]) for n in named)
    other = build_model("tiny", seed=2)
    assert not np.array_equal(model.patch_w, other.patch_w)


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
    assert report.params == sum(t.size for t in model.named_tensors().values())
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
        base_dim=d, stage_dims=(d, 2 * d, 4 * d, 8 * d), vit_blocks=(1, 0, 0, 0),
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
    rng = make_rng(5)
    d, h, n = 8, 2, 12
    arch = _mini_arch(base_dim=8, vit=(1, 0, 0, 0), qna=(0, 0, 0, 0))
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


def test_vit_block_relative_bias_hook():
    rng = make_rng(6)
    arch = _mini_arch(base_dim=8, vit=(1, 0, 0, 0), qna=(0, 0, 0, 0))
    model = build_model(arch, seed=6, dtype=np.float64)
    blk = model.stages[0][0]
    z = rng.standard_normal((6, 8))
    base = vit_block_forward(z, blk)
    blk.msa_bias = rng.standard_normal((6, 6))
    biased = vit_block_forward(z, blk)
    assert not np.allclose(base, biased)
    blk.msa_bias = np.full((6, 6), 3.0)  # constant additive bias cancels
    assert np.allclose(vit_block_forward(z, blk), base, atol=1e-12)


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
    skip = conv2d(x, blk.skip_w.reshape(1, 1, 8, 16), 2, "same") + blk.skip_b
    z = skip + y
    u2 = layernorm(z, blk.ln2_g, blk.ln2_b).reshape(9, 16)
    hdn = u2 @ blk.ffn.w1 + blk.ffn.b1
    gelu = 0.5 * hdn * (1 + np.tanh(np.sqrt(2 / np.pi) * (hdn + 0.044715 * hdn**3)))
    want = z + (gelu @ blk.ffn.w2 + blk.ffn.b2).reshape(3, 3, 16)
    assert np.allclose(got, want, atol=1e-12)


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
    model = build_model(_mini_arch(classes=6), seed=18)
    img = make_rng(19).standard_normal((32, 32, 3)).astype(np.float32)
    fast = forward_inference(model, img)
    slow = forward_inference(model, img, qna_fn=qna_window_oracle)
    assert np.max(np.abs(fast - slow)) < 1e-4


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


def test_load_rejects_manifest_mismatch(tmp_path):
    model = build_model(_mini_arch(classes=9), seed=22)
    save_model(tmp_path / "m", model)
    import json as _json

    doc = _json.loads((tmp_path / "m" / "arch.json").read_text())
    doc["tensors"] = doc["tensors"][:-1]
    (tmp_path / "m" / "arch.json").write_text(_json.dumps(doc))
    with pytest.raises(ShapeError):
        load_model(tmp_path / "m")


def _drop_key(*path):
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        del doc[path[-1]]
    return edit


@pytest.mark.parametrize("edit,match", [
    (_drop_key("dtype"), "dtype"),
    (_drop_key("tensors"), "tensors"),
    (_drop_key("arch", "window"), "window"),
    (lambda doc: doc.update(dtype="f16"), "f16"),
], ids=["no-dtype", "no-tensors", "no-arch.window", "tag-f16"])
def test_load_rejects_malformed_arch_json(tmp_path, edit, match):
    save_model(tmp_path / "m", build_model(_mini_arch(classes=9), seed=23))
    import json as _json

    doc = _json.loads((tmp_path / "m" / "arch.json").read_text())
    edit(doc)
    (tmp_path / "m" / "arch.json").write_text(_json.dumps(doc))
    with pytest.raises(QnatFormatError, match=match):
        load_model(tmp_path / "m")
