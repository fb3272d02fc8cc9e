"""Hierarchical vision backbone built from shared-query attention blocks.

Four stages over a 4x4 patch embedding. Early stages use the local
shared-query layer in pre-norm residual blocks; stage transitions are its
stride-2 form with a 1x1 stride-2 convolution carrying the skip; late stages
use global multi-head self-attention over the full token grid. Classification
head is LayerNorm, global average pooling, and a linear layer.

The tiny / small / base presets follow the depth, width, and head tables of
the reference architecture family, with the convention that each stage's
local-attention block count includes its trailing downsampler.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .layer import QnAConfig, QnAParams, draw_params, qna_forward
from .tensor import (
    AllocationLedger,
    ShapeError,
    _record,
    TensorSet,
    check_dtype,
    check_manifest,
    conv2d,
    dtype_tag,
    fill_tensors,
    _layernorm_into,
    layernorm,
    make_rng,
    matmul,
    random_draw,
    read_config,
    require_finite,
    same_output_size,
    save_qnat,
    shape_draw,
    softmax_rows,
)

# ---------------------------------------------------------------------------
# Architecture description
# ---------------------------------------------------------------------------

# Side of the square patches the image is cut into; with the three stride-2
# transitions, image sides must be divisible by 4 * 8 = 32.
PATCH_SIZE = 4
# Hidden width of every feed-forward sub-block, as a multiple of its input.
FFN_EXPANSION = 4
# Rows of the feed-forward hidden map computed at a time: two buffers of
# FFN_TILE_ROWS x hidden stay in cache across W1, the GELU and W2.
FFN_TILE_ROWS = 512


@dataclass(frozen=True)
class ArchConfig:
    """Depths, widths, and head counts of one model.

    vit_blocks / qna_blocks give per-stage counts of global-attention and
    local-attention blocks; for the first three stages the local count
    includes the stride-2 downsampler that ends the stage. Stage 3 runs its
    global blocks before its local ones; all other stages run local blocks
    first. Once a stage has no downsampler (local count 0 in stages 1..3),
    the model ends there and later stages must be empty.
    """

    base_dim: int
    vit_blocks: tuple[int, int, int, int]
    qna_blocks: tuple[int, int, int, int]
    qna_heads: tuple[int, int, int, int]
    ds_heads: tuple[int, int, int]
    sa_heads: tuple[int, int, int, int]
    window: int = 3
    num_queries: int = 2
    num_classes: int = 1000

    def __post_init__(self) -> None:
        if self.base_dim < 1:
            raise ShapeError("base_dim must be >= 1")
        for name in ("vit_blocks", "qna_blocks", "qna_heads", "sa_heads"):
            if len(getattr(self, name)) != 4:
                raise ShapeError(f"{name} must list all four stages")
        if len(self.ds_heads) != 3:
            raise ShapeError("ds_heads must list the three stage transitions")
        if any(n < 0 for n in self.vit_blocks + self.qna_blocks):
            raise ShapeError("block counts must be non-negative")
        if self.window < 1 or self.num_queries < 1:
            raise ShapeError("window and num_queries must be >= 1")
        if self.num_classes < 1:
            raise ShapeError("num_classes must be >= 1")
        for i in range(3):
            if self.qna_blocks[i] == 0:
                tail = self.qna_blocks[i + 1 :] + self.vit_blocks[i + 1 :]
                if any(n != 0 for n in tail):
                    raise ShapeError(
                        f"stage {i + 1} has no downsampler; later stages must be empty"
                    )

    @property
    def stage_dims(self) -> tuple[int, int, int, int]:
        """Per-stage widths (D, 2D, 4D, 8D) for D = base_dim."""
        d = self.base_dim
        return (d, 2 * d, 4 * d, 8 * d)

    def num_stages(self) -> int:
        """Stages actually reachable (truncated at the first missing downsampler)."""
        for i in range(3):
            if self.qna_blocks[i] == 0:
                return i + 1
        return 4


_PRESETS = {
    "tiny": dict(base_dim=64, vit_blocks=(0, 0, 4, 2), qna_blocks=(3, 4, 3, 0),
                 qna_heads=(8, 16, 32, 32), ds_heads=(16, 32, 64), sa_heads=(8, 8, 8, 16)),
    "small": dict(base_dim=64, vit_blocks=(0, 0, 12, 2), qna_blocks=(3, 4, 7, 0),
                  qna_heads=(8, 16, 32, 32), ds_heads=(16, 32, 64), sa_heads=(8, 8, 8, 16)),
    "base": dict(base_dim=96, vit_blocks=(0, 0, 12, 2), qna_blocks=(3, 4, 7, 0),
                 qna_heads=(6, 12, 24, 24), ds_heads=(16, 32, 48), sa_heads=(12, 12, 12, 24)),
}


def make_arch(variant: str, window: int = 3) -> ArchConfig:
    if variant not in _PRESETS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {sorted(_PRESETS)}")
    return ArchConfig(**_PRESETS[variant], window=window)


# ---------------------------------------------------------------------------
# Parameter containers
# ---------------------------------------------------------------------------


@dataclass
class MsaParams(TensorSet):
    """Global multi-head self-attention over all tokens, with ``heads``
    heads of width dim / heads."""

    heads: int
    w_q: np.ndarray
    b_q: np.ndarray
    w_k: np.ndarray
    b_k: np.ndarray
    w_v: np.ndarray
    b_v: np.ndarray
    w_o: np.ndarray
    b_o: np.ndarray


@dataclass
class FfnParams(TensorSet):
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


@dataclass
class BlockParams(TensorSet):
    """One residual block: attention sub-block and FFN sub-block, both
    pre-norm. The attention is either global (``msa``) or local shared-query
    (``qna_cfg`` and ``qna``). Stride-2 local blocks carry the 1x1 stride-2
    convolution of the skip path."""

    ln1_g: np.ndarray
    ln1_b: np.ndarray
    ln2_g: np.ndarray
    ln2_b: np.ndarray
    ffn: FfnParams
    msa: MsaParams | None = None
    qna_cfg: QnAConfig | None = None
    qna: QnAParams | None = None
    skip_w: np.ndarray | None = None
    skip_b: np.ndarray | None = None

    @property
    def kind(self) -> str:
        """The block's attention: "vit" (global) or "qna" (local shared-query)."""
        return "qna" if self.msa is None else "vit"


@dataclass
class Model(TensorSet):
    arch: ArchConfig
    patch_w: np.ndarray
    patch_b: np.ndarray
    stages: list[list[BlockParams]]
    final_ln_g: np.ndarray
    final_ln_b: np.ndarray
    head_w: np.ndarray
    head_b: np.ndarray

    @property
    def dtype(self) -> np.dtype:
        return self.patch_w.dtype

    def tensors(self) -> dict[str, np.ndarray]:
        """Every tensor of the model, each block's under ``stage{i}.block{j}.``."""
        out = super().tensors()
        for i, blocks in enumerate(self.stages):
            for j, blk in enumerate(blocks):
                out.update({f"stage{i}.block{j}.{name}": t for name, t in blk.tensors().items()})
        return out


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------
# Every builder below makes each tensor with ``draw(shape, value=None)``: a
# tensor filled with ``value``, or a drawn one where value is None, drawn in
# the order of the determinism contract. build_model draws them from one
# seeded generator, model_skeleton makes shape-only placeholders, and
# load_model fills empty arrays from disk.


def _init_ffn(draw, dim: int) -> FfnParams:
    hidden = FFN_EXPANSION * dim
    return FfnParams(
        w1=draw((dim, hidden)),
        b1=draw((hidden,), 0.0),
        w2=draw((hidden, dim)),
        b2=draw((dim,), 0.0),
    )


def _init_vit_block(draw, dim: int, heads: int) -> BlockParams:
    msa = MsaParams(
        heads=heads,
        w_q=draw((dim, dim)),
        b_q=draw((dim,), 0.0),
        w_k=draw((dim, dim)),
        b_k=draw((dim,), 0.0),
        w_v=draw((dim, dim)),
        b_v=draw((dim,), 0.0),
        w_o=draw((dim, dim)),
        b_o=draw((dim,), 0.0),
    )
    return BlockParams(
        ln1_g=draw((dim,), 1.0),
        ln1_b=draw((dim,), 0.0),
        ln2_g=draw((dim,), 1.0),
        ln2_b=draw((dim,), 0.0),
        ffn=_init_ffn(draw, dim),
        msa=msa,
    )


def _init_qna_block(draw, dim_in: int, dim_out: int, heads: int, stride: int,
                    arch: ArchConfig) -> BlockParams:
    cfg = QnAConfig(
        k=arch.window,
        stride=stride,
        heads=heads,
        num_queries=arch.num_queries,
        dim_in=dim_in,
        dim_out=dim_out,
    )
    qna = draw_params(cfg, draw)
    skip_w = skip_b = None
    if stride != 1:
        skip_w = draw((dim_in, dim_out))
        skip_b = draw((dim_out,), 0.0)
    return BlockParams(
        ln1_g=draw((dim_in,), 1.0),
        ln1_b=draw((dim_in,), 0.0),
        ln2_g=draw((dim_out,), 1.0),
        ln2_b=draw((dim_out,), 0.0),
        ffn=_init_ffn(draw, dim_out),
        qna_cfg=cfg,
        qna=qna,
        skip_w=skip_w,
        skip_b=skip_b,
    )


def _stage_blocks(draw, arch: ArchConfig, i: int) -> list[BlockParams]:
    dim = arch.stage_dims[i]
    n_local = arch.qna_blocks[i]
    has_ds = i < 3 and n_local > 0
    n_stride1 = n_local - 1 if has_ds else n_local

    local = [
        _init_qna_block(draw, dim, dim, arch.qna_heads[i], 1, arch)
        for _ in range(n_stride1)
    ]
    glob = [
        _init_vit_block(draw, dim, arch.sa_heads[i])
        for _ in range(arch.vit_blocks[i])
    ]
    # Stage 3 runs its global blocks before its local ones.
    blocks = glob + local if i == 2 else local + glob
    if has_ds:
        blocks.append(
            _init_qna_block(draw, dim, arch.stage_dims[i + 1], arch.ds_heads[i], 2, arch)
        )
    return blocks


def build_model(variant_or_arch, seed: int, dtype=np.float32) -> Model:
    """Deterministic per (arch, seed, dtype): one generator streams through
    patch embed, stages in order, and the head."""
    return _assemble(variant_or_arch, random_draw(make_rng(seed), dtype))


def model_skeleton(variant_or_arch, dtype=np.float32) -> Model:
    """:func:`build_model`'s model with shape-only placeholders for tensors
    (see :func:`shape_draw`), which allocate nothing, for
    :func:`count_flops` and :func:`load_model`."""
    return _assemble(variant_or_arch, shape_draw(dtype))


def _assemble(preset, draw) -> Model:
    arch = preset if isinstance(preset, ArchConfig) else make_arch(preset)
    d0 = arch.base_dim
    in_feats = PATCH_SIZE * PATCH_SIZE * 3
    patch_w = draw((in_feats, d0))
    patch_b = draw((d0,), 0.0)
    n_stages = arch.num_stages()
    stages = [_stage_blocks(draw, arch, i) for i in range(n_stages)]
    d_last = arch.stage_dims[n_stages - 1]
    return Model(
        arch=arch,
        patch_w=patch_w,
        patch_b=patch_b,
        stages=stages,
        final_ln_g=draw((d_last,), 1.0),
        final_ln_b=draw((d_last,), 0.0),
        head_w=draw((d_last, arch.num_classes)),
        head_b=draw((arch.num_classes,), 0.0),
    )


# ---------------------------------------------------------------------------
# Forward passes
# ---------------------------------------------------------------------------


def _gelu_(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """x <- gelu(x) by the tanh approximation, in place, with ``t`` (x's
    shape) as scratch. Each operation is rounded as in
    0.5 * x * (1 + tanh(c * (x + a * x * x * x))) evaluated left to right."""
    c = np.asarray(math.sqrt(2.0 / math.pi), dtype=x.dtype)
    a = np.asarray(0.044715, dtype=x.dtype)
    np.multiply(a, x, out=t)
    t *= x
    t *= x
    t += x
    t *= c
    np.tanh(t, out=t)
    t += np.asarray(1.0, dtype=x.dtype)
    x *= np.asarray(0.5, dtype=x.dtype)
    x *= t
    return x


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x @ w + b, the bias added in place."""
    out = matmul(x, w)
    out += b
    return out


def _ffn_residual(z: np.ndarray, params: BlockParams, ledger) -> np.ndarray:
    """z + FFN(LN2(z)) over z's last axis: the pre-norm sub-block that ends every block.

    Neither the normalized map nor the hidden one is held whole. Each tile
    of FFN_TILE_ROWS rows is normalized (LN2) into a tile buffer, then runs
    W1, b1, the GELU and W2 in two tile-sized hidden buffers; W2's product
    is written straight into the tile's output rows, which then add b2 and
    z. The ledger event is the three tile buffers.
    """
    d = z.shape[-1]
    ffn = params.ffn
    res = z.reshape(-1, d)
    n = res.shape[0]
    rows = min(FFN_TILE_ROWS, max(n, 1))
    u = np.empty((rows, d), dtype=z.dtype)
    h = np.empty((rows, ffn.w1.shape[1]), dtype=z.dtype)
    t = np.empty_like(h)
    _record(ledger, "ffn", u.nbytes + h.nbytes + t.nbytes)
    out = np.empty(z.shape, dtype=z.dtype)
    flat = out.reshape(-1, d)
    for r0 in range(0, n, rows):
        r = slice(r0, r0 + rows)
        o = flat[r]
        hr = h[:len(o)]
        np.matmul(_layernorm_into(res[r], params.ln2_g, params.ln2_b, u[:len(o)]), ffn.w1, out=hr)
        hr += ffn.b1
        np.matmul(_gelu_(hr, t[:len(hr)]), ffn.w2, out=o)
        o += ffn.b2
        o += res[r]
    return out


def vit_block_forward(z: np.ndarray, params: BlockParams, ledger: AllocationLedger | None = None) -> np.ndarray:
    """Pre-norm residual block over N tokens: global multi-head attention,
    then the feed-forward sub-block."""
    m = params.msa
    if m is None:
        raise ShapeError("vit_block_forward needs a vit block")
    if z.ndim != 2:
        raise ShapeError(f"tokens must be N x D, got shape {z.shape}")
    if z.shape[1] % m.heads != 0:
        raise ShapeError(f"token dim {z.shape[1]} not divisible by heads {m.heads}")
    # The attention's maps (the scores among them) are freed on its return,
    # before the feed-forward sub-block. The residual is added in place,
    # bitwise as the unfused sum, since IEEE addition is commutative.
    y = _self_attention(layernorm(z, params.ln1_g, params.ln1_b, ledger=ledger), m, ledger)
    y += z
    return _ffn_residual(y, params, ledger)


def _self_attention(u: np.ndarray, m: MsaParams, ledger) -> np.ndarray:
    """Global multi-head attention over the N x D tokens u, output projection included.

    Heads are the batch axis of two stacked products: the transposes are
    strided views, so no head is copied out of the projections. Biases and
    the score scale are applied in place."""
    n, d = u.shape
    h = m.heads
    dh = d // h
    q, k, v = (_affine(u, w, b).reshape(n, h, dh)
               for w, b in ((m.w_q, m.b_q), (m.w_k, m.b_k), (m.w_v, m.b_v)))
    s = matmul(q.transpose(1, 0, 2), k.transpose(1, 2, 0))
    s *= np.asarray(1.0 / math.sqrt(dh), dtype=u.dtype)
    att = softmax_rows(s, ledger)
    del s  # before the product with the values
    return _affine(matmul(att, v.transpose(1, 0, 2)).transpose(1, 0, 2).reshape(n, d), m.w_o, m.b_o)


def qna_block_forward(
    x: np.ndarray,
    params: BlockParams,
    ledger: AllocationLedger | None = None,
    qna_fn=qna_forward,
) -> np.ndarray:
    """Pre-norm residual block on the H x W grid. With stride 2 the skip is
    the 1x1 stride-2 convolution of the unnormalized input."""
    cfg = params.qna_cfg
    if cfg is None:
        raise ShapeError("qna_block_forward needs a qna block")
    u = layernorm(x, params.ln1_g, params.ln1_b, ledger=ledger)
    y = qna_fn(u, cfg, params.qna, ledger)
    del u  # before the skip's convolution
    skip = x
    if cfg.stride != 1:
        skip = conv2d(x, params.skip_w, cfg.stride, ledger)
        skip += params.skip_b
    y += skip  # in place, bitwise skip + y
    del skip
    return _ffn_residual(y, params, ledger)


def _check_side(name: str, side: int) -> None:
    """Reject an image side that is not a positive multiple of 32 (see PATCH_SIZE)."""
    if side <= 0 or side % 32 != 0:
        raise ShapeError(f"{name} must be positive and divisible by 32, got {side}")


def _patch_embed(model: Model, image: np.ndarray) -> np.ndarray:
    p = PATCH_SIZE
    H, W, c = image.shape
    hp, wp = H // p, W // p
    flat = image.reshape(hp, p, wp, p, c).transpose(0, 2, 1, 3, 4).reshape(hp * wp, p * p * c)
    return _affine(flat, model.patch_w, model.patch_b).reshape(hp, wp, model.arch.base_dim)


def forward_inference(
    model: Model,
    image: np.ndarray,
    ledger: AllocationLedger | None = None,
    qna_fn=qna_forward,
) -> np.ndarray:
    """Logits for one image. Spatial dims must be positive multiples of 32 (patch
    size 4 and three stride-2 transitions). ``qna_fn`` swaps the local
    attention implementation (the brute-force oracle slots in here)."""
    check_dtype(image, "image")
    if image.ndim != 3 or image.shape[2] != 3:
        raise ShapeError(f"image must be H x W x 3, got shape {image.shape}")
    _check_side("image height", image.shape[0])
    _check_side("image width", image.shape[1])
    if image.dtype != model.dtype:
        raise ShapeError(f"image dtype {image.dtype} differs from model dtype {model.dtype}")
    require_finite(image, "image")

    x = _patch_embed(model, image)
    for blocks in model.stages:
        for blk in blocks:
            if blk.kind == "qna":
                x = qna_block_forward(x, blk, ledger, qna_fn=qna_fn)
            else:
                h, w, d = x.shape
                z = vit_block_forward(x.reshape(h * w, d), blk, ledger)
                x = z.reshape(h, w, d)
    h, w, d = x.shape
    tokens = layernorm(x.reshape(h * w, d), model.final_ln_g, model.final_ln_b, ledger=ledger)
    pooled = tokens.mean(axis=0)
    logits = pooled @ model.head_w + model.head_b
    require_finite(logits, "logits")
    return logits


# ---------------------------------------------------------------------------
# Cost accounting
# ---------------------------------------------------------------------------


@dataclass
class CostRow:
    name: str
    params: int
    flops: int


@dataclass
class CostReport:
    """Totals equal the sum of the breakdown rows, per column."""

    params: int
    flops: int
    rows: list[CostRow] = field(default_factory=list)


def _block_param_count(blk: BlockParams) -> int:
    return sum(t.size for t in blk.tensors().values())


def qna_flops(cfg: QnAConfig, h_in: int, w_in: int) -> int:
    """Multiply-accumulates of one local-attention layer under the fused
    accounting: value projection, query/key fold, one score map per query
    (head-free), the k**2 window reductions over value channels plus one
    normalizer channel per (query, head), and the output projection."""
    hp = same_output_size(h_in, cfg.stride)
    wp = same_output_size(w_in, cfg.stride)
    n_in = h_in * w_in
    n_out = hp * wp
    L, k = cfg.num_queries, cfg.k
    return (
        n_in * cfg.dim_in * cfg.dim_out
        + L * cfg.dim_out * cfg.dim_in
        + n_in * L * cfg.dim_out
        + k * k * n_out * (cfg.dim_out + cfg.heads) * L
        + n_out * cfg.dim_out * cfg.dim_out
    )


def _block_flops(blk: BlockParams, h_in: int, w_in: int) -> int:
    if blk.kind == "vit":
        n = h_in * w_in
        d = blk.ln1_g.size
        msa = 4 * n * d * d + 2 * n * n * d
        ffn = 2 * n * d * (blk.ffn.w1.shape[1])
        return msa + ffn
    cfg = blk.qna_cfg
    hp = same_output_size(h_in, cfg.stride)
    wp = same_output_size(w_in, cfg.stride)
    total = qna_flops(cfg, h_in, w_in)
    if cfg.stride != 1:
        total += hp * wp * cfg.dim_in * cfg.dim_out
    total += 2 * hp * wp * cfg.dim_out * blk.ffn.w1.shape[1]
    return total


def _walk_costs(model: Model, resolution: int | None) -> CostReport:
    arch = model.arch
    rows: list[CostRow] = []
    grid = resolution // PATCH_SIZE if resolution is not None else 0

    pe_flops = grid * grid * model.patch_w.shape[0] * arch.base_dim if resolution else 0
    rows.append(CostRow("patch_embed", model.patch_w.size + model.patch_b.size, pe_flops))

    h = w = grid
    for i, blocks in enumerate(model.stages):
        for j, blk in enumerate(blocks):
            fl = _block_flops(blk, h, w) if resolution else 0
            rows.append(CostRow(f"stage{i + 1}.block{j + 1}.{blk.kind}", _block_param_count(blk), fl))
            if blk.kind == "qna":
                h = same_output_size(h, blk.qna_cfg.stride)
                w = same_output_size(w, blk.qna_cfg.stride)

    rows.append(CostRow("final_norm", model.final_ln_g.size + model.final_ln_b.size, 0))
    head_flops = model.head_w.shape[0] * model.head_w.shape[1] if resolution else 0
    rows.append(CostRow("head", model.head_w.size + model.head_b.size, head_flops))
    return CostReport(
        params=sum(r.params for r in rows),
        flops=sum(r.flops for r in rows),
        rows=rows,
    )


def count_params(model: Model) -> CostReport:
    """Exact scalar count of every parameter tensor, broken down by module."""
    return _walk_costs(model, None)


def count_flops(model: Model, resolution: int) -> CostReport:
    """Analytic multiply-accumulate count for one forward pass at the given
    square resolution (1 MAC = 1 FLOP; normalizations, softmax exponentials,
    divisions, bias and residual adds excluded)."""
    _check_side("resolution", resolution)
    return _walk_costs(model, resolution)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def save_model(dirpath, model: Model) -> None:
    os.makedirs(dirpath, exist_ok=True)
    named = model.tensors()
    doc = {"arch": asdict(model.arch), "dtype": dtype_tag(model.dtype), "tensors": sorted(named)}
    with open(os.path.join(dirpath, "arch.json"), "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
    weights = os.path.join(dirpath, "weights")
    os.makedirs(weights, exist_ok=True)
    for name, t in named.items():
        save_qnat(os.path.join(weights, f"{name}.qnat"), t)


def load_model(dirpath) -> Model:
    path = os.path.join(dirpath, "arch.json")
    arch, dtype, names = read_config(path, ArchConfig, section="arch")
    check_manifest(path, names, sorted(model_skeleton(arch, dtype).tensors()))
    return fill_tensors(os.path.join(dirpath, "weights"), lambda draw: _assemble(arch, draw), dtype)
