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
from dataclasses import dataclass, field

import numpy as np

from .layer import QnAConfig, QnAParams, init_params, qna_forward
from .tensor import (
    AllocationLedger,
    QnatFormatError,
    ShapeError,
    check_dtype,
    conv2d,
    dtype_from_tag,
    dtype_tag,
    layernorm,
    load_qnat,
    make_rng,
    matmul,
    require_finite,
    reshape_permute,
    save_qnat,
    softmax_rows,
    truncated_normal,
)

# ---------------------------------------------------------------------------
# Architecture description
# ---------------------------------------------------------------------------


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
    stage_dims: tuple[int, int, int, int]
    vit_blocks: tuple[int, int, int, int]
    qna_blocks: tuple[int, int, int, int]
    qna_heads: tuple[int, int, int, int]
    ds_heads: tuple[int, int, int]
    sa_heads: tuple[int, int, int, int]
    window: int = 3
    num_queries: int = 2
    ffn_expansion: int = 4
    patch_size: int = 4
    num_classes: int = 1000
    msa_rel_bias: bool = False

    def __post_init__(self) -> None:
        d = self.base_dim
        if d < 1:
            raise ShapeError("base_dim must be >= 1")
        if self.stage_dims != (d, 2 * d, 4 * d, 8 * d):
            raise ShapeError(f"stage_dims must be (D, 2D, 4D, 8D), got {self.stage_dims}")
        for name in ("vit_blocks", "qna_blocks", "qna_heads", "sa_heads"):
            if len(getattr(self, name)) != 4:
                raise ShapeError(f"{name} must list all four stages")
        if len(self.ds_heads) != 3:
            raise ShapeError("ds_heads must list the three stage transitions")
        if any(n < 0 for n in self.vit_blocks + self.qna_blocks):
            raise ShapeError("block counts must be non-negative")
        if self.window < 1 or self.num_queries < 1:
            raise ShapeError("window and num_queries must be >= 1")
        if self.ffn_expansion < 1 or self.patch_size < 1 or self.num_classes < 1:
            raise ShapeError("ffn_expansion, patch_size, num_classes must be >= 1")
        for i in range(3):
            if self.qna_blocks[i] == 0:
                tail = self.qna_blocks[i + 1 :] + self.vit_blocks[i + 1 :]
                if any(n != 0 for n in tail):
                    raise ShapeError(
                        f"stage {i + 1} has no downsampler; later stages must be empty"
                    )

    def num_stages(self) -> int:
        """Stages actually reachable (truncated at the first missing downsampler)."""
        for i in range(3):
            if self.qna_blocks[i] == 0:
                return i + 1
        return 4

    def to_json_dict(self) -> dict:
        return {
            "base_dim": self.base_dim,
            "stage_dims": list(self.stage_dims),
            "vit_blocks": list(self.vit_blocks),
            "qna_blocks": list(self.qna_blocks),
            "qna_heads": list(self.qna_heads),
            "ds_heads": list(self.ds_heads),
            "sa_heads": list(self.sa_heads),
            "window": self.window,
            "num_queries": self.num_queries,
            "ffn_expansion": self.ffn_expansion,
            "patch_size": self.patch_size,
            "num_classes": self.num_classes,
            "msa_rel_bias": self.msa_rel_bias,
        }

    @staticmethod
    def from_json_dict(doc: dict) -> "ArchConfig":
        return ArchConfig(
            base_dim=doc["base_dim"],
            stage_dims=tuple(doc["stage_dims"]),
            vit_blocks=tuple(doc["vit_blocks"]),
            qna_blocks=tuple(doc["qna_blocks"]),
            qna_heads=tuple(doc["qna_heads"]),
            ds_heads=tuple(doc["ds_heads"]),
            sa_heads=tuple(doc["sa_heads"]),
            window=doc["window"],
            num_queries=doc["num_queries"],
            ffn_expansion=doc["ffn_expansion"],
            patch_size=doc["patch_size"],
            num_classes=doc["num_classes"],
            msa_rel_bias=doc["msa_rel_bias"],
        )


_PRESETS = {
    "tiny": dict(base_dim=64, vit_blocks=(0, 0, 4, 2), qna_blocks=(3, 4, 3, 0),
                 qna_heads=(8, 16, 32, 32), ds_heads=(16, 32, 64), sa_heads=(8, 8, 8, 16)),
    "small": dict(base_dim=64, vit_blocks=(0, 0, 12, 2), qna_blocks=(3, 4, 7, 0),
                  qna_heads=(8, 16, 32, 32), ds_heads=(16, 32, 64), sa_heads=(8, 8, 8, 16)),
    "base": dict(base_dim=96, vit_blocks=(0, 0, 12, 2), qna_blocks=(3, 4, 7, 0),
                 qna_heads=(6, 12, 24, 24), ds_heads=(16, 32, 48), sa_heads=(12, 12, 12, 24)),
}


def make_arch(variant: str, window: int = 3, num_queries: int = 2, num_classes: int = 1000) -> ArchConfig:
    if variant not in _PRESETS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {sorted(_PRESETS)}")
    p = _PRESETS[variant]
    d = p["base_dim"]
    return ArchConfig(
        base_dim=d,
        stage_dims=(d, 2 * d, 4 * d, 8 * d),
        vit_blocks=p["vit_blocks"],
        qna_blocks=p["qna_blocks"],
        qna_heads=p["qna_heads"],
        ds_heads=p["ds_heads"],
        sa_heads=p["sa_heads"],
        window=window,
        num_queries=num_queries,
        num_classes=num_classes,
    )


# ---------------------------------------------------------------------------
# Parameter containers
# ---------------------------------------------------------------------------


@dataclass
class MsaParams:
    w_q: np.ndarray
    b_q: np.ndarray
    w_k: np.ndarray
    b_k: np.ndarray
    w_v: np.ndarray
    b_v: np.ndarray
    w_o: np.ndarray
    b_o: np.ndarray

    def tensors(self) -> dict[str, np.ndarray]:
        return {n: getattr(self, n) for n in ("w_q", "b_q", "w_k", "b_k", "w_v", "b_v", "w_o", "b_o")}


@dataclass
class FfnParams:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def tensors(self) -> dict[str, np.ndarray]:
        return {n: getattr(self, n) for n in ("w1", "b1", "w2", "b2")}


@dataclass
class BlockParams:
    """One residual block: attention sub-block and FFN sub-block, both
    pre-norm. kind is "vit" (global attention, w_q housed in msa) or "qna"
    (local shared-query attention, no w_q). Stride-2 local blocks carry the
    1x1 stride-2 convolution of the skip path."""

    kind: str
    ln1_g: np.ndarray
    ln1_b: np.ndarray
    ln2_g: np.ndarray
    ln2_b: np.ndarray
    ffn: FfnParams
    heads: int = 1
    msa: MsaParams | None = None
    msa_bias: np.ndarray | None = None  # relative-offset score table, optional
    qna_cfg: QnAConfig | None = None
    qna: QnAParams | None = None
    skip_w: np.ndarray | None = None
    skip_b: np.ndarray | None = None

    def tensors(self) -> dict[str, np.ndarray]:
        out = {"ln1_g": self.ln1_g, "ln1_b": self.ln1_b, "ln2_g": self.ln2_g, "ln2_b": self.ln2_b}
        if self.msa is not None:
            out.update({f"msa.{n}": t for n, t in self.msa.tensors().items()})
        if self.msa_bias is not None:
            out["msa_bias"] = self.msa_bias
        if self.qna is not None:
            out.update({f"qna.{n}": t for n, t in self.qna.tensors().items()})
        if self.skip_w is not None:
            out["skip_w"] = self.skip_w
            out["skip_b"] = self.skip_b
        out.update({f"ffn.{n}": t for n, t in self.ffn.tensors().items()})
        return out


@dataclass
class Model:
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

    def named_tensors(self) -> dict[str, np.ndarray]:
        out = {"patch_w": self.patch_w, "patch_b": self.patch_b}
        for i, blocks in enumerate(self.stages):
            for j, blk in enumerate(blocks):
                for name, t in blk.tensors().items():
                    out[f"stage{i}.block{j}.{name}"] = t
        out["final_ln_g"] = self.final_ln_g
        out["final_ln_b"] = self.final_ln_b
        out["head_w"] = self.head_w
        out["head_b"] = self.head_b
        return out


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def _init_ffn(rng, dim: int, expansion: int, dtype) -> FfnParams:
    hidden = expansion * dim
    return FfnParams(
        w1=truncated_normal(rng, (dim, hidden), dtype=dtype),
        b1=np.zeros(hidden, dtype=dtype),
        w2=truncated_normal(rng, (hidden, dim), dtype=dtype),
        b2=np.zeros(dim, dtype=dtype),
    )


def _init_vit_block(rng, dim: int, heads: int, expansion: int, dtype) -> BlockParams:
    msa = MsaParams(
        w_q=truncated_normal(rng, (dim, dim), dtype=dtype),
        b_q=np.zeros(dim, dtype=dtype),
        w_k=truncated_normal(rng, (dim, dim), dtype=dtype),
        b_k=np.zeros(dim, dtype=dtype),
        w_v=truncated_normal(rng, (dim, dim), dtype=dtype),
        b_v=np.zeros(dim, dtype=dtype),
        w_o=truncated_normal(rng, (dim, dim), dtype=dtype),
        b_o=np.zeros(dim, dtype=dtype),
    )
    return BlockParams(
        kind="vit",
        ln1_g=np.ones(dim, dtype=dtype),
        ln1_b=np.zeros(dim, dtype=dtype),
        ln2_g=np.ones(dim, dtype=dtype),
        ln2_b=np.zeros(dim, dtype=dtype),
        ffn=_init_ffn(rng, dim, expansion, dtype),
        heads=heads,
        msa=msa,
    )


def _init_qna_block(rng, dim_in: int, dim_out: int, heads: int, stride: int,
                    arch: ArchConfig, dtype) -> BlockParams:
    cfg = QnAConfig(
        k=arch.window,
        stride=stride,
        heads=heads,
        num_queries=arch.num_queries,
        dim_in=dim_in,
        dim_out=dim_out,
    )
    qna = init_params(cfg, rng, dtype=dtype)
    skip_w = skip_b = None
    if stride != 1:
        skip_w = truncated_normal(rng, (dim_in, dim_out), dtype=dtype)
        skip_b = np.zeros(dim_out, dtype=dtype)
    return BlockParams(
        kind="qna",
        ln1_g=np.ones(dim_in, dtype=dtype),
        ln1_b=np.zeros(dim_in, dtype=dtype),
        ln2_g=np.ones(dim_out, dtype=dtype),
        ln2_b=np.zeros(dim_out, dtype=dtype),
        ffn=_init_ffn(rng, dim_out, arch.ffn_expansion, dtype),
        heads=heads,
        qna_cfg=cfg,
        qna=qna,
        skip_w=skip_w,
        skip_b=skip_b,
    )


def _stage_blocks(rng, arch: ArchConfig, i: int, dtype) -> list[BlockParams]:
    dim = arch.stage_dims[i]
    n_local = arch.qna_blocks[i]
    has_ds = i < 3 and n_local > 0
    n_stride1 = n_local - 1 if has_ds else n_local

    local = [
        _init_qna_block(rng, dim, dim, arch.qna_heads[i], 1, arch, dtype)
        for _ in range(n_stride1)
    ]
    glob = [
        _init_vit_block(rng, dim, arch.sa_heads[i], arch.ffn_expansion, dtype)
        for _ in range(arch.vit_blocks[i])
    ]
    # Stage 3 runs its global blocks before its local ones.
    blocks = glob + local if i == 2 else local + glob
    if has_ds:
        blocks.append(
            _init_qna_block(rng, dim, arch.stage_dims[i + 1], arch.ds_heads[i], 2, arch, dtype)
        )
    return blocks


def build_model(variant_or_arch, seed: int, dtype=np.float32) -> Model:
    """Deterministic per (arch, seed, dtype): one generator streams through
    patch embed, stages in order, and the head."""
    if isinstance(variant_or_arch, ArchConfig):
        arch = variant_or_arch
    else:
        arch = make_arch(variant_or_arch)
    rng = make_rng(seed)
    d0 = arch.base_dim
    in_feats = arch.patch_size * arch.patch_size * 3
    patch_w = truncated_normal(rng, (in_feats, d0), dtype=dtype)
    patch_b = np.zeros(d0, dtype=dtype)
    n_stages = arch.num_stages()
    stages = [_stage_blocks(rng, arch, i, dtype) for i in range(n_stages)]
    d_last = arch.stage_dims[n_stages - 1]
    return Model(
        arch=arch,
        patch_w=patch_w,
        patch_b=patch_b,
        stages=stages,
        final_ln_g=np.ones(d_last, dtype=dtype),
        final_ln_b=np.zeros(d_last, dtype=dtype),
        head_w=truncated_normal(rng, (d_last, arch.num_classes), dtype=dtype),
        head_b=np.zeros(arch.num_classes, dtype=dtype),
    )


# ---------------------------------------------------------------------------
# Forward passes
# ---------------------------------------------------------------------------


def _gelu(x: np.ndarray) -> np.ndarray:
    # tanh approximation
    c = np.asarray(math.sqrt(2.0 / math.pi), dtype=x.dtype)
    a = np.asarray(0.044715, dtype=x.dtype)
    half = np.asarray(0.5, dtype=x.dtype)
    one = np.asarray(1.0, dtype=x.dtype)
    return half * x * (one + np.tanh(c * (x + a * x * x * x)))


def _ffn_forward(z: np.ndarray, ffn: FfnParams, ledger) -> np.ndarray:
    h = matmul(z, ffn.w1, ledger) + ffn.b1
    return matmul(_gelu(h), ffn.w2, ledger) + ffn.b2


def vit_block_forward(z: np.ndarray, params: BlockParams, ledger: AllocationLedger | None = None) -> np.ndarray:
    """Pre-norm residual block over N tokens: global multi-head attention,
    then the feed-forward sub-block."""
    if params.kind != "vit":
        raise ShapeError("vit_block_forward needs a vit block")
    if z.ndim != 2:
        raise ShapeError(f"tokens must be N x D, got shape {z.shape}")
    n, d = z.shape
    h = params.heads
    if d % h != 0:
        raise ShapeError(f"token dim {d} not divisible by heads {h}")
    dh = d // h
    m = params.msa

    u = layernorm(z, params.ln1_g, params.ln1_b, ledger=ledger)
    q = (matmul(u, m.w_q, ledger) + m.b_q).reshape(n, h, dh)
    k = (matmul(u, m.w_k, ledger) + m.b_k).reshape(n, h, dh)
    v = (matmul(u, m.w_v, ledger) + m.b_v).reshape(n, h, dh)
    scale = np.asarray(1.0 / math.sqrt(dh), dtype=z.dtype)

    att_out = np.empty((n, h, dh), dtype=z.dtype)
    for g in range(h):
        scores = matmul(q[:, g, :], np.ascontiguousarray(k[:, g, :].T), ledger) * scale
        if params.msa_bias is not None:
            scores += params.msa_bias
        att = softmax_rows(scores, ledger)
        att_out[:, g, :] = matmul(att, np.ascontiguousarray(v[:, g, :]), ledger)
    y = matmul(att_out.reshape(n, d), m.w_o, ledger) + m.b_o
    z = z + y

    u2 = layernorm(z, params.ln2_g, params.ln2_b, ledger=ledger)
    return z + _ffn_forward(u2, params.ffn, ledger)


def qna_block_forward(
    x: np.ndarray,
    params: BlockParams,
    ledger: AllocationLedger | None = None,
    qna_fn=qna_forward,
) -> np.ndarray:
    """Pre-norm residual block on the H x W grid. With stride 2 the skip is
    the 1x1 stride-2 convolution of the unnormalized input."""
    if params.kind != "qna":
        raise ShapeError("qna_block_forward needs a qna block")
    cfg = params.qna_cfg
    u = layernorm(x, params.ln1_g, params.ln1_b, ledger=ledger)
    y = qna_fn(u, cfg, params.qna, ledger)
    if cfg.stride == 1:
        z = x + y
    else:
        skip = conv2d(x, params.skip_w.reshape(1, 1, cfg.dim_in, cfg.dim_out),
                      cfg.stride, "same", ledger) + params.skip_b
        z = skip + y
    u2 = layernorm(z, params.ln2_g, params.ln2_b, ledger=ledger)
    hp, wp, dout = z.shape
    f = _ffn_forward(u2.reshape(hp * wp, dout), params.ffn, ledger).reshape(hp, wp, dout)
    return z + f


def _patch_embed(model: Model, image: np.ndarray, ledger) -> np.ndarray:
    p = model.arch.patch_size
    H, W, c = image.shape
    hp, wp = H // p, W // p
    tiles = reshape_permute(image, (hp, p, wp, p, c), (0, 2, 1, 3, 4), ledger)
    flat = tiles.reshape(hp * wp, p * p * c)
    return (matmul(flat, model.patch_w, ledger) + model.patch_b).reshape(hp, wp, model.arch.base_dim)


def forward_inference(
    model: Model,
    image: np.ndarray,
    ledger: AllocationLedger | None = None,
    qna_fn=qna_forward,
) -> np.ndarray:
    """Logits for one image. Spatial dims must be divisible by 32 (patch
    size 4 and three stride-2 transitions). ``qna_fn`` swaps the local
    attention implementation (the brute-force oracle slots in here)."""
    check_dtype(image, "image")
    if image.ndim != 3 or image.shape[2] != 3:
        raise ShapeError(f"image must be H x W x 3, got shape {image.shape}")
    H, W, _ = image.shape
    if H % 32 != 0 or W % 32 != 0 or H == 0 or W == 0:
        raise ShapeError(f"spatial dims must be divisible by 32, got {H} x {W}")
    if image.dtype != model.dtype:
        raise ShapeError(f"image dtype {image.dtype} differs from model dtype {model.dtype}")
    require_finite(image, "image")

    x = _patch_embed(model, image, ledger)
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

    def to_json_dict(self) -> dict:
        return {
            "params": self.params,
            "flops": self.flops,
            "rows": [{"name": r.name, "params": r.params, "flops": r.flops} for r in self.rows],
        }


def _block_param_count(blk: BlockParams) -> int:
    return sum(t.size for t in blk.tensors().values())


def qna_flops(cfg: QnAConfig, h_in: int, w_in: int) -> int:
    """Multiply-accumulates of one local-attention layer under the fused
    accounting: value projection, query/key fold, one score map per query
    (head-free), the k**2 window reductions over value channels plus one
    normalizer channel per (query, head), and the output projection."""
    hp = -(-h_in // cfg.stride)
    wp = -(-w_in // cfg.stride)
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
    hp = -(-h_in // cfg.stride)
    wp = -(-w_in // cfg.stride)
    total = qna_flops(cfg, h_in, w_in)
    if cfg.stride != 1:
        total += hp * wp * cfg.dim_in * cfg.dim_out
    total += 2 * hp * wp * cfg.dim_out * blk.ffn.w1.shape[1]
    return total


def _walk_costs(model: Model, resolution: int | None) -> CostReport:
    arch = model.arch
    rows: list[CostRow] = []
    grid = resolution // arch.patch_size if resolution is not None else 0

    pe_flops = grid * grid * model.patch_w.shape[0] * arch.base_dim if resolution else 0
    rows.append(CostRow("patch_embed", model.patch_w.size + model.patch_b.size, pe_flops))

    h = w = grid
    for i, blocks in enumerate(model.stages):
        for j, blk in enumerate(blocks):
            fl = _block_flops(blk, h, w) if resolution else 0
            rows.append(CostRow(f"stage{i + 1}.block{j + 1}.{blk.kind}", _block_param_count(blk), fl))
            if blk.kind == "qna" and blk.qna_cfg.stride != 1:
                h = -(-h // blk.qna_cfg.stride)
                w = -(-w // blk.qna_cfg.stride)

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
    if resolution % 32 != 0 or resolution <= 0:
        raise ShapeError(f"resolution must be divisible by 32, got {resolution}")
    return _walk_costs(model, resolution)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def save_model(dirpath, model: Model) -> None:
    os.makedirs(dirpath, exist_ok=True)
    named = model.named_tensors()
    doc = {
        "arch": model.arch.to_json_dict(),
        "dtype": dtype_tag(model.dtype),
        "tensors": sorted(named),
    }
    with open(os.path.join(dirpath, "arch.json"), "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
    weights = os.path.join(dirpath, "weights")
    os.makedirs(weights, exist_ok=True)
    for name, t in named.items():
        save_qnat(os.path.join(weights, f"{name}.qnat"), t)


def load_model(dirpath) -> Model:
    with open(os.path.join(dirpath, "arch.json")) as f:
        doc = json.load(f)
    try:
        arch = ArchConfig.from_json_dict(doc["arch"])
        dtype, names = dtype_from_tag(doc["dtype"]), doc["tensors"]
    except KeyError as exc:
        raise QnatFormatError(f"arch.json is missing key {exc.args[0]!r}") from None
    model = build_model(arch, seed=0, dtype=dtype)
    named = model.named_tensors()
    if sorted(named) != names:
        raise ShapeError("stored tensor manifest does not match the architecture")
    weights = os.path.join(dirpath, "weights")
    for name, t in named.items():
        loaded = load_qnat(os.path.join(weights, f"{name}.qnat"))
        if loaded.shape != t.shape or loaded.dtype != t.dtype:
            raise ShapeError(f"tensor {name} has shape {loaded.shape}, expected {t.shape}")
        t[...] = loaded
    return model
