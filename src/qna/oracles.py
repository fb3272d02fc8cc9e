"""Deliberately naive reference implementations.

Everything here trades speed and memory for transparency: windows are
materialized as explicit patches, keys are computed as a full map before any
dot product, softmaxes run per window over masked offset vectors, and the
mixing weights are applied to the attention maps after normalization. The
efficient layer is tested against these, so they intentionally share no loop
structure or fusion with it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layer import QnAConfig, QnAParams, _validate_layer_inputs, used_queries
from .tensor import (
    AllocationLedger,
    NumericalRangeError,
    ShapeError,
    _record,
    _same_axis_ranges,
    check_dtype,
    offset_bounds,
    same_output_size,
    softmax_rows,
)

# ---------------------------------------------------------------------------
# Patch extraction
# ---------------------------------------------------------------------------


@dataclass
class UnfoldedWindows:
    """Explicit per-window copies: patches[i, j, o, :] is the input vector at
    the o-th offset (row-major over the k x k window) of the window whose
    center is (i * stride, j * stride); zero where out of bounds, with the
    parallel boolean mask marking in-bounds entries."""

    patches: np.ndarray  # H' x W' x k*k x D
    mask: np.ndarray     # H' x W' x k*k, bool


def unfold(x: np.ndarray, k: int, stride: int = 1, ledger: AllocationLedger | None = None) -> UnfoldedWindows:
    """Extract every k x k window as an explicit patch (the k**2-fold memory
    expansion the efficient path avoids). The ledger records exactly
    H' * W' * k**2 * D * itemsize; the boolean mask is bookkeeping and not
    part of the contrasted quantity."""
    check_dtype(x, "x")
    if x.ndim != 3:
        raise ShapeError(f"x must be H x W x D, got shape {x.shape}")
    if k < 1 or stride < 1:
        raise ShapeError("k and stride must be >= 1")
    H, W, D = x.shape
    Hp, Wp = same_output_size(H, stride), same_output_size(W, stride)
    patches = np.zeros((Hp, Wp, k * k, D), dtype=x.dtype)
    mask = np.zeros((Hp, Wp, k * k), dtype=bool)
    lo, hi = offset_bounds(k)
    for di in range(lo, hi + 1):
        rr = _same_axis_ranges(H, Hp, di, stride)
        if rr is None:
            continue
        r0, r1, rs = rr
        for dj in range(lo, hi + 1):
            cc = _same_axis_ranges(W, Wp, dj, stride)
            if cc is None:
                continue
            c0, c1, cs = cc
            o = (di - lo) * k + (dj - lo)
            src = x[rs : rs + (r1 - r0 - 1) * stride + 1 : stride,
                    cs : cs + (c1 - c0 - 1) * stride + 1 : stride]
            patches[r0:r1, c0:c1, o, :] = src
            mask[r0:r1, c0:c1, o] = True
    _record(ledger, "unfold", patches.nbytes)
    return UnfoldedWindows(patches=patches, mask=mask)


# ---------------------------------------------------------------------------
# Brute-force shared-query attention
# ---------------------------------------------------------------------------


def qna_window_oracle(
    x: np.ndarray,
    cfg: QnAConfig,
    params: QnAParams,
    ledger: AllocationLedger | None = None,
) -> np.ndarray:
    """Per-window ground truth for qna_forward.

    Materializes the full key map and unfolds it into patches; for every
    (query, head) runs a masked softmax over each window's biased score
    vector and applies the mixing weights to the normalized attention. The
    key patches are freed before the value patches are extracted, so one
    k**2-sized patch buffer is alive at a time. Same math as the efficient
    path, no shared code in the window arithmetic.
    """
    _validate_layer_inputs(x, cfg, params)
    H, W, Din = x.shape
    L, h, dh, Dout = cfg.num_queries, cfg.heads, cfg.head_dim, cfg.dim_out
    kk = cfg.k * cfg.k
    x2 = x.reshape(H * W, Din)
    q = used_queries(cfg, params)
    if cfg.scale_scores:
        q = q / np.sqrt(np.asarray(dh, dtype=x.dtype))
    neg_inf = np.asarray(-np.inf, dtype=x.dtype)

    kp = unfold((x2 @ params.w_k).reshape(H, W, Dout), cfg.k, cfg.stride, ledger)
    Hp, Wp = kp.patches.shape[0], kp.patches.shape[1]
    n_out = Hp * Wp
    keys = kp.patches.reshape(n_out, kk, Dout)
    mask = kp.mask.reshape(n_out, kk)
    del kp
    weighted = np.empty((L, h, n_out, kk), dtype=x.dtype)
    for l in range(L):
        for g in range(h):
            sl = slice(g * dh, (g + 1) * dh)
            logits = keys[:, :, sl] @ q[l, sl]
            logits += params.bias[l].reshape(kk)
            logits = np.where(mask, logits, neg_inf)
            weighted[l, g] = softmax_rows(logits, ledger) * params.mix[l]
    del keys, mask

    values = (x2 @ params.w_v + params.b_v).reshape(H, W, Dout)
    vp = unfold(values, cfg.k, cfg.stride, ledger).patches.reshape(n_out, kk, Dout)
    y = np.zeros((n_out, Dout), dtype=x.dtype)
    for l in range(L):
        for g in range(h):
            sl = slice(g * dh, (g + 1) * dh)
            y[:, sl] += np.matmul(weighted[l, g][:, None, :], vp[:, :, sl])[:, 0, :]
    del vp

    out = (y @ params.w_o + params.b_o).reshape(Hp, Wp, Dout)
    _record(
        ledger,
        "qna_window_oracle",
        ((L * h + 3) * n_out * kk + H * W * Dout + 2 * n_out * Dout) * x.dtype.itemsize,
    )
    return out


# ---------------------------------------------------------------------------
# Window attention with content-derived center queries
# ---------------------------------------------------------------------------


@dataclass
class SasaParams:
    """Projections for center-query window attention; no output projection."""

    w_q: np.ndarray  # D x D_att
    w_k: np.ndarray  # D x D_att
    w_v: np.ndarray  # D x D_val
    rel_bias: np.ndarray | None = None  # k x k additive score table, off by default


def sasa_forward(
    x: np.ndarray,
    k: int,
    params: SasaParams,
    ledger: AllocationLedger | None = None,
    scale_scores: bool = True,
    stride: int = 1,
) -> np.ndarray:
    """Window attention where each window's single query comes from its own
    center: q = x_center W_Q, with windows centered every ``stride`` sites.
    Masked softmax at borders, values aggregated per window, and no output
    projection. The key patches are freed before the value patches are
    extracted, so one k**2-sized patch buffer is alive at a time."""
    check_dtype(x, "x")
    if x.ndim != 3:
        raise ShapeError(f"x must be H x W x D, got shape {x.shape}")
    if k < 1 or stride < 1:
        raise ShapeError("k and stride must be >= 1")
    H, W, D = x.shape
    if params.w_q.ndim != 2 or params.w_k.ndim != 2 or params.w_v.ndim != 2:
        raise ShapeError("projections must be rank-2")
    if params.w_q.shape[0] != D or params.w_k.shape[0] != D or params.w_v.shape[0] != D:
        raise ShapeError("projection rows must match input channels")
    if params.w_q.shape[1] != params.w_k.shape[1]:
        raise ShapeError("W_Q and W_K must agree on the attention dimension")
    if params.rel_bias is not None and params.rel_bias.shape != (k, k):
        raise ShapeError(f"rel_bias must be {k} x {k}, got {params.rel_bias.shape}")

    x2 = x.reshape(H * W, D)
    d_att = params.w_q.shape[1]
    q = (x2 @ params.w_q).reshape(H, W, d_att)[::stride, ::stride]
    if scale_scores:
        q = q / np.sqrt(np.asarray(d_att, dtype=x.dtype))
    Hp, Wp = q.shape[0], q.shape[1]
    n_out = Hp * Wp

    kp = unfold((x2 @ params.w_k).reshape(H, W, d_att), k, stride, ledger)
    logits = np.matmul(kp.patches.reshape(n_out, k * k, d_att), q.reshape(n_out, d_att, 1))[:, :, 0]
    if params.rel_bias is not None:
        logits += params.rel_bias.reshape(k * k)
    logits = np.where(kp.mask.reshape(n_out, k * k), logits, np.asarray(-np.inf, dtype=x.dtype))
    del kp
    att = softmax_rows(logits, ledger)

    values = (x2 @ params.w_v).reshape(H, W, -1)
    d_val = values.shape[2]
    vp = unfold(values, k, stride, ledger).patches.reshape(n_out, k * k, d_val)
    out = np.matmul(att[:, None, :], vp)[:, 0, :]
    _record(
        ledger,
        "sasa_forward",
        (3 * n_out * k * k + H * W * max(d_att, d_val) + n_out * (d_att + d_val)) * x.dtype.itemsize,
    )
    return out.reshape(Hp, Wp, -1)


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------


def finite_diff_grad(f, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function, one coordinate at a
    time: (f(x + eps e) - f(x - eps e)) / (2 eps). Slow by construction; the
    ground truth for qna_backward."""
    check_dtype(x, "x")
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    grad = np.zeros_like(x)
    work = x.copy()
    flat_w = work.reshape(-1)
    flat_x = x.reshape(-1)
    flat_g = grad.reshape(-1)
    for i in range(flat_x.size):
        flat_w[i] = flat_x[i] + eps
        f_plus = float(f(work))
        flat_w[i] = flat_x[i] - eps
        f_minus = float(f(work))
        flat_w[i] = flat_x[i]
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NumericalRangeError(f"non-finite function value near coordinate {i}")
        flat_g[i] = (f_plus - f_minus) / (2.0 * eps)
    return grad
