"""Shared-query local attention with linear-memory forward and analytic backward.

The layer attends within overlapping k x k windows, but its queries are
learned parameters shared by every window instead of being derived from the
window content. That sharing is what allows the efficient formulation: the
query/key dot products collapse to one score map per (query, head) over the
whole input, exp(q.k + b) factors into that map's exponential times a fixed
per-query k x k kernel exp(b), and the softmax numerator and denominator
become per-offset weighted window reductions, like a depthwise convolution.
No k**2-sized intermediate is ever materialized.

The kernel of query l is the same for each of its heads, so the heads are
just channels of the reduced maps. For each query l, two reductions cover
every head g and output site p (window center ``p * stride``):

    z(p) = sum_l WWS(E_l * V ; mix_l * exp(B_l))(p) / WWS(E_l ; exp(B_l))(p)

where E_l (H x W x heads) holds exp(S_lg - max S_lg), the stabilized score
maps of query l, V = x W_V + b_V (H x W x heads x head_dim), E_l * V scales
each head's values by its own map, and the quotient divides each head's
channels by that head's normalizer. B_l is the learned per-offset score bias
of query l, mix_l blends the L attention maps, and WWS is
``tensor.window_weighted_sum``. The concatenated heads z are projected by
W_O. Out-of-bounds window positions carry exactly zero weight because the
exponentiated maps are never padded with fabricated keys (masked softmax).
``_window_sums`` is that per-query core; the forward pass, the upsampling
head, the heatmap and the backward pass all run on it.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .tensor import (
    AllocationLedger,
    NumericalRangeError,
    QnatFormatError,
    ShapeError,
    _record,
    _same_axis_ranges,
    check_dtype,
    dtype_from_tag,
    dtype_tag,
    load_qnat,
    make_rng,
    offset_bounds,
    require_finite,
    same_output_size,
    save_qnat,
    truncated_normal,
    window_weighted_sum,
)

# ---------------------------------------------------------------------------
# Configuration and parameter containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QnAConfig:
    """Hyperparameters of one layer.

    ``scale_scores`` applies the usual 1/sqrt(head_dim) factor to the scores;
    disable it to compare against the unscaled single-pass formulation.
    ``normalize_queries`` projects each query row onto the unit sphere at use
    time (a training stabilization), so the stored rows are unconstrained.
    """

    k: int
    stride: int
    heads: int
    num_queries: int
    dim_in: int
    dim_out: int
    scale_scores: bool = True
    normalize_queries: bool = True

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ShapeError(f"window size must be >= 1, got {self.k}")
        if self.stride < 1:
            raise ShapeError(f"stride must be >= 1, got {self.stride}")
        if self.heads < 1 or self.num_queries < 1:
            raise ShapeError("heads and num_queries must be >= 1")
        if self.dim_in < 1 or self.dim_out < 1:
            raise ShapeError("dim_in and dim_out must be >= 1")
        if self.dim_out % self.heads != 0:
            raise ShapeError(f"dim_out {self.dim_out} not divisible by heads {self.heads}")

    @property
    def head_dim(self) -> int:
        return self.dim_out // self.heads


@dataclass
class QnAParams:
    """Learned tensors. ``queries`` rows are per-query, ``mix`` blends the
    per-query attention maps over window offsets (row-major k*k), and
    ``bias`` is the per-query additive score offset table."""

    w_k: np.ndarray      # dim_in x dim_out
    w_v: np.ndarray      # dim_in x dim_out
    b_v: np.ndarray      # dim_out
    w_o: np.ndarray      # dim_out x dim_out
    b_o: np.ndarray      # dim_out
    queries: np.ndarray  # L x dim_out
    mix: np.ndarray      # L x k*k
    bias: np.ndarray     # L x k x k

    _FIELDS = ("w_k", "w_v", "b_v", "w_o", "b_o", "queries", "mix", "bias")

    def tensors(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self._FIELDS}

    @property
    def dtype(self) -> np.dtype:
        return self.w_k.dtype

    def num_scalars(self) -> int:
        return sum(t.size for t in self.tensors().values())

    def validate(self, cfg: QnAConfig) -> None:
        L, k = cfg.num_queries, cfg.k
        expected = {
            "w_k": (cfg.dim_in, cfg.dim_out),
            "w_v": (cfg.dim_in, cfg.dim_out),
            "b_v": (cfg.dim_out,),
            "w_o": (cfg.dim_out, cfg.dim_out),
            "b_o": (cfg.dim_out,),
            "queries": (L, cfg.dim_out),
            "mix": (L, k * k),
            "bias": (L, k, k),
        }
        for name, shape in expected.items():
            t = getattr(self, name)
            if t.shape != shape:
                raise ShapeError(f"params.{name} has shape {t.shape}, expected {shape}")
            check_dtype(t, f"params.{name}")
            if t.dtype != self.w_k.dtype:
                raise ShapeError(f"params.{name} dtype {t.dtype} differs from {self.w_k.dtype}")


@dataclass
class GradBundle:
    """Gradients of a scalar loss with respect to the input and every parameter."""

    d_input: np.ndarray
    d_w_k: np.ndarray
    d_w_v: np.ndarray
    d_b_v: np.ndarray
    d_w_o: np.ndarray
    d_b_o: np.ndarray
    d_queries: np.ndarray
    d_mix: np.ndarray
    d_bias: np.ndarray

    def tensors(self) -> dict[str, np.ndarray]:
        return {
            "d_input": self.d_input,
            "d_w_k": self.d_w_k,
            "d_w_v": self.d_w_v,
            "d_b_v": self.d_b_v,
            "d_w_o": self.d_w_o,
            "d_b_o": self.d_b_o,
            "d_queries": self.d_queries,
            "d_mix": self.d_mix,
            "d_bias": self.d_bias,
        }


# ---------------------------------------------------------------------------
# Internal helpers
# ---------------------------------------------------------------------------


def _validate_layer_inputs(x: np.ndarray, cfg: QnAConfig, params: QnAParams) -> None:
    check_dtype(x, "x")
    if x.ndim != 3:
        raise ShapeError(f"x must be H x W x dim_in, got shape {x.shape}")
    if x.shape[2] != cfg.dim_in:
        raise ShapeError(f"x has {x.shape[2]} channels, config expects {cfg.dim_in}")
    params.validate(cfg)
    if params.dtype != x.dtype:
        raise ShapeError(f"params dtype {params.dtype} differs from input dtype {x.dtype}")
    require_finite(x, "x")
    for name, t in params.tensors().items():
        require_finite(t, f"params.{name}")


def used_queries(cfg: QnAConfig, params: QnAParams) -> np.ndarray:
    """Query rows as the layer consumes them (unit-normalized when enabled)."""
    q = params.queries
    if not cfg.normalize_queries:
        return q
    norms = np.sqrt(np.sum(q * q, axis=1, keepdims=True))
    if np.any(norms == 0.0):
        raise NumericalRangeError("cannot normalize a zero query row")
    return q / norms


def _query_key_map(cfg: QnAConfig, params: QnAParams) -> np.ndarray:
    """Fold queries through the key projection once: A[l, g, :] of shape
    L x heads x dim_in, so scores need only a dot with each input vector.
    The keys themselves are never materialized."""
    dh = cfg.head_dim
    q = used_queries(cfg, params).reshape(cfg.num_queries, cfg.heads, dh)
    wk3 = params.w_k.reshape(cfg.dim_in, cfg.heads, dh)
    a = np.einsum("lgd,cgd->lgc", q, wk3)
    if cfg.scale_scores:
        a /= np.sqrt(np.asarray(dh, dtype=a.dtype))
    return a


def _reduction_kernels(cfg: QnAConfig, params: QnAParams):
    """(numerator kernels mix_l * exp(B_l), denominator kernels exp(B_l)),
    each L x k x k."""
    exp_b = np.exp(params.bias)
    require_finite(exp_b, "exp(bias)")
    num_k = params.mix.reshape(cfg.num_queries, cfg.k, cfg.k) * exp_b
    return num_k, exp_b


def _scores_from_map(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Score maps S[i, j, l, g] = A[l, g] . x[i, j], laid out H x W x L x heads."""
    # Sites-as-rows orientation: each site's score row depends only on that
    # site's input vector, which keeps the per-site reduction order (and so
    # the shift-equivariance guarantee) independent of the site's position.
    L, h, Din = a.shape
    H, W, _ = x.shape
    flat = x.reshape(H * W, Din) @ np.ascontiguousarray(a.reshape(L * h, Din).T)
    return flat.reshape(H, W, L, h)


def _exp_scores(x, cfg: QnAConfig, params: QnAParams, score_shift: float = 0.0) -> np.ndarray:
    """Validate the inputs, then return E = exp(S - max S), H x W x L x heads,
    with one max per (query, head) over all sites. E reuses the score buffer."""
    _validate_layer_inputs(x, cfg, params)
    e = _scores_from_map(_query_key_map(cfg, params), x)
    if score_shift:
        # Test hook: the output contract is invariant to a constant added to
        # every score (global max subtraction plus per-window normalization).
        e += np.asarray(score_shift, dtype=e.dtype)
    e -= e.max(axis=(0, 1))
    np.exp(e, out=e)
    return e


def _values(x, cfg: QnAConfig, params: QnAParams) -> np.ndarray:
    """V = x W_V + b_V as H x W x heads x head_dim."""
    H, W, _ = x.shape
    v = x.reshape(H * W, cfg.dim_in) @ params.w_v
    v += params.b_v
    return v.reshape(H, W, cfg.heads, cfg.head_dim)


def _window_sums(e_l, v, num_kernel, den_kernel, stride: int, ledger):
    """Per-window softmax quotients of one query, with its heads as channels.

    ``e_l`` (H x W x heads) holds the query's stabilized exponentials and
    ``v`` (H x W x heads x head_dim) the values. All heads of a query share
    its k x k kernels, so two window reductions serve every head:

        quotient = WWS(E_l * V ; num_kernel) / WWS(E_l ; den_kernel)

    Returns (quotient, normalizer) of shapes H' x W' x heads x head_dim and
    H' x W' x heads x 1. A normalizer that underflowed to zero is an error.
    """
    H, W, h, dh = v.shape
    den = window_weighted_sum(e_l, den_kernel, stride, "same", ledger)
    if np.any(den == 0.0):
        raise NumericalRangeError("window weight sum underflowed to zero (scores out of range)")
    ev = (e_l[..., None] * v).reshape(H, W, h * dh)
    quotient = window_weighted_sum(ev, num_kernel, stride, "same", ledger).reshape(*den.shape, dh)
    den = den[..., None]
    np.divide(quotient, den, out=quotient)
    return quotient, den


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def compute_scores(
    x: np.ndarray,
    cfg: QnAConfig,
    params: QnAParams,
    ledger: AllocationLedger | None = None,
) -> np.ndarray:
    """Score maps S[l, g, i, j] = A[l, g] . x[i, j], with A the queries folded
    through the key projection (scaled by 1/sqrt(head_dim) when enabled).

    Allocates two L x heads x H x W buffers (the site-major product and its
    query-major copy) plus the parameter-sized query/key fold; nothing here
    depends on the window size.
    """
    _validate_layer_inputs(x, cfg, params)
    a = _query_key_map(cfg, params)
    s = np.ascontiguousarray(_scores_from_map(a, x).transpose(2, 3, 0, 1))
    _record(ledger, "compute_scores", 2 * s.nbytes + a.nbytes)
    return s


def qna_forward(
    x: np.ndarray,
    cfg: QnAConfig,
    params: QnAParams,
    ledger: AllocationLedger | None = None,
    score_shift: float = 0.0,
) -> np.ndarray:
    """Layer output of shape H' x W' x dim_out with H' = ceil(H / stride).

    Transient memory is independent of the window size k: the exponentiated
    score maps, the value map, and per-query output-sized sums. The
    per-window softmax over in-bounds offsets (with additive score bias) is
    realized as a quotient of two window reductions per query; the mixing
    weights fold into the numerator's reduction kernel.
    """
    e = _exp_scores(x, cfg, params, score_shift)
    v = _values(x, cfg, params)
    num_k, den_k = _reduction_kernels(cfg, params)

    def quotient(l):
        return _window_sums(e[:, :, l], v, num_k[l], den_k[l], cfg.stride, ledger)[0]

    y = quotient(0)  # its buffer accumulates the other queries' quotients
    for l in range(1, cfg.num_queries):
        y += quotient(l)
    Hp, Wp, h, _ = y.shape
    out = y.reshape(Hp * Wp, cfg.dim_out) @ params.w_o
    out += params.b_o

    # The ledger counts the heap high-water mark above the output. The mark
    # is reached inside a numerator reduction: the exponentiated scores, the
    # values, one query's weighted values, its normalizer and numerator, the
    # reduction's scratch, and the accumulator when there are earlier queries.
    H, W, L, D = x.shape[0], x.shape[1], cfg.num_queries, cfg.dim_out
    peak = (H * W * (L * h + 2 * D) + Hp * Wp * (h + (3 if L > 1 else 2) * D)
            + 2 * L * cfg.k * cfg.k)
    _record(ledger, "qna_forward", (peak - Hp * Wp * D) * x.dtype.itemsize)
    require_finite(out, "output")
    return out.reshape(Hp, Wp, cfg.dim_out)


def qna_upsample_forward(
    x: np.ndarray,
    cfg: QnAConfig,
    params: QnAParams,
    ledger: AllocationLedger | None = None,
) -> np.ndarray:
    """Upsample by s where L = s**2: each query keeps its own output row.

    Every window emits s*s head-concatenated, W_O-projected rows (the mixing
    weights are unused here); row l of window (i, j) lands at output position
    (s*i + l // s, s*j + l % s). Requires stride 1.
    """
    if cfg.stride != 1:
        raise ShapeError("upsampling requires stride 1")
    s = math.isqrt(cfg.num_queries)
    if s * s != cfg.num_queries:
        raise ShapeError(f"num_queries {cfg.num_queries} must be a perfect square")
    e = _exp_scores(x, cfg, params)
    v = _values(x, cfg, params)
    _, den_k = _reduction_kernels(cfg, params)

    H, W, _ = x.shape
    L, h, D = cfg.num_queries, cfg.heads, cfg.dim_out

    def rows(l):
        q = _window_sums(e[:, :, l], v, den_k[l], den_k[l], 1, ledger)[0]
        return (q.reshape(H * W, D) @ params.w_o + params.b_o).reshape(H, W, D)

    out = np.empty((H, s, W, s, D), dtype=x.dtype)
    for l in range(L):
        out[:, l // s, :, l % s] = rows(l)

    transient = (
        H * W * (L * h + D)             # exponentiated scores, values
        + H * W * (h + 3 * D)           # one query's normalizer, weighted values,
                                        # numerator and WWS scratch
        + L * cfg.k * cfg.k             # reduction kernels
    ) * x.dtype.itemsize
    _record(ledger, "qna_upsample_forward", transient)
    out = out.reshape(H * s, W * s, D)
    require_finite(out, "output")
    return out


# ---------------------------------------------------------------------------
# Adjoints of the window reduction (used by backward and the heatmap)
# ---------------------------------------------------------------------------


def _wws_grad_map(grad_out: np.ndarray, kernel: np.ndarray, stride: int, in_hw) -> np.ndarray:
    """Adjoint of window_weighted_sum (same padding) w.r.t. its input map:
    scatter each output gradient back to the window positions it read."""
    H, W = in_hw
    Hp, Wp, C = grad_out.shape
    k = kernel.shape[0]
    lo, hi = offset_bounds(k)
    out = np.zeros((H, W, C), dtype=grad_out.dtype)
    for di in range(lo, hi + 1):
        rr = _same_axis_ranges(H, Hp, di, stride)
        if rr is None:
            continue
        r0, r1, rs = rr
        for dj in range(lo, hi + 1):
            w = kernel[di - lo, dj - lo]
            if w == 0.0:
                continue
            cc = _same_axis_ranges(W, Wp, dj, stride)
            if cc is None:
                continue
            c0, c1, cs = cc
            dst = out[rs : rs + (r1 - r0 - 1) * stride + 1 : stride,
                      cs : cs + (c1 - c0 - 1) * stride + 1 : stride]
            np.add(dst, grad_out[r0:r1, c0:c1] * w, out=dst)
    return out


def _wws_grad_kernel(grad_out: np.ndarray, map_: np.ndarray, k: int, stride: int) -> np.ndarray:
    """Adjoint of window_weighted_sum (same padding) w.r.t. its kernel."""
    H, W, _ = map_.shape
    Hp, Wp, _ = grad_out.shape
    lo, hi = offset_bounds(k)
    out = np.zeros((k, k), dtype=grad_out.dtype)
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
            src = map_[rs : rs + (r1 - r0 - 1) * stride + 1 : stride,
                       cs : cs + (c1 - c0 - 1) * stride + 1 : stride]
            out[di - lo, dj - lo] = np.einsum("ijc,ijc->", grad_out[r0:r1, c0:c1], src)
    return out


def qna_backward(
    x: np.ndarray,
    cfg: QnAConfig,
    params: QnAParams,
    d_out: np.ndarray,
    ledger: AllocationLedger | None = None,
) -> GradBundle:
    """Exact gradients of sum(d_out * qna_forward(x)) for x and every parameter.

    The per-window softmax Jacobian enters through the quotient rule on the
    numerator/denominator reductions; the stabilizing max shift contributes
    nothing because the quotient is invariant to it. When query normalization
    is enabled its Jacobian (projection onto the tangent of the unit sphere,
    scaled by the inverse raw norm) is included.
    """
    e = _exp_scores(x, cfg, params)
    H, W, Din = x.shape
    L, h, dh, Dout, k = cfg.num_queries, cfg.heads, cfg.head_dim, cfg.dim_out, cfg.k
    Hp, Wp = same_output_size(H, cfg.stride), same_output_size(W, cfg.stride)
    if d_out.shape != (Hp, Wp, Dout):
        raise ShapeError(f"d_out has shape {d_out.shape}, expected {(Hp, Wp, Dout)}")
    if d_out.dtype != x.dtype:
        raise ShapeError(f"d_out dtype {d_out.dtype} differs from input dtype {x.dtype}")
    require_finite(d_out, "d_out")
    v = _values(x, cfg, params)
    num_k, exp_b = _reduction_kernels(cfg, params)
    mix_k = params.mix.reshape(L, k, k)

    g_flat = d_out.reshape(Hp * Wp, Dout)
    d_y = (g_flat @ params.w_o.T).reshape(Hp, Wp, h, dh)
    y_pre = np.zeros((Hp, Wp, h, dh), dtype=x.dtype)
    d_e = np.empty_like(e)
    d_v = np.zeros_like(v)
    d_mix = np.empty_like(params.mix)
    d_exp_b = np.empty_like(exp_b)

    # One pass per query over all its heads. The kernel adjoints sum over
    # channels, which is the sum over the heads sharing the kernel.
    for l in range(L):
        e_l = e[:, :, l]
        ratio, den = _window_sums(e_l, v, num_k[l], exp_b[l], cfg.stride, ledger)
        y_pre += ratio
        d_num = (d_y / den).reshape(Hp, Wp, Dout)
        d_den = (-np.sum(d_y * ratio, axis=-1, keepdims=True) / den)[..., 0]

        ev = (e_l[..., None] * v).reshape(H, W, Dout)
        d_ev = _wws_grad_map(d_num, num_k[l], cfg.stride, (H, W)).reshape(H, W, h, dh)
        d_nk = _wws_grad_kernel(d_num, ev, k, cfg.stride)
        d_e1 = _wws_grad_map(d_den, exp_b[l], cfg.stride, (H, W))
        d_dk = _wws_grad_kernel(d_den, e_l, k, cfg.stride)

        d_e[:, :, l] = np.sum(d_ev * v, axis=-1) + d_e1
        d_v += d_ev * e_l[..., None]
        d_mix[l] = (d_nk * exp_b[l]).ravel()
        d_exp_b[l] = d_nk * mix_k[l] + d_dk
        del ratio, den, d_num, d_den, ev, d_ev, d_e1  # free before the next query

    d_b_o = g_flat.sum(axis=0)
    d_w_o = y_pre.reshape(Hp * Wp, Dout).T @ g_flat
    d_bias = d_exp_b * exp_b

    # Through the stabilized exponentials; the global max shift has zero
    # total derivative because the normalized output is invariant to it.
    d_e *= e
    d_s = d_e.reshape(H * W, L * h)

    a = _query_key_map(cfg, params)
    x2 = x.reshape(H * W, Din)
    d_a = (d_s.T @ x2).reshape(L, h, Din)

    scale = np.asarray(1.0, dtype=x.dtype)
    if cfg.scale_scores:
        scale = np.asarray(1.0 / np.sqrt(dh), dtype=x.dtype)
    q_used = used_queries(cfg, params)
    qh = q_used.reshape(L, h, dh)
    wk3 = params.w_k.reshape(Din, h, dh)
    d_qh = np.einsum("lgc,cgd->lgd", d_a, wk3) * scale
    d_w_k = (np.einsum("lgc,lgd->cgd", d_a, qh) * scale).reshape(Din, Dout)

    d_q_used = d_qh.reshape(L, Dout)
    if cfg.normalize_queries:
        norms = np.sqrt(np.sum(params.queries * params.queries, axis=1, keepdims=True))
        inner = np.sum(d_q_used * q_used, axis=1, keepdims=True)
        d_queries = (d_q_used - q_used * inner) / norms
    else:
        d_queries = d_q_used

    d_v2 = d_v.reshape(H * W, Dout)
    d_w_v = x2.T @ d_v2
    d_b_v = d_v2.sum(axis=0)
    d_input = d_s @ a.reshape(L * h, Din)
    d_input += d_v2 @ params.w_v.T

    # The ledger counts the heap high-water mark above the returned gradients.
    # The mark is reached inside a query's terms (scores, values, their
    # gradients, d_y and the summed quotients, plus the query's quotient,
    # normalizer, weighted values, their gradients and one product) or at the
    # end (the input gradient and one product beside them).
    n, n_out = H * W, Hp * Wp
    in_loop = n * (2 * L * h + 5 * Dout + h - Din) + n_out * (4 * Dout + 2 * h)
    at_end = n * (2 * L * h + 2 * Dout + Din) + n_out * 2 * Dout
    _record(ledger, "qna_backward", (max(in_loop, at_end) + 2 * L * k * k) * x.dtype.itemsize)
    return GradBundle(
        d_input=d_input.reshape(H, W, Din),
        d_w_k=d_w_k,
        d_w_v=d_w_v,
        d_b_v=d_b_v,
        d_w_o=d_w_o,
        d_b_o=d_b_o,
        d_queries=d_queries,
        d_mix=d_mix,
        d_bias=d_bias,
    )


def attention_heatmap(
    x: np.ndarray,
    cfg: QnAConfig,
    params: QnAParams,
    query_index: int,
    head_index: int,
    ledger: AllocationLedger | None = None,
) -> np.ndarray:
    """Per-site total attention mass: heat[n, m] sums, over every window that
    contains (n, m), the normalized weight that window assigns to (n, m) for
    the chosen query and head. Interior sites of a uniform-attention layer
    get exactly 1. Requires stride 1."""
    if cfg.stride != 1:
        raise ShapeError("attention_heatmap requires stride 1")
    if not 0 <= query_index < cfg.num_queries:
        raise IndexError(f"query_index {query_index} out of range [0, {cfg.num_queries})")
    if not 0 <= head_index < cfg.heads:
        raise IndexError(f"head_index {head_index} out of range [0, {cfg.heads})")
    e = _exp_scores(x, cfg, params)[:, :, query_index, head_index : head_index + 1]
    H, W, _ = e.shape
    _, den_k = _reduction_kernels(cfg, params)
    dk = den_k[query_index]
    # Only the normalizer is needed, so the value map has no channels.
    _, den = _window_sums(e, np.empty((H, W, 1, 0), dtype=x.dtype), dk, dk, 1, ledger)
    inv = 1.0 / den[..., 0]
    # Each site's weight in window w is e[site] * kernel[site - w] / den[w];
    # summing over the windows containing the site is a scatter of 1/den.
    spread = _wws_grad_map(inv, dk, 1, (H, W))
    heat = e[:, :, 0] * spread[:, :, 0]
    _record(ledger, "attention_heatmap",
            (H * W * (cfg.num_queries * cfg.heads + 4) + 2 * cfg.num_queries * cfg.k * cfg.k)
            * x.dtype.itemsize)
    return heat


def init_params(cfg: QnAConfig, seed, dtype=np.float64) -> QnAParams:
    """Deterministic initialization: truncated-normal (std 0.02, clipped at
    two sigma) projections and queries, zero biases, zero score-bias table,
    mixing weights all-ones divided by the query count. The draw order
    (w_k, w_v, w_o, queries) is part of the determinism contract.

    ``seed`` is an integer or an already-constructed numpy Generator (the
    model builder threads one generator through every block)."""
    rng = seed if isinstance(seed, np.random.Generator) else make_rng(seed)
    L, k = cfg.num_queries, cfg.k
    w_k = truncated_normal(rng, (cfg.dim_in, cfg.dim_out), dtype=dtype)
    w_v = truncated_normal(rng, (cfg.dim_in, cfg.dim_out), dtype=dtype)
    w_o = truncated_normal(rng, (cfg.dim_out, cfg.dim_out), dtype=dtype)
    queries = truncated_normal(rng, (L, cfg.dim_out), dtype=dtype)
    return QnAParams(
        w_k=w_k,
        w_v=w_v,
        b_v=np.zeros(cfg.dim_out, dtype=dtype),
        w_o=w_o,
        b_o=np.zeros(cfg.dim_out, dtype=dtype),
        queries=queries,
        mix=np.full((L, k * k), 1.0 / L, dtype=dtype),
        bias=np.zeros((L, k, k), dtype=dtype),
    )


# ---------------------------------------------------------------------------
# Serialization: one QNAT file per tensor plus a JSON config
# ---------------------------------------------------------------------------

def save_params(dirpath, cfg: QnAConfig, params: QnAParams) -> None:
    params.validate(cfg)
    os.makedirs(dirpath, exist_ok=True)
    doc = {
        "k": cfg.k,
        "stride": cfg.stride,
        "heads": cfg.heads,
        "num_queries": cfg.num_queries,
        "dim_in": cfg.dim_in,
        "dim_out": cfg.dim_out,
        "scale_scores": cfg.scale_scores,
        "normalize_queries": cfg.normalize_queries,
        "dtype": dtype_tag(params.dtype),
        "tensors": list(params._FIELDS),
    }
    with open(os.path.join(dirpath, "config.json"), "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
    for name, t in params.tensors().items():
        save_qnat(os.path.join(dirpath, f"{name}.qnat"), t)


def load_params(dirpath) -> tuple[QnAConfig, QnAParams]:
    with open(os.path.join(dirpath, "config.json")) as f:
        doc = json.load(f)
    try:
        cfg = QnAConfig(
            k=doc["k"],
            stride=doc["stride"],
            heads=doc["heads"],
            num_queries=doc["num_queries"],
            dim_in=doc["dim_in"],
            dim_out=doc["dim_out"],
            scale_scores=doc["scale_scores"],
            normalize_queries=doc["normalize_queries"],
        )
        dtype, names = dtype_from_tag(doc["dtype"]), doc["tensors"]
    except KeyError as exc:
        raise QnatFormatError(f"config.json is missing key {exc.args[0]!r}") from None
    tensors = {name: load_qnat(os.path.join(dirpath, f"{name}.qnat")) for name in names}
    params = QnAParams(**tensors)
    params.validate(cfg)
    if params.dtype != dtype:
        raise QnatFormatError(f"config.json says {doc['dtype']}, the tensors are {params.dtype}")
    return cfg, params
