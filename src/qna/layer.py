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
of query l (the kernels use exp(B_l - max B_l), which leaves the quotient
unchanged and keeps any finite table in range), mix_l blends the L
attention maps, and WWS is ``tensor.window_weighted_sum``, which computes
each band of output rows as one small GEMM per kernel column (a banded
Toeplitz matrix times the band's input rows) and needs scratch that does
not grow with the map; each thread keeps that scratch between calls.
The concatenated heads z are projected by W_O. Out-of-bounds window
positions carry exactly zero weight because the exponentiated maps are never
padded with fabricated keys (masked softmax).
``_window_sums`` is that per-query core, which builds E_l right before its
reductions; the forward pass, the upsampling head and the backward pass all
run on it. The heatmap builds only the one map it draws.

A training step runs the forward once. ``qna_vjp`` returns the output with
a pullback, and keeps what its forward computed (the values, the kernels
and each query's quotient, normalizer, weighted values and E_l) for the
pullback, which recomputes none of it. ``qna_backward`` is that pullback
applied to one d_out; ``qna_forward`` keeps nothing past its projection.

Samples are just more rows of the same reductions, so ``qna_forward``,
``qna_vjp`` and ``qna_backward`` take an optional leading batch axis: x is
``[N x] H x W x dim_in``. Each sample's scores are shifted by its own max
per (query, head), never by a max across the batch, so a sample's output
does not depend on the other samples, and the parameter gradients are sums
over the batch.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from .tensor import (
    AllocationLedger,
    NumericalRangeError,
    ShapeError,
    TensorSet,
    check_dtype,
    check_manifest,
    dtype_tag,
    fill_tensors,
    make_rng,
    random_draw,
    read_config,
    require_finite,
    same_window_slices,
    save_qnat,
    ufunc_buffers,
    window_weighted_sum,
    wws_buffers,
    wws_scratch,
)

# Bytes of Python objects that a layer call holds at its heap high-water
# mark beside the array data its ledger event counts: array headers and
# views, the window reductions' per-shape plans and numpy's iterator state.
# This is a measured allowance, not a derived count: they came to 5-12 KiB
# on 12 x 12 maps (CPython 3.11, numpy 2.4) and do not grow with the maps,
# and every layer event counts 4 KiB, below the smallest reading.
CALL_OBJECT_BYTES = 4096

# ---------------------------------------------------------------------------
# Configuration and parameter containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QnAConfig:
    """Hyperparameters of one layer.

    Scores are scaled by 1/sqrt(head_dim), and each query row is projected
    onto the unit sphere at use time (a training stabilization), so the
    stored rows are unconstrained.
    """

    k: int
    stride: int
    heads: int
    num_queries: int
    dim_in: int
    dim_out: int

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
class QnAParams(TensorSet):
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

    @property
    def dtype(self) -> np.dtype:
        return self.w_k.dtype

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
class GradBundle(TensorSet):
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


# ---------------------------------------------------------------------------
# Internal helpers
# ---------------------------------------------------------------------------


def _validate_layer_inputs(x: np.ndarray, cfg: QnAConfig, params: QnAParams) -> None:
    check_dtype(x, "x")
    if x.ndim not in (3, 4):
        raise ShapeError(f"x must be [N x] H x W x dim_in, got shape {x.shape}")
    if x.shape[-1] != cfg.dim_in:
        raise ShapeError(f"x has {x.shape[-1]} channels, config expects {cfg.dim_in}")
    params.validate(cfg)
    if params.dtype != x.dtype:
        raise ShapeError(f"params dtype {params.dtype} differs from input dtype {x.dtype}")
    require_finite(x, "x")
    for name, t in params.tensors().items():
        require_finite(t, f"params.{name}")


def _require_one_map(x: np.ndarray) -> None:
    """Reject a batch where an operation takes a single H x W x dim_in map."""
    if x.ndim != 3:
        raise ShapeError(f"x must be one H x W x dim_in map, got shape {x.shape}")


def used_queries(params: QnAParams) -> np.ndarray:
    """Query rows as the layer consumes them: unit-normalized."""
    q = params.queries
    norms = np.sqrt(np.sum(q * q, axis=1, keepdims=True))
    if np.any(norms == 0.0):
        raise NumericalRangeError("cannot normalize a zero query row")
    return q / norms


def _query_key_map(cfg: QnAConfig, params: QnAParams) -> np.ndarray:
    """Fold queries through the key projection once: A[l, g, :] of shape
    L x heads x dim_in, so scores need only a dot with each input vector.
    The keys themselves are never materialized."""
    dh = cfg.head_dim
    q = used_queries(params).reshape(cfg.num_queries, cfg.heads, dh)
    wk3 = params.w_k.reshape(cfg.dim_in, cfg.heads, dh)
    a = np.einsum("lgd,cgd->lgc", q, wk3)
    a /= np.sqrt(np.asarray(dh, dtype=a.dtype))
    return a


def _reduction_kernels(cfg: QnAConfig, params: QnAParams):
    """(numerator kernels mix_l * exp(B_l - max B_l), denominator kernels
    exp(B_l - max B_l)), each L x k x k. Shifting each query's table by its
    own max is exact, because the numerator and the denominator carry the
    same factor; it keeps every kernel entry in (0, 1], with a 1 at the max."""
    exp_b = params.bias - params.bias.max(axis=(1, 2), keepdims=True)
    np.exp(exp_b, out=exp_b)
    num_k = params.mix.reshape(cfg.num_queries, cfg.k, cfg.k) * exp_b
    return num_k, exp_b


def _exp_scores(x, a_l: np.ndarray) -> np.ndarray:
    """E_l = exp(S_l - max S_l), [N x] H x W x heads, with S_l = a_l . x for
    one query's fold ``a_l`` (heads x dim_in) and one max per sample and head
    over that sample's sites, -inf where it has none."""
    # Sites-as-rows orientation: each site's score row depends only on that
    # site's input vector, which keeps the per-site reduction order (and so
    # the shift-equivariance guarantee, and the equality of a batched call
    # with per-sample calls) independent of the site's position.
    h, Din = a_l.shape
    *lead, H, W, _ = x.shape
    e = (x.reshape(-1, Din) @ np.ascontiguousarray(a_l.T)).reshape(*x.shape[:-1], h)
    # The max over a heads-first copy reduces contiguous rows, 5-10x faster
    # than over the middle site axes; a max is exact in any order. The site
    # count is explicit: -1 cannot be resolved for an empty batch.
    heads_first = np.ascontiguousarray(e.reshape(*lead, H * W, h).swapaxes(-1, -2))
    e -= heads_first.max(axis=-1, initial=-np.inf).reshape(*lead, 1, 1, h)
    np.exp(e, out=e)
    return e


def _values(x, cfg: QnAConfig, params: QnAParams) -> np.ndarray:
    """V = x W_V + b_V as [N x] H x W x heads x head_dim."""
    v = x.reshape(-1, cfg.dim_in) @ params.w_v
    v += params.b_v
    return v.reshape(*x.shape[:-1], cfg.heads, cfg.head_dim)


def _normalizer(e_l, den_kernel, stride: int, ledger) -> np.ndarray:
    """WWS(E_l ; den_kernel): each window's weight sum, per head. A sum that
    underflowed to zero is an error."""
    den = window_weighted_sum(e_l, den_kernel, stride, ledger)
    if np.any(den == 0.0):
        raise NumericalRangeError("window weight sum underflowed to zero (scores out of range)")
    return den


def _window_sums(x, a_l, v, num_kernel, den_kernel, stride: int, ledger, ev_out=None,
                 tape=None):
    """Per-window softmax quotients of one query, with its heads as channels.

    ``a_l`` (heads x dim_in) is the query's fold, from which its stabilized
    exponentials E_l ([N x] H x W x heads) are built here, and ``v``
    ([N x] H x W x heads x head_dim) holds the values. All heads of a query
    share its k x k kernels, so two window reductions serve every head:

        quotient = WWS(E_l * V ; num_kernel) / WWS(E_l ; den_kernel)

    Returns the quotient, [N x] H' x W' x heads x head_dim. The weighted
    values E_l * V are written into ``ev_out`` (of v's shape; v itself where
    nothing reads the values after) or a new buffer. A ``tape`` list gets
    (quotient, normalizer, weighted values, E_l) appended, of shapes
    [N x] H' x W' x heads x head_dim, [N x] H' x W' x heads x 1,
    [N x] H x W x heads*head_dim and [N x] H x W x heads; without one, the
    weighted values and E_l are released before the division. A normalizer
    that underflowed to zero is an error.
    """
    *sites, h, dh = v.shape
    e_l = _exp_scores(x, a_l)
    den = _normalizer(e_l, den_kernel, stride, ledger)
    ev = np.multiply(e_l[..., None], v, out=ev_out).reshape(*sites, h * dh)
    if tape is None:
        del e_l  # only the tape reads it after E_l * V
    quotient = window_weighted_sum(ev, num_kernel, stride, ledger).reshape(*den.shape, dh)
    den = den[..., None]
    if tape is None:
        del ev  # nor this, after the numerator
    else:
        tape.append((quotient, den, ev, e_l))
    np.divide(quotient, den, out=quotient)
    return quotient


def _broadcast_buffers(shape, axis: int) -> int:
    """Elements that numpy's iterator buffers for an elementwise update of a
    C-contiguous array of ``shape`` by an operand broadcast to it along
    ``axis``: E_l or a normalizer across each head's channels, or the
    output bias across the sites."""
    thin = list(shape)
    thin[axis] = 1
    full, part = ([math.prod(t[i + 1:]) for i in range(len(t))] for t in (shape, thin))
    part[axis] = 0
    return ufunc_buffers(shape, full, part, full)


def _layer_maps(x, cfg: QnAConfig, params: QnAParams):
    """The forward's steps ahead of its per-query window reductions, after
    validating the inputs: (query/key fold A, values V, numerator kernels,
    denominator kernels)."""
    _validate_layer_inputs(x, cfg, params)
    return (_query_key_map(cfg, params), _values(x, cfg, params),
            *_reduction_kernels(cfg, params))


def _project(y: np.ndarray, cfg: QnAConfig, params: QnAParams) -> np.ndarray:
    """Layer output [N x] H' x W' x dim_out from the summed quotients y
    ([N x] H' x W' x heads x head_dim)."""
    out = y.reshape(-1, cfg.dim_out) @ params.w_o
    out += params.b_o
    require_finite(out, "output")
    return out.reshape(*y.shape[:-2], cfg.dim_out)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def qna_forward(
    x: np.ndarray,
    cfg: QnAConfig,
    params: QnAParams,
    ledger: AllocationLedger | None = None,
) -> np.ndarray:
    """Layer output of shape [N x] H' x W' x dim_out with H' = ceil(H / stride)
    for x of shape [N x] H x W x dim_in; sample n of a batch gets the output
    of the call on x[n] alone, bitwise where the window reduction's BLAS
    adds in order (see ``tensor.window_weighted_sum``).

    The map-sized transients do not depend on the window size k: the value
    map, one query's exponentiated score map and weighted values at a time,
    and output-sized sums. A query's scores are released once its weighted
    values are made, and its weighted values once they are reduced. The
    last query's weighted values are written into the value map, which
    nothing reads after them, and the value map is released before the
    output projection; with one query, no more than one value-sized map is
    held beside the output-sized ones. Only the reduction kernels (2 k x k
    per query) and each window reduction's working set
    (``tensor.wws_peak``, which does not grow with the map's height)
    grow with k. The per-window softmax over in-bounds offsets (with
    additive score bias) is realized as a quotient of two window reductions
    per query; the mixing weights fold into the numerator's reduction
    kernel.
    """
    a, v, num_k, den_k = _layer_maps(x, cfg, params)
    L = cfg.num_queries

    def quotient(l):
        # Nothing reads V after the last query's E_L * V: it goes into V's buffer.
        return _window_sums(x, a[l], v, num_k[l], den_k[l], cfg.stride, ledger,
                            v if l == L - 1 else None)

    y = quotient(0)  # its buffer accumulates the other queries' quotients
    for l in range(1, L):
        y += quotient(l)
    del v  # before the projection

    if ledger is not None:
        # The ledger counts the heap high-water mark above the output. The
        # mark is reached inside a numerator reduction or in the division
        # after it. Both hold the values, one query's normalizer and
        # numerator, the accumulator when there are earlier queries, the
        # window-reduction scratch (held from the first reduction on, as
        # large as the larger reduction's), the query/key fold and the
        # reduction kernels. The reduction also holds the query's weighted
        # values unless they are in the values' buffer (the last query's)
        # and its iterator buffers; the division, the buffered normalizer.
        # With one query either can set the mark; with two the first
        # reduction or the last division, with more a middle reduction. Map
        # sizes count the sites of every sample.
        h, D = cfg.heads, cfg.dim_out
        n, n_out = x.size // cfg.dim_in, y.size // D
        num, den = (((*x.shape[:-1], c), cfg.k, cfg.stride, x.itemsize) for c in (D, h))
        in_num = (n * (2 if L > 1 else 1) * D + n_out * (h + (2 if L > 2 else 1) * D)
                  + wws_buffers(*num))
        in_div = n * D + n_out * (h + (2 if L > 1 else 1) * D) + _broadcast_buffers(y.shape, -1)
        peak = (max(in_num, in_div) + max(wws_scratch(*num), wws_scratch(*den))
                + L * (h * cfg.dim_in + 2 * cfg.k * cfg.k))
        ledger.record("qna_forward", (peak - n_out * D) * x.dtype.itemsize + CALL_OBJECT_BYTES)
    return _project(y, cfg, params)


def qna_upsample_forward(
    x: np.ndarray,
    cfg: QnAConfig,
    params: QnAParams,
    ledger: AllocationLedger | None = None,
) -> np.ndarray:
    """Upsample by s where L = s**2: each query keeps its own output row.

    Every window emits s*s head-concatenated, W_O-projected rows (the mixing
    weights are unused here); row l of window (i, j) lands at output position
    (s*i + l // s, s*j + l % s). Requires stride 1 and one H x W x dim_in map.
    """
    _require_one_map(x)
    if cfg.stride != 1:
        raise ShapeError("upsampling requires stride 1")
    s = math.isqrt(cfg.num_queries)
    if s * s != cfg.num_queries:
        raise ShapeError(f"num_queries {cfg.num_queries} must be a perfect square")
    a, v, _, den_k = _layer_maps(x, cfg, params)

    H, W, _ = x.shape
    L, h, D = cfg.num_queries, cfg.heads, cfg.dim_out
    out = np.empty((H, s, W, s, D), dtype=x.dtype)
    for l in range(L):
        # Nothing reads V after the last query's E_L * V: it goes into V's
        # buffer, and V is released before the last projection.
        last = l == L - 1
        ratio = _window_sums(x, a[l], v, den_k[l], den_k[l], 1, ledger, v if last else None)
        if last:
            del v
        out[:, l // s, :, l % s] = _project(ratio, cfg, params)
        # No quotient outlives its projection, which adds the bias in place,
        # so projecting holds less than the reduction before it (the ledger's
        # peak).
        del ratio

    if ledger is not None:
        # The mark is reached in the first query's numerator reduction (the
        # values, its weighted values unless it is the only query and they
        # are in the values' buffer, its normalizer and numerator, and the
        # reduction's iterator buffers), a division (the values, a
        # normalizer and numerator, the buffered normalizer) or a projection
        # (the values unless they are released, the quotient, its
        # projection and the buffered bias). The window-reduction scratch,
        # the query/key fold and the kernels are held throughout.
        n = H * W
        num, den = (((H, W, c), cfg.k, 1, x.itemsize) for c in (D, h))
        transient = (
            max(n * ((2 if L > 1 else 1) * D + h + D) + wws_buffers(*num),
                n * (2 * D + h) + _broadcast_buffers((H, W, h, cfg.head_dim), -1),
                n * (3 if L > 1 else 2) * D + _broadcast_buffers((n, D), 0))
            + max(wws_scratch(*num), wws_scratch(*den))
            + L * (h * cfg.dim_in + 2 * cfg.k * cfg.k)  # query/key fold, reduction kernels
        ) * x.dtype.itemsize
        ledger.record("qna_upsample_forward", transient + CALL_OBJECT_BYTES)
    return out.reshape(H * s, W * s, D)


# ---------------------------------------------------------------------------
# Adjoints of the window reduction (used by backward and the heatmap)
# ---------------------------------------------------------------------------


def _wws_grad_map(grad_out: np.ndarray, kernel: np.ndarray, stride: int, in_hw) -> np.ndarray:
    """Adjoint of window_weighted_sum w.r.t. its input map of size ``in_hw``
    (H, W): a stride-1 window reduction of the output gradient, written to
    every stride-th site of a zeroed H x W grid, by the kernel turned half a
    turn. For even k that kernel reaches one site further back than a size-k
    window, so it sits in a (k + 1) x (k + 1) one with a zero last row and
    column. Leading batch axes carry through."""
    turned = kernel[::-1, ::-1]
    if kernel.shape[0] % 2 == 0:
        turned = np.pad(turned, (0, 1))
    if stride > 1:
        grid = np.zeros((*grad_out.shape[:-3], *in_hw, grad_out.shape[-1]), dtype=grad_out.dtype)
        grid[..., ::stride, ::stride, :] = grad_out
        grad_out = grid
    return window_weighted_sum(grad_out, turned, 1)


def _wws_grad_map_peak(shape, k: int, stride: int, itemsize: int) -> tuple[int, int]:
    """Elements that :func:`_wws_grad_map` holds for an input map of
    ``shape``: (its size-(k | 1) window reduction's scratch, the stride grid
    if any and the reduction's iterator buffers)."""
    call = (shape, k | 1, 1, itemsize)
    return wws_scratch(*call), (math.prod(shape) if stride > 1 else 0) + wws_buffers(*call)


def _wws_grad_kernel(grad_out: np.ndarray, map_: np.ndarray, k: int, stride: int) -> np.ndarray:
    """Adjoint of window_weighted_sum w.r.t. its kernel, summed over any
    leading batch axes."""
    H, W = map_.shape[-3:-1]
    axes = "nijc"[4 - map_.ndim:]  # an einsum cannot sum away an ellipsis
    out = np.zeros((k, k), dtype=grad_out.dtype)
    for i, j, dst, src in same_window_slices(H, W, k, stride):
        out[i, j] = np.einsum(f"{axes},{axes}->", grad_out[dst], map_[src])
    return out


def qna_vjp(
    x: np.ndarray,
    cfg: QnAConfig,
    params: QnAParams,
    ledger: AllocationLedger | None = None,
):
    """(out, pullback): the output of ``qna_forward(x)``, bitwise, and a
    function ``pullback(d_out)`` that returns the exact gradients of
    sum(d_out * out) for x and every parameter as a :class:`GradBundle`.

    x is [N x] H x W x dim_in and d_out has the output's shape. d_input has
    x's shape; each parameter gradient is the sum over the batch. The
    forward keeps a tape: the values, the reduction kernels and each query's
    (quotient, normalizer, weighted values, exponentiated scores E_l) from
    its window reductions. The pullback reads the tape and recomputes none of
    it, and leaves it unchanged, so it may be called more than once.
    ``params`` must not change between the call and its pullbacks. The
    forward records its heap high-water mark in ``ledger``, and so does each
    pullback.

    The per-window softmax Jacobian enters through the quotient rule on the
    numerator/denominator reductions; the stabilizing max shift contributes
    nothing because the quotient is invariant to it. The query normalization
    enters through its Jacobian: projection onto the tangent of the unit
    sphere, scaled by the inverse raw norm.
    """
    a, v, num_k, exp_b = _layer_maps(x, cfg, params)
    tape = []
    for l in range(cfg.num_queries):
        _window_sums(x, a[l], v, num_k[l], exp_b[l], cfg.stride, ledger, tape=tape)
    # Summed in query order as in qna_forward, but in a buffer of its own:
    # the tape keeps query 0's quotient.
    y = tape[0][0].copy() if len(tape) > 1 else tape[0][0]
    for ratio, *_ in tape[1:]:
        y += ratio
    out = _project(y, cfg, params)
    out_shape = out.shape  # the pullback reads this, so that it does not hold the output

    *lead, H, W, Din = x.shape
    L, h, dh, Dout, k = cfg.num_queries, cfg.heads, cfg.head_dim, cfg.dim_out, cfg.k
    if ledger is not None:
        # The ledger counts heap high-water marks from the start of this
        # call: the forward's above its output, the pullback's above its
        # gradients. Both hold the tape (the values, the query/key fold, the
        # kernels and every query's quotient, normalizer, weighted values and
        # exponentiated scores) and the window-reduction scratch. The
        # forward's mark is reached inside the last numerator reduction, its
        # division (by a buffered normalizer), or while projecting the
        # summed quotients (a copy of them when there are several, the
        # output and the buffered bias). Map sizes count the sites of every
        # sample.
        n, n_out = x.size // Din, out.size // Dout
        kept = n * (L * h + Dout) + L * (n_out * (Dout + h) + n * Dout + h * Din + 2 * k * k)
        num, den = (((*lead, H, W, c), k, cfg.stride, x.itemsize) for c in (Dout, h))
        held = max(wws_scratch(*num), wws_scratch(*den))
        fwd = held + max(wws_buffers(*num), _broadcast_buffers(y.shape, -1),
                         (2 if L > 1 else 1) * n_out * Dout + _broadcast_buffers((n_out, Dout), 0))
        ledger.record("qna_vjp", (kept + fwd - n_out * Dout) * x.dtype.itemsize + CALL_OBJECT_BYTES)

    def pullback(d_out: np.ndarray) -> GradBundle:
        if d_out.shape != out_shape:
            raise ShapeError(f"d_out has shape {d_out.shape}, expected {out_shape}")
        if d_out.dtype != x.dtype:
            raise ShapeError(f"d_out dtype {d_out.dtype} differs from input dtype {x.dtype}")
        require_finite(d_out, "d_out")
        mix_k = params.mix.reshape(L, k, k)

        # Every read of d_out comes first. A d_out that is not contiguous
        # (the toy trainer's is a broadcast view) is copied by the reshape,
        # and the copy is freed before the per-query adjoints.
        g_flat = d_out.reshape(-1, Dout)
        d_y = (g_flat @ params.w_o.T).reshape(*out_shape[:-1], h, dh)
        d_w_o = np.zeros_like(params.w_o)
        for ratio, *_ in tape:
            d_w_o += ratio.reshape(-1, Dout).T @ g_flat  # the output sums the quotients
        d_b_o = g_flat.sum(axis=0)
        del g_flat
        x2 = x.reshape(-1, Din)
        d_input = np.zeros_like(x2)
        d_a = np.empty_like(a)
        d_v = np.zeros_like(v)
        d_mix = np.empty_like(params.mix)
        d_exp_b = np.empty_like(exp_b)

        # One pass per query over all its heads. The kernel adjoints sum over
        # channels, which is the sum over the heads sharing the kernel.
        for l, (ratio, den, ev, e_l) in enumerate(tape):
            d_num = (d_y / den).reshape(out_shape)
            d_den = -np.einsum("...d,...d->...", d_y, ratio) / den[..., 0]

            d_ev = _wws_grad_map(d_num, num_k[l], cfg.stride, (H, W)).reshape(v.shape)
            d_nk = _wws_grad_kernel(d_num, ev, k, cfg.stride)
            d_s_l = _wws_grad_map(d_den, exp_b[l], cfg.stride, (H, W))
            d_dk = _wws_grad_kernel(d_den, e_l, k, cfg.stride)

            d_s_l += np.einsum("...d,...d->...", d_ev, v)
            d_ev *= e_l[..., None]  # in place: the value-map adjoint's last use
            d_v += d_ev
            del d_num, d_den, d_ev  # free before the input gradient's product
            # Through E_l; its max shift has zero total derivative because the
            # normalized output is invariant to it.
            d_s_l *= e_l
            d_s_l = d_s_l.reshape(-1, h)
            d_a[l] = d_s_l.T @ x2
            d_input += d_s_l @ a[l]
            d_mix[l] = (d_nk * exp_b[l]).ravel()
            d_exp_b[l] = d_nk * mix_k[l] + d_dk
            del d_s_l  # free before the next query

        d_bias = d_exp_b * exp_b

        scale = np.asarray(1.0 / np.sqrt(dh), dtype=x.dtype)
        q_used = used_queries(params)
        qh = q_used.reshape(L, h, dh)
        wk3 = params.w_k.reshape(Din, h, dh)
        d_qh = np.einsum("lgc,cgd->lgd", d_a, wk3) * scale
        d_w_k = (np.einsum("lgc,lgd->cgd", d_a, qh) * scale).reshape(Din, Dout)

        d_q_used = d_qh.reshape(L, Dout)
        norms = np.sqrt(np.sum(params.queries * params.queries, axis=1, keepdims=True))
        inner = np.sum(d_q_used * q_used, axis=1, keepdims=True)
        d_queries = (d_q_used - q_used * inner) / norms

        d_v2 = d_v.reshape(-1, Dout)
        d_w_v = x2.T @ d_v2
        d_b_v = d_v2.sum(axis=0)
        d_input += d_v2 @ params.w_v.T

        if ledger is not None:
            # The pullback's mark is reached inside a query's map adjoints
            # (the values' gradient, d_y, the query's numerator and
            # normalizer gradients, the value-map adjoint, plus the
            # adjoint's window reduction and, at stride above 1, its grid;
            # the second adjoint also holds its result, which the value-map
            # adjoint's product by the buffered E_l holds too) or in a
            # product into the input gradient (the product, the values'
            # gradient, d_y and the query's score gradient). The
            # window-reduction scratch of the forward and the adjoints is
            # held throughout.
            (held_ev, adj_ev), (held_e, adj_e) = (
                _wws_grad_map_peak((*lead, H, W, c), k, cfg.stride, x.itemsize)
                for c in (Dout, h))
            by_e = _broadcast_buffers(v.shape, -1)
            in_loop = (n * 2 * Dout + n_out * (2 * Dout + h)
                       + max(adj_ev, n * h + max(adj_e, by_e)))
            in_product = n * (h + Dout + Din) + n_out * Dout
            ledger.record("qna_vjp.pullback", (kept + max(held, held_ev, held_e)
                                               + max(in_loop, in_product)) * x.dtype.itemsize
                          + CALL_OBJECT_BYTES)
        return GradBundle(
            d_input=d_input.reshape(x.shape),
            d_w_k=d_w_k,
            d_w_v=d_w_v,
            d_b_v=d_b_v,
            d_w_o=d_w_o,
            d_b_o=d_b_o,
            d_queries=d_queries,
            d_mix=d_mix,
            d_bias=d_bias,
        )

    return out, pullback


def qna_backward(
    x: np.ndarray,
    cfg: QnAConfig,
    params: QnAParams,
    d_out: np.ndarray,
    ledger: AllocationLedger | None = None,
) -> GradBundle:
    """Exact gradients of sum(d_out * qna_forward(x)) for x and every
    parameter: the pullback of :func:`qna_vjp` applied to d_out."""
    return qna_vjp(x, cfg, params, ledger)[1](d_out)


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
    get exactly 1. Requires stride 1 and one H x W x dim_in map."""
    _require_one_map(x)
    if cfg.stride != 1:
        raise ShapeError("attention_heatmap requires stride 1")
    if not 0 <= query_index < cfg.num_queries:
        raise IndexError(f"query_index {query_index} out of range [0, {cfg.num_queries})")
    if not 0 <= head_index < cfg.heads:
        raise IndexError(f"head_index {head_index} out of range [0, {cfg.heads})")
    _validate_layer_inputs(x, cfg, params)
    # Only the chosen (query, head) score map is built.
    e = _exp_scores(x, _query_key_map(cfg, params)[query_index, head_index : head_index + 1])
    H, W, _ = e.shape
    _, den_k = _reduction_kernels(cfg, params)
    dk = den_k[query_index]
    den = _normalizer(e, dk, 1, ledger)
    # Each site's weight in window w is e[site] * kernel[site - w] / den[w];
    # summing over the windows containing the site is the reduction's map
    # adjoint applied to 1/den.
    heat = _wws_grad_map(1.0 / den, dk, 1, (H, W))
    heat *= e
    heat = heat.reshape(H, W)
    if ledger is not None:
        # The ledger counts the heap high-water mark above the output. The
        # mark is reached inside the normalizer's reduction (the chosen
        # exponentiated score map, the normalizer and the reduction's working
        # set) or the map adjoint's, which also holds 1/den, its result (the
        # output's buffer) and the larger of the two reductions' scratch. The
        # query/key fold and the kernels are held throughout.
        n = H * W
        den_call = ((H, W, 1), cfg.k, 1, x.itemsize)
        held_adj, adj = _wws_grad_map_peak((H, W, 1), cfg.k, 1, x.itemsize)
        peak = (max(2 * n + wws_scratch(*den_call) + wws_buffers(*den_call),
                    4 * n + max(wws_scratch(*den_call), held_adj) + adj)
                + cfg.num_queries * (cfg.heads * cfg.dim_in + 2 * cfg.k * cfg.k))
        ledger.record("attention_heatmap", (peak - heat.size) * x.dtype.itemsize + CALL_OBJECT_BYTES)
    return heat


def init_params(cfg: QnAConfig, seed, dtype=np.float64) -> QnAParams:
    """Deterministic initialization: truncated-normal (std 0.02, clipped at
    two sigma) projections and queries, zero biases, zero score-bias table,
    mixing weights all-ones divided by the query count. The draw order
    (w_k, w_v, w_o, queries) is part of the determinism contract.

    ``seed`` is an integer or an already-constructed numpy Generator (a
    caller may thread one generator through many layers)."""
    rng = seed if isinstance(seed, np.random.Generator) else make_rng(seed)
    return draw_params(cfg, random_draw(rng, dtype))


def draw_params(cfg: QnAConfig, draw) -> QnAParams:
    """Layer tensors with the fixed values of :func:`init_params`, each made
    by ``draw(shape, value)``; the drawn ones (value None) are w_k, w_v, w_o
    and queries, in that order."""
    L, k = cfg.num_queries, cfg.k
    w_k = draw((cfg.dim_in, cfg.dim_out))
    w_v = draw((cfg.dim_in, cfg.dim_out))
    w_o = draw((cfg.dim_out, cfg.dim_out))
    queries = draw((L, cfg.dim_out))
    return QnAParams(
        w_k=w_k,
        w_v=w_v,
        b_v=draw((cfg.dim_out,), 0.0),
        w_o=w_o,
        b_o=draw((cfg.dim_out,), 0.0),
        queries=queries,
        mix=draw((L, k * k), 1.0 / L),
        bias=draw((L, k, k), 0.0),
    )


# ---------------------------------------------------------------------------
# Serialization: one QNAT file per tensor plus a JSON config
# ---------------------------------------------------------------------------

def save_params(dirpath, cfg: QnAConfig, params: QnAParams) -> None:
    params.validate(cfg)
    os.makedirs(dirpath, exist_ok=True)
    tensors = params.tensors()
    doc = {**asdict(cfg), "dtype": dtype_tag(params.dtype), "tensors": list(tensors)}
    with open(os.path.join(dirpath, "config.json"), "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
    for name, t in tensors.items():
        save_qnat(os.path.join(dirpath, f"{name}.qnat"), t)


def load_params(dirpath) -> tuple[QnAConfig, QnAParams]:
    path = os.path.join(dirpath, "config.json")
    cfg, dtype, names = read_config(path, QnAConfig)
    check_manifest(path, names, [f.name for f in fields(QnAParams)])
    return cfg, fill_tensors(dirpath, lambda draw: draw_params(cfg, draw), dtype)
