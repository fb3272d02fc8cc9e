"""Minimal dense tensor primitives with byte-accurate allocation accounting.

Plain numpy arrays (row-major, float32 or float64) are the tensor currency
of this package. The functions here are the handful of primitives the
shared-query attention layer needs: matrix products, a per-offset weighted
window reduction, row softmax, the downsampler's strided 1x1 convolution and
layer normalization. The ones that allocate scratch accept an
optional :class:`AllocationLedger` and record the transient buffers, which is
what the complexity benchmark uses to verify memory claims. Saved tensor
sets live here too: the QNAT container, :class:`TensorSet` (named tensors
from a dataclass's fields), :func:`read_config` (the one decoder of a
saved bundle's JSON document) and :func:`fill_tensors` (the one reader of
its tensor files).

Conventions shared by every windowed operation:

* A size-``k`` window around center ``c`` covers offsets ``d`` with
  ``-k/2 < d <= k/2`` per axis. Odd ``k`` is symmetric; even ``k`` extends
  one extra element toward increasing indices (``k=2`` covers ``{0, +1}``).
* Padding is always "same": the output keeps ``H' = ceil(H / stride)`` and
  out-of-bounds window positions contribute exactly zero.
* Which output sites each kernel offset touches, and which strided input
  slice they read, is worked out per axis in one place,
  :func:`_same_axis_ranges`. :func:`same_window_slices` combines the two
  axes for the layer's kernel adjoint; :func:`wws_plan` uses the column
  ranges for the input columns each window-reduction product reads. The
  reduction then adds a product into every output column through
  one view, whose out-of-bounds reads land in zero margins of its buffer.
* Inputs are expected to be finite. Layer-level entry points validate this;
  the primitives trust their callers so that benchmark loops are not
  dominated by scans. A deliberate exception: ``softmax_rows`` accepts
  ``-inf`` entries, which drop out of the row (masked softmax).
"""

from __future__ import annotations

import collections
import functools
import json
import math
import os
import struct
import typing
from dataclasses import dataclass, field, fields

import numpy as np

SUPPORTED_DTYPES = (np.float32, np.float64)
# Tags naming the supported dtypes in config files, bench cases and the CLI.
DTYPE_TAGS = {"f32": np.dtype(np.float32), "f64": np.dtype(np.float64)}

_QNAT_MAGIC = b"QNAT"
_QNAT_CODE_TO_DTYPE = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_QNAT_DTYPE_TO_CODE = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}

# Added to the variance before layernorm takes its square root.
LAYERNORM_EPS = 1e-6
# Every truncated-normal draw has std INIT_STD and is resampled beyond
# INIT_CLIP standard deviations.
INIT_STD = 0.02
INIT_CLIP = 2.0
# truncated_normal draws its float64 values this many at a time.
INIT_CHUNK = 1 << 16
# window_weighted_sum contracts no GEMM over K elements with
# K * itemsize >= WWS_GEMM_BYTES. Below that bound, for the product shapes it
# issues (see WWS_GEMM_MACS), OpenBLAS 0.3.31 (SkylakeX kernels) adds each
# output's K products in order, one fused multiply-add apiece, wherever in K
# the nonzero terms sit; at K = 16 in f64 and K = 32 in f32 it no longer did.
# That order keeps the window reduction's results independent of a site's
# position (test_blas_adds_toeplitz_rows_in_order checks it). It was measured
# at one BLAS thread only; other CPUs get other kernels from the same wheel.
WWS_GEMM_BYTES = 128
# A band is cut so that each of its products makes at most this many
# multiply-adds, unless only one-row bands fit. OpenBLAS runs such products
# in its unpacked small-matrix kernel. Just above the bound the same product
# took 1.5 to 4 times as long (f32 and f64, K 10 to 20, N 4096 and 8192),
# and the f64 kernel used there summed some last columns of products of 12
# or more rows in another order.
WWS_GEMM_MACS = 100**3


class ShapeError(ValueError):
    """Raised when an argument's shape or dtype violates an operation's contract."""


class NumericalRangeError(ArithmeticError):
    """Raised when a computation leaves the representable/finite range."""


class QnatFormatError(ValueError):
    """Raised when a QNAT container or a saved bundle's JSON document is malformed."""


def read_config(path, cls, section=None):
    """Decode the JSON document of a saved tensor bundle.

    The document is an object holding a dtype tag under "dtype", the list of
    stored tensor names under "tensors", and the fields of the config
    dataclass ``cls``: at its top level, or in the object under the key
    ``section``. Every field must be present and hold a JSON integer, or a
    list of integers where the field is a tuple; no other key may appear.
    Returns (config, dtype, tensor names); :func:`check_manifest` checks the
    names. A violation, or a file that is not JSON, raises QnatFormatError
    naming the file and the key.
    """
    try:
        with open(path) as f:
            doc = json.load(f)
    except ValueError as exc:  # a JSON or UTF-8 decoding error
        raise QnatFormatError(f"{path} is not JSON: {exc}") from None
    names = [f.name for f in fields(cls)]
    if section is None:
        body = _json_object(path, doc, [*names, "dtype", "tensors"], "the document")
    else:
        _json_object(path, doc, [section, "dtype", "tensors"], "the document")
        body = _json_object(path, doc[section], names, f"key {section!r}")
    hints = typing.get_type_hints(cls)
    values = {}
    for name in names:
        value = body[name]
        if typing.get_origin(hints[name]) is tuple:
            if not (isinstance(value, list) and all(type(v) is int for v in value)):
                raise QnatFormatError(
                    f"{path}: key {name!r} must be a list of integers, got {value!r}")
            value = tuple(value)
        elif type(value) is not int:
            raise QnatFormatError(f"{path}: key {name!r} must be an integer, got {value!r}")
        values[name] = value
    tag = doc["dtype"]
    if not isinstance(tag, str) or tag not in DTYPE_TAGS:
        raise QnatFormatError(
            f"{path}: key 'dtype' holds unknown tag {tag!r}, expected one of {sorted(DTYPE_TAGS)}")
    return cls(**values), DTYPE_TAGS[tag], doc["tensors"]


def _json_object(path, obj, keys, what: str) -> dict:
    """``obj`` when it is a JSON object with exactly ``keys``."""
    if not isinstance(obj, dict):
        raise QnatFormatError(f"{path}: {what} must be a JSON object, got {type(obj).__name__}")
    for key in keys:
        if key not in obj:
            raise QnatFormatError(f"{path}: missing key {key!r}")
    for key in obj:
        if key not in keys:
            raise QnatFormatError(f"{path}: unknown key {key!r}")
    return obj


def check_manifest(path, names, expected) -> None:
    """Reject a stored "tensors" list other than ``expected``, in order."""
    expected = list(expected)
    if names != expected:
        listed = names if isinstance(names, list) else []
        odd = [n for n in listed if n not in expected] + [n for n in expected if n not in listed]
        raise QnatFormatError(f"{path}: key 'tensors' must list the {len(expected)} tensor names "
                              f"in order; unknown or missing: {odd[:3]!r}")


class TensorSet:
    """Mixin for dataclasses of learned tensors, which the fields describe.

    ``tensors()`` maps each array field to its name. A field holding another
    tensor set contributes that set's tensors under dotted names
    (``"ffn.w1"``); fields holding anything else, or None, contribute none.
    """

    def tensors(self) -> dict[str, np.ndarray]:
        out = {}
        # Iterates the field table: dataclasses.fields() builds a filtered
        # tuple on every call, and with tensors() running on every layer call
        # that raised the toy trainer's peak RSS by 0.4 MB.
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if isinstance(value, np.ndarray):
                out[name] = value
            elif isinstance(value, TensorSet):
                out.update({f"{name}.{n}": t for n, t in value.tensors().items()})
        return out


# ---------------------------------------------------------------------------
# Allocation ledger
# ---------------------------------------------------------------------------


@dataclass
class AllocationLedger:
    """Ordered record of per-operation transient allocations, in bytes.

    Each event is ``(operation label, transient bytes)``. Input and output
    buffers are never counted; what an operation reports as transient is part
    of that operation's documented contract (for example ``unfold`` reports
    exactly its patch buffer). ``peak_extra_bytes`` is the maximum over
    single events, i.e. the largest scratch footprint any one operation
    needed. Deterministic for a fixed operation sequence.
    """

    events: list[tuple[str, int]] = field(default_factory=list)

    def record(self, label: str, nbytes: int) -> None:
        self.events.append((label, int(nbytes)))

    @property
    def peak_extra_bytes(self) -> int:
        return max((b for _, b in self.events), default=0)


def _record(ledger: AllocationLedger | None, label: str, nbytes: int) -> None:
    if ledger is not None:
        ledger.record(label, nbytes)


# ---------------------------------------------------------------------------
# Small shared helpers
# ---------------------------------------------------------------------------


def check_dtype(arr: np.ndarray, name: str) -> None:
    if arr.dtype.type not in SUPPORTED_DTYPES:
        raise ShapeError(f"{name} must be float32 or float64, got {arr.dtype}")


def dtype_tag(dtype) -> str:
    """The tag of a supported dtype, e.g. "f32" for float32."""
    return next(tag for tag, dt in DTYPE_TAGS.items() if dt == np.dtype(dtype))


def require_finite(arr: np.ndarray, name: str) -> None:
    # min and max propagate NaN and hold any infinity, so checking them
    # allocates nothing map-sized.
    if arr.size and not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
        raise NumericalRangeError(f"{name} contains non-finite values")


def offset_bounds(k: int) -> tuple[int, int]:
    """Inclusive offset range (lo, hi) of a size-k window: (-k/2, k/2]."""
    if k < 1:
        raise ShapeError(f"window size must be >= 1, got {k}")
    return -((k - 1) // 2), k // 2


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _same_axis_ranges(size: int, out_size: int, offset: int, stride: int):
    """Overlap of ``out*stride + offset`` with [0, size) for one axis.

    Returns (dst0, dst1, src0) with dst in output coordinates and
    src0 = dst0*stride + offset, or None when the overlap is empty.
    """
    d0 = max(0, _ceil_div(-offset, stride))
    d1 = min(out_size - 1, (size - 1 - offset) // stride)
    if d0 > d1:
        return None
    return d0, d1 + 1, d0 * stride + offset


def same_output_size(size: int, stride: int) -> int:
    return _ceil_div(size, stride)


@functools.lru_cache(maxsize=256)
def same_window_slices(H: int, W: int, k: int, stride: int) -> tuple:
    """Geometry of a same-padded k x k window reduction over an H x W map.

    A tuple of ``(i, j, dst, src)``, one per kernel offset in row-major order,
    skipping offsets whose window positions all fall outside the map.
    ``(i, j)`` indexes the kernel; ``dst`` indexes the H' x W' output sites
    whose windows see that offset in bounds, and ``src`` the strided input
    positions those sites read there. Both are index tuples
    ``(..., rows, cols, slice(None))``, so they select the same sites of a
    ``[N x] H x W x C`` map of any leading shape. Its one caller is the
    layer's kernel adjoint. Computed once per shape: the training loop asks
    for the same small geometry many times per step.
    """
    lo, _ = offset_bounds(k)

    def axis(size):
        # (dst slice, src slice) per kernel index; None when out of bounds
        out_size = same_output_size(size, stride)
        slices = []
        for t in range(k):
            r = _same_axis_ranges(size, out_size, lo + t, stride)
            if r is not None:
                d0, d1, s0 = r
                r = (slice(d0, d1), slice(s0, s0 + (d1 - d0 - 1) * stride + 1, stride))
            slices.append(r)
        return slices

    every = slice(None)
    cols = axis(W)
    return tuple(
        (i, j, (..., rows[0], cc[0], every), (..., rows[1], cc[1], every))
        for i, rows in enumerate(axis(H)) if rows is not None
        for j, cc in enumerate(cols) if cc is not None
    )


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product of a [M x K] by b [K x N], or of each pair in two
    equal-shaped stacks of them ([... x M x K] by [... x K x N])."""
    check_dtype(a, "a")
    check_dtype(b, "b")
    if a.ndim < 2 or a.ndim != b.ndim or a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(
            f"matmul expects equal-shaped stacks of matrices, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"inner dimensions disagree: {a.shape} x {b.shape}")
    return a @ b


WWSPlan = collections.namedtuple("WWSPlan", "rows group stack prod out pad cols bands")


@functools.lru_cache(maxsize=256)
def wws_plan(shape, k: int, stride: int, itemsize: int) -> WWSPlan:
    """Everything :func:`window_weighted_sum` derives from the shape of its
    map ([N x] H x W x C) and a size-k kernel, computed once per shape.

    A band's product covers one kernel column and one group of kernel rows,
    and contracts over the (rows - 1) * stride + group input rows the band
    reaches there. The kernel rows form the fewest equal groups that keep a
    two-row band's contraction under WWS_GEMM_BYTES. Bands get as many rows
    as that bound and WWS_GEMM_MACS allow for products as wide as an input
    row, and at least one. One-row and one-column products are padded to
    two, so ``stack`` (kernel column, group, band row, input row) and
    ``prod`` hold two rows and two columns at least. ``prod`` is the band
    buffer: the products of input column c sit at its column c + (k - 1) //
    2, between zero margins as wide as the window reaches beyond the map on
    each side. ``cols`` holds each kernel column j, the input columns its
    product reads (and writes, in the buffer), and the buffer columns its
    output columns read: column j and every stride-th one after it;
    ``bands`` holds each band's output, product and kept rows, and each
    group's stack columns and input rows, clipped to the map.
    """
    *lead, H, W, C = shape
    pad, width = W * C == 1, max(W * C, 2)
    kmax = (WWS_GEMM_BYTES - 1) // itemsize
    group = _ceil_div(k, _ceil_div(k, max(1, kmax - stride)))
    rows = (kmax - group) // stride + 1
    while rows > 1 and rows * ((rows - 1) * stride + group) * width > WWS_GEMM_MACS:
        rows -= 1
    groups, reach, m2 = _ceil_div(k, group), (rows - 1) * stride + group, max(rows, 2)

    lo, _ = offset_bounds(k)
    Hp, Wp = same_output_size(H, stride), same_output_size(W, stride)
    cols = []
    for j in range(k):
        ranges = _same_axis_ranges(W, Wp, lo + j, stride)
        if ranges is not None:
            d0, d1, c = ranges
            span = (d1 - d0 - 1) * stride + 1
            w = max(span, 2) if C == 1 else span
            c0 = min(c, W + pad - w)
            seen = slice(j, j + (Wp - 1) * stride + 1, stride)
            cols.append((j, slice(c0 * C, (c0 + w) * C), seen))
    bands = []
    for b0 in range(0, Hp, rows):
        m = min(rows, Hp - b0)
        reads = []
        for g in range(groups):
            first = b0 * stride + lo + g * group
            r0, r1 = max(0, -first), min((m - 1) * stride + group, H - first)
            if r0 < r1:
                reads.append((g, slice(r0, r1), slice(first + r0, first + r1)))
        bands.append((slice(b0, b0 + m), slice(0, max(m, 2)), slice(0, m), tuple(reads)))
    return WWSPlan(rows, group, (k, groups, m2, reach), (*lead, m2, (W + pad + k - 1) * C),
                   (*lead, Hp, Wp, C), pad, tuple(cols), tuple(bands))


def wws_peak(shape, k: int, stride: int, itemsize: int) -> int:
    """Elements that a :func:`window_weighted_sum` over a map of ``shape``
    with a size-k kernel records in its "window_weighted_sum" ledger event:
    the two buffers of :func:`wws_plan` and the buffers of numpy's iterator,
    up to getbufsize() elements each and at most the band buffer, none of
    which grows with H. numpy adds a band's product view through one such
    buffer. Where a batch of maps spans several bands, the output band is
    strided too, and the add may take three. A copy of the map is an event
    of its own."""
    plan = wws_plan(shape, k, stride, itemsize)
    prod = math.prod(plan.prod)
    buffers = 3 if len(plan.bands) > 1 and math.prod(shape[:-3]) > 1 else 1
    return prod + math.prod(plan.stack) + buffers * min(np.getbufsize(), prod)


def _tap_stack(kernel: np.ndarray, plan: WWSPlan, stride: int) -> np.ndarray:
    """The Toeplitz matrices of :func:`wws_plan`'s ``stack``: kernel column j
    in stack[j], where band row r of group g holds kernel row g * group + t
    at input row r * stride + t."""
    k, groups, _, reach = plan.stack
    stack = np.zeros(plan.stack, dtype=kernel.dtype)
    step = kernel.itemsize
    taps = np.ndarray((k, groups, plan.rows, plan.group), kernel.dtype, stack, 0,
                      (*stack.strides[:2], (reach + stride) * step, step))
    for g in range(groups):
        kernel_rows = kernel.T[:, None, g * plan.group : (g + 1) * plan.group]
        taps[:, g, :, : kernel_rows.shape[-1]] = kernel_rows
    return stack


def window_weighted_sum(
    map_: np.ndarray,
    kernel: np.ndarray,
    stride: int = 1,
    ledger: AllocationLedger | None = None,
) -> np.ndarray:
    """Per-offset weighted reduction over k x k windows of a [N x] H x W x C map.

    out[n, i, j, c] = sum over in-bounds offsets d of
    kernel[d] * map[n, i*stride + d_row, j*stride + d_col, c].

    Every channel shares the kernel, so for one kernel column the sum over
    the kernel rows is a matrix product: a banded Toeplitz matrix (band
    output rows x the input rows they reach) times those input rows seen as
    a matrix. The output is walked in bands of whole rows, and each band
    takes one GEMM per kernel column and group of kernel rows. Each product
    reads the band's input rows in place, over the contiguous input columns
    its output columns reach, and is written at those columns of a band
    buffer whose margins hold zeros. One view of that buffer then adds the
    product into every output column at once: for kernel column j, output
    column o reads buffer column o * stride + j, a margin where the window
    leaves the map. At stride 1 that is one add of whole rows. An
    out-of-bounds term adds +0.0 to a sum that starts at +0.0, which leaves
    every sum bitwise what it is without the term. :func:`wws_plan` works
    all of this out once per shape.
    Where the BLAS adds each output's terms of such products in order (see
    WWS_GEMM_BYTES), each output element adds its terms in one order (kernel
    columns outer, kernel rows inner) whatever its position, band or batch,
    so the result is bitwise independent of them; elsewhere results agree
    within rounding. The contract covers ``qna_backward``'s input gradient
    too: its map adjoints are window reductions.
    The N maps of a batch share every pass. A map that is not C-contiguous
    is copied once on entry, and a one-column, one-channel map gets a zero
    second column; each copy is a ledger event of its own. The other
    transients (:func:`wws_peak`) do not grow with the map.
    """
    check_dtype(map_, "map")
    if map_.ndim not in (3, 4):
        raise ShapeError(f"map must be [N x] H x W x C, got shape {map_.shape}")
    if kernel.ndim != 2 or kernel.shape[0] != kernel.shape[1]:
        raise ShapeError(f"kernel must be k x k, got shape {kernel.shape}")
    if kernel.dtype != map_.dtype:
        raise ShapeError(f"kernel dtype {kernel.dtype} must match map dtype {map_.dtype}")
    if stride < 1:
        raise ShapeError(f"stride must be positive, got {stride}")

    shape, k, dt = map_.shape, kernel.shape[0], map_.dtype
    plan = wws_plan(shape, k, stride, dt.itemsize)
    if plan.pad:
        padded = np.zeros((*shape[:-2], 2, 1), dtype=dt)
        padded[..., :1, :] = map_
        map_ = padded
        _record(ledger, "window_weighted_sum.pad", map_.nbytes)
    elif not map_.flags.c_contiguous:
        map_ = np.ascontiguousarray(map_)
        _record(ledger, "window_weighted_sum.copy", map_.nbytes)
    out = np.zeros(plan.out, dtype=dt)
    if ledger is not None:
        ledger.record("window_weighted_sum", wws_peak(shape, k, stride, dt.itemsize) * dt.itemsize)
    if not out.size:
        return out

    stack = _tap_stack(kernel, plan, stride)
    prod = np.empty(plan.prod, dtype=dt)
    terms = prod.reshape(*prod.shape[:-1], -1, out.shape[-1])  # product columns
    rows = map_.reshape(*map_.shape[:-2], -1)  # input rows as matrix rows
    margin = (k - 1) // 2 * out.shape[-1]
    at_input = prod[..., margin : margin + rows.shape[-1]]  # input column c's products at c
    prod[..., :margin] = 0  # the margins, which no product writes
    prod[..., margin + rows.shape[-1] :] = 0
    for out_rows, prod_rows, kept_rows, reads in plan.bands:
        band = out[..., out_rows, :, :]
        for j, src, seen in plan.cols:
            for g, taps_cols, in_rows in reads:
                np.matmul(stack[j, g, prod_rows, taps_cols], rows[..., in_rows, src],
                          out=at_input[..., prod_rows, src])
                band += terms[..., kept_rows, seen, :]
    return out


def softmax_rows(scores: np.ndarray, ledger: AllocationLedger | None = None) -> np.ndarray:
    """Softmax over the last axis, stabilized by per-row max subtraction.

    ``-inf`` entries are permitted and receive exactly zero weight, which is
    how masked (partial) windows are realized. A row whose weights all
    underflow to zero is reported as a range error rather than renormalized.
    """
    check_dtype(scores, "scores")
    if scores.ndim == 0 or scores.shape[-1] == 0:
        raise ShapeError(f"scores must have a non-empty last axis, got shape {scores.shape}")
    m = np.max(scores, axis=-1, keepdims=True)
    # -inf rows produce nan here; the denominator check below reports them
    with np.errstate(invalid="ignore"):
        shifted = scores - m
        np.exp(shifted, out=shifted)
    denom = np.sum(shifted, axis=-1, keepdims=True)
    if np.any(denom == 0.0) or not np.all(np.isfinite(denom)):
        raise NumericalRangeError("softmax row underflowed to zero weight")
    shifted /= denom
    _record(ledger, "softmax_rows", shifted.nbytes)
    return shifted


def conv2d(
    x: np.ndarray,
    w: np.ndarray,
    stride: int = 1,
    ledger: AllocationLedger | None = None,
) -> np.ndarray:
    """1x1 convolution of x [N x] H x W x Din with w [Din x Dout] at a stride:
    ``out[..., i, j, :] = x[..., i*stride, j*stride, :] @ w``.

    One product over the strided sites. The ledger event is the contiguous
    copy of those sites, when the call makes one."""
    check_dtype(x, "x")
    check_dtype(w, "w")
    if x.ndim not in (3, 4):
        raise ShapeError(f"x must be [N x] H x W x Din, got shape {x.shape}")
    if w.ndim != 2:
        raise ShapeError(f"w must be Din x Dout, got shape {w.shape}")
    if w.shape[0] != x.shape[-1]:
        raise ShapeError(f"channel mismatch: x has {x.shape[-1]}, w expects {w.shape[0]}")
    if w.dtype != x.dtype:
        raise ShapeError(f"w dtype {w.dtype} must match x dtype {x.dtype}")
    if stride < 1:
        raise ShapeError(f"stride must be positive, got {stride}")

    sites = np.ascontiguousarray(x[..., ::stride, ::stride, :])
    if not np.may_share_memory(sites, x):
        _record(ledger, "conv2d", sites.nbytes)
    return (sites.reshape(-1, w.shape[0]) @ w).reshape(*sites.shape[:-1], w.shape[1])


def layernorm(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    ledger: AllocationLedger | None = None,
) -> np.ndarray:
    """Normalize the last axis to zero mean / unit variance, then affine.

    The output is the one map-sized buffer (see :func:`_layernorm_into`).
    The ledger event is what is held beside it: a per-row statistic and the
    ufunc buffer, up to getbufsize() elements, of a broadcast update."""
    check_dtype(x, "x")
    if x.ndim == 0 or x.shape[-1] < 1:
        raise ShapeError(f"x must have a feature axis, got shape {x.shape}")
    D = x.shape[-1]
    if gamma.shape != (D,) or beta.shape != (D,):
        raise ShapeError(f"gamma/beta must have shape ({D},), got {gamma.shape} and {beta.shape}")
    out = _layernorm_into(x, gamma, beta, np.empty(x.shape, dtype=x.dtype))
    _record(ledger, "layernorm", (x.size // D + min(np.getbufsize(), x.size)) * x.itemsize)
    return out


def _layernorm_into(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, out: np.ndarray):
    """``out`` <- :func:`layernorm` of x, unchecked, for an ``out`` of x's
    shape and dtype that does not overlap x. Two passes: the rows are
    centered into ``out``, their variance is the mean of the centered
    squares (summed by einsum, so no squared map is made), and the scaling
    and affine are applied in place. Beside ``out`` it holds one per-row
    statistic at a time, and the ufunc buffers of the broadcast updates."""
    mean = x.sum(axis=-1, keepdims=True)
    mean /= x.shape[-1]  # x.mean() would allocate a ufunc buffer for this division
    np.subtract(x, mean, out=out)
    del mean
    var = np.einsum("...d,...d->...", out, out)[..., None]
    var /= x.shape[-1]
    var += LAYERNORM_EPS
    out /= np.sqrt(var, out=var)
    out *= gamma
    out += beta
    return out


# ---------------------------------------------------------------------------
# Seeded initialization helpers
# ---------------------------------------------------------------------------


def make_rng(seed: int) -> np.random.Generator:
    """Generator from a 64-bit unsigned seed; identical seed, identical stream."""
    if not isinstance(seed, (int, np.integer)) or not 0 <= int(seed) < 2**64:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
    return np.random.default_rng(int(seed))


def truncated_normal(rng: np.random.Generator, shape, dtype=np.float64) -> np.ndarray:
    """Zero-mean normal with std INIT_STD, resampled until
    |x| <= INIT_CLIP * INIT_STD. Redraws fill the out-of-bound entries in
    ascending index order, and only redrawn entries are checked again.

    Values are drawn in float64, INIT_CHUNK at a time, tested against the
    bound and written straight into the output of ``dtype``; the generator's
    stream is consumed as by one draw of the whole shape, so the result is
    the same."""
    out = np.empty(shape, dtype=dtype)
    flat = out.reshape(-1)
    bound = INIT_CLIP * INIT_STD
    bad = [np.empty(0, dtype=np.intp)]
    for start in range(0, flat.size, INIT_CHUNK):
        draw = rng.normal(0.0, INIT_STD, size=min(INIT_CHUNK, flat.size - start))
        flat[start:start + draw.size] = draw
        bad.append(np.flatnonzero(np.abs(draw, out=draw) > bound))
        bad[-1] += start
        del draw  # before the next chunk is drawn
    bad = np.concatenate(bad)
    while bad.size:
        draw = rng.normal(0.0, INIT_STD, size=bad.size)
        flat[bad] = draw
        bad = bad[np.abs(draw, out=draw) > bound]
    return out


def random_draw(rng: np.random.Generator, dtype):
    """``draw(shape, value=None)`` for the parameter builders: a tensor of
    ``dtype`` filled with ``value``, or a :func:`truncated_normal` draw from
    ``rng`` where ``value`` is None."""
    def draw(shape, value=None):
        if value is None:
            return truncated_normal(rng, shape, dtype=dtype)
        return np.full(shape, value, dtype=dtype)
    return draw


def shape_draw(dtype):
    """``draw(shape, value=None)`` for the parameter builders that allocates
    nothing: every tensor is a read-only zero of ``dtype`` broadcast to
    ``shape``, for code that reads only shapes and sizes."""
    zero = np.zeros((), dtype=dtype)
    return lambda shape, value=None: np.broadcast_to(zero, shape)


# ---------------------------------------------------------------------------
# QNAT binary tensor container
# ---------------------------------------------------------------------------


def save_qnat(path, arr: np.ndarray) -> None:
    """Write one tensor: magic 'QNAT', dtype byte, rank byte, 2 pad bytes,
    rank little-endian u32 dims, then the row-major little-endian payload."""
    arr = np.asarray(arr)
    dt = np.dtype(arr.dtype)
    if dt not in _QNAT_DTYPE_TO_CODE:
        raise QnatFormatError(f"only float32/float64 tensors are supported, got {dt}")
    if arr.ndim > 255:
        raise QnatFormatError(f"rank {arr.ndim} exceeds the format limit of 255")
    for s in arr.shape:
        if s >= 2**32:
            raise QnatFormatError(f"dimension {s} exceeds u32 range")
    code = _QNAT_DTYPE_TO_CODE[dt]
    header = _QNAT_MAGIC + struct.pack("<BBxx", code, arr.ndim)
    dims = struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b""
    payload = np.ascontiguousarray(arr, dtype=_QNAT_CODE_TO_DTYPE[code]).tobytes()
    with open(path, "wb") as f:
        f.write(header)
        f.write(dims)
        f.write(payload)


def _qnat_header(f, path) -> tuple[np.dtype, tuple]:
    """(native dtype, shape) from the header of the open QNAT file
    ``f``, which is left at its payload. The file must hold exactly that
    payload after the header; malformed input raises QnatFormatError naming
    ``path``. Reads no payload."""
    head = f.read(8)
    if len(head) < 8 or head[:4] != _QNAT_MAGIC:
        raise QnatFormatError(f"{path}: not a QNAT container (bad magic)")
    code, rank = struct.unpack_from("<BBxx", head, 4)
    if code not in _QNAT_CODE_TO_DTYPE:
        raise QnatFormatError(f"{path}: unknown dtype code {code}")
    dims = f.read(4 * rank)
    if len(dims) < 4 * rank:
        raise QnatFormatError(f"{path}: truncated dimension table")
    shape = struct.unpack(f"<{rank}I", dims)
    dt = _QNAT_CODE_TO_DTYPE[code]
    expected = 8 + 4 * rank + math.prod(shape) * dt.itemsize
    size = os.fstat(f.fileno()).st_size
    if size != expected:
        raise QnatFormatError(
            f"{path}: payload size mismatch: expected {expected} bytes, file has {size}")
    return np.dtype(dt.type), shape


def _read_payload(f, path, out: np.ndarray) -> np.ndarray:
    """Read the payload of the QNAT file ``f``, left at it by
    :func:`_qnat_header`, straight into the C-contiguous array ``out`` of the
    header's dtype and shape, with no intermediate buffer. A short read
    raises QnatFormatError naming ``path``."""
    buf = out.reshape(-1).view(np.uint8)
    if f.readinto(buf) != buf.size:
        raise QnatFormatError(f"{path}: payload ends early")
    if not np.little_endian:
        out.byteswap(inplace=True)
    return out


def load_qnat(path) -> np.ndarray:
    """Read a tensor written by :func:`save_qnat`; strict about every byte.
    A malformed file raises QnatFormatError naming the file."""
    with open(path, "rb") as f:
        dt, shape = _qnat_header(f, path)
        return _read_payload(f, path, np.empty(shape, dtype=dt))


def fill_tensors(dirpath, build, dtype):
    """``build(draw)``'s tensor set, each tensor read from
    ``<dirpath>/<name>.qnat``.

    ``build`` makes every tensor with ``draw(shape, value=None)`` and runs
    twice. First on :func:`shape_draw`, which allocates nothing: every
    file's header is compared with its tensor's dtype and shape, and a file
    of another dtype or shape raises ShapeError naming it, before anything
    is allocated. Then on empty arrays of ``dtype``, filled from the files.
    """
    for name, t in build(shape_draw(dtype)).tensors().items():
        path = os.path.join(dirpath, f"{name}.qnat")
        with open(path, "rb") as f:
            dt, shape = _qnat_header(f, path)
        if shape != t.shape or dt != t.dtype:
            raise ShapeError(f"{path}: tensor {name} is {dt} of shape "
                             f"{shape}, expected {t.dtype} of shape {t.shape}")
    tset = build(lambda shape, value=None: np.empty(shape, dtype=dtype))
    for name, t in tset.tensors().items():
        path = os.path.join(dirpath, f"{name}.qnat")
        with open(path, "rb") as f:
            _qnat_header(f, path)
            _read_payload(f, path, t)
    return tset
