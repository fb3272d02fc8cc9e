"""Minimal dense tensor primitives with byte-accurate allocation accounting.

Plain numpy arrays (row-major, float32 or float64) are the tensor currency
of this package. The functions here are the handful of primitives the
shared-query attention layer needs: matrix products, a per-offset weighted
window reduction, row softmax, direct 2-D convolution, layer normalization,
and an exact reshape/permute. Each one accepts an optional
:class:`AllocationLedger` and records the transient buffers it allocates,
which is what the complexity benchmark uses to verify memory claims.

Conventions shared by every windowed operation:

* A size-``k`` window around center ``c`` covers offsets ``d`` with
  ``-k/2 < d <= k/2`` per axis. Odd ``k`` is symmetric; even ``k`` extends
  one extra element toward increasing indices (``k=2`` covers ``{0, +1}``).
* ``padding="same"`` keeps ``H' = ceil(H / stride)``; out-of-bounds window
  positions contribute exactly zero.
* Inputs are expected to be finite. Layer-level entry points validate this;
  the primitives trust their callers so that benchmark loops are not
  dominated by scans. A deliberate exception: ``softmax_rows`` accepts
  ``-inf`` entries, which drop out of the row (masked softmax).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

SUPPORTED_DTYPES = (np.float32, np.float64)
# Tags naming the supported dtypes in config files, bench cases and the CLI.
DTYPE_TAGS = {"f32": np.dtype(np.float32), "f64": np.dtype(np.float64)}

_QNAT_MAGIC = b"QNAT"
_QNAT_CODE_TO_DTYPE = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_QNAT_DTYPE_TO_CODE = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}


class ShapeError(ValueError):
    """Raised when an argument's shape or dtype violates an operation's contract."""


class NumericalRangeError(ArithmeticError):
    """Raised when a computation leaves the representable/finite range."""


class QnatFormatError(ValueError):
    """Raised when a QNAT container is malformed."""


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

    def reset(self) -> None:
        self.events.clear()

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


def dtype_from_tag(tag) -> np.dtype:
    """The dtype a stored tag names; an unknown tag is a malformed file."""
    if not isinstance(tag, str) or tag not in DTYPE_TAGS:
        raise QnatFormatError(f"unknown dtype tag {tag!r}, expected one of {sorted(DTYPE_TAGS)}")
    return DTYPE_TAGS[tag]


def require_finite(arr: np.ndarray, name: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericalRangeError(f"{name} contains non-finite values")


def offset_bounds(k: int) -> tuple[int, int]:
    """Inclusive offset range (lo, hi) of a size-k window: (-k/2, k/2]."""
    if k < 1:
        raise ShapeError(f"window size must be >= 1, got {k}")
    return -((k - 1) // 2), k // 2


def window_offsets(k: int) -> list[tuple[int, int]]:
    """All (row, col) offsets of a k x k window in row-major order."""
    lo, hi = offset_bounds(k)
    return [(di, dj) for di in range(lo, hi + 1) for dj in range(lo, hi + 1)]


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


def valid_output_range(size: int, k: int, stride: int) -> tuple[int, int]:
    """(first center index i0, count) of fully in-bounds windows."""
    lo, hi = offset_bounds(k)
    i0 = _ceil_div(-lo, stride)
    i1 = (size - 1 - hi) // stride
    return i0, max(0, i1 - i0 + 1)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def matmul(a: np.ndarray, b: np.ndarray, ledger: AllocationLedger | None = None) -> np.ndarray:
    """Standard matrix product of a [M x K] by b [K x N]."""
    check_dtype(a, "a")
    check_dtype(b, "b")
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects rank-2 operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"inner dimensions disagree: {a.shape} x {b.shape}")
    out = a @ b
    # Output buffer only; BLAS needs no caller-visible scratch.
    _record(ledger, "matmul", 0)
    return out


def window_weighted_sum(
    map_: np.ndarray,
    kernel: np.ndarray,
    stride: int = 1,
    padding: str = "same",
    ledger: AllocationLedger | None = None,
) -> np.ndarray:
    """Per-offset weighted reduction over k x k windows of a [H x W x C] map.

    out[i, j, c] = sum over in-bounds offsets d of
    kernel[d] * map[i*stride + d_row, j*stride + d_col, c].

    This is a cross-correlation with a fixed small kernel, computed by
    accumulating one shifted slice per offset. The only transient is one
    output-shaped scratch buffer, so the extra space is independent of k.
    """
    check_dtype(map_, "map")
    if map_.ndim != 3:
        raise ShapeError(f"map must be H x W x C, got shape {map_.shape}")
    if kernel.ndim != 2 or kernel.shape[0] != kernel.shape[1]:
        raise ShapeError(f"kernel must be k x k, got shape {kernel.shape}")
    if kernel.dtype != map_.dtype:
        raise ShapeError(f"kernel dtype {kernel.dtype} must match map dtype {map_.dtype}")
    if stride < 1:
        raise ShapeError(f"stride must be positive, got {stride}")
    if padding not in ("same", "valid"):
        raise ShapeError(f"padding must be 'same' or 'valid', got {padding!r}")

    H, W, C = map_.shape
    k = kernel.shape[0]
    lo, hi = offset_bounds(k)

    if padding == "same":
        Hp, Wp = same_output_size(H, stride), same_output_size(W, stride)
        out = np.zeros((Hp, Wp, C), dtype=map_.dtype)
        tmp = np.empty((Hp, Wp, C), dtype=map_.dtype)
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
                src = map_[rs : rs + (r1 - r0 - 1) * stride + 1 : stride,
                           cs : cs + (c1 - c0 - 1) * stride + 1 : stride]
                t = tmp[: r1 - r0, : c1 - c0]
                np.multiply(src, w, out=t)
                dst = out[r0:r1, c0:c1]
                np.add(dst, t, out=dst)
        _record(ledger, "window_weighted_sum", tmp.nbytes)
        return out

    # valid: every window fully in-bounds, so all slices are complete.
    i0, Hv = valid_output_range(H, k, stride)
    j0, Wv = valid_output_range(W, k, stride)
    out = np.zeros((Hv, Wv, C), dtype=map_.dtype)
    tmp = np.empty((Hv, Wv, C), dtype=map_.dtype)
    if Hv == 0 or Wv == 0:
        _record(ledger, "window_weighted_sum", tmp.nbytes)
        return out
    for di in range(lo, hi + 1):
        for dj in range(lo, hi + 1):
            w = kernel[di - lo, dj - lo]
            if w == 0.0:
                continue
            rs = (i0 * stride) + di
            cs = (j0 * stride) + dj
            src = map_[rs : rs + (Hv - 1) * stride + 1 : stride,
                       cs : cs + (Wv - 1) * stride + 1 : stride]
            np.multiply(src, w, out=tmp)
            np.add(out, tmp, out=out)
    _record(ledger, "window_weighted_sum", tmp.nbytes)
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
    padding: str = "same",
    ledger: AllocationLedger | None = None,
) -> np.ndarray:
    """Direct 2-D convolution of x [H x W x Din] with w [k x k x Din x Dout].

    True convolution: the tap multiplying the input at window offset d is
    w[k//2 - d_row, k//2 - d_col]. Computed as one GEMM per kernel tap.
    """
    check_dtype(x, "x")
    check_dtype(w, "w")
    if x.ndim != 3:
        raise ShapeError(f"x must be H x W x Din, got shape {x.shape}")
    if w.ndim != 4 or w.shape[0] != w.shape[1]:
        raise ShapeError(f"w must be k x k x Din x Dout, got shape {w.shape}")
    if w.shape[2] != x.shape[2]:
        raise ShapeError(f"channel mismatch: x has {x.shape[2]}, w expects {w.shape[2]}")
    if w.dtype != x.dtype:
        raise ShapeError(f"w dtype {w.dtype} must match x dtype {x.dtype}")
    if stride < 1:
        raise ShapeError(f"stride must be positive, got {stride}")
    if padding not in ("same", "valid"):
        raise ShapeError(f"padding must be 'same' or 'valid', got {padding!r}")

    H, W, Din = x.shape
    k = w.shape[0]
    Dout = w.shape[3]
    lo, hi = offset_bounds(k)
    kc = k // 2

    if padding == "same":
        Hp, Wp = same_output_size(H, stride), same_output_size(W, stride)
        out = np.zeros((Hp, Wp, Dout), dtype=x.dtype)
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
                src = x[rs : rs + (r1 - r0 - 1) * stride + 1 : stride,
                        cs : cs + (c1 - c0 - 1) * stride + 1 : stride]
                patch = np.ascontiguousarray(src).reshape(-1, Din)
                contrib = patch @ w[kc - di, kc - dj]
                dst = out[r0:r1, c0:c1]
                np.add(dst, contrib.reshape(r1 - r0, c1 - c0, Dout), out=dst)
        # Per-tap scratch: one input-slice copy plus one GEMM result.
        _record(ledger, "conv2d", (Hp * Wp * (Din + Dout)) * x.dtype.itemsize)
        return out

    i0, Hv = valid_output_range(H, k, stride)
    j0, Wv = valid_output_range(W, k, stride)
    out = np.zeros((Hv, Wv, Dout), dtype=x.dtype)
    if Hv == 0 or Wv == 0:
        _record(ledger, "conv2d", 0)
        return out
    for di in range(lo, hi + 1):
        for dj in range(lo, hi + 1):
            rs = (i0 * stride) + di
            cs = (j0 * stride) + dj
            src = x[rs : rs + (Hv - 1) * stride + 1 : stride,
                    cs : cs + (Wv - 1) * stride + 1 : stride]
            patch = np.ascontiguousarray(src).reshape(-1, Din)
            contrib = patch @ w[kc - di, kc - dj]
            np.add(out, contrib.reshape(Hv, Wv, Dout), out=out)
    _record(ledger, "conv2d", (Hv * Wv * (Din + Dout)) * x.dtype.itemsize)
    return out


def layernorm(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    eps: float = 1e-6,
    ledger: AllocationLedger | None = None,
) -> np.ndarray:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    check_dtype(x, "x")
    if x.ndim == 0 or x.shape[-1] < 1:
        raise ShapeError(f"x must have a feature axis, got shape {x.shape}")
    D = x.shape[-1]
    if gamma.shape != (D,) or beta.shape != (D,):
        raise ShapeError(f"gamma/beta must have shape ({D},), got {gamma.shape} and {beta.shape}")
    if eps <= 0.0:
        raise ShapeError(f"eps must be positive, got {eps}")
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    var = np.mean(centered * centered, axis=-1, keepdims=True)
    centered /= np.sqrt(var + eps)
    out = centered * gamma + beta
    _record(ledger, "layernorm", 2 * x.nbytes)
    return out


def reshape_permute(x: np.ndarray, new_shape, axis_order, ledger: AllocationLedger | None = None) -> np.ndarray:
    """Reshape to ``new_shape`` then transpose axes by ``axis_order``, bit-exactly."""
    new_shape = tuple(int(s) for s in new_shape)
    axis_order = tuple(int(a) for a in axis_order)
    n = 1
    for s in new_shape:
        n *= s
    if n != x.size:
        raise ShapeError(f"cannot reshape {x.size} elements into {new_shape}")
    if sorted(axis_order) != list(range(len(new_shape))):
        raise ShapeError(f"axis_order {axis_order} is not a permutation of {len(new_shape)} axes")
    out = np.ascontiguousarray(x.reshape(new_shape).transpose(axis_order))
    _record(ledger, "reshape_permute", 0)
    return out


# ---------------------------------------------------------------------------
# Seeded initialization helpers
# ---------------------------------------------------------------------------


def make_rng(seed: int) -> np.random.Generator:
    """Generator from a 64-bit unsigned seed; identical seed, identical stream."""
    if not isinstance(seed, (int, np.integer)) or not 0 <= int(seed) < 2**64:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
    return np.random.default_rng(int(seed))


def truncated_normal(
    rng: np.random.Generator,
    shape,
    std: float = 0.02,
    clip: float = 2.0,
    dtype=np.float64,
) -> np.ndarray:
    """Zero-mean normal with std ``std``, resampled until |x| <= clip*std."""
    out = rng.normal(0.0, std, size=shape)
    bound = clip * std
    bad = np.abs(out) > bound
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > bound
    return out.astype(dtype)


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


def load_qnat(path) -> np.ndarray:
    """Read a tensor written by :func:`save_qnat`; strict about every byte."""
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 8 or blob[:4] != _QNAT_MAGIC:
        raise QnatFormatError("not a QNAT container (bad magic)")
    code, rank = struct.unpack_from("<BBxx", blob, 4)
    if code not in _QNAT_CODE_TO_DTYPE:
        raise QnatFormatError(f"unknown dtype code {code}")
    dims_end = 8 + 4 * rank
    if len(blob) < dims_end:
        raise QnatFormatError("truncated dimension table")
    shape = struct.unpack_from(f"<{rank}I", blob, 8) if rank else ()
    dt = _QNAT_CODE_TO_DTYPE[code]
    count = 1
    for s in shape:
        count *= s
    expected = dims_end + count * dt.itemsize
    if len(blob) != expected:
        raise QnatFormatError(f"payload size mismatch: expected {expected} bytes, file has {len(blob)}")
    flat = np.frombuffer(blob, dtype=dt, offset=dims_end, count=count)
    native = np.float32 if code == 0 else np.float64
    return flat.astype(native).reshape(shape)
