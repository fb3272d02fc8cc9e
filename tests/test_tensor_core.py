"""Tensor primitives against independent loop oracles, plus the allocation
ledger contract and the QNAT container format."""

import contextlib
import io
import sys
import threading
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from qna import tensor
from qna.layer import QnAConfig, init_params
from qna.model import build_model
from qna.tensor import (
    AllocationLedger,
    NumericalRangeError,
    QnatFormatError,
    ShapeError,
    conv2d,
    layernorm,
    load_qnat,
    make_rng,
    matmul,
    offset_bounds,
    require_finite,
    same_output_size,
    same_window_slices,
    save_qnat,
    softmax_rows,
    truncated_normal,
    window_weighted_sum,
)


# ---------------------------------------------------------------------------
# Window geometry
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "k,expected",
    [(1, (0, 0)), (2, (0, 1)), (3, (-1, 1)), (4, (-1, 2)), (5, (-2, 2)), (7, (-3, 3))],
)
def test_offset_bounds_both_parities(k, expected):
    assert offset_bounds(k) == expected


@given(st.integers(min_value=1, max_value=12))
def test_offset_bounds_cover_k_offsets(k):
    lo, hi = offset_bounds(k)
    assert hi - lo + 1 == k
    # even windows extend toward increasing indices
    assert hi == k // 2 and lo == -((k - 1) // 2)


def test_offset_bounds_rejects_bad_k():
    with pytest.raises(ShapeError):
        offset_bounds(0)


@given(st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=3))
def test_same_output_size_is_ceil(size, stride):
    assert same_output_size(size, stride) == -(-size // stride)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("hw", [(6, 7), (2, 3), (1, 1), (5, 4)])
def test_same_window_slices_match_enumeration(hw, stride, k):
    # per offset, the (output site, input position) pairs the slices pair up
    # are exactly the in-bounds ones; offsets with none are skipped
    H, W = hw
    lo, _ = offset_bounds(k)
    Hp, Wp = same_output_size(H, stride), same_output_size(W, stride)
    want = {}
    for i in range(k):
        for j in range(k):
            pairs = {
                ((p, q), (p * stride + lo + i, q * stride + lo + j))
                for p in range(Hp)
                for q in range(Wp)
                if 0 <= p * stride + lo + i < H and 0 <= q * stride + lo + j < W
            }
            if pairs:
                want[i, j] = pairs
    got = {}
    for i, j, (_, dr, dc, _), (_, sr, sc, _) in same_window_slices(H, W, k, stride):
        rows = list(zip(range(Hp)[dr], range(H)[sr]))
        cols = list(zip(range(Wp)[dc], range(W)[sc]))
        assert len(rows) == len(range(Hp)[dr]) == len(range(H)[sr]) > 0
        assert len(cols) == len(range(Wp)[dc]) == len(range(W)[sc]) > 0
        assert (i, j) not in got
        got[i, j] = {((p, q), (r, c)) for p, r in rows for q, c in cols}
    assert list(got) == list(want)  # row-major offset order
    assert got == want
    # computed once per shape
    assert same_window_slices(H, W, k, stride) is same_window_slices(H, W, k, stride)


# ---------------------------------------------------------------------------
# require_finite
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_require_finite_rejects_each_non_finite(dtype, bad):
    arr = np.zeros((3, 4, 2), dtype=dtype)
    require_finite(arr, "arr")
    arr[1, 2, 1] = bad
    with pytest.raises(NumericalRangeError, match="arr"):
        require_finite(arr, "arr")


def test_require_finite_accepts_empty_and_extreme_finite():
    require_finite(np.zeros((0, 3)), "empty")
    big = np.finfo(np.float32).max
    require_finite(np.array([-big, big], dtype=np.float32), "extremes")


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------


def test_matmul_matches_loop():
    rng = make_rng(0)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 5))
    want = np.zeros((3, 5))
    for i in range(3):
        for j in range(5):
            want[i, j] = sum(a[i, t] * b[t, j] for t in range(4))
    assert np.allclose(matmul(a, b), want, atol=1e-12)
    # equal-shaped stacks multiply pairwise
    stacked = matmul(np.stack([a, 2 * a]), np.stack([b, b]))
    assert np.allclose(stacked, np.stack([want, 2 * want]), atol=1e-12)


def test_matmul_validates_shapes_and_dtype():
    a64 = np.zeros((2, 3))
    with pytest.raises(ShapeError):
        matmul(a64, np.zeros((4, 2)))
    with pytest.raises(ShapeError):
        matmul(a64, np.zeros(3))
    with pytest.raises(ShapeError):
        matmul(np.zeros((2, 3), dtype=np.int64), np.zeros((3, 2), dtype=np.int64))
    with pytest.raises(ShapeError):  # stacks of different lengths
        matmul(np.zeros((2, 2, 3)), np.zeros((3, 3, 2)))
    with pytest.raises(ShapeError):  # a stack against a single matrix
        matmul(np.zeros((2, 2, 3)), np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# window_weighted_sum
# ---------------------------------------------------------------------------


# Case ids keep naming the padding, which is now always "same".
_SAME_IDS = ["same-1", "same-2"]


def _wws_loop(map_, kernel, stride):
    H, W, C = map_.shape
    lo, hi = offset_bounds(kernel.shape[0])
    Hp, Wp = same_output_size(H, stride), same_output_size(W, stride)
    out = np.zeros((Hp, Wp, C), dtype=map_.dtype)
    for i in range(Hp):
        for j in range(Wp):
            for di in range(lo, hi + 1):
                for dj in range(lo, hi + 1):
                    r = i * stride + di
                    c = j * stride + dj
                    if 0 <= r < H and 0 <= c < W:
                        out[i, j] += kernel[di - lo, dj - lo] * map_[r, c]
    return out


# Even k reaches one column further right than left, so the band's margins
# differ; k = 8 and 9 are wider than the 6 x 7 map. Strides 2 and 3 do not
# divide its width.
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 8, 9])
@pytest.mark.parametrize("stride", [1, 2, 3], ids=[*_SAME_IDS, "same-3"])
def test_wws_matches_loop(k, stride):
    rng = make_rng(k * 10 + stride)
    map_ = rng.standard_normal((6, 7, 3))
    kernel = rng.standard_normal((k, k))
    got = window_weighted_sum(map_, kernel, stride)
    want = _wws_loop(map_, kernel, stride)
    assert got.shape == want.shape
    assert np.allclose(got, want, atol=1e-12)
    # a batch of maps shares every pass: sample n is bitwise the call on it alone
    batch = np.stack([map_, rng.standard_normal(map_.shape)])
    got = window_weighted_sum(batch, kernel, stride)
    assert np.array_equal(got, np.stack([window_weighted_sum(m, kernel, stride) for m in batch]))
    # the layout does not matter: a channel slice of a wider map and a
    # column-strided view give, bitwise, the result of their contiguous copies
    wide = rng.standard_normal((6, 14, 5))
    for view in (wide[..., 1:4], wide[:, ::2], batch[..., 1:]):
        assert not view.flags.c_contiguous
        got = window_weighted_sum(view, kernel, stride)
        assert np.array_equal(got, window_weighted_sum(np.ascontiguousarray(view), kernel, stride))
    # a map without channels reduces to an empty output
    got = window_weighted_sum(np.zeros((5, 4, 0)), kernel, stride)
    assert got.shape == (same_output_size(5, stride), same_output_size(4, stride), 0)
    # one-column, one-channel maps (the padded path) and other narrow ones,
    # whose windows read mostly the band's margins
    for shape in [(5, 1, 1), (1, 1, 1), (4, 2, 1), (3, 5, 2)]:
        narrow = rng.standard_normal(shape)
        got = window_weighted_sum(narrow, kernel, stride)
        assert np.allclose(got, _wws_loop(narrow, kernel, stride), atol=1e-12), shape


def test_wws_zero_weights_are_exact_skips():
    rng = make_rng(3)
    map_ = rng.standard_normal((5, 5, 2))
    kernel = rng.standard_normal((3, 3))
    kernel[0, 0] = 0.0
    kernel[2, 1] = 0.0
    assert np.allclose(
        window_weighted_sum(map_, kernel), _wws_loop(map_, kernel, 1), atol=1e-12
    )


@contextlib.contextmanager
def _bands_of(map_, k, stride, rows):
    """Patch the band rule so that window_weighted_sum on map_ with a size-k
    kernel cuts bands of ``rows`` output rows, or of as many as its
    contraction bound allows if that is fewer. Plans are cached per shape,
    so the cache is cleared on entry and on exit."""
    plan = tensor.wws_plan(map_.shape, k, stride, map_.itemsize)
    width = max(map_.shape[-2] * map_.shape[-1], 2)  # the input row width the rule uses
    macs = rows * ((rows - 1) * stride + plan.group) * width
    tensor.wws_plan.cache_clear()
    try:
        with mock.patch.object(tensor, "WWS_GEMM_MACS", macs):
            yield
    finally:
        tensor.wws_plan.cache_clear()


def _band_rows(map_, k, stride):
    """Output rows per band of window_weighted_sum on map_ under the current rule."""
    return tensor.wws_plan(map_.shape, k, stride, map_.itemsize).rows


def _assert_bands_bitwise(map_, kernel, stride, band_rows):
    """For each band row count, the banded result is bitwise the default
    one, and within rounding of the loop's; returns the default result."""
    k = kernel.shape[0]
    whole = window_weighted_sum(map_, kernel, stride)
    H, W, C = map_.shape[-3:]
    want = np.stack([_wws_loop(m, kernel, stride) for m in map_.reshape(-1, H, W, C)])
    assert np.allclose(whole.reshape(want.shape), want, atol=1e-5)
    for rows in band_rows:
        with _bands_of(map_, k, stride, rows):
            got = window_weighted_sum(map_, kernel, stride)
        assert np.array_equal(got, whole), (k, rows)
    return whole


# Output rows per band: one, a count that divides neither H' = 11 nor H' = 6,
# and more than H' where the contraction bound allows. Kernels up to 7 reach
# beyond a band of one to four rows.
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("lead", [(), (3,)], ids=["hwc", "nhwc"])
@pytest.mark.parametrize("stride", [1, 2], ids=_SAME_IDS)
def test_wws_row_bands_match_one_band_bitwise(stride, lead, dtype):
    rng = make_rng(40 + stride)
    map_ = rng.standard_normal((*lead, 11, 6, 3)).astype(dtype)
    for k in (1, 3, 4, 7):
        kernel = rng.standard_normal((k, k)).astype(dtype)
        kernel[k // 2, 0] = 0.0
        whole = window_weighted_sum(map_, kernel, stride)
        want = np.stack([_wws_loop(m, kernel, stride) for m in map_.reshape(-1, 11, 6, 3)])
        assert np.allclose(whole.reshape(want.shape), want, atol=1e-5)
        bound = _band_rows(map_, k, stride)  # the contraction bound, at this width
        for rows in (1, 4, 12):
            ledger = AllocationLedger()
            with _bands_of(map_, k, stride, rows):
                assert _band_rows(map_, k, stride) == min(rows, bound)
                got = window_weighted_sum(map_, kernel, stride, ledger)
                peak = tensor.wws_peak(map_.shape, k, stride, map_.itemsize) * map_.itemsize
            assert np.array_equal(got, whole), (k, rows)
            assert ledger.events == [("window_weighted_sum", peak)]


@given(
    st.integers(1, 16), st.integers(1, 9), st.integers(1, 3), st.sampled_from([(), (1,), (2,)]),
    st.integers(1, 6), st.integers(1, 3), st.integers(1, 16), st.sampled_from([np.float32, np.float64]),
)
# One band of 16 rows at k = 2 would contract over 17 f64 input rows, past
# the bound below which the BLAS adds a site's terms in order.
@example(16, 1, 1, (), 2, 1, 16, np.float64)
def test_wws_bands_property(H, W, C, lead, k, stride, rows, dtype):
    # any band size gives the default result bitwise, and the loop's within
    # rounding; the reduction's event is its wws_peak
    rng = make_rng(H * 1000 + W * 100 + k * 10 + stride)
    map_ = rng.standard_normal((*lead, H, W, C)).astype(dtype)
    kernel = rng.standard_normal((k, k)).astype(dtype)
    _assert_bands_bitwise(map_, kernel, stride, [rows])
    ledger = AllocationLedger()
    window_weighted_sum(map_, kernel, stride, ledger)
    peak = tensor.wws_peak(map_.shape, k, stride, map_.itemsize) * map_.itemsize
    assert ledger.events[-1] == ("window_weighted_sum", peak)


def test_wws_plans_once_per_shape():
    tensor.wws_plan.cache_clear()
    rng = make_rng(61)
    map_, kernel = rng.standard_normal((7, 5, 3)), rng.standard_normal((3, 3))
    first = window_weighted_sum(map_, kernel, 2, AllocationLedger())
    assert np.array_equal(window_weighted_sum(map_, kernel, 2), first)
    info = tensor.wws_plan.cache_info()
    # planned by the first call; read again by the ledger's sizing (scratch
    # and iterator buffers) and by the second call
    assert (info.misses, info.hits, info.currsize) == (1, 3, 1)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("stride", [1, 2], ids=_SAME_IDS)
def test_wws_one_row_bands_and_one_column_maps(stride, dtype):
    rng = make_rng(50 + stride)
    # bands of 2 and 5 rows leave a last band of one row (H' = 11 and 6)
    map_ = rng.standard_normal((11, 6, 3)).astype(dtype)
    for k in (2, 3, 5):
        _assert_bands_bitwise(map_, rng.standard_normal((k, k)).astype(dtype), stride, (2, 5))
    # one column and one channel: every product has one column before padding
    for shape in [(9, 1, 1), (2, 9, 1, 1), (1, 1, 1), (9, 2, 1)]:
        map_ = rng.standard_normal(shape).astype(dtype)
        for k in (1, 2, 3, 5):
            kernel = rng.standard_normal((k, k)).astype(dtype)
            whole = _assert_bands_bitwise(map_, kernel, stride, (1, 2, 4))
            if len(shape) == 4:
                assert np.array_equal(
                    whole, np.stack([window_weighted_sum(m, kernel, stride) for m in map_]))


def test_wws_f64_k17_splits_kernel_rows():
    # 17 kernel rows exceed the 15-element f64 contraction: two groups of 9,
    # each contracting over 7 - 1 + 9 input rows, into a band as wide as an
    # input row and the window's reach on both sides ((20 + 16) * 2)
    rng = make_rng(60)
    map_ = rng.standard_normal((2, 30, 20, 2))
    assert tensor.wws_plan(map_.shape, 17, 1, 8)[:4] == (7, 9, (17, 2, 7, 15), (2, 7, 72))
    for stride in (1, 2):
        _assert_bands_bitwise(map_, rng.standard_normal((17, 17)), stride, (1, 3, 7))


def _assert_shift_equivariant(z, kernel, stride, d, e, H, W):
    """WWS of z's H x W crop at (d, e) equals, bitwise, that of the crop at
    the origin on every site whose window lies inside both crops."""
    lo, hi = offset_bounds(kernel.shape[0])
    a = window_weighted_sum(z[:H, :W], kernel, stride)
    b = window_weighted_sum(z[d:d + H, e:e + W], kernel, stride)
    rows = [i for i in range(b.shape[0]) if i * stride + lo >= 0 and i * stride + d + hi < H]
    cols = [j for j in range(b.shape[1]) if j * stride + lo >= 0 and j * stride + e + hi < W]
    assert rows and cols
    got = b[np.ix_(rows, cols)]
    want = a[np.ix_([i + d // stride for i in rows], [j + e // stride for j in cols])]
    assert np.array_equal(got, want), (kernel.shape[0], stride, d, e)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [7, 15])
def test_wws_shift_equivariance_across_bands_bitwise(k, dtype):
    # shifts that are no multiple of the band height move every site to
    # another place within its band, or into another band
    rng = make_rng(70 + k)
    H, W = 48, 23
    z = rng.standard_normal((H + 10, W + 6, 3)).astype(dtype)
    kernel = rng.standard_normal((k, k)).astype(dtype)
    for stride in (1, 2):
        assert same_output_size(H, stride) > _band_rows(z[:H, :W], k, stride)
        for d, e in [(1, 0), (2, 2), (3, 1), (5, 0), (6, 4), (10, 6)]:
            if d % stride == 0 and e % stride == 0:
                _assert_shift_equivariant(z, kernel, stride, d, e, H, W)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_wws_batch_equals_single_on_multi_band_maps(dtype):
    rng = make_rng(80)
    batch = rng.standard_normal((3, 48, 23, 3)).astype(dtype)
    for k in (3, 7, 15, 17):
        kernel = rng.standard_normal((k, k)).astype(dtype)
        for stride in (1, 2):
            assert same_output_size(48, stride) > _band_rows(batch, k, stride)
            got = window_weighted_sum(batch, kernel, stride)
            want = np.stack([window_weighted_sum(m, kernel, stride) for m in batch])
            assert np.array_equal(got, want), (k, stride)


def test_wws_ledger_is_one_band_of_scratch():
    # The transients are one band of products as wide as an input row and the
    # window's reach on both sides (two rows at least), the Toeplitz stack (k
    # kernel columns x band rows x contracted input rows), and the buffer
    # through which numpy's iterator adds a band's product view (at most
    # getbufsize() elements); none grows with the map.
    ledger = AllocationLedger()
    map_ = np.ones((6, 6, 3), dtype=np.float32)
    window_weighted_sum(map_, np.ones((3, 3), dtype=np.float32), 2, ledger)
    # f32 contractions stop at 31 rows: bands of 15 rows reach 2 * 14 + 3;
    # at stride 2 the band still holds every input column, (6 + 2) * 3 wide.
    # The strided view of the one 3 x 3 x 3 output band is buffered whole.
    assert ledger.events == [
        ("window_weighted_sum", (15 * 24 + 3 * 15 * 31 + 3 * 3 * 3) * 4)]
    # 1600-element rows hold bands to 24 rows at k = 3 (24 * 26 * 1600
    # multiply-adds per product) and to 17 rows at k = 15 (the contraction
    # bound). numpy buffers a band's product view five whole output rows at
    # a time, 8000 of getbufsize()'s 8192 elements.
    assert np.getbufsize() == 8192
    for k, rows in ((3, 24), (15, 17)):
        contracted = rows - 1 + k
        want = (rows * (100 + k - 1) * 16 + k * rows * contracted + 8000) * 4
        for H in (100, 300):
            ledger = AllocationLedger()
            window_weighted_sum(np.ones((H, 100, 16), dtype=np.float32),
                                np.ones((k, k), dtype=np.float32), 1, ledger)
            assert ledger.events == [("window_weighted_sum", want)], (k, H)
            assert want == tensor.wws_peak((H, 100, 16), k, 1, 4) * 4
        # a map whose rows are not contiguous is copied whole on entry, and
        # the copy is an event of its own
        ledger = AllocationLedger()
        window_weighted_sum(np.ones((100, 200, 16), dtype=np.float32)[:, ::2],
                            np.ones((k, k), dtype=np.float32), 1, ledger)
        assert ledger.events == [("window_weighted_sum.copy", 100 * 1600 * 4),
                                 ("window_weighted_sum", want)], k
    # so is the zero column a one-column, one-channel map gets
    ledger = AllocationLedger()
    window_weighted_sum(np.ones((9, 1, 1)), np.ones((3, 3)), 1, ledger)
    assert ledger.events[0] == ("window_weighted_sum.pad", 9 * 2 * 8)
    # a batch of maps that span several bands adds into a strided band, and
    # numpy still buffers only the product view, five rows of one map at a
    # time
    want = (2 * 24 * 102 * 16 + 3 * 24 * 26 + 8000) * 4
    assert tensor.wws_peak((2, 100, 100, 16), 3, 1, 4) * 4 == want


def test_ufunc_buffers_counts_the_iterators_buffers():
    # one buffer of the whole operand, when a strided operand fits in one
    # chunk; none for contiguous operands or inner rows of getbufsize()
    # elements or more; the cut axis's whole steps when it does not fit
    bufsize = np.getbufsize()
    assert tensor.ufunc_buffers((6, 4), (4, 1), (8, 1), (4, 1)) == 24
    assert tensor.ufunc_buffers((6, 4), (4, 1), (4, 1), (4, 1)) == 0
    assert tensor.ufunc_buffers((3, bufsize), (bufsize, 1), (2 * bufsize, 1)) == 0
    assert tensor.ufunc_buffers((30, 1000), (1000, 1), (1100, 1)) == bufsize // 1000 * 1000
    # a row broadcast over the other axis is buffered, one chunk of it
    assert tensor.ufunc_buffers((100, 8), (8, 1), (0, 1), (8, 1)) == 800


# The toy trainer's numerator and a narrow map, at stride 1; at stride 2 a
# map whose output rows (16 x 64 elements) fill numpy's buffer exactly and
# the trainer's numerator, whose strided band view is buffered whole; and a
# batch of maps spanning several bands.
@pytest.mark.parametrize("shape,dtype,stride", [
    ((16, 12, 12, 8), np.float64, 1), ((128, 128, 1), np.float32, 1),
    ((32, 32, 64), np.float32, 2), ((16, 12, 12, 8), np.float64, 2),
    ((2, 100, 100, 16), np.float32, 1),
], ids=["16x12x12x8-f64-s1", "128x128x1-f32-s1", "32x32x64-f32-s2", "16x12x12x8-f64-s2",
        "2x100x100x16-f32-s1"])
def test_wws_heap_is_its_ledger_event(shape, dtype, stride):
    # A first call's heap above its output is its ledger event: the scratch
    # it makes and keeps, and the buffers numpy's iterator takes for its
    # adds, up to numpy's own iterator state and the call's array views
    # (under 3 KiB). A repeat call of the shape makes no scratch.
    rng = make_rng(91)
    map_ = rng.standard_normal(shape).astype(dtype)
    kernel = rng.standard_normal((3, 3)).astype(dtype)
    window_weighted_sum(map_, kernel, stride)  # plans the shape
    scratch = tensor.wws_scratch(shape, 3, stride, map_.itemsize) * map_.itemsize
    for first in (True, False):
        if first:
            tensor.release_wws_scratch()
        ledger = AllocationLedger()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = window_weighted_sum(map_, kernel, stride, ledger)
            heap = tracemalloc.get_traced_memory()[1] - start - out.nbytes
        finally:
            tracemalloc.stop()
        (label, event), = ledger.events
        assert label == "window_weighted_sum"
        if not first:
            event -= scratch
        assert 0 <= heap - event < 3 * 1024, (first, heap, event)


class _ZeroFilled:
    """numpy as window_weighted_sum sees it, but with a zero-filled output,
    into which each band's first product is added."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(shape, dtype):
        return np.zeros(shape, dtype)

    @staticmethod
    def add(a, b, out):
        return np.add(out if isinstance(a, float) else a, b, out=out)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("lead", [(), (3,)], ids=["hwc", "nhwc"])
@pytest.mark.parametrize("stride", [1, 2], ids=_SAME_IDS)
def test_wws_output_is_the_zero_filled_sum_bitwise(stride, lead, dtype):
    # The output is never zero-filled: a band's first add writes 0 + product,
    # bitwise what adding the product into a zeroed band gives, -0.0 terms
    # included. Maps of one band and of several, and maps of -0.0 entries,
    # whose outputs hold +0.0.
    rng = make_rng(92 + stride)
    for H, k in ((9, 3), (48, 5), (48, 2)):
        map_ = rng.standard_normal((*lead, H, 7, 3)).astype(dtype)
        map_[rng.random(map_.shape) < 0.3] = -0.0
        kernel = rng.standard_normal((k, k)).astype(dtype)
        kernel[0] = -0.0
        for m in (map_, np.full_like(map_, -0.0)):
            got = window_weighted_sum(m, kernel, stride)
            with mock.patch.object(tensor, "np", _ZeroFilled()):
                want = window_weighted_sum(m, kernel, stride)
            assert got.tobytes() == want.tobytes(), (H, k)
        assert not np.signbit(got).any()


def test_wws_threads_keep_their_own_scratch():
    # threads reducing maps of different shapes at once, each through its
    # own scratch buffer, give the serial results; more threads than cores
    # and a short switch interval interleave their calls
    rng = make_rng(93)
    cases = [(rng.standard_normal((40, 30, 8)), rng.standard_normal((5, 5)), 1),
             (rng.standard_normal((2, 24, 50, 3)), rng.standard_normal((3, 3)), 2),
             (rng.standard_normal((9, 70, 2)).astype(np.float32),
              rng.standard_normal((7, 7)).astype(np.float32), 1),
             (rng.standard_normal((16, 12, 12, 8)), rng.standard_normal((3, 3)), 1)]
    want = [window_weighted_sum(*case) for case in cases]
    start = threading.Barrier(len(cases))
    same = [None] * len(cases)

    def run(i):
        start.wait()
        same[i] = all(np.array_equal(window_weighted_sum(*cases[i]), want[i]) for _ in range(30))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(cases))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert same == [True] * len(cases)


def _fma_chain(a, b, dtype):
    """sum(a[t] * b[t]) added in order, each step one fused multiply-add:
    exact, then rounded to dtype (ties to even)."""
    bits = np.uint32 if dtype.itemsize == 4 else np.uint64
    acc = Fraction(0)
    for x, y in zip(a, b):
        exact = acc + Fraction(float(x)) * Fraction(float(y))
        near = dtype.type(float(exact))  # at most one unit off the rounding
        if Fraction(float(near)) != exact:
            inf = dtype.type(np.inf)
            near = min((np.nextafter(near, -inf), near, np.nextafter(near, inf)),
                       key=lambda c: (abs(Fraction(float(c)) - exact), int(c.view(bits)) & 1))
        acc = Fraction(float(near))
    return dtype.type(acc)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_blas_adds_toeplitz_rows_in_order(dtype):
    # The property window_weighted_sum's bitwise contracts rest on. Its band
    # rule issues products with M and N of at least two, K * itemsize below
    # WWS_GEMM_BYTES, strided operands, and at most WWS_GEMM_MACS
    # multiply-adds, or two rows (a padded one-row band) of any width. Each
    # output of a row holding one run of taps must be the in-order fused
    # multiply-add chain of the run, whatever the run's offset in K, the row,
    # M and N. (Above WWS_GEMM_MACS this BLAS switches kernels, and there the
    # f64 kernel sums some last columns of products of 12 or more rows in
    # another order.)
    dtype = np.dtype(dtype)
    kmax = (tensor.WWS_GEMM_BYTES - 1) // dtype.itemsize
    rng = make_rng(90)
    shapes = [(M, K, N) for M in (2, 3, 5, 8, 12, 16, kmax) if M <= kmax
              for K in (1, 2, 3, 7, kmax - 1, kmax)
              for N in (2, 3, 61, tensor.WWS_GEMM_MACS // (M * K))]
    shapes += [(2, K, tensor.WWS_GEMM_MACS // (2 * K) + 8195) for K in (2, 7, kmax)]
    for M, K, N in shapes:
        a = np.zeros((M, K + 3), dtype=dtype)[:, 2:2 + K]
        runs = []
        for r in range(M):
            g = int(rng.integers(1, K + 1))
            o = int(rng.integers(0, K - g + 1))
            a[r, o:o + g] = rng.standard_normal(g)
            runs.append((o, g))
        b = rng.standard_normal((K, N + 5)).astype(dtype)[:, 1:N + 1]
        c = np.empty((M, N + 2), dtype=dtype)[:, :N]
        np.matmul(a, b, out=c)
        picks = sorted({0, 1, N // 2, N - 2, N - 1, *rng.integers(0, N, 2).tolist()})
        for r, (o, g) in enumerate(runs):
            for n in picks:
                assert c[r, n] == _fma_chain(a[r, o:o + g], b[o:o + g, n], dtype), (M, K, N, r, n)


def test_wws_validates_inputs():
    m = np.zeros((4, 4, 1))
    with pytest.raises(ShapeError):
        window_weighted_sum(np.zeros((4, 4)), np.ones((3, 3)))
    with pytest.raises(ShapeError):
        window_weighted_sum(np.zeros((1, 1, 4, 4, 1)), np.ones((3, 3)))
    with pytest.raises(ShapeError):
        window_weighted_sum(m, np.ones((3, 2)))
    with pytest.raises(ShapeError):
        window_weighted_sum(m, np.ones((3, 3), dtype=np.float32))
    with pytest.raises(ShapeError):
        window_weighted_sum(m, np.ones((3, 3)), stride=0)


# ---------------------------------------------------------------------------
# softmax_rows
# ---------------------------------------------------------------------------


def test_softmax_rows_normalizes_and_orders():
    rng = make_rng(1)
    s = rng.standard_normal((4, 6))
    p = softmax_rows(s)
    assert np.allclose(p.sum(axis=-1), 1.0, atol=1e-12)
    assert np.all(p > 0)
    loop = np.exp(s) / np.exp(s).sum(axis=-1, keepdims=True)
    assert np.allclose(p, loop, atol=1e-12)


def test_softmax_rows_shift_invariant_and_stable():
    rng = make_rng(2)
    s = rng.standard_normal((3, 5))
    assert np.allclose(softmax_rows(s), softmax_rows(s + 1000.0), atol=1e-12)
    # enormous magnitudes must not overflow
    p = softmax_rows(np.array([[1e306, 1e306 - 5.0]]))
    assert np.isfinite(p).all()


def test_softmax_rows_masking_with_neg_inf():
    s = np.array([[0.5, -np.inf, 1.0], [-np.inf, 2.0, -np.inf]])
    p = softmax_rows(s)
    assert p[0, 1] == 0.0
    assert p[1, 0] == 0.0 and p[1, 2] == 0.0 and p[1, 1] == 1.0


def test_softmax_rows_rejects_fully_masked_row():
    with pytest.raises(NumericalRangeError):
        softmax_rows(np.array([[-np.inf, -np.inf]]))
    with pytest.raises(NumericalRangeError):
        softmax_rows(np.array([[np.nan, 0.0]]))


def test_softmax_rows_rejects_empty_rows():
    with pytest.raises(ShapeError):
        softmax_rows(np.zeros((3, 0)))


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------


def _conv_loop(x, w, stride):
    H, W, _ = x.shape
    Hp, Wp = same_output_size(H, stride), same_output_size(W, stride)
    out = np.empty((Hp, Wp, w.shape[1]), dtype=x.dtype)
    for i in range(Hp):
        for j in range(Wp):
            out[i, j] = x[i * stride, j * stride] @ w
    return out


@pytest.mark.parametrize("din", [1, 2, 3, 4])
@pytest.mark.parametrize("stride", [1, 2, 3], ids=[*_SAME_IDS, "same-3"])
def test_conv2d_matches_loop(din, stride):
    rng = make_rng(din * 7 + stride)
    for dtype, tol in ((np.float64, 1e-12), (np.float32, 1e-5)):
        x = rng.standard_normal((5, 7, din)).astype(dtype)
        w = rng.standard_normal((din, 4)).astype(dtype)
        got = conv2d(x, w, stride)
        want = _conv_loop(x, w, stride)
        assert got.dtype == dtype and got.shape == want.shape
        assert np.allclose(got, want, atol=tol)
        batch = np.stack([x, rng.standard_normal(x.shape).astype(dtype)])
        got = conv2d(batch, w, stride)
        assert np.array_equal(got, np.stack([conv2d(m, w, stride) for m in batch]))


def test_conv2d_ledger_counts_the_strided_copy():
    # stride 2 copies the 2 x 8 x 8 sampled sites, which is all the call
    # holds beside its output; stride 1 reads x in place
    x = np.ones((2, 16, 15, 8), dtype=np.float32)
    w = np.ones((8, 5), dtype=np.float32)
    ledger = AllocationLedger()
    tracemalloc.start()
    try:
        out = conv2d(x, w, 2, ledger)
        heap = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ledger.events == [("conv2d", 2 * 8 * 8 * 8 * 4)]
    assert 0 <= heap - out.nbytes - ledger.peak_extra_bytes < 1024
    ledger = AllocationLedger()
    conv2d(x, w, 1, ledger)
    assert ledger.events == []


def test_conv2d_validates_inputs():
    x = np.zeros((4, 4, 3))
    for w in (np.zeros((3, 3, 3, 4)), np.zeros((1, 1, 3, 4)), np.zeros(3)):
        with pytest.raises(ShapeError):  # w is Din x Dout, never k x k x Din x Dout
            conv2d(x, w)
    with pytest.raises(ShapeError):
        conv2d(x, np.zeros((2, 4)))
    with pytest.raises(ShapeError):
        conv2d(x, np.zeros((3, 4), dtype=np.float32))
    with pytest.raises(ShapeError):
        conv2d(x, np.zeros((3, 4)), stride=0)
    with pytest.raises(ShapeError):
        conv2d(x[0], np.zeros((3, 4)))


# ---------------------------------------------------------------------------
# layernorm
# ---------------------------------------------------------------------------


def test_layernorm_normalizes_last_axis():
    rng = make_rng(5)
    x = rng.standard_normal((3, 4, 6)) * 3 + 2
    out = layernorm(x, np.ones(6), np.zeros(6))
    assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-10)
    assert np.allclose(out.std(axis=-1), 1.0, atol=1e-3)


def test_layernorm_affine_and_eps():
    x = np.array([[1.0, 2.0, 3.0]])
    g = np.array([2.0, 2.0, 2.0])
    b = np.array([1.0, 1.0, 1.0])
    base = layernorm(x, np.ones(3), np.zeros(3))
    assert np.allclose(layernorm(x, g, b), base * 2 + 1, atol=1e-12)
    with pytest.raises(ShapeError):
        layernorm(x, np.ones(2), np.zeros(3))


# Rows far from zero (|mean| / std = 1e4 in f32, 1e8 in f64) and near it. A
# one-pass E[x^2] - E[x]^2 variance loses every digit of the first kind
# (eps * mean^2 / var = 6 in f32, 1.1 in f64); the two-pass one only rounds
# the mean, which shifts each centered value by about eps * |mean|.
@pytest.mark.parametrize("dtype,offset", [(np.float32, 1e4), (np.float64, 1e8)])
def test_layernorm_against_two_pass_f64_reference(dtype, offset):
    rng = make_rng(36)
    D = 64
    x = rng.standard_normal((3, 40, D)).astype(dtype)
    x[:2] += np.asarray(offset, dtype=dtype) * np.sign(rng.standard_normal((2, 40, 1)))
    gamma, beta = (rng.standard_normal(D).astype(dtype) for _ in range(2))
    before = x.copy()
    got = layernorm(x, gamma, beta)

    x64 = x.astype(np.float64)
    centered = x64 - x64.mean(axis=-1, keepdims=True)
    var = (centered * centered).mean(axis=-1, keepdims=True)
    want = centered / np.sqrt(var + 1e-6) * gamma.astype(np.float64) + beta.astype(np.float64)

    assert got.dtype == np.dtype(dtype) and got.shape == x.shape
    assert not np.shares_memory(got, x)
    assert x.tobytes() == before.tobytes()
    eps = np.finfo(dtype).eps
    scale = np.abs(gamma).max()
    # the rows near zero round like any other chain of a few operations
    assert np.max(np.abs(got[2] - want[2])) <= 8 * eps * (1 + scale)
    # far rows: the mean's rounding, times the std's inverse and gamma
    assert np.max(np.abs(got[:2] - want[:2])) <= 8 * eps * offset * scale


def test_layernorm_ledger_matches_heap_peak():
    # a stage-1 map of the tiny model at 224: the output is the one
    # map-sized buffer; beside it are a per-row statistic and a ufunc buffer
    x = make_rng(37).standard_normal((56, 56, 64)).astype(np.float32)
    gamma, beta = np.ones(64, dtype=np.float32), np.zeros(64, dtype=np.float32)
    ledger = AllocationLedger()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = layernorm(x, gamma, beta, ledger)
        heap = tracemalloc.get_traced_memory()[1] - start - out.nbytes
    finally:
        tracemalloc.stop()
    assert [name for name, _ in ledger.events] == ["layernorm"]
    assert abs(ledger.peak_extra_bytes - heap) <= 0.1 * heap, (ledger.peak_extra_bytes, heap)


# ---------------------------------------------------------------------------
# RNG and init helpers
# ---------------------------------------------------------------------------


def test_make_rng_contract():
    a = make_rng(123).standard_normal(5)
    b = make_rng(123).standard_normal(5)
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        make_rng(-1)
    with pytest.raises(ValueError):
        make_rng(2**64)
    with pytest.raises(ValueError):
        make_rng(1.5)


def test_truncated_normal_bounds_and_determinism():
    out = truncated_normal(make_rng(7), (2000,))
    assert out.dtype == np.float64
    assert np.all(np.abs(out) <= 0.04)
    assert np.std(out) > 0.01
    again = truncated_normal(make_rng(7), (2000,))
    assert np.array_equal(out, again)


def _truncated_normal_one_shot(rng, shape, dtype):
    """The reference algorithm: one float64 draw of the whole shape, its
    out-of-bound entries redrawn in ascending index order until none is
    left, then one cast to ``dtype``."""
    out = rng.normal(0.0, tensor.INIT_STD, size=shape)
    flat = out.reshape(-1)
    bound = tensor.INIT_CLIP * tensor.INIT_STD
    bad = np.flatnonzero(np.abs(flat) > bound)
    while bad.size:
        flat[bad] = rng.normal(0.0, tensor.INIT_STD, size=bad.size)
        bad = bad[np.abs(flat[bad]) > bound]
    return out.astype(dtype)


# Shapes below one chunk, of exactly two, and of three and a part; every
# shape but the first draws values beyond the bound, so resamples run.
_DRAW_SHAPES = [(5, 7), (2, tensor.INIT_CHUNK), (700, 300)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", _DRAW_SHAPES)
def test_truncated_normal_equals_the_one_shot_draw(shape, dtype):
    for seed in (0, 41):
        got = truncated_normal(make_rng(seed), shape, dtype=dtype)
        want = _truncated_normal_one_shot(make_rng(seed), shape, dtype)
        assert got.dtype == np.dtype(dtype) and got.shape == shape
        assert got.tobytes() == want.tobytes()
    # the chunks are consumed from the generator as one draw: what follows
    # in the stream is the same too
    rng, ref = make_rng(5), make_rng(5)
    truncated_normal(rng, shape, dtype=dtype)
    _truncated_normal_one_shot(ref, shape, dtype)
    assert rng.normal() == ref.normal()


@pytest.mark.parametrize("seed", [0, 29])
def test_built_weights_are_the_one_shot_draws(seed):
    # every drawn tensor of the tiny model and of one layer, drawn by the
    # reference algorithm instead, is bitwise the same
    cfg = QnAConfig(k=5, stride=2, heads=2, num_queries=3, dim_in=40, dim_out=64)
    got = {**build_model("tiny", seed).tensors(),
           **{f"layer.{n}": t for n, t in init_params(cfg, seed).tensors().items()}}
    with mock.patch.object(tensor, "truncated_normal",
                           lambda rng, shape, dtype: _truncated_normal_one_shot(rng, shape, dtype)):
        want = {**build_model("tiny", seed).tensors(),
                **{f"layer.{n}": t for n, t in init_params(cfg, seed).tensors().items()}}
    assert list(got) == list(want)
    for name, t in want.items():
        assert got[name].dtype == t.dtype and got[name].tobytes() == t.tobytes(), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_truncated_normal_heap_is_output_plus_one_chunk(dtype):
    shape = (700, 300)
    bound = tensor.INIT_CLIP * tensor.INIT_STD
    n_bad = int(np.count_nonzero(
        np.abs(make_rng(9).normal(0.0, tensor.INIT_STD, size=shape)) > bound))
    assert n_bad > 0
    tracemalloc.start()
    try:
        out = truncated_normal(make_rng(9), shape, dtype=dtype)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the output, one chunk's float64 draw and its bool mask, and the index
    # lists (each out-of-bound index held as its chunk's part and in the
    # joined list), plus 4 KiB for small objects
    chunk = tensor.INIT_CHUNK
    assert peak <= out.nbytes + 9 * chunk + 2 * 8 * n_bad + 4096, peak


# ---------------------------------------------------------------------------
# Allocation ledger
# ---------------------------------------------------------------------------


def test_ledger_peak_is_max_single_event():
    ledger = AllocationLedger()
    assert ledger.peak_extra_bytes == 0
    ledger.record("a", 100)
    ledger.record("b", 300)
    ledger.record("c", 200)
    assert ledger.peak_extra_bytes == 300
    assert [e[0] for e in ledger.events] == ["a", "b", "c"]


# ---------------------------------------------------------------------------
# QNAT container
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(), (4,), (3, 5), (2, 3, 4), (2, 2, 2, 2)])
def test_qnat_roundtrip(tmp_path, dtype, shape):
    rng = make_rng(11)
    arr = rng.standard_normal(shape).astype(dtype)
    path = tmp_path / "t.qnat"
    save_qnat(path, arr)
    back = load_qnat(path)
    assert back.dtype == np.dtype(dtype)
    assert back.shape == arr.shape
    assert np.array_equal(back, arr)


def test_qnat_header_layout(tmp_path):
    arr = np.arange(6, dtype=np.float32).reshape(2, 3)
    path = tmp_path / "t.qnat"
    save_qnat(path, arr)
    blob = path.read_bytes()
    assert blob[:4] == b"QNAT"
    assert blob[4] == 0  # f32 code
    assert blob[5] == 2  # rank
    assert int.from_bytes(blob[8:12], "little") == 2
    assert int.from_bytes(blob[12:16], "little") == 3
    assert len(blob) == 16 + 6 * 4


def test_qnat_rejects_corruption(tmp_path):
    arr = np.ones((2, 2), dtype=np.float64)
    path = tmp_path / "t.qnat"
    save_qnat(path, arr)
    blob = bytearray(path.read_bytes())

    bad = tmp_path / "bad.qnat"
    bad.write_bytes(b"NOPE" + bytes(blob[4:]))
    with pytest.raises(QnatFormatError):
        load_qnat(bad)

    blob2 = bytearray(path.read_bytes())
    blob2[4] = 9  # unknown dtype code
    bad.write_bytes(bytes(blob2))
    with pytest.raises(QnatFormatError):
        load_qnat(bad)

    bad.write_bytes(path.read_bytes()[:-3])  # truncated payload
    with pytest.raises(QnatFormatError):
        load_qnat(bad)

    bad.write_bytes(path.read_bytes() + b"\x00")  # trailing garbage
    with pytest.raises(QnatFormatError):
        load_qnat(bad)


def test_qnat_short_payload_read_raises():
    # a file cut short after its size was checked reads fewer bytes than
    # the tensor holds
    with pytest.raises(QnatFormatError, match=r"t\.qnat: payload ends early"):
        tensor._read_payload(io.BytesIO(bytes(7)), "t.qnat", np.empty(1))


def test_qnat_rejects_non_float_dtypes(tmp_path):
    with pytest.raises(QnatFormatError):
        save_qnat(tmp_path / "t.qnat", np.arange(4))
