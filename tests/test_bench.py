"""Complexity sweep machinery at small sizes: case validation, the timed
implementations against each other, MAC formulas, deterministic
byte accounting, and the CSV contract."""

import csv
import io

import numpy as np
import pytest

from qna.bench import (
    CSV_HEADER,
    DEFAULT_K_SWEEP,
    IMPLS,
    BenchCase,
    _build_runner,
    default_cases,
    emit_csv,
    run_sweep,
)
from qna.tensor import AllocationLedger, ShapeError, make_rng


# ---------------------------------------------------------------------------
# Case validation
# ---------------------------------------------------------------------------


def test_bench_case_validation():
    good = dict(impl="qna_efficient", H=16, W=16, D=8, k=3)
    BenchCase(**good)
    with pytest.raises(ShapeError):
        BenchCase(**{**good, "impl": "magic"})
    with pytest.raises(ShapeError):
        BenchCase(**{**good, "k": 0})
    with pytest.raises(ShapeError):
        BenchCase(**{**good, "dtype": "f16"})
    with pytest.raises(ShapeError):
        BenchCase(**{**good, "repeats": 4})
    with pytest.raises(ShapeError):
        BenchCase(**{**good, "warmup": 1})
    with pytest.raises(ShapeError):
        BenchCase(**{**good, "heads": 3})  # D not divisible


def test_default_cases_cover_grid():
    cases = default_cases(H=16, W=16, D=8)
    assert len(cases) == len(IMPLS) * len(DEFAULT_K_SWEEP)
    assert [c.impl for c in cases[: len(DEFAULT_K_SWEEP)]] == ["qna_efficient"] * 7
    assert [c.k for c in cases[: len(DEFAULT_K_SWEEP)]] == list(DEFAULT_K_SWEEP)
    assert all(c.H == 16 and c.D == 8 and c.dtype == "f32" for c in cases)


# ---------------------------------------------------------------------------
# Timed implementations against each other
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k,stride,heads,L", [(3, 1, 2, 2), (5, 2, 1, 1), (2, 1, 2, 1)])
def test_qna_unfold_agrees_with_oracle(k, stride, heads, L):
    # the sweep's two qna routes compute one function on the same drawn input
    case = dict(H=7, W=6, D=6, k=k, stride=stride, heads=heads, num_queries=L, dtype="f64")
    unfold_fn, _ = _build_runner(BenchCase(impl="qna_unfold", **case), make_rng(50 + k))
    fused_fn, _ = _build_runner(BenchCase(impl="qna_efficient", **case), make_rng(50 + k))
    assert np.allclose(unfold_fn(None), fused_fn(None), atol=1e-12)


@pytest.mark.parametrize("k,stride", [(3, 1), (5, 1), (3, 2)])
def test_sasa_unfold_agrees_with_oracle(k, stride):
    # the strided sweep route samples the stride-1 oracle at the window centers
    case = dict(impl="sasa_unfold", H=6, W=7, D=6, k=k, dtype="f64")
    strided_fn, _ = _build_runner(BenchCase(stride=stride, **case), make_rng(60 + k))
    dense_fn, _ = _build_runner(BenchCase(**case), make_rng(60 + k))
    assert np.allclose(strided_fn(None), dense_fn(None)[::stride, ::stride], atol=1e-12)


# ---------------------------------------------------------------------------
# MAC formulas
# ---------------------------------------------------------------------------


def test_mac_counts_closed_forms():
    H = W = 16
    D = 8
    k = 3
    rng = make_rng(70)
    for impl in IMPLS:
        case = BenchCase(impl=impl, H=H, W=W, D=D, k=k)
        _, macs = _build_runner(case, rng)
        n = H * W
        if impl in ("qna_efficient", "qna_unfold"):
            want = n * D * D + D * D + n * D + k * k * n * (D + 1) + n * D * D
        elif impl == "sasa_unfold":
            want = 3 * n * D * D + 2 * k * k * n * D
        else:
            want = n * k * k * D * D
        assert macs == want, impl
    # both qna routes report the same analytic count
    r1 = _build_runner(BenchCase(impl="qna_efficient", H=H, W=W, D=D, k=k), make_rng(0))
    r2 = _build_runner(BenchCase(impl="qna_unfold", H=H, W=W, D=D, k=k), make_rng(0))
    assert r1[1] == r2[1]


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def test_run_sweep_rows_and_determinism():
    cases = [
        BenchCase(impl=impl, H=16, W=16, D=8, k=k)
        for impl in ("qna_efficient", "conv")
        for k in (3, 5)
    ]
    rows = run_sweep(cases, seed=7)
    assert [(r.impl, r.k) for r in rows] == [(c.impl, c.k) for c in cases]
    for row in rows:
        assert row.latency_ms_mean > 0.0
        assert row.latency_ms_std >= 0.0
        assert row.peak_extra_bytes > 0
        assert row.mac_count > 0
        assert row.heads == 1 and row.num_queries == 1 and row.dtype == "f32"
    again = run_sweep(cases, seed=7)
    # latency varies run to run; the deterministic columns must not
    for a, b in zip(rows, again):
        assert (a.peak_extra_bytes, a.mac_count) == (b.peak_extra_bytes, b.mac_count)


def test_unfold_peak_scales_with_k_squared_and_efficient_does_not():
    cases = [
        BenchCase(impl=impl, H=16, W=16, D=8, k=k)
        for impl in ("qna_efficient", "qna_unfold")
        for k in (3, 5)
    ]
    rows = {(r.impl, r.k): r.peak_extra_bytes for r in run_sweep(cases, seed=1)}
    # patch extraction: bytes exactly proportional to k**2
    assert rows[("qna_unfold", 5)] * 9 == rows[("qna_unfold", 3)] * 25
    # linear-memory path: identical up to the k x k reduction kernels
    diff = rows[("qna_efficient", 5)] - rows[("qna_efficient", 3)]
    assert 0 <= diff <= 3 * (25 - 9) * 4


def test_sweep_progress_callback_order():
    seen = []
    cases = [BenchCase(impl="conv", H=8, W=8, D=4, k=k) for k in (1, 3)]
    run_sweep(cases, seed=3, progress=lambda r: seen.append((r.impl, r.k)))
    assert seen == [("conv", 1), ("conv", 3)]


# ---------------------------------------------------------------------------
# CSV contract
# ---------------------------------------------------------------------------


def test_emit_csv_header_and_roundtrip(tmp_path):
    cases = [BenchCase(impl="qna_efficient", H=8, W=8, D=4, k=3),
             BenchCase(impl="sasa_unfold", H=8, W=8, D=4, k=3)]
    rows = run_sweep(cases, seed=5)
    out = tmp_path / "bench.csv"
    emit_csv(rows, out)
    text = out.read_text()
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert CSV_HEADER == ("impl,k,stride,H,W,D,heads,L,dtype,latency_ms_mean,"
                          "latency_ms_std,peak_extra_bytes,mac_count")
    assert len(lines) == 3
    assert text.endswith("\n") and "\r" not in text

    parsed = list(csv.DictReader(io.StringIO(text)))
    assert parsed[0]["impl"] == "qna_efficient"
    assert parsed[1]["impl"] == "sasa_unfold"
    for rec, row in zip(parsed, rows):
        assert int(rec["k"]) == row.k
        assert int(rec["L"]) == row.num_queries
        assert int(rec["peak_extra_bytes"]) == row.peak_extra_bytes
        assert int(rec["mac_count"]) == row.mac_count
        # repr floats parse back to the exact binary value
        assert float(rec["latency_ms_mean"]) == row.latency_ms_mean
        assert float(rec["latency_ms_std"]) == row.latency_ms_std


def test_build_runner_unknown_dtype_guard():
    with pytest.raises(ShapeError):
        BenchCase(impl="conv", H=8, W=8, D=4, k=3, dtype="f64x")
    case = BenchCase(impl="conv", H=8, W=8, D=4, k=3, dtype="f64")
    fn, _ = _build_runner(case, make_rng(0))
    out = fn(AllocationLedger())
    assert out.dtype == np.float64
