"""Single-layer forward-pass complexity sweep.

Four implementations over a window-size sweep on one fixed input: the
linear-memory shared-query layer, the same layer computed through explicit
k**2 patch extraction, center-query window attention through patch
extraction, and direct convolution. Transient memory comes from the
deterministic AllocationLedger (never OS RSS); latency from a monotonic wall
clock, single-threaded, mean/std plus median over the post-warmup repeats.

The unfold-based paths are the reference oracles themselves. They extract,
use and free the key patches before extracting the value patches, so they
stay runnable at the reference 256x256x64 input, where holding both patch
buffers at k=15 would not fit.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass

from .layer import QnAConfig, init_params, qna_forward
from .model import qna_flops
from .oracles import SasaParams, qna_window_oracle, sasa_forward
from .tensor import (
    DTYPE_TAGS,
    AllocationLedger,
    ShapeError,
    make_rng,
    conv2d,
    same_output_size,
    truncated_normal,
)

IMPLS = ("qna_efficient", "qna_unfold", "sasa_unfold", "conv")
DEFAULT_K_SWEEP = (3, 5, 7, 9, 11, 13, 15)


@dataclass(frozen=True)
class BenchCase:
    impl: str
    H: int
    W: int
    D: int
    k: int
    stride: int = 1
    heads: int = 1
    num_queries: int = 1
    dtype: str = "f32"
    repeats: int = 5
    warmup: int = 2

    def __post_init__(self) -> None:
        if self.impl not in IMPLS:
            raise ShapeError(f"unknown impl {self.impl!r}; expected one of {IMPLS}")
        if min(self.H, self.W, self.D, self.k, self.stride, self.heads, self.num_queries) < 1:
            raise ShapeError("case dimensions must be >= 1")
        if self.dtype not in DTYPE_TAGS:
            raise ShapeError(f"dtype must be 'f32' or 'f64', got {self.dtype!r}")
        if self.repeats < 5:
            raise ShapeError(f"repeats must be >= 5, got {self.repeats}")
        if self.warmup < 2:
            raise ShapeError(f"warmup must be >= 2, got {self.warmup}")
        if self.D % self.heads != 0:
            raise ShapeError(f"D {self.D} not divisible by heads {self.heads}")


@dataclass
class BenchRow:
    impl: str
    k: int
    stride: int
    H: int
    W: int
    D: int
    heads: int
    num_queries: int
    dtype: str
    latency_ms_mean: float
    latency_ms_std: float
    latency_ms_median: float
    peak_extra_bytes: int
    mac_count: int


def _build_runner(case: BenchCase, rng):
    """(callable(ledger) -> output, mac_count) with inputs drawn from rng."""
    dt = DTYPE_TAGS[case.dtype]
    x = rng.standard_normal((case.H, case.W, case.D)).astype(dt)
    hp = same_output_size(case.H, case.stride)
    wp = same_output_size(case.W, case.stride)

    if case.impl in ("qna_efficient", "qna_unfold"):
        cfg = QnAConfig(
            k=case.k, stride=case.stride, heads=case.heads,
            num_queries=case.num_queries, dim_in=case.D, dim_out=case.D,
        )
        params = init_params(cfg, rng, dtype=dt)
        macs = qna_flops(cfg, case.H, case.W)
        if case.impl == "qna_efficient":
            return (lambda ledger: qna_forward(x, cfg, params, ledger)), macs
        return (lambda ledger: qna_window_oracle(x, cfg, params, ledger)), macs

    if case.impl == "sasa_unfold":
        params = SasaParams(
            w_q=truncated_normal(rng, (case.D, case.D), dtype=dt),
            w_k=truncated_normal(rng, (case.D, case.D), dtype=dt),
            w_v=truncated_normal(rng, (case.D, case.D), dtype=dt),
        )
        d2 = case.D * case.D
        macs = (2 * case.H * case.W + hp * wp) * d2 + 2 * case.k * case.k * hp * wp * case.D
        return (lambda ledger: sasa_forward(x, case.k, params, ledger, stride=case.stride)), macs

    w = truncated_normal(rng, (case.k, case.k, case.D, case.D), dtype=dt)
    macs = hp * wp * case.k * case.k * case.D * case.D
    return (lambda ledger: conv2d(x, w, case.stride, "same", ledger)), macs


def run_sweep(cases, seed: int = 42, progress=None) -> list[BenchRow]:
    """One BenchRow per case, in case order.

    Inputs and weights are redrawn from the same seed for every case, so byte
    counts are deterministic; only the latency fields vary run to run. The
    ledger pass is separate from the timed repeats (recording is cheap but
    not free), relying on the ops' allocation pattern being data-independent.
    """
    rows: list[BenchRow] = []
    for case in cases:
        fn, macs = _build_runner(case, make_rng(seed))
        gc.collect()

        ledger = AllocationLedger()
        fn(ledger)
        peak = ledger.peak_extra_bytes

        for _ in range(case.warmup):
            fn(None)
        times_ms = []
        for _ in range(case.repeats):
            gc.collect()
            t0 = time.perf_counter()
            fn(None)
            times_ms.append((time.perf_counter() - t0) * 1e3)

        row = BenchRow(
            impl=case.impl, k=case.k, stride=case.stride,
            H=case.H, W=case.W, D=case.D,
            heads=case.heads, num_queries=case.num_queries, dtype=case.dtype,
            latency_ms_mean=statistics.fmean(times_ms),
            latency_ms_std=statistics.pstdev(times_ms),
            latency_ms_median=statistics.median(times_ms),
            peak_extra_bytes=peak,
            mac_count=macs,
        )
        rows.append(row)
        if progress is not None:
            progress(row)
        del fn
        gc.collect()
    return rows


CSV_HEADER = "impl,k,stride,H,W,D,heads,L,dtype,latency_ms_mean,latency_ms_std,peak_extra_bytes,mac_count"


def emit_csv(rows, path) -> None:
    """Pinned column set; floats via repr (C-locale, round-trippable)."""
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.impl},{r.k},{r.stride},{r.H},{r.W},{r.D},{r.heads},{r.num_queries},"
            f"{r.dtype},{r.latency_ms_mean!r},{r.latency_ms_std!r},"
            f"{r.peak_extra_bytes},{r.mac_count}"
        )
    with open(path, "w", newline="") as f:
        f.write("\n".join(lines) + "\n")


def default_cases(H: int = 256, W: int = 256, D: int = 64, dtype: str = "f32",
                  impls=IMPLS, k_values=DEFAULT_K_SWEEP,
                  repeats: int = 5, warmup: int = 2) -> list[BenchCase]:
    """The reference sweep: every impl at every window size, one fixed input."""
    return [
        BenchCase(impl=impl, H=H, W=W, D=D, k=k, dtype=dtype, repeats=repeats, warmup=warmup)
        for impl in impls
        for k in k_values
    ]
