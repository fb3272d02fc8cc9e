"""Single-layer forward-pass complexity sweep.

Three implementations over a window-size sweep on one fixed input: the
linear-memory shared-query layer, the same layer computed through explicit
k**2 patch extraction, and center-query window attention through patch
extraction. Transient memory comes from the deterministic AllocationLedger
(never OS RSS); latency from a monotonic wall clock, single-threaded,
mean/std plus median over the post-warmup repeats.

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
    truncated_normal,
)

IMPLS = ("qna_efficient", "qna_unfold", "sasa_unfold")
DEFAULT_K_SWEEP = (3, 5, 7, 9, 11, 13, 15)
# Untimed calls before, and timed calls after, per case.
WARMUP = 2
REPEATS = 5


@dataclass(frozen=True)
class BenchCase:
    impl: str
    H: int
    W: int
    D: int
    k: int
    dtype: str = "f32"

    def __post_init__(self) -> None:
        if self.impl not in IMPLS:
            raise ShapeError(f"unknown impl {self.impl!r}; expected one of {IMPLS}")
        if min(self.H, self.W, self.D, self.k) < 1:
            raise ShapeError("case dimensions must be >= 1")
        if self.dtype not in DTYPE_TAGS:
            raise ShapeError(f"dtype must be 'f32' or 'f64', got {self.dtype!r}")


@dataclass
class BenchRow:
    impl: str
    k: int
    H: int
    W: int
    D: int
    dtype: str
    latency_ms_mean: float
    latency_ms_std: float
    latency_ms_median: float
    peak_extra_bytes: int
    mac_count: int


def _build_runner(case: BenchCase, rng):
    """(callable(ledger) -> output, mac_count) with inputs drawn from rng.
    Every implementation runs at stride 1 with one head and one query."""
    dt = DTYPE_TAGS[case.dtype]
    x = rng.standard_normal((case.H, case.W, case.D)).astype(dt)
    n = case.H * case.W

    if case.impl in ("qna_efficient", "qna_unfold"):
        cfg = QnAConfig(k=case.k, stride=1, heads=1, num_queries=1, dim_in=case.D, dim_out=case.D)
        params = init_params(cfg, rng, dtype=dt)
        macs = qna_flops(cfg, case.H, case.W)
        if case.impl == "qna_efficient":
            return (lambda ledger: qna_forward(x, cfg, params, ledger)), macs
        return (lambda ledger: qna_window_oracle(x, cfg, params, ledger)), macs

    params = SasaParams(
        w_q=truncated_normal(rng, (case.D, case.D), dtype=dt),
        w_k=truncated_normal(rng, (case.D, case.D), dtype=dt),
        w_v=truncated_normal(rng, (case.D, case.D), dtype=dt),
    )
    macs = 3 * n * case.D * case.D + 2 * case.k * case.k * n * case.D
    return (lambda ledger: sasa_forward(x, case.k, params, ledger)), macs


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

        for _ in range(WARMUP):
            fn(None)
        times_ms = []
        for _ in range(REPEATS):
            gc.collect()
            t0 = time.perf_counter()
            fn(None)
            times_ms.append((time.perf_counter() - t0) * 1e3)

        row = BenchRow(
            impl=case.impl, k=case.k, H=case.H, W=case.W, D=case.D, dtype=case.dtype,
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


CSV_HEADER = "impl,k,H,W,D,dtype,latency_ms_mean,latency_ms_std,peak_extra_bytes,mac_count"


def emit_csv(rows, path) -> None:
    """Pinned column set; floats via repr (C-locale, round-trippable)."""
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.impl},{r.k},{r.H},{r.W},{r.D},{r.dtype},"
            f"{r.latency_ms_mean!r},{r.latency_ms_std!r},{r.peak_extra_bytes},{r.mac_count}"
        )
    with open(path, "w", newline="") as f:
        f.write("\n".join(lines) + "\n")


def default_cases(H: int = 256, W: int = 256, D: int = 64, dtype: str = "f32",
                  impls=IMPLS, k_values=DEFAULT_K_SWEEP) -> list[BenchCase]:
    """The reference sweep: every impl at every window size, one fixed input."""
    return [
        BenchCase(impl=impl, H=H, W=W, D=D, k=k, dtype=dtype)
        for impl in impls
        for k in k_values
    ]
