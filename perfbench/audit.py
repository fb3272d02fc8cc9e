"""Ledger-vs-heap audit: the layer's AllocationLedger against tracemalloc.

Runs outside the timed and traced loops. For one qna_forward per window size
of the layer sweep, and one qna_backward at the toy trainer's layer shape,
it reports the ledger's ``peak_extra_bytes`` beside the real heap peak of
the call minus the bytes of what the call returns. The gap is reported, not
judged: the ledger is known to leave out one H x W x D map of the forward
pass.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from qna.layer import QnAConfig, init_params, qna_backward, qna_forward
from qna.tensor import AllocationLedger

from workloads import KS, LAYER_D, LAYER_HW, layer_case


def _heap_peak_minus_output(call) -> tuple[int, int]:
    """(ledger peak, heap peak above the start minus the returned bytes)."""
    ledger = AllocationLedger()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        out = call(ledger)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = out.tensors().values() if hasattr(out, "tensors") else (out,)
    return ledger.peak_extra_bytes, peak - start - sum(a.nbytes for a in arrays)


def ledger_vs_heap(seed: int) -> dict[str, int]:
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((LAYER_HW, LAYER_HW, LAYER_D)).astype(np.float32)
    out = {}
    for k in KS:
        cfg, params = layer_case(rng, k)
        ledger_b, heap_b = _heap_peak_minus_output(lambda lg: qna_forward(x, cfg, params, lg))
        out[f"layer.qna_forward.k{k}.ledger_bytes"] = ledger_b
        out[f"layer.qna_forward.k{k}.heap_peak_bytes"] = heap_b

    # The toy trainer's layer (qna.cli.run_train_toy) on one of its samples.
    cfg = QnAConfig(k=3, stride=1, heads=2, num_queries=2, dim_in=4, dim_out=8)
    params = init_params(cfg, int(rng.integers(0, 2**63)), dtype=np.float64)
    xs = rng.standard_normal((12, 12, cfg.dim_in))
    d_out = rng.standard_normal((12, 12, cfg.dim_out))
    ledger_b, heap_b = _heap_peak_minus_output(lambda lg: qna_backward(xs, cfg, params, d_out, lg))
    out["layer.qna_backward.ledger_bytes"] = ledger_b
    out["layer.qna_backward.heap_peak_bytes"] = heap_b
    return out
