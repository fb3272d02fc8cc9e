"""Shared-query local attention: linear-memory layer, oracles, model, bench.

Importing this package pins the BLAS thread pools to 1 thread (before numpy
is loaded) so that benchmark latencies are single-threaded and reproducible.
A BLAS thread variable exported beforehand wins.
"""

import os as _os

_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in _THREAD_VARS:
    _os.environ.setdefault(_var, "1")

from .tensor import (  # noqa: E402
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
    save_qnat,
    softmax_rows,
    truncated_normal,
    window_weighted_sum,
)
from .layer import (  # noqa: E402
    GradBundle,
    QnAConfig,
    QnAParams,
    attention_heatmap,
    init_params,
    load_params,
    qna_backward,
    qna_forward,
    qna_upsample_forward,
    qna_vjp,
    save_params,
)
from .oracles import (  # noqa: E402
    SasaParams,
    UnfoldedWindows,
    finite_diff_grad,
    qna_window_oracle,
    sasa_forward,
    unfold,
)
from .model import (  # noqa: E402
    ArchConfig,
    BlockParams,
    CostReport,
    CostRow,
    Model,
    build_model,
    count_flops,
    count_params,
    forward_inference,
    load_model,
    make_arch,
    qna_block_forward,
    save_model,
    vit_block_forward,
)
from .bench import (  # noqa: E402
    BenchCase,
    BenchRow,
    default_cases,
    emit_csv,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "AllocationLedger",
    "ArchConfig",
    "BenchCase",
    "BenchRow",
    "BlockParams",
    "CostReport",
    "CostRow",
    "GradBundle",
    "Model",
    "NumericalRangeError",
    "QnAConfig",
    "QnAParams",
    "QnatFormatError",
    "SasaParams",
    "ShapeError",
    "UnfoldedWindows",
    "attention_heatmap",
    "build_model",
    "conv2d",
    "count_flops",
    "count_params",
    "default_cases",
    "emit_csv",
    "finite_diff_grad",
    "forward_inference",
    "init_params",
    "layernorm",
    "load_model",
    "load_params",
    "load_qnat",
    "make_arch",
    "make_rng",
    "matmul",
    "offset_bounds",
    "qna_backward",
    "qna_block_forward",
    "qna_forward",
    "qna_upsample_forward",
    "qna_vjp",
    "qna_window_oracle",
    "run_sweep",
    "sasa_forward",
    "save_model",
    "save_params",
    "save_qnat",
    "softmax_rows",
    "truncated_normal",
    "unfold",
    "vit_block_forward",
    "window_weighted_sum",
]
