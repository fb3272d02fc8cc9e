"""Check runners: the two equivalences the reproduction rests on, as data.

The fused layer against ``qna_window_oracle`` over a grid of
configurations, its analytic gradients against central differences, and a
model against itself with every QnA block swapped to the oracle. Each runner
returns its errors and prints nothing; ``qna check`` and the test suite
judge and print them.
"""

from __future__ import annotations

import itertools

import numpy as np

from .layer import QnAConfig, QnAParams, init_params, qna_forward
from .model import build_model, forward_inference
from .oracles import finite_diff_grad, qna_window_oracle
from .tensor import DTYPE_TAGS, make_rng

# Oracle grids: window sizes, strides, heads, query counts and (H, W) map
# sizes; every combination is one case with 5 input and 8 output channels.
SMALL_GRID = ((1, 3, 5), (1, 2), (1, 2), (1, 2), ((4, 5), (5, 4)))
FULL_GRID = ((1, 3, 5, 7), (1, 2), (1, 2, 4), (1, 2, 3),
             tuple((h, w) for h in range(4, 9) for w in range(4, 9)))


def active_params(cfg: QnAConfig, rng, dtype) -> QnAParams:
    """``init_params`` with the score bias and mixing weights drawn away from
    their init values, so that a check exercises both tensors."""
    params = init_params(cfg, rng, dtype=dtype)
    params.bias[...] = (rng.standard_normal(params.bias.shape) * 0.3).astype(dtype)
    params.mix[...] = (rng.standard_normal(params.mix.shape) * 0.2
                       + 1.0 / cfg.num_queries).astype(dtype)
    return params


def oracle_grid(grid, dtype_tag: str, seed: int):
    """Yield ``(case name, max abs error)`` of ``qna_forward`` against
    ``qna_window_oracle`` for every case of ``grid`` (``SMALL_GRID`` or
    ``FULL_GRID``) in ``dtype_tag``, in loop order. One generator seeded with
    ``seed`` draws every case's parameters and then its input."""
    ks, strides, heads_list, query_counts, sizes = grid
    dt = DTYPE_TAGS[dtype_tag]
    rng = make_rng(seed)
    for k, stride, h, L, (hh, ww) in itertools.product(ks, strides, heads_list,
                                                       query_counts, sizes):
        cfg = QnAConfig(k=k, stride=stride, heads=h, num_queries=L, dim_in=5, dim_out=8)
        params = active_params(cfg, rng, dt)
        x = rng.standard_normal((hh, ww, 5)).astype(dt)
        err = np.max(np.abs(qna_forward(x, cfg, params) - qna_window_oracle(x, cfg, params)))
        yield f"grid k={k} stride={stride} h={h} L={L} H={hh} W={ww} {dtype_tag}", float(err)


def gradcheck_case(seed: int):
    """``(x, cfg, params, d_out)`` of the gradient check, in
    ``qna_backward``'s argument order: k 3, 2 heads, 2 queries, 6 -> 4
    channels on a 4 x 4 f64 map, drawn from one generator seeded with
    ``seed``."""
    cfg = QnAConfig(k=3, stride=1, heads=2, num_queries=2, dim_in=6, dim_out=4)
    rng = make_rng(seed)
    params = active_params(cfg, rng, np.float64)
    x = rng.standard_normal((4, 4, cfg.dim_in))
    d_out = rng.standard_normal((4, 4, cfg.dim_out))
    return x, cfg, params, d_out


def gradcheck(x, cfg: QnAConfig, params: QnAParams, d_out, grads) -> dict[str, float]:
    """``{tensor: max relative error}`` of ``grads``, the analytic gradients
    of sum(d_out * qna_forward(x)) as a ``GradBundle``, against central
    differences with step 1e-5, for ``"input"`` and every parameter. The
    error is the largest absolute difference over the largest absolute
    finite difference, floored at 1e-12."""
    tensors = {"input": x, **params.tensors()}
    analytic = grads.tensors()
    rels = {}
    for name, target in tensors.items():
        def loss(v, _n=name):
            t = {**tensors, _n: v}
            return float(np.sum(d_out * qna_forward(t.pop("input"), cfg, QnAParams(**t))))
        numeric = finite_diff_grad(loss, target, 1e-5)
        denom = max(float(np.max(np.abs(numeric))), 1e-12)
        rels[name] = float(np.max(np.abs(analytic[f"d_{name}"] - numeric))) / denom
    return rels


def oracle_swap(arch, seed: int, size: int) -> float:
    """Max abs difference of the logits of ``build_model(arch, seed)`` in
    f32, with and without every QnA block swapped to ``qna_window_oracle``,
    on one size x size image drawn from seed + 1."""
    model = build_model(arch, seed=seed, dtype=np.float32)
    image = make_rng((seed + 1) % 2**64).standard_normal((size, size, 3)).astype(np.float32)
    fast = forward_inference(model, image)
    slow = forward_inference(model, image, qna_fn=qna_window_oracle)
    return float(np.max(np.abs(fast - slow)))
