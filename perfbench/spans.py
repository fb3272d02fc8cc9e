"""Outside-in span recording for the traced benchmark run.

The program is not instrumented. Instead, while a traced op runs, the public
entry points that the qna modules call through their own module globals are
replaced by wrappers that record one span per call: name, start, end, parent
span and op id. Spans stay in memory and are written out when the run ends.
Self time is a span's duration minus the time its direct children cover;
calls are sequential on one thread, so the children never overlap.
"""

from __future__ import annotations

import importlib
import statistics
import time
from contextlib import contextmanager

# Bytes a window_weighted_sum call moves, computed from its array shapes (not
# measured): for each of the k*k offsets the kernel reads one output-sized
# source slice and reads and writes the output-sized accumulator.
WWS_PASSES_PER_OFFSET = 3


def _wws_bytes(args, out) -> int:
    k = args[1].shape[0]
    return WWS_PASSES_PER_OFFSET * k * k * out.nbytes


def _window_size(args, out) -> int:
    return args[1].k


# (module under qna, attribute, span name, attribute recorder). Each module
# calls these names through its own globals, so replacing the attribute there
# wraps every call the module makes. model.qna_forward is the qna_fn= hook:
# the inference op passes it to forward_inference, looked up at each call.
TARGETS = (
    ("layer", "window_weighted_sum", "tensor.window_weighted_sum", _wws_bytes),
    ("model", "qna_block_forward", "model.qna_block_forward", None),
    ("model", "vit_block_forward", "model.vit_block_forward", None),
    ("model", "matmul", "tensor.matmul", None),
    ("model", "layernorm", "tensor.layernorm", None),
    ("model", "softmax_rows", "tensor.softmax_rows", None),
    ("model", "conv2d", "tensor.conv2d", None),
    ("model", "qna_forward", "layer.qna_forward", _window_size),
    ("cli", "qna_forward", "layer.qna_forward", _window_size),
    ("cli", "qna_backward", "layer.qna_backward", None),
)

# Span fields, in list order.
NAME, START, END, PARENT, OP, ATTR = range(6)


class SpanRecorder:
    """In-memory span store. ``op`` is the id given to spans opened next."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1

    def wrap(self, name: str, fn, attr=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if attr is not None:
                span[ATTR] = attr(args, out)
            return out

        return traced

    @contextmanager
    def patched(self):
        """Route the qna entry points in TARGETS through this recorder."""
        saved = []
        try:
            for mod_name, attr, name, extra in TARGETS:
                mod = importlib.import_module(f"qna.{mod_name}")
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self.wrap(name, fn, extra))
            yield
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def to_json(self) -> list[dict]:
        return [
            {"name": s[NAME], "start_ns": s[START], "end_ns": s[END],
             "parent": s[PARENT], "op": s[OP], "attr": s[ATTR]}
            for s in self.spans
        ]


def self_times_ns(spans: list[list]) -> list[int]:
    """Duration of each span minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def pass_counts(spans: list[list], pool: int) -> list[dict]:
    """Per pass over the op pool: call count of each span name, plus the
    computed window_weighted_sum bytes. Used to check that counts repeat
    exactly; ``op`` ids of traced ops are their index in the traced stream."""
    per: dict[int, dict] = {}
    for s in spans:
        c = per.setdefault(s[OP] // pool, {})
        c[s[NAME]] = c.get(s[NAME], 0) + 1
        if s[NAME] == "tensor.window_weighted_sum":
            c["wws_bytes"] = c.get("wws_bytes", 0) + s[ATTR]
    return [per[i] for i in sorted(per)]


def layer_metrics(spans: list[list], n_ops: int, root: str) -> dict[str, float]:
    """Per-op layer metrics from the spans of ``n_ops`` traced ops."""
    selfs = self_times_ns(spans)
    total_ns: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    by_k: dict[int, list[int]] = {}
    wws_bytes = 0
    for s, own in zip(spans, selfs):
        name, dur = s[NAME], s[END] - s[START]
        total_ns[name] = total_ns.get(name, 0) + dur
        self_ns[name] = self_ns.get(name, 0) + own
        calls[name] = calls.get(name, 0) + 1
        if name == "layer.qna_forward":
            by_k.setdefault(s[ATTR], []).append(dur)
        elif name == "tensor.window_weighted_sum":
            wws_bytes += s[ATTR]

    def ms(name, table=total_ns):
        return table.get(name, 0) / 1e6 / n_ops

    wws = "tensor.window_weighted_sum"
    m = {
        f"{wws}.calls": calls.get(wws, 0) / n_ops,
        f"{wws}.ms": ms(wws),
        f"{wws}.share": total_ns.get(wws, 0) / total_ns[root],
        f"{wws}.bytes_computed": wws_bytes / n_ops,
        f"{wws}.gbps_computed": wws_bytes / total_ns[wws] if wws in total_ns else 0.0,
    }
    for op in ("matmul", "layernorm", "softmax_rows", "conv2d"):
        m[f"tensor.{op}.calls"] = calls.get(f"tensor.{op}", 0) / n_ops
        m[f"tensor.{op}.ms"] = ms(f"tensor.{op}")
    for name in ("layer.qna_forward", "layer.qna_backward"):
        m[f"{name}.calls"] = calls.get(name, 0) / n_ops
        m[f"{name}.ms"] = ms(name)
        m[f"{name}.self_ms"] = ms(name, self_ns)
    for k in (3, 7, 15):
        durs = by_k.get(k)
        m[f"layer.qna_forward.k{k}.ms_p50"] = statistics.median(durs) / 1e6 if durs else 0.0
    m["model.forward_inference.ms"] = ms("model.forward_inference")
    m["model.self_ms"] = ms("model.forward_inference", self_ns)
    m["cli.run_train_toy.self_ms"] = ms("cli.run_train_toy", self_ns)
    return m


BLOCK_SPANS = ("model.qna_block_forward", "model.vit_block_forward")


def block_table(spans: list[list], n_ops: int, rows) -> list[dict]:
    """Join traced block times with the block rows of ``count_flops``.

    Each op must call exactly one block per row, in row order and of the
    row's kind; anything else means the model and its cost table disagree,
    and the join raises rather than pairing the wrong rows.
    """
    blocks = [r for r in rows if r.name.endswith((".qna", ".vit"))]
    per_op: dict[int, list[list]] = {}
    for s in spans:
        if s[NAME] in BLOCK_SPANS:
            per_op.setdefault(s[OP], []).append(s)
    if len(per_op) != n_ops:
        raise RuntimeError(f"{len(per_op)} of {n_ops} traced ops called a model block")
    total = [0] * len(blocks)
    for op, calls in per_op.items():
        if len(calls) != len(blocks):
            raise RuntimeError(
                f"op {op} made {len(calls)} block calls, count_flops lists {len(blocks)} blocks")
        for i, (row, s) in enumerate(zip(blocks, calls)):
            if not s[NAME].endswith(row.name.rsplit(".", 1)[1] + "_block_forward"):
                raise RuntimeError(f"block call {i} is {s[NAME]}, row is {row.name}")
            total[i] += s[END] - s[START]
    table = []
    for row, ns in zip(blocks, total):
        ms = ns / 1e6 / n_ops
        table.append({"name": row.name, "macs": row.flops, "ms": ms,
                      "gmacs_per_s": row.flops / (ms * 1e6)})
    return table
