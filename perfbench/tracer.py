"""Per-layer tracing of moelab from outside the package.

``Tracer`` keeps a stack of open spans. A span has a name, which is credited
its inclusive time, and a label, which is charged the span's self time: the
time during which it is the innermost open span. ``Patches`` wraps moelab's
entry points under the names where moelab looks them up (``moelab.model.route``,
``moelab.trainer.lm_cross_entropy``, class methods, every ``_kernels`` entry
point) and installs or removes all of them at once, so untraced code runs the
original functions. Backward time is attributed by wrapping the closure that
``numerics._result`` attaches to each node: the closure is charged to the
label that was innermost when the node was created, with ``_fwd`` turned into
``_bwd``.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

KERNELS = (
    "index_add_rows",
    "scatter_add_lastdim",
    "scatter_add_pairs",
    "transition_count",
    "swap_in_counts",
    "usage_counts",
    "topk_lastdim",
)

_MODEL_LAYERS = ("embed", "attention", "layernorm", "moe_dispatch", "head")
_LOSSES = ("ce", "balance", "bles")

# labels whose self time belongs to a named layer; the rest is glue that the
# coverage share leaves out (residual adds, loss sums, generate's own loop)
NAMED_LABELS = (
    [f"model.{m}_{d}" for m in _MODEL_LAYERS for d in ("fwd", "bwd")]
    + ["routing.route_fwd", "routing.route_bwd", "routing.load_fractions"]
    + ["experts.ffn_fwd", "experts.ffn_bwd"]
    + [f"losses.{m}_{d}" for m in _LOSSES for d in ("fwd", "bwd")]
    + ["numerics.backward_overhead"]
    + [f"_kernels.{k}" for k in KERNELS]
    + [f"offload_sim.{p}" for p in ("write", "read", "replay", "exrep", "delta_uniform")]
    + ["trainer.batch", "trainer.clip", "trainer.optimizer"]
)

# (name, unit, better) of every per-layer metric, in report order
LAYER_METRICS = (
    [(f"trainer.{p}_ms", "ms", "lower")
     for p in ("batch", "forward", "backward", "clip", "optimizer", "evaluate")]
    + [(f"model.{m}_{d}_ms", "ms", "lower") for m in _MODEL_LAYERS for d in ("fwd", "bwd")]
    + [("model.generate_forward_ms", "ms", "lower"), ("model.ckpt_load_ms", "ms", "lower")]
    + [("routing.route_fwd_ms", "ms", "lower"), ("routing.route_bwd_ms", "ms", "lower"),
       ("routing.load_fractions_ms", "ms", "lower")]
    + [("experts.ffn_fwd_ms", "ms", "lower"), ("experts.ffn_bwd_ms", "ms", "lower"),
       ("experts.calls", "count", "lower"), ("experts.rows_per_call", "rows", "higher")]
    + [(f"losses.{m}_{d}_ms", "ms", "lower") for m in _LOSSES for d in ("fwd", "bwd")]
    + [("numerics.nodes", "count", "lower"), ("numerics.matmul_calls", "count", "lower"),
       ("numerics.backward_overhead_ms", "ms", "lower"), ("numerics.f64_nodes", "count", "lower")]
    + [(f"kernels.{k}.{s}", u, "lower") for k in KERNELS
       for s, u in (("calls", "count"), ("ms", "ms"), ("mb", "MB"))]
    + [(f"offload_sim.{p}_ms", "ms", "lower")
       for p in ("write", "read", "replay", "exrep", "delta_uniform")]
    + [("offload_sim.records", "records", "higher")]
    + [("trace.overhead_pct", "%", "lower"), ("trace.coverage_pct", "%", "higher")]
)


class Stats:
    """Sums that one phase of a run (set-up, operations, evaluation) collects."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)


class Tracer:
    """Span stack that charges self time to labels and inclusive time to names."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # [name, label, start]
        self.last = time.perf_counter()
        self.sink = Stats()
        self.narrow_dtype: np.dtype | None = None  # the model's dtype, if float32

    def push(self, name: str, label: str) -> None:
        now = time.perf_counter()
        if self.stack:
            self.sink.self_s[self.stack[-1][1]] += now - self.last
        self.last = now
        self.stack.append([name, label, now])
        self.sink.calls[name] += 1

    def pop(self) -> None:
        now = time.perf_counter()
        name, label, start = self.stack.pop()
        self.sink.self_s[label] += now - self.last
        self.sink.incl_s[name] += now - start
        self.last = now

    def relabel(self, old: str, new: str) -> None:
        if self.stack and self.stack[-1][1] == old:
            now = time.perf_counter()
            self.sink.self_s[old] += now - self.last
            self.last = now
            self.stack[-1][1] = new

    def label(self) -> str:
        return self.stack[-1][1] if self.stack else "(outside)"

    def parent(self) -> str | None:
        return self.stack[-1][0] if self.stack else None


def _bwd_label(label: str) -> str:
    return label[:-4] + "_bwd" if label.endswith("_fwd") else label


def _nbytes(obj) -> int:
    return obj.nbytes if isinstance(obj, np.ndarray) else 0


class Patches:
    """Traced replacements for moelab's entry points, installed all at once."""

    def __init__(self, tr: Tracer, moelab) -> None:
        model, trainer, numerics = moelab.model, moelab.trainer, moelab.numerics
        kernels, offload_sim, experts = moelab._kernels, moelab.offload_sim, moelab.experts

        def span(name, label, fn):
            def traced(*args, **kwargs):
                tr.push(name, label)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tr.pop()
            return traced

        def method(cls, attr):
            return cls.__dict__[attr]

        t: list[tuple[object, str, object]] = []

        # model: each module's forward, with embed/head told apart by position
        for cls, label in ((model.LayerNorm, "model.layernorm_fwd"),
                           (model.CausalAttention, "model.attention_fwd"),
                           (model.MoELayer, "model.moe_dispatch_fwd")):
            t.append((cls, "forward", span(label[:-4], label, method(cls, "forward"))))

        block_forward = method(model.Block, "forward")

        def traced_block(self, x, mask):
            tr.push("model.block", "model.block")
            try:
                return block_forward(self, x, mask)
            finally:
                tr.pop()
                tr.relabel("model.embed_fwd", "model.head_fwd")

        t.append((model.Block, "forward", traced_block))

        lm_forward = method(model.TransformerLM, "forward")

        def traced_lm_forward(self, tokens):
            name = "model.generate_forward" if tr.parent() == "model.generate" else "model.forward"
            tr.push(name, "model.embed_fwd")
            try:
                return lm_forward(self, tokens)
            finally:
                tr.pop()

        t.append((model.TransformerLM, "forward", traced_lm_forward))
        t.append((model.TransformerLM, "generate",
                  span("model.generate", "model.generate", method(model.TransformerLM, "generate"))))
        load = method(model.TransformerLM, "load").__func__
        t.append((model.TransformerLM, "load",
                  classmethod(span("model.ckpt_load", "model.ckpt_load", load))))

        # routing, experts, losses
        t.append((model, "route", span("routing.route", "routing.route_fwd", model.route)))
        t.append((trainer, "expert_load_fractions",
                  span("routing.load_fractions", "routing.load_fractions",
                       trainer.expert_load_fractions)))
        for cls in (experts.DenseExpert, experts.WDExpert):
            ffn = method(cls, "forward")

            def traced_ffn(self, x, _ffn=ffn):
                tr.sink.counts["experts.calls"] += 1
                tr.sink.counts["experts.rows"] += x.shape[0]
                tr.push("experts.ffn", "experts.ffn_fwd")
                try:
                    return _ffn(self, x)
                finally:
                    tr.pop()

            t.append((cls, "forward", traced_ffn))
        for attr, label in (("lm_cross_entropy", "losses.ce_fwd"),
                            ("load_balance_loss", "losses.balance_fwd"),
                            ("bles_loss", "losses.bles_fwd")):
            t.append((trainer, attr, span(label[:-4], label, getattr(trainer, attr))))

        # trainer phases
        t.append((trainer, "sample_batch", span("trainer.batch", "trainer.batch", trainer.sample_batch)))
        t.append((trainer, "compute_losses",
                  span("trainer.forward", "trainer.compute_losses", trainer.compute_losses)))
        t.append((trainer, "clip_gradients", span("trainer.clip", "trainer.clip", trainer.clip_gradients)))
        t.append((trainer.Optimizer, "step",
                  span("trainer.optimizer", "trainer.optimizer", method(trainer.Optimizer, "step"))))
        t.append((trainer, "evaluate", span("trainer.evaluate", "trainer.evaluate", trainer.evaluate)))

        # autodiff: backward, node creation, matmul count
        t.append((numerics.Tensor, "backward",
                  span("trainer.backward", "numerics.backward_overhead",
                       method(numerics.Tensor, "backward"))))
        result = numerics._result
        float64 = np.dtype(np.float64)

        def traced_result(data, parents, backward):
            counts = tr.sink.counts
            counts["numerics.nodes"] += 1
            if tr.narrow_dtype is not None and data.dtype == float64:
                counts["numerics.f64_nodes"] += 1
            label = _bwd_label(tr.label())

            def timed_backward(g):
                tr.push("numerics.closure", label)
                try:
                    return backward(g)
                finally:
                    tr.pop()

            return result(data, parents, timed_backward)

        t.append((numerics, "_result", traced_result))
        matmul = numerics.matmul

        def counted_matmul(a, b):
            tr.sink.counts["numerics.matmul_calls"] += 1
            return matmul(a, b)

        t.append((numerics, "matmul", counted_matmul))

        # kernels: calls, self time and operand bytes
        for k in KERNELS:
            fn = getattr(kernels, k)
            label = f"_kernels.{k}"

            def traced_kernel(*args, _fn=fn, _label=label):
                tr.push(_label, _label)
                try:
                    out = _fn(*args)
                finally:
                    tr.pop()
                tr.sink.counts[_label + ".bytes"] += sum(map(_nbytes, args)) + _nbytes(out)
                return out

            t.append((kernels, k, traced_kernel))

        # offload simulator
        for attr, label in (("write_trace", "offload_sim.write"),
                            ("read_trace", "offload_sim.read"),
                            ("exrep", "offload_sim.exrep"),
                            ("delta_uniform", "offload_sim.delta_uniform")):
            t.append((offload_sim, attr, span(label, label, getattr(offload_sim, attr))))
        replay = offload_sim.replay_offload

        def traced_replay(trace, cost):
            tr.sink.counts["offload_sim.records"] += trace.layers * trace.tokens
            tr.push("offload_sim.replay", "offload_sim.replay")
            try:
                return replay(trace, cost)
            finally:
                tr.pop()

        t.append((offload_sim, "replay_offload", traced_replay))
        t.append((trainer, "replay_offload", traced_replay))

        self.targets = t
        self.saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self.saved:
            raise RuntimeError("patches are already installed")
        for owner, attr, new in self.targets:
            old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self.saved.append((owner, attr, old))
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self.saved):
            setattr(owner, attr, old)
        self.saved.clear()


def layer_metrics(ops: Stats, n_ops: int, op_wall_s: float, evals: Stats, n_evals: int,
                  setup: Stats, overhead_pct: float) -> dict[str, float]:
    """Every metric of LAYER_METRICS from the sums of the traced phases.

    Times and counts are per operation (train step, generated sequence or
    replay round); ``trainer.evaluate_ms`` is per evaluate call and
    ``model.ckpt_load_ms`` per checkpoint load. Layers a workload does not
    run read 0.
    """
    per = 1.0 / max(n_ops, 1)

    def self_ms(label):
        return 1e3 * ops.self_s.get(label, 0.0) * per

    def incl_ms(name):
        return 1e3 * ops.incl_s.get(name, 0.0) * per

    def count(name):
        return ops.counts.get(name, 0.0) * per

    out = {f"trainer.{p}_ms": incl_ms(f"trainer.{p}")
           for p in ("batch", "forward", "backward", "clip", "optimizer")}
    out["trainer.evaluate_ms"] = 1e3 * evals.incl_s.get("trainer.evaluate", 0.0) / max(n_evals, 1)
    for m in _MODEL_LAYERS:
        for d in ("fwd", "bwd"):
            out[f"model.{m}_{d}_ms"] = self_ms(f"model.{m}_{d}")
    out["model.generate_forward_ms"] = incl_ms("model.generate_forward")
    loads = setup.calls.get("model.ckpt_load", 0)
    out["model.ckpt_load_ms"] = 1e3 * setup.incl_s.get("model.ckpt_load", 0.0) / max(loads, 1)
    for label in ("routing.route_fwd", "routing.route_bwd", "routing.load_fractions",
                  "experts.ffn_fwd", "experts.ffn_bwd"):
        out[label + "_ms"] = self_ms(label)
    calls = ops.counts.get("experts.calls", 0.0)
    out["experts.calls"] = calls * per
    out["experts.rows_per_call"] = ops.counts.get("experts.rows", 0.0) / calls if calls else 0.0
    for m in _LOSSES:
        for d in ("fwd", "bwd"):
            out[f"losses.{m}_{d}_ms"] = self_ms(f"losses.{m}_{d}")
    out["numerics.nodes"] = count("numerics.nodes")
    out["numerics.matmul_calls"] = count("numerics.matmul_calls")
    out["numerics.backward_overhead_ms"] = self_ms("numerics.backward_overhead")
    out["numerics.f64_nodes"] = count("numerics.f64_nodes")
    for k in KERNELS:
        label = f"_kernels.{k}"
        out[f"kernels.{k}.calls"] = ops.calls.get(label, 0) * per
        out[f"kernels.{k}.ms"] = self_ms(label)
        out[f"kernels.{k}.mb"] = count(label + ".bytes") / 1e6
    for p in ("write", "read", "replay", "exrep", "delta_uniform"):
        out[f"offload_sim.{p}_ms"] = self_ms(f"offload_sim.{p}")
    out["offload_sim.records"] = count("offload_sim.records")
    out["trace.overhead_pct"] = overhead_pct
    named = sum(ops.self_s.get(label, 0.0) for label in NAMED_LABELS)
    out["trace.coverage_pct"] = 100.0 * named / op_wall_s if op_wall_s > 0 else 0.0
    return out
