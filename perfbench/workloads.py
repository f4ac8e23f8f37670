"""The four workloads: desk training (dense and WD), greedy decode, trace replay.

Each workload writes its inputs from the seed into the work directory
(``make_inputs``, once per run), reads them back (``load_inputs``, untimed, in
every process that sets the program up), sets the program up (``setup``, timed
as set-up), then runs one operation at a time in a closed loop: a train step,
one greedy generation with its trace round trip, or one round over all replay
traces. ``check_last`` verifies the outputs of the operation just run
against the oracles, outside the timed region. Program code is reached only
through module attributes, so the tracer's patches see every call.
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path

import numpy as np

import inputs
import oracles

DESK_CONFIG = "configs/desk.cfg"


def _desk(ml, root: Path, expert_kind: str = "dense"):
    mc, tc = ml.trainer.load_config_file(root / DESK_CONFIG)
    return dataclasses.replace(mc, expert_kind=expert_kind), tc


def _trace_roundtrip(ml, trace, path: Path, cost, parts: dict):
    """write_trace -> read_trace -> replay_offload, each timed into ``parts``."""
    t0 = time.perf_counter()
    ml.offload_sim.write_trace(trace, path)
    t1 = time.perf_counter()
    back = ml.offload_sim.read_trace(path)
    t2 = time.perf_counter()
    report = ml.offload_sim.replay_offload(back, cost)
    t3 = time.perf_counter()
    for key, value in (("write_s", t1 - t0), ("read_s", t2 - t1), ("replay_s", t3 - t2),
                       ("records", trace.layers * trace.tokens)):
        parts[key] = parts.get(key, 0) + value
    return back, report


def _check_trace(ml, trace, back, report, cost) -> None:
    sel = trace.selections
    oracles.check_roundtrip(sel, trace.num_experts, back.selections, back.num_experts)
    oracles.check_swap_events(report.swap_events, sel)
    oracles.check_swaps_half_h(report.swap_events, sel)
    oracles.check_h([ml.losses.hard_replacements(layer[None], trace.num_experts)[0]
                     for layer in sel], sel)
    oracles.check_tokens_per_sec(report.tokens_per_sec, trace.tokens, report.swap_events,
                                 cost.compute_per_token, cost.swap_seconds(1))
    oracles.check_exrep(sel, report.exrep_pct)
    oracles.check_delta_uniform(sel, trace.num_experts, report.delta_uniform_pct)


class Workload:
    def load_inputs(self) -> None:
        pass

    def finish(self, run_traced) -> dict:
        return {}


class Train(Workload):
    """Desk training: ``configs/desk.cfg`` as shipped, on a seeded corpus."""

    def __init__(self, ml, root: Path, workdir: Path, seed: int, expert_kind: str):
        self.ml, self.root, self.seed, self.expert_kind = ml, root, seed, expert_kind
        self.corpus_path = workdir / "corpus.txt"

    def make_inputs(self) -> None:
        self.corpus_path.write_text(inputs.corpus_text(self.seed), encoding="utf-8")

    def setup(self) -> None:
        tr = self.ml.trainer
        mc, tc = _desk(self.ml, self.root, self.expert_kind)
        self.tc = dataclasses.replace(tc, corpus=str(self.corpus_path), seed=self.seed)
        self.corpus = tr.ingest_corpus(self.tc.corpus, self.tc.val_frac, self.tc.seed)
        self.model = self.ml.model.TransformerLM(mc, seed=self.tc.seed)
        self.opt = tr.Optimizer(self.model, self.tc)
        self.rng = np.random.default_rng(self.tc.seed + 1)
        self.step = 0
        self.last = self._step()  # warm-up: step 0 of the run
        self.ce0 = self.last["ce"]

    def _step(self) -> dict:
        tr = self.ml.trainer
        batch = tr.sample_batch(self.corpus.train_ids, self.tc.batch_size, self.tc.seq_len, self.rng)
        metrics = tr.train_step(self.model, batch, self.opt, self.step)
        self.step += 1
        return metrics

    def op(self) -> tuple[float, int, dict]:
        t0 = time.perf_counter()
        self.last = self._step()
        return time.perf_counter() - t0, self.tc.batch_size * self.tc.seq_len, {}

    def check_last(self) -> None:
        oracles.check_finite({k: self.last[k] for k in ("ce", "lb", "bles", "total", "grad_norm")})

    def finish(self, run_traced) -> dict:
        """One timed evaluate, then the step-0 and held-out checks.

        The checks keep one autodiff graph alive at a time, so they stay
        below the peak memory of a train step.
        """
        tc = self.tc
        t0 = time.perf_counter()
        ev = run_traced(lambda: self.ml.trainer.evaluate(self.model, self.corpus, tc))
        eval_s = time.perf_counter() - t0
        oracles.check_finite(ev)
        oracles.check_ce_decreased(self.ce0, ev["val_ce"])
        self._check_step0()
        self._check_heldout()
        return {"eval_tok_s": tc.eval_batches * tc.batch_size * tc.seq_len / eval_s,
                "val_ce": ev["val_ce"], "steps": self.step}

    def _rtol(self) -> float:
        return 1e-4 if self.model.config.dtype == "float32" else 1e-9

    def _check_step0(self) -> None:
        """Rebuild step 0 (same initialisation, same first batch) and check its CE."""
        ml, tc = self.ml, self.tc
        model0 = ml.model.TransformerLM(self.model.config, seed=tc.seed)
        x0, y0 = ml.trainer.sample_batch(self.corpus.train_ids, tc.batch_size, tc.seq_len,
                                         np.random.default_rng(tc.seed + 1))
        logits0 = model0.forward(x0)[0].data
        oracles.check_ce(logits0, y0, self.ce0, self._rtol())
        oracles.check_initial_ce(logits0, model0.config.vocab)

    def _check_heldout(self) -> None:
        """Loss, routing and ExRep checks on one held-out batch."""
        tc = self.tc
        rng = np.random.default_rng(self.seed + 7)
        val = self.corpus.val_ids
        starts = rng.integers(0, len(val) - tc.seq_len - 1, size=tc.batch_size)
        x = np.stack([val[s : s + tc.seq_len] for s in starts])
        y = np.stack([val[s + 1 : s + tc.seq_len + 1] for s in starts])
        logits = self.model.forward(x)[0].data
        _, parts, artifacts = self.ml.trainer.compute_losses(self.model, x, y)
        oracles.check_ce(logits, y, parts["ce"], self._rtol())
        for _, weights, selected in artifacts:
            oracles.check_topk(weights.values.data, selected.indices)
            oracles.check_gates(selected.gate_weights.data, weights.values.data,
                                selected.indices, self._rtol())
        oracles.check_exrep(np.stack([a[2].indices for a in artifacts]), parts["exrep"])
        oracles.check_finite(parts)


class Decode(Workload):
    """Greedy decode of a seeded desk-shape model, loaded from a checkpoint."""

    n_prompts = 64

    def __init__(self, ml, root: Path, workdir: Path, seed: int):
        self.ml, self.root, self.seed = ml, root, seed
        self.corpus_path = workdir / "corpus.txt"
        self.ckpt_path = workdir / "model.npz"
        self.trace_path = workdir / "generate.trace"
        self.prompts = None
        self.index = 0

    def make_inputs(self) -> None:
        self.corpus_path.write_text(inputs.corpus_text(self.seed), encoding="utf-8")
        mc, _ = _desk(self.ml, self.root)
        self.ml.model.TransformerLM(mc, seed=self.seed).save(self.ckpt_path)

    def setup(self) -> None:
        _, tc = _desk(self.ml, self.root)
        self.corpus = self.ml.trainer.ingest_corpus(self.corpus_path, tc.val_frac, self.seed)
        self.model = self.ml.model.TransformerLM.load(self.ckpt_path)
        self.cost = self.ml.trainer.default_cost_model(self.model.config)
        self.model.generate(self.corpus.val_ids[: inputs.PROMPT_TOKENS], 1)  # warm-up

    def op(self) -> tuple[float, int, dict]:
        if self.prompts is None:
            self.prompts = inputs.prompts(self.corpus.val_ids, self.n_prompts, self.seed)
        prompt = self.prompts[self.index % len(self.prompts)]
        self.index += 1
        n = self.model.config.seq_len - prompt.size
        t0 = time.perf_counter()
        tokens, trace = self.model.generate(prompt, n)
        gen_s = time.perf_counter() - t0
        parts: dict = {}
        back, report = _trace_roundtrip(self.ml, trace, self.trace_path, self.cost, parts)
        self.last = (prompt.size, tokens, trace, back, report)
        return gen_s, n, parts

    def check_last(self) -> None:
        prompt_len, tokens, trace, back, report = self.last
        logits, _ = self.model.forward(tokens[None, :])
        oracles.check_greedy_causal(tokens, logits.data[0], prompt_len, atol=1e-5)
        _check_trace(self.ml, trace, back, report, self.cost)


class Replay(Workload):
    """Write, parse and replay seeded traces in two shapes at three churn levels."""

    def __init__(self, ml, root: Path, workdir: Path, seed: int):
        self.ml, self.seed = ml, seed
        self.trace_path = workdir / "replay.trace"
        self.inputs_path = workdir / "selections.npz"

    def make_inputs(self) -> None:
        traces = inputs.replay_traces(self.seed)
        np.savez(self.inputs_path, names=[name for name, _, _ in traces],
                 experts=[experts for _, _, experts in traces],
                 **{f"sel{i}": sel for i, (_, sel, _) in enumerate(traces)})

    def load_inputs(self) -> None:
        trace_cls = self.ml.model.RoutingTrace
        with np.load(self.inputs_path) as f:
            self.traces = [(str(name), trace_cls(f[f"sel{i}"], int(experts)))
                           for i, (name, experts) in enumerate(zip(f["names"], f["experts"]))]

    def setup(self) -> None:
        ml = self.ml
        self.costs = [
            ml.trainer.default_cost_model(
                ml.config.ModelConfig(layers=t.layers, experts=t.num_experts, active=t.k))
            for _, t in self.traces
        ]
        _trace_roundtrip(ml, self.traces[0][1], self.trace_path, self.costs[0], {})  # warm-up

    def op(self) -> tuple[float, int, dict]:
        self.last = []
        parts: dict = {}
        t0 = time.perf_counter()
        for (_, trace), cost in zip(self.traces, self.costs):
            back, report = _trace_roundtrip(self.ml, trace, self.trace_path, cost, parts)
            self.last.append((trace, back, report, cost))
        return time.perf_counter() - t0, sum(t.tokens for _, t in self.traces), parts

    def check_last(self) -> None:
        for trace, back, report, cost in self.last:
            _check_trace(self.ml, trace, back, report, cost)

    def finish(self, run_traced) -> dict:
        return {"trace_exrep_pct": {name: oracles.exrep_sets(t.selections)
                                    for name, t in self.traces}}


# name -> factory(ml, root, workdir, seed)
WORKLOADS = {
    "train-dense": lambda *a: Train(*a, expert_kind="dense"),
    "train-wd": lambda *a: Train(*a, expert_kind="wd"),
    "decode": Decode,
    "replay": Replay,
}
