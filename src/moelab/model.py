"""Decoder-only toy transformer whose FFN sublayers are sparse MoE layers.

Pre-norm residual blocks: learned positional embeddings, multi-head causal
attention, and a token-choice MoE feed-forward per layer. Every forward pass
returns the per-layer routing artifacts so losses and traces can be computed
without re-running the model. The router consumes the same normalized hidden
state the experts consume. Greedy decoding runs one prefill over the prompt and
then one single-token step per position against per-layer key/value caches.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import numerics as nx
from .config import ModelConfig
from .errors import DataError
from .experts import make_expert
from .numerics import Tensor
from .routing import RouterLogits, RoutingWeights, SelectedExperts, route

CHECKPOINT_MAGIC = "moelab-ckpt-v1"
INIT_STD = 0.02


@dataclass
class RoutingTrace:
    """Expert selections of one sequence: (layers, T, K) integer ids."""

    selections: np.ndarray
    num_experts: int

    def __post_init__(self) -> None:
        self.selections = np.asarray(self.selections, dtype=np.int64)
        if self.selections.ndim != 3:
            raise DataError(
                f"trace selections must be (layers, T, K), got {self.selections.shape}"
            )
        if self.selections.size and (
            self.selections.min() < 0 or self.selections.max() >= self.num_experts
        ):
            raise DataError(
                f"trace contains expert ids outside [0, {self.num_experts})"
            )

    @property
    def layers(self) -> int:
        return self.selections.shape[0]

    @property
    def tokens(self) -> int:
        return self.selections.shape[1]

    @property
    def k(self) -> int:
        return self.selections.shape[2]


def _config_from_json(path, text: str) -> ModelConfig:
    """ModelConfig from a checkpoint's JSON; an unknown key or a value of the
    wrong JSON type (ints pass for floats) raises DataError."""
    raw = json.loads(text)
    if not isinstance(raw, dict):
        raise DataError(f"{path}: checkpoint config is not a JSON object")
    kinds = {f.name: type(f.default) for f in fields(ModelConfig)}
    for key, value in raw.items():
        kind = kinds.get(key)
        if kind is None or not (type(value) is kind or kind is float and type(value) is int):
            raise DataError(f"{path}: bad checkpoint config entry {key}={value!r}")
    return ModelConfig(**raw)


def _normal(rng: np.random.Generator, shape, dtype: str, std: float = INIT_STD) -> Tensor:
    return nx.parameter(rng.normal(0.0, std, size=shape).astype(dtype))


class LayerNorm:
    def __init__(self, dim: int, dtype: str):
        self.gain = nx.parameter(np.ones(dim, dtype=dtype))
        self.bias = nx.parameter(np.zeros(dim, dtype=dtype))

    def forward(self, x: Tensor) -> Tensor:
        return nx.layer_norm(x, self.gain, self.bias)

    def named_parameters(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}gain": self.gain, f"{prefix}bias": self.bias}


def _causal_mask(t: int, end: int, dtype) -> np.ndarray:
    """Additive mask for ``t`` query positions ending at position ``end - 1``
    over keys 0..end-1: query i sees keys up to ``end - t + i``."""
    return np.triu(np.full((t, end), -1e30, dtype=dtype), end - t + 1)


class KVCache:
    """Keys and values of one sequence in one attention layer, for decoding.

    The (1, heads, capacity, head_dim) buffers are allocated at the first
    write, in the dtype of the projected keys; the first ``length`` positions
    are filled. Forward only: no gradient flows through the cache.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.length = 0
        self.k: np.ndarray | None = None
        self.v: np.ndarray | None = None

    def extend(self, k: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Append (1, heads, t, head_dim) keys and values; return the filled prefix."""
        if self.k is None:
            shape = (1, k.shape[1], self.capacity, k.shape[3])
            self.k, self.v = np.empty(shape, k.dtype), np.empty(shape, v.dtype)
        start, self.length = self.length, self.length + k.shape[2]
        self.k[:, :, start : self.length] = k
        self.v[:, :, start : self.length] = v
        return self.k[:, :, : self.length], self.v[:, :, : self.length]


class CausalAttention:
    """Standard multi-head attention with an additive causal mask."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        h = config.hidden
        self.heads = config.heads
        self.head_dim = h // config.heads
        self.wq = _normal(rng, (h, h), config.dtype)
        self.wk = _normal(rng, (h, h), config.dtype)
        self.wv = _normal(rng, (h, h), config.dtype)
        self.wo = _normal(rng, (h, h), config.dtype)

    def forward(
        self, x: Tensor, mask: np.ndarray | None, cache: KVCache | None = None
    ) -> Tensor:
        """Self-attention of ``x`` (B, T, hidden) under ``mask`` (T, T).

        With a ``cache``, ``x`` holds only the new positions of one sequence
        and ``mask`` is None: their keys and values are appended to the cache
        and they attend over everything cached so far, causally among
        themselves.
        """
        b, t, h = x.shape

        def split(m: Tensor) -> Tensor:
            return nx.swapaxes(nx.reshape(m, (b, t, self.heads, self.head_dim)), 1, 2)

        q = split(nx.matmul(x, self.wq))
        k = split(nx.matmul(x, self.wk))
        v = split(nx.matmul(x, self.wv))
        if cache is not None:
            k_all, v_all = cache.extend(k.data, v.data)
            k, v = Tensor(k_all), Tensor(v_all)
            if t > 1:
                mask = _causal_mask(t, cache.length, self.wq.dtype)
        scores = nx.mul(nx.matmul(q, nx.swapaxes(k, -1, -2)), 1.0 / np.sqrt(self.head_dim))
        if mask is not None:
            scores = nx.add(scores, mask)
        att = nx.softmax_lastdim(scores)
        out = nx.reshape(nx.swapaxes(nx.matmul(att, v), 1, 2), (b, t, h))
        return nx.matmul(out, self.wo)

    def named_parameters(self, prefix: str) -> dict[str, Tensor]:
        return {
            f"{prefix}wq": self.wq,
            f"{prefix}wk": self.wk,
            f"{prefix}wv": self.wv,
            f"{prefix}wo": self.wo,
        }


class MoELayer:
    """Token-choice sparse FFN: route, run the selected experts, mix by gate.

    The (token, slot) pairs are grouped by expert with one stable sort, so
    each hit expert runs once on its contiguous slice of gathered rows (the
    grouped dispatch of MegaBlocks, without capacity dropping); the expert
    outputs are concatenated, scaled by their gates and scattered back to
    their tokens once per layer.
    """

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        self.config = config
        self.router = _normal(rng, (config.hidden, config.experts), config.dtype)
        self.experts = [make_expert(config, rng) for _ in range(config.experts)]

    def forward(
        self, x: Tensor
    ) -> tuple[Tensor, RouterLogits, RoutingWeights, SelectedExperts]:
        b, t, h = x.shape
        logits = RouterLogits(nx.matmul(x, self.router))
        weights, selected = route(logits, self.config.temperature, self.config.active)

        n, k = b * t, selected.k
        x2 = nx.reshape(x, (n, h))
        flat = selected.indices.reshape(-1)
        order = np.argsort(flat, kind="stable")
        rows = order // k
        counts = np.bincount(flat, minlength=len(self.experts)).tolist()
        outs, lo = [], 0
        for expert, count in zip(self.experts, counts):
            if count:
                outs.append(expert.forward(nx.take_rows(x2, rows[lo : lo + count])))
                lo += count
        gates = nx.take_rows(nx.reshape(selected.gate_weights, (n * k, 1)), order)
        y = nx.scatter_rows(nx.mul(nx.concat_rows(outs), gates), rows, n)
        return nx.reshape(y, (b, t, h)), logits, weights, selected

    def named_parameters(self, prefix: str) -> dict[str, Tensor]:
        params = {f"{prefix}router": self.router}
        for e, expert in enumerate(self.experts):
            params.update(expert.named_parameters(f"{prefix}experts.{e}."))
        return params


class Block:
    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        self.ln1 = LayerNorm(config.hidden, config.dtype)
        self.attn = CausalAttention(config, rng)
        self.ln2 = LayerNorm(config.hidden, config.dtype)
        self.moe = MoELayer(config, rng)

    def forward(self, x: Tensor, mask: np.ndarray):
        return self.step(x, mask, None)

    def step(self, x: Tensor, mask: np.ndarray | None, cache: KVCache | None):
        """``forward``, attending through ``cache`` when one is given (see
        ``CausalAttention.forward``)."""
        x = nx.add(x, self.attn.forward(self.ln1.forward(x), mask, cache=cache))
        ffn, logits, weights, selected = self.moe.forward(self.ln2.forward(x))
        return nx.add(x, ffn), (logits, weights, selected)

    def named_parameters(self, prefix: str) -> dict[str, Tensor]:
        params: dict[str, Tensor] = {}
        params.update(self.ln1.named_parameters(f"{prefix}ln1."))
        params.update(self.attn.named_parameters(f"{prefix}attn."))
        params.update(self.ln2.named_parameters(f"{prefix}ln2."))
        params.update(self.moe.named_parameters(f"{prefix}moe."))
        return params


LayerArtifacts = tuple[RouterLogits, RoutingWeights, SelectedExperts]


class TransformerLM:
    """Character-level causal LM with one MoE FFN per transformer layer."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        config.validate()
        self.config = config
        rng = np.random.default_rng(seed)
        self.wte = _normal(rng, (config.vocab, config.hidden), config.dtype)
        self.wpe = _normal(rng, (config.seq_len, config.hidden), config.dtype)
        self.blocks = [Block(config, rng) for _ in range(config.layers)]
        self.ln_f = LayerNorm(config.hidden, config.dtype)
        self.lm_head = _normal(rng, (config.hidden, config.vocab), config.dtype)

    def _embed(self, tokens: np.ndarray, start: int) -> Tensor:
        """Token plus position embeddings of (B, t) ids at positions start.."""
        positions = np.arange(start, start + tokens.shape[1])
        return nx.add(nx.embedding(self.wte, tokens), nx.take_rows(self.wpe, positions))

    def forward(self, tokens: np.ndarray) -> tuple[Tensor, list[LayerArtifacts]]:
        """Run the causal LM; returns logits (B, T, vocab) and per-layer routing.

        Token ids must be < vocab and T <= seq_len.
        """
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.ndim == 1:
            tokens = tokens[None, :]
        b, t = tokens.shape
        if t > self.config.seq_len:
            raise ValueError(f"sequence length {t} exceeds seq_len={self.config.seq_len}")
        x = self._embed(tokens, 0)
        mask = _causal_mask(t, t, self.wte.dtype)
        artifacts: list[LayerArtifacts] = []
        for block in self.blocks:
            x, layer_art = block.forward(x, mask)
            artifacts.append(layer_art)
        x = self.ln_f.forward(x)
        logits = nx.matmul(x, self.lm_head)
        return logits, artifacts

    def generate(
        self, prompt: np.ndarray, n: int, mode: str = "greedy"
    ) -> tuple[np.ndarray, RoutingTrace]:
        """Greedy decode ``n`` tokens; the trace covers prompt + generated tokens.

        One prefill runs the prompt, then every later position takes one
        single-token step against per-layer key/value caches, all under
        ``no_grad``; only the newest position goes through ``ln_f`` and
        ``lm_head``. The trace is the routing these steps record (the last
        generated token takes a step for its routing only). By causality it
        equals the trace of one full ``forward`` over the returned tokens up
        to float reassociation: the steps multiply shorter operands, so sums
        may round differently in the last bits.
        """
        if mode != "greedy":
            raise ValueError(f"unsupported generation mode {mode!r}")
        if n < 1:
            raise ValueError("n must be >= 1")
        prompt = np.asarray(prompt, dtype=np.int64).reshape(-1)
        if prompt.size == 0:
            raise ValueError("prompt must contain at least one token")
        total = prompt.size + n
        if total > self.config.seq_len:
            raise ValueError(
                f"prompt ({prompt.size}) + n ({n}) exceeds seq_len={self.config.seq_len}"
            )
        tokens = np.empty(total, dtype=np.int64)
        tokens[: prompt.size] = prompt
        caches = [KVCache(total) for _ in self.blocks]
        selections: list[list[np.ndarray]] = [[] for _ in self.blocks]
        start = 0
        with nx.no_grad():
            for end in range(prompt.size, total + 1):
                x = self._embed(tokens[None, start:end], start)
                for block, cache, sel in zip(self.blocks, caches, selections):
                    x, (_, _, selected) = block.step(x, None, cache)
                    sel.append(selected.indices[0])
                if end < total:
                    last = self.ln_f.forward(Tensor(x.data[:, -1]))
                    tokens[end] = int(np.argmax(nx.matmul(last, self.lm_head).data[0]))
                start = end
        trace = RoutingTrace(
            selections=np.stack([np.concatenate(s) for s in selections]),
            num_experts=self.config.experts,
        )
        return tokens, trace

    def named_parameters(self) -> dict[str, Tensor]:
        params: dict[str, Tensor] = {"wte": self.wte, "wpe": self.wpe}
        for i, block in enumerate(self.blocks):
            params.update(block.named_parameters(f"layers.{i}."))
        params.update(self.ln_f.named_parameters("ln_f."))
        params["lm_head"] = self.lm_head
        return params

    def parameters(self) -> list[Tensor]:
        return list(self.named_parameters().values())

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def save(self, path) -> None:
        arrays = {f"param:{k}": v.data for k, v in self.named_parameters().items()}
        np.savez(
            path,
            __magic__=np.array(CHECKPOINT_MAGIC),
            __config__=np.array(json.dumps(asdict(self.config))),
            **arrays,
        )

    @classmethod
    def load(cls, path) -> "TransformerLM":
        try:
            with np.load(path, allow_pickle=False) as ckpt:
                if "__magic__" not in ckpt or str(ckpt["__magic__"]) != CHECKPOINT_MAGIC:
                    raise DataError(f"{path}: not a {CHECKPOINT_MAGIC} checkpoint")
                config = _config_from_json(path, str(ckpt["__config__"]))
                model = cls(config, seed=0)
                params = model.named_parameters()
                for name, tensor in params.items():
                    key = f"param:{name}"
                    if key not in ckpt:
                        raise DataError(f"{path}: missing parameter {name}")
                    arr = ckpt[key]
                    if arr.shape != tensor.data.shape:
                        raise DataError(
                            f"{path}: parameter {name} has shape {arr.shape}, "
                            f"expected {tensor.data.shape}"
                        )
                    tensor.data = arr.astype(config.dtype)
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
            raise DataError(f"{path}: cannot read checkpoint ({exc})") from exc
        return model
