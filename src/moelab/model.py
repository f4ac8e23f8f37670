"""Decoder-only toy transformer whose FFN sublayers are sparse MoE layers.

Pre-norm residual blocks: learned positional embeddings, multi-head causal
attention, and a token-choice MoE feed-forward per layer. Every forward pass
returns the per-layer routing artifacts so losses and traces can be computed
without re-running the model. The router consumes the same normalized hidden
state the experts consume.
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
    """Expert selections of one sequence: (layers, T, K) integer ids.

    ``weights`` optionally carries the full routing probability rows
    (layers, T, E) for soft metrics; trace files store selections only.
    """

    selections: np.ndarray
    num_experts: int
    weights: np.ndarray | None = None

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

    def forward(self, x: Tensor, mask: np.ndarray) -> Tensor:
        b, t, h = x.shape

        def split(m: Tensor) -> Tensor:
            return nx.swapaxes(nx.reshape(m, (b, t, self.heads, self.head_dim)), 1, 2)

        q = split(nx.matmul(x, self.wq))
        k = split(nx.matmul(x, self.wk))
        v = split(nx.matmul(x, self.wv))
        scores = nx.mul(nx.matmul(q, nx.swapaxes(k, -1, -2)), 1.0 / np.sqrt(self.head_dim))
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
    """Token-choice sparse FFN: route, run the selected experts, mix by gate."""

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

        n = b * t
        x2 = nx.reshape(x, (n, h))
        gates2 = nx.reshape(selected.gate_weights, (n, selected.k))
        sel2 = selected.indices.reshape(n, selected.k)

        y: Tensor | None = None
        for e, expert in enumerate(self.experts):
            rows, slots = np.nonzero(sel2 == e)
            if rows.size == 0:
                continue
            out = expert.forward(nx.take_rows(x2, rows))
            gate = nx.reshape(nx.take_at(gates2, rows, slots), (rows.size, 1))
            part = nx.scatter_rows(nx.mul(out, gate), rows, n)
            y = part if y is None else nx.add(y, part)
        assert y is not None
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
        x = nx.add(x, self.attn.forward(self.ln1.forward(x), mask))
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

    def _mask(self, t: int) -> np.ndarray:
        m = np.zeros((t, t), dtype=self.wte.dtype)
        m[np.triu_indices(t, 1)] = -1e30
        return m

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
        x = nx.add(nx.embedding(self.wte, tokens), nx.take_rows(self.wpe, np.arange(t)))
        mask = self._mask(t)
        artifacts: list[LayerArtifacts] = []
        for block in self.blocks:
            x, layer_art = block.forward(x, mask)
            artifacts.append(layer_art)
        x = self.ln_f.forward(x)
        logits = nx.matmul(x, self.lm_head)
        return logits, artifacts

    def traces(self, artifacts: list[LayerArtifacts]) -> list[RoutingTrace]:
        """One RoutingTrace per batch sequence, stacked over layers."""
        sel = np.stack([a[2].indices for a in artifacts], axis=0)  # (L, B, T, K)
        w = np.stack([a[1].values.data for a in artifacts], axis=0)
        out = []
        for bi in range(sel.shape[1]):
            out.append(
                RoutingTrace(
                    selections=sel[:, bi],
                    num_experts=self.config.experts,
                    weights=w[:, bi],
                )
            )
        return out

    def generate(
        self, prompt: np.ndarray, n: int, mode: str = "greedy"
    ) -> tuple[np.ndarray, RoutingTrace]:
        """Greedy decode ``n`` tokens; the trace covers prompt + generated tokens.

        Causality makes the incremental routing decisions identical to one
        final full-sequence pass, which is what the returned trace is built
        from.
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
        tokens = prompt.copy()
        for _ in range(n):
            logits, _ = self.forward(tokens[None, :])
            nxt = int(np.argmax(logits.data[0, -1]))
            tokens = np.append(tokens, nxt)
        _, artifacts = self.forward(tokens[None, :])
        trace = self.traces(artifacts)[0]
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
