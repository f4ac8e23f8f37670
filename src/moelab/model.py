"""Decoder-only toy transformer whose FFN sublayers are sparse MoE layers.

Pre-norm residual blocks: learned positional embeddings, multi-head causal
attention, and a token-choice MoE feed-forward per layer. Every forward pass
returns the per-layer routing artifacts so losses and traces can be computed
without re-running the model. The router consumes the same normalized hidden
state the experts consume. Greedy decoding runs one prefill over the prompt and
then one single-token step per position against per-layer key/value caches.
Every part below the LM is a ``numerics.Module``, whose parameters are the
tensors its ``__init__`` assigns; the LM lists its own and names its blocks
``layers.i``, the checkpoint's names.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import asdict, dataclass

import numpy as np

from . import numerics as nx
from .config import MODEL_FIELDS, ModelConfig
from .errors import DataError
from .experts import _normal, make_expert
from .numerics import Tensor
from .routing import RoutingWeights, SelectedExperts, route

CHECKPOINT_MAGIC = "moelab-ckpt-v1"


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
        if self.selections.size == 0:
            raise DataError(f"trace selections are empty: {self.selections.shape}")
        if self.selections.min() < 0 or self.selections.max() >= self.num_experts:
            raise DataError(f"trace contains expert ids outside [0, {self.num_experts})")
        ids = np.sort(self.selections, axis=-1)
        if (ids[..., 1:] == ids[..., :-1]).any():  # every counter assumes K distinct ids
            raise DataError("trace selections repeat an expert id within a token")

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
    for key, value in raw.items():
        kind = MODEL_FIELDS.get(key)
        if kind is None or not (type(value) is kind or kind is float and type(value) is int):
            raise DataError(f"{path}: bad checkpoint config entry {key}={value!r}")
    return ModelConfig(**raw)


class LayerNorm(nx.Module):
    def __init__(self, dim: int, dtype: str):
        self.gain = nx.parameter(np.ones(dim, dtype=dtype))
        self.bias = nx.parameter(np.zeros(dim, dtype=dtype))

    def forward(self, x: Tensor) -> Tensor:
        return nx.layer_norm(x, self.gain, self.bias)


def _causal_mask(t: int, end: int, dtype) -> np.ndarray:
    """Additive mask for ``t`` query positions ending at position ``end - 1``
    over keys 0..end-1: query i sees keys up to ``end - t + i``."""
    return np.triu(np.full((t, end), -1e30, dtype=dtype), end - t + 1)


class KVCache:
    """Keys and values of one sequence in one attention layer, for decoding.

    The (1, capacity, hidden) buffers are allocated at the first write, in the
    dtype of the projected keys; the first ``length`` positions are filled.
    Forward only: no gradient flows through the cache.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.length = 0
        self.k: np.ndarray | None = None
        self.v: np.ndarray | None = None

    def extend(self, k: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Append (1, t, hidden) keys and values; return the filled prefix."""
        if self.k is None:
            shape = (1, self.capacity, k.shape[2])
            self.k, self.v = np.empty(shape, k.dtype), np.empty(shape, v.dtype)
        start, self.length = self.length, self.length + k.shape[1]
        self.k[:, start : self.length] = k
        self.v[:, start : self.length] = v
        return self.k[:, : self.length], self.v[:, : self.length]


class CausalAttention(nx.Module):
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
        t = x.shape[1]
        q = nx.matmul(x, self.wq)
        k = nx.matmul(x, self.wk)
        v = nx.matmul(x, self.wv)
        if cache is not None:
            k_all, v_all = cache.extend(k.data, v.data)
            k, v = Tensor(k_all), Tensor(v_all)
            if t > 1:
                mask = _causal_mask(t, cache.length, self.wq.dtype)
        out = nx.attention(q, k, v, self.heads, 1.0 / np.sqrt(self.head_dim), mask)
        return nx.matmul(out, self.wo)


class MoELayer(nx.Module):
    """Token-choice sparse FFN: route, run the selected experts, mix by gate.

    The (token, slot) pairs are grouped by expert with one stable sort, so
    each hit expert runs once on its contiguous slice of gathered rows (the
    grouped dispatch of MegaBlocks, without capacity dropping); one
    ``combine_rows`` node per layer mixes the expert outputs back into their
    tokens by gate.
    """

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        self.config = config
        self.router = _normal(rng, (config.hidden, config.experts), config.dtype)
        self.experts = [make_expert(config, rng) for _ in range(config.experts)]

    def forward(self, x: Tensor) -> tuple[Tensor, Tensor, RoutingWeights, SelectedExperts]:
        logits = nx.matmul(x, self.router)
        weights, selected = route(logits, self.config.temperature, self.config.active)

        flat = selected.indices.reshape(-1)
        order = np.argsort(flat, kind="stable")
        rows = order // selected.k
        counts = np.bincount(flat, minlength=len(self.experts)).tolist()
        outs, lo = [], 0
        for expert, count in zip(self.experts, counts):
            if count:
                outs.append(expert.forward(nx.take_rows(x, rows[lo : lo + count])))
                lo += count
        y = nx.combine_rows(outs, selected.gate_weights, order)
        return y, logits, weights, selected


class Block(nx.Module):
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


LayerArtifacts = tuple[Tensor, RoutingWeights, SelectedExperts]  # router logits first


class TransformerLM:
    """Character-level causal LM with one MoE FFN per transformer layer."""

    def __init__(self, config: ModelConfig, seed: int | None = 0):
        """Parameters drawn from ``seed``; ``seed=None`` leaves the parameters
        for ``load`` to fill, its only caller."""
        self.config = config
        rng = None if seed is None else np.random.default_rng(seed)
        self.wte = _normal(rng, (config.vocab, config.hidden), config.dtype)
        self.wpe = _normal(rng, (config.seq_len, config.hidden), config.dtype)
        self.blocks = [Block(config, rng) for _ in range(config.layers)]
        self.ln_f = LayerNorm(config.hidden, config.dtype)
        self.lm_head = _normal(rng, (config.hidden, config.vocab), config.dtype)

    def _embed(self, tokens: np.ndarray, start: int) -> Tensor:
        """Token plus position embeddings of (B, t) ids at positions start..;
        the ids come from outside, so they are range-checked (numpy would wrap
        a negative one)."""
        lo, hi, vocab = tokens.min(), tokens.max(), self.config.vocab
        if lo < 0 or hi >= vocab:
            raise ValueError(f"token ids out of range [0, {vocab}): min={lo}, max={hi}")
        positions = np.arange(start, start + tokens.shape[1])
        return nx.add(nx.take_rows(self.wte, tokens), nx.take_rows(self.wpe, positions))

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

    def generate(self, prompt: np.ndarray, n: int) -> tuple[np.ndarray, RoutingTrace]:
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
        """Listed, not walked: the checkpoint names ``self.blocks`` ``layers.i``."""
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
        """The model ``save`` wrote to ``path``. Its parameters are the
        checkpoint's arrays as read, cast only where their dtype differs from
        the config's; no random init is drawn. A missing or misshapen
        parameter, or a file that is not a checkpoint, raises DataError."""
        try:
            with np.load(path, allow_pickle=False) as ckpt:
                if "__magic__" not in ckpt or str(ckpt["__magic__"]) != CHECKPOINT_MAGIC:
                    raise DataError(f"{path}: not a {CHECKPOINT_MAGIC} checkpoint")
                config = _config_from_json(path, str(ckpt["__config__"]))
                model = cls(config, seed=None)
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
                    tensor.data = arr.astype(config.dtype, copy=False)
        # TypeError: a plain .npy payload loads as an array, not an archive
        except (OSError, EOFError, ValueError, KeyError, TypeError, zipfile.BadZipFile) as exc:
            raise DataError(f"{path}: cannot read checkpoint ({exc})") from exc
        return model
