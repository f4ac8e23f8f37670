"""Feed-forward expert networks: standard dense and weight-decomposed variants.

Both use the SwiGLU form down(SiLU(gate(x)) * up(x)), one ``swiglu_ffn``
autodiff node per call. The weight-decomposed (WD) expert replaces each n x m
projection with factors L (n x r) and R (r x m) and never materializes the
n x m product, so its parameter and FLOP cost is r * (n + m) per projection
instead of n * m. Both are ``numerics.Module``s: their parameters, and the
order in which they are named, are the projections ``__init__`` assigns.
"""

from __future__ import annotations

import numpy as np

from . import numerics as nx
from .config import ModelConfig
from .numerics import Tensor


INIT_STD = 0.02


def _normal(rng: np.random.Generator | None, shape, dtype: str,
            std: float = INIT_STD) -> Tensor:
    """A parameter drawn from N(0, std^2), or with no ``rng`` allocated and
    left for ``TransformerLM.load`` to fill."""
    if rng is None:
        return nx.parameter(np.empty(shape, dtype))
    return nx.parameter(rng.normal(0.0, std, size=shape).astype(dtype))


class DenseExpert(nx.Module):
    """Plain SiLU-gated FFN expert with three full projection matrices."""

    def __init__(
        self,
        hidden: int,
        inter: int,
        rng: np.random.Generator,
        dtype: str = "float64",
    ):
        self.w_gate = _normal(rng, (hidden, inter), dtype)
        self.w_up = _normal(rng, (hidden, inter), dtype)
        self.w_down = _normal(rng, (inter, hidden), dtype)

    def forward(self, x: Tensor) -> Tensor:
        return nx.swiglu_ffn(x, (self.w_gate,), (self.w_up,), (self.w_down,))


class WDExpert(nx.Module):
    """Weight-decomposed expert: every projection is a rank-r factor pair.

    Each projection applies as (x @ L) @ R. Factors are initialized from a
    zero-mean normal with std INIT_STD / sqrt(r), which keeps the implied
    product matrices small at init; the residual stream carries the signal
    until the experts grow into it.
    """

    def __init__(
        self,
        hidden: int,
        inter: int,
        rank: int,
        rng: np.random.Generator,
        dtype: str = "float64",
    ):
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        fstd = INIT_STD / np.sqrt(rank)
        self.l_gate = _normal(rng, (hidden, rank), dtype, fstd)
        self.r_gate = _normal(rng, (rank, inter), dtype, fstd)
        self.l_up = _normal(rng, (hidden, rank), dtype, fstd)
        self.r_up = _normal(rng, (rank, inter), dtype, fstd)
        self.l_down = _normal(rng, (inter, rank), dtype, fstd)
        self.r_down = _normal(rng, (rank, hidden), dtype, fstd)

    @classmethod
    def from_factors(cls, factors: dict[str, np.ndarray]) -> "WDExpert":
        """Build an expert from explicit factor arrays (keys as in named_parameters)."""
        hidden, rank = factors["l_gate"].shape
        inter = factors["r_gate"].shape[1]
        expert = cls(hidden, inter, rank, np.random.default_rng(0))
        for name, arr in factors.items():
            getattr(expert, name).data[...] = arr
        return expert

    def forward(self, x: Tensor) -> Tensor:
        return nx.swiglu_ffn(x, (self.l_gate, self.r_gate), (self.l_up, self.r_up),
                             (self.l_down, self.r_down))


def make_expert(config: ModelConfig, rng: np.random.Generator):
    if config.expert_kind == "wd":
        return WDExpert(config.hidden, config.inter, config.rank, rng, config.dtype)
    return DenseExpert(config.hidden, config.inter, rng, config.dtype)


def per_expert_param_count(config: ModelConfig) -> int:
    """Parameters in a single expert FFN under the configured kind."""
    if config.expert_kind == "wd":
        return 3 * config.rank * (config.hidden + config.inter)
    return 3 * config.hidden * config.inter


def shared_param_count(config: ModelConfig) -> int:
    """Parameters outside the experts: embeddings, attention, norms, routers, head.

    Always active regardless of K; attention is four hidden x hidden
    projections per layer, norms carry gain + bias, output head is untied.
    """
    h = config.hidden
    emb = config.vocab * h + config.seq_len * h
    attn = 4 * h * h
    norms = 2 * 2 * h
    router = h * config.experts
    per_layer = attn + norms + router
    head = h * config.vocab + 2 * h
    return emb + config.layers * per_layer + head


def expert_param_count(config: ModelConfig) -> tuple[int, int]:
    """(active, total) parameter counts for a config.

    active counts the K experts a token actually runs; total counts all E.
    total - active == layers * (E - K) * per_expert_params exactly.
    """
    shared = shared_param_count(config)
    per_expert = per_expert_param_count(config)
    active = shared + config.layers * config.active * per_expert
    total = shared + config.layers * config.experts * per_expert
    return active, total


def implied_per_expert_params(
    active_params: float, total_params: float, layers: int, experts: int, k: int
) -> float:
    """Invert reported (active, total) counts to a per-expert parameter count.

    Useful for sanity-checking published model cards: the difference between
    total and active parameters is exactly layers * (E - K) expert copies.
    """
    if experts <= k:
        raise ValueError("requires experts > k")
    return (total_params - active_params) / (layers * (experts - k))
