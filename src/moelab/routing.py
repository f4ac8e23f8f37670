"""Token-choice routing: temperature softmax over router logits, top-k selection.

``route`` takes the router logits as a plain (B, T, E) Tensor and checks their
shape and finiteness itself. The router gives each token a full probability
row; its k heaviest experts are selected, ties going to the lowest index, and
their weights renormalized to sum to one. Gradients reach the logits only
through the selected (renormalized) weights; the selection itself carries none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from . import numerics as nx
from .numerics import Tensor


@dataclass
class RoutingWeights:
    """Softmax routing probabilities, shape (B, T, E); rows sum to 1."""

    values: Tensor


@dataclass
class SelectedExperts:
    """Top-k selection: integer ``indices`` (B, T, K) and renormalized
    ``gate_weights`` (B, T, K) that sum to 1 per token."""

    indices: np.ndarray
    gate_weights: Tensor

    @property
    def k(self) -> int:
        return self.indices.shape[-1]


def route(logits: Tensor, temperature: float, k: int) -> tuple[RoutingWeights, SelectedExperts]:
    """Compute routing weights from (B, T, E) router logits and select each
    token's top-k experts.

    The logits must be finite and the temperature positive (``softmax_lastdim``
    checks it). Ties go to the lowest expert index so replayed traces are
    reproducible. With k == E the gate weights reduce to the full softmax row.
    """
    if logits.ndim != 3:
        raise ValueError(f"router logits must be (B, T, E), got {logits.shape}")
    if not np.all(np.isfinite(logits.data)):
        raise ValueError("router logits contain non-finite values")
    b, t, num_experts = logits.shape
    if not 1 <= k <= num_experts:
        raise ValueError(f"k={k} must be in [1, E={num_experts}]")

    weights = nx.softmax_lastdim(logits, temperature)
    flat = weights.data.reshape(b * t, num_experts)
    indices = _kernels.topk_lastdim(flat, k).reshape(b, t, k)

    return RoutingWeights(weights), SelectedExperts(indices, nx.take_normalized(weights, indices))


def expert_load_fractions(
    selected: SelectedExperts, weights: RoutingWeights
) -> tuple[np.ndarray, Tensor]:
    """Per-sequence expert statistics for the load-balancing loss.

    Returns ``f`` (B, E): the fraction of the T*K assignment slots each expert
    received, computed by counting (no gradient); and ``P`` (B, E): the mean
    routing probability per expert over the sequence (differentiable).
    """
    w = weights.values
    b, t, num_experts = w.shape
    if selected.indices.shape[:2] != (b, t):
        raise ValueError(
            f"selection shape {selected.indices.shape} inconsistent with weights {w.shape}"
        )
    counts = _kernels.usage_counts(selected.indices, num_experts)
    f = counts.astype(np.float64) / (t * selected.k)
    p = nx.mean_(w, axis=1)
    return f, p
