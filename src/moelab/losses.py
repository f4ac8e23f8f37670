"""Training objective pieces: sequence-level load balancing, the block-wise
expert selection (BlES) loss, and the weighted total they form with the LM
cross-entropy (``numerics.cross_entropy``).

The BlES loss is the product of two terms computed over consecutive tokens:

* a hard term: the normalized count of realized expert replacements, an
  integer statistic of the discrete top-k selections (no gradient), and
* a soft term: the total variation of the routing probability rows along the
  token axis (differentiable).

The hard count scales the soft term, so gradient pressure on the router is
proportional to how much churn the current selections actually exhibit.

Each function takes one type per argument: expert selections as (B, T, K)
integer arrays (``SelectedExperts.indices``) and routing weights or mean
probabilities as Tensors (``RoutingWeights.values``); count-based fractions,
which carry no gradient, are plain arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from . import numerics as nx
from .numerics import Tensor


@dataclass
class BlesBreakdown:
    """All intermediate values of one BlES evaluation.

    ``H`` double-counts transitions (one out-swap plus one in-swap each), so
    it is even whenever every token selects exactly K distinct experts.
    ``loss_term`` is the differentiable scalar node; ``loss`` its float value,
    equal to H_norm * L_norm.
    """

    H: int
    H_norm: float
    L: float
    L_norm: float
    loss: float
    loss_term: Tensor


def hard_replacements(sel: np.ndarray, num_experts: int) -> tuple[int, float]:
    """Count hard expert replacements between consecutive tokens.

    ``sel`` is (B, T, K) integer expert ids in [0, num_experts). Returns the
    raw double-counted transition total H and its normalization
    floor(H / 2) / (B * K * (T - 1)). A single-token sequence has no
    transitions and returns (0, 0.0). ``num_experts`` sizes nothing: the
    count compares ids, so it holds for any expert count.
    """
    if sel.ndim != 3:
        raise ValueError(f"selection tensor must be (B, T, K), got {sel.shape}")
    b, t, k = sel.shape
    if t < 2:
        return 0, 0.0
    h = _kernels.transition_count(sel)
    h_norm = (h // 2) / (b * k * (t - 1))
    return h, h_norm


def soft_selection(w: Tensor) -> tuple[Tensor, Tensor]:
    """Total variation of routing weights along the token axis.

    L sums |W[b, t+1, e] - W[b, t, e]| over everything; L_norm divides by
    B * T (the printed normalizer, kept as-is even though the hard term
    normalizes by T - 1). Both are differentiable scalar tensors; a
    single-token sequence scores 0 with a zero gradient.
    """
    if w.ndim != 3:
        raise ValueError(f"routing weights must be (B, T, E), got {w.shape}")
    b, t, _ = w.shape
    total = nx.total_variation(w)
    return total, nx.mul(total, 1.0 / (b * t))


def bles_loss(weights: Tensor, sel: np.ndarray, num_experts: int) -> BlesBreakdown:
    """Block-wise expert selection loss: H_norm * L_norm of routing weights
    (B, T, E) and selections (B, T, K).

    H_norm enters as a plain (detached) scalar factor; the gradient of the
    loss with respect to the router logits is exactly H_norm times the
    gradient of L_norm. ``num_experts`` sizes nothing, as in
    ``hard_replacements``.
    """
    h, h_norm = hard_replacements(sel, num_experts)
    l_total, l_norm = soft_selection(weights)
    loss_term = nx.mul(l_norm, h_norm)
    return BlesBreakdown(
        H=h,
        H_norm=h_norm,
        L=l_total.item(),
        L_norm=l_norm.item(),
        loss=loss_term.item(),
        loss_term=loss_term,
    )


def load_balance_loss(f: np.ndarray, p: Tensor, num_experts: int) -> Tensor:
    """Sequence-level load balancing loss E * sum_e f_e * P_e.

    ``f`` holds count-based assignment fractions (no gradient) and ``p`` the
    mean routing probabilities, both with experts on the last axis; any
    leading axes (sequences, layers) are averaged. Minimized at 1.0 when both
    are uniform; a one-hot collapse scores E.
    """
    if f.shape != p.shape or f.shape[-1] != num_experts:
        raise ValueError(
            f"f {f.shape} and P {p.shape} must match with last axis {num_experts}"
        )
    per_group = nx.sum_(nx.mul(p, f), axis=-1)
    return nx.mul(nx.mean_(per_group), float(num_experts))


def load_balance_loss_model_aggregated(
    f_layers: np.ndarray, p_layers: np.ndarray, num_experts: int
) -> float:
    """Model-level variant that pools usage across layers before scoring.

    Exists to demonstrate the blind spot of model-level balancing: a model
    that deterministically picks expert l in layer l looks perfectly balanced
    here (loss 1.0) while every single layer is fully collapsed (per-layer
    sequence-level loss E). Not used for training.
    """
    f_layers = np.asarray(f_layers, dtype=np.float64)
    p_layers = np.asarray(p_layers, dtype=np.float64)
    if f_layers.shape != p_layers.shape or f_layers.shape[-1] != num_experts:
        raise ValueError("f and P must share shape (layers, ..., E)")
    f_bar = f_layers.mean(axis=0)
    p_bar = p_layers.mean(axis=0)
    return float(num_experts * (f_bar * p_bar).sum(axis=-1).mean())


def total_loss(ce: Tensor, lb: Tensor, bles: Tensor, alpha_lb: float,
               lambda_bles: float) -> Tensor:
    """Weighted objective ce + alpha_lb * lb + lambda_bles * bles.

    The gradient of the total is the weighted sum of the component gradients.
    The two auxiliary terms are summed first, then added to ce.
    """
    if alpha_lb < 0 or lambda_bles < 0:
        raise ValueError("loss coefficients must be non-negative")
    return nx.add(ce, nx.add(nx.mul(lb, alpha_lb), nx.mul(bles, lambda_bles)))
