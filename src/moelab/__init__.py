"""moelab: a desk-scale sparse mixture-of-experts laboratory.

Token-choice routing, dense and weight-decomposed experts, sequence-level load
balancing, the block-wise expert selection loss, and an expert-offload replay
simulator with an analytic latency/memory model, all on a small numpy autodiff
core with vectorized numpy hot kernels.
"""

from .config import ModelConfig
from .errors import DataError
from .model import RoutingTrace, TransformerLM
from .numerics import Tensor, finite_difference_grad
from .routing import RoutingWeights, SelectedExperts, route
from .trainer import TrainConfig

__version__ = "0.1.0"

__all__ = [
    "DataError",
    "ModelConfig",
    "RoutingTrace",
    "RoutingWeights",
    "SelectedExperts",
    "Tensor",
    "TrainConfig",
    "TransformerLM",
    "finite_difference_grad",
    "route",
    "__version__",
]
