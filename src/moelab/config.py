"""Model architecture configuration shared by the expert, model and trainer code.

Configs are frozen: ``__post_init__`` is the only place that validates, and
every changed copy (``dataclasses.replace``, as ``trainer.configure`` makes
for config-file keys, CLI flags and experiment variants) runs it again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields


@dataclass(frozen=True)
class ModelConfig:
    """Shape and loss hyperparameters of the toy MoE language model.

    ``rank`` only matters for ``expert_kind="wd"``; 0 means "use hidden // 2",
    the default decomposition size. ``inter`` of 0 means 4 * hidden.
    """

    layers: int = 2
    heads: int = 4
    hidden: int = 64
    inter: int = 0
    vocab: int = 256
    seq_len: int = 128
    experts: int = 8
    active: int = 2
    expert_kind: str = "dense"
    rank: int = 0
    temperature: float = 1.0
    lb_coef: float = 0.01
    bles_coef: float = 0.1
    dtype: str = "float64"

    def __post_init__(self) -> None:
        if self.inter == 0:  # the instance is frozen, hence object.__setattr__
            object.__setattr__(self, "inter", 4 * self.hidden)
        if self.rank == 0:
            object.__setattr__(self, "rank", max(1, self.hidden // 2))
        if self.layers < 1 or self.heads < 1 or self.hidden < 1 or self.vocab < 2:
            raise ValueError("layers, heads, hidden must be >= 1 and vocab >= 2")
        if self.hidden % self.heads != 0:
            raise ValueError(f"hidden={self.hidden} not divisible by heads={self.heads}")
        if not 1 <= self.active <= self.experts:
            raise ValueError(f"active={self.active} must be in [1, experts={self.experts}]")
        if self.expert_kind not in ("dense", "wd"):
            raise ValueError(f"expert_kind must be 'dense' or 'wd', got {self.expert_kind!r}")
        if not 1 <= self.rank <= min(self.hidden, self.inter):
            raise ValueError(
                f"rank={self.rank} must be in [1, min(hidden, inter)="
                f"{min(self.hidden, self.inter)}]"
            )
        # written so that NaN fails every range check
        if not 0 < self.temperature < math.inf:
            raise ValueError(f"temperature must be positive and finite, got {self.temperature}")
        if not (0 <= self.lb_coef < math.inf and 0 <= self.bles_coef < math.inf):
            raise ValueError("loss coefficients must be finite and non-negative")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"dtype must be float32 or float64, got {self.dtype!r}")


# field name -> the type of its default: a checkpoint's JSON value must have it
# (an int passes for a float); ``trainer.FIELD_TYPES`` adds the training fields
MODEL_FIELDS = {f.name: type(f.default) for f in fields(ModelConfig)}
