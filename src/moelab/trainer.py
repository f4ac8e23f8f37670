"""Data ingestion, optimization loop, and the churn-vs-baseline experiment.

Training is seed-deterministic end to end: corpus split, batch order, model
init and evaluation batches all derive from explicit integer seeds, so a rerun
on the same machine with the same BLAS thread count reproduces the metrics
stream bit for bit. Another thread count, or another CPU under a BLAS built to
pick its kernels at run time (OpenBLAS ``DYNAMIC_ARCH``), may sum matrix
products in another order and round differently in the last bits.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import _kernels
from . import numerics as nx
from .config import ModelConfig
from .errors import DataError
from .experts import per_expert_param_count, shared_param_count
from .losses import bles_loss, load_balance_loss, total_loss
from .model import RoutingTrace, TransformerLM
from .offload_sim import OffloadCostModel, delta_uniform, replay_offload
from .routing import expert_load_fractions

SPLIT_BLOCK = 256  # corpus split granularity in tokens

lm_cross_entropy = nx.cross_entropy  # compute_losses calls it through this module name


@dataclass(frozen=True)
class TrainConfig:
    """Everything the optimization loop needs besides the model shape.

    The learning rate warms up linearly, then decays on a cosine to
    ``min_lr_frac`` of ``lr``. ``grad_clip`` is a global-norm cap; 0 disables it.
    """

    corpus: str = ""
    steps: int = 1000
    batch_size: int = 8
    seq_len: int = 128
    lr: float = 3e-3
    warmup_steps: int = 50
    min_lr_frac: float = 0.1
    beta1: float = 0.9
    beta2: float = 0.99
    adam_eps: float = 1e-8
    grad_clip: float = 1.0
    seed: int = 0
    val_frac: float = 0.1
    eval_interval: int = 200
    eval_batches: int = 8

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.seq_len < 2:
            raise ValueError("seq_len must be >= 2 (losses compare token pairs)")
        if not 0 < self.val_frac < 1:
            raise ValueError("val_frac must be in (0, 1)")
        if self.batch_size < 1 or self.eval_batches < 1 or self.eval_interval < 1:
            raise ValueError("batch_size, eval_batches and eval_interval must be >= 1")
        # written so that NaN fails every range check; lr = 0 freezes the parameters
        if not 0 <= self.lr < math.inf:
            raise ValueError(f"lr must be finite and >= 0, got {self.lr}")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError(f"beta1={self.beta1} and beta2={self.beta2} must be in [0, 1)")
        if not 0 < self.adam_eps < math.inf:
            raise ValueError(f"adam_eps must be positive and finite, got {self.adam_eps}")
        if not 0 <= self.min_lr_frac <= 1:
            raise ValueError(f"min_lr_frac must be in [0, 1], got {self.min_lr_frac}")
        if not 0 <= self.grad_clip < math.inf:  # 0 disables clipping
            raise ValueError(f"grad_clip must be finite and >= 0, got {self.grad_clip}")
        if self.warmup_steps < 0:
            raise ValueError(f"warmup_steps must be >= 0, got {self.warmup_steps}")


# field name -> annotation ("int", "float" or "str")
_MODEL_FIELDS = {f.name: f.type for f in fields(ModelConfig)}
_TRAIN_FIELDS = {f.name: f.type for f in fields(TrainConfig)}


def _split_overrides(overrides: dict) -> tuple[dict, dict]:
    """Send each key to the config that has the field (``seq_len`` to both);
    an unknown key raises ValueError."""
    unknown = overrides.keys() - _MODEL_FIELDS.keys() - _TRAIN_FIELDS.keys()
    if unknown:
        raise ValueError(f"unknown override {min(unknown)!r}")
    return ({k: v for k, v in overrides.items() if k in _MODEL_FIELDS},
            {k: v for k, v in overrides.items() if k in _TRAIN_FIELDS})


def configure(overrides: dict, model_cfg: ModelConfig | None = None,
              train_cfg: TrainConfig | None = None) -> tuple[ModelConfig, TrainConfig]:
    """Config-file keys, CLI flags and experiment variants all apply here:
    ``dataclasses.replace`` copies of the given configs, or new configs where
    none is given, each validated by its ``__post_init__``."""
    model_kw, train_kw = _split_overrides(overrides)
    return (
        ModelConfig(**model_kw) if model_cfg is None else replace(model_cfg, **model_kw),
        TrainConfig(**train_kw) if train_cfg is None else replace(train_cfg, **train_kw),
    )


def load_config_file(path) -> tuple[ModelConfig, TrainConfig]:
    """Parse a `key = value` config file into the two config objects.

    Lines starting with '#' and blank lines are ignored. Keys are the union of
    ModelConfig and TrainConfig field names; anything else is rejected with its
    line. The keys go through ``configure``.
    """
    values: dict = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: cannot read config ({exc})") from exc
    for i, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"{path}: line {i}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        hint = _MODEL_FIELDS.get(key, _TRAIN_FIELDS.get(key))
        if hint is None:
            raise DataError(f"{path}: line {i}: unknown key {key!r}")
        try:
            values[key] = {"int": int, "float": float}.get(hint, str)(value)
        except ValueError as exc:
            raise DataError(f"{path}: line {i}: bad value for {key} ({exc})") from exc
    try:
        return configure(values)
    except ValueError as exc:
        raise DataError(f"{path}: invalid configuration ({exc})") from exc


def encode_text(text: str) -> np.ndarray:
    """UTF-8 byte-level token ids; the vocabulary is the 256 byte values."""
    return np.frombuffer(text.encode("utf-8"), dtype=np.uint8).astype(np.int64)


def decode_ids(ids: np.ndarray) -> str:
    return bytes(int(i) & 0xFF for i in np.asarray(ids).reshape(-1)).decode(
        "utf-8", errors="replace"
    )


@dataclass
class Corpus:
    """Byte-level token streams; vocab is fixed at 256. ``ingest_corpus``
    holds them as the file's bytes (``uint8``), and ``sample_batch`` widens
    only the windows it draws to int64."""

    train_ids: np.ndarray
    val_ids: np.ndarray

    def split_hashes(self) -> tuple[str, str]:
        return (
            hashlib.sha256(self.train_ids.astype(np.uint8).tobytes()).hexdigest(),
            hashlib.sha256(self.val_ids.astype(np.uint8).tobytes()).hexdigest(),
        )


def ingest_corpus(path, val_frac: float = 0.1, seed: int = 0) -> Corpus:
    """Read a UTF-8 text file into byte ids and split train/validation.

    The stream is cut into the ``np.array_split`` blocks of about
    ``SPLIT_BLOCK`` bytes, which are shuffled with the seed before splitting,
    so both splits sample the whole file while remaining fully deterministic.
    The splits are writable ``uint8`` copies of the file's bytes, taken
    through one per-byte mask.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"{path}: cannot read corpus ({exc})") from exc
    if not data:
        raise DataError(f"{path}: corpus is empty")
    ids = np.frombuffer(data, dtype=np.uint8)
    n_blocks = max(1, len(ids) // SPLIT_BLOCK)
    order = np.random.default_rng(seed).permutation(n_blocks)
    n_val = max(1, int(round(val_frac * n_blocks)))
    if n_val >= n_blocks:
        raise DataError(f"{path}: corpus too small to split at val_frac={val_frac}")
    is_val = np.zeros(n_blocks, dtype=bool)
    is_val[order[:n_val]] = True
    # np.array_split's sizes: the first len % n_blocks blocks take one byte more
    size, longer = divmod(len(ids), n_blocks)
    sizes = np.full(n_blocks, size)
    sizes[:longer] += 1
    val_mask = np.repeat(is_val, sizes)
    return Corpus(train_ids=ids[~val_mask], val_ids=ids[val_mask])


_SYLLABLES = (
    "ba be bi bo bu da de di do du ka ke ki ko ku la le li lo lu "
    "ma me mi mo mu na ne ni no nu ra re ri ro ru sa se si so su "
    "ta te ti to tu va ve vi vo vu za ze zi zo zu"
).split()


def synthesize_corpus(path, n_bytes: int, seed: int = 0) -> None:
    """Write a deterministic pseudo-text corpus of roughly n_bytes.

    Sentences over a closed synthetic vocabulary: enough structure for a toy
    character-level model to make steady progress without any download.
    """
    rng = np.random.default_rng(seed)
    words = np.array(
        [
            "".join(rng.choice(_SYLLABLES, size=rng.integers(2, 5)))
            for _ in range(300)
        ]
    )
    parts: list[str] = []
    total = 0
    while total < n_bytes:
        n_words = int(rng.integers(4, 13))
        sentence = " ".join(rng.choice(words, size=n_words))
        sentence = sentence.capitalize() + ("." if rng.random() < 0.8 else "?")
        if rng.random() < 0.1:
            sentence += "\n"
        else:
            sentence += " "
        parts.append(sentence)
        total += len(sentence)
    Path(path).write_text("".join(parts)[:n_bytes], encoding="utf-8")


def sample_batch(
    ids: np.ndarray, batch_size: int, seq_len: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Random contiguous windows: int64 inputs (B, T) and next-token targets
    (B, T), whatever integer dtype ``ids`` has."""
    if len(ids) < seq_len + 1:
        raise DataError(
            f"token stream of {len(ids)} too short for seq_len={seq_len}"
        )
    # the bound excludes the last start; it is kept so that longer streams keep
    # their batch order, and a stream of exactly one window needs the floor of 1
    starts = rng.integers(0, max(len(ids) - seq_len - 1, 1), size=batch_size)
    x = np.stack([ids[s : s + seq_len] for s in starts], dtype=np.int64)
    y = np.stack([ids[s + 1 : s + seq_len + 1] for s in starts], dtype=np.int64)
    return x, y


class Optimizer:
    """Adam updates with warmup + cosine decay.

    Each element's update is clipped to the scheduled learning rate, which
    bounds the realized parameter delta per step by lr regardless of the
    moment ratio.
    """

    def __init__(self, model: TransformerLM, cfg: TrainConfig):
        self.cfg = cfg
        self.params = model.named_parameters()
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.t = 0

    def lr_at(self, step: int) -> float:
        cfg = self.cfg
        if cfg.steps <= cfg.warmup_steps:
            return float(cfg.lr * (step + 1) / max(1, cfg.steps))
        if step < cfg.warmup_steps:
            return float(cfg.lr * (step + 1) / cfg.warmup_steps)
        progress = (step - cfg.warmup_steps) / max(1, cfg.steps - cfg.warmup_steps)
        floor = cfg.min_lr_frac
        return float(
            cfg.lr * (floor + (1 - floor) * 0.5 * (1 + np.cos(np.pi * progress)))
        )

    def step(self, step_index: int) -> float:
        lr_t = self.lr_at(step_index)
        cfg = self.cfg
        self.t += 1
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m = self.m[name]
            v = self.v[name]
            m *= cfg.beta1
            m += (1 - cfg.beta1) * g
            v *= cfg.beta2
            v += (1 - cfg.beta2) * g * g
            m_hat = m / (1 - cfg.beta1**self.t)
            v_hat = v / (1 - cfg.beta2**self.t)
            update = lr_t * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)
            np.clip(update, -lr_t, lr_t, out=update)
            p.data -= update.astype(p.data.dtype)
        return lr_t


def clip_gradients(params: list[nx.Tensor], max_norm: float) -> float:
    """Scale all gradients so their global norm is at most max_norm; returns
    the pre-clip norm. max_norm <= 0 disables clipping."""
    norm = nx.global_grad_norm(params)
    if max_norm > 0 and norm > max_norm and norm > 0:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= scale
    return norm


def _routing_stats(artifacts, num_experts: int) -> str:
    lines = []
    for l, (_, _, selected) in enumerate(artifacts):
        counts = _kernels.usage_counts(
            selected.indices.reshape(1, -1, selected.k), num_experts
        )[0]
        frac = counts / max(1, counts.sum())
        lines.append(f"layer {l}: usage {np.array2string(frac, precision=3)}")
    return "\n".join(lines)


def compute_losses(model: TransformerLM, x: np.ndarray, y: np.ndarray):
    """Forward pass plus all loss terms; returns (total, parts, artifacts)."""
    mcfg = model.config
    logits, artifacts = model.forward(x)
    ce = lm_cross_entropy(logits, y)
    n_layers = len(artifacts)

    lb_sum = None
    bles_sum = None
    h_norms = []
    for _, weights, selected in artifacts:
        f, p = expert_load_fractions(selected, weights)
        lb_l = load_balance_loss(f, p, mcfg.experts)
        lb_sum = lb_l if lb_sum is None else nx.add(lb_sum, lb_l)
        br = bles_loss(weights.values, selected.indices, mcfg.experts)
        h_norms.append(br.H_norm)
        bles_sum = br.loss_term if bles_sum is None else nx.add(bles_sum, br.loss_term)
    lb = nx.mul(lb_sum, 1.0 / n_layers)
    bles = nx.mul(bles_sum, 1.0 / n_layers)
    total = total_loss(ce, lb, bles, mcfg.lb_coef, mcfg.bles_coef)
    parts = {
        "ce": ce.item(),
        "lb": lb.item(),
        "bles": bles.item(),
        "total": total.item(),
        "exrep": 100.0 * float(np.mean(h_norms)),
    }
    return total, parts, artifacts


def train_step(
    model: TransformerLM, batch, optimizer: Optimizer, step_index: int
) -> dict:
    """One forward/backward/update; raises on a non-finite loss with a dump of
    the routing statistics that usually explain it."""
    x, y = batch
    total, parts, artifacts = compute_losses(model, x, y)
    if not np.isfinite(parts["total"]):
        raise RuntimeError(
            f"non-finite loss at step {step_index}: {parts}\n"
            + _routing_stats(artifacts, model.config.experts)
        )
    model.zero_grad()
    total.backward()
    grad_norm = clip_gradients(model.parameters(), optimizer.cfg.grad_clip)
    lr_t = optimizer.step(step_index)
    metrics = {"step": step_index, "lr": lr_t, "grad_norm": grad_norm}
    metrics.update(parts)
    return metrics


def default_cost_model(config: ModelConfig) -> OffloadCostModel:
    """Cost model for desk experiments: compute per token equals the time to
    swap one full resident set, so tokens/sec responds visibly to churn."""
    bytes_per_param, bandwidth = 4.0, 1e9  # float32 weights over 1 GB/s
    expert_bytes = per_expert_param_count(config) * bytes_per_param
    return OffloadCostModel(
        expert_bytes=expert_bytes,
        bandwidth=bandwidth,
        compute_per_token=config.layers * config.active * expert_bytes / bandwidth,
        shared_bytes=shared_param_count(config) * bytes_per_param,
    )


def evaluate(model: TransformerLM, corpus: Corpus, cfg: TrainConfig) -> dict:
    """Validation metrics on deterministic batches: cross-entropy, perplexity,
    replacement percentage, balance deviation (``delta_uniform`` of every
    evaluated token's selections, pooled per layer), and simulated tokens/sec
    (the offload replay of each batch's first sequence under
    ``default_cost_model``). Builds no autodiff graph."""
    rng = np.random.default_rng(cfg.seed + 104729)  # fixed eval stream
    mcfg = model.config
    cost = default_cost_model(mcfg)
    ce_vals = []
    exrep_vals = []
    selections = []  # per batch: (L, B * T, K)
    tok_s_vals = []
    with nx.no_grad():
        for _ in range(cfg.eval_batches):
            x, y = sample_batch(corpus.val_ids, cfg.batch_size, cfg.seq_len, rng)
            _, parts, artifacts = compute_losses(model, x, y)
            ce_vals.append(parts["ce"])
            exrep_vals.append(parts["exrep"])
            sel = np.stack([selected.indices for _, _, selected in artifacts])  # (L, B, T, K)
            selections.append(sel.reshape(mcfg.layers, -1, mcfg.active))
            trace = RoutingTrace(selections=sel[:, 0], num_experts=mcfg.experts)
            tok_s_vals.append(replay_offload(trace, cost).tokens_per_sec)
    ce = float(np.mean(ce_vals))
    pooled = RoutingTrace(np.concatenate(selections, axis=1), mcfg.experts)
    overall_delta, _ = delta_uniform(pooled)
    return {
        "val_ce": ce,
        "val_ppl": float(np.exp(ce)),
        "val_exrep": float(np.mean(exrep_vals)),
        "val_delta_uniform": overall_delta,
        "sim_tokens_per_sec": float(np.mean(tok_s_vals)),
    }


def train(
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    corpus: Corpus | None = None,
    out_dir=None,
    quiet: bool = False,
) -> tuple[TransformerLM, dict, list[dict]]:
    """Full training run; returns (model, final eval metrics, metrics history).
    Unless ``quiet``, prints a progress line every 100 steps and at the end."""
    if corpus is None:
        corpus = ingest_corpus(train_cfg.corpus, train_cfg.val_frac, train_cfg.seed)
    if train_cfg.seq_len > model_cfg.seq_len:
        raise ValueError(
            f"train seq_len={train_cfg.seq_len} exceeds model seq_len={model_cfg.seq_len}"
        )
    model = TransformerLM(model_cfg, seed=train_cfg.seed)
    optimizer = Optimizer(model, train_cfg)
    batch_rng = np.random.default_rng(train_cfg.seed + 1)
    history: list[dict] = []
    metrics_fh = None
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        metrics_fh = open(out_dir / "metrics.jsonl", "w", encoding="utf-8")
    t0 = time.time()
    try:
        for step in range(train_cfg.steps):
            batch = sample_batch(
                corpus.train_ids, train_cfg.batch_size, train_cfg.seq_len, batch_rng
            )
            metrics = train_step(model, batch, optimizer, step)
            if (step + 1) % train_cfg.eval_interval == 0 and step + 1 < train_cfg.steps:
                metrics.update(evaluate(model, corpus, train_cfg))
            history.append(metrics)
            if metrics_fh is not None:
                metrics_fh.write(json.dumps(metrics) + "\n")
            if not quiet and (step % 100 == 0 or step == train_cfg.steps - 1):
                print(
                    f"step {step:5d} | lr {metrics['lr']:.2e} | ce {metrics['ce']:.4f} "
                    f"| lb {metrics['lb']:.3f} | bles {metrics['bles']:.4f} "
                    f"| exrep {metrics['exrep']:.1f}%"
                )
    finally:
        if metrics_fh is not None:
            metrics_fh.close()
    final = evaluate(model, corpus, train_cfg)
    final["train_seconds"] = time.time() - t0
    if out_dir is not None:
        model.save(out_dir / "checkpoint.npz")
        (out_dir / "eval.json").write_text(json.dumps(final, indent=2))
    return model, final, history


EXPERIMENT_FIELDS = (
    "variant", "status", "val_ce", "val_ppl", "val_exrep",
    "val_delta_uniform", "sim_tokens_per_sec", "train_seconds",
)


def run_experiment(
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    variants: list[tuple[str, dict]],
    out_dir=None,
) -> list[dict]:
    """Train every variant on the same seed and data, quietly; emit one
    comparison row each.

    Variant overrides go through ``configure``. An unknown key raises
    ValueError, and an ``out_dir`` that cannot be made OSError, before any
    variant trains; any other failure is reported in its variant's row and
    does not stop the others.
    """
    for _, overrides in variants:
        _split_overrides(overrides)
    corpus = ingest_corpus(train_cfg.corpus, train_cfg.val_frac, train_cfg.seed)
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    rows: list[dict] = []
    for name, overrides in variants:
        row = {"variant": name, "status": "ok"}
        try:
            mc, tc = configure(overrides, model_cfg, train_cfg)
            variant_dir = None if out_dir is None else out_dir / name
            _, final, _ = train(mc, tc, corpus=corpus, out_dir=variant_dir, quiet=True)
            row.update({k: final[k] for k in EXPERIMENT_FIELDS if k in final})
        except Exception as exc:  # isolate variant failures
            row["status"] = f"failed: {exc}"
        rows.append(row)
    if out_dir is not None:
        write_comparison(rows, out_dir / "comparison.csv")
        (out_dir / "comparison.txt").write_text(format_comparison(rows) + "\n")
    return rows


def write_comparison(rows: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(EXPERIMENT_FIELDS) + "\n")
        for row in rows:
            vals = []
            for key in EXPERIMENT_FIELDS:
                v = row.get(key, "")
                vals.append(f"{v:.6g}" if isinstance(v, float) else str(v))
            fh.write(",".join(vals) + "\n")


def format_comparison(rows: list[dict]) -> str:
    header = f"{'variant':<16}{'status':<10}{'val_ce':>9}{'val_ppl':>9}" \
             f"{'exrep%':>9}{'dUni%':>8}{'tok/s':>10}{'sec':>8}"
    lines = [header]
    for row in rows:
        if row["status"] != "ok":
            lines.append(f"{row['variant']:<16}{row['status']}")
            continue
        lines.append(
            f"{row['variant']:<16}{row['status']:<10}{row['val_ce']:>9.4f}"
            f"{row['val_ppl']:>9.2f}{row['val_exrep']:>9.2f}"
            f"{row['val_delta_uniform']:>8.2f}{row['sim_tokens_per_sec']:>10.2f}"
            f"{row.get('train_seconds', 0.0):>8.1f}"
        )
    return "\n".join(lines)
