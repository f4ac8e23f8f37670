"""Seeded inputs the benchmark makes for moelab: corpus text, prompts, traces.

Nothing here imports moelab. The same seed gives the same bytes and arrays.
"""

from __future__ import annotations

import numpy as np

CORPUS_BYTES = 1 << 19
PROMPT_TOKENS = 16
TRACE_TOKENS = 256
# (layers, experts, active): the paper's shape and a wide one
TRACE_SHAPES = {"paper": (24, 8, 2), "wide": (24, 64, 8)}
# target ExRep in percent per churn level, from figures measured with moelab:
# low and high are the calibration points of the replay latency bracket
# (moelab.fixtures CALIBRATION_POINT_LOW/HIGH: 6.55% and 43.82%); trained is
# the validation ExRep after 2000 steps of a desk-shape model (2 layers, 8
# experts, top-2) trained without the selection loss, as acceptance criterion 8
# recorded it in test_output.txt (87.28%). A slot keeps its expert with
# probability 1 - ExRep/100.
TRACE_EXREP_PCT = {"low": 6.55, "high": 43.82, "trained": 87.28}
TRACE_STAY = {churn: 1.0 - pct / 100.0 for churn, pct in TRACE_EXREP_PCT.items()}

_SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]
_WORDS = 400


def corpus_text(seed: int, n_bytes: int = CORPUS_BYTES) -> str:
    """Sentences over a closed word list with Zipf-like word frequencies."""
    rng = np.random.default_rng(seed)
    words = [
        "".join(rng.choice(_SYLLABLES, size=int(rng.integers(1, 4))))
        for _ in range(_WORDS)
    ]
    freq = 1.0 / np.arange(1, _WORDS + 1)
    freq /= freq.sum()
    ends = (". ", "? ", ".\n")
    parts: list[str] = []
    size = 0
    while size < n_bytes:
        ids = rng.choice(_WORDS, size=int(rng.integers(4, 13)), p=freq)
        sentence = " ".join(words[i] for i in ids).capitalize() + ends[int(rng.integers(3))]
        parts.append(sentence)
        size += len(sentence)
    return "".join(parts)[:n_bytes]


def prompts(val_ids: np.ndarray, count: int, seed: int, length: int = PROMPT_TOKENS):
    """``count`` windows of ``length`` tokens at seeded offsets of a token stream."""
    rng = np.random.default_rng(seed)
    starts = rng.integers(0, len(val_ids) - length, size=count)
    return [np.asarray(val_ids[s : s + length], dtype=np.int64) for s in starts]


def churn_selections(
    rng: np.random.Generator, layers: int, tokens: int, experts: int, k: int, stay: float
) -> np.ndarray:
    """(layers, tokens, k) expert ids with k distinct ids per token.

    Each slot keeps its expert with probability ``stay``; a slot that moves
    takes an expert outside the previous token's set, so every move is one
    swap and the expected replacement share is 1 - stay.
    """
    sel = np.empty((layers, tokens, k), dtype=np.int64)
    for l in range(layers):
        moves = (rng.random((tokens, k)) >= stay).tolist()
        picks = rng.random((tokens, k)).tolist()
        cur = rng.choice(experts, size=k, replace=False).tolist()
        sel[l, 0] = cur
        for t in range(1, tokens):
            outside = [e for e in range(experts) if e not in cur]
            nxt = list(cur)
            for slot in range(k):
                if moves[t][slot]:
                    nxt[slot] = outside.pop(int(picks[t][slot] * len(outside)))
            cur = nxt
            sel[l, t] = cur
    return sel


def replay_traces(seed: int) -> list[tuple[str, np.ndarray, int]]:
    """One selection array per (shape, churn) pair: (name, selections, experts)."""
    rng = np.random.default_rng(seed)
    out = []
    for shape, (layers, experts, k) in TRACE_SHAPES.items():
        for churn, stay in TRACE_STAY.items():
            sel = churn_selections(rng, layers, TRACE_TOKENS, experts, k, stay)
            out.append((f"{shape}-{churn}", sel, experts))
    return out
