"""Correctness oracles, computed apart from moelab.

Each check takes an output of the program and what it was computed from,
recomputes the expected value with plain numpy or Python sets, and raises
OracleError on a mismatch. Nothing here imports moelab.
"""

from __future__ import annotations

import math

import numpy as np


class OracleError(AssertionError):
    """An output of the program disagrees with the benchmark's own computation."""


def _close(what: str, got: float, want: float, rtol: float, atol: float = 0.0) -> None:
    if not abs(got - want) <= atol + rtol * abs(want):
        raise OracleError(f"{what}: got {got!r}, expected {want!r}")


def check_finite(values: dict) -> None:
    bad = {k: v for k, v in values.items() if not math.isfinite(v)}
    if bad:
        raise OracleError(f"non-finite values: {bad}")


def check_initial_ce(logits: np.ndarray, vocab: int, tol: float = 0.05) -> None:
    """An untrained model predicts nearly uniformly: its cross-entropy against
    uniformly drawn targets, mean of logsumexp(z) - mean(z), is within ``tol``
    of ln(vocab). Unlike the CE of one batch, this leaves out how the logits
    of the batch's own target bytes happen to lie."""
    z = np.asarray(logits, dtype=np.float64).reshape(-1, vocab)
    m = z.max(axis=1)
    lse = np.log(np.exp(z - m[:, None]).sum(axis=1)) + m
    _close("uniform-target CE at step 0 against ln(vocab)",
           float(np.mean(lse - z.mean(axis=1))), math.log(vocab), 0.0, tol)


def check_ce_decreased(initial: float, final: float) -> None:
    if not final < initial:
        raise OracleError(f"final CE {final} is not below initial CE {initial}")


def cross_entropy_f64(logits: np.ndarray, targets: np.ndarray) -> float:
    z = np.asarray(logits, dtype=np.float64).reshape(-1, logits.shape[-1])
    t = np.asarray(targets).reshape(-1)
    m = z.max(axis=1)
    lse = np.log(np.exp(z - m[:, None]).sum(axis=1)) + m
    return float(np.mean(lse - z[np.arange(t.size), t]))


def check_ce(logits: np.ndarray, targets: np.ndarray, ce: float, rtol: float) -> None:
    _close("CE recomputed from logits", ce, cross_entropy_f64(logits, targets), rtol)


def check_topk(weights: np.ndarray, indices: np.ndarray) -> None:
    """Ids are distinct, in range, and the K largest weights, ties to the lowest id."""
    e = weights.shape[-1]
    k = indices.shape[-1]
    w = np.asarray(weights, dtype=np.float64).reshape(-1, e)
    idx = np.asarray(indices).reshape(-1, k)
    if idx.min() < 0 or idx.max() >= e:
        raise OracleError(f"expert ids outside [0, {e})")
    srt = np.sort(idx, axis=1)
    if k > 1 and (srt[:, 1:] == srt[:, :-1]).any():
        raise OracleError("a token selects the same expert twice")
    ids = np.broadcast_to(np.arange(e), w.shape)
    want = np.lexsort((ids, -w), axis=1)[:, :k]
    if not np.array_equal(idx, want):
        row = int(np.nonzero((idx != want).any(axis=1))[0][0])
        raise OracleError(f"row {row}: selected {idx[row]}, the top-{k} are {want[row]}")


def check_gates(gates: np.ndarray, weights: np.ndarray, indices: np.ndarray, rtol: float) -> None:
    """Gates sum to 1 and are the selected weights renormalised."""
    g = np.asarray(gates, dtype=np.float64)
    picked = np.take_along_axis(np.asarray(weights, dtype=np.float64), indices, axis=-1)
    want = picked / picked.sum(axis=-1, keepdims=True)
    worst = float(np.abs(g.sum(axis=-1) - 1.0).max())
    if worst > rtol:
        raise OracleError(f"gates sum to 1 only within {worst:.3g}")
    if not np.allclose(g, want, rtol=rtol, atol=rtol):
        raise OracleError("gates are not the renormalised selected weights")


def swaps_per_step(sel: np.ndarray) -> np.ndarray:
    """|set(sel[..., t, :]) - set(sel[..., t-1, :])| for t >= 1, by Python sets."""
    sel = np.asarray(sel)
    lead = sel.shape[:-2]
    flat = sel.reshape(-1, sel.shape[-2], sel.shape[-1]).tolist()
    out = [
        [len(set(seq[t]) - set(seq[t - 1])) for t in range(1, len(seq))] for seq in flat
    ]
    return np.asarray(out, dtype=np.int64).reshape(*lead, sel.shape[-2] - 1)


def exrep_sets(sel: np.ndarray) -> float:
    """ExRep in percent of (layers, ..., T, K) selections, averaged over layers."""
    sel = np.asarray(sel)
    k, t = sel.shape[-1], sel.shape[-2]
    per_layer = []
    for layer in sel:
        seqs = layer.reshape(-1, t, k)
        per_layer.append(100.0 * swaps_per_step(seqs).sum() / (seqs.shape[0] * k * (t - 1)))
    return float(np.mean(per_layer))


def check_exrep(sel: np.ndarray, exrep_pct: float) -> None:
    _close("ExRep against set differences", exrep_pct, exrep_sets(sel), 1e-12, 1e-9)


def delta_uniform_bincount(sel: np.ndarray, experts: int) -> float:
    """Mean over layers of mean_e |f_e - 1/E| in percentage points."""
    per_layer = []
    for layer in np.asarray(sel):
        f = np.bincount(layer.ravel(), minlength=experts) / layer.size
        per_layer.append(100.0 * np.abs(f - 1.0 / experts).mean())
    return float(np.mean(per_layer))


def check_delta_uniform(sel: np.ndarray, experts: int, delta_pct: float) -> None:
    _close("delta-uniform against bincount", delta_pct,
           delta_uniform_bincount(sel, experts), 1e-12, 1e-9)


def check_greedy_causal(tokens: np.ndarray, logits: np.ndarray, prompt_len: int,
                        atol: float) -> None:
    """Each generated token is an argmax, up to ``atol``, of the full-sequence
    logits at the position before it."""
    z = np.asarray(logits, dtype=np.float64)
    for i in range(prompt_len, len(tokens)):
        row = z[i - 1]
        if row[int(tokens[i])] < row.max() - atol:
            raise OracleError(
                f"token {i} is {int(tokens[i])}, the argmax is {int(row.argmax())}"
            )


def check_roundtrip(sel_in: np.ndarray, experts_in: int,
                    sel_out: np.ndarray, experts_out: int) -> None:
    if experts_in != experts_out or not np.array_equal(sel_in, sel_out):
        raise OracleError("trace read back differs from the trace written")


def check_swap_events(swap_events: int, sel: np.ndarray) -> None:
    want = int(swaps_per_step(sel).sum())
    if swap_events != want:
        raise OracleError(f"swap_events {swap_events}, set differences give {want}")


def h_sets(sel: np.ndarray) -> list[int]:
    """Per layer, H = sum over t >= 1 of |S_t symmetric-difference S_{t-1}|, by Python sets."""
    out = []
    for layer in np.asarray(sel):
        seqs = layer.reshape(-1, layer.shape[-2], layer.shape[-1]).tolist()
        out.append(sum(len(set(seq[t]) ^ set(seq[t - 1]))
                       for seq in seqs for t in range(1, len(seq))))
    return out


def check_swaps_half_h(swap_events: int, sel: np.ndarray) -> None:
    want = sum(h // 2 for h in h_sets(sel))
    if swap_events != want:
        raise OracleError(f"swap_events {swap_events}, floor(H/2) summed gives {want}")


def check_h(h_per_layer, sel: np.ndarray) -> None:
    """The program's per-layer transition totals H against Python sets."""
    want = h_sets(sel)
    if [int(h) for h in h_per_layer] != want:
        raise OracleError(f"H per layer {list(h_per_layer)}, symmetric differences give {want}")


def check_tokens_per_sec(tokens_per_sec: float, tokens: int, swaps: int,
                         compute_per_token: float, swap_seconds: float) -> None:
    want = tokens / (tokens * compute_per_token + swaps * swap_seconds)
    _close("tokens_per_sec against T / (T*c + swaps*s)", tokens_per_sec, want, 1e-12)
