"""Hot inner-loop kernels: scatter-adds, selection-trace counting and top-k.

Callers look each kernel up as ``_kernels.<name>`` at call time, so a kernel
can be swapped for an instrumented or faster version by rebinding the module
attribute. The selection counters compare each token's K ids with its
predecessor's, so their memory grows with the selections, never with the
expert count.
"""

from __future__ import annotations

import numpy as np

# Kept for run manifests that record the kernel backend; numpy is the only one.
USE_NUMBA = False


# ---------------------------------------------------------------------------
# scatter-add: backward pass of row gathers and embedding lookups


def index_add_rows(out, idx, rows):
    """out[idx[m]] += rows[m] for every m. Strictly ascending nonnegative ids
    name distinct rows and take the buffered ``out[idx] += rows``; any other
    ids take np.add.at, which handles repeats. Both add each row once."""
    if idx.size and idx[0] >= 0 and (idx[1:] > idx[:-1]).all():
        out[idx] += rows
    else:
        np.add.at(out, idx, rows)


def scatter_add_lastdim(out, idx, vals):
    """out[r, idx[r, k]] += vals[r, k]; out is (R, E), idx/vals are (R, K)."""
    rows = np.arange(out.shape[0])[:, None]
    np.add.at(out, (rows, idx), vals)


def scatter_add_pairs(out, row_idx, col_idx, vals):
    """out[row_idx[m], col_idx[m]] += vals[m]."""
    np.add.at(out, (row_idx, col_idx), vals)


# ---------------------------------------------------------------------------
# selection-trace counting


def _found_in(ids, pool):
    """ids[..., i] in pool[..., :] for every i; both are (..., K) over the same rows."""
    hit = ids == pool[..., :1]
    for j in range(1, pool.shape[-1]):
        hit |= ids == pool[..., j : j + 1]
    return hit


def transition_count(sel):
    """Double-counted expert transitions in a selection tensor.

    ``sel`` is (B, T, K) integer expert ids, K distinct per token. Counts the
    ids that arrive plus the ids that depart between consecutive tokens, so a
    single expert swap contributes 2.
    """
    prev, cur = sel[:, :-1], sel[:, 1:]
    return int((~_found_in(cur, prev)).sum() + (~_found_in(prev, cur)).sum())


def swap_in_counts(sel):
    """Per-token count of experts swapped in relative to the previous token.

    ``sel`` is (L, T, K) for L layers. Returns (L, T) int64 where entry
    [l, 0] is K (cold start: the whole resident set is loaded) and entry
    [l, t] is |sel[l, t] \\ sel[l, t-1]|.
    """
    l, t, k = sel.shape
    counts = np.empty((l, t), dtype=np.int64)
    counts[:, 0] = k
    counts[:, 1:] = k - _found_in(sel[:, 1:], sel[:, :-1]).sum(axis=2)
    return counts


def usage_counts(sel, num_experts):
    """Per-sequence expert assignment counts: (B, T, K) ids -> (B, E) counts."""
    b = sel.shape[0]
    flat = sel.reshape(b, -1) + np.arange(b, dtype=np.int64)[:, None] * num_experts
    return np.bincount(flat.ravel(), minlength=b * num_experts).reshape(b, num_experts)


def topk_lastdim(w, k):
    """Indices of the k largest entries per row, ties broken by lowest index.

    Stable argsort of the negated weights gives exactly lowest-index-wins
    tie-breaking. ``w`` is (R, E); returns (R, k) int64 in descending weight
    order.
    """
    return np.argsort(-w, axis=-1, kind="stable")[:, :k].astype(np.int64)
