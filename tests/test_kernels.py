"""Each numpy kernel against a plain-Python loop oracle."""

import numpy as np
import pytest

from moelab import _kernels as K


def _loop_index_add_rows(out, idx, rows):
    for m in range(idx.shape[0]):
        r = idx[m]
        for d in range(rows.shape[1]):
            out[r, d] += rows[m, d]


def _loop_scatter_add_lastdim(out, idx, vals):
    for r in range(idx.shape[0]):
        for k in range(idx.shape[1]):
            out[r, idx[r, k]] += vals[r, k]


def _loop_scatter_add_pairs(out, row_idx, col_idx, vals):
    for m in range(row_idx.shape[0]):
        out[row_idx[m], col_idx[m]] += vals[m]


def _loop_transition_count(sel):
    b, t, k = sel.shape
    total = 0
    for bi in range(b):
        for ti in range(t - 1):
            overlap = 0
            for i in range(k):
                cur = sel[bi, ti + 1, i]
                for j in range(k):
                    if sel[bi, ti, j] == cur:
                        overlap += 1
                        break
            total += 2 * (k - overlap)
    return total


def _loop_swap_in_counts(sel):
    l, t, k = sel.shape
    counts = np.empty((l, t), dtype=np.int64)
    for li in range(l):
        counts[li, 0] = k
        for ti in range(1, t):
            new = 0
            for i in range(k):
                cur = sel[li, ti, i]
                found = False
                for j in range(k):
                    if sel[li, ti - 1, j] == cur:
                        found = True
                        break
                if not found:
                    new += 1
            counts[li, ti] = new
    return counts


def _loop_usage_counts(sel, num_experts):
    b = sel.shape[0]
    counts = np.zeros((b, num_experts), dtype=np.int64)
    for bi in range(b):
        for ti in range(sel.shape[1]):
            for ki in range(sel.shape[2]):
                counts[bi, sel[bi, ti, ki]] += 1
    return counts


def _loop_topk_lastdim(w, k):
    r, e = w.shape
    out = np.empty((r, k), dtype=np.int64)
    for ri in range(r):
        taken = np.zeros(e, dtype=np.bool_)
        for slot in range(k):
            best = -1
            best_val = -np.inf
            for ei in range(e):
                if not taken[ei] and w[ri, ei] > best_val:
                    best_val = w[ri, ei]
                    best = ei
            taken[best] = True
            out[ri, slot] = best
    return out


def test_index_add_rows_matches_loop():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n, d, m = rng.integers(2, 50), rng.integers(1, 16), rng.integers(1, 200)
        idx = rng.integers(0, n, size=m).astype(np.int64)  # m > n forces repeats
        rows = rng.normal(size=(m, d))
        a = np.zeros((n, d))
        b = np.zeros((n, d))
        K.index_add_rows(a, idx, rows)
        _loop_index_add_rows(b, idx, rows)
        np.testing.assert_allclose(a, b, atol=1e-12)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_index_add_rows_is_the_bits_of_add_at(dtype):
    """Strictly ascending nonnegative ids take a buffered add, every other id
    list np.add.at; both give np.add.at's bits."""
    rng = np.random.default_rng(3)
    n, d = 9, 3
    cases = [
        [0, 2, 3, 7, 8],  # strictly ascending
        [5, 1, 7, 0],  # unsorted
        [1, 1, 4, 4, 4],  # repeated
        [6],
        [],
        [-1, 8],  # ascending, but -1 wraps onto row 8
        [-9, 3],  # ascending and distinct after wrapping
    ]
    for ids in cases:
        idx = np.asarray(ids, dtype=np.int64)
        for rows_dtype in sorted({dtype, "float64"}):  # float32 out, float64 rows as wpe's backward
            rows = rng.normal(size=(idx.size, d)).astype(rows_dtype)
            rows[:, 0] = -0.0
            for out in (np.zeros((n, d), dtype=dtype),
                        rng.normal(size=(n, d)).astype(dtype)):
                out[:, 1] = -0.0
                want = out.copy()
                np.add.at(want, idx, rows)
                K.index_add_rows(out, idx, rows)
                np.testing.assert_array_equal(out, want)
                np.testing.assert_array_equal(np.signbit(out), np.signbit(want))


def test_scatter_add_lastdim_matches_loop():
    rng = np.random.default_rng(1)
    for _ in range(20):
        r, e = rng.integers(1, 40), rng.integers(2, 10)
        k = int(rng.integers(1, e + 1))
        idx = rng.integers(0, e, size=(r, k)).astype(np.int64)
        vals = rng.normal(size=(r, k))
        a = np.zeros((r, e))
        b = np.zeros((r, e))
        K.scatter_add_lastdim(a, idx, vals)
        _loop_scatter_add_lastdim(b, idx, vals)
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_scatter_add_pairs_matches_loop():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n, k, m = rng.integers(2, 30), rng.integers(1, 8), rng.integers(1, 100)
        rows = rng.integers(0, n, size=m).astype(np.int64)
        cols = rng.integers(0, k, size=m).astype(np.int64)
        vals = rng.normal(size=m)
        a = np.zeros((n, k))
        b = np.zeros((n, k))
        K.scatter_add_pairs(a, rows, cols, vals)
        _loop_scatter_add_pairs(b, rows, cols, vals)
        np.testing.assert_allclose(a, b, atol=1e-12)


def _random_selection(rng, b, t, e, k):
    sel = np.empty((b, t, k), dtype=np.int64)
    for bi in range(b):
        for ti in range(t):
            sel[bi, ti] = rng.choice(e, size=k, replace=False)
    return sel


def test_transition_count_matches_loop():
    rng = np.random.default_rng(3)
    for _ in range(50):
        e = int(rng.integers(2, 9))
        k = int(rng.integers(1, min(e, 4) + 1))
        sel = _random_selection(rng, int(rng.integers(1, 4)), int(rng.integers(1, 20)), e, k)
        assert K.transition_count(sel) == _loop_transition_count(sel)


def test_swap_in_counts_matches_loop():
    rng = np.random.default_rng(4)
    for _ in range(50):
        e = int(rng.integers(2, 9))
        k = int(rng.integers(1, min(e, 4) + 1))
        sel = _random_selection(rng, int(rng.integers(1, 4)), int(rng.integers(1, 20)), e, k)
        np.testing.assert_array_equal(K.swap_in_counts(sel), _loop_swap_in_counts(sel))


def test_selection_counters_match_loop_on_sparse_ids():
    # ids drawn from [0, 2**62): the counters compare ids, so no array is sized by them
    rng = np.random.default_rng(7)
    for _ in range(20):
        k = int(rng.integers(1, 5))
        pool = rng.integers(0, 2**62, size=2 * k + 1)  # a small pool keeps ids recurring
        sel = _random_selection(rng, int(rng.integers(1, 4)), int(rng.integers(1, 20)), pool.size, k)
        sel = pool[sel]
        assert K.transition_count(sel) == _loop_transition_count(sel)
        np.testing.assert_array_equal(K.swap_in_counts(sel), _loop_swap_in_counts(sel))


def test_usage_counts_matches_loop():
    rng = np.random.default_rng(5)
    for _ in range(50):
        e = int(rng.integers(2, 9))
        k = int(rng.integers(1, e + 1))
        sel = rng.integers(0, e, size=(int(rng.integers(1, 5)), int(rng.integers(1, 20)), k))
        np.testing.assert_array_equal(K.usage_counts(sel, e), _loop_usage_counts(sel, e))


def test_topk_matches_loop_including_ties():
    rng = np.random.default_rng(6)
    for _ in range(50):
        r, e = int(rng.integers(1, 20)), int(rng.integers(2, 9))
        k = int(rng.integers(1, e + 1))
        w = np.ascontiguousarray(rng.normal(size=(r, e)))
        if rng.random() < 0.5:  # force ties
            w[:, : e // 2 + 1] = 0.5
        np.testing.assert_array_equal(K.topk_lastdim(w, k), _loop_topk_lastdim(w, k))


def test_topk_lowest_index_wins_on_ties():
    w = np.array([[0.3, 0.5, 0.5, 0.1]])
    assert K.topk_lastdim(w, 2).tolist() == [[1, 2]]
    uniform = np.zeros((1, 5))
    assert K.topk_lastdim(uniform, 3).tolist() == [[0, 1, 2]]
