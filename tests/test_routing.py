"""Router behavior: selection, gates, tie-breaking, load statistics."""

import numpy as np
import pytest

from moelab import numerics as nx
from moelab.numerics import Tensor
from moelab.routing import (
    RoutingWeights,
    SelectedExperts,
    expert_load_fractions,
    route,
)


def logits_for_weights(w):
    """Logits whose softmax is exactly the given probability row."""
    return np.log(np.asarray(w, dtype=np.float64))


def test_route_hand_example():
    logits = Tensor(logits_for_weights([[[0.1, 0.4, 0.2, 0.3]]]))
    weights, sel = route(logits, 1.0, 2)
    assert sel.indices.tolist() == [[[1, 3]]]
    np.testing.assert_allclose(sel.gate_weights.data[0, 0], [0.4 / 0.7, 0.3 / 0.7], atol=1e-12)
    np.testing.assert_allclose(weights.values.data[0, 0], [0.1, 0.4, 0.2, 0.3], atol=1e-12)


def test_route_uniform_ties_break_to_lowest_index():
    logits = Tensor(np.zeros((1, 1, 4)))
    _, sel = route(logits, 1.0, 2)
    assert sel.indices.tolist() == [[[0, 1]]]
    np.testing.assert_allclose(sel.gate_weights.data[0, 0], [0.5, 0.5], atol=1e-12)


def test_route_k_equals_e_degenerates_to_full_softmax():
    rng = np.random.default_rng(3)
    logits = Tensor(rng.normal(size=(2, 3, 5)))
    weights, sel = route(logits, 1.0, 5)
    assert np.array_equal(np.sort(sel.indices, axis=-1), np.broadcast_to(np.arange(5), (2, 3, 5)))
    # gate weight of expert j equals its softmax weight exactly
    gathered = np.take_along_axis(weights.values.data, sel.indices, axis=-1)
    np.testing.assert_allclose(sel.gate_weights.data, gathered, atol=1e-12)


def test_route_parameter_errors():
    logits = Tensor(np.zeros((1, 1, 4)))
    with pytest.raises(ValueError):
        route(logits, 1.0, 0)
    with pytest.raises(ValueError):
        route(logits, 1.0, 5)
    with pytest.raises(ValueError):
        route(logits, 0.0, 2)


def test_router_logits_validation():
    with pytest.raises(ValueError, match=r"\(B, T, E\)"):
        route(Tensor(np.zeros((2, 3))), 1.0, 2)
    bad = np.zeros((1, 2, 3))
    bad[0, 0, 0] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        route(Tensor(bad), 1.0, 2)


def test_shift_invariance_per_token():
    rng = np.random.default_rng(4)
    raw = rng.normal(size=(2, 5, 6))
    shifted = raw + rng.normal(size=(2, 5, 1))  # constant per token row
    _, sel_a = route(Tensor(raw), 1.0, 3)
    _, sel_b = route(Tensor(shifted), 1.0, 3)
    assert np.array_equal(sel_a.indices, sel_b.indices)
    np.testing.assert_allclose(
        sel_a.gate_weights.data, sel_b.gate_weights.data, atol=1e-12
    )


def test_temperature_preserves_selection_order():
    rng = np.random.default_rng(5)
    raw = rng.normal(size=(1, 8, 5))
    reference = None
    for tau in (0.25, 0.5, 1.0, 2.0, 4.0):
        _, sel = route(Tensor(raw), tau, 2)
        if reference is None:
            reference = sel.indices
        else:
            assert np.array_equal(reference, sel.indices)


def test_gate_weights_sum_to_one_and_indices_distinct():
    rng = np.random.default_rng(6)
    for _ in range(200):
        b, t, e = rng.integers(1, 4), rng.integers(1, 6), rng.integers(2, 9)
        k = int(rng.integers(1, e + 1))
        _, sel = route(Tensor(rng.normal(size=(b, t, e))), float(rng.uniform(0.3, 3)), k)
        sums = sel.gate_weights.data.sum(axis=-1)
        assert np.all(np.abs(sums - 1.0) < 1e-6)
        assert np.all(sel.gate_weights.data >= 0)
        srt = np.sort(sel.indices, axis=-1)
        if k > 1:
            assert np.all(srt[..., 1:] != srt[..., :-1])
        assert srt.min() >= 0 and srt.max() < e


def test_gradient_reaches_logits_through_gates():
    logits = nx.parameter(np.array([[[0.3, -0.2, 0.9, 0.0]]]))
    _, sel = route(logits, 1.0, 2)
    nx.sum_(nx.mul(sel.gate_weights, np.array([1.0, -2.0]))).backward()
    assert logits.grad is not None
    assert np.any(logits.grad != 0)


def test_load_fractions_perfect_balance():
    sel = SelectedExperts(
        indices=np.array([[[0], [1], [0], [1]]]),
        gate_weights=Tensor(np.ones((1, 4, 1))),
    )
    w = Tensor(np.full((1, 4, 2), 0.5))
    f, p = expert_load_fractions(sel, RoutingWeights(w))
    np.testing.assert_allclose(f, [[0.5, 0.5]])
    np.testing.assert_allclose(p.data, [[0.5, 0.5]])


def test_load_fractions_collapse():
    sel = SelectedExperts(
        indices=np.full((1, 5, 1), 2), gate_weights=Tensor(np.ones((1, 5, 1)))
    )
    w = Tensor(np.tile(np.array([0.1, 0.1, 0.7, 0.1]), (1, 5, 1)))
    f, _ = expert_load_fractions(sel, RoutingWeights(w))
    np.testing.assert_allclose(f, [[0.0, 0.0, 1.0, 0.0]])


def test_load_fractions_against_counting_oracle():
    rng = np.random.default_rng(7)
    for _ in range(30):
        b, t, e = int(rng.integers(1, 4)), int(rng.integers(1, 7)), int(rng.integers(2, 7))
        k = int(rng.integers(1, e + 1))
        weights, sel = route(Tensor(rng.normal(size=(b, t, e))), 1.0, k)
        f, p = expert_load_fractions(sel, weights)
        for bi in range(b):
            counts = np.zeros(e)
            for ti in range(t):
                for ki in range(k):
                    counts[sel.indices[bi, ti, ki]] += 1
            np.testing.assert_array_equal(f[bi], counts / (t * k))
            np.testing.assert_allclose(
                p.data[bi], weights.values.data[bi].mean(axis=0), atol=1e-12
            )
