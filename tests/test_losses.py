"""Objective terms: hard/soft selection churn, balance losses, composition."""

import numpy as np
import pytest

from moelab import numerics as nx
from moelab.losses import (
    bles_loss,
    hard_replacements,
    load_balance_loss,
    load_balance_loss_model_aggregated,
    soft_selection,
    total_loss,
)
from moelab.numerics import Tensor, finite_difference_grad
from moelab.routing import route


def random_distinct_selection(rng, b, t, e, k):
    sel = np.empty((b, t, k), dtype=np.int64)
    for bi in range(b):
        for ti in range(t):
            sel[bi, ti] = rng.choice(e, size=k, replace=False)
    return sel


def test_hard_replacements_alternating_k1():
    sel = np.array([[[0], [1], [0]]])
    h, h_norm = hard_replacements(sel, 2)
    assert h == 4
    assert h // 2 == 2
    assert h_norm == 1.0  # 2 / (1 * 1 * 2): maximal churn


def test_hard_replacements_constant_selection():
    sel = np.full((2, 6, 2), fill_value=0)
    sel[..., 1] = 3
    h, h_norm = hard_replacements(sel, 4)
    assert h == 0 and h_norm == 0.0


def test_hard_replacements_single_token_convention():
    sel = np.array([[[0, 1]]])
    assert hard_replacements(sel, 4) == (0, 0.0)


def test_soft_selection_constant_rows():
    for t in (4, 1):  # a single token has no consecutive pair
        x = nx.parameter(np.tile(np.array([0.2, 0.3, 0.5]), (2, t, 1)))
        l, l_norm = soft_selection(x)
        assert l.item() == 0.0 and l_norm.item() == 0.0
        l_norm.backward()
        np.testing.assert_array_equal(x.grad, 0.0)


def test_soft_selection_hand_computation():
    w = np.array([[[1.0, 0.0], [0.0, 1.0]]])  # limit case
    l, l_norm = soft_selection(Tensor(w))
    assert l.item() == pytest.approx(2.0)
    assert l_norm.item() == pytest.approx(1.0)  # 2 / (B*T) = 2 / 2


def test_soft_selection_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    for _ in range(20):
        b, t, e = int(rng.integers(1, 3)), int(rng.integers(2, 6)), int(rng.integers(2, 5))
        w = rng.uniform(0.05, 1.0, size=(b, t, e))
        x = nx.parameter(w)
        _, l_norm = soft_selection(x)
        l_norm.backward()
        fd = finite_difference_grad(lambda v: soft_selection(v)[1], Tensor(w), eps=1e-5)
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(x.grad)), 1e-6)
        assert np.max(np.abs(fd - x.grad) / denom) < 1e-4


def test_bles_constant_routing_is_zero():
    w = np.tile(np.array([0.25, 0.25, 0.25, 0.25]), (1, 5, 1))
    sel = np.zeros((1, 5, 2), dtype=np.int64)
    sel[..., 1] = 1
    br = bles_loss(Tensor(w), sel, 4)
    assert br.H == 0 and br.loss == 0.0


def test_bles_composed_of_validated_factors():
    w = np.array([[[0.9, 0.1], [0.1, 0.9], [0.9, 0.1]]])
    sel = np.array([[[0], [1], [0]]])
    br = bles_loss(Tensor(w), sel, 2)
    _, h_norm = hard_replacements(sel, 2)
    _, l_norm = soft_selection(Tensor(w))
    assert br.H_norm == h_norm == 1.0
    assert br.L_norm == pytest.approx(l_norm.item())
    assert br.loss == pytest.approx(h_norm * l_norm.item())
    assert br.L == pytest.approx(3.2)


def test_bles_gradient_is_hnorm_times_soft_gradient():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(2, 5, 4))
    x1 = nx.parameter(logits.copy())
    w1, sel1 = route(x1, 1.0, 2)
    br = bles_loss(w1.values, sel1.indices, 4)
    br.loss_term.backward()

    x2 = nx.parameter(logits.copy())
    w2, _ = route(x2, 1.0, 2)
    _, l_norm = soft_selection(w2.values)
    l_norm.backward()

    assert br.H_norm > 0
    np.testing.assert_allclose(x1.grad, br.H_norm * x2.grad, atol=1e-12)


def test_load_balance_closed_forms():
    e = 5
    uniform = np.full((3, e), 1.0 / e)
    assert load_balance_loss(uniform, Tensor(uniform), e).item() == pytest.approx(1.0, abs=1e-9)
    onehot = np.zeros((2, 4))
    onehot[:, 1] = 1.0
    assert load_balance_loss(onehot, Tensor(onehot), 4).item() == pytest.approx(4.0, abs=1e-9)


def test_load_balance_minimum_when_f_equals_p():
    rng = np.random.default_rng(2)
    for _ in range(50):
        e = int(rng.integers(2, 8))
        f = rng.dirichlet(np.ones(e), size=3)
        loss = load_balance_loss(f, Tensor(f), e).item()
        assert loss >= 1.0 - 1e-12
    uniform = np.full((1, 4), 0.25)
    assert load_balance_loss(uniform, Tensor(uniform), 4).item() == pytest.approx(1.0)


def test_load_balance_gradient_flows_through_p_only():
    rng = np.random.default_rng(3)
    f = rng.dirichlet(np.ones(4), size=2)
    p = nx.parameter(rng.dirichlet(np.ones(4), size=2))
    loss = load_balance_loss(f, p, 4)
    loss.backward()
    np.testing.assert_allclose(p.grad, 4 * f / 2, atol=1e-12)  # E * f / groups


def test_cross_layer_shuffle_exploit():
    layers = 3
    eye = np.eye(3)[:, None, :]
    per_layer = [load_balance_loss(eye[l], Tensor(eye[l]), 3).item() for l in range(layers)]
    assert np.allclose(per_layer, 3.0)
    assert load_balance_loss_model_aggregated(eye, eye, 3) == pytest.approx(1.0)


def test_total_loss_combinations():
    ce, lb, bles = Tensor(2.5), Tensor(7.0), Tensor(9.0)
    assert total_loss(ce, lb, bles, 0.0, 0.0).item() == 2.5
    total = total_loss(Tensor(2.0), Tensor(1.0), Tensor(0.5), 0.01, 0.1)
    assert total.item() == pytest.approx(2.06)
    with pytest.raises(ValueError):
        total_loss(ce, lb, bles, -0.1, 0.0)


def test_total_loss_gradient_is_weighted_sum():
    rng = np.random.default_rng(4)
    logits = rng.normal(size=(1, 4, 3))
    alpha, lam = 0.01, 0.1

    def grads(alpha_lb, lambda_bles):
        x = nx.parameter(logits.copy())
        w, sel = route(x, 1.0, 2)
        ce_like = nx.mean_(nx.mul(w.values, w.values))  # smooth stand-in for ce
        from moelab.routing import expert_load_fractions

        f, p = expert_load_fractions(sel, w)
        lb = load_balance_loss(f, p, 3)
        br = bles_loss(w.values, sel.indices, 3)
        total_loss(ce_like, lb, br.loss_term, alpha_lb, lambda_bles).backward()
        return x.grad.copy()

    combined = grads(alpha, lam)
    ce_only = grads(0.0, 0.0)
    lb_part = grads(1.0, 0.0) - ce_only
    bles_part = grads(0.0, 1.0) - ce_only
    np.testing.assert_allclose(
        combined, ce_only + alpha * lb_part + lam * bles_part, atol=1e-12
    )


# --- property suites --------------------------------------------------------


def test_h_is_even_on_distinct_selections():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        e = int(rng.integers(2, 9))
        k = int(rng.integers(1, min(e, 4) + 1))
        sel = random_distinct_selection(rng, 1, int(rng.integers(2, 12)), e, k)
        h, h_norm = hard_replacements(sel, e)
        assert h % 2 == 0
        assert 0.0 <= h_norm <= 1.0


def test_h_norm_bounds_and_full_churn():
    sel = np.array([[[i % 2] for i in range(10)]])
    _, h_norm = hard_replacements(sel, 2)
    assert h_norm == 1.0


def test_l_norm_upper_bound():
    rng = np.random.default_rng(6)
    for _ in range(200):
        b, t, e = int(rng.integers(1, 4)), int(rng.integers(2, 8)), int(rng.integers(2, 6))
        w = rng.dirichlet(np.ones(e), size=(b, t))
        _, l_norm = soft_selection(Tensor(w))
        assert l_norm.item() <= 2.0 * (t - 1) / t + 1e-12


def test_bles_invariant_to_batch_permutation_and_expert_relabeling():
    rng = np.random.default_rng(7)
    b, t, e, k = 3, 6, 5, 2
    w = rng.dirichlet(np.ones(e), size=(b, t))
    sel = random_distinct_selection(rng, b, t, e, k)
    base = bles_loss(Tensor(w), sel, e)

    order = rng.permutation(b)
    perm_batch = bles_loss(Tensor(w[order]), sel[order], e)
    assert perm_batch.loss == pytest.approx(base.loss, rel=1e-12)
    assert perm_batch.H == base.H

    relabel = rng.permutation(e)
    inv = np.argsort(relabel)
    w_rel = w[:, :, inv]
    sel_rel = relabel[sel]
    relabeled = bles_loss(Tensor(w_rel), sel_rel, e)
    assert relabeled.loss == pytest.approx(base.loss, rel=1e-12)
    assert relabeled.H == base.H
