"""Tests of the benchmark's own oracles and inputs; no workload runs.

    python3 -m pytest -q perfbench

Every oracle accepts a correct answer and rejects at least one deliberately
wrong one.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import inputs
import oracles
import run
import tracer
from oracles import OracleError


def softmax(z):
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def test_finite():
    oracles.check_finite({"ce": 1.0, "lb": 0.5})
    with pytest.raises(OracleError):
        oracles.check_finite({"ce": 1.0, "lb": float("nan")})
    with pytest.raises(OracleError):
        oracles.check_finite({"ce": float("inf")})


def test_initial_ce():
    rng = np.random.default_rng(2)
    oracles.check_initial_ce(rng.normal(0.0, 0.16, size=(64, 256)), 256)
    with pytest.raises(OracleError):  # confident predictions are not an untrained model's
        oracles.check_initial_ce(rng.normal(0.0, 1.0, size=(64, 256)), 256)
    favoured = np.zeros((64, 256))
    favoured[:, 0] = 3.0
    with pytest.raises(OracleError):  # already favours one byte
        oracles.check_initial_ce(favoured, 256)


def test_ce_decreased():
    oracles.check_ce_decreased(5.5, 3.0)
    with pytest.raises(OracleError):
        oracles.check_ce_decreased(5.5, 5.5)


def test_ce_matches_logits():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(2, 5, 7))
    targets = rng.integers(0, 7, size=(2, 5))
    p = softmax(logits)
    ce = float(-np.log(np.take_along_axis(p, targets[..., None], axis=-1)).mean())
    oracles.check_ce(logits, targets, ce, 1e-12)
    with pytest.raises(OracleError):
        oracles.check_ce(logits, targets, ce * 1.001, 1e-6)
    with pytest.raises(OracleError):  # CE of the wrong targets
        oracles.check_ce(logits, (targets + 1) % 7, ce, 1e-6)


def test_topk():
    w = np.array([[0.1, 0.4, 0.2, 0.3], [0.25, 0.25, 0.25, 0.25]])
    oracles.check_topk(w, np.array([[1, 3], [0, 1]]))
    with pytest.raises(OracleError):  # not the largest
        oracles.check_topk(w, np.array([[1, 2], [0, 1]]))
    with pytest.raises(OracleError):  # tie must go to the lowest index
        oracles.check_topk(w, np.array([[1, 3], [0, 2]]))
    with pytest.raises(OracleError):  # repeated id
        oracles.check_topk(w, np.array([[1, 1], [0, 1]]))
    with pytest.raises(OracleError):  # out of range
        oracles.check_topk(w, np.array([[1, 4], [0, 1]]))


def test_gates():
    w = softmax(np.random.default_rng(1).normal(size=(3, 6, 8)))
    idx = np.argsort(-w, axis=-1, kind="stable")[..., :2]
    picked = np.take_along_axis(w, idx, axis=-1)
    gates = picked / picked.sum(axis=-1, keepdims=True)
    oracles.check_gates(gates, w, idx, 1e-12)
    with pytest.raises(OracleError):  # not renormalised
        oracles.check_gates(picked, w, idx, 1e-6)
    with pytest.raises(OracleError):  # sums to 1 but swapped
        oracles.check_gates(gates[..., ::-1], w, idx, 1e-6)


def test_swaps_and_exrep():
    # one layer, one sequence, k=2: {0,1} -> {0,2} -> {3,4} -> {4,3}
    sel = np.array([[[0, 1], [0, 2], [3, 4], [4, 3]]])
    assert oracles.swaps_per_step(sel).tolist() == [[1, 2, 0]]
    want = 100.0 * 3 / (2 * 3)
    assert oracles.exrep_sets(sel) == want
    oracles.check_exrep(sel, want)
    with pytest.raises(OracleError):
        oracles.check_exrep(sel, 100.0 * 4 / (2 * 3))
    oracles.check_swap_events(3, sel)
    with pytest.raises(OracleError):
        oracles.check_swap_events(4, sel)
    # symmetric differences 2 + 4 + 0 = 6, so floor(H/2) = 3
    assert oracles.h_sets(sel) == [6]
    oracles.check_swaps_half_h(3, sel)
    with pytest.raises(OracleError):
        oracles.check_swaps_half_h(4, sel)
    oracles.check_h([6], sel)
    with pytest.raises(OracleError):  # counted each swap once instead of twice
        oracles.check_h([3], sel)


def test_exrep_batched_layers():
    # (layers, batch, T, K): layer 0 never swaps, layer 1 swaps every slot
    sel = np.array([[[[0], [0], [0]]] * 2, [[[0], [1], [0]]] * 2])
    oracles.check_exrep(sel, 50.0)
    with pytest.raises(OracleError):
        oracles.check_exrep(sel, 100.0)


def test_delta_uniform():
    sel = np.array([[[0, 1], [0, 1]], [[0, 1], [2, 3]]])  # layers of 4 experts
    # layer 0: f = (.5, .5, 0, 0) -> mean |f - .25| = .25; layer 1 uniform
    oracles.check_delta_uniform(sel, 4, 12.5)
    with pytest.raises(OracleError):
        oracles.check_delta_uniform(sel, 4, 25.0)


def test_greedy_causal():
    logits = np.array([[0.0, 1.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 3.0]])
    tokens = np.array([0, 1, 0, 2])
    oracles.check_greedy_causal(tokens, logits, 1, atol=1e-9)
    with pytest.raises(OracleError):
        oracles.check_greedy_causal(np.array([0, 1, 2, 2]), logits, 1, atol=1e-9)


def test_roundtrip():
    sel = np.arange(12).reshape(2, 3, 2)
    oracles.check_roundtrip(sel, 12, sel.copy(), 12)
    wrong = sel.copy()
    wrong[1, 2, 0] = 0
    with pytest.raises(OracleError):
        oracles.check_roundtrip(sel, 12, wrong, 12)
    with pytest.raises(OracleError):
        oracles.check_roundtrip(sel, 12, sel, 13)


def test_tokens_per_sec():
    oracles.check_tokens_per_sec(10 / (10 * 0.01 + 4 * 0.002), 10, 4, 0.01, 0.002)
    with pytest.raises(OracleError):  # swaps priced as free
        oracles.check_tokens_per_sec(10 / (10 * 0.01), 10, 4, 0.01, 0.002)


def test_churn_trace_inputs():
    rng = np.random.default_rng(3)
    sel = inputs.churn_selections(rng, 3, 200, 8, 2, stay=0.5)
    srt = np.sort(sel, axis=-1)
    assert (srt[..., 1:] != srt[..., :-1]).all()
    assert 40.0 < oracles.exrep_sets(sel) < 60.0
    a, b = inputs.replay_traces(5), inputs.replay_traces(5)
    assert all(np.array_equal(x[1], y[1]) for x, y in zip(a, b))
    for name, sel, _ in a:  # each trace realises its measured ExRep level
        target = inputs.TRACE_EXREP_PCT[name.split("-")[1]]
        assert abs(oracles.exrep_sets(sel) - target) < 2.0, name
    assert inputs.corpus_text(5, 4096) == inputs.corpus_text(5, 4096)


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracer.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(run.OP_NAMES)
