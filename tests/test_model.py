"""Model-level behavior: MoE layer mixing, causality, traces, checkpoints."""

import copy
import tracemalloc
import weakref

import numpy as np
import pytest

from moelab import numerics as nx
from moelab.config import ModelConfig
from moelab.errors import DataError
from moelab.model import KVCache, RoutingTrace, TransformerLM
from moelab.numerics import Tensor
from moelab.routing import route
from moelab.trainer import Optimizer, TrainConfig, compute_losses, sample_batch, train_step


def tiny_config(**kw):
    base = dict(
        layers=2, heads=2, hidden=16, inter=32, vocab=17, seq_len=12,
        experts=4, active=2, dtype="float64",
    )
    base.update(kw)
    return ModelConfig(**base)


def test_moe_layer_single_expert_degenerate():
    cfg = tiny_config(experts=1, active=1)
    model = TransformerLM(cfg, seed=0)
    layer = model.blocks[0].moe
    x = Tensor(np.random.default_rng(0).normal(size=(1, 3, cfg.hidden)))
    y, _, _, sel = layer.forward(x)
    want = layer.experts[0].forward(x).data
    np.testing.assert_allclose(y.data, want, atol=1e-12)
    np.testing.assert_allclose(sel.gate_weights.data, 1.0, atol=1e-12)


def test_moe_layer_identical_experts_mixture_is_one_expert():
    cfg = tiny_config(experts=3, active=3)
    model = TransformerLM(cfg, seed=1)
    layer = model.blocks[0].moe
    first = layer.experts[0].named_parameters()
    for expert in layer.experts[1:]:
        for name, p in expert.named_parameters().items():
            p.data = first[name].data.copy()
    x = Tensor(np.random.default_rng(1).normal(size=(2, 4, cfg.hidden)))
    y, _, _, _ = layer.forward(x)
    want = layer.experts[0].forward(x).data
    np.testing.assert_allclose(y.data, want, atol=1e-12)


def test_moe_layer_against_brute_force_mixture():
    cfg = tiny_config(experts=4, active=2)
    model = TransformerLM(cfg, seed=2)
    layer = model.blocks[0].moe
    x = np.random.default_rng(2).normal(size=(2, 6, cfg.hidden))
    x[..., 0] = 10.0
    layer.router.data[0, 3] = -100.0  # expert 3 gets no tokens
    y, _, weights, sel = layer.forward(Tensor(x))
    assert np.bincount(sel.indices.ravel(), minlength=4).tolist()[3] == 0

    for b, t in np.ndindex(2, 6):
        w_row = weights.values.data[b, t]
        order = np.argsort(-w_row, kind="stable")[:2]
        np.testing.assert_array_equal(sel.indices[b, t], order)
        gates = w_row[order] / w_row[order].sum()
        want = np.zeros(cfg.hidden)
        for g, e in zip(gates, order):
            want += g * layer.experts[e].forward(Tensor(x[b, t][None])).data[0]
        np.testing.assert_allclose(y.data[b, t], want, atol=1e-12)


def _record_nodes(monkeypatch) -> list[tuple[str, tuple[int, ...]]]:
    """(op name, shape) of every graph node built while the patch is on."""
    nodes = []
    result = nx._result

    def recorded(data, parents, backward):
        nodes.append((backward.__qualname__.split(".")[0], data.shape))
        return result(data, parents, backward)

    monkeypatch.setattr(nx, "_result", recorded)
    return nodes


def test_moe_layer_combines_once_per_layer(monkeypatch):
    model = TransformerLM(tiny_config(layers=3), seed=12)
    nodes = _record_nodes(monkeypatch)
    model.forward(np.random.default_rng(12).integers(0, 17, size=(2, 5)))
    assert [shape for op, shape in nodes if op == "combine_rows"] == [(2, 5, 16)] * 3


def test_attention_builds_no_score_sized_node(monkeypatch):
    """The (B, heads, T, T) scores and weights, and the head split and merge,
    live inside one attention node."""
    model = TransformerLM(tiny_config(layers=1), seed=13)
    nodes = _record_nodes(monkeypatch)
    model.forward(np.random.default_rng(13).integers(0, 17, size=(2, 5)))
    assert [shape for op, shape in nodes if op == "attention"] == [(2, 5, 16)]
    assert (2, 2, 5, 5) not in [shape for _, shape in nodes]


@pytest.mark.parametrize("expert_kind, want", [("dense", 72), ("wd", 72)])
def test_train_step_node_count(monkeypatch, expert_kind, want):
    """Nodes of one train step: 10 + layers * (23 + 2 * hit experts): each hit
    expert's row gather and its one swiglu_ffn node, dense or WD alike."""
    cfg = tiny_config(expert_kind=expert_kind, rank=4, dtype="float32")
    model = TransformerLM(cfg, seed=14)
    tc = TrainConfig(steps=2, batch_size=2, seq_len=cfg.seq_len, eval_batches=1)
    batch = sample_batch(np.arange(100) % cfg.vocab, 2, cfg.seq_len, np.random.default_rng(14))
    nodes = _record_nodes(monkeypatch)
    train_step(model, batch, Optimizer(model, tc), 0)
    assert len(nodes) == want
    hit = sum(op == "swiglu_ffn" for op, _ in nodes)  # one per expert run
    assert hit == cfg.layers * cfg.experts


@pytest.mark.parametrize("expert_kind", ["dense", "wd"])
def test_backward_releases_what_the_forward_held(expert_kind):
    """After backward a step holds its parameter gradients and little else,
    although the loss and the routing artifacts are still referenced."""
    cfg = tiny_config(expert_kind=expert_kind, rank=4, seq_len=32)
    model = TransformerLM(cfg, seed=15)
    x, y = sample_batch(np.arange(400) % cfg.vocab, 8, cfg.seq_len, np.random.default_rng(15))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        total, _, artifacts = compute_losses(model, x, y)
        forward = tracemalloc.get_traced_memory()[0] - base
        total.backward()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held < 0.1 * forward, (held, forward)


@pytest.mark.parametrize("expert_kind", ["dense", "wd"])
def test_forward_keeps_no_attention_weights_or_sigmoid(monkeypatch, expert_kind):
    """With the graph alive after the forward, no (B, heads, T, T) attention
    weights are left, and no closure keeps a sigmoid of an expert's gate:
    the backward recomputes both."""
    cfg = tiny_config(expert_kind=expert_kind, rank=4)
    model = TransformerLM(cfg, seed=16)
    x, y = sample_batch(np.arange(100) % cfg.vocab, 2, cfg.seq_len, np.random.default_rng(16))
    weights = []
    softmax = nx._softmax

    def recorded(z):
        out = softmax(z)
        if out.shape == (2, cfg.heads, cfg.seq_len, cfg.seq_len):
            weights.append(weakref.ref(out))
        return out

    monkeypatch.setattr(nx, "_softmax", recorded)
    total, _, _ = compute_losses(model, x, y)
    assert len(weights) == cfg.layers and all(w() is None for w in weights)

    # a sigmoid is the output of no single call a test can wrap, so the
    # closures of the live graph, and the lists they hold, are searched for
    # one; the gate projection the op keeps shows that the search sees them
    nodes, stack, gates, held = set(), [total], [], []
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes.add(id(node))
            stack.extend(node._parents)
            cells = node._backward.__closure__ if node._backward else None
            for value in (c.cell_contents for c in cells or ()):
                held += [a for a in (value if isinstance(value, list) else [value])
                         if isinstance(a, np.ndarray)]
            if node._backward and node._backward.__qualname__.startswith("swiglu_ffn"):
                x, *factors = node._parents
                gate = x.data
                for w in factors[: len(factors) // 3]:
                    gate = gate @ w.data
                gates.append(gate)
    assert len(gates) == cfg.layers * cfg.experts

    def kept(b):
        return any(a.shape == b.shape and np.array_equal(a, b) for a in held)

    assert all(kept(gate) for gate in gates)
    assert not any(kept(1.0 / (1.0 + np.exp(-gate))) for gate in gates)


def test_moe_layer_dense_limit_uniform_gates_is_mean_of_experts():
    cfg = tiny_config(experts=3, active=3)
    model = TransformerLM(cfg, seed=3)
    layer = model.blocks[0].moe
    layer.router.data[...] = 0.0  # uniform routing weights -> uniform gates
    x = Tensor(np.random.default_rng(3).normal(size=(2, 5, cfg.hidden)))
    y, _, _, _ = layer.forward(x)
    want = np.mean([e.forward(x).data for e in layer.experts], axis=0)
    np.testing.assert_allclose(y.data, want, atol=1e-12)


def test_forward_shapes_and_single_token():
    model = TransformerLM(tiny_config(), seed=4)
    logits, artifacts = model.forward(np.array([[5]]))
    assert logits.shape == (1, 1, 17)
    assert len(artifacts) == 2


def test_causality_prefix_logits_bit_identical():
    model = TransformerLM(tiny_config(), seed=5)
    rng = np.random.default_rng(5)
    tokens = rng.integers(0, 17, size=(1, 8))
    logits_a, _ = model.forward(tokens)
    perturbed = tokens.copy()
    perturbed[0, 5] = (perturbed[0, 5] + 1) % 17
    logits_b, _ = model.forward(perturbed)
    assert np.array_equal(logits_a.data[0, :5], logits_b.data[0, :5])
    assert not np.array_equal(logits_a.data[0, 5:], logits_b.data[0, 5:])


def test_trace_consistent_with_rerouting_logits():
    model = TransformerLM(tiny_config(), seed=6)
    tokens = np.random.default_rng(6).integers(0, 17, size=(2, 7))
    _, artifacts = model.forward(tokens)
    for logits, weights, sel in artifacts:
        _, resel = route(logits, model.config.temperature, model.config.active)
        np.testing.assert_array_equal(resel.indices, sel.indices)
    selections = np.stack([sel.indices for _, _, sel in artifacts])  # (L, B, T, K)
    for b in range(tokens.shape[0]):
        trace = RoutingTrace(selections[:, b], model.config.experts)
        assert trace.tokens == 7
        assert trace.layers == 2
        assert trace.k == 2
        for l, (_, _, sel) in enumerate(artifacts):
            np.testing.assert_array_equal(trace.selections[l], sel.indices[b])


def test_expert_permutation_leaves_logits_unchanged():
    cfg = tiny_config()
    model = TransformerLM(cfg, seed=7)
    permuted = copy.deepcopy(model)
    rng = np.random.default_rng(7)
    perm = rng.permutation(cfg.experts)
    for block in permuted.blocks:
        block.moe.router.data = block.moe.router.data[:, perm].copy()
        old = block.moe.experts
        block.moe.experts = [old[j] for j in perm]
    tokens = rng.integers(0, cfg.vocab, size=(2, 6))
    la, _ = model.forward(tokens)
    lb, _ = permuted.forward(tokens)
    np.testing.assert_allclose(la.data, lb.data, atol=1e-10)


def test_generate_contracts():
    cfg = tiny_config(layers=3, experts=4, active=2, seq_len=40, vocab=17)
    model = TransformerLM(cfg, seed=8)
    prompt = np.array([1, 2, 3])

    tokens, trace = model.generate(prompt, 1)
    assert tokens.size == 4
    assert trace.tokens == 4

    tokens_a, trace_a = model.generate(prompt, 32)
    tokens_b, trace_b = model.generate(prompt, 32)
    assert np.array_equal(tokens_a, tokens_b)
    assert np.array_equal(trace_a.selections, trace_b.selections)
    assert trace_a.selections.shape == (3, 35, 2)  # K entries per token per layer


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("seed", [0, 1])
def test_generate_matches_a_full_forward(dtype, seed):
    """The KV-cached decode picks each token as the argmax of a full forward
    over the returned sequence and records that forward's routing."""
    cfg = ModelConfig(layers=2, heads=4, hidden=64, inter=256, vocab=256, seq_len=128,
                      experts=8, active=2, dtype=dtype)  # configs/desk.cfg shape
    model = TransformerLM(cfg, seed=seed)
    prompt = np.random.default_rng(seed).integers(0, cfg.vocab, size=16)
    tokens, trace = model.generate(prompt, cfg.seq_len - prompt.size)
    assert np.array_equal(tokens[:16], prompt)
    logits, artifacts = model.forward(tokens)
    rows = logits.data[0, 15:-1]
    picked = rows[np.arange(rows.shape[0]), tokens[16:]]
    assert np.all(rows.max(axis=-1) - picked <= 1e-5)
    full = np.stack([sel.indices[0] for _, _, sel in artifacts])
    np.testing.assert_array_equal(trace.selections, full)


def test_cached_attention_in_chunks_matches_full_attention():
    cfg = tiny_config()
    attn = TransformerLM(cfg, seed=13).blocks[0].attn
    x = np.random.default_rng(13).normal(size=(1, 7, cfg.hidden))
    want = attn.forward(Tensor(x), np.triu(np.full((7, 7), -1e30), 1)).data
    cache = KVCache(7)
    with nx.no_grad():
        parts = [attn.forward(Tensor(x[:, a:b]), None, cache=cache).data
                 for a, b in ((0, 3), (3, 4), (4, 7))]
    np.testing.assert_allclose(np.concatenate(parts, axis=1), want, rtol=0, atol=1e-12)


def test_generate_parameter_errors():
    model = TransformerLM(tiny_config(seq_len=8), seed=9)
    with pytest.raises(ValueError):
        model.generate(np.array([1]), 0)
    with pytest.raises(ValueError):
        model.generate(np.arange(5), 10)  # exceeds seq_len
    with pytest.raises(ValueError):
        model.generate(np.array([], dtype=np.int64), 2)


def test_forward_input_validation():
    model = TransformerLM(tiny_config(seq_len=8), seed=10)
    with pytest.raises(ValueError):
        model.forward(np.zeros((1, 9), dtype=np.int64))
    with pytest.raises(ValueError, match="out of range"):
        model.forward(np.array([[99]]))
    with pytest.raises(ValueError, match="out of range"):  # numpy would wrap -1
        model.forward(np.array([[3, -1]]))


def test_checkpoint_roundtrip(tmp_path, monkeypatch):
    """``load`` gives back every parameter bit for bit and in the config's
    dtype, for dense and WD experts in both dtypes, and draws no random init
    for the checkpoint to overwrite."""
    def draw(*args, **kwargs):
        pytest.fail("load drew a random init")

    tokens = np.random.default_rng(11).integers(0, 17, size=(1, 6))
    for kind in ("dense", "wd"):
        for dtype in ("float32", "float64"):
            model = TransformerLM(tiny_config(expert_kind=kind, rank=4, dtype=dtype), seed=11)
            want, _ = model.forward(tokens)
            path = tmp_path / f"{kind}-{dtype}.npz"
            model.save(path)
            with monkeypatch.context() as patch:
                patch.setattr(np.random, "default_rng", draw)  # what moelab.model calls
                loaded = TransformerLM.load(path)
            saved = model.named_parameters()
            params = loaded.named_parameters()
            assert params.keys() == saved.keys()
            for name, p in params.items():
                assert p.data.dtype == saved[name].data.dtype == np.dtype(dtype), name
                assert p.data.shape == saved[name].data.shape, name
                assert p.data.tobytes() == saved[name].data.tobytes(), name
                assert p.data.flags.writeable, name
            got, _ = loaded.forward(tokens)
            assert np.array_equal(want.data, got.data)
            assert loaded.config == model.config


def test_checkpoint_missing_or_misshapen_parameter_rejected(tmp_path):
    """``load`` allocates parameters without drawing them, so every one must
    come from the file: a missing or misshapen array raises DataError."""
    model = TransformerLM(tiny_config(), seed=11)
    path = tmp_path / "ckpt.npz"
    model.save(path)
    with np.load(path) as ckpt:
        arrays = dict(ckpt)
    missing = {k: v for k, v in arrays.items() if k != "param:layers.1.attn.wk"}
    np.savez(tmp_path / "missing.npz", **missing)
    with pytest.raises(DataError, match="missing parameter layers.1.attn.wk"):
        TransformerLM.load(tmp_path / "missing.npz")
    misshapen = {**arrays, "param:lm_head": arrays["param:lm_head"].T}
    np.savez(tmp_path / "misshapen.npz", **misshapen)
    with pytest.raises(DataError, match="parameter lm_head has shape"):
        TransformerLM.load(tmp_path / "misshapen.npz")


def test_checkpoint_magic_rejected(tmp_path):
    path = tmp_path / "bogus.npz"
    np.savez(path, foo=np.zeros(3))
    with pytest.raises(DataError):
        TransformerLM.load(path)
    with pytest.raises(DataError):
        TransformerLM.load(tmp_path / "missing.npz")


def test_named_parameters_cover_all_tensors():
    model = TransformerLM(tiny_config(expert_kind="wd", rank=4), seed=12)
    names = model.named_parameters()
    assert "layers.0.moe.experts.0.l_gate" in names
    assert "layers.1.attn.wq" in names
    total = sum(p.data.size for p in names.values())
    from moelab.experts import expert_param_count

    _, want_total = expert_param_count(model.config)
    assert total == want_total


def test_named_parameters_keep_their_names_and_order():
    """The names and the order the model has always had: the order decides the
    bits of the optimizer step and the gradient norm, and the names key the
    checkpoint's arrays."""
    block = ["ln1.gain", "ln1.bias", "attn.wq", "attn.wk", "attn.wv", "attn.wo",
             "ln2.gain", "ln2.bias", "moe.router"]
    experts = {"dense": ["w_gate", "w_up", "w_down"],
               "wd": ["l_gate", "r_gate", "l_up", "r_up", "l_down", "r_down"]}
    for kind, expert in experts.items():
        model = TransformerLM(tiny_config(experts=2, active=1, expert_kind=kind, rank=4))
        want = ["wte", "wpe"]
        for i in range(2):
            want += [f"layers.{i}.{name}" for name in block]
            want += [f"layers.{i}.moe.experts.{e}.{name}" for e in range(2) for name in expert]
        want += ["ln_f.gain", "ln_f.bias", "lm_head"]
        assert list(model.named_parameters()) == want


def test_a_parameter_assigned_later_is_named_by_its_attribute():
    """A module's parameters are the tensors assigned to it, in assignment
    order, with no second list to keep in step."""
    model = TransformerLM(tiny_config(), seed=0)
    extra = nx.parameter(np.zeros(3))
    model.blocks[0].ln1.extra = extra
    params = model.named_parameters()
    names = list(params)
    assert names[names.index("layers.0.ln1.bias") + 1] == "layers.0.ln1.extra"
    assert params["layers.0.ln1.extra"] is extra
