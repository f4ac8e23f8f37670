"""Ingestion, optimization semantics, determinism, the experiment harness."""

import contextlib
import json

import numpy as np
import pytest

from moelab import numerics as nx
from moelab.cli import main
from moelab.config import ModelConfig
from moelab.errors import DataError
from moelab.model import TransformerLM
from moelab.trainer import (
    Corpus,
    Optimizer,
    TrainConfig,
    compute_losses,
    encode_text,
    decode_ids,
    evaluate,
    ingest_corpus,
    load_config_file,
    run_experiment,
    sample_batch,
    synthesize_corpus,
    train,
    train_step,
)


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "corpus.txt"
    synthesize_corpus(path, 120_000, seed=0)
    return path


def small_model_cfg(**kw):
    base = dict(layers=2, heads=2, hidden=16, inter=32, vocab=256, seq_len=16,
                experts=4, active=2, dtype="float64")
    base.update(kw)
    return ModelConfig(**base)


def small_train_cfg(corpus, **kw):
    base = dict(corpus=str(corpus), steps=5, batch_size=2, seq_len=16,
                lr=1e-3, warmup_steps=2, seed=0, eval_batches=2)
    base.update(kw)
    return TrainConfig(**base)


def test_encode_text_bytes():
    assert encode_text("abab").tolist() == [97, 98, 97, 98]
    assert decode_ids(encode_text("héllo")) == "héllo"


def test_ingest_split_sizes(tmp_path):
    path = tmp_path / "c.txt"
    path.write_bytes(b"x" * 100_000)
    corpus = ingest_corpus(path, val_frac=0.1, seed=0)
    assert len(corpus.train_ids) + len(corpus.val_ids) == 100_000
    assert abs(len(corpus.val_ids) - 10_000) <= 300  # block-granular rounding


def test_ingest_deterministic_hashes(corpus_file):
    a = ingest_corpus(corpus_file, seed=3)
    b = ingest_corpus(corpus_file, seed=3)
    assert a.split_hashes() == b.split_hashes()
    c = ingest_corpus(corpus_file, seed=4)
    assert a.split_hashes() != c.split_hashes()


def test_ingest_errors(tmp_path):
    with pytest.raises(DataError):
        ingest_corpus(tmp_path / "nope.txt")
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    with pytest.raises(DataError):
        ingest_corpus(empty)
    tiny = tmp_path / "tiny.txt"
    tiny.write_text("abab")
    with pytest.raises(DataError, match="too small"):
        ingest_corpus(tiny)


def test_zero_learning_rate_freezes_parameters(corpus_file):
    corpus = ingest_corpus(corpus_file)
    model = TransformerLM(small_model_cfg(), seed=0)
    cfg = small_train_cfg(corpus_file, lr=0.0)
    opt = Optimizer(model, cfg)
    before = {k: p.data.copy() for k, p in model.named_parameters().items()}
    batch = sample_batch(corpus.train_ids, 2, 16, np.random.default_rng(0))
    train_step(model, batch, opt, 0)
    for name, p in model.named_parameters().items():
        assert np.array_equal(before[name], p.data), name


def test_sgd_update_is_minus_lr_times_gradient(corpus_file):
    corpus = ingest_corpus(corpus_file)
    model = TransformerLM(small_model_cfg(), seed=1)
    lr = 0.05
    cfg = small_train_cfg(corpus_file, optimizer="sgd", lr=lr, grad_clip=0.0,
                          warmup_steps=0, steps=1, min_lr_frac=1.0)
    opt = Optimizer(model, cfg)
    before = {k: p.data.copy() for k, p in model.named_parameters().items()}
    batch = sample_batch(corpus.train_ids, 2, 16, np.random.default_rng(1))
    train_step(model, batch, opt, 0)
    lr_t = opt.lr_at(0)
    for name, p in model.named_parameters().items():
        grad = p.grad if p.grad is not None else np.zeros_like(p.data)
        np.testing.assert_array_equal(p.data, before[name] - lr_t * grad)


def test_adam_update_magnitude_bounded_by_lr(corpus_file):
    corpus = ingest_corpus(corpus_file)
    model = TransformerLM(small_model_cfg(), seed=2)
    cfg = small_train_cfg(corpus_file, lr=0.01, steps=8, warmup_steps=2)
    opt = Optimizer(model, cfg)
    rng = np.random.default_rng(2)
    for step in range(8):
        before = {k: p.data.copy() for k, p in model.named_parameters().items()}
        batch = sample_batch(corpus.train_ids, 2, 16, rng)
        metrics = train_step(model, batch, opt, step)
        bound = metrics["lr"] * (1 + 1e-12)
        for name, p in model.named_parameters().items():
            assert np.max(np.abs(p.data - before[name])) <= bound, name


def test_plain_lm_loss_decreases(corpus_file):
    mcfg = small_model_cfg(hidden=32, inter=64, heads=2, lb_coef=0.0, bles_coef=0.0)
    tcfg = small_train_cfg(corpus_file, steps=200, batch_size=4, lr=3e-3,
                           warmup_steps=20)
    _, final, history = train(mcfg, tcfg, quiet=True)
    early = np.mean([m["ce"] for m in history[:20]])
    late = np.mean([m["ce"] for m in history[-20:]])
    assert late < early - 0.5
    assert np.isfinite(final["val_ppl"])


def test_training_is_seed_deterministic(corpus_file):
    mcfg = small_model_cfg()
    tcfg = small_train_cfg(corpus_file, steps=10)
    _, final_a, hist_a = train(mcfg, tcfg, quiet=True)
    _, final_b, hist_b = train(mcfg, tcfg, quiet=True)
    final_a.pop("train_seconds"), final_b.pop("train_seconds")
    assert final_a == final_b
    for ma, mb in zip(hist_a, hist_b):
        assert ma == mb


def test_nonfinite_loss_aborts_with_routing_dump(corpus_file):
    corpus = ingest_corpus(corpus_file)
    model = TransformerLM(small_model_cfg(), seed=3)
    model.lm_head.data[...] = np.nan  # vocab logits blow up, routing stays finite
    cfg = small_train_cfg(corpus_file)
    opt = Optimizer(model, cfg)
    batch = sample_batch(corpus.train_ids, 2, 16, np.random.default_rng(3))
    with pytest.raises(RuntimeError, match="usage"):
        train_step(model, batch, opt, 0)


def test_metrics_stream_and_checkpoint_written(tmp_path, corpus_file):
    out = tmp_path / "run"
    mcfg = small_model_cfg()
    tcfg = small_train_cfg(corpus_file, steps=3)
    _, final, history = train(mcfg, tcfg, out_dir=out, quiet=True)
    lines = (out / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 3
    record = json.loads(lines[0])
    for key in ("step", "lr", "ce", "lb", "bles", "total", "grad_norm", "exrep"):
        assert key in record
    assert (out / "checkpoint.npz").exists()
    assert (out / "eval.json").exists()
    reloaded = TransformerLM.load(out / "checkpoint.npz")
    assert reloaded.config == mcfg


def test_run_experiment_rows_and_isolation(tmp_path, corpus_file):
    mcfg = small_model_cfg()
    tcfg = small_train_cfg(corpus_file, steps=3)
    rows = run_experiment(
        mcfg,
        tcfg,
        [
            ("baseline", {"bles_coef": 0.0}),
            ("bles", {"bles_coef": 0.1}),
            ("broken", {"active": 99}),
            ("broken-train", {"eval_interval": 0}),
        ],
        out_dir=tmp_path / "exp",
    )
    assert [r["variant"] for r in rows] == ["baseline", "bles", "broken", "broken-train"]
    assert rows[0]["status"] == "ok" and rows[1]["status"] == "ok"
    assert rows[2]["status"].startswith("failed")
    assert rows[3]["status"].startswith("failed") and "eval_interval" in rows[3]["status"]
    for row in rows[:2]:
        assert "val_exrep" in row and "sim_tokens_per_sec" in row
    csv = (tmp_path / "exp" / "comparison.csv").read_text().splitlines()
    assert csv[0].startswith("variant,")
    assert len(csv) == 5


def test_run_experiment_is_repeatable(corpus_file):
    mcfg = small_model_cfg()
    tcfg = small_train_cfg(corpus_file, steps=3)
    variants = [("a", {"bles_coef": 0.0}), ("b", {"bles_coef": 0.1})]
    rows_1 = run_experiment(mcfg, tcfg, variants)
    rows_2 = run_experiment(mcfg, tcfg, variants)
    for r1, r2 in zip(rows_1, rows_2):
        r1.pop("train_seconds"), r2.pop("train_seconds")
        assert r1 == r2


def test_run_experiment_rejects_unknown_override(corpus_file):
    with pytest.raises(ValueError, match="unknown override"):
        run_experiment(
            small_model_cfg(), small_train_cfg(corpus_file), [("x", {"nope": 1})]
        )


def test_load_config_file(tmp_path, corpus_file):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment\n"
        f"corpus = {corpus_file}\n"
        "steps = 7\n"
        "lr = 0.002\n"
        "hidden = 32\n"
        "heads = 2\n"
        "experts = 4\n"
        "bles_coef = 0.25\n"
    )
    mcfg, tcfg = load_config_file(path)
    assert tcfg.steps == 7 and tcfg.lr == 0.002
    assert mcfg.hidden == 32 and mcfg.experts == 4 and mcfg.bles_coef == 0.25

    bad = tmp_path / "bad.cfg"
    bad.write_text("unknown_key = 3\n")
    with pytest.raises(DataError, match="unknown key"):
        load_config_file(bad)
    bad.write_text("steps = banana\n")
    with pytest.raises(DataError, match="bad value"):
        load_config_file(bad)
    bad.write_text("just a line\n")
    with pytest.raises(DataError, match="key = value"):
        load_config_file(bad)


def test_seq_len_sets_model_and_train_config(tmp_path, corpus_file, capsys):
    path = tmp_path / "short.cfg"
    path.write_text(
        f"corpus = {corpus_file}\nseq_len = 16\nsteps = 2\nbatch_size = 2\n"
        "eval_batches = 1\nhidden = 16\nheads = 2\ninter = 32\nexperts = 4\n"
    )
    mcfg, tcfg = load_config_file(path)
    assert mcfg.seq_len == tcfg.seq_len == 16
    out = tmp_path / "run"
    assert main(["train", "--config", str(path), "--out", str(out)]) == 0
    assert TransformerLM.load(out / "checkpoint.npz").config.seq_len == 16
    capsys.readouterr()
    rows = run_experiment(
        small_model_cfg(seq_len=32),
        small_train_cfg(corpus_file, seq_len=32, steps=2),
        [("short", {"seq_len": 8})],
        out_dir=tmp_path / "exp",
    )
    assert rows[0]["status"] == "ok"
    assert TransformerLM.load(tmp_path / "exp" / "short" / "checkpoint.npz").config.seq_len == 8


@pytest.mark.parametrize(
    "line",
    ["batch_size = 0", "lr = -0.001", "lr = nan", "warmup_steps = -1",
     "eval_batches = 0", "eval_interval = 0"],
)
def test_config_file_rejects_out_of_range_train_fields(tmp_path, line):
    path = tmp_path / "bad.cfg"
    path.write_text(line + "\n")
    with pytest.raises(DataError, match="invalid configuration"):
        load_config_file(path)


def test_sample_batch_takes_a_stream_of_exactly_one_window():
    x, y = sample_batch(np.arange(129), 2, 128, np.random.default_rng(0))
    np.testing.assert_array_equal(x, np.tile(np.arange(128), (2, 1)))
    np.testing.assert_array_equal(y, np.tile(np.arange(1, 129), (2, 1)))
    # a longer stream draws its starts exactly as before
    x, _ = sample_batch(np.arange(300), 4, 128, np.random.default_rng(1))
    np.testing.assert_array_equal(x[:, 0], np.random.default_rng(1).integers(0, 171, size=4))


def test_evaluate_builds_no_graph_and_matches_grad_mode(corpus_file, monkeypatch):
    corpus = ingest_corpus(corpus_file)
    model = TransformerLM(small_model_cfg(), seed=3)
    tokens = corpus.val_ids[:16][None, :]
    with nx.no_grad():
        logits, _ = model.forward(tokens)
    assert logits._backward is None
    graph_logits, _ = model.forward(tokens)
    assert graph_logits._backward is not None
    np.testing.assert_array_equal(logits.data, graph_logits.data)

    cfg = small_train_cfg(corpus_file)
    without_graph = evaluate(model, corpus, cfg)
    monkeypatch.setattr(nx, "no_grad", contextlib.nullcontext)
    assert evaluate(model, corpus, cfg) == without_graph


def test_weight_decomposed_experts_train(corpus_file):
    mcfg = small_model_cfg(expert_kind="wd", rank=8)
    tcfg = small_train_cfg(corpus_file, steps=40, batch_size=4, lr=3e-3,
                           warmup_steps=5)
    _, final, history = train(mcfg, tcfg, quiet=True)
    assert history[-1]["ce"] < history[0]["ce"]
    assert np.isfinite(final["val_ce"])


def test_synthesize_corpus_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    synthesize_corpus(a, 50_000, seed=5)
    synthesize_corpus(b, 50_000, seed=5)
    assert a.read_bytes() == b.read_bytes()
    assert abs(len(a.read_bytes()) - 50_000) <= 1
