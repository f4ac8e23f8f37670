"""Ingestion, optimization semantics, determinism, the experiment harness."""

import contextlib
import dataclasses
import json

import numpy as np
import pytest

from moelab import numerics as nx
from moelab.cli import main
from moelab.config import ModelConfig
from moelab.errors import DataError
from moelab.model import TransformerLM
from moelab.trainer import (
    SPLIT_BLOCK,
    Corpus,
    Optimizer,
    TrainConfig,
    compute_losses,
    configure,
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


def _split_reference(data: bytes, val_frac: float, seed: int):
    """The split as a loop over ``np.array_split`` blocks, the oracle for
    ``ingest_corpus``'s one-mask split; None where the corpus is too small."""
    ids = np.frombuffer(data, dtype=np.uint8).astype(np.int64)
    n_blocks = max(1, len(ids) // SPLIT_BLOCK)
    blocks = np.array_split(ids, n_blocks)
    order = np.random.default_rng(seed).permutation(len(blocks))
    n_val = max(1, int(round(val_frac * len(blocks))))
    if n_val >= len(blocks):
        return None
    val_idx = set(order[:n_val].tolist())
    train_ids = np.concatenate([b for i, b in enumerate(blocks) if i not in val_idx])
    val_ids = np.concatenate([b for i, b in enumerate(blocks) if i in val_idx])
    return train_ids, val_ids


# 256 and 511 bytes are one block, too small to split, and 512 the smallest
# corpus that splits; at val_frac 0.9, 1279 bytes (4 blocks) are too small and
# 1280 (5 blocks) are not; 767, 1000, 4097 and 65541 leave len % n_blocks != 0
@pytest.mark.parametrize("length", [256, 511, 512, 767, 1_000, 1_279, 1_280, 4_097, 65_541])
@pytest.mark.parametrize("val_frac, seed", [(0.1, 0), (0.1, 7), (0.5, 3), (0.9, 1)])
def test_ingest_split_matches_array_split_reference(tmp_path, length, val_frac, seed):
    data = np.random.default_rng(length).integers(0, 256, size=length, dtype=np.uint8).tobytes()
    path = tmp_path / "c.txt"
    path.write_bytes(data)
    want = _split_reference(data, val_frac, seed)
    if want is None:
        with pytest.raises(DataError, match="too small"):
            ingest_corpus(path, val_frac, seed)
        return
    corpus = ingest_corpus(path, val_frac, seed)
    for got, ref in zip((corpus.train_ids, corpus.val_ids), want):
        assert got.dtype == np.uint8 and got.flags.writeable
        np.testing.assert_array_equal(got, ref)
    x, y = sample_batch(corpus.train_ids, 2, 8, np.random.default_rng(0))
    assert x.dtype == y.dtype == np.int64
    np.testing.assert_array_equal(x[:, 1:], y[:, :-1])


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


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("expert_kind", ["dense", "wd"])
def test_backward_writes_no_gradient_it_has_handed_out(corpus_file, monkeypatch,
                                                       expert_kind, dtype):
    """Every array a backward closure returns is made read-only, so a backward
    pass that adds into a handed-out gradient in place fails here."""
    result = nx._result

    def read_only_result(data, parents, backward):
        def frozen(g):
            grads = tuple(np.asarray(pg) for pg in backward(g))  # scalars become 0-d arrays
            for pg in grads:
                pg.flags.writeable = False
            return grads

        return result(data, parents, frozen)

    corpus = ingest_corpus(corpus_file)
    model = TransformerLM(small_model_cfg(expert_kind=expert_kind, dtype=dtype), seed=5)
    opt = Optimizer(model, small_train_cfg(corpus_file))
    batch = sample_batch(corpus.train_ids, 2, 16, np.random.default_rng(5))
    monkeypatch.setattr(nx, "_result", read_only_result)
    metrics = train_step(model, batch, opt, 0)
    assert np.isfinite(metrics["grad_norm"]) and metrics["grad_norm"] > 0


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


def test_run_experiment_rejects_unknown_override(tmp_path, corpus_file):
    variants = [("first", {"bles_coef": 0.0}), ("typo", {"bles_cof": 0.0})]
    with pytest.raises(ValueError, match="unknown override 'bles_cof'"):
        run_experiment(small_model_cfg(), small_train_cfg(corpus_file, steps=1), variants,
                       out_dir=tmp_path / "exp")
    assert not (tmp_path / "exp").exists()  # rejected before any variant trained


def test_a_split_shorter_than_one_window_fails_before_step_0(tmp_path, monkeypatch):
    """811 bytes split into about 541 train and 270 validation bytes. A window
    of seq_len + 1 that the validation split, or both splits, cannot hold is
    refused before any step runs, naming the corpus and the split; an
    experiment variant that lengthens the window is refused the same way."""
    path = tmp_path / "small.txt"
    synthesize_corpus(path, 811, seed=1)
    monkeypatch.setattr("moelab.trainer.train_step", lambda *args: pytest.fail("a step ran"))
    for seq_len, split in ((300, "val"), (600, "train")):
        with pytest.raises(DataError, match=f"small.txt: {split} split of \\d+ tokens"):
            train(small_model_cfg(seq_len=seq_len), small_train_cfg(path, seq_len=seq_len),
                  quiet=True)
    rows = run_experiment(small_model_cfg(seq_len=300), small_train_cfg(path, seq_len=16),
                          [("long", {"seq_len": 300})])
    assert "small.txt: val split of" in rows[0]["status"]


def test_configs_are_frozen():
    for cfg, field in ((small_model_cfg(), "experts"), (TrainConfig(), "steps")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, field, 3)
    with pytest.raises(ValueError, match="active=9"):
        configure({"active": 9}, small_model_cfg())  # a copy is validated too


def test_zero_rank_and_inter_mean_the_default_on_every_path(tmp_path, corpus_file):
    """hidden=16 gives inter 4 * 16 = 64 and rank 16 // 2 = 8."""
    shape = dict(hidden=16, heads=2, experts=4, seq_len=16, expert_kind="wd")
    constructed = ModelConfig(**shape, inter=0, rank=0)
    assert (constructed.inter, constructed.rank) == (64, 8)

    path = tmp_path / "zero.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in shape.items()) + "inter = 0\nrank = 0\n"
                    f"corpus = {corpus_file}\nsteps = 1\nbatch_size = 2\neval_batches = 1\n")
    from_file, _ = load_config_file(path)
    assert from_file == constructed

    base = ModelConfig(**shape, inter=32, rank=4)
    assert configure({"inter": 0, "rank": 0}, base)[0] == constructed

    out = tmp_path / "cli"
    assert main(["train", "--config", str(path), "--rank", "0", "--out", str(out)]) == 0
    assert TransformerLM.load(out / "checkpoint.npz").config.rank == 8

    rows = run_experiment(base, small_train_cfg(corpus_file, steps=1),
                          [("rank0", {"rank": 0})], out_dir=tmp_path / "exp")
    assert rows[0]["status"] == "ok"
    assert TransformerLM.load(tmp_path / "exp" / "rank0" / "checkpoint.npz").config.rank == 8


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
    bad.write_text("steps = 7\noptimizer = sgd\n")  # Adam is the only optimizer
    with pytest.raises(DataError, match="line 2: unknown key 'optimizer'"):
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
    ["batch_size = 0", "lr = -0.001", "lr = nan", "lr = inf", "warmup_steps = -1",
     "eval_batches = 0", "eval_interval = 0", "temperature = inf", "temperature = 0",
     "temperature = nan", "lb_coef = nan", "lb_coef = -0.1", "bles_coef = inf",
     "beta1 = 1.0", "beta1 = -0.1", "beta2 = 1.0", "beta2 = nan", "adam_eps = 0",
     "adam_eps = nan", "min_lr_frac = 3", "min_lr_frac = -0.5", "min_lr_frac = nan",
     "grad_clip = -1", "grad_clip = inf", "grad_clip = nan"],
)
def test_config_file_rejects_out_of_range_train_fields(tmp_path, line):
    path = tmp_path / "bad.cfg"
    path.write_text(line + "\n")
    with pytest.raises(DataError, match="invalid configuration"):
        load_config_file(path)


@pytest.mark.parametrize(
    "line", ["grad_clip = 0", "lr = 0", "beta1 = 0", "min_lr_frac = 0", "min_lr_frac = 1"]
)
def test_config_file_accepts_range_edges(tmp_path, line):
    path = tmp_path / "edge.cfg"
    path.write_text(line + "\n")
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


def test_evaluate_delta_uniform_pools_every_evaluated_selection(corpus_file, monkeypatch):
    model = TransformerLM(small_model_cfg(), seed=4)
    cfg = small_train_cfg(corpus_file, eval_batches=3)
    seen = []

    def recording(*args):
        out = compute_losses(*args)
        seen.append([selected.indices for _, _, selected in out[2]])
        return out

    monkeypatch.setattr("moelab.trainer.compute_losses", recording)
    result = evaluate(model, ingest_corpus(corpus_file), cfg)
    e = model.config.experts
    assert len(seen) == cfg.eval_batches
    per_layer = []
    for layer in zip(*seen):
        counts = np.bincount(np.concatenate([s.reshape(-1) for s in layer]), minlength=e)
        f = counts / counts.sum()
        per_layer.append(100.0 / e * np.abs(f - 1.0 / e).sum())
    assert result["val_delta_uniform"] == pytest.approx(np.mean(per_layer), rel=1e-12)


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
