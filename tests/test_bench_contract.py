"""The moelab names that the benchmark under perfbench/ patches and reads.

perfbench/tracer.py rebinds moelab entry points by module attribute and
perfbench/run.py records ``_kernels.USE_NUMBA`` in its run manifest. Deleting
or renaming one of those names, or changing the signature of a method the
tracer wraps, fails here, not in every benchmark run. So does a change that
stops perfbench/workloads.py from varying the frozen desk configs its way.
"""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np

import moelab

ROOT = Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_patches_install_and_uninstall():
    tracer = _load_tracer()
    patches = tracer.Patches(tracer.Tracer(), moelab)
    originals = [(owner, attr, _current(owner, attr)) for owner, attr, _ in patches.targets]
    patches.install()
    try:
        for owner, attr, new in patches.targets:
            assert _current(owner, attr) is new
    finally:
        patches.uninstall()
    for owner, attr, old in originals:
        assert _current(owner, attr) is old, f"{owner}.{attr} was not restored"


def test_kernel_backend_flag_is_readable():
    assert moelab._kernels.USE_NUMBA is False


def test_workload_calls_run_under_the_patches(tmp_path):
    """What the decode and train workloads and their trace checks call, run
    once with tracing on."""
    tracer = _load_tracer()
    tr = tracer.Tracer()
    patches = tracer.Patches(tr, moelab)
    model_mod, trainer, offload_sim = moelab.model, moelab.trainer, moelab.offload_sim
    mc = moelab.config.ModelConfig(layers=2, heads=2, hidden=16, inter=32, seq_len=16,
                                   experts=4, active=2, dtype="float32")
    tc = trainer.TrainConfig(steps=2, batch_size=2, seq_len=16, eval_batches=1)
    corpus = trainer.Corpus(train_ids=np.arange(200) % 256, val_ids=np.arange(100) % 256)
    model_mod.TransformerLM(mc, seed=0).save(tmp_path / "model.npz")
    patches.install()
    try:
        model = model_mod.TransformerLM.load(tmp_path / "model.npz")
        _, trace = model.generate(np.array([1, 2, 3]), 4)
        offload_sim.write_trace(trace, tmp_path / "t.trace")
        back = offload_sim.read_trace(tmp_path / "t.trace")
        offload_sim.replay_offload(back, trainer.default_cost_model(mc))
        # what workloads._check_trace calls; traced kernels take positional arguments only
        for layer in back.selections:
            moelab.losses.hard_replacements(layer[None], back.num_experts)
        offload_sim.exrep(back)
        offload_sim.delta_uniform(back)
        batch = trainer.sample_batch(corpus.train_ids, tc.batch_size, tc.seq_len,
                                     np.random.default_rng(0))
        trainer.train_step(model, batch, trainer.Optimizer(model, tc), 0)
        trainer.evaluate(model, corpus, tc)
    finally:
        patches.uninstall()
    for name in ("model.ckpt_load", "model.generate", "model.attention", "experts.ffn",
                 "offload_sim.read", "offload_sim.exrep", "offload_sim.delta_uniform",
                 "_kernels.transition_count", "_kernels.swap_in_counts",
                 "trainer.forward", "trainer.backward", "trainer.evaluate"):
        assert tr.sink.calls[name] > 0, name
    assert not tr.stack


def test_desk_configs_vary_the_way_the_workloads_do(tmp_path):
    """``workloads._desk`` and ``Train.setup``: load configs/desk.cfg, then
    ``dataclasses.replace`` on both configs; ``Replay.setup`` builds a
    ModelConfig for ``default_cost_model`` and run.py records ``asdict``."""
    trainer = moelab.trainer
    mc, tc = trainer.load_config_file(ROOT / "configs" / "desk.cfg")
    mc = dataclasses.replace(mc, expert_kind="wd")
    tc = dataclasses.replace(tc, corpus=str(tmp_path / "corpus.txt"), seed=3)
    assert (mc.expert_kind, mc.rank, mc.dtype) == ("wd", 32, "float32")
    assert (tc.corpus, tc.seed, tc.seq_len) == (str(tmp_path / "corpus.txt"), 3, mc.seq_len)
    model = moelab.model.TransformerLM(mc, seed=tc.seed)
    trainer.Optimizer(model, tc)
    assert dataclasses.asdict(model.config)["expert_kind"] == "wd"
    cost_cfg = moelab.config.ModelConfig(layers=24, experts=64, active=8)
    assert trainer.default_cost_model(cost_cfg).bandwidth > 0
