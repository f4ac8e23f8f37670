"""Command-line surface: subcommands, exit codes, artifact files."""

import json

import numpy as np
import pytest

from moelab import fixtures
from moelab.cli import main
from moelab.offload_sim import synthetic_trace, write_trace
from moelab.trainer import synthesize_corpus


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "corpus.txt"
    synthesize_corpus(path, 80_000, seed=1)
    return path


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, corpus_file):
    out = tmp_path_factory.mktemp("cli") / "run"
    code = main([
        "train", "--corpus", str(corpus_file), "--steps", "3", "--seed", "1",
        "--experts", "4", "--active", "2", "--out", str(out),
    ])
    assert code == 0
    return out


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["train", "--bogus-flag"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["simulate-offload"])  # missing --trace
    assert exc.value.code == 1
    capsys.readouterr()


def test_train_produces_checkpoint_and_metrics(run_dir, capsys):
    assert (run_dir / "checkpoint.npz").exists()
    assert (run_dir / "metrics.jsonl").exists()
    capsys.readouterr()


def test_train_without_corpus_exits_1(capsys):
    assert main(["train", "--steps", "1"]) == 1
    capsys.readouterr()


def test_train_invalid_parameters_exit_1(corpus_file, capsys):
    code = main(["train", "--corpus", str(corpus_file), "--steps", "1",
                 "--experts", "2", "--active", "5"])
    assert code == 1
    assert main(["train", "--corpus", str(corpus_file), "--steps", "0"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("command", ["train", "eval", "generate", "simulate-offload", "ablate"])
def test_output_path_that_is_a_file_exits_1(run_dir, corpus_file, tmp_path, capsys, monkeypatch,
                                            command):
    """The path is refused before any work: eval must not evaluate, generate
    decode, simulate-offload replay nor ablate train (``pytest.fail`` is not an
    ``Exception``, so ablate's per-variant guard cannot swallow it)."""
    def work(*args, **kwargs):
        pytest.fail("ran before the output path was made")

    monkeypatch.setattr("moelab.cli.evaluate", work)
    monkeypatch.setattr("moelab.trainer.train", work)
    monkeypatch.setattr("moelab.cli.TransformerLM.generate", work)
    monkeypatch.setattr("moelab.cli.replay_offload", work)
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    trace = tmp_path / "fixture.trace"
    write_trace(synthetic_trace(20.0, 8, 1, 4, 2, seed=0), trace)
    train = ["--corpus", str(corpus_file), "--steps", "1", "--experts", "4", "--active", "2"]
    args = {
        "train": [*train, "--out", str(blocker)],
        "eval": ["--checkpoint", str(run_dir / "checkpoint.npz"), "--corpus", str(corpus_file),
                 "--out", str(blocker)],
        "generate": ["--checkpoint", str(run_dir / "checkpoint.npz"), "--prompt", "Toza",
                     "--tokens", "2", "--trace", str(blocker / "gen.trace")],
        "simulate-offload": ["--trace", str(trace), "--out", str(blocker)],
        "ablate": [*train, "--axis", "active", "--values", "1,2", "--out", str(blocker)],
    }[command]
    assert main([command, *args]) == 1
    assert f"cannot write {blocker}" in capsys.readouterr().err


def test_eval_checkpoint(run_dir, corpus_file, capsys):
    code = main(["eval", "--checkpoint", str(run_dir / "checkpoint.npz"),
                 "--corpus", str(corpus_file)])
    assert code == 0
    out = capsys.readouterr().out
    assert "val_ppl" in out and "val_exrep" in out


@pytest.mark.parametrize("key,value", [("bogus", 1), ("layers", "2"), ("hidden", 64.0)])
def test_checkpoint_with_bad_config_key_exits_2(run_dir, tmp_path, capsys, key, value):
    with np.load(run_dir / "checkpoint.npz") as ckpt:
        arrays = dict(ckpt)
    config = json.loads(str(arrays["__config__"]))
    config[key] = value
    arrays["__config__"] = np.array(json.dumps(config))
    path = tmp_path / "bad_config.npz"
    np.savez(path, **arrays)
    code = main(["generate", "--checkpoint", str(path), "--prompt", "Toza", "--tokens", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert str(path) in err and key in err


def _truncated(run_dir, path):
    path.write_bytes((run_dir / "checkpoint.npz").read_bytes()[:-100])


def _plain_array(run_dir, path):
    with open(path, "wb") as fh:  # an .npy payload, not an .npz archive
        np.save(fh, np.zeros(3))


@pytest.mark.parametrize(
    "make", [_truncated, lambda run_dir, path: path.write_bytes(b""), _plain_array],
    ids=["truncated", "empty", "plain-array"],
)
@pytest.mark.parametrize("command", ["generate", "eval"])
def test_malformed_checkpoint_exits_2(run_dir, corpus_file, tmp_path, capsys, make, command):
    path = tmp_path / "broken.npz"
    make(run_dir, path)
    tail = ["--prompt", "Toza"] if command == "generate" else ["--corpus", str(corpus_file)]
    assert main([command, "--checkpoint", str(path), *tail]) == 2
    assert str(path) in capsys.readouterr().err


def test_config_file_with_invalid_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"steps = 3\n\xff\n")
    assert main(["train", "--config", str(path)]) == 2
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize(
    "body", [b"\xff\n", b"[" * 100_000 + b"\n"], ids=["invalid-utf8", "deep-nesting"]
)
def test_malformed_trace_exits_2(tmp_path, capsys, body):
    path = tmp_path / "bad.trace"
    path.write_bytes(body)
    assert main(["simulate-offload", "--trace", str(path)]) == 2
    assert str(path) in capsys.readouterr().err


def test_generate_and_trace_file(run_dir, tmp_path, capsys):
    trace_path = tmp_path / "gen.trace"
    code = main(["generate", "--checkpoint", str(run_dir / "checkpoint.npz"),
                 "--prompt", "Toza", "--tokens", "8", "--trace", str(trace_path)])
    assert code == 0
    assert trace_path.exists()
    capsys.readouterr()

    code = main(["simulate-offload", "--trace", str(trace_path), "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "tokens_per_sec" in out
    assert (tmp_path / "offload_report.csv").exists()


@pytest.mark.parametrize(
    "args, message",
    [(["--prompt", ""], "prompt must contain"), (["--prompt", "Toza", "--tokens", "0"], "n must be")],
    ids=["empty-prompt", "zero-tokens"],
)
def test_generate_bad_parameters_exit_1(run_dir, tmp_path, capsys, args, message):
    """A decode that fails leaves no trace file behind, not even an empty one."""
    trace = tmp_path / "gen.trace"
    assert main(["generate", "--checkpoint", str(run_dir / "checkpoint.npz"), *args,
                 "--trace", str(trace)]) == 1
    assert message in capsys.readouterr().err
    assert not trace.exists()


def test_simulate_offload_fixture_trace(tmp_path, capsys):
    trace = fixtures.bundled_traces()["bles"]
    path = tmp_path / "bles.trace"
    write_trace(trace, path)
    code = main(["simulate-offload", "--trace", str(path), "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    pct = float(next(l for l in out.splitlines() if l.startswith("exrep_pct")).split()[1])
    assert round(pct, 2) == 16.18
    assert "swap_events          11" in out


@pytest.mark.parametrize(
    "flag, value",
    [("--bandwidth", "nan"), ("--compute-per-token", "nan"), ("--expert-bytes", "inf")],
)
def test_simulate_offload_non_finite_cost_exits_1(tmp_path, capsys, flag, value):
    path = tmp_path / "bles.trace"
    write_trace(fixtures.bundled_traces()["bles"], path)
    assert main(["simulate-offload", "--trace", str(path), flag, value, "--out", str(tmp_path)]) == 1
    assert "positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "offload_report.csv").exists()


def test_simulate_offload_empty_trace_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty.trace"
    empty.write_text("")
    assert main(["simulate-offload", "--trace", str(empty)]) == 2
    err = capsys.readouterr().err
    assert "data error" in err


def test_simulate_offload_parse_error_names_line(tmp_path, capsys):
    path = tmp_path / "broken.trace"
    trace = synthetic_trace(20.0, 8, 1, 4, 2, seed=0)
    write_trace(trace, path)
    lines = path.read_text().splitlines()
    lines[3] = "garbage"
    path.write_text("\n".join(lines) + "\n")
    assert main(["simulate-offload", "--trace", str(path)]) == 2
    assert "line 4" in capsys.readouterr().err


def test_higher_churn_trace_reports_lower_toks(tmp_path, capsys):
    rates = {}
    for name, pct in (("low", 5.0), ("high", 80.0)):
        path = tmp_path / f"{name}.trace"
        write_trace(synthetic_trace(pct, 64, 2, 8, 2, seed=3), path)
        assert main(["simulate-offload", "--trace", str(path), "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        rates[name] = float(next(l for l in out.splitlines() if l.startswith("tokens_per_sec")).split()[1])
    assert rates["high"] < rates["low"]


def test_fixtures_command_passes(capsys):
    assert main(["fixtures"]) == 0
    out = capsys.readouterr().out
    assert "replacements[bles]" in out
    assert "11/11 reference checks passed" in out


def test_fixtures_command_fails_on_tampered_expectation(monkeypatch, capsys):
    monkeypatch.setitem(fixtures.EXPECTED_REPLACEMENTS, "bles", 12)
    assert main(["fixtures"]) == 3
    out = capsys.readouterr().out
    assert "FAIL" in out
    failing = [l for l in out.splitlines() if "FAIL" in l]
    assert any("replacements[bles]" in l for l in failing)


def test_tampered_activation_grid_is_rejected():
    rows = list(fixtures.BLES_ACTIVATION)
    rows[1] = "1" + rows[1][1:]  # flip one bit: token 0 now has 3 active experts
    with pytest.raises(ValueError, match="token 0"):
        fixtures.activation_to_trace(tuple(rows))


def test_ablate_bles_axis(corpus_file, tmp_path, capsys):
    code = main([
        "ablate", "--corpus", str(corpus_file), "--steps", "2", "--seed", "0",
        "--experts", "4", "--active", "2", "--axis", "bles", "--values", "0,0.1",
        "--out", str(tmp_path / "abl"),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "bles=0" in out and "bles=0.1" in out
    assert (tmp_path / "abl" / "comparison.csv").exists()


def test_ablate_active_axis_structure(corpus_file, capsys):
    code = main([
        "ablate", "--corpus", str(corpus_file), "--steps", "2",
        "--experts", "8", "--axis", "active", "--values", "1,2,4",
    ])
    assert code == 0
    out = capsys.readouterr().out
    for v in ("active=1", "active=2", "active=4"):
        assert v in out
