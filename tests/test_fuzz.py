"""Hostile-input fuzzers: every reader of external files either returns or
raises DataError, never another exception, on random bytes and on truncated
or byte-flipped copies of a valid file. ``read_trace`` must also agree with
its per-line parser on those bytes and round-trip every trace it is given."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moelab import offload_sim
from moelab.config import ModelConfig
from moelab.errors import DataError
from moelab.model import RoutingTrace, TransformerLM
from moelab.offload_sim import read_trace, synthetic_trace, write_trace
from moelab.trainer import load_config_file

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "desk.cfg"


def _valid_checkpoint(path: Path) -> None:
    cfg = ModelConfig(layers=1, heads=2, hidden=8, inter=16, vocab=17, seq_len=8,
                      experts=2, active=1)
    with open(path, "wb") as fh:  # a file object keeps numpy from appending ".npz"
        TransformerLM(cfg, seed=0).save(fh)


def _valid_trace(path: Path) -> None:
    write_trace(synthetic_trace(20.0, 6, 2, 4, 2, seed=0), path)


@st.composite
def _hostile(draw, valid: bytes) -> bytes:
    """Random bytes, a truncation of ``valid``, or ``valid`` with a few bytes flipped."""
    kind = draw(st.sampled_from(["random", "truncated", "flipped"]))
    if kind == "random":
        return draw(st.binary(max_size=512))
    if kind == "truncated":
        return valid[: draw(st.integers(0, len(valid) - 1))]
    data = bytearray(valid)
    flips = st.tuples(st.integers(0, len(data) - 1), st.integers(1, 255))
    for pos, mask in draw(st.lists(flips, min_size=1, max_size=4)):
        data[pos] ^= mask
    return bytes(data)


@pytest.mark.parametrize(
    "reader,make_valid",
    [
        (read_trace, _valid_trace),
        (load_config_file, lambda path: path.write_bytes(CONFIG.read_bytes())),
        (TransformerLM.load, _valid_checkpoint),
    ],
    ids=["read_trace", "load_config_file", "checkpoint_load"],
)
def test_reader_returns_or_raises_data_error(reader, make_valid):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        make_valid(path)
        valid = path.read_bytes()
        reader(path)  # the unmodified file reads

        @settings(max_examples=60, deadline=None, database=None)
        @given(_hostile(valid))
        def fuzz(data):
            path.write_bytes(data)
            try:
                reader(path)
            except DataError:
                pass

        fuzz()


def _read_by_lines(path: Path) -> RoutingTrace:
    """``read_trace`` with only its per-line parser."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: cannot read trace ({exc})") from exc
    return offload_sim._parse_lines(path, text)


def _outcome(reader, path: Path):
    try:
        trace = reader(path)
    except DataError as exc:
        return str(exc)
    return trace.selections.dtype, trace.selections.tolist(), trace.num_experts


def test_read_trace_agrees_with_the_per_line_parser():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        # 2 x 70 records: one full 128-record block and a partial one
        write_trace(synthetic_trace(20.0, 70, 2, 5, 2, seed=0), path)
        valid = path.read_bytes()

        @settings(max_examples=200, deadline=None, database=None)
        @given(_hostile(valid))
        def fuzz(data):
            path.write_bytes(data)
            assert _outcome(read_trace, path) == _outcome(_read_by_lines, path)

        fuzz()


@settings(max_examples=100, deadline=None, database=None)
@given(
    layers=st.integers(1, 4),
    tokens=st.integers(1, 80),
    k=st.integers(1, 6),
    experts=st.integers(1, 2**63 - 1),
    seed=st.integers(0, 2**32 - 1),
)
def test_trace_round_trips(layers, tokens, k, experts, seed):
    k = min(k, experts)
    rng = np.random.default_rng(seed)
    base = np.sort(rng.integers(0, experts - k + 1, size=(layers, tokens, k)), axis=-1)
    trace = RoutingTrace(selections=rng.permuted(base + np.arange(k), axis=-1),
                         num_experts=experts)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace"
        write_trace(trace, path)
        back = read_trace(path)
    assert np.array_equal(back.selections, trace.selections)
    assert back.num_experts == experts
