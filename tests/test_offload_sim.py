"""Offload replay: swap accounting, latency model, metrics, trace files."""

import json
import tracemalloc

import numpy as np
import pytest

from moelab.config import ModelConfig
from moelab.errors import DataError
from moelab.experts import expert_param_count
from moelab.losses import hard_replacements
from moelab.model import RoutingTrace
from moelab.offload_sim import (
    OffloadCostModel,
    calibrate_cost_model,
    delta_uniform,
    exrep,
    read_trace,
    replay_offload,
    resident_set_sizes,
    synthetic_trace,
    write_trace,
)
from moelab.trainer import default_cost_model

COST = OffloadCostModel(
    expert_bytes=1e6, bandwidth=1e9, compute_per_token=0.01, shared_bytes=1e7
)


def random_trace(rng, layers, tokens, e, k):
    sel = np.empty((layers, tokens, k), dtype=np.int64)
    for l in range(layers):
        for t in range(tokens):
            sel[l, t] = rng.choice(e, size=k, replace=False)
    return RoutingTrace(selections=sel, num_experts=e)


def test_constant_trace_no_swaps_pure_compute_rate():
    sel = np.tile(np.array([1, 3]), (2, 10, 1))
    trace = RoutingTrace(selections=sel, num_experts=4)
    report = replay_offload(trace, COST)
    assert report.swap_events == 0
    assert report.tokens_per_sec == pytest.approx(1.0 / COST.compute_per_token)
    assert report.prefill_seconds == pytest.approx(2 * 2 * 1e6 / 1e9)


def test_alternating_k1_trace_two_swaps():
    trace = RoutingTrace(selections=np.array([[[0], [1], [0]]]), num_experts=2)
    report = replay_offload(trace, COST)
    assert report.swap_events == 2
    want = 3 * COST.compute_per_token + 2 * COST.expert_bytes / COST.bandwidth
    assert report.decode_seconds == pytest.approx(want)


def test_swap_events_equal_hard_replacements_on_random_traces():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        layers = int(rng.integers(1, 4))
        tokens = int(rng.integers(2, 65))
        e = int(rng.integers(2, 9))
        k = int(rng.integers(1, min(e, 4) + 1))
        trace = random_trace(rng, layers, tokens, e, k)
        report = replay_offload(trace, COST)
        want = 0
        for l in range(layers):
            h, _ = hard_replacements(trace.selections[l][None], e)
            want += h // 2
        assert report.swap_events == want


def test_exrep_extremes_and_warning():
    full_churn = RoutingTrace(
        selections=np.array([[[i % 2] for i in range(12)]]), num_experts=2
    )
    assert exrep(full_churn) == 100.0
    constant = RoutingTrace(selections=np.zeros((1, 9, 1), dtype=int), num_experts=2)
    assert exrep(constant) == 0.0
    single = RoutingTrace(selections=np.zeros((1, 1, 1), dtype=int), num_experts=2)
    with pytest.warns(UserWarning):
        assert exrep(single) == 0.0


def test_exrep_shares_integer_numerator_with_hard_replacements():
    rng = np.random.default_rng(1)
    for _ in range(100):
        trace = random_trace(rng, 1, int(rng.integers(2, 30)), 6, 2)
        h, h_norm = hard_replacements(trace.selections[0][None], 6)
        assert exrep(trace) == 100.0 * h_norm


def test_delta_uniform_closed_forms():
    uniform = RoutingTrace(
        selections=np.arange(4).reshape(1, 4, 1).repeat(2, axis=0), num_experts=4
    )
    overall, per_layer = delta_uniform(uniform)
    assert overall == 0.0

    collapse = RoutingTrace(selections=np.zeros((1, 8, 1), dtype=int), num_experts=4)
    overall, per_layer = delta_uniform(collapse)
    assert overall == pytest.approx(37.5)
    assert per_layer[0] == pytest.approx(37.5)

    e = 10**12  # only the two experts in use are counted
    pair = RoutingTrace(selections=np.tile([0, e - 1], (1, 5, 1)), num_experts=e)
    overall, _ = delta_uniform(pair)
    assert overall == pytest.approx(100 / e * (2 * abs(1 / 2 - 1 / e) + (e - 2) / e), rel=1e-12)


def test_delta_uniform_against_counting_oracle():
    rng = np.random.default_rng(2)
    for _ in range(50):
        e = int(rng.integers(2, 7))
        k = int(rng.integers(1, e + 1))
        trace = random_trace(rng, int(rng.integers(1, 4)), int(rng.integers(1, 20)), e, k)
        overall, per_layer = delta_uniform(trace)
        for l in range(trace.layers):
            counts = np.zeros(e)
            for t in range(trace.tokens):
                for ki in range(k):
                    counts[trace.selections[l, t, ki]] += 1
            f = counts / counts.sum()
            want = 100.0 * np.abs(f - 1.0 / e).mean()
            assert per_layer[l] == pytest.approx(want, abs=1e-12)
        assert overall == pytest.approx(np.mean(per_layer), abs=1e-12)


def test_resident_set_bound_after_every_step():
    rng = np.random.default_rng(3)
    for _ in range(100):
        e = int(rng.integers(2, 9))
        k = int(rng.integers(1, min(e, 4) + 1))
        trace = random_trace(rng, 2, int(rng.integers(1, 20)), e, k)
        sizes = resident_set_sizes(trace)
        assert np.all(sizes <= k)


def test_tokens_per_sec_strictly_decreasing_in_swaps():
    rates = []
    for pct in (0.0, 10.0, 30.0, 60.0, 90.0):
        trace = synthetic_trace(pct, tokens=64, layers=2, num_experts=8, k=2, seed=4)
        rates.append(replay_offload(trace, COST).tokens_per_sec)
    assert all(a > b for a, b in zip(rates, rates[1:]))


def test_peak_memory_closed_forms():
    # The replay's peak equals the parameter accounting: shared parameters plus
    # the K resident experts of every layer, at 4 bytes per parameter.
    for experts, active in ((8, 2), (4, 4)):
        cfg = ModelConfig(layers=3, heads=2, hidden=32, experts=experts, active=active)
        trace = synthetic_trace(0.0, tokens=9, layers=3, num_experts=experts, k=active)
        report = replay_offload(trace, default_cost_model(cfg))
        resident, total = expert_param_count(cfg)
        assert report.peak_resident_bytes == round(resident * 4)
        if experts == active:
            assert report.peak_resident_bytes == round(total * 4)


def test_cost_model_validation():
    with pytest.raises(ValueError):
        OffloadCostModel(0, 1, 1, 1)
    with pytest.raises(ValueError):
        OffloadCostModel(1, 1, -2, 1)
    for bad in (float("nan"), float("inf")):
        for i in range(4):
            args = [1.0] * 4
            args[i] = bad
            with pytest.raises(ValueError):
                OffloadCostModel(*args)


def test_synthetic_trace_hits_target_event_count():
    for pct in (6.55, 43.82):
        trace = synthetic_trace(pct, tokens=129, layers=2, num_experts=8, k=2, seed=5)
        events = int(round(pct / 100.0 * 2 * 128))
        total = 0
        for l in range(2):
            h, _ = hard_replacements(trace.selections[l][None], 8)
            total += h // 2
        assert total == 2 * events
        assert exrep(trace) == pytest.approx(100.0 * events / (2 * 128), abs=1e-9)


def test_synthetic_trace_validation():
    with pytest.raises(ValueError):
        synthetic_trace(120.0, 10, 1, 4, 2)
    with pytest.raises(ValueError):
        synthetic_trace(10.0, 1, 1, 4, 2)
    with pytest.raises(ValueError):
        synthetic_trace(10.0, 10, 1, 2, 2)  # churn impossible with all experts active
    with pytest.raises(ValueError):
        synthetic_trace(100.0, 50, 1, num_experts=3, k=2)  # 2 swaps per step, 1 outsider
    # zero churn with k == E is fine
    trace = synthetic_trace(0.0, 10, 1, 2, 2)
    assert exrep(trace) == 0.0


def test_calibration_reproduces_observations():
    cost = calibrate_cost_model(15.02, 43.82, 23.10, 6.55, tokens=129, layers=1, k=2,
                                expert_bytes=3.3e7, shared_bytes=1e9)
    high = replay_offload(synthetic_trace(43.82, 129, 1, 8, 2, seed=1), cost)
    low = replay_offload(synthetic_trace(6.55, 129, 1, 8, 2, seed=2), cost)
    assert high.tokens_per_sec == pytest.approx(15.02, rel=0.02)
    assert low.tokens_per_sec == pytest.approx(23.10, rel=0.03)
    ratio = low.tokens_per_sec / high.tokens_per_sec
    assert 1.3 <= ratio <= 1.8


def test_calibration_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        calibrate_cost_model(15.0, 40.0, 20.0, 40.0, 129, 1, 2, 1e6, 1e7)
    with pytest.raises(ValueError):
        # faster rate at higher churn implies negative swap cost
        calibrate_cost_model(23.0, 43.82, 15.0, 6.55, 129, 1, 2, 1e6, 1e7)


def test_trace_file_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    trace = random_trace(rng, 3, 17, 6, 2)
    path = tmp_path / "trace.jsonl"
    write_trace(trace, path)
    back = read_trace(path)
    assert np.array_equal(back.selections, trace.selections)
    assert back.num_experts == trace.num_experts


def test_trace_file_errors_name_the_line(tmp_path):
    path = tmp_path / "t.jsonl"

    path.write_text("")
    with pytest.raises(DataError, match="empty"):
        read_trace(path)

    path.write_text('{"layers": 1}\n')
    with pytest.raises(DataError, match="line 1"):
        read_trace(path)

    header = '{"format": "moelab-trace-v1", "layers": 1, "tokens": 2, "active": 2, "experts": 4}\n'
    path.write_text(header + '{"token": 0, "layer": 0, "experts": [0, 1]}\n')
    with pytest.raises(DataError, match="expected 2 records"):
        read_trace(path)

    path.write_text(
        header
        + '{"token": 0, "layer": 0, "experts": [0, 1]}\n'
        + '{"token": 1, "layer": 0, "experts": [0]}\n'
    )
    with pytest.raises(DataError, match="line 3.*expected 2 expert ids"):
        read_trace(path)

    path.write_text(
        header
        + '{"token": 0, "layer": 0, "experts": [0, 1]}\n'
        + '{"token": 1, "layer": 0, "experts": [0, 9]}\n'
    )
    with pytest.raises(DataError, match=r"line 3.*outside \[0, 4\)"):
        read_trace(path)

    path.write_text(header + "not json\n" + '{"token": 1, "layer": 0, "experts": [0, 1]}\n')
    with pytest.raises(DataError, match="line 2.*invalid JSON"):
        read_trace(path)

    path.write_text(
        header
        + '{"token": 0, "layer": 0, "experts": [0, 1]}\n'
        + '{"token": 1, "layer": 0, "experts": [1, 1]}\n'
    )
    with pytest.raises(DataError, match=r"line 3.*duplicate expert ids \[1, 1\]"):
        read_trace(path)

    two_by_two = json.dumps({"format": "moelab-trace-v1", "layers": 2, "tokens": 2,
                             "active": 2, "experts": 4}) + "\n"
    layer_major = [(0, 0), (1, 0), (0, 1), (1, 1)]
    repeated = [(0, 0), (0, 0), (1, 0), (1, 1)]
    for order, message in ((layer_major, "line 3.*token-major"), (repeated, "line 3")):
        path.write_text(two_by_two + "".join(
            json.dumps({"token": t, "layer": l, "experts": [0, 1]}) + "\n" for t, l in order))
        with pytest.raises(DataError, match=message):
            read_trace(path)

    path.write_text(
        header
        + '{"token": 0, "layer": 0, "experts": [true, false]}\n'
        + '{"token": 1, "layer": 0, "experts": [0, 1]}\n'
    )
    with pytest.raises(DataError, match="line 2.*expert id true is not an integer"):
        read_trace(path)

    records = '{"token": 0, "layer": 0, "experts": [0, 1]}\n' * 2
    sizes = {"layers": 1, "tokens": 2, "active": 2, "experts": 4}
    for field, value in (("layers", True), ("tokens", 2.9), ("active", "2"), ("experts", None)):
        bad_header = json.dumps({"format": "moelab-trace-v1", **sizes, field: value})
        path.write_text(bad_header + "\n" + records)
        with pytest.raises(DataError, match=f"line 1.*{field}={json.dumps(value)} is not an integer"):
            read_trace(path)

    path.write_text(json.dumps({"format": "moelab-trace-v1", **sizes, "active": 5}) + "\n" + records)
    with pytest.raises(DataError, match="line 1.*active=5 exceeds experts=4"):
        read_trace(path)

    path.write_text(_huge_active_trace())
    with pytest.raises(DataError, match="line 2.*expected 10000000 expert ids"):
        read_trace(path)

    path.write_text(json.dumps({"format": "moelab-trace-v1", **sizes, "experts": 2**64}) + "\n"
                    + '{"token": 0, "layer": 0, "experts": [0, 18446744073709551615]}\n' * 2)
    with pytest.raises(DataError, match="line 1.*does not fit in int64"):
        read_trace(path)

    for record in ('{"token": 1.7, "layer": 0, "experts": [0, 1]}',
                   '{"token": 1, "layer": false, "experts": [0, 1]}',
                   '{"layer": 0, "experts": [0, 1]}'):
        path.write_text(header + '{"token": 0, "layer": 0, "experts": [0, 1]}\n' + record + "\n")
        with pytest.raises(DataError, match="line 3.*must be integers"):
            read_trace(path)


def _huge_active_trace() -> str:
    """A header claiming 10**7 active experts, refuted by its one 2-id record."""
    header = {"format": "moelab-trace-v1", "layers": 1, "tokens": 1,
              "active": 10**7, "experts": 2 * 10**7}
    return json.dumps(header) + '\n{"token": 0, "layer": 0, "experts": [0, 1]}\n'


def test_trace_header_sizes_allocate_nothing_before_the_records(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text(_huge_active_trace())
    tracemalloc.start()
    try:
        with pytest.raises(DataError):
            read_trace(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20, f"peak {peak / 2**20:.1f} MB before the first record was checked"


def _json_dumps_trace(trace: RoutingTrace) -> str:
    """The trace file as one ``json.dumps`` per record would write it."""
    layers, tokens, k = trace.selections.shape
    header = {"format": "moelab-trace-v1", "layers": layers, "tokens": tokens, "active": k,
              "experts": trace.num_experts}
    lines = [json.dumps(header)]
    for t in range(tokens):
        for l in range(layers):
            lines.append(json.dumps({"token": t, "layer": l,
                                     "experts": trace.selections[l, t].tolist()}))
    return "\n".join(lines) + "\n"


def _distinct_ids(rng, layers, tokens, k, experts):
    """(layers, tokens, k) ids in [0, experts), distinct within each token."""
    base = np.sort(rng.integers(0, experts - k + 1, size=(layers, tokens, k)), axis=-1)
    return rng.permuted(base + np.arange(k), axis=-1)


@pytest.mark.parametrize(
    "layers,tokens,k,experts,offset",
    [
        (3, 50, 1, 5, 0),  # K = 1
        (1, 300, 2, 8, 0),  # L = 1; 300 records are not a multiple of 128
        (2, 64, 2, 8, 0),  # exactly one full block
        (5, 31, 3, 2**62 + 100, 2**62),  # ids near 2**62; 155 records
    ],
)
def test_write_trace_matches_json_dumps_per_record(tmp_path, layers, tokens, k, experts, offset):
    rng = np.random.default_rng(layers * tokens)
    sel = offset + _distinct_ids(rng, layers, tokens, k, experts - offset)
    trace = RoutingTrace(selections=sel, num_experts=experts)
    path = tmp_path / "t.jsonl"
    write_trace(trace, path)
    assert path.read_bytes() == _json_dumps_trace(trace).encode()
    back = read_trace(path)
    assert np.array_equal(back.selections, sel) and back.num_experts == experts


def test_non_canonical_trace_files_read_like_canonical_ones(tmp_path):
    trace = RoutingTrace(selections=_distinct_ids(np.random.default_rng(2), 2, 70, 3, 9),
                         num_experts=9)
    canonical = _json_dumps_trace(trace)
    header, *records = [json.loads(line) for line in canonical.splitlines()]
    compact = "".join(json.dumps(obj, separators=(",", ":")) + "\n" for obj in [header] + records)
    reordered = json.dumps(header) + "\n" + "".join(
        json.dumps(dict(reversed(rec.items()))) + "\n" for rec in records)
    extra_key = json.dumps(header) + "\n" + "".join(
        json.dumps({**rec, "gate": 0.5}) + "\n" for rec in records)
    variants = {
        "compact separators": compact,
        "CRLF line ends": canonical.replace("\n", "\r\n"),
        "reordered keys": reordered,
        "extra key": extra_key,
        "no trailing newline": canonical.rstrip("\n"),
    }
    path = tmp_path / "t.jsonl"
    for name, text in variants.items():
        path.write_bytes(text.encode())
        back = read_trace(path)
        assert np.array_equal(back.selections, trace.selections), name
        assert back.num_experts == 9, name


def test_ids_a_lenient_number_scan_would_misread_fail_on_their_line(tmp_path):
    # "-3" and "01" scan as the valid ids 3 and 1; the overflow saturates
    header = '{"format": "moelab-trace-v1", "layers": 1, "tokens": 2, "active": 2, "experts": 4}\n'
    first = '{"token": 0, "layer": 0, "experts": [0, 1]}\n'
    path = tmp_path / "t.jsonl"
    for bad_id, message in (("-3", r"line 3: expert id -3 outside \[0, 4\)"),
                            ("01", "line 3: invalid JSON"),
                            ("99999999999999999999",
                             r"line 3: expert id 99999999999999999999 outside \[0, 4\)")):
        path.write_text(header + first + f'{{"token": 1, "layer": 0, "experts": [0, {bad_id}]}}\n')
        with pytest.raises(DataError, match=message):
            read_trace(path)


def test_trace_header_token_count_allocates_nothing_before_the_records(tmp_path):
    path = tmp_path / "t.jsonl"
    header = {"format": "moelab-trace-v1", "layers": 1, "tokens": 10**12, "active": 2,
              "experts": 4}
    path.write_text(json.dumps(header) + '\n{"token": 0, "layer": 0, "experts": [0, 1]}\n')
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match="expected 1000000000000 records"):
            read_trace(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20, f"peak {peak / 2**20:.1f} MB for a 1-record trace"


def test_malformed_selection_tensor_rejected():
    with pytest.raises(DataError):
        RoutingTrace(selections=np.array([[[0, 4]]]), num_experts=4)
    with pytest.raises(DataError):
        RoutingTrace(selections=np.array([[0, 1]]), num_experts=4)
    with pytest.raises(DataError, match="empty"):
        RoutingTrace(selections=np.zeros((1, 0, 2), dtype=np.int64), num_experts=4)
    with pytest.raises(DataError, match="repeat an expert id"):
        RoutingTrace(selections=np.array([[[1, 1], [2, 3]]]), num_experts=4)


def test_replay_memory_is_bounded_by_the_trace_not_the_expert_count():
    trace = RoutingTrace(selections=np.array([[[0, 1], [1, 999_999]]]), num_experts=10**6)
    tracemalloc.start()
    try:
        report = replay_offload(trace, COST)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.swap_events == 1 and report.exrep_pct == 50.0
    assert peak < 2**20, f"peak {peak / 2**20:.1f} MB for a 2-token trace"
