"""Replay expert-offloading over routing traces; latency and memory models.

The resident set per layer holds exactly the K selected experts. Whenever a
token selects a different set than its predecessor, the newly selected experts
are transferred in (charged at expert_bytes / bandwidth each) and the evicted
ones are written back for free (write-back overlaps with compute). Tokens per
second is tokens / decode time; the cold-start load of the first token's
resident set is charged separately as prefill and never counted as a
replacement, since replacements only compare consecutive token pairs.

One ``_kernels.swap_in_counts`` pass per replay gives both the swap events and
ExRep. Every metric here counts the expert ids present in the trace, so a
replay's memory is bounded by the trace, not by its expert count.

Absolute tokens/sec from published hardware runs are not reproducible here;
only ratios between traces replayed under one cost model are meaningful.
"""

from __future__ import annotations

import json
import math
import re
import warnings
from array import array
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import DataError
from .model import RoutingTrace

TRACE_MAGIC = "moelab-trace-v1"
# trace records per rendered or parsed block: 1,024-record blocks raised the
# peak RSS of the perfbench replay workload by about 1.3 MB (of 43 MB)
_BLOCK = 128
_BLOCK_LINES = re.compile(r"(?:[^\n]*\n){1,%d}" % _BLOCK)
_DIGITS_ONLY = "".join(c if c.isdigit() else " " for c in map(chr, range(128)))


@dataclass(frozen=True)
class OffloadCostModel:
    """Analytic cost constants for the replay.

    expert_bytes: size of one expert's parameters on the wire.
    bandwidth: host-to-accelerator transfer rate in bytes/sec.
    compute_per_token: seconds of pure compute per generated token.
    shared_bytes: resident non-expert parameter bytes (embeddings, attention).
    """

    expert_bytes: float
    bandwidth: float
    compute_per_token: float
    shared_bytes: float

    def __post_init__(self) -> None:
        for name in ("expert_bytes", "bandwidth", "compute_per_token", "shared_bytes"):
            if not 0 < getattr(self, name) < math.inf:  # NaN fails both comparisons
                raise ValueError(f"{name} must be positive and finite")

    def swap_seconds(self, experts_in: int) -> float:
        return experts_in * self.expert_bytes / self.bandwidth


@dataclass
class OffloadReport:
    """Everything one replay produces, ready for CSV or key-value output."""

    exrep_pct: float
    swap_events: int
    tokens_per_sec: float
    peak_resident_bytes: int
    delta_uniform_pct: float
    delta_uniform_per_layer: list[float] = field(default_factory=list)
    tokens: int = 0
    layers: int = 0
    prefill_seconds: float = 0.0
    decode_seconds: float = 0.0
    total_seconds: float = 0.0

    CSV_FIELDS = (
        "tokens",
        "layers",
        "swap_events",
        "exrep_pct",
        "tokens_per_sec",
        "prefill_seconds",
        "decode_seconds",
        "total_seconds",
        "peak_resident_bytes",
        "delta_uniform_pct",
    )

    @classmethod
    def csv_header(cls) -> str:
        return ",".join(cls.CSV_FIELDS)

    def csv_row(self) -> str:
        vals = []
        for name in self.CSV_FIELDS:
            v = getattr(self, name)
            vals.append(f"{v:.6g}" if isinstance(v, float) else str(v))
        return ",".join(vals)

    def as_text(self) -> str:
        lines = [
            f"tokens               {self.tokens}",
            f"layers               {self.layers}",
            f"swap_events          {self.swap_events}",
            f"exrep_pct            {self.exrep_pct:.4f}",
            f"tokens_per_sec       {self.tokens_per_sec:.4f}",
            f"prefill_seconds      {self.prefill_seconds:.6f}",
            f"decode_seconds       {self.decode_seconds:.6f}",
            f"total_seconds        {self.total_seconds:.6f}",
            f"peak_resident_bytes  {self.peak_resident_bytes}",
            f"delta_uniform_pct    {self.delta_uniform_pct:.4f}",
        ]
        per_layer = " ".join(f"{v:.2f}" for v in self.delta_uniform_per_layer)
        lines.append(f"delta_uniform_layers {per_layer}")
        return "\n".join(lines)


def replay_offload(trace: RoutingTrace, cost: OffloadCostModel) -> OffloadReport:
    """Fold the offloading rule over a trace and price every transfer."""
    sel = trace.selections
    layers, tokens, k = sel.shape
    counts = _kernels.swap_in_counts(sel)
    swap_events = int(counts[:, 1:].sum())

    prefill_seconds = cost.swap_seconds(layers * k)
    decode_seconds = tokens * cost.compute_per_token + cost.swap_seconds(swap_events)
    overall, per_layer = delta_uniform(trace)
    return OffloadReport(
        exrep_pct=_exrep_from_counts(counts),
        swap_events=swap_events,
        tokens_per_sec=tokens / decode_seconds,
        peak_resident_bytes=int(round(cost.shared_bytes + layers * k * cost.expert_bytes)),
        delta_uniform_pct=overall,
        delta_uniform_per_layer=list(per_layer),
        tokens=tokens,
        layers=layers,
        prefill_seconds=prefill_seconds,
        decode_seconds=decode_seconds,
        total_seconds=prefill_seconds + decode_seconds,
    )


def resident_set_sizes(trace: RoutingTrace) -> np.ndarray:
    """(layers, tokens) count of distinct resident experts after each step."""
    sel = np.sort(trace.selections, axis=-1)
    distinct = np.ones(sel.shape[:2], dtype=np.int64)
    if sel.shape[-1] > 1:
        distinct += (sel[..., 1:] != sel[..., :-1]).sum(axis=-1)
    return distinct


def exrep(trace: RoutingTrace) -> float:
    """Percentage of realized expert replacements, averaged over layers.

    Per layer: 100 * arrivals / (K * (T - 1)), where the arrivals equal
    floor(H / 2) of hard_replacements when every token holds K distinct ids.
    """
    return _exrep_from_counts(_kernels.swap_in_counts(trace.selections))


def _exrep_from_counts(counts: np.ndarray) -> float:
    """ExRep from the (L, T) swap_in_counts of a trace; counts[:, 0] holds K."""
    tokens = counts.shape[1]
    if tokens < 2:
        warnings.warn("exrep undefined for traces shorter than 2 tokens; returning 0")
        return 0.0
    arrivals = counts[:, 1:].sum(axis=1)
    return float(np.mean(100.0 * (arrivals / (counts[0, 0] * (tokens - 1)))))


def delta_uniform(trace: RoutingTrace) -> tuple[float, np.ndarray]:
    """Mean absolute deviation of expert usage from uniform, in percentage points.

    Per layer: mean over experts of |f_e - 1/E| * 100 where f_e is the
    realized assignment fraction; overall value is the mean over layers. Only
    the experts a layer uses are counted, as runs of its sorted ids; each of
    the others adds exactly |0 - 1/E|.
    """
    e, layers = trace.num_experts, trace.layers
    ids = np.sort(trace.selections.reshape(layers, -1), axis=1)
    run_start = np.ones(ids.shape, dtype=bool)  # every row starts a run: none spans layers
    run_start[:, 1:] = ids[:, 1:] != ids[:, :-1]
    starts = np.flatnonzero(run_start)
    runs, layer = np.diff(starts, append=ids.size), starts // ids.shape[1]
    dev = np.bincount(layer, np.abs(runs / ids.shape[1] - 1.0 / e), minlength=layers)
    per_layer = 100.0 * (dev + (e - np.bincount(layer, minlength=layers)) / e) / e
    return float(per_layer.mean()), per_layer


def calibrate_cost_model(
    tokens_per_sec_a: float,
    exrep_a_pct: float,
    tokens_per_sec_b: float,
    exrep_b_pct: float,
    tokens: int,
    layers: int,
    k: int,
    expert_bytes: float,
    shared_bytes: float,
) -> OffloadCostModel:
    """Solve compute and transfer cost from two (tokens/sec, ExRep) observations.

    The replay prices a T-token trace at T * c + swaps * s with
    swaps = layers * K * (ExRep / 100) * (T - 1), so two observations pin the
    per-token compute c and the per-expert transfer time s; bandwidth is then
    expert_bytes / s.
    """
    if tokens < 2:
        raise ValueError("calibration needs tokens >= 2")
    per_token_swaps_a = layers * k * (exrep_a_pct / 100.0) * (tokens - 1) / tokens
    per_token_swaps_b = layers * k * (exrep_b_pct / 100.0) * (tokens - 1) / tokens
    if per_token_swaps_a == per_token_swaps_b:
        raise ValueError("calibration needs two distinct ExRep levels")
    s = (1.0 / tokens_per_sec_a - 1.0 / tokens_per_sec_b) / (
        per_token_swaps_a - per_token_swaps_b
    )
    c = 1.0 / tokens_per_sec_a - s * per_token_swaps_a
    if s <= 0 or c <= 0:
        raise ValueError(
            f"calibration produced non-positive costs (compute={c:.3g}, swap={s:.3g})"
        )
    return OffloadCostModel(
        expert_bytes=expert_bytes,
        bandwidth=expert_bytes / s,
        compute_per_token=c,
        shared_bytes=shared_bytes,
    )


def synthetic_trace(
    exrep_pct: float,
    tokens: int,
    layers: int,
    num_experts: int,
    k: int,
    seed: int = 0,
) -> RoutingTrace:
    """Construct a trace whose realized ExRep matches the target as closely as
    integer replacement counts allow (exact up to rounding of the event total).

    Raises ValueError when some transition would need more replacements than
    there are inactive experts to swap in.
    """
    if not 0 <= exrep_pct <= 100:
        raise ValueError(f"exrep_pct must be in [0, 100], got {exrep_pct}")
    if tokens < 2:
        raise ValueError("synthetic traces need at least 2 tokens")
    if k > num_experts:
        raise ValueError("k cannot exceed the expert count")
    rng = np.random.default_rng(seed)
    events = int(round(exrep_pct / 100.0 * k * (tokens - 1)))
    per_transition = -(-events // (tokens - 1))
    if per_transition > num_experts - k:
        raise ValueError(
            f"{exrep_pct}% ExRep needs {per_transition} replacements in one transition, "
            f"but only {num_experts - k} experts are inactive"
        )
    sel = np.empty((layers, tokens, k), dtype=np.int64)
    for l in range(layers):
        base, rem = divmod(events, tokens - 1)
        slot_counts = np.full(tokens - 1, base, dtype=np.int64)
        if rem:
            slot_counts[rng.choice(tokens - 1, size=rem, replace=False)] += 1
        residents = list(range(k))
        outsiders = list(range(k, num_experts))
        sel[l, 0] = sorted(residents)
        for t in range(1, tokens):
            for _ in range(slot_counts[t - 1]):
                incoming = outsiders.pop(0)
                outsiders.append(residents.pop(0))
                residents.append(incoming)
            sel[l, t] = sorted(residents)
    return RoutingTrace(selections=sel, num_experts=num_experts)


def _header_line(layers: int, tokens: int, k: int, num_experts: int) -> str:
    header = {"format": TRACE_MAGIC, "layers": layers, "tokens": tokens, "active": k,
              "experts": num_experts}
    return json.dumps(header) + "\n"


def _render(rows: np.ndarray, first: int, layers: int) -> str:
    """Records first, first + 1, ... of a token-major trace as ``json.dumps``
    writes them, one per line; ``rows`` holds their (n, K) expert ids."""
    n, k = rows.shape
    table = np.empty((n, 2 + k), dtype=np.int64)
    table[:, 0], table[:, 1] = np.divmod(np.arange(first, first + n), layers)
    table[:, 2:] = rows
    template = '{"token": %d, "layer": %d, "experts": [' + ", ".join(["%d"] * k) + "]}\n"
    return (template * n) % tuple(table.ravel().tolist())


def write_trace(trace: RoutingTrace, path) -> None:
    """Serialize a trace as line-delimited JSON, one record per token per layer
    in token-major order: the text one ``json.dumps`` per record would give,
    rendered 128 records at a time."""
    layers, tokens, k = trace.selections.shape
    records = trace.selections.transpose(1, 0, 2).reshape(-1, k)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_header_line(layers, tokens, k, trace.num_experts))
        for lo in range(0, len(records), _BLOCK):
            fh.write(_render(records[lo : lo + _BLOCK], lo, layers))


def read_trace(path) -> RoutingTrace:
    """Parse a token-major trace file: line i + 2 holds token i // layers of
    layer i % layers, as ``write_trace`` writes it. A file exactly as
    ``write_trace`` writes it is parsed 128 records at a time; any other file
    is parsed line by line. Malformed input, a misplaced or repeated record
    included, raises the same DataError either way, naming the line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: cannot read trace ({exc})") from exc
    trace = _parse_blocks(path, text)
    return trace if trace is not None else _parse_lines(path, text)


def _parse_blocks(path, text: str) -> RoutingTrace | None:
    """The trace in ``text`` if it is exactly what ``write_trace`` writes, else None.

    Each block's integers are read in one ``np.fromstring`` pass, which is
    lenient (it reads "-3" as 3, "01" as 1 and saturates an overflow), so a
    block counts only if rendering what was read gives back its text byte for
    byte. Ids out of range or repeated within a token fail ``RoutingTrace``.
    """
    head = text[: text.find("\n") + 1]
    try:
        layers, tokens, k, num_experts = _parse_header(path, head)
    except DataError:
        return None
    if head != _header_line(layers, tokens, k, num_experts):
        return None
    blocks, pos, records = [], len(head), layers * tokens
    for lo in range(0, records, _BLOCK):
        n = min(_BLOCK, records - lo)
        match = _BLOCK_LINES.match(text, pos)
        block = match.group() if match else ""
        if not block.isascii():
            return None
        values = np.fromstring(block.translate(_DIGITS_ONLY), np.int64, sep=" ")
        if values.size != n * (2 + k):
            return None
        ids = values.reshape(n, 2 + k)[:, 2:]
        if _render(ids, lo, layers) != block:
            return None
        blocks.append(ids)
        pos += len(block)
    if pos != len(text):
        return None
    sel = np.concatenate(blocks).reshape(tokens, layers, k).transpose(1, 0, 2).copy()
    try:
        return RoutingTrace(selections=sel, num_experts=num_experts)
    except DataError:
        return None


def _parse_json(path, lineno: int, text: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: line {lineno}: invalid JSON ({exc.msg})") from exc
    except RecursionError as exc:
        raise DataError(f"{path}: line {lineno}: JSON nested too deeply") from exc
    if not isinstance(obj, dict):
        raise DataError(f"{path}: line {lineno}: expected an object")
    return obj


def _parse_header(path, text: str) -> tuple[int, int, int, int]:
    """(layers, tokens, active, experts) from the header line, checked."""
    header = _parse_json(path, 1, text)
    if header.get("format") != TRACE_MAGIC:
        raise DataError(f"{path}: line 1: missing format={TRACE_MAGIC} header")
    keys = ("layers", "tokens", "active", "experts")
    sizes = [header.get(key) for key in keys]
    for key, value in zip(keys, sizes):
        if type(value) is not int:  # JSON true or 2.9 is not a size
            raise DataError(
                f"{path}: line 1: header field {key}={json.dumps(value)} is not an integer"
            )
    layers, tokens, k, num_experts = sizes
    if min(sizes) < 1:
        raise DataError(f"{path}: line 1: header fields must be positive")
    if k > num_experts:  # ids are distinct, so no record could be valid
        raise DataError(f"{path}: line 1: active={k} exceeds experts={num_experts}")
    if num_experts > np.iinfo(np.int64).max:  # ids are stored as int64
        raise DataError(f"{path}: line 1: experts={num_experts} does not fit in int64")
    return layers, tokens, k, num_experts


def _parse_lines(path, text: str) -> RoutingTrace:
    """The trace in ``text``, one record per line; the first malformed line
    raises DataError naming it."""
    lines = text.splitlines()
    if not lines:
        raise DataError(f"{path}: empty trace file")
    layers, tokens, k, num_experts = _parse_header(path, lines[0])

    expected = layers * tokens
    if len(lines) - 1 != expected:
        raise DataError(
            f"{path}: expected {expected} records after the header, got {len(lines) - 1}"
        )
    ids_seen = array("q")  # int64 buffer: no object per id
    for i, line in enumerate(lines[1:], start=2):
        rec = _parse_json(path, i, line)
        t, l, ids = rec.get("token"), rec.get("layer"), rec.get("experts")
        if type(t) is not int or type(l) is not int:
            raise DataError(
                f"{path}: line {i}: token={json.dumps(t)} and layer={json.dumps(l)} "
                "must be integers"
            )
        if not 0 <= t < tokens or not 0 <= l < layers:
            raise DataError(f"{path}: line {i}: token/layer out of range")
        if (t, l) != divmod(i - 2, layers):
            raise DataError(
                f"{path}: line {i}: expected token {(i - 2) // layers} of layer "
                f"{(i - 2) % layers}; records are token-major"
            )
        if not isinstance(ids, list) or len(ids) != k:
            raise DataError(f"{path}: line {i}: expected {k} expert ids")
        for e in ids:
            if type(e) is not int:  # JSON true/false would pass isinstance(e, int)
                raise DataError(f"{path}: line {i}: expert id {json.dumps(e)} is not an integer")
            if not 0 <= e < num_experts:
                raise DataError(
                    f"{path}: line {i}: expert id {e} outside [0, {num_experts})"
                )
        if len(set(ids)) != k:
            raise DataError(f"{path}: line {i}: duplicate expert ids {ids}")
        ids_seen.extend(ids)
    # the records fill the buffer in (T, L, K) order; the copy owns its array
    sel = np.frombuffer(ids_seen, np.int64).reshape(tokens, layers, k)
    return RoutingTrace(selections=sel.transpose(1, 0, 2).copy(), num_experts=num_experts)
