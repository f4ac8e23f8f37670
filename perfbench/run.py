"""Benchmark moelab end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the benchmark reads ``src/`` and ``configs/desk.cfg`` next
to its own directory and exits with code 2 if they are missing. Workloads:
``train-dense``, ``train-wd``, ``decode`` and ``replay`` (see README.md).

One process drives one workload in a closed loop: each operation starts when
the previous one has returned. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced operations and reports the
per-layer metrics, the tracing overhead and the share of traced time the named
layers cover. Every operation's outputs are checked against ``oracles``. A
results file with a run manifest goes to ``perfbench/out/results/``; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

import numpy as np

import tracer
import workloads
from oracles import OracleError

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 5

# (name, unit, better); every workload reports every one of them
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("tok_s", "tokens/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)
# the names tok_s and the operation time have on each workload in the results file
OP_NAMES = {
    "train-dense": ("train_tok_s", "step_ms"),
    "train-wd": ("train_tok_s", "step_ms"),
    "decode": ("decode_tok_s", "gen_ms"),
    "replay": ("replay_tok_s", "round_ms"),
}


MOELAB_MODULES = ("_kernels", "config", "experts", "losses", "model", "numerics",
                  "offload_sim", "trainer")


def import_moelab():
    """Import moelab and its modules from this checkout's ``src/``."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import moelab
    for name in MOELAB_MODULES:
        importlib.import_module(f"moelab.{name}")
    if Path(moelab.__file__).resolve().parent != (src / "moelab").resolve():
        raise ImportError(f"moelab was imported from {moelab.__file__}, not from {src}")
    return moelab


def cold_setups(workload: str, seed: int, workdir: Path) -> list[float]:
    """Seconds of SETUP_REPEATS cold set-ups (import + set-up), each in a
    fresh interpreter and waited for before the next starts."""
    times = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, str(BENCH / "cold_setup.py"), workload, str(seed), str(workdir)],
            capture_output=True, text=True, check=True, timeout=120)
        times.append(float(probe.stdout.split()[-1]))
    return times


def blas_threads() -> int | None:
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_revision() -> str | None:
    """HEAD of the checkout, if the checkout is itself a git work tree."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def manifest(args, ml, workload) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "moelab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    model = getattr(workload, "model", None)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "kernel_backend": "numba" if ml._kernels.USE_NUMBA else "numpy",
        "git_revision": git_revision(),
        "source_sha256": digest.hexdigest(),
        "model_config": asdict(model.config) if model is not None else None,
        "setup_repeats": SETUP_REPEATS,
    }


def run(args, ml, workdir: Path) -> dict:
    tr = tracer.Tracer()
    patches = tracer.Patches(tr, ml)
    setup_stats, op_stats, eval_stats = tracer.Stats(), tracer.Stats(), tracer.Stats()

    def traced(stats, fn):
        tr.sink = stats
        patches.install()
        try:
            return fn()
        finally:
            patches.uninstall()

    w = workloads.WORKLOADS[args.workload](ml, ROOT, workdir, args.seed)
    w.make_inputs()
    cold_setup_times = cold_setups(args.workload, args.seed, workdir)
    w.load_inputs()
    t0 = time.perf_counter()
    traced(setup_stats, w.setup) if args.trace else w.setup()
    setup_in_run_s = time.perf_counter() - t0
    model = getattr(w, "model", None)
    if model is not None and model.config.dtype == "float32":
        tr.narrow_dtype = np.dtype(np.float32)

    attempted = failed = 0
    problems: list[str] = []

    def report(kind: str, exc: BaseException) -> None:
        if len(problems) < 5:
            traceback.print_exception(exc, file=sys.stderr)
        problems.append(f"{kind}: {exc!r}")

    samples: dict[bool, list] = {False: [], True: []}  # traced? -> (op_s, work, wall)
    parts: dict[bool, dict] = {False: {}, True: {}}
    deadline = time.perf_counter() + args.seconds
    i = 0
    while i < 2 * args.trace or time.perf_counter() < deadline:
        is_traced = bool(args.trace) and i % 2 == 1
        i += 1
        attempted += 1
        t0 = time.perf_counter()
        try:
            op_s, work, op_parts = traced(op_stats, w.op) if is_traced else w.op()
        except Exception as exc:  # a failed operation is counted, the loop goes on
            failed += 1
            report("operation failed", exc)
            continue
        samples[is_traced].append((op_s, work, time.perf_counter() - t0))
        for key, value in op_parts.items():
            parts[is_traced][key] = parts[is_traced].get(key, 0) + value
        try:
            w.check_last()
        except Exception as exc:
            report("check failed", exc)

    attempted += 1  # the workload's closing operation (evaluate on train-*)
    extra: dict = {}
    try:
        extra = w.finish(lambda fn: traced(eval_stats, fn) if args.trace else fn())
    except OracleError as exc:
        report("check failed", exc)
    except Exception as exc:
        failed += 1
        report("operation failed", exc)

    untraced = samples[False]
    op_s = [s[0] for s in untraced]
    tok_s = sum(s[1] for s in untraced) / sum(op_s) if op_s else 0.0
    end_to_end = {
        "setup_s": statistics.median(cold_setup_times),
        "tok_s": tok_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    rate_name, op_name = OP_NAMES[args.workload]
    detail = {rate_name: tok_s, "samples": len(op_s), **extra}
    if op_s:
        detail[f"{op_name}_p50"] = 1e3 * statistics.median(op_s)
    if len(op_s) >= 100:  # a p90 with at least ten samples beyond it
        detail[f"{op_name}_p90"] = 1e3 * float(np.percentile(op_s, 90))
    p = parts[False]
    for key, name in (("write_s", "trace_write_rec_s"), ("read_s", "trace_read_rec_s"),
                      ("replay_s", "replay_rec_s")):
        if p.get(key):
            detail[name] = p["records"] / p[key]

    layers = None
    if args.trace:
        traced_ops = samples[True]
        overhead = 0.0
        if tok_s and traced_ops:  # untraced against traced tok_s of the same run
            traced_tok_s = sum(s[1] for s in traced_ops) / sum(s[0] for s in traced_ops)
            overhead = 100.0 * (tok_s / traced_tok_s - 1.0)
        layers = tracer.layer_metrics(
            op_stats, len(traced_ops), sum(s[2] for s in traced_ops),
            eval_stats, 1 if eval_stats.calls else 0, setup_stats, overhead)

    return {
        "manifest": manifest(args, ml, w),
        "correct": not any(msg.startswith("check") for msg in problems),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "cold_setup_s": cold_setup_times,
        "setup_in_run_s": setup_in_run_s,
        "op_seconds": op_s,
        "end_to_end": end_to_end,
        "detail": detail,
        "per_layer": layers,
        "self_ms_by_label": {
            phase: {k: 1e3 * v for k, v in sorted(stats.self_s.items())}
            for phase, stats in (("operations", op_stats), ("evaluate", eval_stats),
                                 ("setup", setup_stats))
        },
        "counts": {
            phase: dict(sorted(stats.counts.items()))
            for phase, stats in (("operations", op_stats), ("evaluate", eval_stats))
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/moelab/__init__.py", workloads.DESK_CONFIG)
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {ROOT} lacks {', '.join(missing)}; run from a moelab checkout",
              file=sys.stderr)
        return 2
    ml = import_moelab()

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args, ml, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")

    if args.trace:
        specs, values = tracer.LAYER_METRICS, result["per_layer"]
    else:
        specs, values = END_TO_END, result["end_to_end"]
    for name, value in result["detail"].items():
        if isinstance(value, float):
            print(f"{args.workload} {name} {value:.6g}")
    for name, unit, _ in specs:
        print(f"{args.workload} {name} {values[name]:.6g} {unit}")
    for msg in result["problems"]:
        print(f"{args.workload} {msg}")
    print(f"{args.workload} results in {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
