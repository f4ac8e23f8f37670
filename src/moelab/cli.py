"""Command-line entry point.

Subcommands: train, eval, generate, simulate-offload, ablate, fixtures.
Exit codes: 0 success, 1 usage / bad parameters / unwritable output, 2 data
error (unreadable or malformed inputs), 3 fixture or reference-check failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import DataError
from .fixtures import run_reference_checks
from .model import TransformerLM
from .offload_sim import OffloadCostModel, OffloadReport, read_trace, replay_offload, write_trace
from .trainer import (
    TrainConfig,
    configure,
    decode_ids,
    encode_text,
    evaluate,
    format_comparison,
    ingest_corpus,
    load_config_file,
    run_experiment,
    train,
)


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=str, default=None, help="key = value config file")
    p.add_argument("--corpus", type=str, default=None, help="UTF-8 text corpus path")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--experts", type=int, default=None)
    p.add_argument("--active", type=int, default=None)
    p.add_argument("--expert-kind", choices=("dense", "wd"), default=None)
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--lb-coef", type=float, default=None)
    p.add_argument("--bles-coef", type=float, default=None)
    p.add_argument("--out", type=str, default=None, help="output directory")


# config fields that _add_config_flags exposes, by their argparse dest
_FLAG_KEYS = ("corpus", "seed", "steps", "experts", "active", "expert_kind", "rank",
              "lb_coef", "bles_coef")


def _configs_from_args(args):
    flags = {k: getattr(args, k) for k in _FLAG_KEYS if getattr(args, k) is not None}
    if args.config:
        return configure(flags, *load_config_file(args.config))
    return configure({"dtype": "float32", **flags})


def cmd_train(args) -> int:
    model_cfg, train_cfg = _configs_from_args(args)
    if not train_cfg.corpus:
        print("train: no corpus given (use --corpus or a config file)", file=sys.stderr)
        return 1
    out_dir = args.out or "run"
    _, final, _ = train(model_cfg, train_cfg, out_dir=out_dir)
    for key, value in final.items():
        print(f"{key:22s} {value:.6g}" if isinstance(value, float) else f"{key} {value}")
    print(f"checkpoint written to {Path(out_dir) / 'checkpoint.npz'}")
    return 0


def cmd_eval(args) -> int:
    model = TransformerLM.load(args.checkpoint)
    corpus = ingest_corpus(args.corpus, seed=args.seed if args.seed is not None else 0)
    train_cfg = TrainConfig(
        corpus=args.corpus,
        seq_len=min(128, model.config.seq_len),
        seed=args.seed if args.seed is not None else 0,
    )
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    metrics = evaluate(model, corpus, train_cfg)
    for key, value in metrics.items():
        print(f"{key:22s} {value:.6g}")
    if args.out:
        (Path(args.out) / "eval.json").write_text(json.dumps(metrics, indent=2))
    return 0


def cmd_generate(args) -> int:
    model = TransformerLM.load(args.checkpoint)
    new_file = bool(args.trace) and not Path(args.trace).exists()
    if args.trace:
        open(args.trace, "a").close()  # refuse an unwritable path before decoding
    try:
        tokens, trace = model.generate(encode_text(args.prompt), args.tokens)
    except BaseException:
        if new_file:  # leave no empty trace behind
            Path(args.trace).unlink()
        raise
    print(decode_ids(tokens))
    if args.trace:
        write_trace(trace, args.trace)
        print(f"trace written to {args.trace}", file=sys.stderr)
    return 0


def _cost_from_args(args) -> OffloadCostModel:
    return OffloadCostModel(
        expert_bytes=args.expert_bytes,
        bandwidth=args.bandwidth,
        compute_per_token=args.compute_per_token,
        shared_bytes=args.shared_bytes,
    )


def cmd_simulate_offload(args) -> int:
    trace = read_trace(args.trace)
    cost = _cost_from_args(args)
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    report = replay_offload(trace, cost)
    print(report.as_text())
    csv_path = out_dir / "offload_report.csv"
    new_file = not csv_path.exists()
    with open(csv_path, "a", encoding="utf-8") as fh:
        if new_file:
            fh.write(OffloadReport.csv_header() + "\n")
        fh.write(report.csv_row() + "\n")
    print(f"csv row appended to {csv_path}", file=sys.stderr)
    return 0


def cmd_ablate(args) -> int:
    model_cfg, train_cfg = _configs_from_args(args)
    if not train_cfg.corpus:
        print("ablate: no corpus given (use --corpus or a config file)", file=sys.stderr)
        return 1
    field = {"active": "active", "total": "experts", "bles": "bles_coef"}[args.axis]
    cast = float if args.axis == "bles" else int
    variants = []
    for raw in args.values.split(","):
        value = cast(raw)
        variants.append((f"{args.axis}={raw}", {field: value}))
    rows = run_experiment(model_cfg, train_cfg, variants, out_dir=args.out)
    print(format_comparison(rows))
    return 0 if all(r["status"] == "ok" for r in rows) else 2


def cmd_fixtures(args) -> int:
    checks = run_reference_checks()
    width = max(len(c.name) for c in checks)
    failed = 0
    for c in checks:
        mark = "PASS" if c.ok else "FAIL"
        print(f"{c.name:<{width}}  expected {c.expected:<18} computed {c.computed:<24} {mark}")
        failed += 0 if c.ok else 1
    print(f"{len(checks) - failed}/{len(checks)} reference checks passed")
    return 0 if failed == 0 else 3


def build_parser() -> _Parser:
    parser = _Parser(prog="moelab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", parents=[], help="train a model")
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a corpus")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("generate", help="greedy-decode from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--prompt", required=True)
    p.add_argument("--tokens", type=int, default=32)
    p.add_argument("--trace", type=str, default=None, help="write the routing trace here")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("simulate-offload", help="replay an offload trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--expert-bytes", type=float, default=4e6)
    p.add_argument("--bandwidth", type=float, default=8e9)
    p.add_argument("--compute-per-token", type=float, default=0.01)
    p.add_argument("--shared-bytes", type=float, default=4e7)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_simulate_offload)

    p = sub.add_parser("ablate", help="sweep one dimension and compare runs")
    _add_config_flags(p)
    p.add_argument("--axis", choices=("active", "total", "bles"), required=True)
    p.add_argument("--values", required=True, help="comma-separated sweep values")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("fixtures", help="run the bundled reference checks")
    p.set_defaults(func=cmd_fixtures)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"moelab: data error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"moelab: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # inputs fail as DataError, so this is an output path
        print(f"moelab: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
