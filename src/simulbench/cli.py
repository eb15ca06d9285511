"""Command-line workbench.

Subcommands: gen-data, train, eval, mask-dump, bias-dump, flops-report,
compare.  Exit codes: 0 success, 2 config error, 3 data error, 4
numeric/degenerate error.
"""

import argparse
import os
import sys

from . import __version__
from .alibi import HeadSlopes, bias_to_csv, head_biases
from .config import build_config, load_config
from .data import corpus_to_jsonl, gen_synthetic, load_corpus
from .engine import GenerationMode
from .errors import (CacheCoherenceError, ConfigError, ConsistencyError,
                     DataError, DegenerateRowError, LayoutError, NumericError,
                     PolicyError, ShapeError, WorkbenchError)
from .experiment import _RunWriter, compare_modes, run_experiment, train_model
from .masks import (PromptLayout, TablePolicy, WaitKPolicy, causal_mask,
                    mask_to_ascii, simul_mask)
from .metrics import FlopModel, flops_generate
from .model import load_params, save_params
from .training import loss_curve_to_csv

_CONFIG_ERRORS = (ConfigError, LayoutError, PolicyError)
_DATA_ERRORS = (DataError, ConsistencyError)
_NUMERIC_ERRORS = (DegenerateRowError, ShapeError, CacheCoherenceError,
                   NumericError)


def _config_overrides(args) -> dict:
    return {
        "seed": args.seed,
        "out": args.out,
        "train_k": args.train_k,
        "eval_k": args.eval_k if args.eval_k else None,
        "mode": args.mode,
        "mask": args.mask,
        "bias": args.bias,
        "dataset": getattr(args, "dataset", None),
    }


def _load_experiment_config(args):
    overrides = _config_overrides(args)
    if args.config:
        return load_config(args.config, overrides)
    return build_config({}, overrides)


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"{what} must be comma-separated integers, "
                          f"got {text!r}") from exc


def _parse_layout(text: str) -> PromptLayout:
    parts = _parse_ints(text, "layout")
    if len(parts) != 4:
        raise ConfigError("layout must be P1,S,P2,T")
    return PromptLayout(*parts)


def _parse_policy(args, source_len: int):
    if args.policy:
        return TablePolicy(reads=_parse_ints(args.policy, "policy"),
                           source_len=source_len)
    return WaitKPolicy(k=args.k, source_len=source_len)


def _write_out(path: str, text: str):
    """Write one output file.  An unwritable path is a configuration error,
    and a write cut short removes the partial file."""
    try:
        fh = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc}") from exc
    try:
        with fh:
            fh.write(text)
    except BaseException:
        os.remove(path)
        raise


def _add_common(p):
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--train-k", type=int, default=None)
    p.add_argument("--eval-k", type=int, action="append", default=None,
                   help="repeatable")
    p.add_argument("--mode", choices=("cached", "recompute"), default=None)
    p.add_argument("--mask", choices=("simulmask", "causal"), default=None)
    p.add_argument("--bias", choices=("modified", "standard"), default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simulbench",
        description="Workbench for streaming-translation attention masking")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic corpus")
    p.add_argument("--task", required=True, help="copy | reverse | shift(n)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--min-len", type=int, required=True)
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--vocab", type=int, default=24)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="fine-tune and save a checkpoint")
    _add_common(p)
    p.add_argument("--dataset", default=None)
    p.add_argument("--init-checkpoint", default=None,
                   help="start from this checkpoint instead of a fresh model")

    p = sub.add_parser("eval", help="train (or load) then sweep eval policies")
    _add_common(p)
    p.add_argument("--dataset", default=None)
    p.add_argument("--checkpoint", default=None)

    p = sub.add_parser("mask-dump", help="ASCII dump of a mask")
    p.add_argument("--layout", required=True, help="P1,S,P2,T")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--policy", help="comma-separated cumulative reads")
    p.add_argument("--causal", action="store_true", help="dump the causal mask")
    p.add_argument("--out", required=True)

    p = sub.add_parser("bias-dump", help="CSV dump of per-entry biases")
    p.add_argument("--layout", required=True, help="P1,S,P2,T")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--policy", help="comma-separated cumulative reads")
    p.add_argument("--slope", type=float, default=1.0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("flops-report", help="per-sentence FLOPs in both modes")
    _add_common(p)
    p.add_argument("--dataset", default=None)

    p = sub.add_parser("compare",
                       help="cached vs recompute vs stale-bias evaluation")
    _add_common(p)
    p.add_argument("--dataset", default=None)
    p.add_argument("--checkpoint", default=None)

    return parser


def _cmd_gen_data(args) -> int:
    corpus = gen_synthetic(args.task, args.n, args.min_len, args.max_len,
                           args.vocab, args.seed)
    _write_out(args.out, corpus_to_jsonl(corpus))
    print(f"wrote {len(corpus)} sentence pairs to {args.out}")
    return 0


def _cmd_train(args) -> int:
    config = _load_experiment_config(args)
    if not config.dataset:
        raise ConfigError("a dataset is required (--dataset or config)")
    corpus = load_corpus(config.dataset, config.vocab_size)
    base = load_params(args.init_checkpoint) if args.init_checkpoint else None
    writer = _RunWriter(config.out)
    try:
        params, loss_curve = train_model(config, corpus, base_params=base)
        ckpt = writer.path("params.bin")
        save_params(params, ckpt)
        writer.write("loss_curve.csv", loss_curve_to_csv(loss_curve))
    except BaseException:
        writer.cleanup()
        raise
    print(f"checkpoint: {ckpt}")
    return 0


def _cmd_eval(args) -> int:
    config = _load_experiment_config(args)
    paths = run_experiment(config, checkpoint=args.checkpoint)
    for path in paths:
        print(path)
    return 0


def _cmd_mask_dump(args) -> int:
    layout = _parse_layout(args.layout)
    if args.causal:
        mask = causal_mask(layout.total_len)
        desc = "causal"
    else:
        policy = _parse_policy(args, layout.source_len)
        mask = simul_mask(layout, policy)
        desc = policy.describe()
    _write_out(args.out, mask_to_ascii(mask, desc))
    print(args.out)
    return 0


def _cmd_bias_dump(args) -> int:
    layout = _parse_layout(args.layout)
    policy = _parse_policy(args, layout.source_len)
    mask = simul_mask(layout, policy)
    bias = head_biases(mask, HeadSlopes((args.slope,)))[0]
    _write_out(args.out, bias_to_csv(bias, mask.visible))
    print(args.out)
    return 0


def _cmd_flops_report(args) -> int:
    config = _load_experiment_config(args)
    if not config.dataset:
        raise ConfigError("a dataset is required (--dataset or config)")
    corpus = load_corpus(config.dataset, config.vocab_size)
    from .experiment import evaluate_sentence
    from .model import init_model
    params = init_model(config.model_config())
    flop_model = FlopModel(config.model_config())
    k = config.eval_k[0]
    lines = ["sentence_id,k_or_chunk,seq_len,cached_total,recompute_initial,"
             "recompute_recompute"]
    for sid, pair in enumerate(corpus):
        row = [sid, k]
        _, trace_c = evaluate_sentence(params, pair, k, GenerationMode("cached"),
                                       config.max_target_len)
        _, trace_r = evaluate_sentence(params, pair, k,
                                       GenerationMode("recompute"),
                                       config.max_target_len)
        rep_c = flops_generate(trace_c, flop_model, GenerationMode("cached"))
        rep_r = flops_generate(trace_r, flop_model, GenerationMode("recompute"))
        seq_len = trace_c.total_reads() + len(trace_c.writes())
        lines.append(f"{sid},{k},{seq_len},{rep_c.total},{rep_r.initial},"
                     f"{rep_r.recompute}")
    writer = _RunWriter(config.out)
    try:
        path = writer.write("flops_report.csv", "\n".join(lines) + "\n")
    except BaseException:
        writer.cleanup()
        raise
    print(path)
    return 0


def _cmd_compare(args) -> int:
    config = _load_experiment_config(args)
    _, path = compare_modes(config, checkpoint=args.checkpoint)
    print(path)
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "mask-dump": _cmd_mask_dump,
    "bias-dump": _cmd_bias_dump,
    "flops-report": _cmd_flops_report,
    "compare": _cmd_compare,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _DATA_ERRORS as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except _NUMERIC_ERRORS + (FloatingPointError,) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4
    except WorkbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
