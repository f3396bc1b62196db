"""Command-line front-end.

Subcommands mirror the pipeline stages so each can run on its own:
``synth`` builds a seeded toy benchmark, ``embed`` trains structural
embeddings, ``features`` builds per-feature similarity matrices, ``fuse``
combines them adaptively, ``align`` decodes matches, ``eval`` scores a
result file, and ``pipeline`` chains everything with stage caching.

The KGALIGN_THREADS environment variable sets the default worker count of
the string-similarity stage, the only stage that runs in parallel.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import matio
from .collective import AlignmentResult, RlConfig, count_multiplicities
from .fusion import FusionConfig
from .gcn import TrainConfig, train
from .kg import load_alignment, load_kg
from .measures import Measure, SimilarityMatrix
from .metrics import EvalReport, hits_mrr, prf
from .pipeline import (
    FEATURES,
    STRATEGIES,
    PipelineConfig,
    decode,
    default_threads,
    feature_matrix,
    fuse_features,
    index_pairs,
    run_pipeline,
)
from .synth import write_synthetic

MODE_FLAGS = {"full": "full", "excl": "exclusiveness_only", "coh": "coherence_only"}


def _add_kg_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--triples1", required=True)
    p.add_argument("--names1", required=True)
    p.add_argument("--triples2", required=True)
    p.add_argument("--names2", required=True)


def _cmd_synth(args) -> int:
    try:  # write_synthetic checks every argument before it writes anything
        paths = write_synthetic(
            args.out, args.n, args.edge_prob, args.name_noise, args.seed,
            edge_noise=args.edge_noise, vec_dim=args.vec_dim,
        )
    except ValueError as exc:
        args.error(str(exc))
    for key, path in paths.items():
        print(f"{key}\t{path}")
    return 0


def _cmd_embed(args) -> int:
    kg1 = load_kg(args.triples1, args.names1)
    kg2 = load_kg(args.triples2, args.names2)
    seeds = index_pairs(load_alignment(args.train), kg1, kg2)
    cfg = TrainConfig(
        dim=args.dim, margin=args.margin, epochs=args.epochs,
        negatives=args.negatives, learning_rate=args.lr, rng_seed=args.seed,
    )
    losses: list[float] = []
    z1, z2 = train(kg1, kg2, seeds, cfg, on_epoch=lambda e, l: losses.append(l))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ext = args.format
    matio.save_matrix(out / f"z1.{ext}", z1, args.format)
    matio.save_matrix(out / f"z2.{ext}", z2, args.format)
    print(f"loss\tfirst={losses[0]!r}\tlast={losses[-1]!r}")
    print(f"z1\t{out / f'z1.{ext}'}")
    print(f"z2\t{out / f'z2.{ext}'}")
    return 0


def _cmd_features(args) -> int:
    # Every tag and the flags it needs are checked before anything is written.
    tags = args.features.split(",")
    for tag in tags:
        if tag not in FEATURES:
            args.error(f"unknown feature {tag!r} in --features; "
                       f"choose from {', '.join(FEATURES)}")
    if "structural" in tags and not (args.z1 and args.z2):
        args.error("the structural feature needs --z1 and --z2")
    if "semantic" in tags and not args.vectors:
        args.error("the semantic feature needs --vectors")
    threads = default_threads() if args.threads is None else args.threads
    kg1 = load_kg(args.triples1, args.names1)
    kg2 = load_kg(args.triples2, args.names2)
    test = index_pairs(load_alignment(args.test), kg1, kg2)
    z1 = z2 = None
    if "structural" in tags:
        z1, z2 = matio.load_matrix(args.z1), matio.load_matrix(args.z2)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for tag in tags:
        m = feature_matrix(tag, kg1, kg2, test, args.measure, z1, z2,
                           args.vectors, threads)
        path = out / f"sim_{tag}.{args.format}"
        matio.save_matrix(path, m.scores, args.format)
        print(f"{tag}\t{path}")
    return 0


def _cmd_fuse(args) -> int:
    matrices = []
    for item in args.inputs:
        tag, _, path = item.partition("=")
        if not path:
            raise SystemExit(f"expected tag=path, got {item!r}")
        matrices.append(SimilarityMatrix(matio.load_matrix(path), tag))
    fused, summary, report_text = fuse_features(
        matrices, FusionConfig(theta1=args.theta1, theta2=args.theta2)
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ext = args.format
    matio.save_matrix(out / f"sim_fused.{ext}", fused.scores, args.format)
    matio.save_text(out / "fusion_report.txt", report_text)
    for tag, w in sorted(summary["weights"].items()):
        print(f"feature_weight\t{tag}\t{w!r}")
    print(f"fused\t{out / f'sim_fused.{ext}'}")
    return 0


def _cmd_align(args) -> int:
    scores = matio.load_matrix(args.matrix)
    kg1 = load_kg(args.triples1, args.names1)
    kg2 = load_kg(args.triples2, args.names2)
    test = index_pairs(load_alignment(args.test), kg1, kg2)
    rl_cfg = RlConfig(
        tau=args.tau, epochs=args.epochs, rng_seed=args.seed,
        preliminary_rounds=args.prelim_rounds, mode=MODE_FLAGS[args.mode],
    )
    result = decode(args.strategy, scores, kg1, kg2, test, rl_cfg)
    matio.save_result(
        args.out, result,
        [kg1.entity_ids[s] for s, _ in test],
        [kg2.entity_ids[t] for _, t in test],
    )
    mulse, multe = count_multiplicities(result)
    print(f"pairs\t{len(result.pairs)}")
    print(f"mulse\t{mulse}\nmulte\t{multe}")
    print(f"result\t{args.out}")
    return 0


def _cmd_eval(args) -> int:
    pred_rows = matio.load_result(args.pred)
    gold = dict(load_alignment(args.gold))
    pred = {s: t for s, t, _ in pred_rows}
    precision, recall, f1 = prf(pred, gold)
    hits: dict[int, float] = {}
    mrr = None
    if args.ranked:
        ranked = {}
        with open(args.ranked, encoding="utf-8") as fh:
            for line in fh:
                fields = line.rstrip("\n").split("\t")
                if fields and fields[0]:
                    ranked[fields[0]] = fields[1:]
        hits, mrr = hits_mrr(ranked, gold, ks=(1, 10))
    mulse, multe = count_multiplicities(
        AlignmentResult(pairs=pred, provenance={s: "loaded" for s in pred})
    )
    report = EvalReport(
        precision=precision, recall=recall, f1=f1,
        hits=hits, mrr=mrr, mulse=mulse, multe=multe,
    )
    sys.stdout.write(report.to_text())
    if args.out:
        matio.save_text(Path(args.out) / "report.txt", report.to_text())
        matio.save_text(Path(args.out) / "report.json", report.to_json() + "\n")
    return 0


def _cmd_pipeline(args) -> int:
    overrides = {
        key: getattr(args, key)
        for key in (
            "triples1", "names1", "triples2", "names2", "gold", "vectors",
            "out_dir", "seed", "measure", "dim", "epochs", "strategy",
            "tau", "rl_epochs", "prelim_rounds", "theta1", "theta2",
            "threads", "learning_rate", "train_frac", "val_frac",
        )
        if getattr(args, key, None) is not None
    }
    if args.mode is not None:
        overrides["mode"] = MODE_FLAGS[args.mode]
    if args.features is not None:
        overrides["features"] = tuple(args.features.split(","))
    if args.config:
        cfg = PipelineConfig.from_file(args.config, **overrides)
    else:
        cfg = PipelineConfig(**overrides)
    cfg.resume = args.resume
    artifacts = run_pipeline(cfg)
    sys.stdout.write(artifacts.report.to_text())
    print(f"out_dir\t{artifacts.out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgalign",
        description="Entity alignment across two knowledge graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a seeded synthetic benchmark")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--edge-prob", type=float, default=0.04)
    p.add_argument("--name-noise", type=float, default=0.1)
    p.add_argument("--edge-noise", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--vec-dim", type=int, default=16)
    p.set_defaults(fn=_cmd_synth, error=p.error)

    p = sub.add_parser("embed", help="train structural embeddings")
    _add_kg_args(p)
    p.add_argument("--train", required=True, help="seed alignment TSV")
    p.add_argument("--out", required=True)
    p.add_argument("--dim", type=int, default=300)
    p.add_argument("--margin", type=float, default=3.0)
    p.add_argument("--epochs", type=int, default=300)
    p.add_argument("--negatives", type=int, default=5)
    p.add_argument("--lr", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("npy", "tsv"), default="npy")
    p.set_defaults(fn=_cmd_embed)

    p = sub.add_parser("features", help="build per-feature similarity matrices")
    _add_kg_args(p)
    p.add_argument("--test", required=True, help="test alignment TSV")
    p.add_argument("--z1")
    p.add_argument("--z2")
    p.add_argument("--vectors")
    p.add_argument("--measure", choices=[m.value for m in Measure], default="bc")
    p.add_argument("--features", default="structural,semantic,string")
    p.add_argument("--out", required=True)
    p.add_argument("--threads", type=int, help="default: KGALIGN_THREADS, else 1")
    p.add_argument("--format", choices=("npy", "tsv"), default="npy")
    p.set_defaults(fn=_cmd_features, error=p.error)

    p = sub.add_parser("fuse", help="adaptively fuse similarity matrices")
    p.add_argument("--inputs", nargs="+", required=True, metavar="TAG=PATH")
    p.add_argument("--theta1", type=float, default=0.99)
    p.add_argument("--theta2", type=float, default=0.48)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("npy", "tsv"), default="npy")
    p.set_defaults(fn=_cmd_fuse)

    p = sub.add_parser("align", help="decode matches from a similarity matrix")
    _add_kg_args(p)
    p.add_argument("--matrix", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--strategy", choices=STRATEGIES, default="rl")
    p.add_argument("--mode", choices=tuple(MODE_FLAGS), default="full")
    p.add_argument("--tau", type=int, default=10)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--prelim-rounds", type=int, default=2)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_align)

    p = sub.add_parser("eval", help="score a result file against gold pairs")
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--ranked", help="TSV of source_id then targets in rank order")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("pipeline", help="run every stage end to end")
    p.add_argument("--config", help="JSON config; flags override its values")
    p.add_argument("--triples1")
    p.add_argument("--names1")
    p.add_argument("--triples2")
    p.add_argument("--names2")
    p.add_argument("--gold")
    p.add_argument("--vectors")
    p.add_argument("--out-dir")
    p.add_argument("--seed", type=int)
    p.add_argument("--train-frac", type=float, dest="train_frac")
    p.add_argument("--val-frac", type=float, dest="val_frac")
    p.add_argument("--measure", choices=[m.value for m in Measure])
    p.add_argument("--features")
    p.add_argument("--dim", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--learning-rate", type=float, dest="learning_rate")
    p.add_argument("--theta1", type=float)
    p.add_argument("--theta2", type=float)
    p.add_argument("--strategy", choices=STRATEGIES)
    p.add_argument("--mode", choices=tuple(MODE_FLAGS))
    p.add_argument("--tau", type=int)
    p.add_argument("--rl-epochs", type=int, dest="rl_epochs")
    p.add_argument("--prelim-rounds", type=int, dest="prelim_rounds")
    p.add_argument("--threads", type=int)
    p.add_argument("--resume", action="store_true")
    p.set_defaults(fn=_cmd_pipeline)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
