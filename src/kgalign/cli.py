"""Command-line front-end.

Subcommands mirror the pipeline stages so each can run on its own:
``synth`` builds a seeded toy benchmark, ``embed`` trains structural
embeddings, ``features`` builds per-feature similarity matrices, ``fuse``
combines them adaptively, ``align`` decodes matches, ``eval`` scores a
result file, and ``pipeline`` chains everything with stage caching.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import matio
from .collective import AlignmentResult, RlConfig, count_multiplicities
from .errors import IntegrityError, ParseError
from .fusion import FusionConfig, adaptive_fuse
from .gcn import TrainConfig, train
from .kg import load_alignment, load_kg
from .measures import DEFAULT_MEASURE, Measure, SimilarityMatrix
from .metrics import evaluate, ranks_in_lists
from .pipeline import (
    FEATURES,
    STRATEGIES,
    PipelineConfig,
    check_features,
    decode,
    feature_matrix,
    index_pairs,
    run_pipeline,
    save_outputs,
)
from .synth import write_synthetic

MODE_FLAGS = {"full": "full", "excl": "exclusiveness_only", "coh": "coherence_only"}
FLAG_OF_MODE = {mode: flag for flag, mode in MODE_FLAGS.items()}


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


def _settings(args, build):
    """``build()``, a command's settings, built before any input is read: a
    setting it rejects, or a required one it misses, is a usage error (exit
    status 2)."""
    try:
        return build()
    except json.JSONDecodeError:
        raise  # a malformed --config file is an input error, not a setting
    except (TypeError, ValueError) as exc:
        args.error(str(exc))


def _load_inputs(args, pairs_file):
    """The graphs of ``args``, and the pairs in ``pairs_file`` as index pairs
    and as their (source ids, target ids)."""
    kg1 = load_kg(args.triples1, args.names1)
    kg2 = load_kg(args.triples2, args.names2)
    ids = load_alignment(pairs_file)
    return kg1, kg2, index_pairs(ids, kg1, kg2), ([s for s, _ in ids], [t for _, t in ids])


def _cmd_embed(args) -> int:
    cfg = _settings(args, lambda: TrainConfig(
        dim=args.dim, margin=args.margin, epochs=args.epochs,
        negatives=args.negatives, learning_rate=args.lr, rng_seed=args.seed,
    ))
    kg1, kg2, seeds, _ = _load_inputs(args, args.train)
    losses: list[float] = []
    z = train(kg1, kg2, seeds, cfg, on_epoch=lambda e, l: losses.append(l))
    paths = save_outputs(args.out, "embed", args.format, *z)
    print(f"loss\tfirst={losses[0]!r}\tlast={losses[-1]!r}")
    for path in paths:
        print(f"{path.stem}\t{path}")
    return 0


def _cmd_features(args) -> int:
    # Every tag and the flags it needs are checked before any input is read.
    tags = args.features.split(",")
    _settings(args, lambda: check_features(tags, args.vectors))
    if "structural" in tags and not (args.z1 and args.z2):
        args.error("the structural feature needs --z1 and --z2")
    kg1, kg2, test, _ = _load_inputs(args, args.test)
    z1 = z2 = None
    if "structural" in tags:
        z1, z2 = matio.load_matrix(args.z1), matio.load_matrix(args.z2)
        for flag, z, kg in (("--z1", z1, kg1), ("--z2", z2, kg2)):
            if len(z) != kg.n_entities:
                raise IntegrityError(f"{flag} has {len(z)} rows, but its graph "
                                     f"has {kg.n_entities} entities")
    # Every matrix is computed before any is written: a failure leaves --out as it was.
    matrices = [feature_matrix(tag, kg1, kg2, test, args.measure, z1, z2,
                               args.vectors, threads=1) for tag in tags]
    for tag, m in zip(tags, matrices):
        path, = save_outputs(args.out, f"sim_{tag}", args.format, m.scores)
        print(f"{tag}\t{path}")
    return 0


def _cmd_fuse(args) -> int:
    cfg = _settings(args, lambda: FusionConfig(theta1=args.theta1, theta2=args.theta2))
    paths = {}  # every tag is checked before any matrix is loaded
    for item in args.inputs:
        tag, _, path = item.partition("=")
        if not (tag and path):
            args.error(f"expected tag=path, got {item!r}")
        if tag in paths:
            args.error(f"tag {tag!r} appears twice in --inputs")
        paths[tag] = path
    matrices = [SimilarityMatrix(matio.load_matrix(path), tag)
                for tag, path in paths.items()]
    fused, report = adaptive_fuse(matrices, cfg)
    paths = save_outputs(args.out, "fuse", args.format, fused.scores,
                         report.to_json() + "\n", report.to_text())
    for tag, w in sorted(report.feature_weights.weights.items()):
        print(f"feature_weight\t{tag}\t{w!r}")
    print(f"fused\t{paths[0]}")
    return 0


def _cmd_align(args) -> int:
    rl_cfg = _settings(args, lambda: RlConfig(
        actor_lr=args.actor_lr, critic_lr=args.critic_lr, tau=args.tau, epochs=args.epochs,
        rng_seed=args.seed, preliminary_rounds=args.prelim_rounds,
        mode=MODE_FLAGS[args.mode],
    ))
    # The pipeline decodes a SimilarityMatrix too: a score that is NaN or
    # infinite fails here, and a matrix of another shape than the test split
    # in decode, before anything is written.
    scores = SimilarityMatrix(matio.load_matrix(args.matrix), "fused")
    kg1, kg2, test, ids = _load_inputs(args, args.test)
    result = decode(args.strategy, scores, kg1, kg2, test, rl_cfg)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    matio.save_result(args.out, result, *ids)
    mulse, multe = count_multiplicities(result)
    print(f"pairs\t{len(result.pairs)}")
    print(f"mulse\t{mulse}\nmulte\t{multe}")
    print(f"result\t{args.out}")
    return 0


def _cmd_eval(args) -> int:
    rows = matio.load_result(args.pred)
    result = AlignmentResult(pairs={s: t for s, t, _ in rows},
                             provenance={s: p for s, _, p in rows})
    gold = dict(load_alignment(args.gold))
    ranks = None
    if args.ranked:
        ranked = {}
        with open(args.ranked, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                source, *targets = line.rstrip("\n").split("\t")
                if not (source or targets):  # a blank line
                    continue
                if not source:
                    raise ParseError(args.ranked, line_no, "empty source id")
                if source in ranked:
                    raise ParseError(args.ranked, line_no,
                                     f"duplicate source id {source!r}")
                ranked[source] = targets
        ranks = ranks_in_lists(ranked, gold)
    report = evaluate(result, gold, ranks)
    sys.stdout.write(report.to_text())
    if args.out:
        save_outputs(args.out, "eval", None, report.to_text(), report.to_json() + "\n")
    return 0


def _cmd_pipeline(args) -> int:
    # Each flag sets the PipelineConfig field of its name; an unset flag
    # (None) leaves the settings file's value, or else the field's default.
    overrides = {f.name: getattr(args, f.name, None)
                 for f in dataclasses.fields(PipelineConfig)}
    if args.mode is not None:
        overrides["mode"] = MODE_FLAGS[args.mode]
    if args.features is not None:
        overrides["features"] = args.features.split(",")
    cfg = _settings(args, lambda: PipelineConfig.from_file(args.config, **overrides))
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
    p.add_argument("--dim", type=int, default=TrainConfig.dim)
    p.add_argument("--margin", type=float, default=TrainConfig.margin)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--negatives", type=int, default=TrainConfig.negatives)
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--seed", type=int, default=TrainConfig.rng_seed)
    p.add_argument("--format", choices=matio.FORMATS, default="npy")
    p.set_defaults(fn=_cmd_embed, error=p.error)

    p = sub.add_parser("features", help="build per-feature similarity matrices")
    _add_kg_args(p)
    p.add_argument("--test", required=True, help="test alignment TSV")
    p.add_argument("--z1")
    p.add_argument("--z2")
    p.add_argument("--vectors")
    p.add_argument("--measure", choices=[m.value for m in Measure],
                   default=DEFAULT_MEASURE)
    p.add_argument("--features", default=",".join(FEATURES))
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=matio.FORMATS, default="npy")
    p.set_defaults(fn=_cmd_features, error=p.error)

    p = sub.add_parser("fuse", help="adaptively fuse similarity matrices")
    p.add_argument("--inputs", nargs="+", required=True, metavar="TAG=PATH")
    p.add_argument("--theta1", type=float, default=FusionConfig.theta1)
    p.add_argument("--theta2", type=float, default=FusionConfig.theta2)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=matio.FORMATS, default="npy")
    p.set_defaults(fn=_cmd_fuse, error=p.error)

    p = sub.add_parser("align", help="decode matches from a similarity matrix")
    _add_kg_args(p)
    p.add_argument("--matrix", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--strategy", choices=STRATEGIES, default="rl")
    p.add_argument("--mode", choices=tuple(MODE_FLAGS),
                   default=FLAG_OF_MODE[RlConfig.mode])
    p.add_argument("--actor-lr", type=float, default=RlConfig.actor_lr)
    p.add_argument("--critic-lr", type=float, default=RlConfig.critic_lr)
    p.add_argument("--tau", type=int, default=RlConfig.tau)
    p.add_argument("--epochs", type=int, default=RlConfig.epochs)
    p.add_argument("--seed", type=int, default=RlConfig.rng_seed)
    p.add_argument("--prelim-rounds", type=int, default=RlConfig.preliminary_rounds)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_align, error=p.error)

    p = sub.add_parser("eval", help="score a result file against gold pairs")
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--ranked", help="TSV of source_id then targets in rank order")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("pipeline", help="run every stage end to end")
    p.add_argument("--config", help="JSON settings file; flags override its values")
    # One flag per PipelineConfig field, named after it, except threads, which
    # only a settings file sets.
    choices = {"measure": [m.value for m in Measure], "strategy": STRATEGIES,
               "mode": tuple(MODE_FLAGS), "matrix_format": matio.FORMATS}
    for f in dataclasses.fields(PipelineConfig):
        flag = "--" + f.name.replace("_", "-")
        if f.name == "resume":
            p.add_argument(flag, action="store_true")
        elif f.name != "threads":
            kind = type(f.default) if isinstance(f.default, (int, float)) else str
            p.add_argument(flag, type=kind, choices=choices.get(f.name))
    p.set_defaults(fn=_cmd_pipeline, error=p.error)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
