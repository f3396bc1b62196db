"""End-to-end pipeline: features, fusion, collective decoding, evaluation.

``index_pairs``, ``feature_matrix`` and ``decode`` are the stage layer: the
pipeline and the command-line stages both build features and decode
through them.

Each pipeline stage writes its artifact into the output directory; with
resume enabled, a stage whose artifact already exists is loaded instead of
recomputed, which never changes downstream results because artifacts
round-trip bit-exactly. Any stage failure aborts with the stage name and
the original cause.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from . import matio
from .collective import (
    AlignmentResult,
    RlConfig,
    a2c_align,
    build_environment,
    count_multiplicities,
    greedy_independent,
    hungarian,
    stable_matching,
)
from .errors import PipelineError
from .fusion import FusionConfig, adaptive_fuse, confident_correspondences
from .gcn import TrainConfig, train
from .kg import (
    AlignmentDataset,
    load_alignment,
    load_kg,
    neighbor_sets,
    split_alignment,
)
from .measures import Measure, SimilarityMatrix, sim_matrix
from .metrics import EvalReport, fusion_poc, gold_ranks, hits_mrr_of_ranks, prf
from .names import load_word_vectors, name_embedding_matrix, string_sim_matrix

STRATEGIES = ("greedy", "stable", "hungarian", "rl")
FEATURES = ("structural", "semantic", "string")


def default_threads() -> int:
    """Worker threads of the string stage: ``KGALIGN_THREADS``, or 1 if unset.

    A value that is not a positive integer raises ``ValueError``.
    """
    raw = os.environ.get("KGALIGN_THREADS")
    if raw is None:
        return 1
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ValueError(f"KGALIGN_THREADS must be a positive integer, got {raw!r}")
    return threads


@dataclass
class PipelineConfig:
    triples1: str
    names1: str
    triples2: str
    names2: str
    gold: str
    vectors: str | None = None
    out_dir: str = "out"
    seed: int = 0
    train_frac: float = 0.24
    val_frac: float = 0.06
    features: tuple[str, ...] = FEATURES
    measure: str = "bc"
    dim: int = 300
    margin: float = 3.0
    epochs: int = 300
    negatives: int = 5
    learning_rate: float = 1.0
    embed_seed: int | None = None
    theta1: float = 0.99
    theta2: float = 0.48
    strategy: str = "rl"
    mode: str = "full"
    tau: int = 10
    rl_epochs: int = 100
    rl_seed: int | None = None
    rl_actor_lr: float = 0.001
    rl_critic_lr: float = 0.01
    prelim_rounds: int = 2
    threads: int = field(default_factory=default_threads)
    matrix_format: str = "npy"
    resume: bool = False

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}")
        unknown = set(self.features) - set(FEATURES)
        if unknown:
            raise ValueError(f"unknown features: {sorted(unknown)}")
        if not self.features:
            raise ValueError("need at least one feature")
        Measure(self.measure)  # validates the flag value
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        if "semantic" in self.features and not self.vectors:
            raise ValueError("the semantic feature requires a word-vector file")

    @classmethod
    def from_file(cls, path, **overrides) -> "PipelineConfig":
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        payload.update({k: v for k, v in overrides.items() if v is not None})
        if "features" in payload and not isinstance(payload["features"], tuple):
            payload["features"] = tuple(payload["features"])
        return cls(**payload)

    def validate_paths(self) -> None:
        paths = [self.triples1, self.names1, self.triples2, self.names2, self.gold]
        if self.vectors:
            paths.append(self.vectors)
        missing = [p for p in paths if not Path(p).exists()]
        if missing:
            raise FileNotFoundError(f"missing input files: {missing}")

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            dim=self.dim,
            margin=self.margin,
            epochs=self.epochs,
            negatives=self.negatives,
            learning_rate=self.learning_rate,
            rng_seed=self.seed if self.embed_seed is None else self.embed_seed,
        )

    def rl_config(self) -> RlConfig:
        return RlConfig(
            tau=self.tau,
            epochs=self.rl_epochs,
            rng_seed=self.seed if self.rl_seed is None else self.rl_seed,
            actor_lr=self.rl_actor_lr,
            critic_lr=self.rl_critic_lr,
            preliminary_rounds=self.prelim_rounds,
            mode=self.mode,
        )

    def fusion_config(self) -> FusionConfig:
        return FusionConfig(theta1=self.theta1, theta2=self.theta2)


@dataclass
class PipelineArtifacts:
    report: EvalReport
    result: AlignmentResult
    out_dir: Path
    test_pairs: list[tuple[int, int]]


def _stage(name: str):
    def wrap(fn):
        def inner(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except PipelineError:
                raise
            except Exception as exc:
                raise PipelineError(f"stage {name!r} failed: {exc}") from exc
        return inner
    return wrap


def index_pairs(pairs, kg1, kg2) -> list[tuple[int, int]]:
    """External (source id, target id) pairs as (kg1 index, kg2 index)."""
    return [(kg1.entity_index[s], kg2.entity_index[t]) for s, t in pairs]


def feature_matrix(
    tag: str, kg1, kg2, test_pairs, measure, z1, z2, vectors, threads: int
) -> SimilarityMatrix:
    """One feature's similarity matrix over the test pairs, rows and columns
    in ``test_pairs`` order.

    ``structural`` compares the rows of the embeddings ``z1``/``z2`` under
    ``measure``; ``semantic`` compares averaged word vectors read from the
    file ``vectors`` under ``measure``; ``string`` scores the names' edit
    distance on ``threads`` threads. Inputs a feature does not use may be None.
    """
    test_src = [s for s, _ in test_pairs]
    test_tgt = [t for _, t in test_pairs]
    if tag == "structural":
        return sim_matrix(z1[test_src], z2[test_tgt], measure, tag)
    src_names = [kg1.entity_names[i] for i in test_src]
    tgt_names = [kg2.entity_names[i] for i in test_tgt]
    if tag == "semantic":
        table = load_word_vectors(vectors)
        n1 = name_embedding_matrix(src_names, table)
        n2 = name_embedding_matrix(tgt_names, table)
        return sim_matrix(n1.rows, n2.rows, measure, tag)
    if tag == "string":
        return string_sim_matrix(src_names, tgt_names, threads=threads)
    raise ValueError(f"unknown feature {tag!r}; choose from {FEATURES}")


def decode(
    strategy: str, scores, kg1, kg2, test_pairs, rl_cfg: RlConfig
) -> AlignmentResult:
    """Decode matches from a test-pair score matrix with one of STRATEGIES.

    ``rl`` projects each graph's neighbours onto the test pairs, so row and
    column indices double as entity positions, and trains with ``rl_cfg``.
    """
    if strategy == "greedy":
        return greedy_independent(scores)
    if strategy == "stable":
        return stable_matching(scores)
    if strategy == "hungarian":
        return hungarian(scores)
    if strategy != "rl":
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    sets1 = neighbor_sets(kg1)
    sets2 = neighbor_sets(kg2)
    src_pos = {s: i for i, (s, _) in enumerate(test_pairs)}
    tgt_pos = {t: i for i, (_, t) in enumerate(test_pairs)}
    src_nb = [frozenset(src_pos[w] for w in sets1[s] if w in src_pos)
              for s, _ in test_pairs]
    tgt_nb = [frozenset(tgt_pos[w] for w in sets2[t] if w in tgt_pos)
              for _, t in test_pairs]
    env = build_environment(scores, src_nb, tgt_nb, rl_cfg)
    return a2c_align(env, rl_cfg)


@_stage("load")
def _load_inputs(cfg: PipelineConfig):
    kg1 = load_kg(cfg.triples1, cfg.names1)
    kg2 = load_kg(cfg.triples2, cfg.names2)
    indexed = index_pairs(load_alignment(cfg.gold), kg1, kg2)
    split = split_alignment(indexed, cfg.train_frac, cfg.val_frac, cfg.seed)
    return kg1, kg2, split


@_stage("embed")
def _embed(cfg: PipelineConfig, out: Path, kg1, kg2, split: AlignmentDataset):
    ext = "npy" if cfg.matrix_format == "npy" else "tsv"
    z1_path, z2_path = out / f"z1.{ext}", out / f"z2.{ext}"
    if cfg.resume and z1_path.exists() and z2_path.exists():
        return matio.load_matrix(z1_path), matio.load_matrix(z2_path)
    z1, z2 = train(kg1, kg2, list(split.train), cfg.train_config())
    matio.save_matrix(z1_path, z1, cfg.matrix_format)
    matio.save_matrix(z2_path, z2, cfg.matrix_format)
    return z1, z2


@_stage("features")
def _features(cfg: PipelineConfig, out: Path, kg1, kg2, split, z1, z2):
    ext = "npy" if cfg.matrix_format == "npy" else "tsv"
    matrices: list[SimilarityMatrix] = []
    for tag in cfg.features:
        path = out / f"sim_{tag}.{ext}"
        if cfg.resume and path.exists():
            matrices.append(SimilarityMatrix(matio.load_matrix(path), tag))
            continue
        m = feature_matrix(tag, kg1, kg2, split.test, cfg.measure, z1, z2,
                           cfg.vectors, cfg.threads)
        matio.save_matrix(path, m.scores, cfg.matrix_format)
        matrices.append(m)
    return matrices


@_stage("fuse")
def _fuse(cfg: PipelineConfig, out: Path, matrices):
    ext = "npy" if cfg.matrix_format == "npy" else "tsv"
    fused_path = out / f"sim_fused.{ext}"
    corr_path = out / "fusion.json"
    if cfg.resume and fused_path.exists() and corr_path.exists():
        fused = SimilarityMatrix(matio.load_matrix(fused_path), "fused")
        payload = matio.load_json(corr_path)
        corr_cells = [tuple(cell) for cell in payload["cells"]]
        return fused, corr_cells
    if len(matrices) == 1:
        fused = SimilarityMatrix(matrices[0].scores, "fused")
        corrs = confident_correspondences(matrices[0])
        cells = sorted({(c.source, c.target) for c in corrs})
        matio.save_matrix(fused_path, fused.scores, cfg.matrix_format)
        matio.save_json(corr_path, {"cells": [list(c) for c in cells],
                                    "weights": {matrices[0].feature_tag: 1.0}})
        matio.save_text(out / "fusion_report.txt",
                        f"feature_weight\t{matrices[0].feature_tag}\t1.0\n")
        return fused, cells
    fused, report = adaptive_fuse(matrices, cfg.fusion_config())
    matio.save_matrix(fused_path, fused.scores, cfg.matrix_format)
    matio.save_text(out / "fusion_report.txt", report.to_text())
    cells = sorted(report.correspondence_weights)
    matio.save_json(
        corr_path,
        {
            "cells": [list(c) for c in cells],
            "weights": report.feature_weights.weights,
            "fallback": report.feature_weights.fallback,
        },
    )
    return fused, cells


@_stage("align")
def _align(cfg: PipelineConfig, out: Path, kg1, kg2, split, fused):
    result_path = out / "result.tsv"
    src_ids = [kg1.entity_ids[s] for s, _ in split.test]
    tgt_ids = [kg2.entity_ids[t] for _, t in split.test]
    if cfg.resume and result_path.exists():
        rows = matio.load_result(result_path)
        src_pos = {eid: i for i, eid in enumerate(src_ids)}
        tgt_pos = {eid: i for i, eid in enumerate(tgt_ids)}
        pairs = {src_pos[s]: tgt_pos[t] for s, t, _ in rows}
        prov = {src_pos[s]: p for s, _, p in rows}
        return AlignmentResult(pairs=pairs, provenance=prov)
    result = decode(cfg.strategy, fused, kg1, kg2, split.test, cfg.rl_config())
    matio.save_result(result_path, result, src_ids, tgt_ids)
    return result


@_stage("eval")
def _evaluate(cfg: PipelineConfig, out: Path, split, fused, result, corr_cells):
    n_test = len(split.test)
    gold = {i: i for i in range(n_test)}  # row i aligns with column i by split order
    precision, recall, f1 = prf(result, gold)
    hits, mrr = hits_mrr_of_ranks(gold_ranks(fused.scores), ks=(1, 10))
    mulse, multe = count_multiplicities(result)
    report = EvalReport(
        precision=precision,
        recall=recall,
        f1=f1,
        hits=hits,
        mrr=mrr,
        mulse=mulse,
        multe=multe,
        poc=fusion_poc(corr_cells, gold),
    )
    matio.save_text(out / "report.txt", report.to_text())
    matio.save_text(out / "report.json", report.to_json() + "\n")
    return report


def run_pipeline(cfg: PipelineConfig) -> PipelineArtifacts:
    """Execute every stage in order and return the report and result."""
    cfg.validate_paths()
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    matio.save_json(out / "config.json", dataclasses.asdict(cfg))
    kg1, kg2, split = _load_inputs(cfg)
    matio.save_json(
        out / "split.json",
        {
            "train": [list(p) for p in split.train],
            "val": [list(p) for p in split.val],
            "test": [list(p) for p in split.test],
        },
    )
    if "structural" in cfg.features:
        z1, z2 = _embed(cfg, out, kg1, kg2, split)
    else:
        z1 = z2 = None
    matrices = _features(cfg, out, kg1, kg2, split, z1, z2)
    fused, corr_cells = _fuse(cfg, out, matrices)
    result = _align(cfg, out, kg1, kg2, split, fused)
    report = _evaluate(cfg, out, split, fused, result, corr_cells)
    return PipelineArtifacts(
        report=report, result=result, out_dir=out, test_pairs=list(split.test)
    )
