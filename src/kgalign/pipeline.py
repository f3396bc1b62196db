"""End-to-end pipeline: features, fusion, collective decoding, evaluation.

``index_pairs``, ``feature_matrix`` and ``decode`` are the stage layer: the
pipeline and the command-line stages both build features and decode
through them.

The pipeline's stages are load, embed (structural feature only), one
features stage per feature, fuse, align and eval. Each writes its artifacts
into the output directory. Each has a key: a sha256 over its file names,
the settings it reads and the keys of the stages it reads from, which
starts from the bytes of the input files (triples, names and gold for load,
the word vectors for the semantic feature). ``manifest.json`` holds the key
of every stage whose artifacts are complete, written after them and always
whole.

With resume, every key is computed before any artifact is opened. A stage
runs again when its manifest key is missing or differs or one of its files
is missing, and so does every stage that reads from it. Other stages are
current: their artifacts are read back only where a stage that runs, or the
returned ``PipelineArtifacts``, needs them, and artifacts round-trip
bit-exactly. A fully current directory is answered from ``report.json``,
``split.json``, ``result.tsv`` and the names files' id columns. Any stage
failure aborts with the stage name and the original cause.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field
from functools import cached_property
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
from .fusion import FusionConfig, adaptive_fuse
from .gcn import ENCODER, TrainConfig, train
from .kg import (
    AlignmentDataset,
    load_alignment,
    load_entity_ids,
    load_kg,
    neighbor_sets,
    split_alignment,
)
from .measures import DEFAULT_MEASURE, Measure, SimilarityMatrix, sim_matrix
from .metrics import EvalReport, fusion_poc, gold_ranks, hits_mrr_of_ranks, prf
from .names import load_word_vectors, name_embedding_matrix, string_sim_matrix

STRATEGIES = ("greedy", "stable", "hungarian", "rl")
FEATURES = ("structural", "semantic", "string")
MANIFEST = "manifest.json"
SPLIT_PARTS = ("train", "val", "test")


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
    measure: str = DEFAULT_MEASURE
    dim: int = TrainConfig.dim
    margin: float = TrainConfig.margin
    epochs: int = TrainConfig.epochs
    negatives: int = TrainConfig.negatives
    learning_rate: float = TrainConfig.learning_rate
    theta1: float = FusionConfig.theta1
    theta2: float = FusionConfig.theta2
    strategy: str = "rl"
    mode: str = RlConfig.mode
    tau: int = RlConfig.tau
    rl_epochs: int = RlConfig.epochs
    rl_actor_lr: float = RlConfig.actor_lr
    rl_critic_lr: float = RlConfig.critic_lr
    prelim_rounds: int = RlConfig.preliminary_rounds
    threads: int = field(default_factory=default_threads)
    matrix_format: str = "npy"
    resume: bool = False

    def __post_init__(self):
        # Paths may come in as os.PathLike (write_synthetic returns Path
        # objects); config.json and the stage keys need them as str.
        for name in ("triples1", "names1", "triples2", "names2", "gold", "out_dir"):
            setattr(self, name, os.fspath(getattr(self, name)))
        if self.vectors is not None:
            self.vectors = os.fspath(self.vectors)
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
        if self.matrix_format not in matio.FORMATS:
            raise ValueError(f"matrix_format must be one of {matio.FORMATS}, "
                             f"got {self.matrix_format!r}")
        # Each stage's settings are checked before any stage runs.
        self.train_config()
        self.rl_config()
        self.fusion_config()

    @classmethod
    def from_file(cls, path, **overrides) -> "PipelineConfig":
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        payload.update({k: v for k, v in overrides.items() if v is not None})
        # Older config.json files hold per-stage seeds, unset: each stage
        # then used ``seed``, as every stage now does.
        for name in ("embed_seed", "rl_seed"):
            if name in payload and payload[name] is None:
                del payload[name]
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
            rng_seed=self.seed,
        )

    def rl_config(self) -> RlConfig:
        return RlConfig(
            tau=self.tau,
            epochs=self.rl_epochs,
            rng_seed=self.seed,
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


def fuse_features(
    matrices: list[SimilarityMatrix], cfg: FusionConfig
) -> tuple[SimilarityMatrix, dict, str]:
    """Fuse the feature matrices; return the fused matrix, the ``fusion.json``
    payload (confident cells, feature weights, fallback flag) and the
    ``fusion_report.txt`` text. A single matrix gets weight exactly 1.0, so
    its fused scores are its own.
    """
    fused, report = adaptive_fuse(matrices, cfg)
    summary = {
        "cells": [list(c) for c in sorted(report.correspondence_weights)],
        "weights": report.feature_weights.weights,
        "fallback": report.feature_weights.fallback,
    }
    return fused, summary, report.to_text()


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


def _key(*parts) -> str:
    """sha256 of the JSON text of ``parts``; JSON prints floats exactly."""
    return hashlib.sha256(json.dumps(parts, sort_keys=True).encode()).hexdigest()


def _file_key(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass(frozen=True)
class _Stage:
    key: str
    files: tuple[str, ...]  # its artifacts in the output directory
    upstream: tuple[str, ...]  # the stages whose outputs it reads


def _plan(cfg: PipelineConfig) -> dict[str, _Stage]:
    """Every stage of ``cfg`` by name, in run order, with its key.

    A key hashes the stage's file names, the settings it reads and the keys
    of its upstream stages; the chain starts from the bytes of the input
    files. ``out_dir``, ``resume`` and ``threads`` change no artifact, so no
    key reads them; ``matrix_format`` enters only as the file names'
    extension, so an entry never vouches for files of the other format.
    The embed key also reads ``gcn.ENCODER``, so embeddings that another
    encoder wrote are never resumed as this one's.
    """
    ext = cfg.matrix_format
    plan: dict[str, _Stage] = {}

    def add(name, files, upstream, *settings):
        key = _key(name, files, [plan[u].key for u in upstream], *settings)
        plan[name] = _Stage(key, files, upstream)

    inputs = [_file_key(p) for p in
              (cfg.triples1, cfg.names1, cfg.triples2, cfg.names2, cfg.gold)]
    add("load", ("split.json",), (), inputs, cfg.seed, cfg.train_frac,
        cfg.val_frac)
    if "structural" in cfg.features:
        add("embed", (f"z1.{ext}", f"z2.{ext}"), ("load",), ENCODER,
            dataclasses.asdict(cfg.train_config()))
    for tag in cfg.features:
        files = (f"sim_{tag}.{ext}",)
        if tag == "structural":
            add("sim_structural", files, ("embed",), cfg.measure)
        elif tag == "semantic":
            add("sim_semantic", files, ("load",), cfg.measure,
                _file_key(cfg.vectors))
        else:
            add(f"sim_{tag}", files, ("load",))
    add("fuse", (f"sim_fused.{ext}", "fusion.json", "fusion_report.txt"),
        tuple(f"sim_{tag}" for tag in cfg.features),
        dataclasses.asdict(cfg.fusion_config()))
    add("align", ("result.tsv",), ("fuse",), cfg.strategy,
        dataclasses.asdict(cfg.rl_config()) if cfg.strategy == "rl" else None)
    add("eval", ("report.txt", "report.json"), ("align",))
    return plan


def _load_record(path: Path) -> dict:
    """The JSON object in ``path``, or an empty dict when the file is missing
    or holds no JSON object: a record that cannot be read vouches for
    nothing."""
    try:
        recorded = matio.load_json(path)
    except (OSError, ValueError):
        return {}
    return recorded if isinstance(recorded, dict) else {}


def _save_manifest(path: Path, entries: dict) -> None:
    """Write the manifest whole, through a rename, so a process killed
    mid-write leaves the previous manifest in place."""
    tmp = path.with_name(path.name + ".tmp")
    matio.save_json(tmp, entries)
    os.replace(tmp, path)


def _in_stage(name: str, fn, *args):
    """``fn(*args)``, with any failure re-raised as a PipelineError naming the
    stage; the stages of the single features get one name."""
    try:
        return fn(*args)
    except PipelineError:
        raise
    except Exception as exc:
        step = "features" if name.startswith("sim_") else name
        raise PipelineError(f"stage {step!r} failed: {exc}") from exc


def _evaluate(n_test: int, fused: SimilarityMatrix, result: AlignmentResult,
             corr_cells) -> EvalReport:
    """Score a decoded test split whose row i aligns with column i."""
    gold = {i: i for i in range(n_test)}
    precision, recall, f1 = prf(result, gold)
    hits, mrr = hits_mrr_of_ranks(gold_ranks(fused.scores), ks=(1, 10))
    mulse, multe = count_multiplicities(result)
    return EvalReport(precision=precision, recall=recall, f1=f1, hits=hits, mrr=mrr,
                      mulse=mulse, multe=multe, poc=fusion_poc(corr_cells, gold))


class _Run:
    """The outputs of one run's stages by name: computed by the stages that
    run, or read back from a current stage's artifacts on first use."""

    def __init__(self, cfg: PipelineConfig, out: Path, plan: dict[str, _Stage]):
        self.cfg, self.out, self.plan = cfg, out, plan
        self.outputs: dict = {}

    def compute(self, name: str) -> None:
        self.outputs[name] = _in_stage(name, self._compute, name)

    def output(self, name: str):
        if name not in self.outputs:
            self.outputs[name] = _in_stage(name, self._read, name)
        return self.outputs[name]

    @cached_property
    def kgs(self):
        cfg = self.cfg
        return load_kg(cfg.triples1, cfg.names1), load_kg(cfg.triples2, cfg.names2)

    @cached_property
    def entity_ids(self):
        if "kgs" in vars(self):  # already parsed
            return tuple(kg.entity_ids for kg in self.kgs)
        return load_entity_ids(self.cfg.names1), load_entity_ids(self.cfg.names2)

    def _compute(self, name: str):
        cfg = self.cfg
        files = [self.out / f for f in self.plan[name].files]
        if name == "load":
            kg1, kg2 = self.kgs
            split = split_alignment(index_pairs(load_alignment(cfg.gold), kg1, kg2),
                                    cfg.train_frac, cfg.val_frac, cfg.seed)
            matio.save_json(files[0], {part: [list(p) for p in getattr(split, part)]
                                       for part in SPLIT_PARTS})
            return split
        split = self.output("load")
        if name == "embed":
            z = train(*self.kgs, list(split.train), cfg.train_config())
            for path, matrix in zip(files, z):
                matio.save_matrix(path, matrix, cfg.matrix_format)
            return z
        if name.startswith("sim_"):
            tag = name.removeprefix("sim_")
            z1, z2 = self.output("embed") if tag == "structural" else (None, None)
            kg1, kg2 = (None, None) if tag == "structural" else self.kgs
            m = feature_matrix(tag, kg1, kg2, split.test, cfg.measure, z1, z2,
                               cfg.vectors, cfg.threads)
            matio.save_matrix(files[0], m.scores, cfg.matrix_format)
            return m
        if name == "fuse":
            fused, summary, report_text = fuse_features(
                [self.output(f"sim_{tag}") for tag in cfg.features], cfg.fusion_config())
            matio.save_matrix(files[0], fused.scores, cfg.matrix_format)
            matio.save_text(files[2], report_text)
            matio.save_json(files[1], summary)
            return fused, [tuple(cell) for cell in summary["cells"]]
        fused, corr_cells = self.output("fuse")
        if name == "align":
            # Only the rl decoder reads the graphs (their neighbours).
            kg1, kg2 = self.kgs if cfg.strategy == "rl" else (None, None)
            result = decode(cfg.strategy, fused, kg1, kg2, split.test, cfg.rl_config())
            ids1, ids2 = self.entity_ids
            matio.save_result(files[0], result, [ids1[s] for s, _ in split.test],
                              [ids2[t] for _, t in split.test])
            return result
        report = _evaluate(len(split.test), fused, self.output("align"), corr_cells)
        matio.save_text(files[0], report.to_text())
        matio.save_text(files[1], report.to_json() + "\n")
        return report

    def _read(self, name: str):
        files = [self.out / f for f in self.plan[name].files]
        if name == "load":
            parts = matio.load_json(files[0])
            return AlignmentDataset(*(tuple(map(tuple, parts[part]))
                                      for part in SPLIT_PARTS))
        if name == "embed":
            return tuple(matio.load_matrix(path) for path in files)
        if name.startswith("sim_"):
            return SimilarityMatrix(matio.load_matrix(files[0]), name.removeprefix("sim_"))
        if name == "fuse":
            return (SimilarityMatrix(matio.load_matrix(files[0]), "fused"),
                    [tuple(cell) for cell in matio.load_json(files[1])["cells"]])
        if name == "align":
            test = self.output("load").test
            ids1, ids2 = self.entity_ids
            src_pos = {ids1[s]: i for i, (s, _) in enumerate(test)}
            tgt_pos = {ids2[t]: i for i, (_, t) in enumerate(test)}
            rows = matio.load_result(files[0])
            return AlignmentResult(pairs={src_pos[s]: tgt_pos[t] for s, t, _ in rows},
                                   provenance={src_pos[s]: p for s, _, p in rows})
        return EvalReport.from_json(files[1].read_text(encoding="utf-8"))


def run_pipeline(cfg: PipelineConfig) -> PipelineArtifacts:
    """Run every stage that is not current, in order; return the report and result."""
    cfg.validate_paths()
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    plan = _in_stage("load", _plan, cfg)
    # config.json records the settings that produced the directory, so a
    # resume leaves it as a run without resume writes it.
    settings = {**dataclasses.asdict(cfg), "features": list(cfg.features),
                "resume": False}
    config = out / "config.json"
    if not (cfg.resume and _load_record(config) == settings):
        matio.save_json(config, settings)
    manifest = out / MANIFEST
    recorded = _load_record(manifest) if cfg.resume else {}
    present = set(os.listdir(out))
    stale: set[str] = set()
    for name, stage in plan.items():
        if (recorded.get(name) != stage.key
                or any(u in stale for u in stage.upstream)
                or not present.issuperset(stage.files)):
            stale.add(name)
    done = {name: plan[name].key for name in plan if name not in stale}
    if stale and manifest.exists():
        # No entry may vouch for files that are about to be rewritten, should
        # the process die before the final manifest write.
        _save_manifest(manifest, done)
    run = _Run(cfg, out, plan)
    try:
        for name in plan:
            if name in stale:
                run.compute(name)
                done[name] = plan[name].key
    finally:
        if done != recorded:
            _save_manifest(manifest, done)
    return PipelineArtifacts(report=run.output("eval"), result=run.output("align"),
                             out_dir=out, test_pairs=list(run.output("load").test))
