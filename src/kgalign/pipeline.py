"""End-to-end pipeline: features, fusion, collective decoding, evaluation.

``index_pairs``, ``feature_matrix`` and ``decode`` are the stage layer's
computation, ``stage_files`` (the table of each stage's file names) and
``save_outputs`` its writer: the pipeline and the command-line stages
compute, name and write every stage's artifacts through them.

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
bit-exactly. ``split.json`` carries the test pairs' external ids, so a
fully current directory is answered from ``report.json``, ``split.json``
and ``result.tsv`` alone, and opens the input files only to hash them.
``result.tsv`` is read in bulk (one split, no Python code per line), and
the settings reach ``config.json`` and the keys as flat dicts. Any stage
failure aborts with the stage name and the original cause.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from . import matio
from .collective import (
    AlignmentResult,
    RlConfig,
    a2c_align,
    build_environment,
    greedy_independent,
    hungarian,
    stable_matching,
)
from .errors import IntegrityError, PipelineError, check_number
from .fusion import FusionConfig, adaptive_fuse
from .gcn import ENCODER, TrainConfig, train
from .kg import (
    AlignmentDataset,
    check_split_fractions,
    load_alignment,
    load_kg,
    neighbor_sets,
    split_alignment,
)
from .measures import DEFAULT_MEASURE, Measure, SimilarityMatrix, sim_matrix
from .metrics import EvalReport, evaluate, gold_ranks
from .names import load_word_vectors, name_embedding_matrix, string_sim_matrix

STRATEGIES = ("greedy", "stable", "hungarian", "rl")
FEATURES = ("structural", "semantic", "string")
MANIFEST = "manifest.json"
SPLIT_PARTS = ("train", "val", "test")
# split.json's fields: the index pairs of each part, then the test pairs'
# external ids, from which result.tsv is written and read back.
SPLIT_FIELDS = (*SPLIT_PARTS, "test_ids")


def check_features(features, vectors) -> None:
    """Raise ValueError unless ``features`` is a non-empty list of distinct
    FEATURES tags, with a word-vector file ``vectors`` if it holds semantic."""
    unknown = set(features) - set(FEATURES)
    if unknown:
        raise ValueError(f"unknown features: {sorted(unknown)}")
    if not features:
        raise ValueError("need at least one feature")
    if len(set(features)) != len(features):
        raise ValueError(f"each feature may appear once, got {list(features)}")
    if "semantic" in features and not vectors:
        raise ValueError("the semantic feature requires a word-vector file")


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
    threads: int = 1
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
        self.features = tuple(self.features)
        check_features(self.features, self.vectors)
        check_split_fractions(self.train_frac, self.val_frac)
        Measure(self.measure)  # validates the flag value
        check_number("threads", self.threads, 1, integer=True)
        if self.matrix_format not in matio.FORMATS:
            raise ValueError(f"matrix_format must be one of {matio.FORMATS}, "
                             f"got {self.matrix_format!r}")
        # Each stage's settings are checked before any stage runs.
        self.train_config()
        self.rl_config()
        self.fusion_config()

    @classmethod
    def from_file(cls, path, **overrides) -> "PipelineConfig":
        """The settings in the JSON object of file ``path`` (None: no file),
        with each ``overrides`` value that is not None in its key's place. A
        null value counts as unset, as an absent key does. A file holding no
        JSON object, or required inputs left unset, raise ValueError."""
        payload = matio.load_json(path) if path is not None else {}
        if not isinstance(payload, dict):
            raise ValueError(f"{path} must hold a JSON object, got {type(payload).__name__}")
        settings = {k: v for k, v in payload.items() if v is not None}
        settings.update((k, v) for k, v in overrides.items() if v is not None)
        missing = [f.name for f in dataclasses.fields(cls)
                   if f.default is dataclasses.MISSING and f.name not in settings]
        if missing and path is None:
            raise ValueError("without --config, the following arguments are required: "
                             + ", ".join(f"--{name}" for name in missing))
        if missing:
            raise ValueError(f"{path} and the flags leave required inputs unset: "
                             + ", ".join(f"{name} (--{name})" for name in missing))
        return cls(**settings)

    def validate_paths(self) -> None:
        paths = [self.triples1, self.names1, self.triples2, self.names2, self.gold]
        if self.vectors:
            paths.append(self.vectors)
        missing = [p for p in paths if not os.path.exists(p)]
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
    """External (source id, target id) pairs as (kg1 index, kg2 index). An id
    that is no entity of its graph raises IntegrityError naming its side."""
    index1, index2 = kg1.entity_index, kg2.entity_index
    for s, t in pairs:
        if s not in index1:
            raise IntegrityError(f"source id {s!r} is not an entity of the first graph")
        if t not in index2:
            raise IntegrityError(f"target id {t!r} is not an entity of the second graph")
    return [(index1[s], index2[t]) for s, t in pairs]


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

    ``scores`` (a SimilarityMatrix or an array) must have one row and one
    column per test pair, or ValueError names both shapes. ``rl`` projects
    each graph's neighbours onto the test pairs, so row and column indices
    double as entity positions, and trains with ``rl_cfg``.
    """
    n = len(test_pairs)
    shape = getattr(scores, "scores", scores).shape
    if shape != (n, n):
        raise ValueError(f"scores have shape {shape}, but {n} test pairs need ({n}, {n})")
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


def _fields(obj) -> dict:
    """A dataclass's fields as a flat ``{name: value}`` dict. Its JSON is
    ``dataclasses.asdict``'s, without the deep copy: every field of the
    configs is a scalar, a string or a tuple of strings."""
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def _key(*parts) -> str:
    """sha256 of the JSON text of ``parts``; JSON prints floats exactly."""
    return hashlib.sha256(json.dumps(parts, sort_keys=True).encode()).hexdigest()


def _file_key(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


_FILES = {"load": ("split.json",), "embed": ("z1.", "z2."),
          "fuse": ("sim_fused.", "fusion.json", "fusion_report.txt"),
          "align": ("result.tsv",), "eval": ("report.txt", "report.json")}


def stage_files(stage: str, fmt: str | None) -> tuple[str, ...]:
    """The files ``stage`` writes, in the order ``save_outputs`` takes their
    values. A name ending in "." is a matrix's and takes ``fmt`` as extension;
    a feature stage ``sim_<tag>`` writes the one matrix ``sim_<tag>.<fmt>``."""
    return tuple(name + fmt if name.endswith(".") else name
                 for name in _FILES.get(stage, (f"{stage}.",)))


def save_outputs(out, stage: str, fmt: str | None, *values) -> list[Path]:
    """Write ``values`` to ``stage``'s files in directory ``out``, creating it,
    and return their paths: a str as text, an array as a matrix in ``fmt``."""
    Path(out).mkdir(parents=True, exist_ok=True)
    paths = [Path(out, name) for name in stage_files(stage, fmt)]
    for path, value in zip(paths, values, strict=True):
        if isinstance(value, str):
            matio.save_text(path, value)
        else:
            matio.save_matrix(path, value, fmt)
    return paths


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
    encoder wrote are never resumed as this one's, and the load key reads
    ``SPLIT_FIELDS``, so a ``split.json`` with other fields is never resumed.
    """
    plan: dict[str, _Stage] = {}

    def add(name, upstream, *settings):
        files = stage_files(name, cfg.matrix_format)
        key = _key(name, files, [plan[u].key for u in upstream], *settings)
        plan[name] = _Stage(key, files, upstream)

    inputs = [_file_key(p) for p in
              (cfg.triples1, cfg.names1, cfg.triples2, cfg.names2, cfg.gold)]
    add("load", (), inputs, cfg.seed, cfg.train_frac, cfg.val_frac, SPLIT_FIELDS)
    if "structural" in cfg.features:
        add("embed", ("load",), ENCODER, _fields(cfg.train_config()))
    for tag in cfg.features:
        if tag == "structural":
            add("sim_structural", ("embed",), cfg.measure)
        elif tag == "semantic":
            add("sim_semantic", ("load",), cfg.measure, _file_key(cfg.vectors))
        else:
            add(f"sim_{tag}", ("load",))
    add("fuse", tuple(f"sim_{tag}" for tag in cfg.features),
        _fields(cfg.fusion_config()))
    add("align", ("fuse",), cfg.strategy,
        _fields(cfg.rl_config()) if cfg.strategy == "rl" else None)
    add("eval", ("align",))
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
    stage. A PipelineError passes through: it already names the stage that
    failed, such as ``load`` when a later stage reads back a corrupt split."""
    try:
        return fn(*args)
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(f"stage {name!r} failed: {exc}") from exc


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
    def gold(self):
        return index_pairs(load_alignment(self.cfg.gold), *self.kgs)

    def _compute(self, name: str):
        cfg, fmt = self.cfg, self.cfg.matrix_format
        files = [self.out / f for f in self.plan[name].files]
        if name == "load":
            kg1, kg2 = self.kgs
            split = split_alignment(self.gold, cfg.train_frac, cfg.val_frac, cfg.seed)
            test_ids = [(kg1.entity_ids[s], kg2.entity_ids[t]) for s, t in split.test]
            matio.save_json(files[0], {**_fields(split), "test_ids": test_ids})
            return split, test_ids
        split, test_ids = self.output("load")
        if name == "embed":
            z = train(*self.kgs, list(split.train), cfg.train_config())
            save_outputs(self.out, name, fmt, *z)
            return z
        if name.startswith("sim_"):
            tag = name.removeprefix("sim_")
            z1, z2 = self.output("embed") if tag == "structural" else (None, None)
            kg1, kg2 = (None, None) if tag == "structural" else self.kgs
            m = feature_matrix(tag, kg1, kg2, split.test, cfg.measure, z1, z2,
                               cfg.vectors, cfg.threads)
            save_outputs(self.out, name, fmt, m.scores)
            return m
        if name == "fuse":
            fused, report = adaptive_fuse(
                [self.output(f"sim_{tag}") for tag in cfg.features], cfg.fusion_config())
            save_outputs(self.out, name, fmt, fused.scores, report.to_json() + "\n",
                         report.to_text())
            return fused, sorted(report.correspondence_weights)
        fused, corr_cells = self.output("fuse")
        if name == "align":
            # Only the rl decoder reads the graphs (their neighbours).
            kg1, kg2 = self.kgs if cfg.strategy == "rl" else (None, None)
            result = decode(cfg.strategy, fused, kg1, kg2, split.test, cfg.rl_config())
            matio.save_result(files[0], result, [s for s, _ in test_ids],
                              [t for _, t in test_ids])
            return result
        # Row i of the test split aligns with column i.
        report = evaluate(self.output("align"), {i: i for i in range(len(split.test))},
                          gold_ranks(fused.scores), corr_cells)
        save_outputs(self.out, name, fmt, report.to_text(), report.to_json() + "\n")
        return report

    def _read(self, name: str):
        files = [self.out / f for f in self.plan[name].files]
        if name == "load":
            parts = matio.load_json(files[0])
            return (AlignmentDataset(*(tuple(map(tuple, parts[part]))
                                       for part in SPLIT_PARTS)),
                    list(map(tuple, parts["test_ids"])))
        if name == "embed":
            return tuple(matio.load_matrix(path) for path in files)
        if name.startswith("sim_"):
            return SimilarityMatrix(matio.load_matrix(files[0]), name.removeprefix("sim_"))
        if name == "fuse":
            return (SimilarityMatrix(matio.load_matrix(files[0]), "fused"),
                    [tuple(cell) for cell in matio.load_json(files[1])["cells"]])
        if name == "align":
            _, test_ids = self.output("load")
            src_pos = {s: i for i, (s, _) in enumerate(test_ids)}
            tgt_pos = {t: i for i, (_, t) in enumerate(test_ids)}
            result = AlignmentResult(pairs={}, provenance={})
            for s, t, p in matio.load_result(files[0]):
                i = src_pos[s]
                result.pairs[i] = tgt_pos[t]
                result.provenance[i] = p
            return result
        return EvalReport.from_json(files[1].read_text(encoding="utf-8"))


def run_pipeline(cfg: PipelineConfig) -> PipelineArtifacts:
    """Run every stage that is not current, in order; return the report and result."""
    cfg.validate_paths()
    out = Path(cfg.out_dir)
    plan = _in_stage("load", _plan, cfg)
    manifest = out / MANIFEST
    recorded = _load_record(manifest) if cfg.resume else {}
    present = set(os.listdir(out)) if out.is_dir() else set()
    stale: set[str] = set()
    for name, stage in plan.items():
        if (recorded.get(name) != stage.key
                or any(u in stale for u in stage.upstream)
                or not present.issuperset(stage.files)):
            stale.add(name)
    run = _Run(cfg, out, plan)
    if "load" in stale:
        # The inputs are parsed and indexed before anything is created or
        # written, so a bad input leaves the output directory as it was.
        _in_stage("load", lambda: run.gold)
    out.mkdir(parents=True, exist_ok=True)
    # config.json records the settings that produced the directory, so a
    # resume leaves it as a run without resume writes it.
    settings = {**_fields(cfg), "features": list(cfg.features), "resume": False}
    config = out / "config.json"
    if not (cfg.resume and _load_record(config) == settings):
        matio.save_json(config, settings)
    done = {name: plan[name].key for name in plan if name not in stale}
    if stale and manifest.exists():
        # No entry may vouch for files that are about to be rewritten, should
        # the process die before the final manifest write.
        _save_manifest(manifest, done)
    try:
        for name in plan:
            if name in stale:
                run.compute(name)
                done[name] = plan[name].key
    finally:
        if done != recorded:
            _save_manifest(manifest, done)
    return PipelineArtifacts(report=run.output("eval"), result=run.output("align"),
                             out_dir=out, test_pairs=list(run.output("load")[0].test))
