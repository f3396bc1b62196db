"""Traced replay of ``run_pipeline``: the same stages, in the same order, through
the library's public functions, with a span around each call into a layer.

The replay runs one cold pass and one resumed pass over the same output
directory, as the untraced benchmark does. Its ``report.json`` must equal the
untraced run's byte for byte, which is what ties these per-layer numbers to
the end-to-end ones. Spans are kept in memory and returned to the caller.

Layer names are the ``src/kgalign`` module names. A layer that a workload
does not use has no span, so its times and counts are 0.
"""

from __future__ import annotations

import dataclasses
import statistics
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

FEATURES = ("structural", "semantic", "string")
# measures.sim_matrix works in BLOCK x BLOCK tiles; for bc each tile holds
# three float64 (b x b x d) temporaries at once (diff, den, ratio), for cos
# one (b x b) product.
BLOCK = 128
BC_TEMPORARIES = 3


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None,
                  "start": perf_counter(), "end": None}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._open.pop()

    def seconds(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_seconds(self, record: dict) -> float:
        children = sum(s["end"] - s["start"] for s in self.spans
                       if s["parent"] == record["id"])
        return record["end"] - record["start"] - children


class Replay:
    """Mirrors pipeline.py stage by stage; ``counts`` collects per-layer counts."""

    def __init__(self, kg, cfg):
        self.kg = kg
        self.cfg = cfg
        self.out = Path(cfg.out_dir)
        self.t = Tracer()
        self.counts = {"bytes_written": 0, "bytes_read": 0, "cells": 0,
                       "intermediate_mb": 0.0, "string_pairs": 0,
                       "confirmed": 0, "residual": 0, "rl_episodes": 0}
        self.epoch_times: list[float] = []
        self.losses: list[float] = []
        self.confident = dict.fromkeys(FEATURES, 0)
        self.weights = dict.fromkeys(FEATURES, 0.0)
        self.fallback = False

    # -- matio ---------------------------------------------------------------
    def save(self, fn, path: Path, *args):
        with self.t.span("matio.save"):
            fn(path, *args)
        self.counts["bytes_written"] += path.stat().st_size

    def load(self, fn, path: Path):
        with self.t.span("matio.load"):
            value = fn(path)
        self.counts["bytes_read"] += path.stat().st_size
        return value

    def path(self, stem: str) -> Path:
        return self.out / f"{stem}.{'npy' if self.cfg.matrix_format == 'npy' else 'tsv'}"

    # -- stages shared by both passes ------------------------------------------
    def start(self, cfg):
        kg, m = self.kg, self.kg.matio
        self.save(m.save_json, self.out / "config.json", dataclasses.asdict(cfg))
        with self.t.span("kg.load"):
            kg1 = kg.load_kg(cfg.triples1, cfg.names1)
            kg2 = kg.load_kg(cfg.triples2, cfg.names2)
            pairs = kg.load_alignment(cfg.gold)
            indexed = [(kg1.entity_index[s], kg2.entity_index[t]) for s, t in pairs]
            split = kg.split_alignment(indexed, cfg.train_frac, cfg.val_frac, cfg.seed)
        self.save(m.save_json, self.out / "split.json",
                  {"train": [list(p) for p in split.train],
                   "val": [list(p) for p in split.val],
                   "test": [list(p) for p in split.test]})
        return kg1, kg2, split

    def evaluate(self, split, fused, result, corr_cells):
        kg = self.kg
        with self.t.span("metrics.eval"):
            n_test = len(split.test)
            gold = {i: i for i in range(n_test)}
            precision, recall, f1 = kg.prf(result, gold)
            ranked = {i: list(np.argsort(-fused.scores[i], kind="stable"))
                      for i in range(n_test)}
            hits, mrr = kg.hits_mrr(ranked, gold, ks=(1, 10))
            mulse, multe = kg.count_multiplicities(result)
            report = kg.EvalReport(precision=precision, recall=recall, f1=f1,
                                   hits=hits, mrr=mrr, mulse=mulse, multe=multe,
                                   poc=kg.fusion_poc(corr_cells, gold))
        self.save(kg.matio.save_text, self.out / "report.txt", report.to_text())
        self.save(kg.matio.save_text, self.out / "report.json", report.to_json() + "\n")
        return report

    # -- cold pass -------------------------------------------------------------
    def cold(self):
        kg, cfg, m = self.kg, self.cfg, self.kg.matio
        self.out.mkdir(parents=True, exist_ok=True)
        kg1, kg2, split = self.start(cfg)
        self.n_test = len(split.test)
        test_src = [s for s, _ in split.test]
        test_tgt = [t for _, t in split.test]

        if "structural" in cfg.features:
            with self.t.span("gcn.train"):
                z1, z2 = kg.train(kg1, kg2, list(split.train), cfg.train_config(),
                                  on_epoch=self.on_epoch)
            self.save(m.save_matrix, self.path("z1"), z1, cfg.matrix_format)
            self.save(m.save_matrix, self.path("z2"), z2, cfg.matrix_format)

        matrices = []
        for tag in cfg.features:
            if tag == "structural":
                with self.t.span("measures.sim_structural"):
                    mat = kg.sim_matrix(z1[test_src], z2[test_tgt], cfg.measure, tag)
                self.count_cells(mat, z1.shape[1])
            elif tag == "semantic":
                with self.t.span("names.load_word_vectors"):
                    table = kg.load_word_vectors(cfg.vectors)
                with self.t.span("names.embedding"):
                    n1 = kg.name_embedding_matrix(
                        [kg1.entity_names[i] for i in test_src], table)
                    n2 = kg.name_embedding_matrix(
                        [kg2.entity_names[i] for i in test_tgt], table)
                with self.t.span("measures.sim_semantic"):
                    mat = kg.sim_matrix(n1.rows, n2.rows, cfg.measure, tag)
                self.count_cells(mat, table.dim)
            else:
                with self.t.span("names.string"):
                    mat = kg.string_sim_matrix(
                        [kg1.entity_names[i] for i in test_src],
                        [kg2.entity_names[i] for i in test_tgt],
                        threads=cfg.threads)
                self.counts["string_pairs"] += mat.scores.size
            self.save(m.save_matrix, self.path(f"sim_{tag}"), mat.scores,
                      cfg.matrix_format)
            matrices.append(mat)

        fused, cells = self.fuse(matrices)
        result = self.align(kg1, kg2, test_src, test_tgt, fused)
        src_ids = [kg1.entity_ids[i] for i in test_src]
        tgt_ids = [kg2.entity_ids[i] for i in test_tgt]
        self.save(m.save_result, self.out / "result.tsv", result, src_ids, tgt_ids)
        return self.evaluate(split, fused, result, cells)

    def on_epoch(self, epoch: int, loss: float) -> None:
        self.epoch_times.append(perf_counter())
        self.losses.append(float(loss))

    def count_cells(self, mat, dim: int) -> None:
        self.counts["cells"] += mat.scores.size
        rows, cols = min(BLOCK, mat.n_src), min(BLOCK, mat.n_tgt)
        per_cell = dim * BC_TEMPORARIES if self.cfg.measure == "bc" else 1
        mb = rows * cols * per_cell * 8 / 1e6
        self.counts["intermediate_mb"] = max(self.counts["intermediate_mb"], mb)

    def fuse(self, matrices):
        kg, cfg, m = self.kg, self.cfg, self.kg.matio
        corr_path = self.out / "fusion.json"
        with self.t.span("fusion.adaptive_fuse"):
            if len(matrices) == 1:
                report = None
                fused = kg.SimilarityMatrix(matrices[0].scores, "fused")
                found = {matrices[0].feature_tag:
                         kg.confident_correspondences(matrices[0])}
                cells = sorted({(c.source, c.target)
                                for corrs in found.values() for c in corrs})
            else:
                fused, report = kg.adaptive_fuse(matrices, cfg.fusion_config())
                found = report.correspondences
                cells = sorted(report.correspondence_weights)
        for tag, corrs in found.items():
            self.confident[tag] = len(corrs)
        self.save(m.save_matrix, self.path("sim_fused"), fused.scores, cfg.matrix_format)
        if report is None:
            tag = matrices[0].feature_tag
            self.weights[tag] = 1.0
            self.save(m.save_json, corr_path, {"cells": [list(c) for c in cells],
                                               "weights": {tag: 1.0}})
            self.save(m.save_text, self.out / "fusion_report.txt",
                      f"feature_weight\t{tag}\t1.0\n")
        else:
            self.weights.update(report.feature_weights.weights)
            self.fallback = report.feature_weights.fallback
            self.save(m.save_text, self.out / "fusion_report.txt", report.to_text())
            self.save(m.save_json, corr_path,
                      {"cells": [list(c) for c in cells],
                       "weights": report.feature_weights.weights,
                       "fallback": report.feature_weights.fallback})
        return fused, cells

    def align(self, kg1, kg2, test_src, test_tgt, fused):
        kg, cfg = self.kg, self.cfg
        if cfg.strategy == "hungarian":
            with self.t.span("collective.hungarian"):
                return kg.hungarian(fused)
        if cfg.strategy != "rl":
            raise ValueError(f"the replay covers the rl and hungarian decoders, "
                             f"not {cfg.strategy!r}")
        with self.t.span("kg.neighbor_sets"):
            sets1 = kg.neighbor_sets(kg1)
            sets2 = kg.neighbor_sets(kg2)
        src_pos = {e: i for i, e in enumerate(test_src)}
        tgt_pos = {e: i for i, e in enumerate(test_tgt)}
        src_nb = [frozenset(src_pos[w] for w in sets1[e] if w in src_pos)
                  for e in test_src]
        tgt_nb = [frozenset(tgt_pos[w] for w in sets2[e] if w in tgt_pos)
                  for e in test_tgt]
        with self.t.span("collective.build_environment"):
            env = kg.build_environment(fused, src_nb, tgt_nb, cfg.rl_config())
        self.counts["confirmed"] = len(env.confirmed)
        self.counts["residual"] = len(env.order)
        if env.order and env.state_dim:
            self.counts["rl_episodes"] = cfg.rl_epochs + 1
        with self.t.span("collective.a2c"):
            return kg.a2c_align(env, cfg.rl_config())

    # -- resumed pass ------------------------------------------------------------
    def resume(self):
        kg, m = self.kg, self.kg.matio
        cfg = dataclasses.replace(self.cfg, resume=True)
        kg1, kg2, split = self.start(cfg)
        if "structural" in cfg.features:
            self.load(m.load_matrix, self.path("z1"))
            self.load(m.load_matrix, self.path("z2"))
        for tag in cfg.features:
            kg.SimilarityMatrix(self.load(m.load_matrix, self.path(f"sim_{tag}")), tag)
        fused = kg.SimilarityMatrix(self.load(m.load_matrix, self.path("sim_fused")),
                                    "fused")
        cells = [tuple(c) for c in self.load(m.load_json, self.out / "fusion.json")["cells"]]
        rows = self.load(m.load_result, self.out / "result.tsv")
        src_pos = {kg1.entity_ids[s]: i for i, (s, _) in enumerate(split.test)}
        tgt_pos = {kg2.entity_ids[t]: i for i, (_, t) in enumerate(split.test)}
        result = kg.AlignmentResult(
            pairs={src_pos[s]: tgt_pos[t] for s, t, _ in rows},
            provenance={src_pos[s]: p for s, _, p in rows})
        return self.evaluate(split, fused, result, cells)

    # -- per-layer metrics -----------------------------------------------------
    def layer_metrics(self, report, cold_span: dict) -> dict:
        t, c, n_test = self.t, self.counts, self.n_test
        gaps = [b - a for a, b in zip(self.epoch_times, self.epoch_times[1:])]
        string_s = t.seconds("names.string")
        a2c_s = t.seconds("collective.a2c")
        episodes = c["rl_episodes"]
        rl_steps = episodes * c["residual"]
        return {
            "kg.load_s": t.seconds("kg.load"),
            "kg.adjacency_s": t.seconds("kg.adjacency"),
            "kg.neighbor_sets_s": t.seconds("kg.neighbor_sets"),
            "gcn.train_s": t.seconds("gcn.train"),
            "gcn.epoch_ms": 1e3 * statistics.median(gaps) if gaps else 0.0,
            "gcn.loss_first": self.losses[0] if self.losses else 0.0,
            "gcn.loss_last": self.losses[-1] if self.losses else 0.0,
            "names.string_s": string_s,
            "names.string_pairs": c["string_pairs"],
            "names.string_us_per_pair": 1e6 * string_s / max(1, c["string_pairs"]),
            "names.load_word_vectors_s": t.seconds("names.load_word_vectors"),
            "names.embedding_s": t.seconds("names.embedding"),
            "measures.sim_structural_s": t.seconds("measures.sim_structural"),
            "measures.sim_semantic_s": t.seconds("measures.sim_semantic"),
            "measures.cells": c["cells"],
            "measures.intermediate_mb": c["intermediate_mb"],
            "fusion.adaptive_fuse_s": t.seconds("fusion.adaptive_fuse"),
            **{f"fusion.confident.{f}": self.confident[f] for f in FEATURES},
            **{f"fusion.weight.{f}": self.weights[f] for f in FEATURES},
            "fusion.fallback": int(self.fallback),
            "collective.build_environment_s": t.seconds("collective.build_environment"),
            "collective.confirmed": c["confirmed"],
            "collective.residual": c["residual"],
            "collective.test_sources": n_test,
            "collective.confirmed_frac": c["confirmed"] / n_test,
            "collective.a2c_s": a2c_s,
            "collective.rl_episode_s": a2c_s / max(1, episodes),
            "collective.rl_step_us": 1e6 * a2c_s / max(1, rl_steps),
            "collective.hungarian_s": t.seconds("collective.hungarian"),
            "collective.mul_te": report.multe,
            "metrics.eval_s": t.seconds("metrics.eval"),
            "metrics.hits1": report.hits[1],
            "metrics.mrr": report.mrr,
            "metrics.precision": report.precision,
            "matio.save_s": t.seconds("matio.save"),
            "matio.load_s": t.seconds("matio.load"),
            "matio.bytes_written": c["bytes_written"],
            "matio.bytes_read": c["bytes_read"],
            "pipeline.self_s": t.self_seconds(cold_span),
        }


def pass_record(kind: str, span: dict) -> dict:
    return {"kind": kind, "seconds": span["end"] - span["start"], "error": None,
            "stage": None}


def traced_run(kg, cfg, reference_report: str) -> dict:
    """Replay cold and resumed passes with spans; fail on any report mismatch."""
    replay = Replay(kg, cfg)
    kg1 = kg.load_kg(cfg.triples1, cfg.names1)
    kg2 = kg.load_kg(cfg.triples2, cfg.names2)
    # train() builds its adjacency internally; this standalone call is the
    # kg.adjacency layer's own figure and sits outside both passes.
    with replay.t.span("kg.adjacency"):
        kg.adjacency(kg1)
        kg.adjacency(kg2)
    with replay.t.span("pipeline.cold") as cold_span:
        report = replay.cold()
    cold_text = (replay.out / "report.json").read_text()
    with replay.t.span("pipeline.resume") as resume_span:
        replay.resume()
    resume_text = (replay.out / "report.json").read_text()
    failures = []
    if cold_text != reference_report:
        failures.append("traced report.json differs from the untraced run's")
    if resume_text != cold_text:
        failures.append("traced resumed report.json differs from the cold one")
    return {
        "per_layer": replay.layer_metrics(report, cold_span),
        "passes": [pass_record("cold", cold_span), pass_record("resume", resume_span)],
        "spans": replay.t.spans,
        "check_failures": failures,
    }
