"""Synthetic benchmark generation, pipeline caching, and the CLI surface."""

import dataclasses
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kgalign import cli, kg, matio, pipeline
from kgalign.cli import MODE_FLAGS, build_parser, main
from kgalign.collective import AlignmentResult, RlConfig, greedy_independent
from kgalign.errors import IntegrityError, ParseError, PipelineError
from kgalign.fusion import FusionConfig
from kgalign.gcn import TrainConfig
from kgalign.kg import load_kg, save_alignment
from kgalign.matio import load_matrix, load_result, save_matrix
from kgalign.measures import SimilarityMatrix
from kgalign.metrics import prf
from kgalign.names import string_sim_matrix
from kgalign.pipeline import (
    FEATURES,
    STRATEGIES,
    PipelineConfig,
    decode,
    run_pipeline,
)
from kgalign.synth import gen_synthetic, write_synthetic

from test_kg import kg_from_edges

# The stage-config field that checks a PipelineConfig field of another name.
# Settings errors now name the PipelineConfig field; the ids of the cases that
# were written when they named the stage-config field keep that name.
STAGE_FIELDS = {"seed": "rng_seed", "rl_epochs": "epochs", "rl_actor_lr": "actor_lr",
                "rl_critic_lr": "critic_lr", "prelim_rounds": "preliminary_rounds"}


def non_numbers(cls):
    """(field, value) for each numeric field of ``cls`` and each value it
    refuses: 3.0 for an integer field, and "3", True, NaN and inf for all."""
    return [(f.name, value) for f in dataclasses.fields(cls)
            if type(f.default) in (int, float)
            for value in [3.0] * (type(f.default) is int) + ["3", True, math.nan, math.inf]]


class TestGenSynthetic:
    def test_gold_size_and_ids(self):
        kg1, kg2, gold = gen_synthetic(20, 0.2, 0.1, rng_seed=0)
        assert len(gold) == 20
        assert kg1.n_entities == kg2.n_entities == 20
        assert gold[3] == ("s3", "t3")

    def test_deterministic_under_seed(self):
        a = gen_synthetic(30, 0.1, 0.2, rng_seed=5, edge_noise=0.1)
        b = gen_synthetic(30, 0.1, 0.2, rng_seed=5, edge_noise=0.1)
        assert a[0].entity_names == b[0].entity_names
        assert a[1].entity_names == b[1].entity_names
        assert np.array_equal(a[1].triples, b[1].triples)

    def test_zero_noise_string_greedy_is_perfect(self):
        kg1, kg2, gold = gen_synthetic(25, 0.15, 0.0, rng_seed=1, edge_noise=0.0)
        m = string_sim_matrix(kg1.entity_names, kg2.entity_names)
        result = greedy_independent(m)
        p, r, f1 = prf(result, {i: i for i in range(25)})
        assert p == 1.0

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            gen_synthetic(3, 0.5, 0.0, rng_seed=0)


def small_config(data, out, **overrides):
    base = dict(
        triples1=str(data["triples1"]), names1=str(data["names1"]),
        triples2=str(data["triples2"]), names2=str(data["names2"]),
        gold=str(data["gold"]), vectors=str(data["vectors"]),
        out_dir=str(out), seed=3, dim=16, epochs=15, learning_rate=0.05,
        measure="cos", rl_epochs=30, strategy="rl", threads=1,
    )
    base.update(overrides)
    return PipelineConfig(**base)


def dir_bytes(path):
    return {f.name: f.read_bytes() for f in path.iterdir()}


def spy(monkeypatch, *names):
    """Record (name, args) of each call to the named pipeline functions."""
    calls = []
    for name in names:
        def recorded(*args, _name=name, _fn=getattr(pipeline, name), **kwargs):
            calls.append((_name, args))
            return _fn(*args, **kwargs)
        monkeypatch.setattr(pipeline, name, recorded)
    return calls


STAGE_CALLS = ("train", "feature_matrix", "adaptive_fuse", "decode", "evaluate")


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    return write_synthetic(out, n=60, edge_prob=0.08, name_noise=0.2,
                           rng_seed=3, edge_noise=0.1)


class TestPipeline:
    def test_end_to_end_report(self, synth_dir, tmp_path):
        artifacts = run_pipeline(small_config(synth_dir, tmp_path / "run"))
        assert 0.0 <= artifacts.report.precision <= 1.0
        assert (tmp_path / "run" / "report.txt").exists()
        assert (tmp_path / "run" / "result.tsv").exists()
        assert (tmp_path / "run" / "fusion_report.txt").exists()
        rows = load_result(tmp_path / "run" / "result.tsv")
        assert len(rows) == len(artifacts.result.pairs)
        assert all(prov in {"preliminary", "rl"} for _, _, prov in rows)

    def test_same_seed_byte_identical_artifacts(self, synth_dir, tmp_path):
        run_pipeline(small_config(synth_dir, tmp_path / "a"))
        run_pipeline(small_config(synth_dir, tmp_path / "b"))
        for name in ("z1.npy", "sim_structural.npy", "sim_fused.npy",
                     "result.tsv", "report.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_resume_reuses_cached_matrices(self, synth_dir, tmp_path, monkeypatch):
        out = tmp_path / "run"
        cold = run_pipeline(small_config(synth_dir, out))
        fused_before = (out / "sim_fused.npy").read_bytes()
        # Corrupt a cached feature matrix; a resumed run must consume it
        # as-is, so the fused output reflects the tampering.
        tampered = load_matrix(out / "sim_string.npy")
        tampered[0, :] = 0.5
        save_matrix(out / "sim_string.npy", tampered)
        (out / "sim_fused.npy").unlink()
        (out / "fusion.json").unlink()
        calls = spy(monkeypatch, *STAGE_CALLS)
        resumed = run_pipeline(small_config(synth_dir, out, resume=True))
        # A missing fuse artifact reruns fuse and every stage after it.
        assert [name for name, _ in calls] == ["adaptive_fuse", "decode", "evaluate"]
        fused_after = (out / "sim_fused.npy").read_bytes()
        assert fused_after != fused_before
        # Restore: a resumed run on intact artifacts reproduces the cold bytes.
        run_pipeline(small_config(synth_dir, out))
        resumed_clean = run_pipeline(small_config(synth_dir, out, resume=True))
        assert (out / "sim_fused.npy").read_bytes() == fused_before
        assert resumed_clean.report.precision == cold.report.precision

    @pytest.mark.parametrize("strategy", ["rl", "hungarian"])
    def test_split_test_ids_name_the_result_rows(self, synth_dir, tmp_path, strategy):
        # split.json's test_ids are the test pairs' external ids in test order:
        # result.tsv holds one row per test source in that order, each aligned
        # to a test target.
        out = tmp_path / "run"
        run_pipeline(small_config(synth_dir, out, strategy=strategy))
        split = json.loads((out / "split.json").read_text(encoding="utf-8"))
        kg1 = load_kg(synth_dir["triples1"], synth_dir["names1"])
        kg2 = load_kg(synth_dir["triples2"], synth_dir["names2"])
        assert split["test_ids"] == [[kg1.entity_ids[s], kg2.entity_ids[t]]
                                     for s, t in split["test"]]
        rows = load_result(out / "result.tsv")
        assert [s for s, _, _ in rows] == [s for s, _ in split["test_ids"]]
        assert {t for _, t, _ in rows} <= {t for _, t in split["test_ids"]}

    def test_greedy_strategy(self, synth_dir, tmp_path):
        artifacts = run_pipeline(
            small_config(synth_dir, tmp_path / "g", strategy="greedy")
        )
        rows = load_result(tmp_path / "g" / "result.tsv")
        assert all(prov == "greedy" for _, _, prov in rows)

    def test_stage_error_names_stage(self, synth_dir, tmp_path):
        from kgalign.errors import PipelineError

        cfg = small_config(synth_dir, tmp_path / "bad", epochs=1)
        object.__setattr__(cfg, "gold", str(synth_dir["names1"]))  # wrong columns
        with pytest.raises(PipelineError, match="load"):
            run_pipeline(cfg)

    def test_failing_feature_names_its_own_stage(self, synth_dir, tmp_path):
        vectors = tmp_path / "empty.vec"
        vectors.write_text("", encoding="utf-8")
        cfg = small_config(synth_dir, tmp_path / "run", vectors=str(vectors))
        with pytest.raises(PipelineError,
                           match="stage 'sim_semantic' failed: .*empty vector file"):
            run_pipeline(cfg)

    def test_missing_inputs_are_listed_before_anything_is_written(self, synth_dir,
                                                                  tmp_path):
        missing = [str(tmp_path / "no_triples2.tsv"), str(tmp_path / "no_vectors.vec")]
        cfg = small_config(synth_dir, tmp_path / "run", triples2=missing[0],
                           vectors=missing[1])
        with pytest.raises(FileNotFoundError) as err:
            run_pipeline(cfg)
        assert str(err.value) == f"missing input files: {missing}"
        assert not (tmp_path / "run").exists()

    def test_semantic_requires_vectors(self, synth_dir, tmp_path):
        with pytest.raises(ValueError, match="semantic"):
            small_config(synth_dir, tmp_path / "x", vectors=None)

    def test_single_feature_pipeline(self, synth_dir, tmp_path):
        artifacts = run_pipeline(
            small_config(synth_dir, tmp_path / "s1", features=("string",),
                         vectors=None, strategy="stable")
        )
        assert 0.0 <= artifacts.report.precision <= 1.0
        assert artifacts.report.mulse == 0 and artifacts.report.multe == 0

    @pytest.mark.parametrize("overrides,message", [
        ({"mode": "bogus"}, "mode must be one of"),
        ({"tau": 0}, "tau must be >= 1"),
        ({"matrix_format": "csv"}, "matrix_format must be one of"),
        ({"features": ("string", "string")}, "each feature may appear once"),
        ({"train_frac": 0.9, "val_frac": 0.2}, "fractions must satisfy"),
        pytest.param({"prelim_rounds": -1}, "^prelim_rounds must be >= 0, got -1",
                     id="overrides5-preliminary_rounds must be >= 0"),
        ({"dim": 0}, "dim must be >= 1"),
        ({"margin": 0.0}, "margin must be > 0"),
        ({"negatives": 0}, "negatives must be >= 1"),
        ({"learning_rate": 0.0}, "learning_rate must be > 0"),
        pytest.param({"rl_actor_lr": 0.0}, "^rl_actor_lr must be > 0, got 0.0",
                     id="overrides10-learning rates must be > 0"),
        pytest.param({"rl_critic_lr": -1.0}, "^rl_critic_lr must be > 0, got -1.0",
                     id="overrides11-learning rates must be > 0"),
        pytest.param({"rl_epochs": -1}, "^rl_epochs must be >= 0, got -1",
                     id="overrides12-epochs must be >= 0"),
        ({"theta2": 0.0}, "theta2 must be > 0"),
        ({"strategy": "bogus"}, "strategy must be one of"),
        ({"features": ("string", "bogus")}, r"unknown features: \['bogus'\]"),
        ({"features": ()}, "need at least one feature"),
        # An unseeded run, and a theta1 that used to fail stage fuse only
        # after training: both fail before any input is read.
        pytest.param({"seed": None}, "^seed must be a non-negative integer, got None",
                     id="overrides17-rng_seed must be a non-negative integer, got None"),
        pytest.param({"seed": 2.0}, "^seed must be a non-negative integer, got 2.0",
                     id="overrides18-rng_seed must be a non-negative integer, got 2.0"),
        pytest.param({"seed": True}, "^seed must be a non-negative integer, got True",
                     id="overrides19-rng_seed must be a non-negative integer, got True"),
        # numpy refuses it: a run used to fail at stage load, after writing.
        pytest.param({"seed": -1}, "^seed must be >= 0, got -1",
                     id="overrides20-rng_seed must be >= 0, got -1"),
        ({"theta1": None}, "theta1 must be a number, got None"),
        ({"theta2": "0.5"}, "theta2 must be a number, got '0.5'"),
        # A float for an integer setting used to fail mid-run, at the stage
        # that reads it; NaN trained with loss 0.
        *[pytest.param({name: value}, f"^{name} must be ",
                       id=f"overrides{i}-^{STAGE_FIELDS.get(name, name)} must be ")
          for i, (name, value) in enumerate(non_numbers(PipelineConfig), start=23)],
        # A string of tags used to fail as unknown letters, and "false"
        # resumed the run.
        ({"features": "string"}, "^features must be a list or tuple of tags, got 'string'"),
        ({"features": {"string"}}, "^features must be a list or tuple of tags"),
        ({"resume": "false"}, "^resume must be true or false, got 'false'"),
        ({"resume": 1}, "^resume must be true or false, got 1"),
    ])
    def test_bad_settings_raise_at_construction(self, synth_dir, tmp_path,
                                                overrides, message):
        with pytest.raises(ValueError, match=message):
            small_config(synth_dir, tmp_path / "x", **overrides)

    def test_save_json_writes_json_dump_bytes(self, synth_dir, tmp_path):
        split = {"train": [[3, 1], [0, 2]], "val": [], "test": [[1, 4], [2, 0]]}
        config = {**dataclasses.asdict(small_config(synth_dir, tmp_path / "é")),
                  "theta1": 0.1 + 0.2, "vectors": None}
        for payload in (split, config):
            matio.save_json(tmp_path / "a.json", payload)
            with open(tmp_path / "b.json", "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
            assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_save_json_failure_keeps_existing_file(self, tmp_path):
        path = tmp_path / "a.json"
        matio.save_json(path, {"kept": 1})
        before = path.read_bytes()
        with pytest.raises(TypeError):
            matio.save_json(path, {"path": tmp_path})
        assert path.read_bytes() == before

    def test_runs_on_write_synthetic_paths(self, synth_dir, tmp_path):
        # write_synthetic returns Path objects; they configure a run as
        # their str forms do.
        cfg = small_config(synth_dir, tmp_path / "str")
        path_cfg = PipelineConfig(**{**dataclasses.asdict(cfg), **synth_dir,
                                     "out_dir": tmp_path / "path"})
        assert path_cfg.triples1 == cfg.triples1
        assert path_cfg.out_dir == str(tmp_path / "path")
        run_pipeline(cfg)
        run_pipeline(path_cfg)
        a, b = dir_bytes(tmp_path / "str"), dir_bytes(tmp_path / "path")
        config = json.loads(b.pop("config.json"))
        assert config["out_dir"] == str(tmp_path / "path")
        assert config["vectors"] == str(synth_dir["vectors"])
        a.pop("config.json")
        assert a == b

    def test_tsv_matrix_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        matrix = rng.normal(size=(9, 5)) * 1e3
        save_matrix(tmp_path / "m.tsv", matrix, fmt="tsv")
        np.testing.assert_array_equal(load_matrix(tmp_path / "m.tsv"), matrix)

    @pytest.mark.parametrize("text,line_no,message", [
        ("0\t1.0\t2.0\n1\t1.0\tx\n", 2, "could not convert string to float: 'x'"),
        ("0\t1.0\n2\t1.0\n", 2, "expected row index 1, got 2"),
        ("0\t1.0\t2.0\n\n1\t1.0\n", 3, "expected 2 values, got 1"),
        # int() and float() take these; save_matrix writes none of them.
        ("0\t1.5 \n", 1, "could not convert string to float: '1.5 '"),
        ("0\t1.0\n1\x85\t2.0\n", 2, "invalid row index '1\\x85'"),
        ("0\t1.0\n1_0\t2.0\n", 2, "invalid row index '1_0'"),
        ("0\t1.0\n1\t2.0\u2028\n", 2, "could not convert string to float: '2.0\\u2028'"),
        ("0\t1_0.5\n", 1, "could not convert string to float: '1_0.5'"),
    ])
    def test_tsv_matrix_errors_name_their_line(self, tmp_path, text, line_no, message):
        path = tmp_path / "m.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match=re.escape(f"m.tsv:{line_no}: {message}")) as err:
            load_matrix(path)
        assert err.value.line_no == line_no

    def test_config_file_with_overrides(self, synth_dir, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        payload = dict(
            triples1=str(synth_dir["triples1"]), names1=str(synth_dir["names1"]),
            triples2=str(synth_dir["triples2"]), names2=str(synth_dir["names2"]),
            gold=str(synth_dir["gold"]), vectors=str(synth_dir["vectors"]),
            out_dir=str(tmp_path / "cfgrun"), seed=3, dim=16, epochs=15,
            measure="cos", strategy="rl",
        )
        cfg_path.write_text(json.dumps(payload), encoding="utf-8")
        cfg = PipelineConfig.from_file(cfg_path, strategy="greedy", seed=None)
        assert cfg.strategy == "greedy"  # flag wins
        assert cfg.seed == 3  # absent flag keeps file value

    def test_config_file_with_unset_stage_seeds(self, synth_dir, tmp_path):
        # Older config.json files hold embed_seed and rl_seed, unset; a set
        # one names a run this version cannot reproduce.
        cfg = small_config(synth_dir, tmp_path / "run")
        payload = {**dataclasses.asdict(cfg), "features": list(cfg.features)}
        cfg_path = tmp_path / "cfg.json"
        matio.save_json(cfg_path, {**payload, "embed_seed": None, "rl_seed": None})
        assert PipelineConfig.from_file(cfg_path) == cfg
        matio.save_json(cfg_path, {**payload, "rl_seed": 5})
        with pytest.raises(TypeError, match="rl_seed"):
            PipelineConfig.from_file(cfg_path)

    @pytest.mark.parametrize("cls,settings,message", [
        (TrainConfig, {"rng_seed": None}, "must be a non-negative integer, got None"),
        (RlConfig, {"rng_seed": None}, "must be a non-negative integer, got None"),
        (RlConfig, {"rng_seed": "3"}, "must be a non-negative integer, got '3'"),
        (RlConfig, {"rng_seed": -2}, "must be >= 0, got -2"),
        (FusionConfig, {"theta1": None}, "theta1 must be a number, got None"),
        (FusionConfig, {"theta2": False}, "theta2 must be a number, got False"),
        *[(cls, {name: value}, f"^{name} must be ")
          for cls in (TrainConfig, RlConfig, FusionConfig)
          for name, value in non_numbers(cls)],
    ])
    def test_stage_settings_reject_non_numbers(self, cls, settings, message):
        with pytest.raises(ValueError, match=message):
            cls(**settings)
        assert cls(**dict.fromkeys(settings, np.int64(1))) == cls(**dict.fromkeys(settings, 1))

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(PipelineConfig)
                                      if f.default is not dataclasses.MISSING])
    def test_null_setting_counts_as_unset(self, synth_dir, tmp_path, name):
        # Without vectors, no semantic feature.
        cfg = small_config(synth_dir, tmp_path / "run", **(
            {"vectors": None, "features": ("structural", "string")}
            if name == "vectors" else {}))
        payload = {**dataclasses.asdict(cfg), "features": list(cfg.features)}
        del payload[name]
        matio.save_json(tmp_path / "absent.json", payload)
        matio.save_json(tmp_path / "null.json", {**payload, name: None})
        absent = PipelineConfig.from_file(tmp_path / "absent.json")
        null = PipelineConfig.from_file(tmp_path / "null.json")
        assert null == absent
        assert getattr(null, name) == getattr(PipelineConfig, name)
        assert pipeline._plan(null) == pipeline._plan(absent)

    def test_null_seed_runs_seed_zero(self, synth_dir, tmp_path):
        # "seed": null used to reach numpy as None: each run trained unseeded.
        cfg = small_config(synth_dir, tmp_path / "zero", seed=0)
        run_pipeline(cfg)
        want = dir_bytes(tmp_path / "zero")
        want.pop("config.json")
        payload = {**dataclasses.asdict(cfg), "features": list(cfg.features), "seed": None}
        for run in ("a", "b"):
            matio.save_json(tmp_path / "cfg.json", {**payload, "out_dir": str(tmp_path / run)})
            run_pipeline(PipelineConfig.from_file(tmp_path / "cfg.json"))
            got = dir_bytes(tmp_path / run)
            assert json.loads(got.pop("config.json"))["seed"] == 0
            assert got == want

    def test_stage_settings_default_to_their_configs(self):
        cfg = PipelineConfig(triples1="t1", names1="n1", triples2="t2", names2="n2",
                             gold="g", vectors="v")
        assert cfg.train_config() == TrainConfig(rng_seed=cfg.seed)
        assert cfg.fusion_config() == FusionConfig()
        assert cfg.rl_config() == RlConfig(rng_seed=cfg.seed)


class TestDefaultConfig:
    """Seeded pairs run with only the input paths set, so every other
    setting is its default: bc, rl, all three features, dim 300, 300 GCN
    epochs.
    Before fusion scaled each feature to [0, 1] and the A2C state was
    bounded, the n=400 run failed at stage align ("epoch 0: policy produced
    non-finite action probabilities"), and so did structural alone."""

    @staticmethod
    def paths(tmp_path_factory, n, name_noise):
        data = tmp_path_factory.mktemp(f"default{n}")
        return write_synthetic(data, n=n, edge_prob=8 / n, name_noise=name_noise,
                               rng_seed=7, edge_noise=0.12)

    def test_precision_floor_and_structural_alone(self, tmp_path_factory, tmp_path):
        paths = self.paths(tmp_path_factory, 400, 0.25)
        out = tmp_path / "run"
        assert run_pipeline(PipelineConfig(**paths, out_dir=out)).report.precision >= 0.95
        # Structural alone is not fused, so only the A2C's own scaling keeps
        # its bc scores (about [-235, -46]) from diverging. It resumes the
        # embeddings above.
        alone = run_pipeline(PipelineConfig(**paths, out_dir=out, features=("structural",),
                                            resume=True))
        assert alone.report.precision >= 0.85

    def test_precision_floor_with_noisy_names(self, tmp_path_factory, tmp_path):
        paths = self.paths(tmp_path_factory, 1000, 0.85)
        cfg = PipelineConfig(**paths, out_dir=tmp_path / "run", dim=64, epochs=100)
        assert run_pipeline(cfg).report.precision >= 0.9

    def test_zero_spread_feature_fails_naming_it(self, synth_dir, tmp_path, monkeypatch):
        def constant(src, tgt, threads):
            return SimilarityMatrix(np.full((len(src), len(tgt)), 0.5), "string")

        monkeypatch.setattr(pipeline, "string_sim_matrix", constant)
        with pytest.raises(PipelineError, match="^stage 'fuse' failed: feature 'string' "
                                                "has zero spread: every score is 0.5$"):
            run_pipeline(small_config(synth_dir, tmp_path / "run",
                                      features=("semantic", "string")))


class TestResume:
    def test_measure_change_reruns_what_reads_it(self, synth_dir, tmp_path, monkeypatch):
        out = tmp_path / "run"
        run_pipeline(small_config(synth_dir, out, strategy="hungarian"))
        cos = dir_bytes(out)
        calls = spy(monkeypatch, *STAGE_CALLS)
        resumed = run_pipeline(small_config(synth_dir, out, strategy="hungarian",
                                            measure="bc", resume=True))
        # The string feature reads no measure and training reads none.
        assert [name for name, _ in calls] == ["feature_matrix"] * 2 + [
            "adaptive_fuse", "decode", "evaluate"]
        assert [args[0] for name, args in calls if name == "feature_matrix"] == [
            "structural", "semantic"]
        for name in ("sim_structural.npy", "sim_semantic.npy", "sim_fused.npy",
                     "report.json"):
            assert (out / name).read_bytes() != cos[name]
        monkeypatch.undo()
        cold_dir = tmp_path / "cold"
        cold = run_pipeline(small_config(synth_dir, cold_dir, strategy="hungarian",
                                         measure="bc"))
        got, want = dir_bytes(out), dir_bytes(cold_dir)
        assert json.loads(got.pop("config.json")) == {
            **json.loads(want.pop("config.json")), "out_dir": str(out)}
        assert got == want
        assert resumed == dataclasses.replace(cold, out_dir=out)

    def test_mode_and_input_changes_rerun_what_reads_them(self, synth_dir, tmp_path,
                                                          monkeypatch):
        out = tmp_path / "run"
        run_pipeline(small_config(synth_dir, out))

        def manifest():
            return json.loads((out / pipeline.MANIFEST).read_text(encoding="utf-8"))

        def resume(**overrides):
            calls = spy(monkeypatch, *STAGE_CALLS)
            run_pipeline(small_config(synth_dir, out, resume=True, **overrides))
            monkeypatch.undo()
            return [name for name, _ in calls]

        # The decoder's other two state modes: each reruns align and eval and
        # no stage before them.
        cold = previous = manifest()
        for mode in ("exclusiveness_only", "coherence_only"):
            assert resume(mode=mode) == ["decode", "evaluate"]
            now = manifest()
            for stage in ("load", "embed", "sim_structural", "sim_semantic",
                          "sim_string", "fuse"):
                assert now[stage] == cold[stage], stage
            assert now["align"] not in (cold["align"], previous["align"])
            previous = now
        # One changed name in a copy of names2.tsv reruns load and every stage
        # after it: no stage answers from the stale directory.
        names2 = tmp_path / "names2.tsv"
        lines = synth_dir["names2"].read_text(encoding="utf-8").split("\n")
        lines[0] += "x"
        names2.write_text("\n".join(lines), encoding="utf-8")
        assert resume(mode="coherence_only", names2=str(names2)) == [
            "train"] + ["feature_matrix"] * 3 + ["adaptive_fuse", "decode", "evaluate"]
        now = manifest()
        assert sorted(now) == sorted(previous)
        for stage in previous:
            assert now[stage] != previous[stage], stage

    def test_current_resume_reads_only_final_artifacts(self, synth_dir, tmp_path,
                                                       monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a current resume must not compute or load this")

        hashed = []
        file_key = pipeline._file_key
        # Every feature, and the semantic feature alone through adaptive fusion
        # and the rl decoder (the rl-250 benchmark's shape), each resumed twice.
        for features in (FEATURES, ("semantic",)):
            out = tmp_path / "_".join(features)
            cold = run_pipeline(small_config(synth_dir, out, features=features))
            before = {f.name: (f.read_bytes(), f.stat().st_mtime_ns)
                      for f in out.iterdir()}
            for name in ("load_kg", "train", "sim_matrix", "string_sim_matrix",
                         "decode", "load_word_vectors"):
                monkeypatch.setattr(pipeline, name, refuse)
            monkeypatch.setattr(matio, "load_matrix", refuse)
            # No TSV outside the run directory is parsed (triples, names, gold),
            # and the input files are opened only to be hashed.
            for module in (kg, matio):
                def read_rows(path, *args, _read=module.read_rows, _out=out):
                    assert Path(path).parent == _out, f"a current resume parsed {path}"
                    return _read(path, *args)
                monkeypatch.setattr(module, "read_rows", read_rows)
            monkeypatch.setattr(pipeline, "_file_key",
                                lambda path: hashed.append(path) or file_key(path))
            for _ in range(2):
                hashed.clear()
                resumed = run_pipeline(small_config(synth_dir, out, features=features,
                                                    resume=True))
                assert resumed == cold
                assert sorted(hashed) == sorted(map(str, synth_dir.values()))
                # Nothing is rewritten, config.json and manifest.json included.
                assert {f.name: (f.read_bytes(), f.stat().st_mtime_ns)
                        for f in out.iterdir()} == before
            monkeypatch.undo()

    def test_only_an_embed_rerun_builds_the_train_split(self, synth_dir, tmp_path,
                                                        monkeypatch):
        # The current stages read only the test pairs and their ids, so a
        # resume builds the whole split (and runs its repeat check) only for
        # a rerunning embed stage, which trains on split.train.
        out = tmp_path / "run"
        features = ("structural",)
        run_pipeline(small_config(synth_dir, out, features=features, strategy="hungarian"))
        split = json.loads((out / "split.json").read_text(encoding="utf-8"))
        built = []

        def dataset(*parts, _make=kg.AlignmentDataset):
            built.append(parts)
            return _make(*parts)

        monkeypatch.setattr(pipeline, "AlignmentDataset", dataset)
        calls = spy(monkeypatch, *STAGE_CALLS)
        run_pipeline(small_config(synth_dir, out, features=features, strategy="hungarian",
                                  resume=True))
        assert calls == [] and built == []
        run_pipeline(small_config(synth_dir, out, features=features, strategy="hungarian",
                                  epochs=16, resume=True))
        assert [name for name, _ in calls] == ["train", "feature_matrix", "adaptive_fuse",
                                               "decode", "evaluate"]
        assert calls[0][1][2] == [tuple(pair) for pair in split["train"]]
        assert [list(map(list, part)) for part in built[0]] == [
            split[part] for part in pipeline.SPLIT_PARTS]

    def test_current_resume_rejects_a_repeated_source(self, synth_dir, tmp_path):
        # A repeated source row in result.tsv used to overwrite the first.
        out = tmp_path / "run"
        run_pipeline(small_config(synth_dir, out))
        result = out / "result.tsv"
        first = result.read_text(encoding="utf-8").split("\n")[0]
        result.write_text(result.read_text(encoding="utf-8") + first + "\n",
                          encoding="utf-8")
        line_no = result.read_text(encoding="utf-8").count("\n")
        with pytest.raises(PipelineError, match=f"stage 'align' failed: .*result.tsv:"
                                                f"{line_no}: duplicate source id"):
            run_pipeline(small_config(synth_dir, out, resume=True))

    def test_failed_run_resumes_after_its_last_complete_stage(self, synth_dir, tmp_path,
                                                              monkeypatch):
        out = tmp_path / "run"

        def fail(*args, **kwargs):
            raise RuntimeError("no decoder")

        monkeypatch.setattr(pipeline, "decode", fail)
        with pytest.raises(PipelineError, match="stage 'align' failed: no decoder"):
            run_pipeline(small_config(synth_dir, out))
        assert sorted(json.loads((out / pipeline.MANIFEST).read_text())) == [
            "embed", "fuse", "load", "sim_semantic", "sim_string", "sim_structural"]
        monkeypatch.undo()
        calls = spy(monkeypatch, *STAGE_CALLS)
        run_pipeline(small_config(synth_dir, out, resume=True))
        assert [name for name, _ in calls] == ["decode", "evaluate"]
        monkeypatch.undo()
        run_pipeline(small_config(synth_dir, tmp_path / "cold"))
        got, want = dir_bytes(out), dir_bytes(tmp_path / "cold")
        del got["config.json"], want["config.json"]
        assert got == want

    def test_corrupt_split_read_by_a_rerun_names_stage_load(self, synth_dir, tmp_path):
        # embed reruns and reads the current load stage's split.json back;
        # the failure names load, the stage whose artifact is corrupt.
        out = tmp_path / "run"
        run_pipeline(small_config(synth_dir, out, features=("structural",)))
        (out / "split.json").write_text("{", encoding="utf-8")
        (out / "z1.npy").unlink()
        with pytest.raises(PipelineError, match="^stage 'load' failed: "):
            run_pipeline(small_config(synth_dir, out, features=("structural",),
                                      resume=True))

    def test_manifest_drops_stages_before_they_rerun(self, synth_dir, tmp_path,
                                                     monkeypatch):
        # Should a rerun die before its final manifest write, no entry may
        # vouch for the files it was rewriting.
        out = tmp_path / "run"
        run_pipeline(small_config(synth_dir, out, strategy="hungarian"))
        seen = []
        feature_matrix = pipeline.feature_matrix

        def record_manifest(*args, **kwargs):
            seen.append(set(json.loads((out / pipeline.MANIFEST).read_text())))
            return feature_matrix(*args, **kwargs)

        monkeypatch.setattr(pipeline, "feature_matrix", record_manifest)
        run_pipeline(small_config(synth_dir, out, strategy="hungarian", measure="bc",
                                  resume=True))
        assert seen == [{"load", "embed", "sim_string"}] * 2

    def test_keys_cover_the_other_formats_files(self, synth_dir, tmp_path):
        # The tsv run's manifest must not vouch for the npy files that the
        # cos run left behind.
        out = tmp_path / "run"
        run_pipeline(small_config(synth_dir, out, strategy="hungarian"))
        run_pipeline(small_config(synth_dir, out, strategy="hungarian", measure="bc",
                                  matrix_format="tsv"))
        resumed = run_pipeline(small_config(synth_dir, out, strategy="hungarian",
                                            measure="bc", resume=True))
        cold_dir = tmp_path / "cold"
        cold = run_pipeline(small_config(synth_dir, cold_dir, strategy="hungarian",
                                         measure="bc"))
        got, want = dir_bytes(out), dir_bytes(cold_dir)
        assert json.loads(got.pop("config.json")) == {
            **json.loads(want.pop("config.json")), "out_dir": str(out)}
        assert {name: got[name] for name in want} == want
        assert resumed == dataclasses.replace(cold, out_dir=out)

    def test_config_json_resumes_its_run(self, synth_dir, tmp_path, monkeypatch):
        # config.json holds every setting: read back, it names the same run.
        out = tmp_path / "run"
        cfg = small_config(synth_dir, out, matrix_format="tsv", margin=2.0, negatives=3)
        run_pipeline(cfg)
        before = dir_bytes(out)
        resumed = PipelineConfig.from_file(out / "config.json", resume=True)
        assert resumed == dataclasses.replace(cfg, resume=True)
        calls = spy(monkeypatch, *STAGE_CALLS)
        run_pipeline(resumed)
        assert calls == []
        assert dir_bytes(out) == before

    def test_truncated_manifest_and_config_rerun_every_stage(self, synth_dir, tmp_path,
                                                     monkeypatch):
        out = tmp_path / "run"
        cold = run_pipeline(small_config(synth_dir, out, strategy="hungarian"))
        want = dir_bytes(out)
        for name in (pipeline.MANIFEST, "config.json"):
            (out / name).write_bytes(want[name][:40])
        calls = spy(monkeypatch, *STAGE_CALLS)
        resumed = run_pipeline(small_config(synth_dir, out, strategy="hungarian",
                                            resume=True))
        assert [name for name, _ in calls] == ["train"] + ["feature_matrix"] * 3 + [
            "adaptive_fuse", "decode", "evaluate"]
        assert resumed == cold
        assert dir_bytes(out) == want

    def test_embeddings_of_the_trained_weight_encoder_are_not_resumed(
            self, synth_dir, tmp_path, monkeypatch):
        # Before the embed key named the encoder, it hashed the settings alone,
        # and z1/z2 came from the encoder with trained layer weights. Before
        # the load key named split.json's fields, split.json held no test ids.
        # Such a manifest must rerun every stage.
        out = tmp_path / "run"
        cfg = small_config(synth_dir, out)
        cold = run_pipeline(cfg)
        want = dir_bytes(out)
        key = pipeline._key
        monkeypatch.setattr(pipeline, "_key", lambda *parts: key(
            *(part for part in parts
              if part != pipeline.ENCODER and part != pipeline.SPLIT_FIELDS)))
        old = {name: stage.key for name, stage in pipeline._plan(cfg).items()}
        monkeypatch.undo()
        # The embed key the previous encoder's pipeline wrote for this directory.
        assert old["embed"] == (
            "213a20f8cb4ab65e6a007cc9073a92e4fb415fc481164835883c8fa9bc4c8c5a")
        for name in ("z1.npy", "z2.npy"):
            save_matrix(out / name, np.zeros_like(load_matrix(out / name)))
        split = json.loads(want["split.json"])
        del split["test_ids"]
        matio.save_json(out / "split.json", split)
        matio.save_json(out / pipeline.MANIFEST, old)
        calls = spy(monkeypatch, *STAGE_CALLS)
        resumed = run_pipeline(small_config(synth_dir, out, resume=True))
        assert [name for name, _ in calls] == ["train"] + ["feature_matrix"] * 3 + [
            "adaptive_fuse", "decode", "evaluate"]
        assert [args[0] for name, args in calls if name == "feature_matrix"] == [
            *FEATURES]
        assert resumed == cold
        assert dir_bytes(out) == want

    def test_embeddings_of_the_float64_encoder_are_not_resumed(
            self, synth_dir, tmp_path, monkeypatch):
        # The encoder trained in float64 before its name gave the dtype. Its
        # z1/z2 differ from float32 training's, so a manifest it wrote must
        # rerun embed and every stage that reads it, once: the structural
        # matrix, fuse, align and eval, not the name-based features.
        out = tmp_path / "run"
        cfg = small_config(synth_dir, out)
        cold = run_pipeline(cfg)
        want = dir_bytes(out)
        monkeypatch.setattr(pipeline, "ENCODER",
                            "weightless GCN: Z = A_hat relu(A_hat X), X trained")
        old = {name: stage.key for name, stage in pipeline._plan(cfg).items()}
        monkeypatch.undo()
        # The embed key the float64 encoder's pipeline wrote for this directory.
        assert old["embed"] == (
            "07aa918526e3193e55ddba0a8f3a3088c1c0d021b7b62824987e7c67c76c8145")
        for name in ("z1.npy", "z2.npy"):
            save_matrix(out / name, np.zeros_like(load_matrix(out / name)))
        matio.save_json(out / pipeline.MANIFEST, old)
        calls = spy(monkeypatch, *STAGE_CALLS)
        resumed = run_pipeline(small_config(synth_dir, out, resume=True))
        assert [name for name, _ in calls] == [
            "train", "feature_matrix", "adaptive_fuse", "decode", "evaluate"]
        assert calls[1][1][0] == "structural"
        assert resumed == cold
        assert dir_bytes(out) == want
        calls.clear()
        assert run_pipeline(small_config(synth_dir, out, resume=True)) == cold
        assert calls == []
        assert dir_bytes(out) == want


def kg_flags(data):
    return ["--triples1", str(data["triples1"]), "--names1", str(data["names1"]),
            "--triples2", str(data["triples2"]), "--names2", str(data["names2"])]


class TestStageLayer:
    def test_decode_projects_neighbours_onto_test_pairs(self, monkeypatch):
        # Rows and columns are test-pair positions; neighbours outside the
        # test pairs are dropped.
        kg1 = kg_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        kg2 = kg_from_edges(5, [(0, 3), (3, 2), (1, 0), (4, 4)])
        test_pairs = [(2, 0), (1, 3), (3, 1), (4, 4)]
        seen = []

        def build(scores, src_nb, tgt_nb, cfg):
            seen.append((list(src_nb), list(tgt_nb)))
            return build_environment(scores, src_nb, tgt_nb, cfg)

        build_environment = pipeline.build_environment
        monkeypatch.setattr(pipeline, "build_environment", build)
        scores = np.random.default_rng(0).random((4, 4))
        decode("rl", scores, kg1, kg2, test_pairs, RlConfig(epochs=2))
        assert seen == [([{1, 2}, {0}, {0, 3}, {2}], [{1, 2}, {0}, {0}, set()])]

    def test_decode_rejects_unknown_strategy(self):
        with pytest.raises(ValueError, match="strategy must be one of"):
            decode("bogus", np.eye(2), None, None, [(0, 0), (1, 1)], RlConfig())


class TestCli:
    def test_stages_write_the_pipeline_bytes(self, synth_dir, tmp_path):
        # embed, features, fuse and align on the pipeline's splits reproduce
        # its artifacts byte for byte, in either matrix format. With the
        # default learning rates, the rl run writes another result.tsv.
        runs = {}
        for strategy in ("rl", "hungarian"):
            cfg = small_config(synth_dir, tmp_path / strategy, strategy=strategy,
                               tau=3, prelim_rounds=0, rl_actor_lr=0.01,
                               rl_critic_lr=0.1)
            runs[strategy] = run_pipeline(cfg)
        run_pipeline(small_config(synth_dir, tmp_path / "tsv_run", strategy="hungarian",
                                  matrix_format="tsv"))
        kg1 = load_kg(synth_dir["triples1"], synth_dir["names1"])
        kg2 = load_kg(synth_dir["triples2"], synth_dir["names2"])
        split = json.loads((tmp_path / "rl" / "split.json").read_text(encoding="utf-8"))
        for part in ("train", "test"):
            save_alignment([(kg1.entity_ids[s], kg2.entity_ids[t])
                            for s, t in split[part]], tmp_path / f"{part}.tsv")
        stage = [*kg_flags(synth_dir), "--test", str(tmp_path / "test.tsv")]
        embed = ["embed", *kg_flags(synth_dir), "--train", str(tmp_path / "train.tsv"),
                 "--dim", str(cfg.dim), "--epochs", str(cfg.epochs),
                 "--lr", str(cfg.learning_rate), "--seed", str(cfg.seed)]
        for fmt, run in (("npy", tmp_path / "rl"), ("tsv", tmp_path / "tsv_run")):
            emb, feats, fused = (tmp_path / fmt / name for name in ("emb", "feats", "fused"))
            assert main([*embed, "--format", fmt, "--out", str(emb)]) == 0
            assert main(["features", *stage, "--z1", str(emb / f"z1.{fmt}"),
                         "--z2", str(emb / f"z2.{fmt}"),
                         "--vectors", str(synth_dir["vectors"]), "--measure", cfg.measure,
                         "--format", fmt, "--out", str(feats)]) == 0
            assert main(["fuse", "--inputs", *[f"{tag}={feats / f'sim_{tag}.{fmt}'}"
                                               for tag in FEATURES],
                         "--format", fmt, "--out", str(fused)]) == 0
            written = [path for out in (emb, feats, fused) for path in out.iterdir()]
            assert len(written) == 8
            for path in written:
                assert path.read_bytes() == (run / path.name).read_bytes(), path
        feats, fused = tmp_path / "npy" / "feats", tmp_path / "npy" / "fused"
        # One feature goes through adaptive fusion, with weight 1.0, in both.
        one = tmp_path / "semantic"
        run_pipeline(small_config(synth_dir, one, features=("semantic",),
                                  strategy="greedy"))
        fused_one = tmp_path / "fused_one"
        assert main(["fuse", "--inputs", f"semantic={feats / 'sim_semantic.npy'}",
                     "--out", str(fused_one)]) == 0
        for name in ("sim_fused.npy", "fusion.json", "fusion_report.txt"):
            assert (fused_one / name).read_bytes() == (one / name).read_bytes()
        for strategy in runs:
            result = tmp_path / f"result_{strategy}.tsv"
            assert main(["align", *stage, "--matrix", str(fused / "sim_fused.npy"),
                         "--strategy", strategy, "--tau", str(cfg.tau),
                         "--actor-lr", str(cfg.rl_actor_lr),
                         "--critic-lr", str(cfg.rl_critic_lr),
                         "--epochs", str(cfg.rl_epochs), "--seed", str(cfg.seed),
                         "--prelim-rounds", str(cfg.prelim_rounds),
                         "--out", str(result)]) == 0
            assert result.read_bytes() == (tmp_path / strategy / "result.tsv").read_bytes()

    @pytest.mark.parametrize("command,cls", [
        ("embed", TrainConfig), ("align", RlConfig), ("fuse", FusionConfig)])
    def test_stage_commands_flag_every_setting(self, capsys, command, cls):
        # A setting without a flag keeps the stage commands from reproducing
        # a pipeline run that sets it, as align's learning rates once did.
        renamed = {"learning_rate": "--lr", "rng_seed": "--seed",
                   "preliminary_rounds": "--prelim-rounds"}
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        flags = set(re.findall(r"--[\w-]+", capsys.readouterr().out))
        for f in dataclasses.fields(cls):
            assert renamed.get(f.name, "--" + f.name.replace("_", "-")) in flags, f.name

    @pytest.mark.parametrize("command,required,listed,integers,reals", [
        ("embed", ["--train", "a", "--out", "o"],
         ["--triples1", "--names1", "--triples2", "--names2", "--train", "--out", "--dim",
          "--margin", "--epochs", "--negatives", "--lr", "--seed", "--format"],
         ["--dim", "--epochs", "--negatives", "--seed"], ["--margin", "--lr"]),
        ("align", ["--matrix", "m", "--test", "a", "--out", "o"],
         ["--triples1", "--names1", "--triples2", "--names2", "--matrix", "--test",
          "--strategy", "--actor-lr", "--critic-lr", "--tau", "--epochs", "--seed",
          "--prelim-rounds", "--mode", "--out"],
         ["--tau", "--epochs", "--seed", "--prelim-rounds"], ["--actor-lr", "--critic-lr"]),
        ("fuse", ["--inputs", "a=b", "--out", "o"],
         ["--inputs", "--theta1", "--theta2", "--out", "--format"],
         [], ["--theta1", "--theta2"]),
    ])
    def test_stage_commands_generate_their_flags(self, capsys, command, required, listed,
                                                  integers, reals):
        # The flags come from the config's fields, typed by each default: a
        # default written as 3 instead of 3.0 would make its flag refuse 0.5.
        parse = build_parser().parse_args
        with pytest.raises(SystemExit):
            parse([command, "--help"])
        assert re.findall(r"^  (--[a-z0-9-]+)", capsys.readouterr().out,
                          re.MULTILINE) == listed
        if command != "fuse":
            required = [*kg_flags({k: k for k in ("triples1", "names1", "triples2",
                                                  "names2")}), *required]
        for flag in integers:
            with pytest.raises(SystemExit) as exit_info:
                parse([command, *required, flag, "2.5"])
            assert exit_info.value.code == 2
            assert f"argument {flag}: invalid int value: '2.5'" in capsys.readouterr().err
        for flag in reals:
            args = parse([command, *required, flag, "0.5"])
            assert getattr(args, flag[2:].replace("-", "_")) == 0.5

    @pytest.mark.parametrize("key,value,rule,command,flag", [
        ("seed", -1, ">= 0, got -1", "embed", "--seed"),
        ("seed", -1, ">= 0, got -1", "align", "--seed"),
        ("rl_epochs", -1, ">= 0, got -1", "align", "--epochs"),
        ("rl_actor_lr", 0.0, "> 0, got 0.0", "align", "--actor-lr"),
        ("rl_critic_lr", 0.0, "> 0, got 0.0", "align", "--critic-lr"),
        ("prelim_rounds", -1, ">= 0, got -1", "align", "--prelim-rounds"),
    ], ids=["seed-embed", "seed-align", "rl_epochs", "rl_actor_lr", "rl_critic_lr",
            "prelim_rounds"])
    def test_renamed_settings_name_their_key_or_flag(self, tmp_path, monkeypatch, capsys,
                                                      key, value, rule, command, flag):
        # The five PipelineConfig fields that set a stage-config field of
        # another name used to be reported under that name, as "epochs must
        # be >= 0, got -1" for rl_epochs.
        monkeypatch.chdir(tmp_path)
        kg = kg_flags({k: k for k in ("triples1", "names1", "triples2", "names2")})
        matio.save_json(tmp_path / "cfg.json", {key: value, "out_dir": "out", "vectors": "v"})
        stage_inputs = {"embed": ["--train", "gold.tsv"],
                        "align": ["--matrix", "m.npy", "--test", "gold.tsv"]}[command]
        for argv, name in (
            (["pipeline", "--config", "cfg.json", *kg, "--gold", "gold.tsv"], key),
            (["pipeline", *kg, "--gold", "gold.tsv", "--vectors", "v", "--out-dir", "out",
              "--" + key.replace("_", "-"), str(value)], key),
            ([command, *kg, *stage_inputs, flag, str(value), "--out", "out"], flag),
        ):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2
            assert f"kgalign {argv[0]}: error: {name} must be {rule}\n" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["cfg.json"]

    @pytest.mark.parametrize("features,flags,message", [
        ("string,structural", ["--vectors", "v.vec"],
         "the structural feature needs --z1 and --z2"),
        ("string,semantic", ["--z1", "z1.npy"],
         "the semantic feature requires a word-vector file"),
        ("string,bogus", [], "unknown features: ['bogus']"),
        ("string,semantic,string", ["--vectors", "v.vec"],
         "each feature may appear once, got ['string', 'semantic', 'string']"),
    ])
    def test_features_rejects_flags_before_writing(self, synth_dir, tmp_path, capsys,
                                                   features, flags, message):
        out = tmp_path / "feats"
        with pytest.raises(SystemExit) as exit_info:
            main(["features", *kg_flags(synth_dir), "--test", str(synth_dir["gold"]),
                  "--features", features, *flags, "--out", str(out)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: kgalign features")
        assert f"kgalign features: error: {message}" in err
        assert not out.exists()

    def test_features_writes_nothing_when_a_feature_fails(self, synth_dir, tmp_path):
        # It used to write sim_string, then fail on the semantic feature.
        out = tmp_path / "feats"
        with pytest.raises(FileNotFoundError):
            main(["features", *kg_flags(synth_dir), "--test", str(synth_dir["gold"]),
                  "--features", "string,semantic", "--vectors", str(tmp_path / "missing.vec"),
                  "--out", str(out)])
        assert not out.exists()

    def test_fuse_rejects_input_without_path(self, tmp_path, capsys):
        # No matrix file exists: every tag is checked before any is loaded.
        out = tmp_path / "fused"
        for inputs, message in (
            (["semantic"], "expected tag=path, got 'semantic'"),
            (["=a.npy"], "expected tag=path, got '=a.npy'"),
            (["string=a.npy", "semantic=b.npy", "string=a.npy"],
             "tag 'string' appears twice in --inputs"),
        ):
            with pytest.raises(SystemExit) as exit_info:
                main(["fuse", "--inputs", *inputs, "--out", str(out)])
            assert exit_info.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith("usage: kgalign fuse")
            assert f"kgalign fuse: error: {message}" in err
            assert not out.exists()

    @pytest.mark.parametrize("flag", ["--z1", "--z2"])
    @pytest.mark.parametrize("extra", [10, -20])
    def test_features_rejects_embeddings_of_another_graph(self, synth_dir, tmp_path,
                                                          flag, extra):
        # Too many rows used to write sim_structural from the wrong rows, too
        # few an IndexError after --out was created.
        n = load_kg(synth_dir["triples1"], synth_dir["names1"]).n_entities
        z = {"--z1": tmp_path / "z1.npy", "--z2": tmp_path / "z2.npy"}
        for name, path in z.items():
            save_matrix(path, np.ones((n + extra if name == flag else n, 4)))
        out = tmp_path / "feats"
        with pytest.raises(IntegrityError, match=re.escape(
                f"{flag} has {n + extra} rows, but its graph has {n} entities")):
            main(["features", *kg_flags(synth_dir), "--test", str(synth_dir["gold"]),
                  "--features", "structural", "--z1", str(z["--z1"]),
                  "--z2", str(z["--z2"]), "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("line,message", [
        ("s999\tt29\n", "source id 's999' is not an entity of the first graph"),
        ("s29\tt999\n", "target id 't999' is not an entity of the second graph"),
    ], ids=["source", "target"])
    def test_unknown_alignment_ids_are_integrity_errors(self, synth_dir, tmp_path,
                                                         monkeypatch, line, message):
        # They used to fail as a bare KeyError naming the id alone.
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("s1\tt1\n" + line, encoding="utf-8")
        save_matrix(tmp_path / "m.npy", np.eye(2))
        with pytest.raises(PipelineError, match=re.escape(
                f"stage 'load' failed: {message}")) as err:
            run_pipeline(small_config(synth_dir, tmp_path / "run", gold=str(pairs)))
        assert isinstance(err.value.__cause__, IntegrityError)
        # The inputs are indexed before the run directory is created.
        assert not (tmp_path / "run").exists()
        # A directory that exists keeps its files, config.json and manifest
        # included, when a rerun fails at load.
        done = tmp_path / "done"
        string_greedy = dict(features=("string",), strategy="greedy")
        run_pipeline(small_config(synth_dir, done, **string_greedy))
        want = dir_bytes(done)
        for resume in (False, True):
            with pytest.raises(PipelineError, match=re.escape(message)):
                run_pipeline(small_config(synth_dir, done, gold=str(pairs), resume=resume,
                                          **string_greedy))
            assert dir_bytes(done) == want
        monkeypatch.chdir(tmp_path)
        for command, flags in (
            ("embed", ["--train", "pairs.tsv", "--out", "emb"]),
            ("features", ["--test", "pairs.tsv", "--features", "string", "--out", "feats"]),
            ("align", ["--matrix", "m.npy", "--test", "pairs.tsv", "--out", "result.tsv"]),
        ):
            with pytest.raises(IntegrityError, match=re.escape(message)):
                main([command, *kg_flags(synth_dir), *flags])
        assert sorted(os.listdir(tmp_path)) == ["done", "m.npy", "pairs.tsv"]

    def test_walkthrough_through_the_module_entry_point(self, tmp_path):
        # The README walkthrough at n=60 run as `python -m kgalign.cli`: the
        # entry point and the exit statuses, which calls of main() cannot show.
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}

        def kgalign(*argv, **variables):
            return subprocess.run([sys.executable, "-m", "kgalign.cli", *argv],
                                  cwd=tmp_path, env={**env, **variables},
                                  capture_output=True, text=True)

        data = ["--triples1", "data/triples1.tsv", "--names1", "data/names1.tsv",
                "--triples2", "data/triples2.tsv", "--names2", "data/names2.tsv"]
        done = kgalign("synth", "--out", "data", "--n", "60", "--edge-prob", "0.08",
                       "--name-noise", "0.25", "--edge-noise", "0.12", "--seed", "7")
        assert done.returncode == 0, done.stderr
        # Seeded runs are bit-reproducible across interpreters: cold runs under
        # two string-hash seeds write the same run directory, every file.
        runs = []
        for hash_seed in ("1", "2"):
            shutil.rmtree(tmp_path / "run", ignore_errors=True)
            done = kgalign("pipeline", *data, "--gold", "data/gold.tsv",
                           "--vectors", "data/vectors.vec", "--out-dir", "run",
                           "--seed", "7", "--dim", "16", "--epochs", "20",
                           "--learning-rate", "0.05", "--measure", "cos", "--strategy", "rl",
                           "--rl-epochs", "30", PYTHONHASHSEED=hash_seed)
            assert done.returncode == 0, done.stderr
            runs.append(dir_bytes(tmp_path / "run"))
        assert len(runs[0]) == 14 and runs[1] == runs[0]
        report = tmp_path / "run" / "report.json"
        cold = report.read_bytes()
        for _ in range(2):
            done = kgalign("pipeline", "--config", "run/config.json", "--resume")
            assert done.returncode == 0, done.stderr
            assert report.read_bytes() == cold
        done = kgalign("pipeline", "--out-dir", "no_inputs")
        assert done.returncode == 2
        assert "the following arguments are required: --triples1" in done.stderr
        assert not (tmp_path / "no_inputs").exists()
        scores = np.eye(60)
        scores[0, 1] = np.nan
        save_matrix(tmp_path / "nan.npy", scores)
        done = kgalign("align", *data, "--matrix", "nan.npy", "--test", "data/gold.tsv",
                       "--strategy", "greedy", "--out", "nan_result.tsv")
        assert done.returncode == 1
        assert "similarity scores must be finite" in done.stderr
        assert not (tmp_path / "nan_result.tsv").exists()

    def test_parser_defaults_equal_config_defaults(self):
        parse = build_parser().parse_args
        kg = ["--triples1", "t1", "--names1", "n1", "--triples2", "t2", "--names2", "n2"]
        embed = parse(["embed", *kg, "--train", "a", "--out", "o"])
        assert (embed.dim, embed.margin, embed.epochs, embed.negatives, embed.lr,
                embed.seed) == dataclasses.astuple(TrainConfig())
        features = parse(["features", *kg, "--test", "a", "--out", "o"])
        assert features.measure == PipelineConfig.measure
        fuse = parse(["fuse", "--inputs", "a=b", "--out", "o"])
        assert FusionConfig(theta1=fuse.theta1, theta2=fuse.theta2) == FusionConfig()
        align = parse(["align", *kg, "--matrix", "m", "--test", "a", "--out", "o"])
        assert RlConfig(
            tau=align.tau, epochs=align.epochs, rng_seed=align.seed,
            preliminary_rounds=align.prelim_rounds, mode=MODE_FLAGS[align.mode],
        ) == RlConfig()
        # Every pipeline flag defaults to unset, so PipelineConfig's default applies.
        pipeline_args = vars(parse(["pipeline"]))
        assert {k for k, v in pipeline_args.items() if v is not None} == {
            "command", "fn", "error", "resume"}

    def test_synth_then_pipeline(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main([
            "synth", "--out", str(data), "--n", "40", "--edge-prob", "0.1",
            "--name-noise", "0.15", "--edge-noise", "0.05", "--seed", "2",
        ]) == 0
        out = tmp_path / "run"
        assert main([
            "pipeline",
            "--triples1", str(data / "triples1.tsv"),
            "--names1", str(data / "names1.tsv"),
            "--triples2", str(data / "triples2.tsv"),
            "--names2", str(data / "names2.tsv"),
            "--gold", str(data / "gold.tsv"),
            "--vectors", str(data / "vectors.vec"),
            "--out-dir", str(out), "--seed", "2", "--dim", "16",
            "--epochs", "10", "--learning-rate", "0.05", "--measure", "cos",
            "--rl-epochs", "20", "--strategy", "rl", "--mode", "full",
        ]) == 0
        captured = capsys.readouterr().out
        assert "precision\t" in captured
        assert (out / "report.json").exists()

    def test_stagewise_flow(self, tmp_path, capsys):
        data = tmp_path / "data"
        main(["synth", "--out", str(data), "--n", "30", "--edge-prob", "0.12",
              "--name-noise", "0.1", "--seed", "4"])
        # Split the gold by hand: first 10 train, last 20 test.
        gold = (data / "gold.tsv").read_text(encoding="utf-8").strip().split("\n")
        (data / "train.tsv").write_text("\n".join(gold[:10]) + "\n", encoding="utf-8")
        (data / "test.tsv").write_text("\n".join(gold[10:]) + "\n", encoding="utf-8")
        kg_args = [
            "--triples1", str(data / "triples1.tsv"),
            "--names1", str(data / "names1.tsv"),
            "--triples2", str(data / "triples2.tsv"),
            "--names2", str(data / "names2.tsv"),
        ]
        emb = tmp_path / "emb"
        assert main(["embed", *kg_args, "--train", str(data / "train.tsv"),
                     "--out", str(emb), "--dim", "8", "--epochs", "10",
                     "--lr", "0.05", "--seed", "4", "--format", "tsv"]) == 0
        first_line = (emb / "z1.tsv").read_text(encoding="utf-8").split("\n")[0]
        assert first_line.startswith("0\t") and len(first_line.split("\t")) == 9
        feats = tmp_path / "feats"
        assert main(["features", *kg_args, "--test", str(data / "test.tsv"),
                     "--z1", str(emb / "z1.tsv"), "--z2", str(emb / "z2.tsv"),
                     "--vectors", str(data / "vectors.vec"),
                     "--measure", "cos", "--out", str(feats)]) == 0
        fused = tmp_path / "fused"
        assert main(["fuse",
                     "--inputs",
                     f"structural={feats / 'sim_structural.npy'}",
                     f"semantic={feats / 'sim_semantic.npy'}",
                     f"string={feats / 'sim_string.npy'}",
                     "--out", str(fused)]) == 0
        result = tmp_path / "result.tsv"
        assert main(["align", *kg_args,
                     "--matrix", str(fused / "sim_fused.npy"),
                     "--test", str(data / "test.tsv"),
                     "--strategy", "rl", "--mode", "full", "--tau", "5",
                     "--epochs", "20", "--seed", "4", "--prelim-rounds", "2",
                     "--out", str(result)]) == 0
        assert main(["eval", "--pred", str(result),
                     "--gold", str(data / "test.tsv")]) == 0
        out = capsys.readouterr().out
        assert "precision\t" in out

    def test_eval_with_ranked_lists(self, tmp_path, capsys):
        (tmp_path / "pred.tsv").write_text(
            "a\tx\tgreedy\nb\ty\tgreedy\n", encoding="utf-8"
        )
        (tmp_path / "gold.tsv").write_text("a\tx\nb\tz\n", encoding="utf-8")
        (tmp_path / "ranked.tsv").write_text(
            "a\tx\ty\tz\nb\ty\tz\tx\n", encoding="utf-8"
        )
        out = tmp_path / "rep"
        out.mkdir()
        assert main(["eval", "--pred", str(tmp_path / "pred.tsv"),
                     "--gold", str(tmp_path / "gold.tsv"),
                     "--ranked", str(tmp_path / "ranked.tsv"),
                     "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "precision\t0.5" in text
        assert "hits@1\t0.5" in text  # gold targets at ranks 1 and 2
        assert "mrr\t0.75" in text
        assert (out / "report.json").exists()

    def test_eval_prints_the_pipeline_report(self, synth_dir, tmp_path, capsys):
        # The eval stage and `kgalign eval` score through one evaluate: given
        # the run's test pairs as gold and each row of sim_fused as a ranked
        # list, eval prints the run's report.txt but for its poc line.
        run = tmp_path / "run"
        run_pipeline(small_config(synth_dir, run))
        test_ids = json.loads((run / "split.json").read_text(encoding="utf-8"))["test_ids"]
        save_alignment([tuple(pair) for pair in test_ids], tmp_path / "gold.tsv")
        targets = np.array([t for _, t in test_ids])
        with open(tmp_path / "ranked.tsv", "w", encoding="utf-8") as fh:
            for (source, _), row in zip(test_ids, load_matrix(run / "sim_fused.npy")):
                order = targets[np.argsort(-row, kind="stable")]
                fh.write("\t".join([source, *order]) + "\n")
        assert main(["eval", "--pred", str(run / "result.tsv"),
                     "--gold", str(tmp_path / "gold.tsv"),
                     "--ranked", str(tmp_path / "ranked.tsv")]) == 0
        report = (run / "report.txt").read_text(encoding="utf-8").splitlines(keepends=True)
        assert capsys.readouterr().out == "".join(
            line for line in report if not line.startswith("poc\t"))

    def test_eval_rejects_a_repeated_source(self, tmp_path, capsys):
        # It used to score only the source's last row, and count target reuse
        # over one row per source. A repeated target stays legal.
        pred = tmp_path / "pred.tsv"
        pred.write_text("a\tx\tgreedy\nb\tx\tgreedy\n\na\ty\trl\n", encoding="utf-8")
        (tmp_path / "gold.tsv").write_text("a\tx\nb\ty\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"pred\.tsv:4: duplicate source id 'a'") as err:
            main(["eval", "--pred", str(pred), "--gold", str(tmp_path / "gold.tsv")])
        assert err.value.line_no == 4
        assert capsys.readouterr().out == ""
        pred.write_text("a\tx\tgreedy\nb\tx\tgreedy\n", encoding="utf-8")
        assert main(["eval", "--pred", str(pred), "--gold", str(tmp_path / "gold.tsv")]) == 0
        assert "multe\t1" in capsys.readouterr().out

    def test_eval_rejects_a_repeated_or_empty_ranked_source(self, tmp_path, capsys):
        # Scoring one of two lists of a source would hide the other, and a
        # repeated or empty target would take a rank (b's list y, y, z put z
        # at rank 3); blank lines are no lists and are skipped.
        (tmp_path / "pred.tsv").write_text("a\tx\tgreedy\nb\ty\tgreedy\n",
                                           encoding="utf-8")
        (tmp_path / "gold.tsv").write_text("a\tx\nb\tz\n", encoding="utf-8")
        ranked = tmp_path / "ranked.tsv"
        argv = ["eval", "--pred", str(tmp_path / "pred.tsv"),
                "--gold", str(tmp_path / "gold.tsv"), "--ranked", str(ranked)]
        for text, line_no, message in (
            ("a\tx\ty\tz\nb\ty\tz\tx\n\na\ty\tx\tz\n", 4, "duplicate source id 'a'"),
            ("a\tx\ty\tz\n\tz\tx\nb\ty\tz\tx\n", 2, "empty source id"),
            ("a\tx\ty\tz\n\nb\ty\ty\tz\n", 3, "duplicate target id 'y'"),
            ("a\tx\t\tz\nb\ty\tz\tx\n", 1, "empty target id"),
            ("a\tx\ty\tz\nb\ty\tz\tx\t\n", 2, "empty target id"),
        ):
            ranked.write_text(text, encoding="utf-8")
            with pytest.raises(ParseError, match=re.escape(f"ranked.tsv:{line_no}: {message}")):
                main(argv)
            assert capsys.readouterr().out == ""
        ranked.write_text("\na\tx\ty\tz\n\n\nb\ty\tz\tx\n\n", encoding="utf-8")
        assert main(argv) == 0
        assert "hits@1\t0.5" in capsys.readouterr().out

    def test_every_pipeline_flag_reaches_the_config(self, synth_dir, tmp_path,
                                                    monkeypatch):
        class Stop(Exception):
            pass

        def record(cfg):
            configs.append(cfg)
            raise Stop

        configs = []
        monkeypatch.setattr(cli, "run_pipeline", record)
        argv = ["pipeline", "--triples1", "t1", "--names1", "n1", "--triples2", "t2",
                "--names2", "n2", "--gold", "g", "--vectors", "v", "--out-dir", "o",
                "--seed", "5", "--train-frac", "0.3", "--val-frac", "0.1",
                "--measure", "cos", "--features", "string,semantic", "--dim", "7",
                "--epochs", "9", "--learning-rate", "0.02", "--theta1", "0.7",
                "--theta2", "0.15", "--strategy", "stable", "--mode", "coh",
                "--tau", "4", "--rl-epochs", "11", "--prelim-rounds", "2", "--resume",
                "--margin", "1.5", "--negatives", "3", "--rl-actor-lr", "0.002",
                "--rl-critic-lr", "0.02", "--matrix-format", "tsv"]
        # argv sets every pipeline flag but --config, each to a field of its name.
        args = vars(build_parser().parse_args(argv))
        assert {k for k, v in args.items() if v is None} == {"config"}
        assert set(args) - {"command", "fn", "error", "config"} == {
            f.name for f in dataclasses.fields(PipelineConfig)} - {"threads"}
        with pytest.raises(Stop):
            main(argv)
        assert configs.pop() == PipelineConfig(
            triples1="t1", names1="n1", triples2="t2", names2="n2", gold="g",
            vectors="v", out_dir="o", seed=5, train_frac=0.3, val_frac=0.1,
            measure="cos", features=("string", "semantic"), dim=7, epochs=9,
            learning_rate=0.02, theta1=0.7, theta2=0.15, strategy="stable",
            mode="coherence_only", tau=4, rl_epochs=11, prelim_rounds=2, resume=True,
            margin=1.5, negatives=3, rl_actor_lr=0.002, rl_critic_lr=0.02,
            matrix_format="tsv")
        # With --config, a flag overrides the file's value and nothing else.
        cfg = small_config(synth_dir, tmp_path / "run", tau=6)
        matio.save_json(tmp_path / "config.json",
                        {**dataclasses.asdict(cfg), "features": list(cfg.features)})
        with pytest.raises(Stop):
            main(["pipeline", "--config", str(tmp_path / "config.json"),
                  "--features", "semantic", "--mode", "excl"])
        assert configs.pop() == dataclasses.replace(
            cfg, features=("semantic",), mode="exclusiveness_only")

    def test_pipeline_has_one_flag_per_setting(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["pipeline", "--help"])
        listed = re.findall(r"^  (--[a-z0-9-]+)", capsys.readouterr().out, re.MULTILINE)
        assert listed == ["--config", *(
            "--" + f.name.replace("_", "-")
            for f in dataclasses.fields(PipelineConfig) if f.name != "threads")]

    def test_eval_creates_its_out_directory(self, tmp_path, capsys):
        # Like every other subcommand's --out: it used to print the report,
        # then fail with FileNotFoundError on report.txt.
        (tmp_path / "pred.tsv").write_text("a\tx\tgreedy\n", encoding="utf-8")
        (tmp_path / "gold.tsv").write_text("a\tx\n", encoding="utf-8")
        out = tmp_path / "new" / "eval"
        assert main(["eval", "--pred", str(tmp_path / "pred.tsv"),
                     "--gold", str(tmp_path / "gold.tsv"), "--out", str(out)]) == 0
        assert "precision\t1.0" in capsys.readouterr().out
        assert json.loads((out / "report.json").read_text(encoding="utf-8"))["precision"] == 1.0
        assert (out / "report.txt").exists()

    def test_align_creates_its_out_directory(self, synth_dir, tmp_path, capsys):
        # It used to decode, then fail with FileNotFoundError on the result.
        save_matrix(tmp_path / "m.npy", np.eye(60))
        out = tmp_path / "new" / "result.tsv"
        assert main(["align", *kg_flags(synth_dir), "--test", str(synth_dir["gold"]),
                     "--matrix", str(tmp_path / "m.npy"), "--strategy", "hungarian",
                     "--out", str(out)]) == 0
        assert f"result\t{out}" in capsys.readouterr().out
        assert [(s, t) for s, t, _ in load_result(out)] == kg.load_alignment(synth_dir["gold"])

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_align_rejects_non_finite_scores(self, synth_dir, tmp_path, strategy):
        for bad in ("nan_cell", "inf_row"):
            scores = np.random.default_rng(0).random((20, 20))
            if bad == "nan_cell":
                scores[3, 4] = np.nan
            else:
                scores[7] = np.inf
            save_matrix(tmp_path / f"{bad}.npy", scores)
            out = tmp_path / f"result_{bad}.tsv"
            with pytest.raises(ValueError, match="similarity scores must be finite"):
                main(["align", *kg_flags(synth_dir), "--test", str(synth_dir["gold"]),
                      "--matrix", str(tmp_path / f"{bad}.npy"), "--strategy", strategy,
                      "--out", str(out)])
            assert not out.exists()

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("n", [20, 5])
    def test_align_rejects_a_matrix_of_another_shape(self, synth_dir, tmp_path,
                                                     strategy, n):
        # Larger and smaller than the 10 test pairs: both fail before any
        # decoding, and no result file is written.
        test = tmp_path / "test.tsv"
        test.write_text("".join(synth_dir["gold"].read_text(encoding="utf-8")
                                .splitlines(keepends=True)[:10]), encoding="utf-8")
        save_matrix(tmp_path / "m.npy", np.random.default_rng(0).random((n, n)))
        out = tmp_path / "result.tsv"
        with pytest.raises(ValueError, match=re.escape(
                f"scores have shape ({n}, {n}), but 10 test pairs need (10, 10)")):
            main(["align", *kg_flags(synth_dir), "--test", str(test),
                  "--matrix", str(tmp_path / "m.npy"), "--strategy", strategy,
                  "--out", str(out)])
        assert not out.exists()

    def test_save_result_writes_nothing_on_a_bad_index(self, tmp_path):
        result = AlignmentResult(pairs={0: 0, 1: 1, 2: 5},
                                 provenance=dict.fromkeys(range(3), "greedy"))
        out = tmp_path / "result.tsv"
        with pytest.raises(IndexError):
            matio.save_result(out, result, ["a", "b", "c"], ["x", "y", "z"])
        assert not out.exists()

    @pytest.mark.parametrize("command,flags,message", [
        # A stage command names the flag that set a rejected value.
        pytest.param("embed", ["--train", "gold.tsv", "--out", "out", "--dim", "0"],
                     "--dim must be >= 1, got 0", id="embed-flags0-dim must be >= 1, got 0"),
        pytest.param("fuse", ["--inputs", "string=m.npy", "--theta2", "0", "--out", "out"],
                     "--theta2 must be > 0, got 0.0",
                     id="fuse-flags1-theta2 must be > 0, got 0.0"),
        pytest.param("align", ["--matrix", "m.npy", "--test", "gold.tsv", "--tau", "0",
                               "--out", "out"], "--tau must be >= 1, got 0",
                     id="align-flags2-tau must be >= 1, got 0"),
        ("pipeline", ["--out-dir", "out"], "without --config, the following arguments "
         "are required: --triples1, --names1, --triples2, --names2, --gold"),
        ("pipeline", ["--triples1", "t1", "--names1", "n1", "--triples2", "t2",
                      "--names2", "n2", "--gold", "gold.tsv", "--out-dir", "out",
                      "--features", "string,string"], "each feature may appear once"),
        ("pipeline", ["--config", {"triples1": "t1", "out_dir": "out"},
                      "--names1", "n1", "--gold", "gold.tsv"],
         "cfg.json and the flags leave required inputs unset: "
         "triples2 (--triples2), names2 (--names2)"),
        # A null value sets no input: it used to fail on os.fspath(None).
        ("pipeline", ["--config", {"triples1": None, "out_dir": "out"}, "--names1", "n1",
                      "--triples2", "t2", "--names2", "n2", "--gold", "gold.tsv"],
         "cfg.json and the flags leave required inputs unset: triples1 (--triples1)"),
        # A file that holds no JSON object used to fail with a traceback.
        ("pipeline", ["--config", []], "cfg.json must hold a JSON object, got list"),
        ("pipeline", ["--config", "x"], "cfg.json must hold a JSON object, got str"),
        ("pipeline", ["--config", 3], "cfg.json must hold a JSON object, got int"),
        pytest.param("pipeline", ["--config", {"seed": "7", "out_dir": "out", "vectors": "v"},
                                  "--triples1", "t1", "--names1", "n1", "--triples2", "t2",
                                  "--names2", "n2", "--gold", "gold.tsv"],
                     "seed must be a non-negative integer, got '7'",
                     id="pipeline-flags10-rng_seed must be a non-negative integer, got '7'"),
        # A tau of 3.0 used to fail at stage align, after every matrix was
        # written; a NaN margin trained with loss 0.
        ("pipeline", ["--config", {"tau": 3.0, "out_dir": "out", "vectors": "v"},
                      "--triples1", "t1", "--names1", "n1", "--triples2", "t2",
                      "--names2", "n2", "--gold", "gold.tsv"],
         "tau must be an integer, got 3.0"),
        ("pipeline", ["--config", {"margin": math.nan, "out_dir": "out", "vectors": "v"},
                      "--triples1", "t1", "--names1", "n1", "--triples2", "t2",
                      "--names2", "n2", "--gold", "gold.tsv"],
         "margin must be finite, got nan"),
        # A string of tags used to fail as its letters: "unknown features".
        ("pipeline", ["--config", {"features": "string", "out_dir": "out"},
                      "--triples1", "t1", "--names1", "n1", "--triples2", "t2",
                      "--names2", "n2", "--gold", "gold.tsv"],
         "features must be a list or tuple of tags, got 'string'"),
        ("embed", ["--train", "gold.tsv", "--out", "out", "--lr", "0"],
         "--lr must be > 0, got 0.0"),
        ("align", ["--matrix", "m.npy", "--test", "gold.tsv", "--seed", "-1",
                   "--out", "out"], "--seed must be >= 0, got -1"),
        # An unknown measure used to fail as "'bogus' is not a valid Measure",
        # and a path that is no string as os.fspath's TypeError: neither
        # named its key.
        ("pipeline", ["--config", {"measure": "bogus", "out_dir": "out", "vectors": "v"},
                      "--triples1", "t1", "--names1", "n1", "--triples2", "t2",
                      "--names2", "n2", "--gold", "gold.tsv"],
         "measure must be one of ('bc', 'bct', 'man', 'euc', 'cos'), got 'bogus'"),
        ("pipeline", ["--config", {"out_dir": ["x"]}, "--triples1", "t1", "--names1", "n1",
                      "--triples2", "t2", "--names2", "n2", "--gold", "gold.tsv"],
         "out_dir must be a path, got ['x']"),
        ("pipeline", ["--config", {"vectors": 3, "out_dir": "out"}, "--triples1", "t1",
                      "--names1", "n1", "--triples2", "t2", "--names2", "n2",
                      "--gold", "gold.tsv"], "vectors must be a path, got 3"),
        ("pipeline", ["--config", {"gold": {"a": 1}, "out_dir": "out"}, "--triples1", "t1",
                      "--names1", "n1", "--triples2", "t2", "--names2", "n2"],
         "gold must be a path, got {'a': 1}"),
    ])
    def test_rejected_settings_are_usage_errors(self, tmp_path, monkeypatch, capsys,
                                                command, flags, message):
        # No input file exists: the settings are checked before any is read.
        monkeypatch.chdir(tmp_path)
        settings = []
        if "--config" in flags:  # the dict after it is written to cfg.json
            at = flags.index("--config") + 1
            matio.save_json(tmp_path / "cfg.json", flags[at])
            flags, settings = [*flags[:at], "cfg.json", *flags[at + 1:]], ["cfg.json"]
        kg_args = ["--triples1", "t1", "--names1", "n1", "--triples2", "t2",
                   "--names2", "n2"] if command in ("embed", "align") else []
        with pytest.raises(SystemExit) as exit_info:
            main([command, *kg_args, *flags])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: kgalign {command}")
        assert f"kgalign {command}: error: {message}" in err
        # No --out-dir (out) is created.
        assert [path.name for path in tmp_path.iterdir()] == settings

    def test_align_baselines_produce_results(self, tmp_path):
        data = tmp_path / "data"
        main(["synth", "--out", str(data), "--n", "25", "--edge-prob", "0.15",
              "--name-noise", "0.1", "--seed", "6"])
        gold = (data / "gold.tsv").read_text(encoding="utf-8").strip().split("\n")
        (data / "test.tsv").write_text("\n".join(gold[5:]) + "\n", encoding="utf-8")
        kg1_names = [l.split("\t")[1] for l in
                     (data / "names1.tsv").read_text(encoding="utf-8").strip().split("\n")]
        kg2_names = [l.split("\t")[1] for l in
                     (data / "names2.tsv").read_text(encoding="utf-8").strip().split("\n")]
        test_pairs = [l.split("\t") for l in gold[5:]]
        src = [int(s[1:]) for s, _ in test_pairs]
        tgt = [int(t[1:]) for _, t in test_pairs]
        m = string_sim_matrix([kg1_names[i] for i in src], [kg2_names[i] for i in tgt])
        save_matrix(tmp_path / "m.npy", m.scores)
        kg_args = [
            "--triples1", str(data / "triples1.tsv"),
            "--names1", str(data / "names1.tsv"),
            "--triples2", str(data / "triples2.tsv"),
            "--names2", str(data / "names2.tsv"),
        ]
        for strategy in ("greedy", "stable", "hungarian"):
            out = tmp_path / f"res_{strategy}.tsv"
            assert main(["align", *kg_args, "--matrix", str(tmp_path / "m.npy"),
                         "--test", str(data / "test.tsv"), "--strategy", strategy,
                         "--out", str(out)]) == 0
            rows = load_result(out)
            assert rows and all(prov == strategy for _, _, prov in rows)


class TestThreads:
    def test_variable_is_not_read(self, monkeypatch):
        # The field alone sets the count: no environment variable is read,
        # so a bad value there cannot fail a config.
        monkeypatch.setenv("KGALIGN_THREADS", "abc")
        cfg = PipelineConfig(triples1="t1", names1="n1", triples2="t2", names2="n2",
                             gold="g", features=("string",))
        assert cfg.threads == 1

    def test_config_threads_reach_the_string_stage(self, synth_dir, tmp_path,
                                                   monkeypatch):
        calls = []

        def recorded(*args, **kwargs):
            calls.append(kwargs)
            return string_sim_matrix(*args, **kwargs)

        monkeypatch.setattr(pipeline, "string_sim_matrix", recorded)
        run_pipeline(small_config(synth_dir, tmp_path / "run", features=("string",),
                                  vectors=None, strategy="greedy", threads=2))
        assert calls == [{"threads": 2}]

    def test_config_rejects_fewer_than_one(self, synth_dir, tmp_path):
        with pytest.raises(ValueError, match="threads must be >= 1, got 0"):
            small_config(synth_dir, tmp_path, threads=0)

    def test_string_sim_rejects_fewer_than_one(self):
        with pytest.raises(ValueError, match="threads must be >= 1, got 0"):
            string_sim_matrix(["a"], ["b"], threads=0)

    @pytest.mark.parametrize("command", ["features", "pipeline"])
    def test_cli_has_no_threads_flag(self, command, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        assert "--threads" not in capsys.readouterr().out
