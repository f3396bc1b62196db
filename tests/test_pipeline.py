"""Synthetic benchmark generation, pipeline caching, and the CLI surface."""

import dataclasses
import json
import re

import numpy as np
import pytest

from kgalign import matio, pipeline
from kgalign.cli import MODE_FLAGS, build_parser, main
from kgalign.collective import RlConfig, greedy_independent
from kgalign.errors import PipelineError
from kgalign.fusion import FusionConfig
from kgalign.gcn import TrainConfig
from kgalign.kg import load_kg, save_alignment
from kgalign.matio import load_matrix, load_result, save_matrix
from kgalign.metrics import prf
from kgalign.names import string_sim_matrix
from kgalign.pipeline import (
    FEATURES,
    PipelineConfig,
    decode,
    default_threads,
    run_pipeline,
)
from kgalign.synth import gen_synthetic, write_synthetic

from test_kg import kg_from_edges


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


STAGE_CALLS = ("train", "feature_matrix", "fuse_features", "decode", "_evaluate")


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
        assert [name for name, _ in calls] == ["fuse_features", "decode", "_evaluate"]
        fused_after = (out / "sim_fused.npy").read_bytes()
        assert fused_after != fused_before
        # Restore: a resumed run on intact artifacts reproduces the cold bytes.
        run_pipeline(small_config(synth_dir, out))
        resumed_clean = run_pipeline(small_config(synth_dir, out, resume=True))
        assert (out / "sim_fused.npy").read_bytes() == fused_before
        assert resumed_clean.report.precision == cold.report.precision

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

    def test_stage_settings_default_to_their_configs(self):
        cfg = PipelineConfig(triples1="t1", names1="n1", triples2="t2", names2="n2",
                             gold="g", vectors="v")
        assert cfg.train_config() == TrainConfig(rng_seed=cfg.seed)
        assert cfg.fusion_config() == FusionConfig()
        assert cfg.rl_config() == RlConfig(rng_seed=cfg.seed)


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
            "fuse_features", "decode", "_evaluate"]
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

    def test_current_resume_reads_only_final_artifacts(self, synth_dir, tmp_path,
                                                       monkeypatch):
        out = tmp_path / "run"
        cold = run_pipeline(small_config(synth_dir, out))
        before = {f.name: (f.read_bytes(), f.stat().st_mtime_ns) for f in out.iterdir()}

        def refuse(*args, **kwargs):
            raise AssertionError("a current resume must not compute or load this")

        for name in ("load_kg", "train", "sim_matrix", "string_sim_matrix", "decode"):
            monkeypatch.setattr(pipeline, name, refuse)
        monkeypatch.setattr(matio, "load_matrix", refuse)
        resumed = run_pipeline(small_config(synth_dir, out, resume=True))
        assert resumed == cold
        # Nothing is rewritten, config.json and manifest.json included.
        assert {f.name: (f.read_bytes(), f.stat().st_mtime_ns)
                for f in out.iterdir()} == before

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
        assert [name for name, _ in calls] == ["decode", "_evaluate"]
        monkeypatch.undo()
        run_pipeline(small_config(synth_dir, tmp_path / "cold"))
        got, want = dir_bytes(out), dir_bytes(tmp_path / "cold")
        del got["config.json"], want["config.json"]
        assert got == want

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
            "fuse_features", "decode", "_evaluate"]
        assert resumed == cold
        assert dir_bytes(out) == want

    def test_embeddings_of_the_trained_weight_encoder_are_not_resumed(
            self, synth_dir, tmp_path, monkeypatch):
        # Before the embed key named the encoder, it hashed the settings alone,
        # and z1/z2 came from the encoder with trained layer weights. Such a
        # manifest must rerun embed and everything downstream of it.
        out = tmp_path / "run"
        cfg = small_config(synth_dir, out)
        cold = run_pipeline(cfg)
        want = dir_bytes(out)
        key = pipeline._key
        monkeypatch.setattr(pipeline, "_key", lambda *parts: key(
            *(part for part in parts if part != pipeline.ENCODER)))
        old = {name: stage.key for name, stage in pipeline._plan(cfg).items()}
        monkeypatch.undo()
        # The embed key the previous encoder's pipeline wrote for this directory.
        assert old["embed"] == (
            "213a20f8cb4ab65e6a007cc9073a92e4fb415fc481164835883c8fa9bc4c8c5a")
        for name in ("z1.npy", "z2.npy"):
            save_matrix(out / name, np.zeros_like(load_matrix(out / name)))
        matio.save_json(out / pipeline.MANIFEST, old)
        calls = spy(monkeypatch, *STAGE_CALLS)
        resumed = run_pipeline(small_config(synth_dir, out, resume=True))
        assert [name for name, _ in calls] == [
            "train", "feature_matrix", "fuse_features", "decode", "_evaluate"]
        assert [args[0] for name, args in calls if name == "feature_matrix"] == [
            "structural"]
        assert resumed == cold
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
        # features, fuse and align on the pipeline's test split and
        # embeddings reproduce its artifacts byte for byte.
        runs = {}
        for strategy in ("rl", "hungarian"):
            cfg = small_config(synth_dir, tmp_path / strategy, strategy=strategy,
                               tau=3, prelim_rounds=0)
            runs[strategy] = run_pipeline(cfg)
        run = tmp_path / "rl"
        kg1 = load_kg(synth_dir["triples1"], synth_dir["names1"])
        kg2 = load_kg(synth_dir["triples2"], synth_dir["names2"])
        test = tmp_path / "test.tsv"
        save_alignment([(kg1.entity_ids[s], kg2.entity_ids[t])
                        for s, t in runs["rl"].test_pairs], test)
        stage = [*kg_flags(synth_dir), "--test", str(test)]
        feats = tmp_path / "feats"
        assert main(["features", *stage, "--z1", str(run / "z1.npy"),
                     "--z2", str(run / "z2.npy"), "--vectors", str(synth_dir["vectors"]),
                     "--measure", cfg.measure, "--out", str(feats)]) == 0
        fused = tmp_path / "fused"
        assert main(["fuse", "--inputs", *[f"{tag}={feats / f'sim_{tag}.npy'}"
                                           for tag in FEATURES],
                     "--out", str(fused)]) == 0
        for tag in FEATURES:
            assert (feats / f"sim_{tag}.npy").read_bytes() == \
                (run / f"sim_{tag}.npy").read_bytes()
        for name in ("sim_fused.npy", "fusion_report.txt"):
            assert (fused / name).read_bytes() == (run / name).read_bytes()
        # One feature goes through adaptive fusion, with weight 1.0, in both.
        one = tmp_path / "semantic"
        run_pipeline(small_config(synth_dir, one, features=("semantic",),
                                  strategy="greedy"))
        fused_one = tmp_path / "fused_one"
        assert main(["fuse", "--inputs", f"semantic={feats / 'sim_semantic.npy'}",
                     "--out", str(fused_one)]) == 0
        for name in ("sim_fused.npy", "fusion_report.txt"):
            assert (fused_one / name).read_bytes() == (one / name).read_bytes()
        for strategy in runs:
            result = tmp_path / f"result_{strategy}.tsv"
            assert main(["align", *stage, "--matrix", str(fused / "sim_fused.npy"),
                         "--strategy", strategy, "--tau", str(cfg.tau),
                         "--epochs", str(cfg.rl_epochs), "--seed", str(cfg.seed),
                         "--prelim-rounds", str(cfg.prelim_rounds),
                         "--out", str(result)]) == 0
            assert result.read_bytes() == (tmp_path / strategy / "result.tsv").read_bytes()

    @pytest.mark.parametrize("features,flags,message", [
        ("string,structural", ["--vectors", "v.vec"],
         "the structural feature needs --z1 and --z2"),
        ("string,semantic", ["--z1", "z1.npy"], "the semantic feature needs --vectors"),
        ("string,bogus", [], "unknown feature 'bogus' in --features"),
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

    def test_fuse_rejects_input_without_path(self, tmp_path, capsys):
        out = tmp_path / "fused"
        with pytest.raises(SystemExit) as exit_info:
            main(["fuse", "--inputs", "semantic", "--out", str(out)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: kgalign fuse")
        assert "kgalign fuse: error: expected tag=path, got 'semantic'" in err
        assert not out.exists()

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
            "command", "fn", "resume"}

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
    @pytest.mark.parametrize("raw", ["abc", "0", "-2", "", "1.5"])
    def test_bad_variable_raises_naming_it(self, monkeypatch, raw):
        monkeypatch.setenv("KGALIGN_THREADS", raw)
        with pytest.raises(ValueError, match=f"KGALIGN_THREADS.*{re.escape(repr(raw))}"):
            default_threads()

    def test_variable_or_one(self, monkeypatch):
        monkeypatch.setenv("KGALIGN_THREADS", "3")
        assert default_threads() == 3
        monkeypatch.delenv("KGALIGN_THREADS")
        assert default_threads() == 1

    def test_config_rejects_fewer_than_one(self, synth_dir, tmp_path):
        with pytest.raises(ValueError, match="threads must be >= 1, got 0"):
            small_config(synth_dir, tmp_path, threads=0)

    def test_string_sim_rejects_fewer_than_one(self):
        with pytest.raises(ValueError, match="threads must be >= 1, got 0"):
            string_sim_matrix(["a"], ["b"], threads=0)

    def test_cli_reads_variable_only_where_used(self, synth_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("KGALIGN_THREADS", "abc")
        build_parser()
        (tmp_path / "pred.tsv").write_text("a\tx\tgreedy\n", encoding="utf-8")
        (tmp_path / "gold.tsv").write_text("a\tx\n", encoding="utf-8")
        assert main(["eval", "--pred", str(tmp_path / "pred.tsv"),
                     "--gold", str(tmp_path / "gold.tsv")]) == 0
        features = ["features", "--triples1", str(synth_dir["triples1"]),
                    "--names1", str(synth_dir["names1"]),
                    "--triples2", str(synth_dir["triples2"]),
                    "--names2", str(synth_dir["names2"]),
                    "--test", str(synth_dir["gold"]), "--features", "string",
                    "--out", str(tmp_path / "feats")]
        with pytest.raises(ValueError, match="KGALIGN_THREADS"):
            main(features)
        assert main([*features, "--threads", "2"]) == 0
