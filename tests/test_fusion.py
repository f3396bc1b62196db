"""Confident correspondences, adaptive weights, and matrix fusion."""

import json

import numpy as np
import pytest

from kgalign.fusion import (
    ConfidentCorrespondence,
    FeatureWeights,
    FusionConfig,
    adaptive_fuse,
    confident_correspondences,
    correspondence_weights,
    feature_weights,
)
from kgalign.measures import SimilarityMatrix


def sm(scores, tag="f"):
    return SimilarityMatrix(np.asarray(scores, dtype=float), tag)


def brute_force_confident(scores):
    out = set()
    for i in range(scores.shape[0]):
        for j in range(scores.shape[1]):
            v = scores[i, j]
            row = np.delete(scores[i, :], j)
            col = np.delete(scores[:, j], i)
            if (row < v).all() and (col < v).all():
                out.add((i, j))
    return out


class TestConfidentCorrespondences:
    def test_two_by_two(self):
        corrs = confident_correspondences(sm([[0.9, 0.1], [0.2, 0.8]]))
        assert {(c.source, c.target, c.score) for c in corrs} == {
            (0, 0, 0.9),
            (1, 1, 0.8),
        }

    def test_row_tie_disqualifies(self):
        assert confident_correspondences(sm([[0.5, 0.5]])) == []

    def test_dominant_diagonal_full(self):
        scores = np.full((4, 4), 0.1) + np.eye(4)
        corrs = confident_correspondences(sm(scores))
        assert {(c.source, c.target) for c in corrs} == {(i, i) for i in range(4)}

    def test_column_tie_disqualifies(self):
        corrs = confident_correspondences(sm([[0.9, 0.1], [0.9, 0.05]]))
        assert {(c.source, c.target) for c in corrs} == set()

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            scores = rng.random((rng.integers(1, 8), rng.integers(1, 8)))
            corrs = confident_correspondences(sm(scores))
            assert {(c.source, c.target) for c in corrs} == brute_force_confident(scores)

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="similarity matrix is empty"):
            confident_correspondences(sm(np.zeros((0, 3))))

    def test_feature_label_carried(self):
        corrs = confident_correspondences(sm([[1.0]], tag="semantic"))
        assert corrs[0].feature == "semantic"


class TestCorrespondenceWeights:
    CFG = FusionConfig(theta1=0.95, theta2=0.48)

    def test_shared_by_two_features(self):
        per_feature = {
            "a": [ConfidentCorrespondence(0, 0, 0.9, "a")],
            "b": [ConfidentCorrespondence(0, 0, 0.8, "b")],
            "c": [],
        }
        w = correspondence_weights(per_feature, self.CFG)
        assert w[(0, 0)] == {"a": 0.5, "b": 0.5}

    def test_high_score_reset_to_theta2(self):
        per_feature = {
            "a": [ConfidentCorrespondence(0, 0, 0.96, "a")],
            "b": [ConfidentCorrespondence(0, 0, 0.9, "b")],
        }
        w = correspondence_weights(per_feature, self.CFG)
        assert w[(0, 0)]["a"] == 0.48
        assert w[(0, 0)]["b"] == 0.5

    def test_unique_detection_gets_full_weight(self):
        per_feature = {"a": [ConfidentCorrespondence(2, 3, 0.7, "a")]}
        w = correspondence_weights(per_feature, self.CFG)
        assert w[(2, 3)] == {"a": 1.0}


class TestFeatureWeights:
    def test_normalized_ratio(self):
        corr_w = {
            (0, 0): {"a": 0.5},
            (1, 1): {"a": 0.5, "b": 0.5},
            (2, 2): {"b": 0.5, "c": 1.0},
            (3, 3): {"c": 1.0},
        }
        fw = feature_weights(corr_w, ["a", "b", "c"])
        # weight scores: a = 0.5, b = 0.5, c = 1.0 -> normalized (0.25, 0.25, 0.5)
        assert fw.weights == pytest.approx({"a": 0.25, "b": 0.25, "c": 0.5})
        assert not fw.fallback

    def test_single_feature(self):
        fw = feature_weights({(0, 0): {"a": 1.0}}, ["a"])
        assert fw.weights == {"a": 1.0}

    def test_empty_feature_gets_zero(self):
        corr_w = {(0, 0): {"a": 1.0}, (1, 1): {"b": 1.0}}
        fw = feature_weights(corr_w, ["a", "b", "c"])
        assert fw.weights["c"] == 0.0
        assert sum(fw.weights.values()) == pytest.approx(1.0)

    def test_all_empty_falls_back_to_equal(self):
        fw = feature_weights({}, ["a", "b"])
        assert fw.fallback
        assert fw.weights == {"a": 0.5, "b": 0.5}

    def test_sums_to_one_always(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            corr_w = {}
            tags = ["a", "b", "c"]
            for cell in range(rng.integers(1, 10)):
                chosen = rng.choice(3, size=rng.integers(1, 4), replace=False)
                corr_w[(cell, cell)] = {tags[i]: float(rng.random()) for i in chosen}
            fw = feature_weights(corr_w, tags)
            assert sum(fw.weights.values()) == pytest.approx(1.0, abs=1e-9)


class TestFuse:
    # Bad input is rejected before any matrix is scaled: these zero-spread
    # matrices would fail the scaling.
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match=r"^matrix shapes differ: \(2, 2\) vs \(2, 3\)$"):
            adaptive_fuse([sm(np.zeros((2, 2)), "a"), sm(np.zeros((2, 3)), "b")],
                          FusionConfig())

    def test_no_matrices_rejected(self):
        with pytest.raises(ValueError, match="^need at least one matrix to fuse$"):
            adaptive_fuse([], FusionConfig())

    def test_repeated_tag_rejected(self):
        with pytest.raises(ValueError,
                           match=r"^feature tag 'a' appears twice$"):
            adaptive_fuse([sm(np.zeros((2, 2)), "a"), sm(np.zeros((2, 2)), "a")],
                          FusionConfig())

    def test_single_feature_is_handed_through(self):
        m = sm(np.random.default_rng(6).random((4, 4)), "a")
        fused, report = adaptive_fuse([m], FusionConfig())
        np.testing.assert_array_equal(fused.scores, m.scores)
        assert np.shares_memory(fused.scores, m.scores)
        assert fused.feature_tag == "fused"
        assert report.feature_weights.weights == {"a": 1.0}


class TestAdaptiveFuse:
    def test_identical_features_degrade_to_equal_weights(self):
        rng = np.random.default_rng(9)
        scores = rng.random((5, 5)) + 2 * np.eye(5)
        mats = [sm(scores, t) for t in ("a", "b", "c")]
        fused, report = adaptive_fuse(mats, FusionConfig(theta1=10.0))
        assert report.feature_weights.weights == pytest.approx(
            {"a": 1 / 3, "b": 1 / 3, "c": 1 / 3}
        )
        # Each matrix is min-max scaled before the weighted sum.
        np.testing.assert_allclose(fused.scores, (scores - scores.min()) / np.ptp(scores),
                                   atol=1e-12)

    def test_zero_spread_feature_is_named(self):
        mats = [sm([[0.9, 0.1], [0.2, 0.8]], "a"), sm(np.full((2, 2), 0.5), "b")]
        with pytest.raises(ValueError, match="^feature 'b' has zero spread: every score is 0.5$"):
            adaptive_fuse(mats, FusionConfig())
        # A single matrix is not scaled, so a constant one still passes through.
        fused, _ = adaptive_fuse(mats[1:], FusionConfig())
        np.testing.assert_array_equal(fused.scores, mats[1].scores)

    def test_features_enter_on_one_scale(self):
        # A feature scoring in about [-1e6, 1e6] and one in [0, 1) are each
        # scaled to [0, 1] before detection and the weighted sum, so neither
        # swamps the other.
        rng = np.random.default_rng(10)
        wide = sm(-1e6 * rng.random((6, 6)) + 2e6 * np.eye(6), "wide")
        narrow = sm(rng.random((6, 6)), "narrow")
        fused, report = adaptive_fuse([wide, narrow], FusionConfig())

        def scaled(m):
            return (m.scores - m.scores.min()) / (m.scores.max() - m.scores.min())

        w = report.feature_weights.weights
        np.testing.assert_allclose(
            fused.scores, w["wide"] * scaled(wide) + w["narrow"] * scaled(narrow),
            atol=1e-12)
        assert {(c.source, c.target) for c in report.correspondences["wide"]} == {
            (i, i) for i in range(6)}
        for tag, m in (("wide", wide), ("narrow", narrow)):
            for c in report.correspondences[tag]:
                assert c.score == pytest.approx(scaled(m)[c.source, c.target])

    def test_report_text_has_weights_and_cells(self):
        mats = [sm([[0.9, 0.1], [0.1, 0.8]], "a"), sm([[0.2, 0.1], [0.1, 0.3]], "b")]
        _, report = adaptive_fuse(mats, FusionConfig())
        text = report.to_text()
        assert "feature_weight\ta\t" in text
        assert "correspondence\t" in text

    def test_report_json_has_sorted_cells_weights_and_fallback(self):
        # a detects (1, 1); b detects (0, 0) and, shared with a, (1, 1).
        # Scaled to [0, 1], a's (1, 1) and b's (0, 0) score 1 > theta1 and
        # weigh theta2 = 0.48; b's (1, 1) scores 0.25 and weighs 1/2.
        mats = [sm([[0.1, 0.2], [0.3, 0.9]], "a"), sm([[0.9, 0.1], [0.2, 0.3]], "b")]
        _, report = adaptive_fuse(mats, FusionConfig())
        payload = json.loads(report.to_json())
        assert payload == {"cells": [[0, 0], [1, 1]],
                           "weights": pytest.approx({"a": 0.48 / 0.97, "b": 0.49 / 0.97}),
                           "fallback": False}
        assert report.to_json() == json.dumps(payload, indent=2, sort_keys=True)
        _, tied = adaptive_fuse([sm([[0.5, 0.5]], "a")], FusionConfig())
        assert json.loads(tied.to_json()) == {"cells": [], "weights": {"a": 1.0},
                                              "fallback": True}
