"""Adaptive fusion of feature-specific similarity matrices.

When two or more features are fused, each matrix is first min-max scaled
to [0, 1], so features whose raw scores differ by orders of magnitude
(``bc`` reaches -1.3e6 on signed word vectors, string ratios lie in
[0, 1]) enter detection, damping and the sum on one scale. The scaling is
increasing, so it keeps each row's and column's maximum in place. A cell
that is strictly maximal in both its row and its column is a confident
correspondence of that feature. Correspondence weights are inversely
proportional to how many features detect them (1/q), with very
high-scoring detections damped to a small constant so a dominant feature
cannot crowd out the rest. Feature weights are the mean correspondence
weight per feature, normalized to sum to 1, and the fused matrix is the
weighted sum of the scaled matrices.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import check_number
from .measures import SimilarityMatrix

logger = logging.getLogger(__name__)

Cell = tuple[int, int]


@dataclass
class FusionConfig:
    theta1: float = 0.99  # scores above this are damped
    theta2: float = 0.48  # replacement weight for damped detections

    def __post_init__(self):
        check_number("theta1", self.theta1)
        check_number("theta2", self.theta2, 0, above=True)


@dataclass
class ConfidentCorrespondence:
    source: int
    target: int
    score: float
    feature: str


@dataclass
class FeatureWeights:
    weights: dict[str, float]
    fallback: bool = False  # equal weights forced because no feature had detections

    def __post_init__(self):
        if any(w < 0 for w in self.weights.values()):
            raise ValueError("feature weights must be nonnegative")
        total = sum(self.weights.values())
        if self.weights and abs(total - 1.0) > 1e-9:
            raise ValueError(f"feature weights sum to {total}, expected 1")


@dataclass
class FusionReport:
    """Audit record: what was detected, and which weights came out."""

    correspondences: dict[str, list[ConfidentCorrespondence]]
    correspondence_weights: dict[Cell, dict[str, float]]
    feature_weights: FeatureWeights

    def to_text(self) -> str:
        lines = []
        for tag, w in sorted(self.feature_weights.weights.items()):
            lines.append(f"feature_weight\t{tag}\t{w!r}")
        lines.append(f"fallback\t{self.feature_weights.fallback}")
        for tag, corrs in sorted(self.correspondences.items()):
            lines.append(f"confident_count\t{tag}\t{len(corrs)}")
        for (s, t), per_feature in sorted(self.correspondence_weights.items()):
            for tag, w in sorted(per_feature.items()):
                lines.append(f"correspondence\t{tag}\t{s}\t{t}\t{w!r}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        """The ``fusion.json`` text: the confident cells in sorted order, the
        feature weights and the fallback flag."""
        return json.dumps(
            {
                "cells": [list(c) for c in sorted(self.correspondence_weights)],
                "weights": self.feature_weights.weights,
                "fallback": self.feature_weights.fallback,
            },
            indent=2,
            sort_keys=True,
        )


def confident_correspondences(m: SimilarityMatrix) -> list[ConfidentCorrespondence]:
    """Cells strictly greatest in their row and their column.

    A tie for the maximum in either direction disqualifies the cell.
    """
    scores = m.scores
    if scores.size == 0:
        raise ValueError("similarity matrix is empty")
    row_max = scores.max(axis=1)
    col_max = scores.max(axis=0)
    row_unique = (scores == row_max[:, None]).sum(axis=1) == 1
    col_unique = (scores == col_max[None, :]).sum(axis=0) == 1
    hits = np.argwhere(
        (scores == row_max[:, None])
        & (scores == col_max[None, :])
        & row_unique[:, None]
        & col_unique[None, :]
    )
    return [
        ConfidentCorrespondence(int(i), int(j), float(scores[i, j]), m.feature_tag)
        for i, j in hits
    ]


def correspondence_weights(
    per_feature: Mapping[str, Sequence[ConfidentCorrespondence]],
    cfg: FusionConfig,
) -> dict[Cell, dict[str, float]]:
    """Weight of each detection: 1/q over the q features that found the cell,
    with detections scoring above theta1 reset to theta2."""
    occurrences: dict[Cell, dict[str, float]] = {}
    for tag, corrs in per_feature.items():
        for c in corrs:
            occurrences.setdefault((c.source, c.target), {})[tag] = c.score
    out: dict[Cell, dict[str, float]] = {}
    for cell, scores_by_feature in occurrences.items():
        q = len(scores_by_feature)
        weights: dict[str, float] = {}
        for tag, score in scores_by_feature.items():
            if score > cfg.theta1:
                weights[tag] = cfg.theta2
            else:
                weights[tag] = 1.0 / q
        out[cell] = weights
    return out


def feature_weights(
    corr_weights: Mapping[Cell, Mapping[str, float]],
    features: Sequence[str],
) -> FeatureWeights:
    """Mean detection weight per feature, normalized across features.

    A feature with no detections scores 0. If no feature detected anything,
    equal weights are returned with the fallback flag set.
    """
    sums = {tag: 0.0 for tag in features}
    counts = {tag: 0 for tag in features}
    for per_feature in corr_weights.values():
        for tag, w in per_feature.items():
            if tag not in sums:
                raise ValueError(f"unknown feature {tag!r} in correspondence weights")
            sums[tag] += w
            counts[tag] += 1
    scores = {
        tag: (sums[tag] / counts[tag] if counts[tag] else 0.0) for tag in features
    }
    total = sum(scores.values())
    if total == 0:
        logger.warning(
            "no feature produced a confident correspondence; using equal weights"
        )
        return FeatureWeights(
            weights={tag: 1.0 / len(features) for tag in features}, fallback=True
        )
    return FeatureWeights(weights={tag: s / total for tag, s in scores.items()})


def _min_max(m: SimilarityMatrix) -> np.ndarray:
    """A fresh copy of ``m``'s scores scaled linearly onto [0, 1]. A matrix
    whose scores are all equal cannot be scaled and raises ValueError naming
    its feature."""
    lo, hi = m.scores.min(), m.scores.max()
    if lo == hi:
        raise ValueError(f"feature {m.feature_tag!r} has zero spread: "
                         f"every score is {lo}")
    scaled = m.scores - lo
    scaled /= hi - lo
    return scaled


def adaptive_fuse(
    matrices: Sequence[SimilarityMatrix], cfg: FusionConfig
) -> tuple[SimilarityMatrix, FusionReport]:
    """Run the full chain: scale, detect, weight, normalize, combine.

    The matrices need distinct tags and one shape; ValueError names the
    first rule broken, before anything is scaled. Two or more matrices are
    each min-max scaled to [0, 1] for detection and again for the sum, so no
    more than one scaled copy is held at a time. A single matrix is not
    scaled and gets weight exactly 1.0: its scores, not a copy, are the fused
    scores.
    """
    if not matrices:
        raise ValueError("need at least one matrix to fuse")
    tags = [m.feature_tag for m in matrices]
    for i, tag in enumerate(tags):
        if tag in tags[:i]:
            raise ValueError(f"feature tag {tag!r} appears twice")
    shape = matrices[0].scores.shape
    for m in matrices[1:]:
        if m.scores.shape != shape:
            raise ValueError(f"matrix shapes differ: {shape} vs {m.scores.shape}")
    scale = len(matrices) > 1
    per_feature = {
        m.feature_tag: confident_correspondences(
            SimilarityMatrix(_min_max(m), m.feature_tag) if scale else m)
        for m in matrices
    }
    corr_w = correspondence_weights(per_feature, cfg)
    fw = feature_weights(corr_w, tags)
    fused = matrices[0].scores
    if scale:  # one scaled copy at a time, weighted in place
        fused = np.zeros(shape)
        for m in matrices:
            part = _min_max(m)
            part *= fw.weights[m.feature_tag]
            fused += part
    return SimilarityMatrix(fused, "fused"), FusionReport(per_feature, corr_w, fw)
