"""Distance measures and embedding-to-similarity-matrix conversion.

Four measures are supported. Manhattan and euclidean are the usual vector
distances; ``bray_curtis`` is the per-coordinate normalized form
sum_i |u_i - v_i| / |u_i + v_i| (the default downstream), with the textbook
aggregate form sum|u - v| / sum(u + v) available as a separate measure;
cosine yields a similarity directly. Distance scores are converted to
similarity as 1 - D with no clamping: decoding only compares scores, so
values below zero are harmless.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class Measure(str, Enum):
    BRAY_CURTIS = "bc"
    BRAY_CURTIS_TEXTBOOK = "bct"
    MANHATTAN = "man"
    EUCLIDEAN = "euc"
    COSINE = "cos"


@dataclass
class SimilarityMatrix:
    """Dense source-by-target score matrix for one feature or the fused result.

    ``zero_denominators`` counts the ``bc`` coordinates with |u + v| = 0 but
    |u - v| > 0 that ``sim_matrix`` set to 0.
    """

    scores: np.ndarray
    feature_tag: str
    zero_denominators: int = 0

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        if scores.ndim != 2:
            raise ValueError(f"scores must be 2-d, got shape {scores.shape}")
        if not np.all(np.isfinite(scores)):
            raise ValueError("similarity scores must be finite")
        scores.setflags(write=False)
        self.scores = scores

    @property
    def n_src(self) -> int:
        return self.scores.shape[0]

    @property
    def n_tgt(self) -> int:
        return self.scores.shape[1]


def _pairwise_block(
    e1: np.ndarray, e2: np.ndarray, measure: Measure
) -> tuple[np.ndarray, int]:
    """Similarities of one tile and its count of zero ``bc`` denominators."""
    if measure is Measure.COSINE:
        n1 = np.linalg.norm(e1, axis=1)
        n2 = np.linalg.norm(e2, axis=1)
        n1 = np.where(n1 == 0, 1.0, n1)
        n2 = np.where(n2 == 0, 1.0, n2)
        return (e1 / n1[:, None]) @ (e2 / n2[:, None]).T, 0
    if measure is Measure.EUCLIDEAN:
        sq = ((e1[:, None, :] - e2[None, :, :]) ** 2).sum(axis=2)
        return 1.0 - np.sqrt(sq), 0
    diff = np.subtract(e1[:, None, :], e2[None, :, :])
    np.abs(diff, out=diff)
    if measure is Measure.MANHATTAN:
        return 1.0 - diff.sum(axis=2), 0
    if measure is Measure.BRAY_CURTIS_TEXTBOOK:
        den = (e1[:, None, :] + e2[None, :, :]).sum(axis=2)
        num = diff.sum(axis=2)
        out = np.zeros_like(num)
        np.divide(num, den, out=out, where=den != 0)
        return 1.0 - out, 0
    den = np.add(e1[:, None, :], e2[None, :, :])
    np.abs(den, out=den)
    ok = den > 0
    events = int(np.count_nonzero(~ok & (diff > 0)))
    # Where |u + v| is 0 the buffer already holds the 0 the ratio takes.
    np.divide(diff, den, out=den, where=ok)
    return 1.0 - den.sum(axis=2), events


def sim_matrix(
    e1: np.ndarray,
    e2: np.ndarray,
    measure: Measure,
    feature_tag: str = "",
    block: int = 128,
) -> SimilarityMatrix:
    """All-pairs similarity between the rows of two embedding matrices.

    Computed in fixed-size row/column blocks so memory stays bounded and the
    result is identical run to run.
    """
    e1 = np.asarray(e1, dtype=np.float64)
    e2 = np.asarray(e2, dtype=np.float64)
    if e1.ndim != 2 or e2.ndim != 2 or e1.shape[1] != e2.shape[1]:
        raise ValueError(f"dimension mismatch: {e1.shape} vs {e2.shape}")
    measure = Measure(measure)
    out = np.empty((e1.shape[0], e2.shape[0]))
    events = 0
    for i in range(0, e1.shape[0], block):
        for j in range(0, e2.shape[0], block):
            out[i:i + block, j:j + block], n = _pairwise_block(
                e1[i:i + block], e2[j:j + block], measure
            )
            events += n
    return SimilarityMatrix(out, feature_tag or measure.value, events)
