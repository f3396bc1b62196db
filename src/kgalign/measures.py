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

_zero_denom_events = 0


def zero_denominator_events() -> int:
    """Count of coordinates where |u+v| = 0 but |u-v| > 0 was forced to 0."""
    return _zero_denom_events


def reset_zero_denominator_events() -> None:
    global _zero_denom_events
    _zero_denom_events = 0


class Measure(str, Enum):
    BRAY_CURTIS = "bc"
    BRAY_CURTIS_TEXTBOOK = "bct"
    MANHATTAN = "man"
    EUCLIDEAN = "euc"
    COSINE = "cos"


@dataclass
class SimilarityMatrix:
    """Dense source-by-target score matrix for one feature or the fused result."""

    scores: np.ndarray
    feature_tag: str

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


def _check_dims(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    return u, v


def manhattan(u, v) -> float:
    u, v = _check_dims(u, v)
    return float(np.abs(u - v).sum())


def euclidean(u, v) -> float:
    u, v = _check_dims(u, v)
    return float(np.sqrt(((u - v) ** 2).sum()))


def bray_curtis(u, v) -> float:
    """Per-coordinate ratio sum, with 0-denominator coordinates contributing 0.

    A coordinate with |u_i + v_i| = 0 and |u_i - v_i| > 0 has no finite
    ratio; it contributes 0 and the event is counted in the module
    diagnostics (see :func:`zero_denominator_events`).
    """
    global _zero_denom_events
    u, v = _check_dims(u, v)
    num = np.abs(u - v)
    den = np.abs(u + v)
    ok = den > 0
    _zero_denom_events += int(np.count_nonzero(~ok & (num > 0)))
    return float((num[ok] / den[ok]).sum())


def bray_curtis_textbook(u, v) -> float:
    """Aggregate form sum|u - v| / sum(u + v); 0 when the denominator is 0."""
    u, v = _check_dims(u, v)
    den = float((u + v).sum())
    if den == 0:
        return 0.0
    return float(np.abs(u - v).sum() / den)


def cosine_sim(u, v) -> float:
    """Cosine similarity; defined as 0 when either vector is all zero."""
    u, v = _check_dims(u, v)
    nu = np.sqrt((u * u).sum())
    nv = np.sqrt((v * v).sum())
    if nu == 0 or nv == 0:
        return 0.0
    return float((u * v).sum() / (nu * nv))


def similarity(u, v, measure: Measure) -> float:
    """Similarity under ``measure``: 1 - distance, or cosine directly."""
    measure = Measure(measure)
    if measure is Measure.COSINE:
        return cosine_sim(u, v)
    if measure is Measure.MANHATTAN:
        return 1.0 - manhattan(u, v)
    if measure is Measure.EUCLIDEAN:
        return 1.0 - euclidean(u, v)
    if measure is Measure.BRAY_CURTIS_TEXTBOOK:
        return 1.0 - bray_curtis_textbook(u, v)
    return 1.0 - bray_curtis(u, v)


def _pairwise_block(e1: np.ndarray, e2: np.ndarray, measure: Measure) -> np.ndarray:
    global _zero_denom_events
    if measure is Measure.COSINE:
        n1 = np.linalg.norm(e1, axis=1)
        n2 = np.linalg.norm(e2, axis=1)
        n1 = np.where(n1 == 0, 1.0, n1)
        n2 = np.where(n2 == 0, 1.0, n2)
        return (e1 / n1[:, None]) @ (e2 / n2[:, None]).T
    if measure is Measure.EUCLIDEAN:
        sq = ((e1[:, None, :] - e2[None, :, :]) ** 2).sum(axis=2)
        return 1.0 - np.sqrt(sq)
    diff = np.subtract(e1[:, None, :], e2[None, :, :])
    np.abs(diff, out=diff)
    if measure is Measure.MANHATTAN:
        return 1.0 - diff.sum(axis=2)
    if measure is Measure.BRAY_CURTIS_TEXTBOOK:
        den = (e1[:, None, :] + e2[None, :, :]).sum(axis=2)
        num = diff.sum(axis=2)
        out = np.zeros_like(num)
        np.divide(num, den, out=out, where=den != 0)
        return 1.0 - out
    den = np.add(e1[:, None, :], e2[None, :, :])
    np.abs(den, out=den)
    ok = den > 0
    _zero_denom_events += int(np.count_nonzero(~ok & (diff > 0)))
    # Where |u + v| is 0 the buffer already holds the 0 the ratio takes.
    np.divide(diff, den, out=den, where=ok)
    return 1.0 - den.sum(axis=2)


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
    for i in range(0, e1.shape[0], block):
        for j in range(0, e2.shape[0], block):
            out[i:i + block, j:j + block] = _pairwise_block(
                e1[i:i + block], e2[j:j + block], measure
            )
    return SimilarityMatrix(out, feature_tag or measure.value)
