"""Distance measures and embedding-to-similarity-matrix conversion.

Four measures are supported. Manhattan and euclidean are the usual vector
distances; ``bray_curtis`` is the per-coordinate normalized form
sum_i |u_i - v_i| / |u_i + v_i| (the default downstream), with the textbook
aggregate form sum|u - v| / sum(u + v) available as a separate measure;
cosine yields a similarity directly. Distance scores are converted to
similarity as 1 - D with no clamping, so ``bc`` on signed word vectors
reaches -1.3e6 (a synthetic n=400 pair) where coordinates nearly cancel.
Fusion min-max scales each matrix to [0, 1] before it sums them, and the
A2C decoder scales its scores the same way, so such a range does not
swamp the other features or the policy's state; min-max does squeeze most
of such a matrix into a sliver just below 1 (ROADMAP item 13).

The four distances run through one tile loop. A tile is a rectangle of
(source, target) pairs whose (pair, coordinate) cells fit ``TILE_CELLS``,
so its buffers stay in a core's L2 cache; they are allocated once per call
and refilled in place. Every pair's distance is one contiguous sum over its
coordinates, so the scores do not depend on the tile shape. Cosine runs as
matrix products over ``COS_BLOCK``-row blocks instead: a product's last bits
depend on the shape of the blocks it is split into.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

# float64 cells per tile buffer: 2^15 cells are 256 KB, and a bc tile holds
# two such buffers and a bool per pair, well inside a 2 MB L2 cache.
TILE_CELLS = 1 << 15
COS_BLOCK = 128


class Measure(str, Enum):
    BRAY_CURTIS = "bc"
    BRAY_CURTIS_TEXTBOOK = "bct"
    MANHATTAN = "man"
    EUCLIDEAN = "euc"
    COSINE = "cos"


# The measure of the pipeline and of the features stage unless one is given.
DEFAULT_MEASURE = Measure.BRAY_CURTIS.value
MEASURES = tuple(m.value for m in Measure)


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
        # By row blocks: one bool temporary of the whole matrix would be
        # 110 MB at 10.5k x 10.5k.
        rows = max(1, TILE_CELLS // max(1, scores.shape[1]))
        for i in range(0, scores.shape[0], rows):
            if not np.isfinite(scores[i:i + rows]).all():
                raise ValueError("similarity scores must be finite")
        scores.setflags(write=False)
        self.scores = scores

    @property
    def n_src(self) -> int:
        return self.scores.shape[0]

    @property
    def n_tgt(self) -> int:
        return self.scores.shape[1]


def _unit_rows(e: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(e, axis=1)
    return e / np.where(norms == 0, 1.0, norms)[:, None]


def _cosine(e1: np.ndarray, e2: np.ndarray, out: np.ndarray) -> None:
    """Cosine of every row pair into ``out``; a zero row scores 0."""
    u1, u2 = _unit_rows(e1), _unit_rows(e2)
    b = COS_BLOCK
    for i in range(0, u1.shape[0], b):
        for j in range(0, u2.shape[0], b):
            out[i:i + b, j:j + b] = u1[i:i + b] @ u2[j:j + b].T


def _distances(
    e1: np.ndarray, e2: np.ndarray, measure: Measure, out: np.ndarray
) -> int:
    """1 - distance of every row pair into ``out``, tile by tile.

    Returns the count of ``bc`` coordinates with |u + v| = 0 < |u - v|.
    """
    d = e1.shape[1]
    pairs = max(1, TILE_CELLS // max(1, d))
    cols = max(1, min(e2.shape[0], pairs))
    rows = max(1, min(e1.shape[0], pairs // cols))
    diff = np.empty((rows, cols, d))
    if measure is Measure.BRAY_CURTIS:
        den = np.empty_like(diff)
        finite = np.empty((rows, cols), dtype=bool)
    elif measure is Measure.BRAY_CURTIS_TEXTBOOK:
        den = np.empty_like(diff)
        den_sum = np.empty((rows, cols))
    events = 0
    for i in range(0, e1.shape[0], rows):
        a = e1[i:i + rows, None, :]
        for j in range(0, e2.shape[0], cols):
            b = e2[None, j:j + cols, :]
            r, c = a.shape[0], b.shape[1]
            o = out[i:i + r, j:j + c]
            t = diff[:r, :c]
            np.subtract(a, b, out=t)
            if measure is Measure.EUCLIDEAN:
                np.square(t, out=t)
                t.sum(axis=2, out=o)
                np.sqrt(o, out=o)
            elif measure is Measure.MANHATTAN:
                np.abs(t, out=t)
                t.sum(axis=2, out=o)
            elif measure is Measure.BRAY_CURTIS_TEXTBOOK:
                np.abs(t, out=t)
                t.sum(axis=2, out=o)
                s = den_sum[:r, :c]
                np.add(a, b, out=den[:r, :c]).sum(axis=2, out=s)
                np.divide(o, s, out=o, where=s != 0)
                o[s == 0] = 0.0
            else:
                # |u - v| / |u + v| is |(u - v) / (u + v)| exactly, so one abs
                # pass is enough. A zero denominator (or an overflow) leaves
                # its pair's sum non-finite; only those pairs are redone by
                # the masked rule.
                q = np.add(a, b, out=den[:r, :c])
                with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                    np.divide(t, q, out=q)
                np.abs(q, out=q)
                q.sum(axis=2, out=o)
                f = np.isfinite(o, out=finite[:r, :c])
                if not f.all():
                    events += _bray_curtis_masked(a, b, ~f, o)
            np.subtract(1.0, o, out=o)
    return events


def _bray_curtis_masked(a, b, redo, o) -> int:
    """Bray-Curtis distance of the tile pairs where ``redo`` is set, into
    ``o``: a coordinate with |u + v| = 0 adds 0. Returns the count of those
    coordinates where |u - v| > 0."""
    rows, cols = np.nonzero(redo)
    u, v = a[rows, 0], b[0, cols]
    t = np.abs(u - v)
    q = np.abs(u + v)
    m = q > 0
    events = int(np.count_nonzero(t[~m] > 0))
    # Where |u + v| is 0 the buffer already holds the 0 the ratio takes.
    np.divide(t, q, out=q, where=m)
    o[rows, cols] = q.sum(axis=1)
    return events


def sim_matrix(
    e1: np.ndarray,
    e2: np.ndarray,
    measure: Measure,
    feature_tag: str = "",
) -> SimilarityMatrix:
    """All-pairs similarity between the rows of two embedding matrices.

    Distances are computed tile by tile in buffers of ``TILE_CELLS`` cells
    each, cosine in ``COS_BLOCK``-row blocks, so memory beyond the result
    stays bounded and the result is identical run to run.
    """
    e1 = np.asarray(e1, dtype=np.float64)
    e2 = np.asarray(e2, dtype=np.float64)
    if e1.ndim != 2 or e2.ndim != 2 or e1.shape[1] != e2.shape[1]:
        raise ValueError(f"dimension mismatch: {e1.shape} vs {e2.shape}")
    measure = Measure(measure)
    out = np.empty((e1.shape[0], e2.shape[0]))
    events = 0
    if measure is Measure.COSINE:
        _cosine(e1, e2, out)
    else:
        events = _distances(e1, e2, measure, out)
    return SimilarityMatrix(out, feature_tag or measure.value, events)
