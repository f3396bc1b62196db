"""Scalar reference implementations the tests compare the library against.

Each one computes a single quantity the plain way (one vector pair, one
entity, one candidate list), so it is easy to check by hand; the library's
array kernels must agree with them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from kgalign.kg import AdjacencyMatrix, KnowledgeGraph
from kgalign.measures import Measure
from kgalign.names import WordVectorTable, levenshtein, tokenize


# -- measures -------------------------------------------------------------------

def _check_dims(u, v) -> tuple[np.ndarray, np.ndarray]:
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
    """Per-coordinate ratio sum, with 0-denominator coordinates contributing 0."""
    u, v = _check_dims(u, v)
    num = np.abs(u - v)
    den = np.abs(u + v)
    ok = den > 0
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


# -- names ----------------------------------------------------------------------

def name_embedding(name: str, table: WordVectorTable) -> np.ndarray:
    """Average the vectors of in-vocabulary tokens; zero vector if none."""
    hits = [table.vectors[t] for t in tokenize(name) if t in table.vectors]
    if not hits:
        return np.zeros(table.dim)
    return np.mean(hits, axis=0)


def _nearest_rank(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the ceil(q * n)-th smallest value."""
    n = len(sorted_values)
    rank = max(1, math.ceil(q * n))
    return sorted_values[rank - 1]


def name_distance_stats(
    pairs: Sequence[tuple[int, int]],
    src_names: Sequence[str],
    tgt_names: Sequence[str],
) -> tuple[float, float, float, float]:
    """(average, median, p10, p90) of per-pair name edit distances.

    Percentiles use the nearest-rank rule, which stays on the observed
    integer distances.
    """
    if not pairs:
        raise ValueError("need at least one gold pair")
    dists = sorted(levenshtein(src_names[s], tgt_names[t]) for s, t in pairs)
    average = sum(dists) / len(dists)
    return (
        average,
        float(_nearest_rank(dists, 0.5)),
        float(_nearest_rank(dists, 0.1)),
        float(_nearest_rank(dists, 0.9)),
    )


# -- graphs ---------------------------------------------------------------------

def neighbors(kg: KnowledgeGraph, e: int) -> set[int]:
    """Entities sharing any triple with ``e`` in either direction, minus ``e``."""
    if not 0 <= e < kg.n_entities:
        raise ValueError(f"entity index {e} out of range [0, {kg.n_entities})")
    out: set[int] = set()
    for h, _, t in kg.triples:
        if h == e:
            out.add(int(t))
        if t == e:
            out.add(int(h))
    out.discard(e)
    return out


def to_dense(adj: AdjacencyMatrix) -> np.ndarray:
    return adj.to_csr().toarray()


# -- collective decoding ------------------------------------------------------

@dataclass
class StateVector:
    """Per-candidate signals; the network input is s1 * s2 + s3."""

    s1: np.ndarray
    s2: np.ndarray
    s3: np.ndarray

    @property
    def combined(self) -> np.ndarray:
        return self.s1 * self.s2 + self.s3


def coherence_vector(
    u: int,
    matched: Mapping[int, int],
    src_neighbors: Sequence[frozenset[int]],
    tgt_neighbors: Sequence[frozenset[int]],
    candidates: np.ndarray,
) -> np.ndarray:
    """Count, per candidate, the already-chosen neighbor targets adjacent to it.

    The context is the set of targets picked by u's matched neighbors in the
    source graph; a candidate scores 1 for each context target it touches in
    the target graph.
    """
    context = {matched[w] for w in src_neighbors[u] if w in matched}
    if not context:
        return np.zeros(len(candidates))
    return np.array(
        [float(len(context & tgt_neighbors[int(c)])) for c in candidates]
    )
