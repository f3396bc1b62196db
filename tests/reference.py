"""Scalar reference implementations the tests compare the library against.

Each one computes a single quantity the plain way (one vector pair, one
entity, one candidate list, one random draw), so it is easy to check by
hand; the library's array kernels must agree with them.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from kgalign.gcn import (
    GcnParameters,
    _loss_and_gradients,
    _margin_terms,
    _sample_negative_array,
)
from kgalign.kg import KnowledgeGraph
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


def _pairwise_block(e1, e2, measure: Measure) -> tuple[np.ndarray, int]:
    """Similarities of one block pair and its count of zero ``bc`` denominators,
    each measure through fresh (rows, cols, d) temporaries."""
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
    np.divide(diff, den, out=den, where=ok)
    return 1.0 - den.sum(axis=2), events


def blocked_sim_matrix(e1, e2, measure, block: int = 128) -> tuple[np.ndarray, int]:
    """All-pairs scores and zero-denominator count, one block pair at a time."""
    e1 = np.asarray(e1, dtype=np.float64)
    e2 = np.asarray(e2, dtype=np.float64)
    measure = Measure(measure)
    out = np.empty((e1.shape[0], e2.shape[0]))
    events = 0
    for i in range(0, e1.shape[0], block):
        for j in range(0, e2.shape[0], block):
            out[i:i + block, j:j + block], n = _pairwise_block(
                e1[i:i + block], e2[j:j + block], measure
            )
            events += n
    return out, events


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


# -- structural encoder -----------------------------------------------------------

Pair = tuple[int, int]


def _grouped_negatives(
    positives: Sequence[Pair], negatives: Sequence[Sequence[Pair]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if len(negatives) != len(positives):
        raise ValueError("need one negative group per positive")
    pos = np.asarray(positives, dtype=np.int64).reshape(-1, 2)
    counts = [len(group) for group in negatives]
    flat = [pair for group in negatives for pair in group]
    neg = np.asarray(flat, dtype=np.int64).reshape(-1, 2)
    owner = np.repeat(np.arange(len(positives)), counts)
    return pos, neg, owner


def margin_loss(
    z1: np.ndarray,
    z2: np.ndarray,
    positives: Sequence[Pair],
    negatives: Sequence[Sequence[Pair]],
    margin: float,
) -> float:
    """Sum over pairs of max(0, d1(pos) - d1(neg) + margin) with L1 distances."""
    pos, neg, owner = _grouped_negatives(positives, negatives)
    terms = _margin_terms(z1, z2, pos, neg, owner, margin)[2]
    return float(np.maximum(terms, 0.0).sum())


def sample_negatives(
    positives: Sequence[Pair],
    k: int,
    rng: np.random.Generator,
    n_source: int,
    n_target: int,
) -> list[list[Pair]]:
    """The training sampler's k corrupted pairs per positive, as lists."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    pos = np.asarray(positives, dtype=np.int64).reshape(-1, 2)
    neg = _sample_negative_array(pos, k, rng, n_source, n_target)
    pairs = list(zip(neg[:, 0].tolist(), neg[:, 1].tolist()))
    return [pairs[i:i + k] for i in range(0, len(pairs), k)]


def loss_and_gradients(
    adj1,
    x1: np.ndarray,
    adj2,
    x2: np.ndarray,
    params: GcnParameters,
    positives: Sequence[Pair],
    negatives: Sequence[Sequence[Pair]],
    margin: float,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Margin loss and its analytic gradients with respect to W1 and W2."""
    pos, neg, owner = _grouped_negatives(positives, negatives)
    return _loss_and_gradients(
        adj1, adj1 @ x1, adj2, adj2 @ x2, params, pos, neg, owner, margin
    )


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


# -- word vectors and synthetic pairs -------------------------------------------

def load_word_vectors(path) -> WordVectorTable:
    """Parse a vector file one line and one array at a time."""
    vectors: dict[str, np.ndarray] = {}
    dim = None
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields:
                continue
            if line_no == 1 and len(fields) == 2:
                try:
                    _, dim = int(fields[0]), int(fields[1])
                    continue
                except ValueError:
                    pass
            vec = np.array([float(x) for x in fields[1:]], dtype=np.float64)
            if dim is None:
                dim = len(vec)
            assert len(vec) == dim
            vectors.setdefault(fields[0], vec)
    return WordVectorTable(vectors=vectors, dim=dim)


_LETTERS = string.ascii_lowercase


def _random_word(rng: np.random.Generator) -> str:
    length = int(rng.integers(4, 9))
    return "".join(_LETTERS[i] for i in rng.integers(len(_LETTERS), size=length))


def noisy(name: str, noise: float, rng: np.random.Generator) -> str:
    """One ``rng.random()`` per character: delete, substitute, insert or keep."""
    if noise <= 0:
        return name
    out = []
    for ch in name:
        op = rng.random()
        if op < noise / 3:
            continue  # delete
        if op < 2 * noise / 3:
            out.append(_LETTERS[int(rng.integers(len(_LETTERS)))])  # substitute
        elif op < noise:
            out.append(ch)
            out.append(_LETTERS[int(rng.integers(len(_LETTERS)))])  # insert after
        else:
            out.append(ch)
    return "".join(out) or name


def gen_synthetic(n, edge_prob, name_noise, rng_seed, edge_noise=0.0):
    """The scalar generator: one draw at a time, pair by pair and triple by triple."""
    rng = np.random.default_rng(rng_seed)
    n_relations = max(2, n // 20)
    vocab = [_random_word(rng) for _ in range(max(20, n // 2))]
    names: list[str] = []
    seen: set[str] = set()
    for _ in range(n):
        while True:
            name = " ".join(vocab[int(i)] for i in rng.integers(len(vocab), size=3))
            if name not in seen:
                seen.add(name)
                names.append(name)
                break
    triples = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                rel = int(rng.integers(n_relations))
                if rng.random() < 0.5:
                    triples.append((i, rel, j))
                else:
                    triples.append((j, rel, i))
    copy_triples = []
    for h, r, t in triples:
        if rng.random() < edge_noise:
            t = int(rng.integers(n))
            while t == h:
                t = int(rng.integers(n))
        copy_triples.append((h, r, t))
    copy_names = [noisy(name, name_noise, rng) for name in names]
    return names, triples, copy_names, copy_triples


def write_synthetic(out_dir, n, edge_prob, name_noise, rng_seed, edge_noise=0.0,
                    vec_dim=16) -> None:
    """The scalar generator's six files, written one line at a time."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    names, triples, copy_names, copy_triples = gen_synthetic(
        n, edge_prob, name_noise, rng_seed, edge_noise)
    sides = [("s", "r", names, triples), ("t", "q", copy_names, copy_triples)]
    for side, (prefix, rel, ents, edges) in enumerate(sides, start=1):
        with open(out_dir / f"names{side}.tsv", "w", encoding="utf-8") as fh:
            for i, name in enumerate(ents):
                fh.write(f"{prefix}{i}\t{name}\n")
        with open(out_dir / f"triples{side}.tsv", "w", encoding="utf-8") as fh:
            for h, r, t in edges:
                fh.write(f"{prefix}{h}\t{rel}{r}\t{prefix}{t}\n")
    with open(out_dir / "gold.tsv", "w", encoding="utf-8") as fh:
        for i in range(n):
            fh.write(f"s{i}\tt{i}\n")
    tokens = sorted({t for name in names + copy_names for t in tokenize(name)})
    rng = np.random.default_rng(rng_seed)
    with open(out_dir / "vectors.vec", "w", encoding="utf-8") as fh:
        fh.write(f"{len(tokens)} {vec_dim}\n")
        for token in tokens:
            vec = rng.normal(size=vec_dim)
            vec = vec / np.linalg.norm(vec)
            fh.write(token + " " + " ".join(repr(float(x)) for x in vec) + "\n")
