"""Scalar reference implementations the tests compare the library against.

Each one computes a single quantity the plain way (one vector pair, one
entity, one candidate list, one random draw), so it is easy to check by
hand; the library's array kernels must agree with them.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from kgalign.gcn import _NegativeSampler, init_features
from kgalign.errors import IntegrityError, ParseError
from kgalign.kg import KnowledgeGraph, adjacency
from kgalign.measures import Measure
from kgalign.names import WordVectorTable, tokenize


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



def bray_curtis_tiles(e1, e2, tile_cells: int) -> tuple[np.ndarray, int]:
    """``bc`` scores and zero-denominator count through the tile loop with a
    bool mask over every (pair, coordinate) cell: |u - v| and |u + v| each
    take an abs pass, and a tile with a zero |u + v| divides where the mask
    is set."""
    e1 = np.asarray(e1, dtype=np.float64)
    e2 = np.asarray(e2, dtype=np.float64)
    d = e1.shape[1]
    out = np.empty((e1.shape[0], e2.shape[0]))
    pairs = max(1, tile_cells // max(1, d))
    cols = max(1, min(e2.shape[0], pairs))
    rows = max(1, min(e1.shape[0], pairs // cols))
    diff = np.empty((rows, cols, d))
    den = np.empty_like(diff)
    ok = np.empty(diff.shape, dtype=bool)
    events = 0
    for i in range(0, e1.shape[0], rows):
        a = e1[i:i + rows, None, :]
        for j in range(0, e2.shape[0], cols):
            b = e2[None, j:j + cols, :]
            r, c = a.shape[0], b.shape[1]
            o = out[i:i + r, j:j + c]
            t = diff[:r, :c]
            np.subtract(a, b, out=t)
            np.abs(t, out=t)
            q = np.add(a, b, out=den[:r, :c])
            np.abs(q, out=q)
            m = np.greater(q, 0, out=ok[:r, :c])
            if m.all():
                np.divide(t, q, out=q)
            else:
                events += int(np.count_nonzero(t[~m] > 0))
                np.divide(t, q, out=q, where=m)
            q.sum(axis=2, out=o)
            np.subtract(1.0, o, out=o)
    return out, events

# -- names ----------------------------------------------------------------------

def levenshtein(a: str, b: str) -> int:
    """Minimal insert/delete/substitute count over Unicode scalar values."""
    if a == b:
        return 0
    # Strip shared prefix and suffix; they never change the distance.
    lo = 0
    hi_a, hi_b = len(a), len(b)
    while lo < hi_a and lo < hi_b and a[lo] == b[lo]:
        lo += 1
    while hi_a > lo and hi_b > lo and a[hi_a - 1] == b[hi_b - 1]:
        hi_a -= 1
        hi_b -= 1
    a, b = a[lo:hi_a], b[lo:hi_b]
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) < len(b):
        a, b = b, a

    tgt = np.array(list(b))
    idx = np.arange(len(b) + 1)
    prev = idx.copy()
    cur = np.empty_like(prev)
    for i, ch in enumerate(a, start=1):
        cur[0] = i
        np.minimum(prev[1:] + 1, prev[:-1] + (tgt != ch), out=cur[1:])
        # Propagate insertions along the row: cur[j] = min_k<=j cur[k] + (j - k).
        np.minimum.accumulate(cur - idx, out=cur)
        cur += idx
        prev, cur = cur, prev
    return int(prev[-1])


def lev_ratio(a: str, b: str) -> float:
    """1 - levenshtein(a, b) / max(len); two empty strings score 1."""
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein(a, b) / longest


def name_embedding(name: str, table: WordVectorTable) -> np.ndarray:
    """Average the vectors of in-vocabulary tokens; zero vector if none."""
    hits = [table.vectors[t] for t in tokenize(name) if t in table.vectors]
    if not hits:
        return np.zeros(table.dim)
    return np.mean(hits, axis=0)


# -- TSV readers -------------------------------------------------------------------

def read_tsv(path, n_fields: int):
    """Yield (line_no, fields) for each nonempty line, enforcing field count."""
    # Text mode turns \r\n and a lone \r into \n; no other character ends a line.
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    for line_no, line in enumerate(lines, start=1):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != n_fields:
            raise ParseError(
                path, line_no,
                f"expected {n_fields} tab-separated fields, got {len(fields)}",
            )
        yield line_no, fields


def load_kg(triples_path, names_path) -> KnowledgeGraph:
    """One KG, line by line: each check fires at the line that breaks it."""
    triples_path, names_path = Path(triples_path), Path(names_path)
    entity_ids: list[str] = []
    entity_names: list[str] = []
    index: dict[str, int] = {}
    for line_no, (ext_id, name) in read_tsv(names_path, 2):
        if ext_id in index:
            raise IntegrityError(
                f"{names_path}:{line_no}: duplicate entity id {ext_id!r}"
            )
        index[ext_id] = len(entity_ids)
        entity_ids.append(ext_id)
        entity_names.append(name)

    relation_ids: list[str] = []
    rel_index: dict[str, int] = {}
    rows: list[tuple[int, int, int]] = []
    for line_no, (h, r, t) in read_tsv(triples_path, 3):
        for eid in (h, t):
            if eid not in index:
                raise IntegrityError(
                    f"{triples_path}:{line_no}: entity id {eid!r} missing from "
                    f"names file {names_path}"
                )
        if r not in rel_index:
            rel_index[r] = len(relation_ids)
            relation_ids.append(r)
        rows.append((index[h], rel_index[r], index[t]))

    return KnowledgeGraph(
        entity_ids=tuple(entity_ids),
        relation_ids=tuple(relation_ids),
        triples=np.array(rows, dtype=np.int64).reshape(-1, 3),
        entity_names=tuple(entity_names),
    )


def load_alignment(path) -> list[tuple[str, str]]:
    path = Path(path)
    pairs: list[tuple[str, str]] = []
    seen_src: set[str] = set()
    seen_tgt: set[str] = set()
    for line_no, (s, t) in read_tsv(path, 2):
        if s in seen_src:
            raise IntegrityError(f"{path}:{line_no}: duplicate source id {s!r}")
        if t in seen_tgt:
            raise IntegrityError(f"{path}:{line_no}: duplicate target id {t!r}")
        seen_src.add(s)
        seen_tgt.add(t)
        pairs.append((s, t))
    return pairs


def load_result(path) -> list[tuple[str, str, str]]:
    """Result rows, line by line. A source id seen on an earlier line raises
    ParseError at its line."""
    rows = []
    seen = set()
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise ParseError(
                    path, line_no, f"expected 3 fields, got {len(fields)}"
                )
            if fields[0] in seen:
                raise ParseError(path, line_no, f"duplicate source id {fields[0]!r}")
            seen.add(fields[0])
            rows.append((fields[0], fields[1], fields[2]))
    return rows


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


def neighbor_sets(kg: KnowledgeGraph) -> tuple[frozenset[int], ...]:
    """kg.neighbor_sets as a loop over the triples, one Python set per entity."""
    sets: list[set[int]] = [set() for _ in range(kg.n_entities)]
    for h, _, t in kg.triples:
        if h != t:
            sets[h].add(int(t))
            sets[t].add(int(h))
    return tuple(frozenset(s) for s in sets)


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


def _margin_terms(z1, z2, pos, neg, owner, margin):
    """Pair differences and hinge arguments d1(pos) - d1(neg) + margin."""
    diff_pos = z1[pos[:, 0]] - z2[pos[:, 1]]
    diff_neg = z1[neg[:, 0]] - z2[neg[:, 1]]
    d_pos = np.abs(diff_pos).sum(axis=1)
    d_neg = np.abs(diff_neg).sum(axis=1)
    return diff_pos, diff_neg, d_pos[owner] - d_neg + margin


def margin_loss(
    z1: np.ndarray,
    z2: np.ndarray,
    positives: Sequence[Pair],
    negatives: Sequence[Sequence[Pair]],
    margin: float,
):
    """Sum over pairs of max(0, d1(pos) - d1(neg) + margin) with L1 distances,
    in the number type of the inputs (Fractions stay exact)."""
    pos, neg, owner = _grouped_negatives(positives, negatives)
    terms = _margin_terms(z1, z2, pos, neg, owner, margin)[2]
    return np.maximum(terms, 0).sum()


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
    return _groups(_NegativeSampler(pos, k, n_source, n_target)(rng), k)


def _groups(neg: np.ndarray, k: int) -> list[list[Pair]]:
    """(len(pos) * k, 2) negatives as one list of k pairs per positive."""
    pairs = list(zip(neg[:, 0].tolist(), neg[:, 1].tolist()))
    return [pairs[i:i + k] for i in range(0, len(pairs), k)]


def encode(adj, x: np.ndarray) -> np.ndarray:
    """One graph's embeddings Z = A_hat relu(A_hat X)."""
    return adj @ np.maximum(adj @ x, 0)


_FIXED = 2**80  # the float64 entries of A_hat and X here are multiples of 2**-80


def _fixed(a) -> np.ndarray:
    """A float array, or a sparse matrix as a dense one, times ``_FIXED`` as
    exact Python ints: products and sums of the result round nothing."""
    a = a.toarray() if sp.issparse(a) else np.asarray(a, dtype=np.float64)
    scaled = [Fraction(v) * _FIXED for v in a.ravel().tolist()]
    if any(v.denominator != 1 for v in scaled):
        raise ValueError("an entry is not a multiple of 2**-80")
    return np.array([int(v) for v in scaled], dtype=object).reshape(a.shape)


def difference_quotients(
    adj1, x1, adj2, x2, positives, negatives, margin: float, h: float = 2.0**-17
) -> tuple[np.ndarray, np.ndarray]:
    """Central difference quotients of the margin loss of ``encode`` with
    respect to each entry of X1 and X2, in exact integer arithmetic.

    The loss is piecewise linear in X, so a quotient whose step crosses no
    kink is the derivative itself. Cancelling terms make many derivatives
    exactly 0; a float64 quotient carries rounding noise of about 2e-10 there.
    """
    a1, a2 = _fixed(adj1), _fixed(adj2)
    xs = [_fixed(x1), _fixed(x2)]
    step = Fraction(h) * _FIXED
    fixed_margin = Fraction(margin) * _FIXED**3  # Z carries _FIXED**3
    if step.denominator != 1 or fixed_margin.denominator != 1:
        raise ValueError("the step and the margin must be multiples of 2**-80")

    def loss():
        return margin_loss(encode(a1, xs[0]), encode(a2, xs[1]), positives,
                           negatives, int(fixed_margin))

    quotients = []
    for x in xs:
        out = np.empty(x.shape)
        for idx in np.ndindex(x.shape):
            orig = x[idx]
            x[idx] = orig + int(step)
            up = loss()
            x[idx] = orig - int(step)
            down = loss()
            x[idx] = orig
            out[idx] = (up - down) / (2 * int(step) * _FIXED**2)
        quotients.append(out)
    return quotients[0], quotients[1]


def loss_and_gradients(
    adj1,
    x1: np.ndarray,
    adj2,
    x2: np.ndarray,
    positives: Sequence[Pair],
    negatives: Sequence[Sequence[Pair]],
    margin: float,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Margin loss and its gradients with respect to X1 and X2, graph by graph.

    The gradient G at each Z is scattered pair by pair; each cell sums small
    integers, so it equals any other summation order exactly.
    """
    pos, neg, owner = _grouped_negatives(positives, negatives)
    p1, p2 = adj1 @ x1, adj2 @ x2
    z1, z2 = adj1 @ np.maximum(p1, 0.0), adj2 @ np.maximum(p2, 0.0)
    diff_pos, diff_neg, terms = _margin_terms(z1, z2, pos, neg, owner, margin)
    active = terms > 0
    loss = float(terms[active].sum())
    g1, g2 = np.zeros_like(z1), np.zeros_like(z2)
    for i in np.flatnonzero(active):
        sgn_pos = np.sign(diff_pos[owner[i]])
        sgn_neg = np.sign(diff_neg[i])
        np.add.at(g1, pos[owner[i], 0], sgn_pos)
        np.add.at(g2, pos[owner[i], 1], -sgn_pos)
        np.add.at(g1, neg[i, 0], -sgn_neg)
        np.add.at(g2, neg[i, 1], sgn_neg)
    dx1 = adj1 @ ((adj1 @ g1) * (p1 > 0))
    dx2 = adj2 @ ((adj2 @ g2) * (p2 > 0))
    return loss, dx1, dx2


def train_per_graph(kg1, kg2, seeds, cfg, on_epoch) -> tuple[np.ndarray, np.ndarray]:
    """``gcn.train`` with each graph's products on its own adjacency: the
    same draws (the sampler's, a block of epochs at a time), float32 casts,
    epoch and update, with no block-diagonal matrix."""
    adj1, adj2 = adjacency(kg1).astype(np.float32), adjacency(kg2).astype(np.float32)
    rng = np.random.default_rng(cfg.rng_seed)
    x1 = init_features(kg1.n_entities, cfg.dim, int(rng.integers(2**31 - 1)))
    x2 = init_features(kg2.n_entities, cfg.dim, int(rng.integers(2**31 - 1)))
    x1, x2 = x1.astype(np.float32), x2.astype(np.float32)
    margin, learning_rate = np.float32(cfg.margin), np.float32(cfg.learning_rate)
    sampler = _NegativeSampler(np.asarray(seeds, dtype=np.int64).reshape(-1, 2),
                               cfg.negatives, kg1.n_entities, kg2.n_entities)
    for epoch, neg in enumerate(sampler.each_epoch(rng, cfg.epochs)):
        negatives = _groups(neg, cfg.negatives)
        loss, dx1, dx2 = loss_and_gradients(adj1, x1, adj2, x2, seeds, negatives, margin)
        x1 -= learning_rate * dx1
        x2 -= learning_rate * dx2
        on_epoch(epoch, loss)
    return encode(adj1, x1).astype(np.float64), encode(adj2, x2).astype(np.float64)


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
    """Count, per candidate, the already-chosen neighbor targets adjacent to
    it, capped at 1.

    The context is the set of targets picked by u's matched neighbors in the
    source graph; a candidate scores 1 if it touches any context target in
    the target graph.
    """
    context = {matched[w] for w in src_neighbors[u] if w in matched}
    if not context:
        return np.zeros(len(candidates))
    return np.array(
        [float(min(1, len(context & tgt_neighbors[int(c)]))) for c in candidates]
    )


@dataclass
class ActorParameters:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


@dataclass
class CriticParameters:
    w3: np.ndarray
    b3: np.ndarray
    w4: np.ndarray
    b4: np.ndarray


def init_actor(rng: np.random.Generator, state_dim: int, hidden: int) -> ActorParameters:
    return ActorParameters(
        w1=rng.uniform(-0.1, 0.1, (hidden, state_dim)),
        b1=rng.uniform(-0.1, 0.1, hidden),
        w2=rng.uniform(-0.1, 0.1, (state_dim, hidden)),
        b2=rng.uniform(-0.1, 0.1, state_dim),
    )


def init_critic(rng: np.random.Generator, state_dim: int, hidden: int) -> CriticParameters:
    return CriticParameters(
        w3=rng.uniform(-0.1, 0.1, (hidden, state_dim)),
        b3=rng.uniform(-0.1, 0.1, hidden),
        w4=rng.uniform(-0.1, 0.1, (1, hidden)),
        b4=rng.uniform(-0.1, 0.1, 1),
    )


def _actor_pass(
    s: np.ndarray, params: ActorParameters
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pre-activation, hidden layer and probabilities of the actor."""
    pre = params.w1 @ s + params.b1
    hidden = np.maximum(pre, 0.0)
    logits = params.w2 @ hidden + params.b2
    logits = logits - logits.max()
    exp = np.exp(logits)
    return pre, hidden, exp / exp.sum()


def actor_forward(s: np.ndarray, params: ActorParameters) -> np.ndarray:
    """Candidate probabilities: softmax(W2 relu(W1 s + b1) + b2)."""
    return _actor_pass(s, params)[2]


def actor_log_prob_grads(
    s: np.ndarray, params: ActorParameters, action: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of log pi(action | s) with respect to the actor parameters."""
    pre, hidden, probs = _actor_pass(s, params)
    d_logits = -probs
    d_logits[action] += 1.0
    d_pre = (params.w2.T @ d_logits) * (pre > 0)
    return d_pre[:, None] * s, d_pre, d_logits[:, None] * hidden, d_logits


def _critic_pass(
    s: np.ndarray, params: CriticParameters
) -> tuple[np.ndarray, np.ndarray, float]:
    """Pre-activation, hidden layer and value of the critic."""
    pre = params.w3 @ s + params.b3
    hidden = np.maximum(pre, 0.0)
    return pre, hidden, float((params.w4 @ hidden + params.b4)[0])


def critic_value(s: np.ndarray, params: CriticParameters) -> float:
    """Estimated state value: W4 relu(W3 s + b3) + b4."""
    return _critic_pass(s, params)[2]


def critic_grads(
    s: np.ndarray, params: CriticParameters
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of the value estimate with respect to the critic parameters."""
    pre, hidden, _ = _critic_pass(s, params)
    d_pre = params.w4[0] * (pre > 0)
    return d_pre[:, None] * s, d_pre, hidden[None, :], np.ones(1)


def reward(s1: np.ndarray, s2: np.ndarray, s3: np.ndarray, a: int) -> float:
    """Feedback for choosing candidate ``a``: s1[a] * s2[a] + s3[a]."""
    if not 0 <= a < len(s1):
        raise ValueError(f"action {a} out of range for {len(s1)} candidates")
    return float(s1[a] * s2[a] + s3[a])


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
