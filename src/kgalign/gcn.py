"""Structural embeddings from a two-layer graph convolution.

Both graphs pass through the same pair of layer weights, so the seed
alignment pulls matching entities toward one shared space. Training
minimizes a margin hinge over L1 distances between seed pairs and corrupted
pairs, by full-batch gradient descent with hand-written backprop. The
hidden layer is rectified-linear; the output layer is linear so embeddings
can take negative values. Subgradients at the L1 and relu kinks are 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import SamplingError, TrainingError
from .kg import KnowledgeGraph, adjacency
from .stream import Stream, lemire

Pair = tuple[int, int]


@dataclass
class TrainConfig:
    dim: int = 300
    margin: float = 3.0
    epochs: int = 300
    negatives: int = 5
    learning_rate: float = 1.0
    rng_seed: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.margin <= 0:
            raise ValueError(f"margin must be > 0, got {self.margin}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.negatives < 1:
            raise ValueError(f"negatives must be >= 1, got {self.negatives}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")


@dataclass
class GcnParameters:
    """Layer weights shared by both graphs' forward passes."""

    w1: np.ndarray
    w2: np.ndarray

    def __post_init__(self):
        if self.w1.ndim != 2 or self.w2.ndim != 2:
            raise ValueError("layer weights must be matrices")
        if not (np.all(np.isfinite(self.w1)) and np.all(np.isfinite(self.w2))):
            raise ValueError("layer weights must be finite")


def truncated_normal(rng: np.random.Generator, shape, sigma: float) -> np.ndarray:
    """Normal(0, sigma) samples redrawn until every |x| <= 2 sigma."""
    out = rng.normal(0.0, sigma, size=shape)
    bad = np.abs(out) > 2 * sigma
    while np.any(bad):
        out[bad] = rng.normal(0.0, sigma, size=int(bad.sum()))
        bad = np.abs(out) > 2 * sigma
    return out


def init_features(n: int, dim: int, rng_seed: int) -> np.ndarray:
    """Truncated-normal rows (sigma = 1/sqrt(dim)), L2-normalized to unit norm."""
    if n < 1 or dim < 1:
        raise ValueError(f"need n >= 1 and dim >= 1, got n={n}, dim={dim}")
    rng = np.random.default_rng(rng_seed)
    raw = truncated_normal(rng, (n, dim), sigma=1.0 / np.sqrt(dim))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def gcn_forward(adj: sp.csr_matrix, x: np.ndarray, params: GcnParameters) -> np.ndarray:
    """Z = A_hat relu(A_hat X W1) W2."""
    n = adj.shape[0]
    if n != x.shape[0]:
        raise ValueError(f"adjacency is {n} nodes but X has {x.shape[0]} rows")
    if x.shape[1] != params.w1.shape[0]:
        raise ValueError(
            f"X has {x.shape[1]} columns but W1 expects {params.w1.shape[0]}"
        )
    hidden = np.maximum((adj @ x) @ params.w1, 0.0)
    return (adj @ hidden) @ params.w2


def _margin_terms(
    z1: np.ndarray,
    z2: np.ndarray,
    pos: np.ndarray,
    neg: np.ndarray,
    owner: np.ndarray,
    margin: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pair differences and hinge arguments d1(pos) - d1(neg) + margin."""
    diff_pos = z1[pos[:, 0]] - z2[pos[:, 1]]
    diff_neg = z1[neg[:, 0]] - z2[neg[:, 1]]
    d_pos = np.abs(diff_pos).sum(axis=1)
    d_neg = np.abs(diff_neg).sum(axis=1)
    return diff_pos, diff_neg, d_pos[owner] - d_neg + margin


_MAX_ATTEMPTS = 100
_BLOCK = 64  # fewest words per stream read: a replayed attempt rarely reads alone


def _sample_negative_array(
    pos: np.ndarray,
    k: int,
    rng: np.random.Generator,
    n_source: int,
    n_target: int,
) -> np.ndarray:
    """(len(pos) * k, 2) corrupted pairs, k per positive in order.

    Each replaces exactly one side of its positive with an entity drawn
    uniformly from that side's KG; a candidate colliding with any positive
    is redrawn, at most 100 times per slot before :class:`SamplingError`.

    Bit-for-bit the draws of a scalar loop that, per attempt, flips a coin
    with ``rng.integers(2)``, draws the replacement with ``rng.integers(n)``
    from the chosen side's pool and redraws on a collision. Each of those is
    one 32-bit draw unless Lemire's method rejects it, and a pool of one
    entity draws nothing, but its only entity is the positive's own, so that
    attempt collides (:mod:`kgalign.stream` has the draw model). So while no
    attempt collides or rejects, attempt i takes 32-bit draws 2i (coin) and
    2i + 1 (replacement), and a run of attempts is one array computation.
    The first attempt that does either is replayed draw by draw, and the
    scan resumes after it. The stream is closed on every exit, so the
    generator ends where the loop's would, on :class:`SamplingError` too.
    """
    pools = (n_source, n_target)
    if not all(1 <= n <= 2**32 for n in pools):
        raise ValueError(f"entity pools must hold 1 to 2**32 entities, got {pools}")
    if pos.size and (pos.min() < 0 or (pos.max(axis=0) >= pools).any()):
        raise ValueError("a positive pair is outside the entity pools")
    # A pair (s, t) is the key s * n_target + t. A candidate's key is the
    # part its slot keeps (row 0: target kept, row 1: source kept) plus the
    # replacement times its place value.
    bounds = np.array(pools, dtype=np.uint64)
    place = np.array([n_target, 1], dtype=np.uint64)
    src, tgt = np.repeat(pos.astype(np.uint64), k, axis=0).T
    kept = np.stack([tgt, src * bounds[1]])
    pos_keys = np.unique(pos.astype(np.uint64) @ place)
    pos_key_set = set(pos_keys.tolist())
    slots = kept.shape[1]
    keys = np.empty(slots, dtype=np.uint64)
    done = failures = 0
    stream = Stream(rng, _BLOCK)
    try:
        while done < slots:
            draws = stream.peek32(2 * (slots - done))
            side = (draws[0::2] >> 31).astype(np.intp)
            value, accepted = lemire(draws[1::2], bounds[side])
            run = kept[side, np.arange(done, slots)] + value * place[side]
            nearest = np.minimum(np.searchsorted(pos_keys, run), len(pos_keys) - 1)
            stop = np.flatnonzero((pos_keys[nearest] == run) | ~accepted)
            ok = int(stop[0]) if len(stop) else len(run)
            keys[done:done + ok] = run[:ok]
            stream.take32(2 * ok)
            done += ok
            if ok:
                failures = 0
            if done == slots:
                break

            # Replay the next attempt one draw at a time.
            coin = stream.integers(2)
            key = int(kept[coin, done]) + stream.integers(pools[coin]) * int(place[coin])
            if key not in pos_key_set:
                keys[done] = key
                done += 1
                failures = 0
                continue
            failures += 1
            if failures == _MAX_ATTEMPTS:
                s, t = pos[done // k]
                raise SamplingError(
                    f"could not corrupt pair ({s}, {t}) without colliding with "
                    f"a positive; entity pools too small"
                )
    finally:
        stream.close()
    return np.stack(np.divmod(keys, bounds[1]), axis=1).astype(np.int64)


def _loss_and_gradients(
    a1: sp.csr_matrix,
    ax1: np.ndarray,
    a2: sp.csr_matrix,
    ax2: np.ndarray,
    params: GcnParameters,
    pos: np.ndarray,
    neg: np.ndarray,
    owner: np.ndarray,
    margin: float,
) -> tuple[float, np.ndarray, np.ndarray]:
    """The epoch step, given A X and the pairs as index arrays."""
    p1 = ax1 @ params.w1
    p2 = ax2 @ params.w1
    h1 = np.maximum(p1, 0.0)
    h2 = np.maximum(p2, 0.0)
    ah1 = a1 @ h1
    ah2 = a2 @ h2
    z1 = ah1 @ params.w2
    z2 = ah2 @ params.w2

    diff_pos, diff_neg, terms = _margin_terms(z1, z2, pos, neg, owner, margin)
    active = terms > 0
    loss = float(terms[active].sum())

    # Each active term adds +sign at its positive pair and -sign at its
    # negative. Rows of Z2 follow those of Z1 in one (n1 + n2) x dim scatter;
    # every cell sums small integers, so its order cannot change the value.
    n1, dim = z1.shape
    pos_mult = np.bincount(owner[active], minlength=len(pos)).astype(np.float64)
    sgn_pos = np.sign(diff_pos) * pos_mult[:, None]
    sgn_neg = np.sign(diff_neg[active])
    rows = np.concatenate(
        [pos[:, 0], pos[:, 1] + n1, neg[active, 0], neg[active, 1] + n1]
    )
    cells = (rows[:, None] * dim + np.arange(dim)).ravel()
    signs = np.concatenate([sgn_pos, -sgn_pos, -sgn_neg, sgn_neg]).ravel()
    g = np.bincount(cells, weights=signs, minlength=(n1 + len(z2)) * dim)
    g1 = g[:n1 * dim].reshape(n1, dim)
    g2 = g[n1 * dim:].reshape(-1, dim)

    g_w2 = ah1.T @ g1 + ah2.T @ g2
    dh1 = (a1 @ (g1 @ params.w2.T)) * (p1 > 0)
    dh2 = (a2 @ (g2 @ params.w2.T)) * (p2 > 0)
    g_w1 = ax1.T @ dh1 + ax2.T @ dh2
    return loss, g_w1, g_w2


def init_parameters(rng: np.random.Generator, dim: int) -> GcnParameters:
    limit = np.sqrt(3.0 / dim)
    return GcnParameters(
        w1=rng.uniform(-limit, limit, (dim, dim)),
        w2=rng.uniform(-limit, limit, (dim, dim)),
    )


def train(
    kg1: KnowledgeGraph,
    kg2: KnowledgeGraph,
    seeds: Sequence[Pair],
    cfg: TrainConfig,
    on_epoch: Callable[[int, float], None] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Train structural embeddings for both KGs and return (Z1, Z2).

    Runs ``cfg.epochs`` full-batch gradient steps with negatives redrawn
    every epoch. ``on_epoch`` is
    called with (epoch, loss) after each update, where the loss is that of
    the parameters before the update.
    """
    if not seeds:
        raise ValueError("need at least one seed pair")
    adj1 = adjacency(kg1)
    adj2 = adjacency(kg2)
    rng = np.random.default_rng(cfg.rng_seed)
    x1 = init_features(kg1.n_entities, cfg.dim, int(rng.integers(2**31 - 1)))
    x2 = init_features(kg2.n_entities, cfg.dim, int(rng.integers(2**31 - 1)))
    params = init_parameters(rng, cfg.dim)

    ax1, ax2 = adj1 @ x1, adj2 @ x2  # X is fixed, so A X is too
    pos = np.asarray(seeds, dtype=np.int64).reshape(-1, 2)
    owner = np.repeat(np.arange(len(pos)), cfg.negatives)
    for epoch in range(cfg.epochs):
        neg = _sample_negative_array(
            pos, cfg.negatives, rng, kg1.n_entities, kg2.n_entities
        )
        loss, g_w1, g_w2 = _loss_and_gradients(
            adj1, ax1, adj2, ax2, params, pos, neg, owner, cfg.margin
        )
        if not np.isfinite(loss):
            raise TrainingError(f"loss became non-finite at epoch {epoch}")
        params.w1 -= cfg.learning_rate * g_w1
        params.w2 -= cfg.learning_rate * g_w2
        if not (np.all(np.isfinite(params.w1)) and np.all(np.isfinite(params.w2))):
            raise TrainingError(f"parameters became non-finite at epoch {epoch}")
        if on_epoch is not None:
            on_epoch(epoch, loss)
    return gcn_forward(adj1, x1, params), gcn_forward(adj2, x2, params)
