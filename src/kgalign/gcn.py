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

from .errors import SamplingError, TrainingError
from .kg import AdjacencyMatrix, KnowledgeGraph, adjacency

Pair = tuple[int, int]


@dataclass
class TrainConfig:
    dim: int = 300
    margin: float = 3.0
    epochs: int = 300
    negatives: int = 5
    learning_rate: float = 1.0
    rng_seed: int = 0
    resample_negatives: bool = True  # fresh corruption every epoch

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


def gcn_forward(adj: AdjacencyMatrix, x: np.ndarray, params: GcnParameters) -> np.ndarray:
    """Z = A_hat relu(A_hat X W1) W2."""
    if adj.n != x.shape[0]:
        raise ValueError(f"adjacency is {adj.n} nodes but X has {x.shape[0]} rows")
    if x.shape[1] != params.w1.shape[0]:
        raise ValueError(
            f"X has {x.shape[1]} columns but W1 expects {params.w1.shape[0]}"
        )
    hidden = np.maximum(adj.matmul(x) @ params.w1, 0.0)
    return adj.matmul(hidden) @ params.w2


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


_MAX_ATTEMPTS = 100
_WORD = 2**32  # numpy draws an integer below 2**32 from 32-bit words


def _draw_words(rng: np.random.Generator, count: int) -> np.ndarray:
    return rng.integers(0, _WORD, size=count, dtype=np.uint32).astype(np.uint64)


def _sample_negative_array(
    pos: np.ndarray,
    k: int,
    rng: np.random.Generator,
    n_source: int,
    n_target: int,
) -> np.ndarray:
    """(len(pos) * k, 2) corrupted pairs, k per positive in order.

    Bit-for-bit the draws of a scalar loop that, per attempt, flips a coin
    with ``rng.integers(2)``, draws the replacement with ``rng.integers(n)``
    from the chosen side's pool and redraws on a collision with a positive,
    at most 100 times per slot. numpy answers ``rng.integers(n)`` for
    ``n <= 2**32`` with Lemire's method on 32-bit words: ``(word * n) >> 32``,
    unless ``(word * n) mod 2**32 < (2**32 - n) mod n``, when it rejects the
    word and reads the next; a pool of one entity reads no word, but its
    only entity is the positive's own, so that attempt collides. So while
    no attempt collides or rejects, attempt i reads words 2i (coin) and
    2i + 1 (replacement), and a run of attempts is one array computation.
    The first attempt that does either is replayed word by word, and the
    scan resumes after it. A filled slot reads at least two words, and words
    are drawn only as far as that bound, so the generator ends where the
    loop's would; on :class:`SamplingError` it is rewound and advanced by
    the words read.
    """
    pools = (n_source, n_target)
    if not all(1 <= n <= _WORD for n in pools):
        raise ValueError(f"entity pools must hold 1 to 2**32 entities, got {pools}")
    if pos.size and (pos.min() < 0 or (pos.max(axis=0) >= pools).any()):
        raise ValueError("a positive pair is outside the entity pools")
    # A pair (s, t) is the key s * n_target + t. A candidate's key is the
    # part its slot keeps (row 0: target kept, row 1: source kept) plus the
    # replacement times its place value.
    bounds = np.array(pools, dtype=np.uint64)
    thresholds = (_WORD - bounds) % bounds
    place = np.array([n_target, 1], dtype=np.uint64)
    src, tgt = np.repeat(pos.astype(np.uint64), k, axis=0).T
    kept = np.stack([tgt, src * bounds[1]])
    pos_keys = np.unique(pos.astype(np.uint64) @ place)
    pos_key_set = set(pos_keys.tolist())
    slots = kept.shape[1]
    keys = np.empty(slots, dtype=np.uint64)
    start = rng.bit_generator.state
    words = np.empty(0, dtype=np.uint64)  # drawn but not yet read
    drawn = done = failures = 0

    def draw(count: int) -> None:
        nonlocal words, drawn
        words = np.concatenate([words, _draw_words(rng, count)])
        drawn += count

    def read() -> int:
        nonlocal words
        if not len(words):
            draw(1)
        word, words = int(words[0]), words[1:]
        return word

    while done < slots:
        short = 2 * (slots - done) - len(words)
        if short > 0:
            draw(short)
        span = slots - done
        side = (words[0:2 * span:2] >> 31).astype(np.intp)
        scaled = words[1:2 * span:2] * bounds[side]
        run = kept[side, np.arange(done, done + span)] + (scaled >> 32) * place[side]
        nearest = np.minimum(np.searchsorted(pos_keys, run), len(pos_keys) - 1)
        hit = pos_keys[nearest] == run
        rejected = (scaled & 0xFFFFFFFF) < thresholds[side]
        stop = np.flatnonzero(hit | rejected)
        ok = int(stop[0]) if len(stop) else span
        keys[done:done + ok] = run[:ok]
        words = words[2 * ok:]
        done += ok
        if ok:
            failures = 0
        if done == slots:
            break

        # Replay the next attempt one word at a time.
        coin = read() >> 31
        m = 0
        if pools[coin] > 1:
            m = read() * pools[coin]
            while m % _WORD < thresholds[coin]:
                m = read() * pools[coin]
        key = int(kept[coin, done]) + (m >> 32) * int(place[coin])
        if key not in pos_key_set:
            keys[done] = key
            done += 1
            failures = 0
            continue
        failures += 1
        if failures == _MAX_ATTEMPTS:
            # The loop stops here, short of the slots words were drawn for.
            rng.bit_generator.state = start
            _draw_words(rng, drawn - len(words))
            s, t = pos[done // k]
            raise SamplingError(
                f"could not corrupt pair ({s}, {t}) without colliding with "
                f"a positive; entity pools too small"
            )
    return np.stack(np.divmod(keys, bounds[1]), axis=1).astype(np.int64)


def sample_negatives(
    positives: Sequence[Pair],
    k: int,
    rng: np.random.Generator,
    n_source: int,
    n_target: int,
) -> list[list[Pair]]:
    """k corrupted pairs per positive, each replacing exactly one side.

    The replacement entity is drawn uniformly from the owning KG; a candidate
    colliding with any positive pair is redrawn, at most 100 times per
    slot before :class:`SamplingError`.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    pos = np.asarray(positives, dtype=np.int64).reshape(-1, 2)
    neg = _sample_negative_array(pos, k, rng, n_source, n_target)
    pairs = list(zip(neg[:, 0].tolist(), neg[:, 1].tolist()))
    return [pairs[i:i + k] for i in range(0, len(pairs), k)]


def _loss_and_gradients(
    adj1: AdjacencyMatrix,
    ax1: np.ndarray,
    adj2: AdjacencyMatrix,
    ax2: np.ndarray,
    params: GcnParameters,
    pos: np.ndarray,
    neg: np.ndarray,
    owner: np.ndarray,
    margin: float,
) -> tuple[float, np.ndarray, np.ndarray]:
    """The epoch step, given A X and the pairs as index arrays."""
    a1, a2 = adj1.to_csr(), adj2.to_csr()
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


def loss_and_gradients(
    adj1: AdjacencyMatrix,
    x1: np.ndarray,
    adj2: AdjacencyMatrix,
    x2: np.ndarray,
    params: GcnParameters,
    positives: Sequence[Pair],
    negatives: Sequence[Sequence[Pair]],
    margin: float,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Margin loss and its analytic gradients with respect to W1 and W2."""
    pos, neg, owner = _grouped_negatives(positives, negatives)
    return _loss_and_gradients(
        adj1, adj1.matmul(x1), adj2, adj2.matmul(x2), params, pos, neg, owner, margin
    )


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

    Runs ``cfg.epochs`` full-batch gradient steps; negatives are redrawn
    every epoch unless ``cfg.resample_negatives`` is off. ``on_epoch`` is
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

    ax1, ax2 = adj1.matmul(x1), adj2.matmul(x2)  # X is fixed, so A X is too
    pos = np.asarray(seeds, dtype=np.int64).reshape(-1, 2)
    owner = np.repeat(np.arange(len(pos)), cfg.negatives)
    neg = None
    for epoch in range(cfg.epochs):
        if neg is None or cfg.resample_negatives:
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
