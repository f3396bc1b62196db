"""Structural embeddings from a weightless two-layer graph convolution.

The encoder of GCN-Align (Wang et al., EMNLP 2018) without layer weights:
each entity's input row of X is a trained parameter, and its embedding is
the row of

    Z = A_hat relu(A_hat X)

where A_hat = D^(-1/2) (A + I) D^(-1/2) is its graph's normalized
adjacency. Both graphs train as one: A_hat is the block-diagonal matrix of
the two graphs' A_hat, and X stacks their inputs, source rows first. Each
CSR row sums on its own, so every row equals the per-graph product bit for
bit.

Training minimizes a margin hinge over L1 distances between seed pairs and
corrupted pairs, summed (not averaged) over its terms, so a row's gradient
does not grow or shrink with the graph and one learning rate serves every
size. It runs full-batch gradient descent on X with hand-written backprop:
an epoch is four products with A_hat, P = A_hat X and Z = A_hat relu(P)
forward, then dX = A_hat ((A_hat G) * [P > 0]) for the gradient G at Z
(A_hat is symmetric), and G is one incidence-matrix product over the seed
and negative pairs. No dense d x d product is left. The elementwise work
runs in place or in two (pairs x dim) buffers allocated once per call:
relu overwrites P, the pairs' rows are gathered into one buffer and their
signs taken into the other, and the backward product is masked, scaled by
the learning rate and subtracted without a temporary. The output layer is
linear so embeddings can take negative values. Subgradients at the L1 and
relu kinks are 0.

Training runs in float32, as the published GCN-Align code does: A_hat, X,
every per-epoch array, the incidence matrix, the pair buffers, the margin
and the learning rate. That halves the memory each epoch streams through,
and with it the time. ``init_features`` draws and normalizes in float64,
cast once, so the seeded draws do not change. Every dtype is written out,
so numpy's value-based casting (1.x) and NEP 50 (2.x) give the same bytes.
``train`` returns float64 arrays, exact casts of the float32 result, so
saved embeddings and the similarity stage keep their dtype, and a
squared row norm cannot overflow there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import SamplingError, TrainingError, check_number
from .kg import KnowledgeGraph, adjacency

Pair = tuple[int, int]

# Names the model behind `train`; the pipeline's embed stage key hashes it, so
# embeddings written by another encoder are never resumed as this one's.
ENCODER = "weightless GCN: Z = A_hat relu(A_hat X), X trained in float32"


@dataclass
class TrainConfig:
    dim: int = 300
    margin: float = 3.0
    epochs: int = 300
    negatives: int = 5
    learning_rate: float = 0.05
    rng_seed: int = 0

    def __post_init__(self):
        check_number("dim", self.dim, 1, integer=True)
        check_number("margin", self.margin, 0, above=True)
        check_number("epochs", self.epochs, 1, integer=True)
        check_number("negatives", self.negatives, 1, integer=True)
        check_number("learning_rate", self.learning_rate, 0, above=True)
        check_number("rng_seed", self.rng_seed, 0, integer=True)


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


_MAX_ATTEMPTS = 100


class _NegativeSampler:
    """Draws (len(pos) * k, 2) corrupted pairs, k per positive in order, once
    per call; everything that depends only on the positives and the pools is
    set up once, at construction.

    Each replaces exactly one side of its positive, chosen by a fair coin,
    with an entity drawn uniformly from that side's KG; a candidate colliding
    with any positive is redrawn, at most 100 times per slot before
    :class:`SamplingError`. A call is rounds of array draws over the slots
    still open: one coin and one replacement per open slot, then one lookup
    of the candidates among the positives.
    """

    def __init__(self, pos: np.ndarray, k: int, n_source: int, n_target: int):
        if not all(1 <= n <= 2**32 for n in (n_source, n_target)):
            raise ValueError(
                f"entity pools must hold 1 to 2**32 entities, got {(n_source, n_target)}")
        self.pools = np.array([n_source, n_target])
        if pos.size and (pos.min() < 0 or (pos.max(axis=0) >= self.pools).any()):
            raise ValueError("a positive pair is outside the entity pools")
        self.slots = np.repeat(pos, k, axis=0)
        self.index = np.arange(len(self.slots))
        # A pair (s, t) is the key s * n_target + t, which needs 64 bits.
        self.place = np.array([n_target, 1], dtype=np.uint64)
        self.pos_keys = np.unique(pos.astype(np.uint64) @ self.place)

    def _corrupt(self, rng: np.random.Generator, cand: np.ndarray) -> np.ndarray:
        """Replace one side of each row of ``cand`` in place; True where the
        row became a positive."""
        side = rng.integers(2, size=len(cand))
        cand[self.index[:len(cand)], side] = rng.integers(self.pools[side])
        keys = cand.astype(np.uint64) @ self.place
        nearest = np.minimum(np.searchsorted(self.pos_keys, keys), len(self.pos_keys) - 1)
        return self.pos_keys[nearest] == keys

    def __call__(self, rng: np.random.Generator) -> np.ndarray:
        out = self.slots.copy()
        # The first round draws for every slot, straight into the output;
        # each later one only for the slots whose candidate hit a positive.
        todo = np.flatnonzero(self._corrupt(rng, out))
        for _ in range(_MAX_ATTEMPTS - 1):
            if not len(todo):
                break
            cand = self.slots[todo]
            collided = self._corrupt(rng, cand)
            out[todo] = cand
            todo = todo[collided]
        if len(todo):
            s, t = self.slots[todo[0]]
            raise SamplingError(
                f"could not corrupt pair ({s}, {t}) without colliding "
                f"with a positive; entity pools too small"
            )
        return out


def _margin_gradient(
    z: np.ndarray, incidence: sp.csc_matrix, owner: np.ndarray, margin: float,
    diff: np.ndarray, sign: np.ndarray,
) -> tuple[float, np.ndarray]:
    """The summed margin loss of the stacked embeddings ``z`` and its
    gradient with respect to ``z``.

    Column j of ``incidence`` is pair j of rows of ``z``: +1 at its source
    row, then -1 at its target row. The seed pairs come first, then the
    negatives, those of seed ``i`` where ``owner == i``. Each negative adds
    the hinge term d(seed) - d(negative) + margin, d the L1 distance of a
    pair's rows. ``diff`` and ``sign`` are (pairs x dim) buffers it
    overwrites.
    """
    rows = incidence.indices.reshape(-1, 2)
    n_pos = len(rows) - len(owner)
    # The rows are in range by construction, and mode="raise" would gather
    # into a temporary first.
    np.take(z, rows[:, 0], axis=0, out=diff, mode="clip")
    np.subtract(diff, np.take(z, rows[:, 1], axis=0, out=sign, mode="clip"), out=diff)
    dist = np.abs(diff, out=sign).sum(axis=1)
    terms = dist[owner] - dist[n_pos:] + np.float32(margin)
    active = terms > 0
    loss = float(terms[active].sum())

    # An active term adds sign(diff) of its seed pair and subtracts that of
    # its negative, at the source row, and the opposite at the target row.
    # Every cell sums small integers, so its order cannot change the value.
    weight = np.concatenate(
        [np.bincount(owner[active], minlength=n_pos), -active.astype(np.float32)],
        dtype=np.float32)
    # Into another buffer: in place, np.sign runs several times slower
    # (numpy 2.4, float32).
    np.sign(diff, out=sign)
    sign *= weight[:, None]
    return loss, incidence @ sign


def train(
    kg1: KnowledgeGraph,
    kg2: KnowledgeGraph,
    seeds: Sequence[Pair],
    cfg: TrainConfig,
    on_epoch: Callable[[int, float], None] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Train structural embeddings for both KGs and return (Z1, Z2).

    Runs ``cfg.epochs`` full-batch gradient steps on the inputs X with
    negatives redrawn every epoch. ``on_epoch`` is called with (epoch, loss)
    after each update, where the loss is that of X before the update.
    Raises TrainingError when the loss or X becomes non-finite.
    """
    if not seeds:
        raise ValueError("need at least one seed pair")
    n1, n2 = kg1.n_entities, kg2.n_entities
    adj = sp.block_diag((adjacency(kg1), adjacency(kg2)), format="csr", dtype=np.float32)
    rng = np.random.default_rng(cfg.rng_seed)
    x = np.concatenate([
        init_features(n1, cfg.dim, int(rng.integers(2**31 - 1))),
        init_features(n2, cfg.dim, int(rng.integers(2**31 - 1))),
    ], dtype=np.float32)

    pos = np.asarray(seeds, dtype=np.int64).reshape(-1, 2)
    owner = np.repeat(np.arange(len(pos)), cfg.negatives)
    sample = _NegativeSampler(pos, cfg.negatives, n1, n2)
    # One column per pair of rows of the stacked Z: the seed pairs, then
    # each epoch's negatives, written into its row indices in place.
    n_pairs = len(pos) + len(owner)
    incidence = sp.csc_matrix(
        (np.tile(np.array([1, -1], dtype=np.float32), n_pairs),
         np.zeros(2 * n_pairs, dtype=np.int64), np.arange(0, 2 * n_pairs + 1, 2)),
        shape=(n1 + n2, n_pairs),
    )
    rows = incidence.indices.reshape(-1, 2)
    rows[:len(pos)] = pos + [0, n1]
    diff = np.empty((n_pairs, cfg.dim), dtype=np.float32)
    sign = np.empty((n_pairs, cfg.dim), dtype=np.float32)
    learning_rate = np.float32(cfg.learning_rate)
    for epoch in range(cfg.epochs):
        rows[len(pos):] = sample(rng) + [0, n1]
        h = adj @ x
        np.maximum(h, np.float32(0), out=h)  # relu(P): its positive cells are those of P
        loss, g = _margin_gradient(adj @ h, incidence, owner, cfg.margin, diff, sign)
        if not np.isfinite(loss):
            raise TrainingError(f"loss became non-finite at epoch {epoch}")
        # Rebinding g frees each product's operand once it is used, which
        # keeps peak memory at that of the plain expression's temporaries.
        g = adj @ g
        np.multiply(g, h > 0, out=g)
        g = adj @ g
        g *= learning_rate
        x -= g
        if not np.all(np.isfinite(x)):
            raise TrainingError(f"parameters became non-finite at epoch {epoch}")
        if on_epoch is not None:
            on_epoch(epoch, loss)
    z = (adj @ np.maximum(adj @ x, np.float32(0))).astype(np.float64)
    return z[:n1], z[n1:]
