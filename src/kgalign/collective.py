"""Collective alignment decoding.

Mutual-top-1 filtering first confirms the easy pairs. The remaining
sources are aligned sequentially by an advantage actor-critic policy whose
state combines three per-candidate signals: local similarity, an
exclusiveness flag (+1 while a target is free, -1 once it has been taken),
and a coherence count (how many targets chosen by the source's matched
neighbors are adjacent to the candidate). Rewards reuse the same signals,
so the policy learns to trade local score against global consistency
instead of enforcing a hard 1-to-1 rule.

Independent greedy, source-proposing deferred acceptance, and an optimal
assignment solver are provided as baselines.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import TrainingError, check_number
from .measures import SimilarityMatrix

MODES = ("full", "exclusiveness_only", "coherence_only")
GAMMA = 0.9  # value decay in the TD target
HIDDEN = 10  # hidden units of the actor and of the critic
# Sources ranked per argsort in build_environment: the temporaries stay
# O(block x residual targets) however many sources there are.
_ROW_BLOCK = 256


@dataclass
class RlConfig:
    actor_lr: float = 0.001
    critic_lr: float = 0.01
    tau: int = 10             # candidates kept per source
    epochs: int = 100
    rng_seed: int = 0
    preliminary_rounds: int = 2
    mode: str = "full"

    def __post_init__(self):
        check_number("actor_lr", self.actor_lr, 0, above=True)
        check_number("critic_lr", self.critic_lr, 0, above=True)
        check_number("tau", self.tau, 1, integer=True)
        check_number("epochs", self.epochs, 0, integer=True)
        check_number("rng_seed", self.rng_seed, 0, integer=True)
        check_number("preliminary_rounds", self.preliminary_rounds, 0, integer=True)
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")


@dataclass
class AlignmentResult:
    """Chosen target per source plus which stage decided it."""

    pairs: dict[int, int]
    provenance: dict[int, str]


@dataclass
class AlignmentEnvironment:
    scores: np.ndarray
    confirmed: tuple[tuple[int, int], ...]
    order: tuple[int, ...]
    state_dim: int
    # Row i is for source order[i]: its candidates and their scores; its
    # graph neighbours; and the target-graph neighbours of all its
    # candidates, flattened, with each one's candidate slot. Out-of-range
    # neighbour ids are dropped: they can never be matched.
    candidate_rows: np.ndarray
    score_rows: np.ndarray
    neighbor_sources: tuple[np.ndarray, ...]
    candidate_neighbors: tuple[np.ndarray, ...]
    candidate_slots: tuple[np.ndarray, ...]


def _as_scores(m) -> np.ndarray:
    if isinstance(m, SimilarityMatrix):
        return m.scores
    return np.asarray(m, dtype=np.float64)


def preliminary_filter(
    m, rounds: int
) -> tuple[list[tuple[int, int]], np.ndarray, np.ndarray]:
    """Confirm mutual-top-1 pairs, remove them, and repeat ``rounds`` times.

    Returns the confirmed pairs and the residual source/target index sets.
    """
    check_number("rounds", rounds, 0, integer=True)
    scores = _as_scores(m)
    src = np.arange(scores.shape[0])
    tgt = np.arange(scores.shape[1])
    confirmed: list[tuple[int, int]] = []
    for _ in range(rounds):
        if src.size == 0 or tgt.size == 0:
            break
        sub = scores[np.ix_(src, tgt)]
        best_tgt = sub.argmax(axis=1)
        best_src = sub.argmax(axis=0)
        mutual = best_src[best_tgt] == np.arange(src.size)
        if not mutual.any():
            break
        confirmed.extend(
            (int(src[i]), int(tgt[best_tgt[i]])) for i in np.flatnonzero(mutual)
        )
        src = src[~mutual]
        keep_tgt = np.ones(tgt.size, dtype=bool)
        keep_tgt[best_tgt[mutual]] = False
        tgt = tgt[keep_tgt]
    return confirmed, src, tgt


def _neighbor_lists(sets: Sequence[frozenset[int]], limit: int):
    """The ids in [0, limit) of each set, laid out as (start offsets, ids)."""
    sizes = np.fromiter(map(len, sets), np.int64, len(sets))
    ids = np.fromiter(itertools.chain.from_iterable(sets), np.int64, int(sizes.sum()))
    kept = (ids >= 0) & (ids < limit)
    start = np.zeros(len(sets) + 1, dtype=np.int64)
    np.cumsum(np.bincount(np.repeat(np.arange(len(sets)), sizes)[kept],
                          minlength=len(sets)), out=start[1:])
    return start, ids[kept]


def build_environment(
    m,
    src_neighbors: Sequence[frozenset[int]],
    tgt_neighbors: Sequence[frozenset[int]],
    cfg: RlConfig,
) -> AlignmentEnvironment:
    """Apply the preliminary filter and lay out candidates and ordering.

    Candidate lists hold the top-ranked residual targets by score, length
    min(tau, residual targets), ties to the lower target index. Sources with
    a higher best score come first, ties to the lower source index.
    """
    scores = _as_scores(m)
    n_src, n_tgt = scores.shape
    for name, sets, n in (("src_neighbors", src_neighbors, n_src),
                          ("tgt_neighbors", tgt_neighbors, n_tgt)):
        if len(sets) < n:
            raise ValueError(f"{name} has {len(sets)} entries for {n} entities")
    confirmed, res_src, res_tgt = preliminary_filter(scores, cfg.preliminary_rounds)
    state_dim = min(cfg.tau, res_tgt.size)
    top = np.empty((res_src.size, state_dim), dtype=np.int64)
    for lo in range(0, res_src.size, _ROW_BLOCK):
        block = scores[np.ix_(res_src[lo:lo + _ROW_BLOCK], res_tgt)]
        top[lo:lo + _ROW_BLOCK] = np.argsort(-block, axis=1, kind="stable")[:, :state_dim]
    cand = res_tgt[top]
    sources = res_src.tolist()
    best = (scores[res_src, cand[:, 0]].tolist() if state_dim
            else [-np.inf] * len(sources))
    rank = sorted(range(len(sources)), key=lambda i: (-best[i], sources[i]))
    order = tuple(sources[i] for i in rank)
    rows = cand[np.array(rank, dtype=np.int64)]

    src_start, src_ids = _neighbor_lists(src_neighbors, n_src)
    tgt_start, tgt_ids = _neighbor_lists(tgt_neighbors, n_tgt)
    # The target neighbours of every (source, slot) cell, cells in row-major
    # order: the cell of candidate t reads tgt_ids[tgt_start[t]:][:count].
    # Row ends cut the flat arrays into one piece per source.
    counts = (tgt_start[1:] - tgt_start[:-1])[rows].ravel()
    ends = counts.cumsum()
    picks = np.arange(ends[-1] if ends.size else 0)
    picks += np.repeat(tgt_start[rows].ravel() - ends + counts, counts)
    nbrs = tgt_ids[picks]
    slots = np.repeat(np.tile(np.arange(state_dim), len(order)), counts)
    row_ends = ends[state_dim - 1::state_dim].tolist() if state_dim else [0] * len(order)
    bounds = [0] + row_ends
    return AlignmentEnvironment(
        scores=scores,
        confirmed=tuple(confirmed),
        order=order,
        state_dim=state_dim,
        candidate_rows=rows,
        score_rows=scores[np.array(order, dtype=np.int64)[:, None], rows],
        neighbor_sources=tuple(src_ids[src_start[u]:src_start[u + 1]] for u in order),
        candidate_neighbors=tuple(nbrs[a:b] for a, b in zip(bounds, bounds[1:])),
        candidate_slots=tuple(slots[a:b] for a, b in zip(bounds, bounds[1:])),
    )


def _sample(rng: np.random.Generator, probs: np.ndarray) -> int:
    """``rng.choice(len(probs), p=probs)`` without its argument checks.

    The same algorithm as numpy's: one uniform double searched in the
    normalised cumulative sum, so it draws the same index and advances the
    generator by the same amount.
    """
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Views of consecutive pieces of ``flat``, shaped like ``shapes``."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[start:start + size].reshape(shape))
        start += size
    return views


class _Episodes:
    """The parameters and buffers of one policy's episodes over one environment.

    Each network's parameters live in one flat buffer (with a gradient
    buffer of the same layout), so a training step is one
    ``p += (lr * delta) * g`` per network. The actor's buffer holds W1, b1,
    W2, b2 and the critic's W3, b3, W4, b4, in that order, each drawn from
    uniform(-0.1, 0.1) with one draw call per buffer. The buffers, the
    per-target s2 array, the match template and the context mask are built
    once; each episode only resets the bookkeeping.
    """

    def __init__(self, env: AlignmentEnvironment, cfg: RlConfig,
                 rng: np.random.Generator):
        self.env, self.cfg = env, cfg
        k = env.state_dim
        actor_shapes = ((HIDDEN, k), (HIDDEN,), (k, HIDDEN), (k,))
        critic_shapes = ((HIDDEN, k), (HIDDEN,), (1, HIDDEN), (1,))
        n_actor = sum(map(math.prod, actor_shapes))
        n_critic = sum(map(math.prod, critic_shapes))
        self.actor_flat = rng.uniform(-0.1, 0.1, n_actor)
        self.critic_flat = rng.uniform(-0.1, 0.1, n_critic)
        self.actor_grad, self.critic_grad = np.zeros(n_actor), np.zeros(n_critic)
        self.views = (_views(self.actor_flat, actor_shapes)
                      + _views(self.critic_flat, critic_shapes))
        *self.grads, g_b4 = (_views(self.actor_grad, actor_shapes)
                             + _views(self.critic_grad, critic_shapes))
        g_b4[...] = 1.0  # every other gradient view is overwritten each step
        n_src, n_tgt = env.scores.shape
        self.s2_of = np.ones(n_tgt)
        # Unmatched sources point at the mask's spare last entry, which no
        # candidate neighbour reads.
        self.match_template = np.full(n_src, n_tgt, dtype=np.int64)
        for u, v in env.confirmed:
            self.match_template[u] = v
        self.match_of = self.match_template.copy()
        self.in_context = np.zeros(n_tgt + 1)

    def finite(self) -> bool:
        return bool(np.isfinite(self.actor_flat).all()
                    and np.isfinite(self.critic_flat).all())

    def run(self, rng: np.random.Generator, train: bool) -> dict[int, int]:
        """One pass over the source sequence; updates the parameters when training.

        Exclusiveness bookkeeping is by target identity: a per-target s2
        array turns to -1 once the target is taken, so every later candidate
        list containing it sees s2 = -1. Coherence marks the targets matched
        to the source's graph neighbours with 1.0 in a zero mask (so a target
        picked twice counts once) and sums the mask over each candidate's
        target neighbours. The reward for choosing candidate a is the state
        entry s1[a] * s2[a] + s3[a]. The pass after the last source is
        terminal (value 0 in the TD target). With no candidates
        (``state_dim == 0``) there is nothing to decide.
        """
        env, cfg = self.env, self.cfg
        decisions: dict[int, int] = {}
        order, k = env.order, env.state_dim
        if not order or k == 0:
            return decisions
        rows, score_rows = env.candidate_rows, env.score_rows
        neighbor_sources = env.neighbor_sources
        candidate_neighbors, candidate_slots = env.candidate_neighbors, env.candidate_slots
        exclusive = cfg.mode != "coherence_only"
        coherent = cfg.mode != "exclusiveness_only"
        actor_lr, critic_lr = cfg.actor_lr, cfg.critic_lr
        s2_of, match_of, in_context = self.s2_of, self.match_of, self.in_context
        s2_of.fill(1.0)
        match_of[...] = self.match_template
        in_context.fill(0.0)
        # Every call below works on vectors of at most tau or HIDDEN entries,
        # so call overhead sets the step's time: bound ndarray.dot makes the
        # same BLAS call as @ at under half its overhead, and comparing with
        # a zero vector skips converting a Python 0 on every call.
        max_reduce, add_reduce, bincount = np.maximum.reduce, np.add.reduce, np.bincount
        maximum, greater, multiply = np.maximum, np.greater, np.multiply
        zero_h, zero_k = np.zeros(HIDDEN), np.zeros(k)

        def state(i: int) -> np.ndarray:
            """Network input s1 * s2 + s3 of order[i]."""
            s1 = score_rows[i]
            s = s1 * s2_of[rows[i]] if exclusive else s1
            if not coherent:
                return s + zero_k  # s3 is zero: still turns -0.0 into +0.0
            context = match_of[neighbor_sources[i]]
            in_context[context] = 1.0
            s3 = bincount(candidate_slots[i], weights=in_context[candidate_neighbors[i]],
                          minlength=k)
            in_context[context] = 0.0
            return s + s3

        actor_flat, critic_flat = self.actor_flat, self.critic_flat
        actor_grad, critic_grad = self.actor_grad, self.critic_grad
        w1, b1, w2, b2, w3, b3, w4, b4 = self.views
        g_w1, g_b1, g_w2, g_b2, g_w3, g_b3, g_w4 = self.grads
        w4_row, c_hidden = w4[0], g_w4[0]
        actor_in, actor_out, w2_t_dot = w1.dot, w2.dot, w2.T.dot
        critic_in, critic_out = w3.dot, w4_row.dot
        g_b1_col, g_b2_col, g_b3_col = g_b1[:, None], g_b2[:, None], g_b3[:, None]
        s = state(0)
        last = len(order) - 1
        for i, u in enumerate(order):
            pre = actor_in(s) + b1
            hidden = maximum(pre, zero_h)
            logits = actor_out(hidden) + b2
            logits -= max_reduce(logits)
            probs = np.exp(logits, out=logits)
            total = add_reduce(probs)
            # After the shift the total is either in [1, k], every
            # probability then finite, or NaN, every probability NaN.
            if not math.isfinite(total):
                raise TrainingError("policy produced non-finite action probabilities")
            probs /= total
            a = _sample(rng, probs) if train else int(probs.argmax())
            v = int(rows[i, a])
            r = float(s[a])
            s2_of[v] = -1.0
            match_of[u] = v
            decisions[u] = v
            if i < last:
                nxt = state(i + 1)
            if train:
                c_pre = critic_in(s) + b3
                maximum(c_pre, zero_h, out=c_hidden)  # g_w4 is the hidden layer
                v_s = float(critic_out(c_hidden) + b4[0])
                if i < last:
                    v_next = float(critic_out(maximum(critic_in(nxt) + b3, zero_h)) + b4[0])
                else:
                    v_next = 0.0
                delta = r + GAMMA * v_next - v_s
                multiply(w4_row, greater(c_pre, zero_h), out=g_b3)
                multiply(g_b3_col, s, out=g_w3)
                # Grouped as (lr * delta) * g: regrouping would change the
                # last bits of every update.
                critic_flat += (critic_lr * delta) * critic_grad
                np.negative(probs, out=g_b2)
                g_b2[a] += 1.0
                multiply(g_b2_col, hidden, out=g_w2)
                w2_t_dot(g_b2, out=g_b1)
                multiply(g_b1, greater(pre, zero_h), out=g_b1)
                multiply(g_b1_col, s, out=g_w1)
                actor_flat += (actor_lr * delta) * actor_grad
            if i < last:
                s = nxt
        return decisions


def a2c_align(env: AlignmentEnvironment, cfg: RlConfig) -> AlignmentResult:
    """Train the policy for cfg.epochs episodes, then emit one greedy pass.

    The confirmed pairs from the preliminary filter are kept as-is; the
    greedy pass (argmax of the learned policy) decides the residual sources.
    One generator seeded with ``cfg.rng_seed`` draws the initial parameters,
    then every episode's samples.
    """
    pairs = {s: t for s, t in env.confirmed}
    provenance = {s: "preliminary" for s in pairs}
    if not env.order or env.state_dim == 0:
        return AlignmentResult(pairs=pairs, provenance=provenance)
    rng = np.random.default_rng(cfg.rng_seed)
    episodes = _Episodes(env, cfg, rng)
    for epoch in range(cfg.epochs):
        try:
            episodes.run(rng, train=True)
        except TrainingError as exc:
            raise TrainingError(f"epoch {epoch}: {exc}") from None
        if not episodes.finite():
            raise TrainingError(f"parameters became non-finite at epoch {epoch}")
    decisions = episodes.run(rng, train=False)
    for u, v in decisions.items():
        pairs[u] = v
        provenance[u] = "rl"
    return AlignmentResult(pairs=pairs, provenance=provenance)


def greedy_independent(m) -> AlignmentResult:
    """Row-wise argmax; independent decisions may reuse targets."""
    scores = _as_scores(m)
    if scores.size == 0:
        raise ValueError("similarity matrix is empty")
    picks = scores.argmax(axis=1)
    return AlignmentResult(
        pairs={int(i): int(j) for i, j in enumerate(picks)},
        provenance={int(i): "greedy" for i in range(scores.shape[0])},
    )


def _padded(scores: np.ndarray) -> tuple[np.ndarray, int, int]:
    n_src, n_tgt = scores.shape
    if n_src <= n_tgt:
        return scores, n_src, n_tgt
    sentinel = scores.min() - 1.0
    padded = np.full((n_src, n_src), sentinel)
    padded[:, :n_tgt] = scores
    return padded, n_src, n_tgt


def stable_matching(m) -> AlignmentResult:
    """Source-proposing deferred acceptance over score-induced preferences.

    Ties rank the lower index first on both sides. Extra sentinel targets
    are added when sources outnumber targets; sentinel matches are dropped
    from the output. The result admits no pair that strictly prefers each
    other over their assigned partners.
    """
    scores, n_src, n_tgt = _padded(_as_scores(m))
    prefs = np.argsort(-scores, axis=1, kind="stable")
    next_choice = np.zeros(n_src, dtype=np.int64)
    holder = {}  # target -> source currently held
    free = list(range(n_src - 1, -1, -1))
    while free:
        s = free.pop()
        t = int(prefs[s, next_choice[s]])
        next_choice[s] += 1
        if t not in holder:
            holder[t] = s
        else:
            cur = holder[t]
            if scores[s, t] > scores[cur, t]:
                holder[t] = s
                free.append(cur)
            else:
                free.append(s)
    pairs = {s: t for t, s in holder.items() if t < n_tgt}
    return AlignmentResult(
        pairs=pairs, provenance={s: "stable" for s in pairs}
    )


def hungarian(m) -> AlignmentResult:
    """Assignment maximizing total similarity (optimal 1-to-1 decoding)."""
    scores = _as_scores(m)
    rows, cols = linear_sum_assignment(scores, maximize=True)
    pairs = {int(s): int(t) for s, t in zip(rows, cols)}
    return AlignmentResult(
        pairs=pairs, provenance={s: "hungarian" for s in pairs}
    )


def count_multiplicities(result: AlignmentResult) -> tuple[int, int]:
    """(sources sharing a target with another source, targets taken more than once)."""
    counts: dict[int, int] = {}
    for t in result.pairs.values():
        counts[t] = counts.get(t, 0) + 1
    mul_se = sum(c for c in counts.values() if c > 1)
    mul_te = sum(1 for c in counts.values() if c > 1)
    return mul_se, mul_te
