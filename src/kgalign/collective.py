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

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import TrainingError
from .measures import SimilarityMatrix

MODES = ("full", "exclusiveness_only", "coherence_only")


@dataclass
class RlConfig:
    gamma: float = 0.9        # value decay in the TD target
    actor_lr: float = 0.001
    critic_lr: float = 0.01
    tau: int = 10             # candidates kept per source
    epochs: int = 100
    rng_seed: int = 0
    preliminary_rounds: int = 2
    mode: str = "full"
    hidden_dim: int = 10
    critic_hidden_dim: int = 10

    def __post_init__(self):
        if not 0 <= self.gamma <= 1:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")
        if self.actor_lr <= 0 or self.critic_lr <= 0:
            raise ValueError("learning rates must be > 0")
        if self.tau < 1:
            raise ValueError(f"tau must be >= 1, got {self.tau}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")


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


@dataclass
class StateVector:
    """Per-candidate signals; the network input is s1 * s2 + s3."""

    s1: np.ndarray
    s2: np.ndarray
    s3: np.ndarray

    @property
    def combined(self) -> np.ndarray:
        return self.s1 * self.s2 + self.s3


@dataclass
class AlignmentResult:
    """Chosen target per source plus which stage decided it."""

    pairs: dict[int, int]
    provenance: dict[int, str]


@dataclass
class AlignmentEnvironment:
    scores: np.ndarray
    confirmed: tuple[tuple[int, int], ...]
    residual_sources: np.ndarray
    residual_targets: np.ndarray
    candidates: dict[int, np.ndarray]
    order: tuple[int, ...]
    src_neighbors: tuple[frozenset[int], ...]
    tgt_neighbors: tuple[frozenset[int], ...]
    state_dim: int


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
    if rounds < 0:
        raise ValueError(f"rounds must be >= 0, got {rounds}")
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


def build_environment(
    m,
    src_neighbors: Sequence[frozenset[int]],
    tgt_neighbors: Sequence[frozenset[int]],
    cfg: RlConfig,
) -> AlignmentEnvironment:
    """Apply the preliminary filter and lay out candidates and ordering.

    Candidate lists hold the top-ranked residual targets by score, length
    min(tau, residual targets). Sources with a higher best score come first.
    """
    scores = _as_scores(m)
    confirmed, res_src, res_tgt = preliminary_filter(scores, cfg.preliminary_rounds)
    state_dim = min(cfg.tau, res_tgt.size)
    candidates: dict[int, np.ndarray] = {}
    best: dict[int, float] = {}
    for u in res_src:
        row = scores[u, res_tgt]
        top = np.argsort(-row, kind="stable")[:state_dim]
        candidates[int(u)] = res_tgt[top]
        best[int(u)] = float(row[top[0]]) if top.size else -np.inf
    order = tuple(sorted(candidates, key=lambda u: (-best[u], u)))
    return AlignmentEnvironment(
        scores=scores,
        confirmed=tuple(confirmed),
        residual_sources=res_src,
        residual_targets=res_tgt,
        candidates=candidates,
        order=order,
        src_neighbors=tuple(frozenset(s) for s in src_neighbors),
        tgt_neighbors=tuple(frozenset(s) for s in tgt_neighbors),
        state_dim=state_dim,
    )


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


def _actor_grads(s, params, action, pre, hidden, probs):
    d_logits = -probs
    d_logits[action] += 1.0
    g_w2 = d_logits[:, None] * hidden  # np.outer's own product, minus its overhead
    d_pre = (params.w2.T @ d_logits) * (pre > 0)
    return d_pre[:, None] * s, d_pre, g_w2, d_logits


def actor_forward(s: np.ndarray, params: ActorParameters) -> np.ndarray:
    """Candidate probabilities: softmax(W2 relu(W1 s + b1) + b2)."""
    return _actor_pass(s, params)[2]


def actor_log_prob_grads(
    s: np.ndarray, params: ActorParameters, action: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of log pi(action | s) with respect to the actor parameters."""
    return _actor_grads(s, params, action, *_actor_pass(s, params))


def _critic_pass(
    s: np.ndarray, params: CriticParameters
) -> tuple[np.ndarray, np.ndarray, float]:
    """Pre-activation, hidden layer and value of the critic."""
    pre = params.w3 @ s + params.b3
    hidden = np.maximum(pre, 0.0)
    return pre, hidden, float((params.w4 @ hidden + params.b4)[0])


def _critic_grads(s, params, pre, hidden):
    d_pre = params.w4[0] * (pre > 0)
    return d_pre[:, None] * s, d_pre, hidden[None, :], np.ones(1)


def critic_value(s: np.ndarray, params: CriticParameters) -> float:
    """Estimated state value: W4 relu(W3 s + b3) + b4."""
    return _critic_pass(s, params)[2]


def critic_grads(
    s: np.ndarray, params: CriticParameters
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of the value estimate with respect to the critic parameters."""
    pre, hidden, _ = _critic_pass(s, params)
    return _critic_grads(s, params, pre, hidden)


def reward(s1: np.ndarray, s2: np.ndarray, s3: np.ndarray, a: int) -> float:
    """Feedback for choosing candidate ``a``: s1[a] * s2[a] + s3[a]."""
    if not 0 <= a < len(s1):
        raise ValueError(f"action {a} out of range for {len(s1)} candidates")
    return float(s1[a] * s2[a] + s3[a])


def _sample(rng: np.random.Generator, probs: np.ndarray) -> int:
    """``rng.choice(len(probs), p=probs)`` without its argument checks.

    The same algorithm as numpy's: one uniform double searched in the
    normalised cumulative sum, so it draws the same index and advances the
    generator by the same amount.
    """
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _descend(params: tuple[np.ndarray, ...], grads, step: float) -> None:
    # step is lr * delta, grouped as (lr * delta) * g: regrouping would
    # change the last bits of every update.
    for p, g in zip(params, grads):
        p += step * g


def run_episode(
    env: AlignmentEnvironment,
    actor: ActorParameters,
    critic: CriticParameters,
    cfg: RlConfig,
    rng: np.random.Generator,
    train: bool,
    trace: list | None = None,
) -> dict[int, int]:
    """One pass over the source sequence; updates parameters when training.

    Exclusiveness bookkeeping is by target identity: a boolean mask over
    targets marks each one taken, so every later candidate list containing
    it sees s2 = -1. The pass after the last source is terminal (value 0 in
    the TD target). Each step runs the actor and the critic forward once and
    reuses their activations for the gradients; the arithmetic is the same
    as composing ``actor_forward``, ``actor_log_prob_grads``,
    ``critic_value`` and ``critic_grads``, so parameters match them bit for
    bit.
    """
    decisions: dict[int, int] = {}
    order = env.order
    if not order:
        return decisions
    scores, candidates = env.scores, env.candidates
    src_neighbors, tgt_neighbors = env.src_neighbors, env.tgt_neighbors
    exclusive = cfg.mode != "coherence_only"
    coherent = cfg.mode != "exclusiveness_only"
    gamma, actor_lr, critic_lr = cfg.gamma, cfg.actor_lr, cfg.critic_lr
    actor_arrays = (actor.w1, actor.b1, actor.w2, actor.b2)
    critic_arrays = (critic.w3, critic.b3, critic.w4, critic.b4)
    taken = np.zeros(scores.shape[1], dtype=bool)
    matched: dict[int, int] = dict(env.confirmed)

    def state(u: int) -> tuple[StateVector, np.ndarray]:
        cand = candidates[u]
        s2 = np.where(taken[cand], -1.0, 1.0) if exclusive else np.ones(len(cand))
        s3 = (
            coherence_vector(u, matched, src_neighbors, tgt_neighbors, cand)
            if coherent
            else np.zeros(len(cand))
        )
        sv = StateVector(s1=scores[u, cand].astype(np.float64), s2=s2, s3=s3)
        return sv, sv.combined

    cur, s = state(order[0])
    last = len(order) - 1
    for idx, u in enumerate(order):
        pre, hidden, probs = _actor_pass(s, actor)
        if not np.isfinite(probs).all():
            raise TrainingError("policy produced non-finite action probabilities")
        a = _sample(rng, probs) if train else int(probs.argmax())
        v = int(candidates[u][a])
        r = float(s[a])
        if trace is not None:
            trace.append((u, cur, a, r))
        taken[v] = True
        matched[u] = v
        decisions[u] = v
        nxt = state(order[idx + 1]) if idx < last else None
        if train:
            c_pre, c_hidden, v_s = _critic_pass(s, critic)
            v_next = _critic_pass(nxt[1], critic)[2] if nxt is not None else 0.0
            delta = r + gamma * v_next - v_s
            _descend(critic_arrays, _critic_grads(s, critic, c_pre, c_hidden),
                     critic_lr * delta)
            _descend(actor_arrays, _actor_grads(s, actor, a, pre, hidden, probs),
                     actor_lr * delta)
        if nxt is not None:
            cur, s = nxt
    return decisions


def _params_finite(actor: ActorParameters, critic: CriticParameters) -> bool:
    arrays = (
        actor.w1, actor.b1, actor.w2, actor.b2,
        critic.w3, critic.b3, critic.w4, critic.b4,
    )
    return all(np.all(np.isfinite(a)) for a in arrays)


def a2c_align(env: AlignmentEnvironment, cfg: RlConfig) -> AlignmentResult:
    """Train the policy for cfg.epochs episodes, then emit one greedy pass.

    The confirmed pairs from the preliminary filter are kept as-is; the
    greedy pass (argmax of the learned policy) decides the residual sources.
    """
    pairs = {s: t for s, t in env.confirmed}
    provenance = {s: "preliminary" for s in pairs}
    if not env.order or env.state_dim == 0:
        return AlignmentResult(pairs=pairs, provenance=provenance)
    rng = np.random.default_rng(cfg.rng_seed)
    actor = init_actor(rng, env.state_dim, cfg.hidden_dim)
    critic = init_critic(rng, env.state_dim, cfg.critic_hidden_dim)
    for epoch in range(cfg.epochs):
        try:
            run_episode(env, actor, critic, cfg, rng, train=True)
        except TrainingError as exc:
            raise TrainingError(f"epoch {epoch}: {exc}") from None
        if not _params_finite(actor, critic):
            raise TrainingError(f"parameters became non-finite at epoch {epoch}")
    decisions = run_episode(env, actor, critic, cfg, rng, train=False)
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
