"""Collective decoding: filtering, the actor-critic aligner, and baselines."""

import functools
import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgalign import collective
from kgalign.collective import (
    GAMMA,
    HIDDEN,
    MODES,
    AlignmentResult,
    RlConfig,
    _Episodes,
    _sample,
    a2c_align,
    build_environment,
    count_multiplicities,
    greedy_independent,
    hungarian,
    preliminary_filter,
    stable_matching,
)
from kgalign.errors import TrainingError

from reference import (
    StateVector,
    actor_forward,
    actor_log_prob_grads,
    coherence_vector,
    critic_grads,
    critic_value,
    init_actor,
    init_critic,
    reward,
)

# A 4-source scenario where decoding strategy drives accuracy: the gold
# match is the diagonal, greedy lands 1/4, a 1-to-1 matching lands 2/4, and
# coordinated decoding can reach 3/4 or better. Both graphs are the path
# 0-1-2-3, so neighbors of matched pairs carry a usable coherence signal.
SCENARIO_MATRIX = np.array(
    [
        [0.95, 0.30, 0.18, 0.10],
        [0.90, 0.45, 0.42, 0.12],
        [0.28, 0.85, 0.35, 0.20],
        [0.08, 0.80, 0.22, 0.60],
    ]
)
SCENARIO_NEIGHBORS = (
    frozenset({1}),
    frozenset({0, 2}),
    frozenset({1, 3}),
    frozenset({2}),
)


def scenario_env(seed, epochs=1000, mode="full", prelim_rounds=0):
    cfg = RlConfig(
        tau=10, epochs=epochs, rng_seed=seed, preliminary_rounds=prelim_rounds,
        mode=mode, actor_lr=0.01, critic_lr=0.05,
    )
    env = build_environment(
        SCENARIO_MATRIX, SCENARIO_NEIGHBORS, SCENARIO_NEIGHBORS, cfg
    )
    return env, cfg


def mutual_argmax_oracle(scores, rounds):
    """Reference reimplementation by direct scanning."""
    src = list(range(scores.shape[0]))
    tgt = list(range(scores.shape[1]))
    confirmed = []
    for _ in range(rounds):
        if not src or not tgt:
            break
        found = []
        for i in src:
            j = max(tgt, key=lambda t: (scores[i, t], -t))
            back = max(src, key=lambda s: (scores[s, j], -s))
            if back == i:
                found.append((i, j))
        if not found:
            break
        confirmed.extend(found)
        for i, j in found:
            src.remove(i)
            tgt.remove(j)
    return confirmed, src, tgt


def scaled_scores(scores, u, cand):
    """Row u's scores at ``cand``, min-max scaled by the whole matrix's range
    (left at 0 when the range is empty)."""
    lo, hi = scores.min(), scores.max()
    s1 = scores[u, cand] - lo
    return s1 / (hi - lo) if hi > lo else s1


def reference_state(env, idx, neighbors, chosen, matched, mode):
    """The state of order[idx] as the per-step loop built it: s1 scaled by
    the matrix's range, every target chosen so far in a set, np.isin, and
    coherence_vector over the neighbour lists given to build_environment."""
    u = env.order[idx]
    cand = env.candidate_rows[idx]
    s1 = scaled_scores(env.scores, u, cand)
    s2 = np.ones(len(cand))
    if mode != "coherence_only" and chosen:
        s2[np.isin(cand, sorted(chosen))] = -1.0
    if mode == "exclusiveness_only":
        s3 = np.zeros(len(cand))
    else:
        s3 = coherence_vector(u, matched, *neighbors, cand)
    return StateVector(s1=s1, s2=s2, s3=s3)


def reference_episode(env, actor, critic, cfg, rng, train, neighbors):
    """One episode composed from the reference helpers, one call per quantity;
    ``neighbors`` is the (source, target) neighbour lists of the environment."""
    chosen = set()
    matched = dict(env.confirmed)
    decisions = {}
    order = env.order
    if not order or env.state_dim == 0:
        return decisions
    state = reference_state(env, 0, neighbors, chosen, matched, cfg.mode)
    for idx, u in enumerate(order):
        probs = actor_forward(state.combined, actor)
        if not np.all(np.isfinite(probs)):
            raise TrainingError("policy produced non-finite action probabilities")
        if train:
            a = int(rng.choice(len(probs), p=probs))
        else:
            a = int(np.argmax(probs))
        v = int(env.candidate_rows[idx, a])
        r = reward(state.s1, state.s2, state.s3, a)
        chosen.add(v)
        matched[u] = v
        decisions[u] = v
        next_state = (
            reference_state(env, idx + 1, neighbors, chosen, matched, cfg.mode)
            if idx + 1 < len(order)
            else None
        )
        if train:
            s_vec = state.combined
            v_s = critic_value(s_vec, critic)
            v_next = critic_value(next_state.combined, critic) if next_state else 0.0
            delta = r + GAMMA * v_next - v_s
            g_w3, g_b3, g_w4, g_b4 = critic_grads(s_vec, critic)
            critic.w3 += cfg.critic_lr * delta * g_w3
            critic.b3 += cfg.critic_lr * delta * g_b3
            critic.w4 += cfg.critic_lr * delta * g_w4
            critic.b4 += cfg.critic_lr * delta * g_b4
            g_w1, g_b1, g_w2, g_b2 = actor_log_prob_grads(s_vec, actor, a)
            actor.w1 += cfg.actor_lr * delta * g_w1
            actor.b1 += cfg.actor_lr * delta * g_b1
            actor.w2 += cfg.actor_lr * delta * g_w2
            actor.b2 += cfg.actor_lr * delta * g_b2
        state = next_state
    return decisions


def random_neighbors(rng, n, p):
    adj = np.triu(rng.random((n, n)) < p, 1)
    adj = adj | adj.T
    return tuple(frozenset(np.flatnonzero(row).tolist()) for row in adj)


def per_row_layout(scores, cfg):
    """build_environment's candidates and order as a per-source loop builds them."""
    _, res_src, res_tgt = preliminary_filter(scores, cfg.preliminary_rounds)
    state_dim = min(cfg.tau, res_tgt.size)
    candidates, best = {}, {}
    for u in res_src:
        row = scores[u, res_tgt]
        top = np.argsort(-row, kind="stable")[:state_dim]
        candidates[int(u)] = res_tgt[top]
        best[int(u)] = float(row[top[0]]) if top.size else -np.inf
    return candidates, tuple(sorted(candidates, key=lambda u: (-best[u], u)))


class ReferenceEpisodes:
    """reference_episode behind the interface of ``_Episodes``: the
    parameters are drawn from ``rng`` on construction, and ``actor_flat``
    and ``critic_flat`` lay them out as its flat buffers."""

    def __init__(self, env, cfg, rng, neighbors):
        self.env, self.cfg, self.neighbors = env, cfg, neighbors
        self.actor = init_actor(rng, env.state_dim, HIDDEN)
        self.critic = init_critic(rng, env.state_dim, HIDDEN)

    def run(self, rng, train):
        return reference_episode(self.env, self.actor, self.critic, self.cfg, rng,
                                 train, self.neighbors)

    @property
    def actor_flat(self):
        a = self.actor
        return np.concatenate([np.ravel(x) for x in (a.w1, a.b1, a.w2, a.b2)])

    @property
    def critic_flat(self):
        c = self.critic
        return np.concatenate([np.ravel(x) for x in (c.w3, c.b3, c.w4, c.b4)])


def parameters(episodes):
    return episodes.actor_flat.copy(), episodes.critic_flat.copy()


def run_against_reference(env, neighbors, cfg, episodes):
    """Train ``episodes`` episodes and run the greedy pass with ``_Episodes``
    and with ``ReferenceEpisodes`` from the same seed.

    Each run gives its per-episode decisions (a TrainingError's message in
    place of the failing episode's, which ends the run), the actor's and
    the critic's flat parameters before the last episode run and at the
    end, and the next draw of its generator.
    """
    runs = []
    reference = functools.partial(ReferenceEpisodes, neighbors=neighbors)
    for make in (_Episodes, reference):
        rng = np.random.default_rng(cfg.rng_seed)
        policy = make(env, cfg, rng)
        outcomes = []
        for train in [True] * episodes + [False]:
            before = parameters(policy)
            try:
                outcomes.append(policy.run(rng, train))
            except TrainingError as exc:
                outcomes.append(str(exc))
                break
        runs.append((outcomes, before, parameters(policy), rng.random()))
    return runs


def assert_same_runs(runs):
    (got, got_before, got_after, got_draw), (want, _, want_after, want_draw) = runs
    assert got == want
    assert got_draw == want_draw
    for g, w in zip(got_after, want_after):
        assert g.tobytes() == w.tobytes()  # NaN payloads and signed zeros too
    return got, got_before, got_after


def pinned_a2c_outcome(monkeypatch, mode, rounds, wide, tau=6):
    """sha256 of a2c_align's sorted pairs and provenance as JSON, or of
    "TrainingError: <message>", on a seeded 30 x 30 environment: scores in
    [0, 1) and learning rates 0.05 and 0.2, or, when ``wide``, normal scores
    times 3 and learning rates 0.5; ``tau`` candidates per source. When
    training does not diverge, the L2 norm and the dot product with a fixed
    seeded normal vector of the final actor, then of the critic parameters,
    follow, so the pin sees what was learned even where the greedy pass
    lands on the same pairs. Unlike the parameter bytes, these four numbers
    hold across BLAS kernels to a relative 1e-10."""
    policies = []

    class Recorded(collective._Episodes):
        def __init__(self, *args):
            super().__init__(*args)
            policies.append(self)

    monkeypatch.setattr(collective, "_Episodes", Recorded)
    rng = np.random.default_rng(21)
    scores = rng.normal(size=(30, 30)) * 3 if wide else rng.random((30, 30))
    src_nb = random_neighbors(rng, 30, 0.2)
    tgt_nb = random_neighbors(rng, 30, 0.2)
    lrs = (0.5, 0.5) if wide else (0.05, 0.2)
    cfg = RlConfig(tau=tau, epochs=20, rng_seed=3, preliminary_rounds=rounds, mode=mode,
                   actor_lr=lrs[0], critic_lr=lrs[1])
    env = build_environment(scores, src_nb, tgt_nb, cfg)
    try:
        with np.errstate(all="ignore"):
            result = a2c_align(env, cfg)
    except TrainingError as exc:
        return (hashlib.sha256(f"TrainingError: {exc}".encode()).hexdigest(),)
    outcome = json.dumps([sorted(result.pairs.items()),
                          sorted(result.provenance.items())]).encode()
    (policy,) = policies
    probe = np.random.default_rng(0)
    learned = [f(flat) for flat in (policy.actor_flat, policy.critic_flat)
               for f in (np.linalg.norm, lambda x: x @ probe.standard_normal(len(x)))]
    return (hashlib.sha256(outcome).hexdigest(), *map(float, learned))


class TestPreliminaryFilter:
    def test_clean_two_by_two(self):
        m = np.array([[0.9, 0.1], [0.2, 0.8]])
        confirmed, rs, rt = preliminary_filter(m, 1)
        assert set(confirmed) == {(0, 0), (1, 1)}
        assert rs.size == 0 and rt.size == 0

    def test_shared_top_target(self):
        m = np.array([[0.9, 0.1], [0.95, 0.2]])
        confirmed, rs, rt = preliminary_filter(m, 1)
        assert confirmed == [(1, 0)]  # only the column argmax side is mutual
        assert list(rs) == [0]

    def test_zero_rounds(self):
        m = np.array([[0.9, 0.1], [0.2, 0.8]])
        confirmed, rs, rt = preliminary_filter(m, 0)
        assert confirmed == []
        assert list(rs) == [0, 1] and list(rt) == [0, 1]

    def test_matches_oracle_on_random_matrices(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            scores = rng.random((rng.integers(1, 9), rng.integers(1, 9)))
            for rounds in (1, 2, 3):
                got = preliminary_filter(scores, rounds)
                want = mutual_argmax_oracle(scores, rounds)
                assert sorted(got[0]) == sorted(want[0])
                assert list(got[1]) == want[1]
                assert list(got[2]) == want[2]

    def test_negative_rounds_rejected(self):
        with pytest.raises(ValueError):
            preliminary_filter(np.eye(2), -1)


class TestBuildEnvironment:
    CASES = [
        # (rows, cols, distinct score levels or 0 for continuous, tau, rounds)
        (12, 12, 4, 5, 0),     # ties inside candidate lists and between best scores
        (12, 12, 0, 5, 2),
        (15, 4, 3, 10, 1),     # state_dim < tau
        (5, 9, 2, 3, 1),
        (1, 6, 0, 10, 0),
        (6, 6, 0, 4, 0),
    ]

    @pytest.mark.parametrize("block", [256, 1, 3])
    @pytest.mark.parametrize("case", CASES)
    def test_layout_matches_per_row_loop(self, case, block, monkeypatch):
        monkeypatch.setattr(collective, "_ROW_BLOCK", block)
        n_src, n_tgt, levels, tau, rounds = case
        rng = np.random.default_rng(n_src * 100 + n_tgt)
        scores = rng.random((n_src, n_tgt))
        if levels:
            scores = np.floor(scores * levels) / levels
        src_nb = random_neighbors(rng, n_src, 0.4)
        tgt_nb = random_neighbors(rng, n_tgt, 0.4)
        # Ids no entity has never count as matched neighbours.
        src_nb = (src_nb[0] | {-1, n_src + 2},) + src_nb[1:]
        tgt_nb = (tgt_nb[0] | {-3, n_tgt},) + tgt_nb[1:]
        cfg = RlConfig(tau=tau, preliminary_rounds=rounds)
        env = build_environment(scores, src_nb, tgt_nb, cfg)
        candidates, order = per_row_layout(scores, cfg)
        assert env.order == order
        assert env.candidate_rows.shape == env.score_rows.shape == (len(order), env.state_dim)
        for i, u in enumerate(order):
            cand = candidates[u]
            assert np.array_equal(env.candidate_rows[i], cand)
            assert np.array_equal(env.score_rows[i], scaled_scores(scores, u, cand))
            assert sorted(env.neighbor_sources[i].tolist()) == sorted(
                w for w in src_nb[u] if 0 <= w < n_src)
            pairs = list(zip(env.candidate_slots[i].tolist(),
                             env.candidate_neighbors[i].tolist()))
            assert sorted(pairs) == sorted(
                (slot, t) for slot, c in enumerate(cand) for t in tgt_nb[c]
                if 0 <= t < n_tgt)

    def test_empty_residual(self):
        env = build_environment(np.eye(4), (frozenset(),) * 4, (frozenset(),) * 4,
                                RlConfig(preliminary_rounds=1))
        assert env.order == ()
        assert env.candidate_rows.shape == (0, 0) and env.score_rows.shape == (0, 0)
        assert env.neighbor_sources == env.candidate_neighbors == env.candidate_slots == ()
        assert a2c_align(env, RlConfig(preliminary_rounds=1)).pairs == {i: i for i in range(4)}

    def test_zero_spread_scores_give_zero_s1(self):
        cfg = RlConfig(tau=3, preliminary_rounds=0)
        env = build_environment(np.full((4, 5), -7.5), (frozenset(),) * 4,
                                (frozenset(),) * 5, cfg)
        assert env.score_rows.shape == (4, 3)
        assert not env.score_rows.any()  # 0, never NaN

    def test_short_neighbor_lists_rejected(self):
        with pytest.raises(ValueError, match="src_neighbors has 1 entries for 2"):
            build_environment(np.eye(2), (frozenset(),), (frozenset(),) * 2, RlConfig())
        with pytest.raises(ValueError, match="tgt_neighbors has 1 entries for 2"):
            build_environment(np.eye(2), (frozenset(),) * 2, (frozenset(),), RlConfig())


class TestCoherenceVector:
    NB1 = (frozenset({1, 2}), frozenset({0}), frozenset({0}))
    NB2 = (frozenset({1}), frozenset({0, 2}), frozenset({1}))

    def test_no_matched_neighbors(self):
        s3 = coherence_vector(0, {}, self.NB1, self.NB2, np.array([0, 1, 2]))
        np.testing.assert_array_equal(s3, [0.0, 0.0, 0.0])

    def test_single_matched_neighbor(self):
        # Source 1 matched target 1; candidates adjacent to target 1 score 1.
        s3 = coherence_vector(0, {1: 1}, self.NB1, self.NB2, np.array([0, 1, 2]))
        np.testing.assert_array_equal(s3, [1.0, 0.0, 1.0])

    def test_two_neighbors_both_adjacent(self):
        # 6-node setting: source 0 borders sources 1 and 2; their targets 0
        # and 2 are both adjacent to candidate 1 in the target graph. The
        # count of 2 is capped at 1.
        src_nb = (frozenset({1, 2}),) + (frozenset(),) * 2
        tgt_nb = (frozenset({1}), frozenset({0, 2}), frozenset({1}))
        s3 = coherence_vector(0, {1: 0, 2: 2}, src_nb, tgt_nb, np.array([1, 0]))
        np.testing.assert_array_equal(s3, [1.0, 0.0])


class TestActorCritic:
    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(0)
        actor = init_actor(rng, 6, 10)
        for _ in range(20):
            probs = actor_forward(rng.normal(size=6), actor)
            assert probs.sum() == pytest.approx(1.0, abs=1e-9)
            assert (probs > 0).all()

    def test_uniform_when_output_layer_zero(self):
        rng = np.random.default_rng(1)
        actor = init_actor(rng, 5, 10)
        actor.w2[:] = 0.0
        actor.b2[:] = 0.0
        probs = actor_forward(rng.normal(size=5), actor)
        np.testing.assert_allclose(probs, 0.2, atol=1e-12)

    def test_actor_matches_dense_oracle(self):
        rng = np.random.default_rng(2)
        actor = init_actor(rng, 4, 7)
        s = rng.normal(size=4)
        hidden = np.maximum(actor.w1 @ s + actor.b1, 0)
        logits = actor.w2 @ hidden + actor.b2
        expected = np.exp(logits) / np.exp(logits).sum()
        np.testing.assert_allclose(actor_forward(s, actor), expected, atol=1e-10)

    def test_critic_zero_parameters(self):
        critic = init_critic(np.random.default_rng(3), 4, 7)
        for a in (critic.w3, critic.b3, critic.w4, critic.b4):
            a[:] = 0.0
        assert critic_value(np.ones(4), critic) == 0.0
        critic.b4[:] = 2.5
        assert critic_value(np.ones(4), critic) == 2.5

    def test_critic_matches_dense_oracle(self):
        rng = np.random.default_rng(4)
        critic = init_critic(rng, 5, 9)
        s = rng.normal(size=5)
        expected = float(
            (critic.w4 @ np.maximum(critic.w3 @ s + critic.b3, 0) + critic.b4)[0]
        )
        assert critic_value(s, critic) == pytest.approx(expected, abs=1e-10)


def fd_grad(fn, arr, h=1e-6):
    grad = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + h
        up = fn()
        arr[idx] = orig - h
        down = fn()
        arr[idx] = orig
        grad[idx] = (up - down) / (2 * h)
    return grad


class TestPolicyGradients:
    def test_actor_log_prob_gradients(self):
        for trial in range(20):
            rng = np.random.default_rng(500 + trial)
            actor = init_actor(rng, 5, 8)
            s = rng.normal(size=5)
            a = int(rng.integers(5))
            grads = actor_log_prob_grads(s, actor, a)

            def log_prob():
                return float(np.log(actor_forward(s, actor)[a]))

            for analytic, arr in zip(
                grads, (actor.w1, actor.b1, actor.w2, actor.b2)
            ):
                fd = fd_grad(log_prob, arr)
                denom = np.maximum(np.abs(fd), 1e-6)
                assert (np.abs(fd - analytic) / denom).max() < 1e-4

    def test_critic_value_gradients(self):
        for trial in range(20):
            rng = np.random.default_rng(700 + trial)
            critic = init_critic(rng, 5, 8)
            s = rng.normal(size=5)
            grads = critic_grads(s, critic)

            def value():
                return critic_value(s, critic)

            for analytic, arr in zip(
                grads, (critic.w3, critic.b3, critic.w4, critic.b4)
            ):
                fd = fd_grad(value, arr)
                denom = np.maximum(np.abs(fd), 1e-6)
                assert (np.abs(fd - analytic) / denom).max() < 1e-4


class TestReward:
    def test_free_target(self):
        s1 = np.array([0.8, 0.1])
        assert reward(s1, np.array([1.0, 1.0]), np.zeros(2), 0) == pytest.approx(0.8)

    def test_taken_target_with_coherence(self):
        s1 = np.array([0.8, 0.1])
        s2 = np.array([-1.0, 1.0])
        s3 = np.array([2.0, 0.0])
        assert reward(s1, s2, s3, 0) == pytest.approx(1.2)

    def test_zero_similarity_leaves_only_coherence(self):
        # With no local-similarity contribution the reward is the coherence count.
        s1 = np.zeros(3)
        s3 = np.array([0.0, 2.0, 1.0])
        assert reward(s1, np.ones(3), s3, 1) == pytest.approx(2.0)

    def test_action_out_of_range(self):
        with pytest.raises(ValueError):
            reward(np.zeros(2), np.ones(2), np.zeros(2), 5)


class TestA2cAlign:
    def test_bit_reproducible_under_seed(self):
        env, cfg = scenario_env(seed=3, epochs=50)
        a = a2c_align(env, cfg)
        b = a2c_align(env, cfg)
        assert a.pairs == b.pairs and a.provenance == b.provenance

    def test_single_residual_source_returns_argmax(self):
        m = np.array([[0.9, 0.5, 0.3, 0.1]])
        nb = (frozenset(),)
        tnb = (frozenset(),) * 4
        cfg = RlConfig(tau=4, epochs=800, rng_seed=0, preliminary_rounds=0,
                       actor_lr=0.01, critic_lr=0.05)
        env = build_environment(m, nb, tnb, cfg)
        result = a2c_align(env, cfg)
        assert result.pairs == {0: 0}
        assert result.provenance[0] == "rl"

    def test_exclusiveness_only_avoids_double_booking(self):
        m = np.array([[0.9, 0.1], [0.85, 0.8]])
        nb = (frozenset(), frozenset())
        hits = 0
        for seed in range(10):
            cfg = RlConfig(tau=2, epochs=400, rng_seed=seed, preliminary_rounds=0,
                           mode="exclusiveness_only", actor_lr=0.01, critic_lr=0.05)
            env = build_environment(m, nb, nb, cfg)
            result = a2c_align(env, cfg)
            picks = list(result.pairs.values())
            if picks.count(0) <= 1:
                hits += 1
        assert hits >= 8

    def test_exclusiveness_flag_never_reverts_within_episode(self):
        # The reference state flags every target chosen earlier in the
        # episode, so a flag that reverted would change the decisions and
        # the trained parameters. Targets are chosen twice, which is when a
        # flag could revert.
        env, cfg = scenario_env(seed=1, epochs=1)
        neighbors = (SCENARIO_NEIGHBORS, SCENARIO_NEIGHBORS)
        outcomes, _, _ = assert_same_runs(
            run_against_reference(env, neighbors, cfg, cfg.epochs))
        assert all(list(decisions) == list(env.order) for decisions in outcomes)
        assert any(len(set(d.values())) < len(d) for d in outcomes[:-1])

    def test_preliminary_provenance_kept(self):
        env, cfg = scenario_env(seed=0, epochs=5, prelim_rounds=2)
        result = a2c_align(env, cfg)
        assert set(result.pairs) == {0, 1, 2, 3}
        assert any(p == "preliminary" for p in result.provenance.values())

    @pytest.mark.parametrize("prelim_rounds", [0, 2])
    @pytest.mark.parametrize("mode", MODES)
    def test_equals_run_episode_calls(self, mode, prelim_rounds):
        # a2c_align keeps one set of buffers for all its episodes; each
        # episode must still run as a fresh reference episode would.
        rng = np.random.default_rng(11)
        scores = rng.random((30, 30))
        src_nb = random_neighbors(rng, 30, 0.2)
        tgt_nb = random_neighbors(rng, 30, 0.2)
        cfg = RlConfig(tau=6, epochs=6, rng_seed=4, preliminary_rounds=prelim_rounds,
                       mode=mode, actor_lr=0.01, critic_lr=0.05)
        env = build_environment(scores, src_nb, tgt_nb, cfg)
        assert len(env.order) >= 6
        rng = np.random.default_rng(cfg.rng_seed)
        reference = ReferenceEpisodes(env, cfg, rng, (src_nb, tgt_nb))
        for _ in range(cfg.epochs):
            reference.run(rng, True)
        decisions = reference.run(rng, False)
        result = a2c_align(env, cfg)
        confirmed = dict(env.confirmed)
        assert result.pairs == {**confirmed, **decisions}
        assert result.provenance == {**{u: "preliminary" for u in confirmed},
                                     **{u: "rl" for u in decisions}}

    def test_training_error_names_the_run_episode_epoch(self):
        # The diverging set-up of the mid-episode reference test: the
        # second training episode fails.
        rng = np.random.default_rng(0)
        scores = rng.normal(size=(20, 20)) * 3
        src_nb = random_neighbors(rng, 20, 0.2)
        tgt_nb = random_neighbors(rng, 20, 0.2)
        cfg = RlConfig(tau=6, epochs=5, rng_seed=0, preliminary_rounds=1,
                       actor_lr=100.0, critic_lr=100.0)
        env = build_environment(scores, src_nb, tgt_nb, cfg)
        with np.errstate(all="ignore"):
            outcomes, _, _ = assert_same_runs(
                run_against_reference(env, (src_nb, tgt_nb), cfg, cfg.epochs))
            with pytest.raises(TrainingError) as err:
                a2c_align(env, cfg)
        assert str(err.value) == f"epoch {len(outcomes) - 1}: {outcomes[-1]}"

    def test_wide_range_scores_train_at_default_rates(self):
        # Scores over [-60, 1], most of them low, as bc scores of signed
        # vectors are: unscaled, candidate scores down to -28 made the state
        # diverge in the first episode at the default learning rates.
        rng = np.random.default_rng(0)
        n = 1000
        scores = 61 * rng.random((n, n)) ** 8 - 60
        src_nb = random_neighbors(rng, n, 4 / n)
        tgt_nb = random_neighbors(rng, n, 4 / n)
        cfg = RlConfig(epochs=20)
        env = build_environment(scores, src_nb, tgt_nb, cfg)
        assert len(env.order) >= 200 and env.state_dim == cfg.tau
        raw = scores[np.array(env.order)[:, None], env.candidate_rows]
        assert raw.min() < -25 and raw.max() > 0.5
        result = a2c_align(env, cfg)
        assert [u for u, p in result.provenance.items() if p == "rl"] == list(env.order)

    def test_non_finite_parameters_raise_training_error(self):
        env, cfg = scenario_env(seed=0, epochs=3)
        rng = np.random.default_rng(0)
        episodes = _Episodes(env, cfg, rng)
        episodes.actor_flat[0] = np.nan  # W1[0, 0]
        with pytest.raises(TrainingError, match="non-finite"):
            episodes.run(rng, train=True)

    @pytest.mark.parametrize("prelim_rounds", [0, 2])
    @pytest.mark.parametrize("mode", ["full", "exclusiveness_only", "coherence_only"])
    def test_episode_bit_identical_to_reference(self, mode, prelim_rounds):
        rng = np.random.default_rng(40)
        scores = rng.random((40, 40))
        src_nb = random_neighbors(rng, 40, 0.15)
        tgt_nb = random_neighbors(rng, 40, 0.15)
        cfg = RlConfig(tau=8, epochs=5, rng_seed=9, preliminary_rounds=prelim_rounds,
                       mode=mode, actor_lr=0.01, critic_lr=0.05)
        env = build_environment(scores, src_nb, tgt_nb, cfg)
        assert len(env.order) >= 8
        runs = []
        reference = functools.partial(ReferenceEpisodes, neighbors=(src_nb, tgt_nb))
        for make in (_Episodes, reference):
            rng = np.random.default_rng(cfg.rng_seed)
            policy = make(env, cfg, rng)
            decisions = [policy.run(rng, True) for _ in range(5)]
            decisions.append(policy.run(rng, False))
            runs.append((decisions, parameters(policy)))
        (got_decisions, got_arrays), (want_decisions, want_arrays) = runs
        assert got_decisions == want_decisions
        for got, want in zip(got_arrays, want_arrays):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("mode", MODES)
    def test_shared_targets_and_confirmed_context_match_reference(self, mode):
        # More residual sources than residual targets, so targets are picked
        # twice, and dense graphs, so a later source often has two matched
        # neighbours on one target, or a confirmed neighbour.
        rng = np.random.default_rng(5)
        scores = rng.random((12, 7))
        src_nb = random_neighbors(rng, 12, 0.5)
        tgt_nb = random_neighbors(rng, 7, 0.4)
        cfg = RlConfig(tau=6, epochs=4, rng_seed=2, preliminary_rounds=1,
                       mode=mode, actor_lr=0.01, critic_lr=0.05)
        env = build_environment(scores, src_nb, tgt_nb, cfg)
        assert env.state_dim < cfg.tau
        confirmed = dict(env.confirmed)
        assert any(w in confirmed for u in env.order for w in src_nb[u])
        outcomes, _, _ = assert_same_runs(
            run_against_reference(env, (src_nb, tgt_nb), cfg, cfg.epochs))
        shared = 0
        for decisions in outcomes:
            matched = dict(confirmed)
            for u, v in decisions.items():
                picks = [matched[w] for w in src_nb[u] if w in matched]
                shared += len(picks) > len(set(picks))
                matched[u] = v
        assert shared > 0

    def test_training_error_mid_episode_matches_reference(self):
        # The state is bounded, so only very large learning rates diverge:
        # with 100 the second episode fails, after it has already updated
        # the parameters.
        rng = np.random.default_rng(0)
        scores = rng.normal(size=(20, 20)) * 3
        src_nb = random_neighbors(rng, 20, 0.2)
        tgt_nb = random_neighbors(rng, 20, 0.2)
        cfg = RlConfig(tau=6, epochs=5, rng_seed=0, preliminary_rounds=1,
                       actor_lr=100.0, critic_lr=100.0)
        env = build_environment(scores, src_nb, tgt_nb, cfg)
        with np.errstate(all="ignore"):
            runs = run_against_reference(env, (src_nb, tgt_nb), cfg, cfg.epochs)
        outcomes, before, after = assert_same_runs(runs)
        assert len(outcomes) == 2 and "non-finite" in outcomes[-1]
        assert any(b.tobytes() != a.tobytes() for b, a in zip(before, after))

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_src=st.integers(1, 9),
           n_tgt=st.integers(1, 9), mode=st.sampled_from(MODES),
           rounds=st.integers(0, 2), tau=st.integers(1, 6),
           density=st.floats(0.0, 1.0))
    def test_traced_state_matches_public_helpers(self, seed, n_src, n_tgt, mode,
                                                 rounds, tau, density):
        # Every state an episode builds feeds the policy, the reward and
        # the updates, so equal decisions, parameters and generator state
        # against the reference episode check each state it visits.
        rng = np.random.default_rng(seed)
        scores = rng.random((n_src, n_tgt))
        src_nb = random_neighbors(rng, n_src, density)
        tgt_nb = random_neighbors(rng, n_tgt, density)
        cfg = RlConfig(tau=tau, rng_seed=seed, preliminary_rounds=rounds, mode=mode,
                       actor_lr=0.01, critic_lr=0.05)
        env = build_environment(scores, src_nb, tgt_nb, cfg)
        outcomes, _, _ = assert_same_runs(
            run_against_reference(env, (src_nb, tgt_nb), cfg, 1))
        # With no residual target there is no candidate and nothing to decide.
        decided = list(env.order) if env.state_dim else []
        assert all(list(decisions) == decided for decisions in outcomes)

    def test_no_candidates_no_decisions(self):
        # The filter confirms the one target, leaving one source and no target.
        cfg = RlConfig(preliminary_rounds=1)
        env = build_environment(np.array([[0.9], [0.1]]), (frozenset(),) * 2,
                                (frozenset(),), cfg)
        assert env.order == (1,) and env.state_dim == 0
        rng = np.random.default_rng(0)
        episodes = _Episodes(env, cfg, rng)
        state = rng.bit_generator.state
        assert episodes.run(rng, True) == {}
        assert rng.bit_generator.state == state
        assert a2c_align(env, cfg).pairs == {0: 0}

    # pinned_a2c_outcome per (mode, preliminary rounds, wide[, tau]),
    # recorded once s1 was min-max scaled and s3 capped at 1. The reference
    # episodes share GAMMA, HIDDEN and the draw order with the library, so
    # only this pin notices a change that moves both together. The pairs
    # hashes are exact on every OpenBLAS kernel tried (SkylakeX, Haswell,
    # Sandybridge, Prescott). The learned parameters differ across them by
    # at most 1.7e-10, and their four numbers by a relative 7e-11, so those
    # are compared at a relative 1e-7.
    GOLDEN = {
        ("full", 0, False): (  # diverges at epoch 9
            "ac679b8a5f2d5177c1a82f27a8f72b11f70cd5caac6c2e8810521e0cbb35e051",
        ),
        ("full", 2, False): (
            "69c73bbc9bc7611cfb479fe28b62384976d1dc9594f7f8d804ac40acfb1f810c",
            1.58616927763, 2.03840641101, 6.9511111349, 13.6196196743,
        ),
        ("exclusiveness_only", 0, False): (
            "47546cafa841c13a3fb5d43e1bcc9c4138f3324b4224032287cf65fcf77a3861",
            3.47740586167, 3.26757429091, 7.45606817375, 4.6655198842,
        ),
        ("exclusiveness_only", 2, False): (
            "b061988c14469f90c49912df9c3eceae28070767e07b1165c3201bc894b9f407",
            0.728707617596, 0.483899421628, 1.62531617054, 0.213859179933,
        ),
        ("coherence_only", 0, False): (
            "de6aa6b6b7e940ed1dc465a881783700ad13b0ee06e2af9d8f8484eed7ff3b8e",
            1.74461716021, -1.34576691728, 97.8298208047, 38.1361296176,
        ),
        ("coherence_only", 2, False): (
            "af281489d5a38862ab537666ed48a63b8736dbe2b2ac8c7d0c3925490d955c6e",
            1.15262404673, 0.448873179385, 5.97335780006, 3.07994298057,
        ),
        ("full", 2, True): (
            "dbbcf853d200d865297e73bfa5c6f3167c5fa8c3fb040016727a004f6c25bd88",
            4.49295076231, 3.0547766752, 20.0449052544, 9.38096496777,
        ),
        # With no preliminary round every source keeps tau candidates: one
        # (every decision forced), HIDDEN (the benchmark's width) and more
        # than HIDDEN.
        ("full", 0, False, 1): (
            "de6aa6b6b7e940ed1dc465a881783700ad13b0ee06e2af9d8f8484eed7ff3b8e",
            0.305339893351, 0.233159443663, 7.10800436823, -17.7122914343,
        ),
        ("coherence_only", 0, True, 1): (
            "592372078afaefdbf2ec6c097f3d72951132f29e3cee121e1ba1a82dcff9b54f",
            0.305339893351, 0.233159443663, 6.73302095809, -8.09388940061,
        ),
        ("full", 0, False, 10): (  # diverges at epoch 1
            "97ff42a0f846b0f8e4d28ea1adba7952b643c5aa782b88413a45d7ec2b6c987e",
        ),
        ("exclusiveness_only", 0, False, 10): (
            "bb6dffdffb1f6efa308a2bca6681612e2b4f7633e8dcde96b8fde3043f32a4b9",
            3.2860449519, 2.32392307795, 11.4027798851, 8.76340894846,
        ),
        ("coherence_only", 0, False, 10): (
            "de6aa6b6b7e940ed1dc465a881783700ad13b0ee06e2af9d8f8484eed7ff3b8e",
            2.22854216926, -1.83469754546, 48.2424469109, 64.1458592054,
        ),
        ("coherence_only", 0, True, 10): (
            "fb9235f9498923ad2e5c1f3225cc01fe6edcd918210e2e7d587f3fd185af6fc8",
            55.9619858866, -0.862959589353, 161469.539431, 156723.076509,
        ),
        ("full", 0, False, 16): (
            "46d0a0ebabfbff212d942c9122574d8f4cb6cde8e1bf255ebcdf66d9bb8a7f42",
            3.03577493683, -0.759408761093, 43.7850675084, 27.9375703384,
        ),
        ("exclusiveness_only", 0, False, 16): (
            "cc9e4d21a28c05de238f064de5727d65fc60104bb6f5b4335129047d2901ca52",
            2.10639757089, 2.08404817957, 4.97425975157, 3.70050172941,
        ),
        ("coherence_only", 0, True, 16): (
            "592372078afaefdbf2ec6c097f3d72951132f29e3cee121e1ba1a82dcff9b54f",
            79.2740430155, -97.0907953026, 1939.61228084, -357.826189882,
        ),
    }

    @pytest.mark.parametrize("case", GOLDEN, ids=lambda case: "-".join(
        [case[0], str(case[1])] + ["wide"] * case[2] + [f"tau{t}" for t in case[3:]]))
    def test_golden_outcomes(self, monkeypatch, case):
        (pairs, *learned), (pinned_pairs, *pinned) = (
            pinned_a2c_outcome(monkeypatch, *case), self.GOLDEN[case])
        assert pairs == pinned_pairs
        assert learned == pytest.approx(pinned, rel=1e-7)

    def test_coordination_beats_greedy_on_scenario(self):
        wins = 0
        for seed in range(10):
            env, cfg = scenario_env(seed=seed)
            result = a2c_align(env, cfg)
            correct = sum(1 for s, t in result.pairs.items() if s == t)
            if correct >= 3:
                wins += 1
        assert wins >= 6


class TestSample:
    def test_same_index_and_stream_as_choice(self):
        rng = np.random.default_rng(17)
        vectors = [np.array([1.0]), np.array([0.0, 1.0, 0.0]),
                   np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0, 0.0]),
                   np.array([0.5, 0.0, 0.5, 0.0]), np.array([0.0, 0.3, 0.0, 0.7]),
                   np.full(10, 0.1)]
        for _ in range(20):
            logits = rng.normal(scale=3.0, size=int(rng.integers(2, 12)))
            exp = np.exp(logits - logits.max())
            vectors.append(exp / exp.sum())
        ours, numpy_rng = np.random.default_rng(5), np.random.default_rng(5)
        for draw in range(10_000):
            p = vectors[draw % len(vectors)]
            assert _sample(ours, p) == numpy_rng.choice(len(p), p=p)
        assert ours.random() == numpy_rng.random()


class TestGreedy:
    def test_collision_example(self):
        result = greedy_independent(np.array([[0.9, 0.1], [0.8, 0.2]]))
        assert result.pairs == {0: 0, 1: 0}

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="similarity matrix is empty"):
            greedy_independent(np.zeros((0, 3)))

    def test_diagonal_dominant(self):
        result = greedy_independent(np.eye(3) + 0.01)
        assert result.pairs == {0: 0, 1: 1, 2: 2}

    def test_scenario_gets_exactly_one(self):
        result = greedy_independent(SCENARIO_MATRIX)
        assert sum(1 for s, t in result.pairs.items() if s == t) == 1


def blocking_pairs(scores, pairs):
    """Pairs that strictly prefer each other over their assignments."""
    inverse = {t: s for s, t in pairs.items()}
    out = []
    for s in range(scores.shape[0]):
        for t in range(scores.shape[1]):
            if pairs.get(s) == t:
                continue
            s_prefers = s not in pairs or scores[s, t] > scores[s, pairs[s]]
            t_prefers = t not in inverse or scores[s, t] > scores[inverse[t], t]
            if s_prefers and t_prefers:
                out.append((s, t))
    return out


class TestStableMatching:
    def test_diagonal_dominant(self):
        result = stable_matching(np.eye(4) + 0.01)
        assert result.pairs == {i: i for i in range(4)}

    def test_scenario_outcome(self):
        result = stable_matching(SCENARIO_MATRIX)
        assert result.pairs == {0: 0, 1: 2, 2: 1, 3: 3}
        assert sum(1 for s, t in result.pairs.items() if s == t) == 2

    def test_no_blocking_pairs_random(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            n = int(rng.integers(2, 51))
            scores = rng.random((n, n))
            result = stable_matching(scores)
            assert blocking_pairs(scores, result.pairs) == []

    def test_rectangular_inputs(self):
        rng = np.random.default_rng(11)
        wide = rng.random((3, 6))
        result = stable_matching(wide)
        assert len(result.pairs) == 3
        assert blocking_pairs(wide, result.pairs) == []
        tall = rng.random((6, 3))
        result = stable_matching(tall)
        assert len(result.pairs) == 3  # sentinel matches dropped
        assert len(set(result.pairs.values())) == 3


def brute_force_best(scores):
    n = scores.shape[0]
    best = -np.inf
    for perm in itertools.permutations(range(n)):
        total = sum(scores[i, perm[i]] for i in range(n))
        best = max(best, total)
    return best


class TestHungarian:
    def test_diagonal_dominant(self):
        scores = np.eye(3) + 0.01
        result = hungarian(scores)
        assert result.pairs == {0: 0, 1: 1, 2: 2}

    def test_matches_brute_force(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            scores = rng.random((n, n))
            result = hungarian(scores)
            total = sum(scores[s, t] for s, t in result.pairs.items())
            assert total == pytest.approx(brute_force_best(scores))

    def test_all_equal_matrix(self):
        scores = np.full((5, 5), 0.3)
        result = hungarian(scores)
        assert len(set(result.pairs.values())) == 5
        total = sum(scores[s, t] for s, t in result.pairs.items())
        assert total == pytest.approx(5 * 0.3)

    def test_total_at_least_stable(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            n = int(rng.integers(2, 20))
            scores = rng.random((n, n))
            h = sum(scores[s, t] for s, t in hungarian(scores).pairs.items())
            s = sum(scores[a, b] for a, b in stable_matching(scores).pairs.items())
            assert h >= s - 1e-12


class TestCountMultiplicities:
    def test_injective(self):
        result = AlignmentResult({0: 0, 1: 1, 2: 2}, {})
        assert count_multiplicities(result) == (0, 0)

    def test_two_sources_one_target(self):
        result = AlignmentResult({0: 0, 1: 0, 2: 2}, {})
        assert count_multiplicities(result) == (2, 1)

    def test_three_sources_one_target(self):
        result = AlignmentResult({0: 5, 1: 5, 2: 5}, {})
        assert count_multiplicities(result) == (3, 1)
