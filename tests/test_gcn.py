"""Structural encoder: initialization, forward pass, loss, and gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgalign.errors import SamplingError
from kgalign.gcn import (
    GcnParameters,
    TrainConfig,
    gcn_forward,
    init_features,
    init_parameters,
    train,
    truncated_normal,
)
from kgalign.kg import KnowledgeGraph, adjacency

from reference import loss_and_gradients, margin_loss, sample_negatives
from test_kg import kg_from_edges


def random_kg(n, m, seed):
    rng = np.random.default_rng(seed)
    triples = np.stack(
        [rng.integers(n, size=m), np.zeros(m, dtype=np.int64), rng.integers(n, size=m)],
        axis=1,
    )
    return KnowledgeGraph(
        entity_ids=tuple(str(i) for i in range(n)),
        relation_ids=("r",),
        triples=triples,
        entity_names=tuple(f"e{i}" for i in range(n)),
    )


class TestInitFeatures:
    def test_unit_row_norms(self):
        x = init_features(40, 7, rng_seed=0)
        np.testing.assert_allclose(np.linalg.norm(x, axis=1), 1.0, atol=1e-9)

    def test_seed_reproducibility(self):
        a = init_features(20, 5, rng_seed=9)
        b = init_features(20, 5, rng_seed=9)
        assert np.array_equal(a, b)

    def test_truncation_bound(self):
        sigma = 1.0 / np.sqrt(16)
        raw = truncated_normal(np.random.default_rng(1), (1000, 16), sigma)
        assert np.abs(raw).max() <= 2 * sigma

    def test_raw_sample_mean_near_zero(self):
        # The truncated distribution is symmetric, so per-coordinate sample
        # means over 1000 draws stay within 4 sigma / sqrt(1000).
        sigma = 1.0 / np.sqrt(16)
        raw = truncated_normal(np.random.default_rng(2), (1000, 16), sigma)
        assert np.abs(raw.mean(axis=0)).max() < 4 * sigma / np.sqrt(1000)


class TestGcnForward:
    def test_identity_composition(self):
        kg = kg_from_edges(1, [])
        adj = adjacency(kg)  # single node: A_hat = [[1.0]]
        x = np.array([[0.3]])
        params = GcnParameters(np.eye(1), np.eye(1))
        np.testing.assert_allclose(gcn_forward(adj, x, params), x)

    def test_identity_on_nonnegative_block(self):
        # Self-loops only, identity weights, nonnegative inputs: Z = X.
        kg = kg_from_edges(3, [])
        adj = adjacency(kg)
        x = np.abs(np.random.default_rng(0).normal(size=(3, 4)))
        params = GcnParameters(np.eye(4), np.eye(4))
        np.testing.assert_allclose(gcn_forward(adj, x, params), x)

    def test_shape_contract(self):
        kg = random_kg(8, 12, 1)
        adj = adjacency(kg)
        x = init_features(8, 5, rng_seed=0)
        params = init_parameters(np.random.default_rng(1), 5)
        z = gcn_forward(adj, x, params)
        assert z.shape == (8, 5)

    def test_three_node_path_matches_dense_oracle(self):
        kg = kg_from_edges(3, [(0, 1), (1, 2)])
        adj = adjacency(kg)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 4))
        params = init_parameters(rng, 4)
        dense = adj.toarray()
        expected = dense @ np.maximum(dense @ x @ params.w1, 0) @ params.w2
        np.testing.assert_allclose(gcn_forward(adj, x, params), expected, atol=1e-10)

    def test_dimension_mismatch(self):
        adj = adjacency(kg_from_edges(2, [(0, 1)]))
        params = GcnParameters(np.eye(3), np.eye(3))
        with pytest.raises(ValueError):
            gcn_forward(adj, np.zeros((3, 3)), params)
        with pytest.raises(ValueError):
            gcn_forward(adj, np.zeros((2, 4)), params)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(11)
        kg = random_kg(7, 14, 3)
        x = rng.normal(size=(7, 4))
        params = init_parameters(rng, 4)
        z = gcn_forward(adjacency(kg), x, params)
        perm = rng.permutation(7)
        inv = np.argsort(perm)
        permuted = KnowledgeGraph(
            entity_ids=tuple(kg.entity_ids[inv[i]] for i in range(7)),
            relation_ids=kg.relation_ids,
            triples=np.stack(
                [perm[kg.triples[:, 0]], kg.triples[:, 1], perm[kg.triples[:, 2]]],
                axis=1,
            ),
            entity_names=tuple(kg.entity_names[inv[i]] for i in range(7)),
        )
        z_perm = gcn_forward(adjacency(permuted), x[inv], params)
        np.testing.assert_allclose(z_perm, z[inv], atol=1e-10)

    def test_weight_sharing_single_object(self):
        kg1, kg2 = random_kg(5, 8, 1), random_kg(5, 8, 2)
        adj1, adj2 = adjacency(kg1), adjacency(kg2)
        rng = np.random.default_rng(0)
        x1, x2 = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        params = init_parameters(rng, 3)
        before = gcn_forward(adj1, x1, params), gcn_forward(adj2, x2, params)
        params.w1 += 0.5
        after = gcn_forward(adj1, x1, params), gcn_forward(adj2, x2, params)
        assert not np.allclose(before[0], after[0])
        assert not np.allclose(before[1], after[1])


class TestMarginLoss:
    def test_hinge_cutoff(self):
        z1 = np.array([[0.0], [5.0]])
        z2 = np.array([[0.0], [5.0]])
        # positive distance 0, negative distance 5 >= margin 3 -> zero loss
        loss = margin_loss(z1, z2, [(0, 0)], [[(0, 1)]], margin=3.0)
        assert loss == 0.0

    def test_one_dimensional_example(self):
        z1 = np.array([[0.0], [2.0]])
        z2 = np.array([[1.0], [2.0]])
        # positive distance 1, negative distance 0, margin 3 -> 1 - 0 + 3 = 4
        loss = margin_loss(z1, z2, [(0, 0)], [[(1, 1)]], margin=3.0)
        assert loss == pytest.approx(4.0)

    def test_nonnegative_on_random_inputs(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            z1 = rng.normal(size=(6, 3))
            z2 = rng.normal(size=(6, 3))
            positives = [(int(rng.integers(6)), int(rng.integers(6))) for _ in range(3)]
            negatives = [
                [(int(rng.integers(6)), int(rng.integers(6))) for _ in range(2)]
                for _ in positives
            ]
            assert margin_loss(z1, z2, positives, negatives, margin=1.0) >= 0.0

    def test_zero_when_positives_tight_and_negatives_far(self):
        z1 = np.array([[0.0, 0.0], [3.0, 3.0]])
        z2 = np.array([[0.0, 0.0], [-3.0, -3.0]])
        positives = [(0, 0)]
        negatives = [[(1, 1), (0, 1), (1, 0)]]  # all L1 distances >= margin
        assert margin_loss(z1, z2, positives, negatives, margin=3.0) == 0.0


def reference_sample_negatives(positives, k, rng, n_source, n_target):
    """One scalar draw per coin and per replacement: the sampler's oracle."""
    pos_set = set((int(s), int(t)) for s, t in positives)
    groups = []
    for s, t in positives:
        group = []
        for _ in range(k):
            for _ in range(100):
                if rng.integers(2) == 0:
                    cand = (int(rng.integers(n_source)), int(t))
                else:
                    cand = (int(s), int(rng.integers(n_target)))
                if cand not in pos_set:
                    group.append(cand)
                    break
            else:
                raise SamplingError(f"could not corrupt pair ({s}, {t})")
        groups.append(group)
    return groups


def draw_and_next(sampler, positives, k, seed, n_source, n_target):
    """The sampler's groups (or SamplingError) and the generator's next draw."""
    rng = np.random.default_rng(seed)
    try:
        out = sampler(positives, k, rng, n_source, n_target)
    except SamplingError:
        out = SamplingError
    return out, rng.random()


# 2**31 + 1 rejects about half of all words; 2**32 takes every word as is.
POOL_SIZES = st.one_of(st.integers(1, 8), st.integers(9, 400),
                       st.sampled_from([2**31 + 1, 2**32 - 5, 2**32]))


@st.composite
def sampling_cases(draw):
    n_source, n_target = draw(POOL_SIZES), draw(POOL_SIZES)
    m = draw(st.integers(0, min(n_source, n_target, 12)))
    sources = draw(st.lists(st.integers(0, min(n_source, 10**9) - 1),
                            min_size=m, max_size=m, unique=True))
    targets = draw(st.lists(st.integers(0, min(n_target, 10**9) - 1),
                            min_size=m, max_size=m, unique=True))
    k = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    return list(zip(sources, targets)), k, seed, n_source, n_target


class TestSampleNegatives:
    @settings(max_examples=300, deadline=None)
    @given(sampling_cases())
    def test_stream_identical_to_scalar_loop(self, case):
        positives, k, seed, n_source, n_target = case
        args = positives, k, seed, n_source, n_target
        assert draw_and_next(sample_negatives, *args) == draw_and_next(
            reference_sample_negatives, *args
        )

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("pools", [(2**31 + 1, 2**31 + 1), (2**31 + 1, 40),
                                       (3, 3), (2, 5), (1, 6), (250, 250)])
    def test_fixed_cases_identical_to_scalar_loop(self, k, pools):
        # Frequent rejection, tiny pools where most draws collide, one-entity
        # pools that read no word, and the benchmark's pool size.
        positives = [(i, (i * 7) % min(pools)) for i in range(min(*pools, 30))]
        for seed in range(5):
            args = positives, k, seed, *pools
            assert draw_and_next(sample_negatives, *args) == draw_and_next(
                reference_sample_negatives, *args
            )

    def test_sampling_error_leaves_generator_where_the_loop_does(self):
        # Every corruption of (0, 0) in 2 x 2 pools collides: 100 attempts.
        positives = [(0, 0), (0, 1), (1, 0), (1, 1)]
        new = draw_and_next(sample_negatives, positives, 2, 4, 2, 2)
        assert new[0] is SamplingError
        assert new == draw_and_next(reference_sample_negatives, positives, 2, 4, 2, 2)

    def test_positive_outside_pools(self):
        with pytest.raises(ValueError):
            sample_negatives([(0, 5)], 1, np.random.default_rng(0), 5, 5)

    def test_counts(self):
        positives = [(i, i) for i in range(100)]
        groups = sample_negatives(positives, 5, np.random.default_rng(0), 500, 500)
        assert len(groups) == 100
        assert sum(len(g) for g in groups) == 500

    def test_corrupts_exactly_one_side(self):
        positives = [(3, 7), (4, 8)]
        groups = sample_negatives(positives, 10, np.random.default_rng(1), 50, 50)
        for (s, t), group in zip(positives, groups):
            for ns, nt in group:
                assert (ns == s) != (nt == t)  # one side kept, one replaced

    def test_never_emits_a_positive(self):
        positives = [(i, i) for i in range(20)]
        pos_set = set(positives)
        groups = sample_negatives(positives, 5, np.random.default_rng(2), 20, 20)
        for group in groups:
            assert not (set(group) & pos_set)

    def test_reproducible_under_seed(self):
        positives = [(i, i) for i in range(10)]
        a = sample_negatives(positives, 3, np.random.default_rng(7), 30, 30)
        b = sample_negatives(positives, 3, np.random.default_rng(7), 30, 30)
        assert a == b

    def test_pool_too_small(self):
        with pytest.raises(SamplingError):
            sample_negatives([(0, 0)], 1, np.random.default_rng(0), 1, 1)


def finite_difference(fn, w, h=1e-5):
    grad = np.zeros_like(w)
    it = np.nditer(w, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = w[idx]
        w[idx] = orig + h
        up = fn()
        w[idx] = orig - h
        down = fn()
        w[idx] = orig
        grad[idx] = (up - down) / (2 * h)
    return grad


class TestGradients:
    def test_matches_central_differences(self):
        # Randomized 6-node instances; relative error < 1e-4 at 1e-5 step.
        for trial in range(20):
            rng = np.random.default_rng(100 + trial)
            kg1 = random_kg(6, 9, 200 + trial)
            kg2 = random_kg(6, 9, 300 + trial)
            adj1, adj2 = adjacency(kg1), adjacency(kg2)
            x1 = init_features(6, 4, rng_seed=trial)
            x2 = init_features(6, 4, rng_seed=trial + 50)
            params = init_parameters(rng, 4)
            positives = [(0, 0), (1, 1), (2, 2)]
            negatives = sample_negatives(positives, 2, rng, 6, 6)

            loss, g_w1, g_w2 = loss_and_gradients(
                adj1, x1, adj2, x2, params, positives, negatives, margin=3.0
            )

            def full_loss():
                z1 = gcn_forward(adj1, x1, params)
                z2 = gcn_forward(adj2, x2, params)
                return margin_loss(z1, z2, positives, negatives, margin=3.0)

            assert full_loss() == pytest.approx(loss)
            for analytic, w in ((g_w1, params.w1), (g_w2, params.w2)):
                fd = finite_difference(full_loss, w)
                denom = np.maximum(np.abs(fd), 1e-6)
                assert (np.abs(fd - analytic) / denom).max() < 1e-4


def reference_train(kg1, kg2, seeds, cfg, on_epoch):
    """train() as an epoch loop over the public sampler and gradient step."""
    adj1, adj2 = adjacency(kg1), adjacency(kg2)
    rng = np.random.default_rng(cfg.rng_seed)
    x1 = init_features(kg1.n_entities, cfg.dim, int(rng.integers(2**31 - 1)))
    x2 = init_features(kg2.n_entities, cfg.dim, int(rng.integers(2**31 - 1)))
    params = init_parameters(rng, cfg.dim)
    for epoch in range(cfg.epochs):
        negatives = sample_negatives(
            seeds, cfg.negatives, rng, kg1.n_entities, kg2.n_entities
        )
        loss, g_w1, g_w2 = loss_and_gradients(
            adj1, x1, adj2, x2, params, seeds, negatives, cfg.margin
        )
        params.w1 -= cfg.learning_rate * g_w1
        params.w2 -= cfg.learning_rate * g_w2
        on_epoch(epoch, loss)
    return gcn_forward(adj1, x1, params), gcn_forward(adj2, x2, params)


class TestTrain:
    def test_bit_identical_to_reference_loop(self):
        meta = np.random.default_rng(17)
        for trial in range(6):
            n1, n2 = (int(v) for v in meta.integers(4, 40, 2))
            kg1 = random_kg(n1, int(meta.integers(0, 3 * n1)), trial)
            kg2 = random_kg(n2, int(meta.integers(0, 3 * n2)), trial + 100)
            m = int(meta.integers(1, min(n1, n2)))
            seeds = list(zip(meta.permutation(n1)[:m].tolist(),
                             meta.permutation(n2)[:m].tolist()))
            cfg = TrainConfig(dim=int(meta.integers(1, 12)), epochs=8,
                              negatives=int(meta.integers(1, 6)), learning_rate=0.01,
                              rng_seed=trial)
            got, want = [], []
            z = train(kg1, kg2, seeds, cfg, on_epoch=lambda e, l: got.append((e, l)))
            ref = reference_train(kg1, kg2, seeds, cfg, lambda e, l: want.append((e, l)))
            assert np.array_equal(z[0], ref[0]) and np.array_equal(z[1], ref[1])
            assert got == want

    def test_loss_decreases_on_isomorphic_toy(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9), (0, 5)]
        kg1 = kg_from_edges(10, edges)
        kg2 = kg_from_edges(10, edges)
        seeds = [(i, i) for i in range(5)]
        losses = []
        cfg = TrainConfig(dim=8, margin=3.0, epochs=40, negatives=5,
                          learning_rate=0.05, rng_seed=0)
        z1, z2 = train(kg1, kg2, seeds, cfg, on_epoch=lambda e, l: losses.append(l))
        assert losses[-1] < losses[0]
        assert z1.shape == (10, 8) and z2.shape == (10, 8)
        assert np.isfinite(z1).all() and np.isfinite(z2).all()

    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)

    def test_empty_seeds_rejected(self):
        kg = kg_from_edges(4, [(0, 1)])
        with pytest.raises(ValueError):
            train(kg, kg, [], TrainConfig(dim=4, epochs=1))
