"""Structural encoder: initialization, forward pass, loss, and gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgalign.errors import SamplingError, TrainingError
from kgalign.gcn import (
    TrainConfig,
    _NegativeSampler,
    init_features,
    train,
    truncated_normal,
)
from kgalign.kg import KnowledgeGraph, adjacency, load_alignment, load_kg, split_alignment
from kgalign.measures import sim_matrix
from kgalign.metrics import gold_ranks
from kgalign.synth import write_synthetic

from reference import (
    difference_quotients,
    encode,
    loss_and_gradients,
    margin_loss,
    sample_negatives,
    train_per_graph,
)
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
    """The model equation Z = A_hat relu(A_hat X) of the reference encoder,
    which ``train`` must equal bit for bit (TestTrain)."""

    def test_identity_composition(self):
        kg = kg_from_edges(1, [])
        adj = adjacency(kg)  # single node: A_hat = [[1.0]]
        np.testing.assert_allclose(encode(adj, np.array([[0.3]])), [[0.3]])
        np.testing.assert_allclose(encode(adj, np.array([[-0.3]])), [[0.0]])

    def test_identity_on_nonnegative_block(self):
        # Self-loops only, nonnegative inputs: Z = X.
        kg = kg_from_edges(3, [])
        adj = adjacency(kg)
        x = np.abs(np.random.default_rng(0).normal(size=(3, 4)))
        np.testing.assert_allclose(encode(adj, x), x)

    def test_shape_contract(self):
        kg = random_kg(8, 12, 1)
        x = init_features(8, 5, rng_seed=0)
        assert encode(adjacency(kg), x).shape == (8, 5)

    def test_three_node_path_matches_dense_oracle(self):
        kg = kg_from_edges(3, [(0, 1), (1, 2)])
        adj = adjacency(kg)
        x = np.random.default_rng(5).normal(size=(3, 4))
        dense = adj.toarray()
        expected = dense @ np.maximum(dense @ x, 0)
        np.testing.assert_allclose(encode(adj, x), expected, atol=1e-10)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(11)
        kg = random_kg(7, 14, 3)
        x = rng.normal(size=(7, 4))
        z = encode(adjacency(kg), x)
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
        z_perm = encode(adjacency(permuted), x[inv])
        np.testing.assert_allclose(z_perm, z[inv], atol=1e-10)


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

    @settings(max_examples=150, deadline=None)
    @given(sampling_cases(), st.integers(1, 6))
    def test_one_sampler_over_epochs_identical_to_scalar_loop(self, case, epochs):
        # train() builds its sampler once and draws from it every epoch.
        positives, k, seed, n_source, n_target = case

        def epochs_of(draw):
            rng = np.random.default_rng(seed)
            out = []
            try:
                for _ in range(epochs):
                    out.append(draw(rng))
            except SamplingError:
                out.append(SamplingError)
            return out, rng.random()

        sampler = _NegativeSampler(np.asarray(positives, dtype=np.int64).reshape(-1, 2),
                                   k, n_source, n_target)
        got = epochs_of(lambda rng: [
            [tuple(p) for p in group] for group in
            sampler(rng).reshape(-1, k, 2).tolist()])
        want = epochs_of(lambda rng: reference_sample_negatives(
            positives, k, rng, n_source, n_target))
        assert got == want

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
        # Randomized 6-node instances; relative error < 1e-4 at a 2**-17 step.
        for trial in range(20):
            rng = np.random.default_rng(100 + trial)
            kg1 = random_kg(6, 9, 200 + trial)
            kg2 = random_kg(6, 9, 300 + trial)
            adj1, adj2 = adjacency(kg1), adjacency(kg2)
            x1 = init_features(6, 4, rng_seed=trial)
            x2 = init_features(6, 4, rng_seed=trial + 50)
            positives = [(0, 0), (1, 1), (2, 2)]
            negatives = sample_negatives(positives, 2, rng, 6, 6)

            loss, g_x1, g_x2 = loss_and_gradients(
                adj1, x1, adj2, x2, positives, negatives, margin=3.0
            )
            assert margin_loss(encode(adj1, x1), encode(adj2, x2), positives,
                               negatives, margin=3.0) == pytest.approx(loss)
            quotients = difference_quotients(
                adj1, x1, adj2, x2, positives, negatives, margin=3.0)
            for analytic, fd in zip((g_x1, g_x2), quotients):
                denom = np.maximum(np.abs(fd), 1e-6)
                assert (np.abs(fd - analytic) / denom).max() < 1e-4


def synthetic_split(tmp_path_factory, n, seed=7):
    """A seeded ``write_synthetic`` pair at edge_prob 8/n, loaded and split
    0.24 / 0.06 / 0.70."""
    paths = write_synthetic(tmp_path_factory.mktemp(f"synth{n}"), n, 8 / n, 0.25,
                            seed, edge_noise=0.12)
    kg1 = load_kg(paths["triples1"], paths["names1"])
    kg2 = load_kg(paths["triples2"], paths["names2"])
    gold = [(kg1.entity_index[s], kg2.entity_index[t])
            for s, t in load_alignment(paths["gold"])]
    return kg1, kg2, split_alignment(gold, 0.24, 0.06, rng_seed=seed)


def structural_hits1(z1, z2, test) -> float:
    """Hits@1 of the L1 ranking of every test target for each test source."""
    scores = sim_matrix(z1[[s for s, _ in test]], z2[[t for _, t in test]], "man")
    return float(np.mean(np.array(gold_ranks(scores.scores)) == 1))


class TestTrain:
    def test_bit_identical_to_reference_loop(self):
        meta = np.random.default_rng(17)
        cases = []
        for trial in range(6):
            n1, n2 = (int(v) for v in meta.integers(4, 40, 2))
            cases.append((n1, n2, int(meta.integers(1, 12)), 8, trial))
        # Wider rows too: the benchmark's dim and the default.
        cases += [(60, 50, 64, 3, 6), (45, 55, 300, 2, 7)]
        for n1, n2, dim, epochs, trial in cases:
            kg1 = random_kg(n1, int(meta.integers(0, 3 * n1)), trial)
            kg2 = random_kg(n2, int(meta.integers(0, 3 * n2)), trial + 100)
            m = int(meta.integers(1, min(n1, n2)))
            seeds = list(zip(meta.permutation(n1)[:m].tolist(),
                             meta.permutation(n2)[:m].tolist()))
            cfg = TrainConfig(dim=dim, epochs=epochs,
                              negatives=int(meta.integers(1, 6)), learning_rate=0.01,
                              rng_seed=trial)
            got, want = [], []
            z = train(kg1, kg2, seeds, cfg, on_epoch=lambda e, l: got.append((e, l)))
            ref = train_per_graph(kg1, kg2, seeds, cfg, lambda e, l: want.append((e, l)))
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

    @pytest.mark.parametrize("n", [400, 2000])
    def test_structural_hits1_floor(self, tmp_path_factory, n):
        # The trained-weight encoder scored 0.04 (n=400) and 0.002 (n=2000).
        kg1, kg2, split = synthetic_split(tmp_path_factory, n)
        z1, z2 = train(kg1, kg2, list(split.train), TrainConfig(dim=64, rng_seed=7))
        assert structural_hits1(z1, z2, split.test) >= 0.8

    def test_default_config_trains(self, tmp_path_factory):
        # The previous default (learning rate 1.0) failed here with a
        # non-finite loss.
        kg1, kg2, split = synthetic_split(tmp_path_factory, 400)
        losses = []
        z1, z2 = train(kg1, kg2, list(split.train), TrainConfig(),
                       on_epoch=lambda e, l: losses.append(l))
        assert losses[-1] < 0.01 * losses[0]
        assert structural_hits1(z1, z2, split.test) >= 0.8

    @pytest.mark.parametrize("lr, overflows", [(1e150, False), (1e155, True)])
    def test_embedding_norm_overflow_raises(self, lr, overflows):
        # At lr 1e155 training ends with finite X and finite embeddings, yet
        # 70 of the 80 rows have a squared L2 norm past float64: cos would
        # score those rows 0 against everything.
        kg1, kg2 = random_kg(40, 80, 1), random_kg(40, 80, 2)
        seeds = [(i, i) for i in range(12)]
        cfg = TrainConfig(dim=8, epochs=3, learning_rate=lr, rng_seed=0)
        if overflows:
            with pytest.raises(TrainingError, match="squared L2 norm of 70 of 80 "
                               "embedding rows is not finite after epoch 2"):
                train(kg1, kg2, seeds, cfg)
        else:
            z1, z2 = train(kg1, kg2, seeds, cfg)
            assert np.abs(z1).max() > 1e149
            assert np.isfinite(np.linalg.norm(np.concatenate([z1, z2]), axis=1)).all()

    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)

    def test_empty_seeds_rejected(self):
        kg = kg_from_edges(4, [(0, 1)])
        with pytest.raises(ValueError):
            train(kg, kg, [], TrainConfig(dim=4, epochs=1))
