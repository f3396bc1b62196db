"""Structural encoder: initialization, forward pass, loss, and gradients."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kgalign.errors import SamplingError, TrainingError
from kgalign.gcn import (
    NEGATIVE_BLOCK_CELLS,
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


# Pools of at least 9 practically never run out of attempts: a candidate
# collides only with its own positive, 1 time in 9 or fewer. Pools near 2**32
# need 64-bit pair keys.
POOL_SIZES = st.one_of(st.integers(9, 400),
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


class _CountingGenerator:
    """A seeded generator's ``integers``, counting its calls."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        return self.rng.integers(*args, **kwargs)


class TestSampleNegatives:
    @settings(max_examples=300, deadline=None)
    @given(sampling_cases())
    def test_contract(self, case):
        positives, k, seed, n_source, n_target = case
        pos = np.asarray(positives, dtype=np.int64).reshape(-1, 2)
        sampler = _NegativeSampler(pos, k, n_source, n_target)
        neg = sampler(np.random.default_rng(seed))
        assert neg.shape == (len(pos) * k, 2)
        changed = neg != np.repeat(pos, k, axis=0)
        assert (changed.sum(axis=1) == 1).all()
        assert (neg >= 0).all() and (neg < [n_source, n_target]).all()
        assert not set(map(tuple, neg.tolist())) & set(positives)
        assert np.array_equal(sampler(np.random.default_rng(seed)), neg)

    @settings(max_examples=100, deadline=None)
    @given(sampling_cases())
    def test_every_epoch_of_a_block_keeps_the_contract(self, case):
        # Two passes, the second a partial block: each epoch's negatives
        # replace exactly one side, inside the pools, and are no positive.
        positives, k, seed, n_source, n_target = case
        assume(positives)
        pos = np.asarray(positives, dtype=np.int64).reshape(-1, 2)
        sampler = _NegativeSampler(pos, k, n_source, n_target)
        epochs = sampler.block + sampler.block // 2 + 1
        neg = np.stack(list(sampler.each_epoch(np.random.default_rng(seed), epochs)))
        assert neg.shape == (epochs, len(pos) * k, 2)
        changed = neg != np.repeat(pos, k, axis=0)
        assert (changed.sum(axis=2) == 1).all()
        assert (neg >= 0).all() and (neg < [n_source, n_target]).all()
        assert not set(map(tuple, neg.reshape(-1, 2).tolist())) & set(positives)

    def test_consecutive_epochs_differ(self):
        # At structure-250's shape a block is 27 epochs: an epoch that
        # reused a neighbour's draws, in a block or across two, fails here.
        perm = np.random.default_rng(3)
        pos = np.stack([perm.permutation(250)[:60], perm.permutation(250)[:60]], axis=1)
        sampler = _NegativeSampler(pos, 5, 250, 250)
        epochs = list(sampler.each_epoch(np.random.default_rng(4), 2 * sampler.block + 3))
        assert sampler.block == 27
        for a, b in zip(epochs, epochs[1:]):
            assert (a != b).any(axis=1).mean() > 0.9

    def test_a_block_is_bounded_by_the_cell_budget(self):
        # The 15K default's shape: 3,600 seeds x 5 negatives over pools of
        # 15,000. Its 18,000 slots an epoch exceed the budget, so a pass
        # draws one epoch, about 100 bytes a slot; 300 epochs at once would
        # trace about 500 MB.
        perm = np.random.default_rng(5)
        pos = np.stack([perm.permutation(15000)[:3600], perm.permutation(15000)[:3600]],
                       axis=1)
        tracemalloc.start()
        try:
            sampler = _NegativeSampler(pos, 5, 15000, 15000)
            for _ in sampler.each_epoch(np.random.default_rng(6), 3):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sampler.block == 1
        assert peak <= 128 * max(NEGATIVE_BLOCK_CELLS, 18000), peak

    @pytest.mark.parametrize("pools, m", [((3000, 2000), 20000), ((2**32, 2**32 - 5), 3000)])
    def test_collision_lookup_matches_a_set(self, pools, m):
        # 20,000 positives fill a quarter of the lookup's hash table, so many
        # pairs hit it without being a positive; huge pools give keys near
        # 2**64.
        rng = np.random.default_rng(m)
        pairs = np.stack([rng.integers(pools[0], size=3 * m),
                          rng.integers(pools[1], size=3 * m)], axis=1)
        pairs[:2] = [pools[0] - 1, pools[1] - 1]  # the largest key
        pos = pairs[::3]
        sampler = _NegativeSampler(pos, 1, *pools)
        positives = set(map(tuple, pos.tolist()))
        want = [i for i, row in enumerate(pairs.tolist()) if tuple(row) in positives]
        assert sampler._collisions(pairs).tolist() == want
        assert len(want) < len(pairs)

    def test_both_sides_replaced_over_whole_pools(self):
        # A sampler that corrupts only one side, or draws from part of a pool,
        # fails here.
        positives = np.array([(i, (7 * i) % 50) for i in range(20)])
        sampler = _NegativeSampler(positives, 5, 50, 50)
        neg = np.concatenate([sampler(np.random.default_rng(seed)) for seed in range(100)])
        source_replaced = neg[:, 0] != np.tile(np.repeat(positives[:, 0], 5), 100)
        assert 0.4 <= source_replaced.mean() <= 0.6
        assert set(neg[source_replaced, 0].tolist()) == set(range(50))
        assert set(neg[~source_replaced, 1].tolist()) == set(range(50))

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

    @pytest.mark.parametrize("case, rounds, draws, state", [
        # The structure-250 benchmark's shape: 60 seeds x 5 over pools of 250.
        ("structure-250", [2, 2, 2],
         "c507efebfdb62501769d2b38a87301b3b9be05a7706a3ecd50433d96bf3996ee",
         "50a1eac2acc48a4d8059058baeb8722284f57a4febbfacae1231125485cc11e1"),
        # Pools of 3: a third of the candidates collide, so a block of 8,190
        # slots takes up to nine rounds of redraws.
        ("small pools", [8, 9, 6],
         "3550ed2427c9c63fa3e0d10af5f5ff2c008464f1878385d5500c24c99ff8d9de",
         "9bd5e97ced25782b02b435200b3473dc5359b97db1014caee33597b20fbf5a0d"),
        ("k=1", [4, 3, 2],
         "5a4e72c757a901703c7f6914ea53dcf04672c6a8e04bbc07f8079d554db3c448",
         "951924777fdb740320fc3a9fbce41d005607b2ca3c903093e07fe519b8e398a0"),
    ], ids=["structure-250", "small pools", "k=1"])
    def test_draws_pinned(self, case, rounds, draws, state):
        # The sha256 of the pairs of two blocks of epochs and a partial
        # third, as training draws them, and of the generator's state after
        # them: any change to the draws, their order, their sizes or the
        # block size fails here. The reference loop shares the sampler, so
        # it cannot see such a change.
        if case == "structure-250":
            perm = np.random.default_rng(250)
            pos = np.stack([perm.permutation(250)[:60], perm.permutation(250)[:60]], axis=1)
            sampler = _NegativeSampler(pos, 5, 250, 250)
        elif case == "small pools":
            sampler = _NegativeSampler(np.array([(0, 0), (1, 1), (2, 2)]), 6, 3, 3)
        else:
            pos = np.stack([np.arange(25), (7 * np.arange(25)) % 30], axis=1)
            sampler = _NegativeSampler(pos, 1, 40, 30)
        rng = _CountingGenerator(11)
        got_rounds, digest, calls = [], hashlib.sha256(), 0
        for negatives in sampler.each_epoch(rng, 2 * sampler.block + 5):
            if rng.calls != calls:  # a block was drawn for this epoch
                got_rounds.append((rng.calls - calls) // 2)  # a coin and a replacement each
                calls = rng.calls
            digest.update(negatives.tobytes())
        assert got_rounds == rounds
        assert digest.hexdigest() == draws
        end = json.dumps(rng.rng.bit_generator.state, sort_keys=True).encode()
        assert hashlib.sha256(end).hexdigest() == state

    def test_sampling_error_after_pinned_draws(self):
        # Every candidate over pools of 2 x 1 is (0, 0) or (1, 0), a positive:
        # the call raises after exactly 100 rounds, leaving the generator
        # where these pinned draws do.
        sampler = _NegativeSampler(np.array([(0, 0), (1, 0)]), 2, 2, 1)
        rng = _CountingGenerator(5)
        with pytest.raises(SamplingError, match=r"pair \(0, 0\)"):
            sampler(rng)
        assert rng.calls == 200
        end = json.dumps(rng.rng.bit_generator.state, sort_keys=True).encode()
        assert (hashlib.sha256(end).hexdigest()
                == "7a33b9bef5df1aa54b5dc8c993651236f32318aedb51c1bacbe07d707a0ef892")
        # A whole block raises after as many rounds, each over every slot
        # still open in every epoch.
        rng = _CountingGenerator(5)
        with pytest.raises(SamplingError, match=r"pair \(0, 0\)"):
            next(sampler.each_epoch(rng, 3 * sampler.block))
        assert rng.calls == 200


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

    def test_bit_identical_to_reference_loop_at_benchmark_shape(self):
        # structure-250's shape: two 250-entity graphs (A_hat about 3.5k
        # nonzeros), dim 64, 60 seeds x 5 negatives, its learning rate. The
        # epochs span two blocks of negatives and end in a partial third.
        kg1, kg2 = random_kg(250, 750, 250), random_kg(250, 750, 251)
        perm = np.random.default_rng(252)
        seeds = list(zip(perm.permutation(250)[:60].tolist(),
                         perm.permutation(250)[:60].tolist()))
        block = _NegativeSampler(np.array(seeds), 5, 250, 250).block
        cfg = TrainConfig(dim=64, epochs=2 * block + block // 3, learning_rate=0.005,
                          rng_seed=7)
        assert cfg.epochs % block
        got, want = [], []
        z = train(kg1, kg2, seeds, cfg, on_epoch=lambda e, l: got.append((e, l)))
        ref = train_per_graph(kg1, kg2, seeds, cfg, lambda e, l: want.append((e, l)))
        assert np.array_equal(z[0], ref[0]) and np.array_equal(z[1], ref[1])
        assert got == want

    def test_seeded_output_bytes_pinned(self):
        # The sha256 of a seeded run's embeddings and losses. Every dtype in
        # train is explicit, so numpy 1.x's value-based casting and numpy 2's
        # NEP 50 promotion, and each SIMD target numpy dispatches to, give
        # these bytes. The float64 output is an exact cast of float32 values.
        kg1, kg2 = random_kg(30, 60, 3), random_kg(34, 70, 4)
        seeds = [(i, 2 * i) for i in range(10)]
        losses = []
        z1, z2 = train(kg1, kg2, seeds, TrainConfig(dim=24, epochs=12, rng_seed=5),
                       on_epoch=lambda e, l: losses.append(l))
        assert z1.dtype == z2.dtype == np.float64
        for z in (z1, z2):
            assert np.array_equal(z.astype(np.float32).astype(np.float64), z)
        digest = hashlib.sha256(z1.tobytes() + z2.tobytes() + np.array(losses).tobytes())
        assert (digest.hexdigest()
                == "c73fab377edd88eec0393e040402bc8fb1be2c358f000e67a043d7966b4abe0f")

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

    @pytest.mark.parametrize("lr, overflows", [(1e37, False), (3e38, True)])
    def test_parameter_overflow_raises(self, lr, overflows):
        # Training runs in float32: at lr 1e37 X and the embeddings end
        # finite, their squared row norms finite in float64, and at lr 3e38
        # the first update overflows float32 (lr 1e38 leaves X finite here
        # and overflows the loss of epoch 1 instead). The update's overflow
        # is raised by name: a RuntimeWarning from kgalign fails the test
        # (pyproject's filterwarnings).
        kg1, kg2 = random_kg(40, 80, 1), random_kg(40, 80, 2)
        seeds = [(i, i) for i in range(12)]
        cfg = TrainConfig(dim=8, epochs=3, learning_rate=lr, rng_seed=0)
        if overflows:
            with pytest.raises(TrainingError,
                               match="parameters became non-finite at epoch 0"):
                train(kg1, kg2, seeds, cfg)
        else:
            z1, z2 = train(kg1, kg2, seeds, cfg)
            assert np.abs(z1).max() > 1e36
            assert np.isfinite(np.linalg.norm(np.concatenate([z1, z2]), axis=1)).all()

    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)

    def test_empty_seeds_rejected(self):
        kg = kg_from_edges(4, [(0, 1)])
        with pytest.raises(ValueError):
            train(kg, kg, [], TrainConfig(dim=4, epochs=1))
