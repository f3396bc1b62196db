"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line and enforces its runtime budget.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.
"""

import os
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from kgalign.collective import (
    RlConfig,
    a2c_align,
    actor_log_prob_grads,
    actor_forward,
    build_environment,
    count_multiplicities,
    critic_grads,
    critic_value,
    greedy_independent,
    hungarian,
    init_actor,
    init_critic,
    preliminary_filter,
    stable_matching,
)
from kgalign.fusion import (
    ConfidentCorrespondence,
    FusionConfig,
    adaptive_fuse,
    correspondence_weights,
    feature_weights,
)
from kgalign.gcn import (
    TrainConfig,
    gcn_forward,
    init_features,
    init_parameters,
    train,
)
from kgalign.kg import adjacency, neighbor_sets, split_alignment
from kgalign.measures import Measure, sim_matrix
from kgalign.metrics import hits_mrr, prf
from kgalign.names import name_embedding_matrix, string_sim_matrix, WordVectorTable
from kgalign.synth import gen_synthetic, synth_word_vectors

from test_collective import (
    SCENARIO_MATRIX,
    SCENARIO_NEIGHBORS,
    blocking_pairs,
    brute_force_best,
    mutual_argmax_oracle,
)
from reference import (
    bray_curtis,
    cosine_sim,
    euclidean,
    loss_and_gradients,
    manhattan,
    margin_loss,
    sample_negatives,
)
from test_gcn import finite_difference, random_kg


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({description}): FAIL")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} took {elapsed:.1f}s, budget {budget_seconds}s"
    )
    print(
        f"[acceptance] criterion {number} ({description}): PASS "
        f"({elapsed:.1f}s / {budget_seconds:.0f}s budget)"
    )


def test_criterion_1_formula_oracles():
    """All four measures match independent evaluations to 1e-12."""
    with criterion(1, "distance formula oracles", 5.0):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            dim = int(rng.integers(1, 8))
            # Rational coordinates k/8 keep the per-coordinate ratios exact.
            u_num = rng.integers(-16, 17, size=dim)
            v_num = rng.integers(-16, 17, size=dim)
            u = u_num / 8.0
            v = v_num / 8.0

            man_exact = Fraction(int(np.abs(u_num - v_num).sum()), 8)
            assert abs(manhattan(u, v) - float(man_exact)) < 1e-12

            bc_exact = Fraction(0)
            for a, b in zip(u_num, v_num):
                if a + b != 0:
                    bc_exact += Fraction(abs(int(a - b)), abs(int(a + b)))
            assert abs(bray_curtis(u, v) - float(bc_exact)) < 1e-12

            import math

            euc_indep = math.sqrt(math.fsum((x - y) ** 2 for x, y in zip(u, v)))
            assert abs(euclidean(u, v) - euc_indep) < 1e-12

            nu = math.sqrt(math.fsum(x * x for x in u))
            nv = math.sqrt(math.fsum(x * x for x in v))
            cos_indep = (
                math.fsum(x * y for x, y in zip(u, v)) / (nu * nv)
                if nu > 0 and nv > 0
                else 0.0
            )
            assert abs(cosine_sim(u, v) - cos_indep) < 1e-12


def test_criterion_2_gradient_checks():
    """Encoder and policy gradients match central differences to 1e-4."""
    with criterion(2, "finite-difference gradient checks", 30.0):
        for trial in range(20):
            rng = np.random.default_rng(1000 + trial)
            kg1 = random_kg(6, 9, 2000 + trial)
            kg2 = random_kg(6, 9, 3000 + trial)
            adj1, adj2 = adjacency(kg1), adjacency(kg2)
            x1 = init_features(6, 4, rng_seed=trial)
            x2 = init_features(6, 4, rng_seed=trial + 99)
            params = init_parameters(rng, 4)
            positives = [(0, 0), (1, 1), (2, 2)]
            negatives = sample_negatives(positives, 2, rng, 6, 6)
            _, g_w1, g_w2 = loss_and_gradients(
                adj1, x1, adj2, x2, params, positives, negatives, margin=3.0
            )

            def loss():
                z1 = gcn_forward(adj1, x1, params)
                z2 = gcn_forward(adj2, x2, params)
                return margin_loss(z1, z2, positives, negatives, margin=3.0)

            for analytic, w in ((g_w1, params.w1), (g_w2, params.w2)):
                fd = finite_difference(loss, w, h=1e-5)
                denom = np.maximum(np.abs(fd), 1e-6)
                assert (np.abs(fd - analytic) / denom).max() < 1e-4

        for trial in range(20):
            rng = np.random.default_rng(4000 + trial)
            actor = init_actor(rng, 5, 10)
            critic = init_critic(rng, 5, 10)
            s = rng.normal(size=5)
            a = int(rng.integers(5))
            actor_grads = actor_log_prob_grads(s, actor, a)

            def log_prob():
                return float(np.log(actor_forward(s, actor)[a]))

            for analytic, arr in zip(
                actor_grads, (actor.w1, actor.b1, actor.w2, actor.b2)
            ):
                fd = finite_difference(log_prob, arr, h=1e-5)
                denom = np.maximum(np.abs(fd), 1e-6)
                assert (np.abs(fd - analytic) / denom).max() < 1e-4

            value_grads = critic_grads(s, critic)

            def value():
                return critic_value(s, critic)

            for analytic, arr in zip(
                value_grads, (critic.w3, critic.b3, critic.w4, critic.b4)
            ):
                fd = finite_difference(value, arr, h=1e-5)
                denom = np.maximum(np.abs(fd), 1e-6)
                assert (np.abs(fd - analytic) / denom).max() < 1e-4


def test_criterion_3_matching_oracles():
    """Stable matching admits no blocking pair; assignment is optimal."""
    with criterion(3, "matching oracles", 60.0):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(2, 51))
            scores = rng.random((n, n))
            result = stable_matching(scores)
            assert blocking_pairs(scores, result.pairs) == []
        for _ in range(100):
            n = int(rng.integers(2, 9))
            scores = rng.random((n, n))
            result = hungarian(scores)
            total = sum(scores[s, t] for s, t in result.pairs.items())
            assert abs(total - brute_force_best(scores)) < 1e-9


def test_criterion_4_coordination_scenario():
    """Greedy 1/4 and 1-to-1 matching 2/4 exactly; the policy reaches 3/4+."""
    with criterion(4, "four-entity coordination scenario", 120.0):
        gold = {i: i for i in range(4)}
        greedy = greedy_independent(SCENARIO_MATRIX)
        assert greedy.pairs == {0: 0, 1: 0, 2: 1, 3: 1}
        assert sum(1 for s, t in greedy.pairs.items() if gold[s] == t) == 1

        stable = stable_matching(SCENARIO_MATRIX)
        assert blocking_pairs(SCENARIO_MATRIX, stable.pairs) == []
        assert stable.pairs == {0: 0, 1: 2, 2: 1, 3: 3}
        assert sum(1 for s, t in stable.pairs.items() if gold[s] == t) == 2

        wins = 0
        for seed in range(10):
            cfg = RlConfig(
                tau=10, epochs=1000, rng_seed=seed, preliminary_rounds=0,
                mode="full", actor_lr=0.01, critic_lr=0.05,
            )
            env = build_environment(
                SCENARIO_MATRIX, SCENARIO_NEIGHBORS, SCENARIO_NEIGHBORS, cfg
            )
            result = a2c_align(env, cfg)
            correct = sum(1 for s, t in result.pairs.items() if gold[s] == t)
            if correct >= 3:
                wins += 1
        assert wins >= 6, f"policy reached 3/4 on only {wins} of 10 seeds"


def test_criterion_5_fusion_walkthrough():
    """Inverse-frequency weights, the damping override, and normalization."""
    with criterion(5, "adaptive fusion walkthrough", 10.0):
        cfg = FusionConfig(theta1=0.95, theta2=0.48)
        per_feature = {
            "structural": [
                ConfidentCorrespondence(2, 2, 0.96, "structural"),
                ConfidentCorrespondence(3, 3, 0.90, "structural"),
            ],
            "semantic": [
                ConfidentCorrespondence(2, 2, 0.90, "semantic"),
                ConfidentCorrespondence(1, 1, 0.80, "semantic"),
            ],
            "string": [
                ConfidentCorrespondence(4, 4, 0.70, "string"),
                ConfidentCorrespondence(5, 5, 0.60, "string"),
            ],
        }
        weights = correspondence_weights(per_feature, cfg)
        # Detected by two features: each copy gets 1/2.
        assert weights[(2, 2)]["semantic"] == 0.5
        # The structural copy scored above theta1, so it is reset to theta2.
        assert weights[(2, 2)]["structural"] == 0.48
        # Unique detections carry full weight.
        assert weights[(3, 3)] == {"structural": 1.0}
        assert weights[(1, 1)] == {"semantic": 1.0}

        fw = feature_weights(weights, ["structural", "semantic", "string"])
        assert abs(sum(fw.weights.values()) - 1.0) <= 1e-9
        # Weight scores: structural (0.48 + 1)/2, semantic (0.5 + 1)/2, string 1.
        total = 0.74 + 0.75 + 1.0
        assert fw.weights["structural"] == pytest.approx(0.74 / total)
        assert fw.weights["semantic"] == pytest.approx(0.75 / total)
        assert fw.weights["string"] == pytest.approx(1.0 / total)


@pytest.fixture(scope="module")
def planted():
    """A 200-entity planted benchmark with all three features fused."""
    seed = 7
    kg1, kg2, gold = gen_synthetic(
        200, edge_prob=0.04, name_noise=0.25, rng_seed=seed, edge_noise=0.12
    )
    idx = [(kg1.entity_index[s], kg2.entity_index[t]) for s, t in gold]
    split = split_alignment(idx, 0.24, 0.06, rng_seed=seed)
    test_src = [s for s, _ in split.test]
    test_tgt = [t for _, t in split.test]

    cfg = TrainConfig(dim=32, margin=3.0, epochs=60, negatives=5,
                      learning_rate=0.05, rng_seed=seed)
    z1, z2 = train(kg1, kg2, list(split.train), cfg)
    mats = [sim_matrix(z1[test_src], z2[test_tgt], Measure.COSINE, "structural")]
    table = WordVectorTable(synth_word_vectors(kg1, kg2, 16, seed), 16)
    n1 = name_embedding_matrix([kg1.entity_names[i] for i in test_src], table)
    n2 = name_embedding_matrix([kg2.entity_names[i] for i in test_tgt], table)
    mats.append(sim_matrix(n1.rows, n2.rows, Measure.COSINE, "semantic"))
    mats.append(string_sim_matrix(
        [kg1.entity_names[i] for i in test_src],
        [kg2.entity_names[i] for i in test_tgt],
    ))
    fused, _ = adaptive_fuse(mats, FusionConfig())

    sets1, sets2 = neighbor_sets(kg1), neighbor_sets(kg2)
    src_pos = {e: i for i, e in enumerate(test_src)}
    tgt_pos = {e: i for i, e in enumerate(test_tgt)}
    src_nb = [frozenset(src_pos[w] for w in sets1[e] if w in src_pos)
              for e in test_src]
    tgt_nb = [frozenset(tgt_pos[w] for w in sets2[e] if w in tgt_pos)
              for e in test_tgt]
    gold_map = {i: i for i in range(len(test_src))}
    return fused, src_nb, tgt_nb, gold_map, seed


def test_criterion_6_planted_benchmark(planted):
    """Decoder comparison on the planted benchmark."""
    with criterion(6, "planted benchmark decoder comparison", 300.0):
        fused, src_nb, tgt_nb, gold_map, seed = planted
        greedy = greedy_independent(fused)
        greedy_p, _, _ = prf(greedy, gold_map)
        _, greedy_te = count_multiplicities(greedy)

        cfg = RlConfig(tau=10, epochs=150, rng_seed=seed, preliminary_rounds=2,
                       mode="full", actor_lr=0.005, critic_lr=0.02)
        env = build_environment(fused, src_nb, tgt_nb, cfg)
        rl = a2c_align(env, cfg)
        rl_p, _, _ = prf(rl, gold_map)
        _, rl_te = count_multiplicities(rl)

        stable = stable_matching(fused)
        stable_se, stable_te = count_multiplicities(stable)

        assert rl_p >= greedy_p, f"policy {rl_p:.3f} below greedy {greedy_p:.3f}"
        assert 0 <= rl_te < greedy_te, (
            f"policy reuses {rl_te} targets, greedy {greedy_te}"
        )
        assert stable_se == 0 and stable_te == 0


def test_criterion_7_preliminary_treatment(planted):
    """Mutual-top-1 confirmation is precise and matches the oracle."""
    with criterion(7, "preliminary treatment", 60.0):
        fused, _, _, gold_map, _ = planted
        confirmed, res_src, res_tgt = preliminary_filter(fused.scores, 2)
        assert confirmed, "expected at least one confirmed pair"
        poc = sum(1 for s, t in confirmed if gold_map[s] == t) / len(confirmed)
        greedy_p, _, _ = prf(greedy_independent(fused), gold_map)
        assert poc > greedy_p, f"confirmed PoC {poc:.3f} <= greedy {greedy_p:.3f}"

        want_pairs, want_src, want_tgt = mutual_argmax_oracle(fused.scores, 2)
        assert sorted(confirmed) == sorted(want_pairs)
        assert list(res_src) == want_src
        assert list(res_tgt) == want_tgt


def test_criterion_8_metric_identities():
    """P = R = F1 with full predictions; hits at 1 equals precision."""
    with criterion(8, "metric identities", 30.0):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(1, 40))
            gold = {i: i for i in range(n)}
            pred = {i: int(rng.integers(n)) for i in range(n)}
            p, r, f1 = prf(pred, gold)
            assert p == r and r == f1

            ranked = {i: list(rng.permutation(n)) for i in range(n)}
            hits, _ = hits_mrr(ranked, gold, ks=(1,))
            rank1 = {i: ranked[i][0] for i in range(n)}
            p1, _, _ = prf(rank1, gold)
            assert hits[1] == p1


BENCH_DIR = os.environ.get("KGALIGN_BENCH_DIR")


@pytest.mark.skipif(
    not BENCH_DIR,
    reason="full-scale harness is optional; set KGALIGN_BENCH_DIR to a directory "
    "holding triples1.tsv/names1.tsv/triples2.tsv/names2.tsv/gold.tsv for a "
    "benchmark whose gold pairs share identical names",
)
def test_criterion_9_full_scale_string_baseline():
    """Name-identical benchmark: string-only greedy decoding is exact."""
    with criterion(9, "full-scale string baseline", 3600.0):
        from kgalign.kg import load_alignment, load_kg

        base = Path(BENCH_DIR)
        kg1 = load_kg(base / "triples1.tsv", base / "names1.tsv")
        kg2 = load_kg(base / "triples2.tsv", base / "names2.tsv")
        pairs = load_alignment(base / "gold.tsv")
        idx = [(kg1.entity_index[s], kg2.entity_index[t]) for s, t in pairs]
        split = split_alignment(idx, 0.24, 0.06, rng_seed=0)
        test_src = [s for s, _ in split.test]
        test_tgt = [t for _, t in split.test]
        m = string_sim_matrix(
            [kg1.entity_names[i] for i in test_src],
            [kg2.entity_names[i] for i in test_tgt],
            threads=int(os.environ.get("KGALIGN_THREADS", "4")),
        )
        result = greedy_independent(m)
        p, _, _ = prf(result, {i: i for i in range(len(test_src))})
        assert p == pytest.approx(1.000, abs=1e-9)
