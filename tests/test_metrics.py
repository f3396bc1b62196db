"""Evaluation metrics and diagnostics."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgalign import metrics
from kgalign.errors import EvaluationError
from kgalign.metrics import (
    EvalReport,
    fusion_poc,
    gold_ranks,
    hits_mrr,
    hits_mrr_of_ranks,
    prf,
)

from reference import levenshtein, name_distance_stats


class TestPrf:
    def test_all_correct_and_complete(self):
        gold = {0: 0, 1: 1}
        assert prf({0: 0, 1: 1}, gold) == (1.0, 1.0, 1.0)

    def test_full_predictions_half_correct(self):
        gold = {i: i for i in range(4)}
        pred = {0: 0, 1: 1, 2: 3, 3: 2}
        p, r, f1 = prf(pred, gold)
        assert p == r == f1 == 0.5

    def test_half_predictions_all_correct(self):
        gold = {i: i for i in range(4)}
        p, r, f1 = prf({0: 0, 1: 1}, gold)
        assert p == 1.0
        assert r == 0.5
        assert f1 == pytest.approx(2 / 3)

    def test_equal_when_sizes_match_property(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(1, 30))
            gold = {i: i for i in range(n)}
            pred = {i: int(rng.integers(n)) for i in range(n)}
            p, r, f1 = prf(pred, gold)
            assert p == r == f1

    def test_empty_predictions(self):
        assert prf({}, {0: 0}) == (0.0, 0.0, 0.0)


class TestHitsMrr:
    def test_gold_always_first(self):
        gold = {0: 10, 1: 11}
        ranked = {0: [10, 11], 1: [11, 10]}
        hits, mrr = hits_mrr(ranked, gold, ks=(1, 10))
        assert hits == {1: 1.0, 10: 1.0}
        assert mrr == 1.0

    def test_gold_always_second(self):
        gold = {0: 10, 1: 11}
        ranked = {0: [11, 10], 1: [10, 11]}
        hits, mrr = hits_mrr(ranked, gold, ks=(1, 10))
        assert hits[1] == 0.0
        assert hits[10] == 1.0
        assert mrr == 0.5

    def test_hits1_equals_precision_of_rank1_picks(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(2, 12))
            gold = {i: i for i in range(n)}
            ranked = {i: list(rng.permutation(n)) for i in range(n)}
            hits, _ = hits_mrr(ranked, gold, ks=(1,))
            pred = {i: ranked[i][0] for i in range(n)}
            p, _, _ = prf(pred, gold)
            assert hits[1] == p

    def test_monotone_in_k(self):
        rng = np.random.default_rng(2)
        n = 20
        gold = {i: i for i in range(n)}
        ranked = {i: list(rng.permutation(n)) for i in range(n)}
        hits, mrr = hits_mrr(ranked, gold, ks=(1, 2, 5, 10, 20))
        values = [hits[k] for k in (1, 2, 5, 10, 20)]
        assert values == sorted(values)
        assert mrr <= 1.0

    def test_missing_gold_target_is_an_error(self):
        with pytest.raises(EvaluationError):
            hits_mrr({0: [1, 2]}, {0: 5}, ks=(1,))

    def test_missing_list_is_an_error(self):
        with pytest.raises(EvaluationError):
            hits_mrr({}, {0: 5}, ks=(1,))


def argsort_ranked(scores):
    """The per-row ranked lists the pipeline built before gold_ranks."""
    return {i: list(np.argsort(-scores[i], kind="stable")) for i in range(scores.shape[0])}


class TestGoldRanks:
    # Few distinct values, both signed zeros, so ties are common; some
    # matrices have more columns than rows.
    @settings(max_examples=300, deadline=None)
    @given(st.tuples(st.integers(1, 9), st.integers(0, 2)).flatmap(lambda shape: st.lists(
        st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.25, 0.5, 1.0]),
                 min_size=sum(shape), max_size=sum(shape)),
        min_size=shape[0], max_size=shape[0])), st.integers(1, 10))
    def test_equals_stable_argsort_position(self, rows, block):
        scores = np.array(rows)
        n = scores.shape[0]
        ranked = argsort_ranked(scores)
        with mock.patch.object(metrics, "_RANK_BLOCK", block):
            got = gold_ranks(scores)
        assert got == [ranked[i].index(i) + 1 for i in range(n)]
        gold = {i: i for i in range(n)}
        assert hits_mrr_of_ranks(got, ks=(1, 2, 10)) == hits_mrr(ranked, gold, ks=(1, 2, 10))

    def test_same_report_floats_as_ranked_lists(self):
        rng = np.random.default_rng(8)
        scores = np.round(rng.random((300, 300)) * 50) / 50
        gold = {i: i for i in range(300)}
        with mock.patch.object(metrics, "_RANK_BLOCK", 64):
            ranks = gold_ranks(scores)
        assert all(type(r) is int for r in ranks)
        assert hits_mrr_of_ranks(ranks) == hits_mrr(argsort_ranked(scores), gold)

    def test_more_rows_than_columns_rejected(self):
        with pytest.raises(ValueError):
            gold_ranks(np.zeros((3, 2)))

    def test_no_ranks_rejected(self):
        with pytest.raises(ValueError):
            hits_mrr_of_ranks([])


class TestNameDistanceStats:
    def test_identical_names(self):
        names = ["alpha", "beta"]
        stats = name_distance_stats([(0, 0), (1, 1)], names, names)
        assert stats == (0.0, 0.0, 0.0, 0.0)

    def test_documented_example(self):
        # Distances 0, 0, 4, 12: mean 4; nearest-rank median is the 2nd
        # smallest (0), unlike the interpolated value 2.
        src = ["aa", "bb", "cccc", "dddddddddddd"]
        tgt = ["aa", "bb", "gggg", "xxxxxxxxxxxx"]
        pairs = [(0, 0), (1, 1), (2, 2), (3, 3)]
        avg, median, p10, p90 = name_distance_stats(pairs, src, tgt)
        assert avg == 4.0
        assert median == 0.0
        assert p10 == 0.0
        assert p90 == 12.0

    def test_single_pair(self):
        stats = name_distance_stats([(0, 0)], ["abc"], ["xyz"])
        assert stats == (3.0, 3.0, 3.0, 3.0)

    def test_against_sort_oracle(self):
        import math

        rng = np.random.default_rng(3)
        alphabet = list("abcd")
        for _ in range(1000):
            n = int(rng.integers(1, 12))
            src = ["".join(rng.choice(alphabet, size=rng.integers(0, 8))) for _ in range(n)]
            tgt = ["".join(rng.choice(alphabet, size=rng.integers(0, 8))) for _ in range(n)]
            pairs = [(i, i) for i in range(n)]
            avg, median, p10, p90 = name_distance_stats(pairs, src, tgt)
            dists = sorted(levenshtein(a, b) for a, b in zip(src, tgt))
            assert avg == pytest.approx(sum(dists) / n)
            assert median == dists[max(0, math.ceil(0.5 * n) - 1)]
            assert p10 == dists[max(0, math.ceil(0.1 * n) - 1)]
            assert p90 == dists[max(0, math.ceil(0.9 * n) - 1)]


class TestFusionPoc:
    def test_all_gold(self):
        assert fusion_poc([(0, 0), (1, 1)], {0: 0, 1: 1}) == 1.0

    def test_three_of_four(self):
        corrs = [(0, 0), (1, 1), (2, 2), (3, 9)]
        assert fusion_poc(corrs, {i: i for i in range(4)}) == 0.75

    def test_empty_is_absent(self):
        assert fusion_poc([], {0: 0}) is None

    def test_duplicates_across_features_count_once(self):
        from kgalign.fusion import ConfidentCorrespondence

        corrs = [
            ConfidentCorrespondence(0, 0, 0.9, "a"),
            ConfidentCorrespondence(0, 0, 0.8, "b"),
            ConfidentCorrespondence(1, 2, 0.7, "a"),
        ]
        assert fusion_poc(corrs, {0: 0, 1: 1}) == 0.5

    def test_bounds(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(1, 10))
            corrs = [(int(rng.integers(n)), int(rng.integers(n))) for _ in range(n)]
            poc = fusion_poc(corrs, {i: i for i in range(n)})
            assert poc is None or 0.0 <= poc <= 1.0


class TestEvalReport:
    def test_round_trip_text_and_json(self):
        report = EvalReport(
            precision=0.5, recall=0.5, f1=0.5,
            hits={1: 0.5, 10: 0.9}, mrr=0.6, mulse=2, multe=1, poc=0.75,
        )
        text = report.to_text()
        assert "precision\t0.5" in text
        assert "hits@10\t0.9" in text
        import json

        payload = json.loads(report.to_json())
        assert payload["mulse"] == 2
        assert payload["hits"]["1"] == 0.5

    @pytest.mark.parametrize("report", [
        EvalReport(precision=1 / 3, recall=0.25, f1=2 / 7, hits={1: 0.1, 2: 0.2, 10: 0.7},
                   mrr=0.123456789012345, mulse=2, multe=0, poc=None),
        EvalReport(precision=1.0, recall=1.0, f1=1.0),
    ])
    def test_from_json_inverts_to_json(self, report):
        back = EvalReport.from_json(report.to_json())
        assert back == report
        assert all(type(k) is int for k in back.hits)
        assert back.to_text() == report.to_text()

    def test_optional_fields_omitted(self):
        report = EvalReport(precision=1.0, recall=1.0, f1=1.0)
        assert "poc" not in report.to_text()
