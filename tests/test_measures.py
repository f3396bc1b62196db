"""Distance measures against independent oracles."""

from fractions import Fraction

import numpy as np
import pytest

from kgalign.measures import Measure, SimilarityMatrix, sim_matrix

from reference import (
    bray_curtis,
    bray_curtis_textbook,
    cosine_sim,
    euclidean,
    manhattan,
    similarity,
)


class TestBrayCurtis:
    def test_identical_vectors(self):
        u = np.array([0.2, 0.5, 0.3])
        assert bray_curtis(u, u) == 0.0
        assert similarity(u, u, Measure.BRAY_CURTIS) == 1.0

    def test_exact_rational_example(self):
        u = np.array([0.5, 0.5])
        v = np.array([0.25, 0.75])
        expected = Fraction(1, 4) / Fraction(3, 4) + Fraction(1, 4) / Fraction(5, 4)
        assert bray_curtis(u, v) == pytest.approx(float(expected), abs=1e-15)
        assert similarity(u, v, Measure.BRAY_CURTIS) == pytest.approx(
            1 - float(expected), abs=1e-15
        )

    def test_zero_denominator_convention(self):
        assert bray_curtis(np.array([1.0]), np.array([-1.0])) == 0.0
        m = sim_matrix(np.array([[1.0]]), np.array([[-1.0]]), Measure.BRAY_CURTIS)
        assert m.scores.tolist() == [[1.0]]
        assert m.zero_denominators == 1

    def test_textbook_variant(self):
        u = np.array([1.0, 3.0])
        v = np.array([2.0, 2.0])
        assert bray_curtis_textbook(u, v) == pytest.approx(2 / 8)


class TestOtherMeasures:
    def test_identical_vectors(self):
        u = np.array([0.4, -0.1, 2.0])
        assert manhattan(u, u) == 0.0
        assert euclidean(u, u) == 0.0
        assert cosine_sim(u, u) == pytest.approx(1.0)
        assert similarity(u, u, Measure.MANHATTAN) == 1.0
        assert similarity(u, u, Measure.EUCLIDEAN) == 1.0

    def test_unit_basis_vectors(self):
        u = np.array([1.0, 0.0])
        v = np.array([0.0, 1.0])
        assert manhattan(u, v) == 2.0
        assert euclidean(u, v) == pytest.approx(np.sqrt(2))
        assert cosine_sim(u, v) == 0.0

    def test_zero_vector_cosine_convention(self):
        assert cosine_sim(np.zeros(3), np.array([1.0, 2.0, 3.0])) == 0.0

    def test_dimension_mismatch(self):
        for fn in (manhattan, euclidean, bray_curtis, cosine_sim):
            with pytest.raises(ValueError):
                fn(np.zeros(2), np.zeros(3))

    def test_symmetry_random_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            u = rng.normal(size=4)
            v = rng.normal(size=4)
            for fn in (manhattan, euclidean, bray_curtis, cosine_sim):
                assert fn(u, v) == fn(v, u)

    def test_cosine_argmax_scale_invariance(self):
        rng = np.random.default_rng(1)
        u = rng.normal(size=6)
        targets = rng.normal(size=(10, 6))
        base = np.argmax([cosine_sim(u, t) for t in targets])
        for c in (0.01, 3.0, 250.0):
            scaled = np.argmax([cosine_sim(u, c * t) for t in targets])
            assert scaled == base


class TestSimMatrix:
    def test_identity_rows_diagonal_one(self):
        eye = np.eye(4)
        m = sim_matrix(eye, eye, Measure.BRAY_CURTIS, "structural")
        np.testing.assert_allclose(np.diag(m.scores), 1.0)

    @pytest.mark.parametrize("measure", list(Measure))
    def test_matches_scalar_oracle(self, measure):
        rng = np.random.default_rng(2)
        e1 = rng.normal(size=(10, 5))
        e2 = rng.normal(size=(10, 5))
        m = sim_matrix(e1, e2, measure, "x")
        for i in range(10):
            for j in range(10):
                assert m.scores[i, j] == pytest.approx(
                    similarity(e1[i], e2[j], measure), abs=1e-12
                )

    def test_feature_tag_propagated(self):
        m = sim_matrix(np.eye(2), np.eye(2), Measure.COSINE, "semantic")
        assert m.feature_tag == "semantic"
        assert sim_matrix(np.eye(2), np.eye(2), Measure.COSINE).feature_tag == "cos"

    @pytest.mark.parametrize("measure", list(Measure))
    def test_transpose_identity(self, measure):
        rng = np.random.default_rng(3)
        e1 = rng.normal(size=(6, 4))
        e2 = rng.normal(size=(9, 4))
        a = sim_matrix(e1, e2, measure, "x").scores
        b = sim_matrix(e2, e1, measure, "x").scores
        np.testing.assert_array_equal(a.T, b)

    def test_blocking_does_not_change_values(self):
        rng = np.random.default_rng(4)
        e1 = rng.normal(size=(300, 3))
        e2 = rng.normal(size=(150, 3))
        small = sim_matrix(e1, e2, Measure.MANHATTAN, "x", block=7).scores
        large = sim_matrix(e1, e2, Measure.MANHATTAN, "x", block=4096).scores
        np.testing.assert_array_equal(small, large)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sim_matrix(np.zeros((2, 3)), np.zeros((2, 4)), Measure.COSINE)

    def test_bray_curtis_zero_denominator_in_blocks(self):
        # Coordinates with u + v = 0: (1, -1) counts an event and adds 0,
        # (0, 0) adds 0 without an event.
        e1 = np.array([[1.0, 2.0, 0.0], [3.0, -1.0, 0.0]])
        e2 = np.array([[-1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [-3.0, 1.0, 0.0]])
        m = sim_matrix(e1, e2, Measure.BRAY_CURTIS, block=2)
        expected = [[similarity(u, v, Measure.BRAY_CURTIS) for v in e2] for u in e1]
        assert m.scores.tolist() == expected
        events = sum(int(np.count_nonzero((u + v == 0) & (u != v)))
                     for u in e1 for v in e2)
        assert m.zero_denominators == events == 4
        # The count belongs to the call that made the matrix.
        assert sim_matrix(e1, e2, Measure.BRAY_CURTIS, block=2).zero_denominators == 4
        for measure in set(Measure) - {Measure.BRAY_CURTIS}:
            assert sim_matrix(e1, e2, measure).zero_denominators == 0


class TestSimilarityMatrixType:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SimilarityMatrix(np.array([[np.inf, 0.0]]), "x")

    def test_counts(self):
        m = SimilarityMatrix(np.zeros((3, 5)), "x")
        assert (m.n_src, m.n_tgt) == (3, 5)
