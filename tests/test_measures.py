"""Distance measures against independent oracles."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from kgalign import measures
from kgalign.measures import Measure, SimilarityMatrix, sim_matrix

from reference import (
    blocked_sim_matrix,
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

    def test_blocking_does_not_change_values(self, monkeypatch):
        rng = np.random.default_rng(4)
        e1 = rng.normal(size=(300, 3))
        e2 = rng.normal(size=(150, 3))
        monkeypatch.setattr(measures, "TILE_CELLS", 7 * 3)
        small = sim_matrix(e1, e2, Measure.MANHATTAN, "x").scores
        monkeypatch.setattr(measures, "TILE_CELLS", 300 * 150 * 3)
        large = sim_matrix(e1, e2, Measure.MANHATTAN, "x").scores
        np.testing.assert_array_equal(small, large)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sim_matrix(np.zeros((2, 3)), np.zeros((2, 4)), Measure.COSINE)

    def test_bray_curtis_zero_denominator_in_blocks(self, monkeypatch):
        # Coordinates with u + v = 0: (1, -1) counts an event and adds 0,
        # (0, 0) adds 0 without an event.
        e1 = np.array([[1.0, 2.0, 0.0], [3.0, -1.0, 0.0]])
        e2 = np.array([[-1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [-3.0, 1.0, 0.0]])
        monkeypatch.setattr(measures, "TILE_CELLS", 2 * 3)
        m = sim_matrix(e1, e2, Measure.BRAY_CURTIS)
        expected = [[similarity(u, v, Measure.BRAY_CURTIS) for v in e2] for u in e1]
        assert m.scores.tolist() == expected
        events = sum(int(np.count_nonzero((u + v == 0) & (u != v)))
                     for u in e1 for v in e2)
        assert m.zero_denominators == events == 4
        # The count belongs to the call that made the matrix.
        assert sim_matrix(e1, e2, Measure.BRAY_CURTIS).zero_denominators == 4
        for measure in set(Measure) - {Measure.BRAY_CURTIS}:
            assert sim_matrix(e1, e2, measure).zero_denominators == 0


def _embedding_pair(n1: int, n2: int, d: int, seed: int):
    """Random rows plus rows that make zero denominators: a zero row, a
    target row opposite a source row, and one opposite coordinate."""
    rng = np.random.default_rng(seed)
    e1 = rng.normal(size=(n1, d))
    e2 = rng.normal(size=(n2, d))
    e1[0] = 0.0
    e2[-1] = -e1[-1]
    e2[0, 0] = -e1[n1 // 2, 0]
    if n2 > 2:
        e2[1] = 0.0
    return e1, e2


SHAPES = [(1, 1, 1), (1, 6, 3), (5, 1, 3), (7, 13, 1), (9, 11, 5),
          (37, 29, 16), (3, 4, 40)]


class TestTilesAgainstBlockOracle:
    """The tile loop must give the bytes of the fixed-block kernel in
    ``reference.blocked_sim_matrix`` for any tile budget."""

    @pytest.mark.parametrize("measure", list(Measure))
    @pytest.mark.parametrize("shape", SHAPES)
    def test_bit_identical_for_every_budget(self, monkeypatch, measure, shape):
        n1, n2, d = shape
        e1, e2 = _embedding_pair(n1, n2, d, seed=n1 * 100 + n2)
        expected, events = blocked_sim_matrix(e1, e2, measure)
        # From one cell (one pair per tile, below d) to the whole matrix.
        for budget in sorted({1, d - 1 or 1, d, 2 * d + 1, 7 * d,
                              n2 * d, n2 * d + d, n1 * n2 * d}):
            monkeypatch.setattr(measures, "TILE_CELLS", budget)
            m = sim_matrix(e1, e2, measure)
            # Bytes, so the sign of a zero counts too.
            assert m.scores.tobytes() == expected.tobytes(), budget
            assert m.zero_denominators == events, budget

    @pytest.mark.parametrize("measure", list(Measure))
    def test_bit_identical_across_cos_blocks(self, measure):
        # 130 x 260 crosses the 128-row product blocks; d = 64 fills a tile
        # of the default budget with partial edge tiles.
        e1, e2 = _embedding_pair(130, 260, 64, seed=5)
        expected, events = blocked_sim_matrix(e1, e2, measure)
        m = sim_matrix(e1, e2, measure)
        assert m.scores.tobytes() == expected.tobytes()
        assert m.zero_denominators == events

    def test_zero_denominators_counted(self):
        e1, e2 = _embedding_pair(9, 11, 5, seed=3)
        _, events = blocked_sim_matrix(e1, e2, Measure.BRAY_CURTIS)
        assert events > 0
        assert sim_matrix(e1, e2, Measure.BRAY_CURTIS).zero_denominators == events

    def test_bc_memory_is_bounded_by_the_tile(self):
        # Fresh (128, 128, 64) temporaries per block peaked at 20.6 MB here.
        e1, e2 = _embedding_pair(300, 300, 64, seed=6)
        tracemalloc.start()
        try:
            m = sim_matrix(e1, e2, Measure.BRAY_CURTIS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= m.scores.nbytes + (2 << 20), peak


class TestSimilarityMatrixType:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SimilarityMatrix(np.array([[np.inf, 0.0]]), "x")

    @pytest.mark.parametrize("row", [0, 4, 9, 10])
    def test_rejects_non_finite_in_any_row_block(self, monkeypatch, row):
        # Blocks of three rows, the last one partial.
        monkeypatch.setattr(measures, "TILE_CELLS", 3 * 4)
        scores = np.zeros((11, 4))
        scores[row, 3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            SimilarityMatrix(scores, "x")
        assert SimilarityMatrix(np.zeros((11, 4)), "x").n_src == 11

    def test_counts(self):
        m = SimilarityMatrix(np.zeros((3, 5)), "x")
        assert (m.n_src, m.n_tgt) == (3, 5)
