"""Word-vector loading, name embeddings, and edit-distance similarity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgalign.errors import ParseError
from kgalign.names import (
    WordVectorTable,
    lev_ratio,
    levenshtein,
    load_word_vectors,
    name_embedding_matrix,
    string_sim_matrix,
    tokenize,
)

from reference import name_embedding


def dp_levenshtein(a, b):
    """Plain quadratic dynamic program, kept deliberately independent."""
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


# Letters, a non-BMP code point, combining marks and a precomposed letter
# that a combining sequence can spell, so code points are compared one by one.
NAME_ALPHABET = st.sampled_from(list("abc ") + ["\U0001d518", "\u0301", "\u0308", "\u00e9"])
NAMES = st.one_of(
    st.text(NAME_ALPHABET, max_size=3),
    st.text(NAME_ALPHABET, min_size=15, max_size=40),
)


class TestLoadWordVectors:
    def test_two_lines_no_header(self, tmp_path):
        path = tmp_path / "v.vec"
        path.write_text("cat 1.0 2.0 3.0\ndog 4.0 5.0 6.0\n", encoding="utf-8")
        table = load_word_vectors(path)
        assert len(table.vectors) == 2
        assert table.dim == 3
        np.testing.assert_array_equal(table.vectors["dog"], [4.0, 5.0, 6.0])

    def test_header_honored(self, tmp_path):
        path = tmp_path / "v.vec"
        path.write_text("2 3\ncat 1 2 3\ndog 4 5 6\n", encoding="utf-8")
        table = load_word_vectors(path)
        assert len(table.vectors) == 2
        assert table.dim == 3

    def test_inconsistent_dimension(self, tmp_path):
        path = tmp_path / "v.vec"
        path.write_text("cat 1 2 3\ndog 4 5\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_word_vectors(path)
        assert err.value.line_no == 2


TABLE = WordVectorTable(
    vectors={"red": np.array([1.0, 0.0]), "fox": np.array([0.0, 1.0])}, dim=2
)


class TestNameEmbedding:
    def test_single_token_is_exact(self):
        np.testing.assert_array_equal(name_embedding("red", TABLE), [1.0, 0.0])

    def test_mean_of_two(self):
        np.testing.assert_array_equal(name_embedding("red fox", TABLE), [0.5, 0.5])

    def test_all_oov_flagged(self):
        mat = name_embedding_matrix(["quartz zinc"], TABLE)
        np.testing.assert_array_equal(mat.rows, [[0.0, 0.0]])
        assert mat.oov_mask.tolist() == [True]

    def test_oov_rows_are_exactly_zero_rows(self):
        mat = name_embedding_matrix(["red fox", "zinc", "fox"], TABLE)
        zero_rows = ~mat.rows.any(axis=1)
        np.testing.assert_array_equal(zero_rows, mat.oov_mask)

    def test_token_order_invariance(self):
        np.testing.assert_array_equal(
            name_embedding("red fox", TABLE), name_embedding("fox red", TABLE)
        )

    def test_tokenizer_strips_punctuation_and_underscores(self):
        assert tokenize("Red_Fox (animal)") == ["red", "fox", "animal"]


class TestLevenshtein:
    def test_classic_pair(self):
        assert levenshtein("kitten", "sitting") == 3

    def test_identity(self):
        assert levenshtein("same", "same") == 0

    def test_empty_versus_any(self):
        assert levenshtein("", "abcde") == 5
        assert levenshtein("abc", "") == 3

    def test_against_dp_oracle_random(self):
        rng = np.random.default_rng(0)
        alphabet = "abcde"
        for _ in range(300):
            a = "".join(rng.choice(list(alphabet), size=rng.integers(0, 12)))
            b = "".join(rng.choice(list(alphabet), size=rng.integers(0, 12)))
            assert levenshtein(a, b) == dp_levenshtein(a, b)

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=15), st.text(max_size=15), st.text(max_size=15))
    def test_symmetry_and_triangle_inequality(self, a, b, c):
        assert levenshtein(a, b) == levenshtein(b, a)
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)

    def test_metric_axioms_on_thousand_random_triples(self):
        rng = np.random.default_rng(7)
        alphabet = list("abcdef")
        for _ in range(1000):
            a, b, c = (
                "".join(rng.choice(alphabet, size=rng.integers(0, 10)))
                for _ in range(3)
            )
            assert levenshtein(a, b) == levenshtein(b, a)
            assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


class TestLevRatio:
    def test_classic_pair(self):
        assert lev_ratio("kitten", "sitting") == pytest.approx(1 - 3 / 7)

    def test_identical(self):
        assert lev_ratio("abc", "abc") == 1.0

    def test_disjoint_equal_length(self):
        assert lev_ratio("aaa", "bbb") == 0.0

    def test_both_empty(self):
        assert lev_ratio("", "") == 1.0

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=20), st.text(max_size=20))
    def test_bounds_and_symmetry(self, a, b):
        r = lev_ratio(a, b)
        assert 0.0 <= r <= 1.0
        assert r == lev_ratio(b, a)


class TestStringSimMatrix:
    def test_identical_singletons(self):
        m = string_sim_matrix(["ab"], ["ab"])
        np.testing.assert_array_equal(m.scores, [[1.0]])
        assert m.feature_tag == "string"

    def test_one_by_two(self):
        m = string_sim_matrix(["ab"], ["ab", "cd"])
        np.testing.assert_array_equal(m.scores, [[1.0, 0.0]])

    def test_matches_scalar_oracle_fifty_by_fifty(self):
        rng = np.random.default_rng(1)
        alphabet = list("abcdef")
        names1 = ["".join(rng.choice(alphabet, size=rng.integers(1, 10))) for _ in range(50)]
        names2 = ["".join(rng.choice(alphabet, size=rng.integers(1, 10))) for _ in range(50)]
        m = string_sim_matrix(names1, names2)
        for i in range(50):
            for j in range(50):
                assert m.scores[i, j] == lev_ratio(names1[i], names2[j])

    def test_threads_do_not_change_result(self):
        names1 = ["alpha", "beta", "gamma"]
        names2 = ["alpaca", "betamax"]
        a = string_sim_matrix(names1, names2, threads=1)
        b = string_sim_matrix(names1, names2, threads=4)
        np.testing.assert_array_equal(a.scores, b.scores)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(NAMES, min_size=1, max_size=6), st.lists(NAMES, min_size=1, max_size=6))
    def test_bit_identical_to_scalar_ratio(self, names1, names2):
        m = string_sim_matrix(names1, names2)
        for i, a in enumerate(names1):
            for j, b in enumerate(names2):
                assert m.scores[i, j] == lev_ratio(a, b)

    def test_two_threads_match_one_on_forty_by_forty(self):
        rng = np.random.default_rng(2)
        alphabet = list("abcdef \u0301") + ["\U0001d518"]
        names1 = ["".join(rng.choice(alphabet, size=rng.integers(0, 20))) for _ in range(40)]
        names2 = ["".join(rng.choice(alphabet, size=rng.integers(0, 20))) for _ in range(40)]
        one = string_sim_matrix(names1, names2, threads=1)
        two = string_sim_matrix(names1, names2, threads=2)
        assert np.array_equal(one.scores, two.scores)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            string_sim_matrix([], ["a"])
