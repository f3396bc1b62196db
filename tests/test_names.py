"""Word-vector loading, name embeddings, and edit-distance similarity."""

import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgalign import names
from kgalign.errors import ParseError
from kgalign.names import (
    WordVectorTable,
    load_word_vectors,
    name_embedding_matrix,
    string_sim_matrix,
    tokenize,
)

import reference
from reference import lev_ratio, levenshtein, name_embedding


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
# Names on both sides of the 64-code-point word of the bit-parallel kernel.
WORD_NAMES = st.text(st.sampled_from(list("ab") + ["\u00e9"]), min_size=60, max_size=70)


def assert_matches_lev_ratio(names1, names2, **kwargs):
    m = string_sim_matrix(names1, names2, **kwargs)
    want = [[lev_ratio(a, b) for b in names2] for a in names1]
    assert m.scores.tobytes() == np.array(want).reshape(m.scores.shape).tobytes()


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

    @pytest.mark.parametrize("text", ["5 2\na 1 2\n", "1 2\na 1 2\nb 3 4\n",
                                      "1 2\n"])
    def test_header_count_must_match(self, tmp_path, text):
        path = tmp_path / "v.vec"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match="header promises") as err:
            load_word_vectors(path)
        assert err.value.line_no == 1

    def test_inconsistent_dimension(self, tmp_path):
        path = tmp_path / "v.vec"
        path.write_text("cat 1 2 3\ndog 4 5\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_word_vectors(path)
        assert err.value.line_no == 2

    def test_bad_float_names_its_line(self, tmp_path):
        path = tmp_path / "v.vec"
        path.write_text("cat 1 2\ndog 4 x\n", encoding="utf-8")
        with pytest.raises(ParseError, match="bad float value") as err:
            load_word_vectors(path)
        assert err.value.line_no == 2

    @pytest.mark.parametrize("text", ["3 0\n", "3 0\ncat\n", "cat\ndog\n"])
    def test_zero_dimension_rejected(self, tmp_path, text):
        path = tmp_path / "v.vec"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_word_vectors(path)
        assert err.value.line_no == 1

    @settings(max_examples=150, deadline=None)
    @given(header=st.booleans(), dim=st.integers(1, 6), data=st.data())
    def test_matches_per_line_loop(self, header, dim, data):
        value = st.one_of(
            st.floats(allow_nan=True, allow_infinity=True).map(repr),
            st.sampled_from(["0", "-0", "1e3", "+.5", "-2.5E-3", "1_0", "INF"]),
        )
        lines = data.draw(st.lists(st.one_of(
            st.tuples(st.sampled_from(["a", "b", "c", "d"]),
                      st.lists(value, min_size=dim, max_size=dim)).map(
                          lambda tv: " ".join([tv[0], *tv[1]])),
            st.just(""),
        ), max_size=12))
        if not any(lines):
            lines.append("a " + " ".join(["1.5"] * dim))
        count = sum(map(bool, lines))  # blank lines are not vectors
        text = "\n".join(([f"{count} {dim}"] if header else []) + lines) + "\n"
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "v.vec"
            path.write_text(text, encoding="utf-8")
            got, want = load_word_vectors(path), reference.load_word_vectors(path)
        assert got.dim == want.dim
        assert list(got.vectors) == list(want.vectors)
        for token, vec in want.vectors.items():
            assert got.vectors[token].tobytes() == vec.tobytes()


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

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 5))
    def test_matrix_matches_per_name_mean(self, data, dim):
        vocab = ["ant", "bee", "cat", "dog", "eel"]
        value = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0, 1e-300]))
        vectors = data.draw(st.dictionaries(
            st.sampled_from(vocab), st.lists(value, min_size=dim, max_size=dim)))
        table = WordVectorTable({t: np.array(v) for t, v in vectors.items()}, dim)
        names = data.draw(st.lists(
            st.lists(st.sampled_from(vocab + ["oov"]), max_size=7).map(" ".join),
            max_size=12))
        mat = name_embedding_matrix(names, table)
        want = np.array([name_embedding(name, table) for name in names])
        want = want.reshape(-1, dim)
        assert mat.rows.tobytes() == want.tobytes()
        assert mat.oov_mask.tolist() == [
            not any(t in vectors for t in tokenize(name)) for name in names]

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

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(NAMES, WORD_NAMES), min_size=1, max_size=5),
           st.lists(st.one_of(NAMES, WORD_NAMES), min_size=1, max_size=5))
    def test_bit_identical_across_the_word_length(self, names1, names2):
        assert_matches_lev_ratio(names1, names2)

    def test_sixty_four_and_sixty_five_code_points(self):
        rng = np.random.default_rng(3)
        word = "".join(rng.choice(list("abc"), size=70))
        names1 = [word[:64], word[:65], word[1:65], word[:63] + "\U0001d518", "a"]
        # Targets of 64 and of 65 code points: both kernels run in one call.
        names2 = [word[:64], word[:65], word[2:66], "", word[5:69], "cab"]
        assert_matches_lev_ratio(names1, names2)
        assert_matches_lev_ratio(names2, names1)
        assert_matches_lev_ratio(names1, [word[:64], word[3:67]], threads=2)

    def test_large_alphabet(self):
        # About 3,000 distinct CJK code points, most in one name only.
        rng = np.random.default_rng(4)
        chars = [chr(c) for c in range(0x4E00, 0x4E00 + 3000)]
        names1 = ["".join(rng.choice(chars, size=rng.integers(0, 65))) for _ in range(100)]
        names2 = ["".join(rng.choice(chars, size=rng.integers(0, 65))) for _ in range(100)]
        names2[:10] = [name[::-1] for name in names1[:10]]
        assert len(set("".join(names1 + names2))) > 2500
        assert_matches_lev_ratio(names1, names2)

    @pytest.mark.parametrize("names1, names2", [
        ([""], [""]),
        (["", "a", "abc"], ["abc"]),
        (["abc", "a"], ["", "b", ""]),
        (["", ""], ["", "x" * 64, "x" * 65]),
    ])
    def test_empty_names(self, names1, names2):
        assert_matches_lev_ratio(names1, names2)

    @pytest.mark.parametrize("cells", [1, 7, 16])
    def test_sources_across_block_boundaries(self, cells, monkeypatch):
        # 3 targets and a budget of 7 cells put 2 sources in a block, so 11
        # sources fill 5 blocks and part of a sixth.
        monkeypatch.setattr(names, "_BLOCK_CELLS", cells)
        rng = np.random.default_rng(5)
        names1 = ["".join(rng.choice(list("abcd"), size=rng.integers(0, 12)))
                  for _ in range(11)]
        assert_matches_lev_ratio(names1, ["abcab", "", "dcba"])
        assert_matches_lev_ratio(names1, ["abcab", "", "dcba"], threads=2)

    def test_no_numpy_warnings_at_full_word(self):
        # Every bit operand is a uint64; no scalar shift reaches 1 << 64.
        names1 = ["ab" * 32, "ba" * 32, "a" * 64, ""]
        names2 = ["ab" * 32, "b" * 64, "a" * 63]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_matches_lev_ratio(names1, names2)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            string_sim_matrix([], ["a"])
