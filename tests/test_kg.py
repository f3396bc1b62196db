"""Data model, loaders, splits, and adjacency construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgalign import matio
from kgalign.errors import IntegrityError, ParseError
from kgalign.kg import (
    AlignmentDataset,
    KnowledgeGraph,
    adjacency,
    load_alignment,
    load_kg,
    neighbor_sets,
    save_kg,
    split_alignment,
)

import reference
from reference import neighbor_sets as reference_neighbor_sets
from reference import neighbors


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadKg:
    def test_basic_two_triples(self, tmp_path):
        triples = write(tmp_path / "t.tsv", "0\t0\t1\n1\t1\t0\n")
        names = write(tmp_path / "n.tsv", "0\talpha\n1\tbeta\n")
        kg = load_kg(triples, names)
        assert kg.n_entities == 2
        assert kg.relation_ids == ("0", "1")
        assert kg.triples.shape == (2, 3)
        assert kg.entity_names == ("alpha", "beta")

    def test_empty_triples_keeps_entities(self, tmp_path):
        triples = write(tmp_path / "t.tsv", "")
        names = write(tmp_path / "n.tsv", "a\tA\nb\tB\n")
        kg = load_kg(triples, names)
        assert kg.n_entities == 2
        assert kg.triples.shape == (0, 3)

    def test_malformed_triple_line_named(self, tmp_path):
        triples = write(tmp_path / "t.tsv", "0\t0\t1\n0\t1\n")
        names = write(tmp_path / "n.tsv", "0\tA\n1\tB\n")
        with pytest.raises(ParseError, match="2") as err:
            load_kg(triples, names)
        assert err.value.line_no == 2

    def test_unknown_entity_id_rejected(self, tmp_path):
        triples = write(tmp_path / "t.tsv", "0\t0\t9\n")
        names = write(tmp_path / "n.tsv", "0\tA\n")
        with pytest.raises(IntegrityError, match="'9'"):
            load_kg(triples, names)

    def test_duplicate_name_id_rejected(self, tmp_path):
        triples = write(tmp_path / "t.tsv", "")
        names = write(tmp_path / "n.tsv", "0\tA\n0\tB\n")
        with pytest.raises(IntegrityError, match="duplicate"):
            load_kg(triples, names)

    @pytest.mark.parametrize("names,triples,error,message", [
        (("a", "b"), [[0, 0, 1, 0]], ValueError, r"shape \(m, 3\), got \(1, 4\)"),
        (("a",), [[0, 0, 1]], IntegrityError, "1 names for 2 entities"),
        (("a", "b"), [[0, 0, 2]], IntegrityError, "entity index out of range"),
        (("a", "b"), [[0, 1, 1]], IntegrityError, "relation index out of range"),
    ])
    def test_integrity_errors(self, names, triples, error, message):
        with pytest.raises(error, match=message):
            KnowledgeGraph(entity_ids=("0", "1"), relation_ids=("r",),
                           triples=np.array(triples), entity_names=names)

    def test_round_trip_reproduces_indexing(self, tmp_path):
        triples = write(tmp_path / "t.tsv", "x\tr\ty\nz\ts\tx\n")
        names = write(tmp_path / "n.tsv", "x\tX\ny\tY\nz\tZ\n")
        kg = load_kg(triples, names)
        save_kg(kg, tmp_path / "t2.tsv", tmp_path / "n2.tsv")
        kg2 = load_kg(tmp_path / "t2.tsv", tmp_path / "n2.tsv")
        assert kg2.entity_ids == kg.entity_ids
        assert kg2.relation_ids == kg.relation_ids
        assert np.array_equal(kg2.triples, kg.triples)


def names_of(kg):
    return kg.entity_ids, kg.entity_names


class TestLineEndings:
    def test_only_newline_and_carriage_return_end_lines(self, tmp_path):
        triples = write(tmp_path / "t.tsv", "")
        names = tmp_path / "n.tsv"
        # \r\n, a lone \r, a blank line, U+2028 and U+0085 inside a name, no
        # final newline.
        names.write_bytes("x\tX\r\n\r\ny\tY two\rz\t\u2028Z\x85".encode("utf-8"))
        kg = load_kg(triples, names)
        assert kg.entity_ids == ("x", "y", "z")
        assert kg.entity_names == ("X", "Y two", "\u2028Z\x85")

    # Four lines of fields per reader, and what the reader makes of them.
    # U+2028, U+0085 and \x1c sit inside fields: str.splitlines would end
    # lines there. The matrix reader accepts only the numbers save_matrix
    # writes, so its rows hold none of them (they are refused at their line
    # in test_tsv_matrix_errors_name_their_line).
    EVERY_READER = {
        "load_kg": (lambda path: names_of(load_kg(path.with_name("empty.tsv"), path)),
                    [["x", "X\u2028"], ["y", "Y\x85 two"], ["z", "\x1cZ"], ["w", "W"]],
                    (("x", "y", "z", "w"), ("X\u2028", "Y\x85 two", "\x1cZ", "W"))),
        "load_alignment": (load_alignment,
                           [["a\u2028", "x"], ["b", "y\x85"], ["c\x1c", "z"], ["d", "w"]],
                           [("a\u2028", "x"), ("b", "y\x85"), ("c\x1c", "z"), ("d", "w")]),
        "load_result": (matio.load_result,
                        [["a", "x\u2028", "rl"], ["b", "x", "rl\x85"],
                         ["c\x1c", "y", "greedy"], ["d", "w", "rl"]],
                        [("a", "x\u2028", "rl"), ("b", "x", "rl\x85"),
                         ("c\x1c", "y", "greedy"), ("d", "w", "rl")]),
        "load_matrix": (lambda path: matio.load_matrix(path).tolist(),
                        [["0", "1.5", "2.0"], ["1", "3.0", "4.0"],
                         ["2", "5.0", "6.0"], ["3", "7.0", "8.0"]],
                        [[1.5, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]]),
        "load_ranked": (matio.load_ranked,
                        [["a", "x\u2028", "y"], ["b", "y", "x\x85"], ["c\x1c"], ["d", "w"]],
                        {"a": ["x\u2028", "y"], "b": ["y", "x\x85"], "c\x1c": [], "d": ["w"]}),
    }

    @pytest.mark.parametrize("reader", EVERY_READER)
    def test_every_reader_splits_lines_alike(self, tmp_path, reader):
        # \r\n, a blank \r\n line, a lone \r, a blank \r line, \n, a blank \n
        # line and no final newline: seven lines, the odd ones nonempty.
        load, rows, expected = self.EVERY_READER[reader]
        write(tmp_path / "empty.tsv", "")
        lines = ["\t".join(fields) for fields in rows]
        text = "{}\r\n\r\n{}\r\r{}\n\n{}".format(*lines)
        path = tmp_path / "input.tsv"
        path.write_bytes(text.encode("utf-8"))
        assert load(path) == expected
        # Each reader rejects a line of four empty fields: the ninth line.
        path.write_bytes((text + "\r\n\r\n\t\t\t").encode("utf-8"))
        with pytest.raises(ParseError) as err:
            load(path)
        assert err.value.line_no == 9

    def test_empty_names_file(self, tmp_path):
        names = write(tmp_path / "n.tsv", "")
        kg = load_kg(write(tmp_path / "t.tsv", ""), names)
        assert kg.entity_ids == kg.entity_names == ()

    def test_bad_line_named(self, tmp_path):
        names = tmp_path / "n.tsv"
        names.write_bytes(b"x\tX\r\n\r\ny\n")
        with pytest.raises(ParseError) as err:
            load_kg(write(tmp_path / "t.tsv", ""), names)
        assert err.value.line_no == 3


class TestLoadAlignment:
    def test_two_pairs(self, tmp_path):
        path = write(tmp_path / "a.tsv", "a\tx\nb\ty\n")
        assert load_alignment(path) == [("a", "x"), ("b", "y")]

    def test_duplicate_source_rejected(self, tmp_path):
        path = write(tmp_path / "a.tsv", "a\tx\na\ty\n")
        with pytest.raises(IntegrityError, match="duplicate source"):
            load_alignment(path)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path / "a.tsv", "")
        assert load_alignment(path) == []


# Messy TSV files: blank lines, \r\n and lone \r endings, a missing final
# newline, non-ASCII ids, trailing tabs and lines of the wrong field count,
# drawn from few ids so that ids repeat and triples name unknown ids.
TSV_FIELDS = st.one_of(st.sampled_from(["a", "b", "c", "é", "日本", "x y", ""]),
                       st.text(alphabet="ab é\u2028\x85\x1c", max_size=3))
TSV_END = st.sampled_from(["\n", "\n", "\r\n", "\r"])


@st.composite
def tsv_files(draw, n_fields: int):
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "count", "trailing tab"]))
        if kind == "blank":
            line = ""
        else:
            n = n_fields
            if kind == "count":
                n = draw(st.integers(1, n_fields + 2).filter(lambda k: k != n_fields))
            fields = [draw(TSV_FIELDS) for _ in range(n)]
            line = "\t".join(fields) + ("\t" if kind == "trailing tab" else "")
        lines.append(line + draw(TSV_END))
    text = "".join(lines)
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text


def outcome(load, *paths):
    """What ``load`` returns, or the type and message of what it raises."""
    try:
        value = load(*paths)
    except (ParseError, IntegrityError) as exc:
        return type(exc), str(exc)
    if isinstance(value, KnowledgeGraph):
        return (value.entity_ids, value.relation_ids, value.triples.dtype,
                value.triples.tolist(), value.entity_names)
    return value


class TestReadersAgainstLineOracle:
    """The TSV readers, which walk ``read_rows``, give the values and the
    errors, with their line numbers, of the per-line walks in ``reference``;
    the earliest bad line is the one named."""

    @settings(max_examples=300, deadline=None)
    @given(names=tsv_files(2), triples=tsv_files(3), gold=tsv_files(2),
           result=tsv_files(3))
    def test_same_values_and_errors(self, tmp_path_factory, names, triples, gold,
                                    result):
        d = tmp_path_factory.mktemp("tsv")
        paths = {}
        for name, text in (("names", names), ("triples", triples), ("empty", ""),
                           ("gold", gold), ("result", result)):
            paths[name] = d / f"{name}.tsv"
            paths[name].write_bytes(text.encode("utf-8"))
        # With no triples, the names file alone decides the value or error.
        for triples in (paths["triples"], paths["empty"]):
            assert (outcome(load_kg, triples, paths["names"])
                    == outcome(reference.load_kg, triples, paths["names"]))
        assert (outcome(load_alignment, paths["gold"])
                == outcome(reference.load_alignment, paths["gold"]))
        # The triples file doubles as a result file.
        for path in (paths["result"], paths["triples"]):
            assert outcome(matio.load_result, path) == outcome(reference.load_result, path)

    def test_earliest_bad_line_is_named(self, tmp_path):
        names = write(tmp_path / "n.tsv", "a\tA\na\tB\nb\n")
        with pytest.raises(IntegrityError, match=":2: duplicate entity id 'a'"):
            load_kg(write(tmp_path / "t.tsv", ""), names)
        names = write(tmp_path / "n.tsv", "a\tA\nb\nb\tB\nb\tC\n")
        with pytest.raises(ParseError, match=":2: expected 2 tab-separated fields, got 1"):
            load_kg(write(tmp_path / "t.tsv", ""), names)
        gold = write(tmp_path / "g.tsv", "\na\tx\nb\tx\na\ty\n")
        with pytest.raises(IntegrityError, match=":3: duplicate target id 'x'"):
            load_alignment(gold)


class TestAlignmentDataset:
    @pytest.mark.parametrize("train,val,test,message", [
        ((("s1", "t1"),), (), (("s1", "t2"),), "source 's1' appears in both train and test"),
        ((("s1", "t1"),), (("s2", "t1"),), (), "target 't1' appears in both train and val"),
        ((), (), (("s1", "t1"), ("s2", "t2"), ("s1", "t3")),
         "source 's1' appears twice in test"),
        ((("s1", "t1"),), (("s1", "t1"),), (), "source 's1' appears in both train and val"),
        ((("s1", "t1"), ("s2", "t1")), (), (), "target 't1' appears twice in train"),
    ])
    def test_repeat_names_the_id_and_its_splits(self, train, val, test, message):
        with pytest.raises(IntegrityError, match=f"^{message}$"):
            AlignmentDataset(train, val, test)

    def test_distinct_ids_pass(self):
        ds = AlignmentDataset((("s1", "t1"),), (("s2", "t2"),), (("s3", "t3"),))
        assert ds.test == (("s3", "t3"),)


class TestSplitAlignment:
    def test_benchmark_sizes(self):
        pairs = [(i, i) for i in range(15000)]
        ds = split_alignment(pairs, 0.24, 0.06, rng_seed=1)
        assert (len(ds.train), len(ds.val), len(ds.test)) == (3600, 900, 10500)

    def test_small_sizes(self):
        pairs = [(i, i) for i in range(10)]
        ds = split_alignment(pairs, 0.2, 0.1, rng_seed=1)
        assert (len(ds.train), len(ds.val), len(ds.test)) == (2, 1, 7)

    def test_same_seed_same_split(self):
        pairs = [(i, 100 + i) for i in range(50)]
        a = split_alignment(pairs, 0.3, 0.1, rng_seed=42)
        b = split_alignment(pairs, 0.3, 0.1, rng_seed=42)
        assert a == b

    @pytest.mark.parametrize("train,val", [(0.0, 0.1), (0.5, 0.5), (-0.1, 0.2), (0.9, 0.2),
                                           ("0.2", 0.1), (0.2, float("nan"))])
    def test_bad_fractions(self, train, val):
        with pytest.raises(ValueError):
            split_alignment([(0, 0), (1, 1)], train, val, rng_seed=0)

    def test_partition_property_many_seeds(self):
        pairs = [(i, 1000 + i) for i in range(37)]
        whole = set(pairs)
        for seed in range(1000):
            ds = split_alignment(pairs, 0.2, 0.1, rng_seed=seed)
            parts = [set(ds.train), set(ds.val), set(ds.test)]
            assert parts[0] | parts[1] | parts[2] == whole
            assert not (parts[0] & parts[1] or parts[0] & parts[2] or parts[1] & parts[2])


def reference_adjacency(kg):
    """Per-edge loop over a dict of distinct undirected edges: the oracle."""
    n = kg.n_entities
    pair_w = {}
    for h, _, t in kg.triples:
        if h != t:
            pair_w[(int(h), int(t)) if h < t else (int(t), int(h))] = 1.0
    degrees = np.ones(n)
    for (i, j), w in pair_w.items():
        degrees[i] += w
        degrees[j] += w
    inv_sqrt = 1.0 / np.sqrt(degrees)
    rows, cols = list(range(n)), list(range(n))
    weights = [inv_sqrt[i] * inv_sqrt[i] for i in range(n)]
    for (i, j), w in sorted(pair_w.items()):
        wij = w * inv_sqrt[i] * inv_sqrt[j]
        rows.extend((i, j))
        cols.extend((j, i))
        weights.extend((wij, wij))
    order = np.lexsort((np.array(cols), np.array(rows)))
    return (
        np.array(rows, dtype=np.int64)[order],
        np.array(cols, dtype=np.int64)[order],
        np.array(weights, dtype=np.float64)[order],
    )


def assert_adjacency_equals_reference(kg):
    adj = adjacency(kg).tocoo()  # row-major, since the CSR's indices are sorted
    rows, cols, weights = reference_adjacency(kg)
    assert np.array_equal(adj.row, rows)
    assert np.array_equal(adj.col, cols)
    assert np.array_equal(adj.data, weights)


# Small graphs with self-loops, repeated and reversed edges and isolated
# entities, as (entity count, edges).
GRAPHS = st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         max_size=40)))


def kg_from_edges(n, edges):
    triples = np.array([(a, 0, b) for a, b in edges], dtype=np.int64).reshape(-1, 3)
    return KnowledgeGraph(
        entity_ids=tuple(str(i) for i in range(n)),
        relation_ids=("r",),
        triples=triples,
        entity_names=tuple(f"e{i}" for i in range(n)),
    )


class TestAdjacency:
    def test_single_node(self):
        adj = adjacency(kg_from_edges(1, []))
        np.testing.assert_array_equal(adj.toarray(), [[1.0]])

    def test_two_nodes_one_edge(self):
        adj = adjacency(kg_from_edges(2, [(0, 1)]))
        np.testing.assert_allclose(adj.toarray(), [[0.5, 0.5], [0.5, 0.5]])

    def test_star_against_degree_oracle(self):
        # 5-node star: center 0 linked to 1..4.
        edges = [(0, i) for i in range(1, 5)]
        kg = kg_from_edges(5, edges)
        raw = np.eye(5)
        for a, b in edges:
            raw[a, b] = raw[b, a] = 1.0
        degree = {0: 4, 1: 1, 2: 1, 3: 1, 4: 1}
        for i in range(5):
            assert raw[i].sum() == degree[i] + 1
        d_inv = np.diag(1.0 / np.sqrt(raw.sum(axis=1)))
        np.testing.assert_allclose(adjacency(kg).toarray(), d_inv @ raw @ d_inv)

    def test_bitwise_symmetry(self):
        rng = np.random.default_rng(0)
        edges = {(int(a), int(b)) for a, b in rng.integers(0, 12, size=(30, 2)) if a != b}
        adj = adjacency(kg_from_edges(12, sorted(edges))).tocoo()
        stored = {(int(r), int(c)): w for r, c, w in zip(adj.row, adj.col, adj.data)}
        for (r, c), w in stored.items():
            assert stored[(c, r)] == w  # exact float equality

    def test_self_loop_positive_everywhere(self):
        adj = adjacency(kg_from_edges(6, [(0, 1), (2, 3)]))
        dense = adj.toarray()
        assert (np.diag(dense) > 0).all()

    @settings(max_examples=200, deadline=None)
    @given(GRAPHS)
    def test_bit_identical_to_reference_loop(self, graph):
        n, edges = graph
        assert_adjacency_equals_reference(kg_from_edges(n, edges))


class TestNeighbors:
    def test_isolated_node(self):
        assert neighbors(kg_from_edges(3, [(0, 1)]), 2) == set()

    def test_symmetry(self):
        kg = kg_from_edges(2, [(0, 1)])
        assert neighbors(kg, 0) == {1}
        assert neighbors(kg, 1) == {0}

    def test_union_of_directions(self):
        kg = kg_from_edges(3, [(0, 1), (2, 0)])
        assert neighbors(kg, 0) == {1, 2}

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            neighbors(kg_from_edges(2, []), 5)

    def test_neighbor_sets_matches_scalar(self):
        rng = np.random.default_rng(3)
        edges = [(int(a), int(b)) for a, b in rng.integers(0, 10, size=(25, 2))]
        kg = kg_from_edges(10, edges)
        sets = neighbor_sets(kg)
        for e in range(10):
            assert sets[e] == frozenset(neighbors(kg, e))

    def test_neighbor_sets_without_edges(self):
        assert neighbor_sets(kg_from_edges(0, [])) == ()
        assert neighbor_sets(kg_from_edges(3, [])) == (frozenset(),) * 3
        assert neighbor_sets(kg_from_edges(2, [(0, 0), (1, 1), (0, 0)])) == (
            frozenset(), frozenset())

    @settings(max_examples=200, deadline=None)
    @given(GRAPHS)
    def test_neighbor_sets_equal_reference_loop(self, graph):
        kg = kg_from_edges(*graph)
        sets = neighbor_sets(kg)
        assert sets == reference_neighbor_sets(kg)
        assert all(type(e) is int for s in sets for e in s)
