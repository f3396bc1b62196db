"""Data model, loaders, splits, and adjacency construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgalign.errors import IntegrityError, ParseError
from kgalign.kg import (
    KnowledgeGraph,
    adjacency,
    load_alignment,
    load_kg,
    neighbor_sets,
    save_kg,
    split_alignment,
)

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
        assert kg.n_relations == 2
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

    def test_round_trip_reproduces_indexing(self, tmp_path):
        triples = write(tmp_path / "t.tsv", "x\tr\ty\nz\ts\tx\n")
        names = write(tmp_path / "n.tsv", "x\tX\ny\tY\nz\tZ\n")
        kg = load_kg(triples, names)
        save_kg(kg, tmp_path / "t2.tsv", tmp_path / "n2.tsv")
        kg2 = load_kg(tmp_path / "t2.tsv", tmp_path / "n2.tsv")
        assert kg2.entity_ids == kg.entity_ids
        assert kg2.relation_ids == kg.relation_ids
        assert np.array_equal(kg2.triples, kg.triples)


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

    @pytest.mark.parametrize("train,val", [(0.0, 0.1), (0.5, 0.5), (-0.1, 0.2), (0.9, 0.2)])
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
    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                             max_size=40))))
    def test_bit_identical_to_reference_loop(self, graph):
        # Self-loops, repeated and reversed edges, isolated entities.
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
