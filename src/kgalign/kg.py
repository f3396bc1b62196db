"""Knowledge-graph data model and TSV ingestion.

Entities and relations are re-indexed densely at load time; the original
external ids (numeric ids or URIs) are preserved so results can be written
back in terms of the input files. The file layout matches the common
benchmark distribution: triples as ``head<TAB>rel<TAB>tail``, names as
``id<TAB>name``, gold alignments as ``source_id<TAB>target_id``.
:func:`read_rows` is the one reader of every TSV file, here and in
:mod:`kgalign.matio`: the loaders walk its rows and check each line as they
read it, so an error names the first line that breaks a rule.

All containers are treated as immutable after construction and are safe to
share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .errors import IntegrityError, ParseError, check_number

@dataclass
class KnowledgeGraph:
    """One KG: dense-indexed entities, relations, triples, and entity names."""

    entity_ids: tuple[str, ...]
    relation_ids: tuple[str, ...]
    triples: np.ndarray  # shape (m, 3): head, relation, tail indices
    entity_names: tuple[str, ...]

    def __post_init__(self):
        triples = np.asarray(self.triples, dtype=np.int64)
        if triples.size == 0:
            triples = triples.reshape(0, 3)
        if triples.ndim != 2 or triples.shape[1] != 3:
            raise ValueError(f"triples must have shape (m, 3), got {triples.shape}")
        n, k = len(self.entity_ids), len(self.relation_ids)
        if len(self.entity_names) != n:
            raise IntegrityError(
                f"{len(self.entity_names)} names for {n} entities"
            )
        if triples.shape[0]:
            ents = triples[:, [0, 2]]
            if ents.min() < 0 or ents.max() >= n:
                raise IntegrityError("triple references an entity index out of range")
            if triples[:, 1].min() < 0 or triples[:, 1].max() >= k:
                raise IntegrityError("triple references a relation index out of range")
        triples.setflags(write=False)
        self.triples = triples

    @property
    def n_entities(self) -> int:
        return len(self.entity_ids)

    @cached_property
    def entity_index(self) -> dict[str, int]:
        return {eid: i for i, eid in enumerate(self.entity_ids)}


@dataclass
class AlignmentDataset:
    """Gold pairs partitioned into train, validation, and test seeds."""

    train: tuple[tuple, ...]
    val: tuple[tuple, ...]
    test: tuple[tuple, ...]

    def __post_init__(self):
        pairs = [*self.train, *self.val, *self.test]
        if len({s for s, _ in pairs}) == len(pairs) == len({t for _, t in pairs}):
            return
        # An id repeats: walk the splits to name it and the split it was in.
        splits = {"train": self.train, "val": self.val, "test": self.test}
        seen_src: dict = {}
        seen_tgt: dict = {}
        for label, pairs in splits.items():
            for s, t in pairs:
                if s in seen_src:
                    raise IntegrityError(
                        f"source {s!r} appears in both {seen_src[s]} and {label}"
                    )
                if t in seen_tgt:
                    raise IntegrityError(
                        f"target {t!r} appears in both {seen_tgt[t]} and {label}"
                    )
                seen_src[s] = label
                seen_tgt[t] = label


def read_rows(path, n_fields: int | None = None, unit: str = "tab-separated fields"):
    r"""Yield ``(line_no, fields)`` for each nonempty line of ``path``, its
    tab-separated fields in file order, and raise ParseError at the first
    line whose field count is not ``n_fields`` ("expected 3 <unit>, got 2");
    with ``n_fields`` None any count passes.

    Text mode turns \r\n and a lone \r into \n, and no other character ends
    a line: not ``str.splitlines``, which also breaks on \x1c, \u2028 and
    the like.
    """
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    for line_no, line in enumerate(lines, start=1):
        if line:
            fields = line.split("\t")
            if n_fields is not None and len(fields) != n_fields:
                raise ParseError(path, line_no,
                                 f"expected {n_fields} {unit}, got {len(fields)}")
            yield line_no, fields


def load_kg(triples_path, names_path) -> KnowledgeGraph:
    """Load one KG from a triples TSV and a names TSV.

    Entity indices follow first appearance in the names file, relation
    indices first appearance in the triples file, so re-loading the same
    files reproduces the same dense indexing.
    """
    triples_path, names_path = Path(triples_path), Path(names_path)
    index: dict[str, int] = {}
    entity_names = []
    for line_no, (eid, name) in read_rows(names_path, 2):
        if eid in index:
            raise IntegrityError(f"{names_path}:{line_no}: duplicate entity id {eid!r}")
        index[eid] = len(index)
        entity_names.append(name)

    rel_index: dict[str, int] = {}
    triples: list[int] = []  # flat, as np.array reads a list of tuples slowly
    for line_no, (h, r, t) in read_rows(triples_path, 3):
        try:
            triples += index[h], rel_index.setdefault(r, len(rel_index)), index[t]
        except KeyError as exc:
            raise IntegrityError(f"{triples_path}:{line_no}: entity id {exc.args[0]!r} "
                                 f"missing from names file {names_path}") from None

    return KnowledgeGraph(
        entity_ids=tuple(index),
        relation_ids=tuple(rel_index),
        triples=np.array(triples, dtype=np.int64).reshape(-1, 3),
        entity_names=tuple(entity_names),
    )


def save_kg(kg: KnowledgeGraph, triples_path, names_path) -> None:
    """Write a KG back to the TSV layout accepted by :func:`load_kg`."""
    ids, rels = kg.entity_ids, kg.relation_ids
    with open(names_path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{eid}\t{name}\n" for eid, name in zip(ids, kg.entity_names))
    with open(triples_path, "w", encoding="utf-8") as fh:
        # Bounded blocks of rows as Python ints keep memory flat.
        for lo in range(0, len(kg.triples), 4096):
            fh.writelines(f"{ids[h]}\t{rels[r]}\t{ids[t]}\n"
                          for h, r, t in kg.triples[lo:lo + 4096].tolist())


def load_alignment(path) -> list[tuple[str, str]]:
    """Load gold pairs from a two-column TSV; ids must be unique per side."""
    path = Path(path)
    pairs, targets = {}, set()
    for line_no, (s, t) in read_rows(path, 2):
        if s in pairs:
            raise IntegrityError(f"{path}:{line_no}: duplicate source id {s!r}")
        if t in targets:
            raise IntegrityError(f"{path}:{line_no}: duplicate target id {t!r}")
        pairs[s] = t
        targets.add(t)
    return list(pairs.items())


def save_alignment(pairs, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{s}\t{t}\n" for s, t in pairs)


def check_split_fractions(train_frac: float, val_frac: float) -> None:
    """Raise ValueError unless 0 < train, 0 < val and train + val < 1."""
    check_number("train_frac", train_frac, 0, above=True)
    check_number("val_frac", val_frac, 0, above=True)
    if train_frac + val_frac >= 1:
        raise ValueError(f"fractions must satisfy train + val < 1; "
                         f"got train={train_frac}, val={val_frac}")


def split_alignment(
    pairs: Sequence[tuple], train_frac: float, val_frac: float, rng_seed: int
) -> AlignmentDataset:
    """Shuffle deterministically and cut into train/val/test.

    Split sizes are round(frac * len(pairs)); the remainder is the test set.
    """
    check_split_fractions(train_frac, val_frac)
    n = len(pairs)
    perm = np.random.default_rng(rng_seed).permutation(n)
    shuffled = [tuple(pairs[i]) for i in perm]
    n_train = int(round(train_frac * n))
    n_val = int(round(val_frac * n))
    return AlignmentDataset(
        train=tuple(shuffled[:n_train]),
        val=tuple(shuffled[n_train:n_train + n_val]),
        test=tuple(shuffled[n_train + n_val:]),
    )


def adjacency(kg: KnowledgeGraph) -> sp.csr_matrix:
    """Build D^(-1/2) (A + I) D^(-1/2) over the undirected entity graph, as
    CSR with sorted column indices.

    Every distinct undirected edge weighs 1. Isolated entities keep only the
    self-loop. The weights of (i, j) and (j, i) are one computed value, so
    symmetry is bitwise.
    """
    n = kg.n_entities
    ends = kg.triples[:, [0, 2]]
    ends = np.sort(ends[ends[:, 0] != ends[:, 1]], axis=1)
    i, j = np.divmod(np.unique(ends[:, 0] * n + ends[:, 1]), n)
    # Degrees are integer counts, so they are exact whatever the summation order.
    degrees = 1.0 + np.bincount(i, minlength=n) + np.bincount(j, minlength=n)
    inv_sqrt = 1.0 / np.sqrt(degrees)
    wij = inv_sqrt[i] * inv_sqrt[j]

    diag = np.arange(n)
    adj = sp.csr_matrix(
        (np.concatenate([inv_sqrt * inv_sqrt, wij, wij]),
         (np.concatenate([diag, i, j]), np.concatenate([diag, j, i]))),
        shape=(n, n),
    )
    adj.sort_indices()
    return adj


def neighbor_sets(kg: KnowledgeGraph) -> tuple[frozenset[int], ...]:
    """Per-entity undirected neighbor sets, self-loops left out.

    Both directions of every other triple are grouped by entity with one
    argsort, and each entity's slice becomes its set.
    """
    heads, tails = kg.triples[:, 0], kg.triples[:, 2]
    keep = heads != tails
    ends = np.concatenate([heads[keep], tails[keep]])
    others = np.concatenate([tails[keep], heads[keep]])
    order = ends.argsort()
    bounds = ends[order].searchsorted(np.arange(kg.n_entities + 1)).tolist()
    ids = others[order].tolist()
    return tuple(frozenset(ids[a:b]) for a, b in zip(bounds, bounds[1:]))
