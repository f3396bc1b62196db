"""Knowledge-graph data model and TSV ingestion.

Entities and relations are re-indexed densely at load time; the original
external ids (numeric ids or URIs) are preserved so results can be written
back in terms of the input files. The file layout matches the common
benchmark distribution: triples as ``head<TAB>rel<TAB>tail``, names as
``id<TAB>name``, gold alignments as ``source_id<TAB>target_id``.

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

from .errors import IntegrityError, ParseError

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

    @property
    def n_relations(self) -> int:
        return len(self.relation_ids)

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


def _read_tsv(path: Path, n_fields: int):
    """Yield (line_no, fields) for each nonempty line, enforcing field count."""
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != n_fields:
                raise ParseError(
                    path, line_no,
                    f"expected {n_fields} tab-separated fields, got {len(fields)}",
                )
            yield line_no, fields


def load_kg(triples_path, names_path) -> KnowledgeGraph:
    """Load one KG from a triples TSV and a names TSV.

    Entity indices follow first appearance in the names file, relation
    indices first appearance in the triples file, so re-loading the same
    files reproduces the same dense indexing.
    """
    triples_path, names_path = Path(triples_path), Path(names_path)
    entity_ids: list[str] = []
    entity_names: list[str] = []
    index: dict[str, int] = {}
    for line_no, (ext_id, name) in _read_tsv(names_path, 2):
        if ext_id in index:
            raise IntegrityError(
                f"{names_path}:{line_no}: duplicate entity id {ext_id!r}"
            )
        index[ext_id] = len(entity_ids)
        entity_ids.append(ext_id)
        entity_names.append(name)

    relation_ids: list[str] = []
    rel_index: dict[str, int] = {}
    rows: list[tuple[int, int, int]] = []
    for line_no, (h, r, t) in _read_tsv(triples_path, 3):
        for eid in (h, t):
            if eid not in index:
                raise IntegrityError(
                    f"{triples_path}:{line_no}: entity id {eid!r} missing from "
                    f"names file {names_path}"
                )
        if r not in rel_index:
            rel_index[r] = len(relation_ids)
            relation_ids.append(r)
        rows.append((index[h], rel_index[r], index[t]))

    return KnowledgeGraph(
        entity_ids=tuple(entity_ids),
        relation_ids=tuple(relation_ids),
        triples=np.array(rows, dtype=np.int64).reshape(-1, 3),
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
    pairs: list[tuple[str, str]] = []
    seen_src: set[str] = set()
    seen_tgt: set[str] = set()
    for line_no, (s, t) in _read_tsv(path, 2):
        if s in seen_src:
            raise IntegrityError(f"{path}:{line_no}: duplicate source id {s!r}")
        if t in seen_tgt:
            raise IntegrityError(f"{path}:{line_no}: duplicate target id {t!r}")
        seen_src.add(s)
        seen_tgt.add(t)
        pairs.append((s, t))
    return pairs


def save_alignment(pairs, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{s}\t{t}\n" for s, t in pairs)


def split_alignment(
    pairs: Sequence[tuple], train_frac: float, val_frac: float, rng_seed: int
) -> AlignmentDataset:
    """Shuffle deterministically and cut into train/val/test.

    Split sizes are round(frac * len(pairs)); the remainder is the test set.
    """
    if not (0 < train_frac and 0 < val_frac and train_frac + val_frac < 1):
        raise ValueError(
            f"fractions must satisfy 0 < train, 0 < val, train + val < 1; "
            f"got train={train_frac}, val={val_frac}"
        )
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
    """Per-entity undirected neighbor sets, built in one pass."""
    sets: list[set[int]] = [set() for _ in range(kg.n_entities)]
    for h, _, t in kg.triples:
        if h != t:
            sets[h].add(int(t))
            sets[t].add(int(h))
    return tuple(frozenset(s) for s in sets)
