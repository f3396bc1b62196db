"""Name-based features: averaged word embeddings and edit-distance similarity.

Entity names carry signal at two levels. The semantic level averages
pre-trained word vectors over the tokens of a name; the string level scores
character overlap with a normalized Levenshtein ratio. Names whose tokens
are all out of vocabulary get a zero vector and are flagged so diagnostics
can report coverage.
"""

from __future__ import annotations

import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ParseError
from .measures import SimilarityMatrix

# \w covers letters, digits and underscore; underscores are separators in
# benchmark entity labels, so they are stripped explicitly.
_NON_TOKEN = re.compile(r"[^\w\s]|_")


@dataclass
class WordVectorTable:
    """Token-to-vector lookup with a single fixed dimension."""

    vectors: dict[str, np.ndarray]
    dim: int


@dataclass
class NameEmbeddingMatrix:
    """One averaged word vector per entity plus an all-OOV row mask."""

    rows: np.ndarray
    oov_mask: np.ndarray

    def __post_init__(self):
        if self.rows.shape[0] != self.oov_mask.shape[0]:
            raise ValueError("rows and oov_mask differ in length")


def tokenize(name: str) -> list[str]:
    """Lowercase, strip punctuation and underscores, split on whitespace."""
    return _NON_TOKEN.sub(" ", name.lower()).split()


def load_word_vectors(path) -> WordVectorTable:
    """Parse a text vector file: optional ``count dim`` header, then one
    ``token v1 ... v_d`` line per word (fastText .vec compatible).

    A repeated token keeps its first occurrence.
    """
    path = Path(path)
    vectors: dict[str, np.ndarray] = {}
    dim: int | None = None
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields:
                continue
            if line_no == 1 and len(fields) == 2:
                try:
                    _, dim = int(fields[0]), int(fields[1])
                    continue
                except ValueError:
                    pass  # not a header; fall through to vector parsing
            token, values = fields[0], fields[1:]
            try:
                vec = np.array([float(x) for x in values], dtype=np.float64)
            except ValueError as exc:
                raise ParseError(path, line_no, f"bad float value: {exc}") from None
            if dim is None:
                dim = len(vec)
            if len(vec) != dim:
                raise ParseError(
                    path, line_no, f"expected {dim} values, got {len(vec)}"
                )
            if token not in vectors:
                vectors[token] = vec
    if dim is None:
        raise ParseError(path, 1, "empty vector file")
    return WordVectorTable(vectors=vectors, dim=dim)


def name_embedding_matrix(
    names: Sequence[str], table: WordVectorTable
) -> NameEmbeddingMatrix:
    rows = np.zeros((len(names), table.dim))
    oov = np.zeros(len(names), dtype=bool)
    for i, name in enumerate(names):
        hits = [table.vectors[t] for t in tokenize(name) if t in table.vectors]
        if hits:
            rows[i] = np.mean(hits, axis=0)
        else:
            oov[i] = True
    return NameEmbeddingMatrix(rows=rows, oov_mask=oov)


def levenshtein(a: str, b: str) -> int:
    """Minimal insert/delete/substitute count over Unicode scalar values."""
    if a == b:
        return 0
    # Strip shared prefix and suffix; they never change the distance.
    lo = 0
    hi_a, hi_b = len(a), len(b)
    while lo < hi_a and lo < hi_b and a[lo] == b[lo]:
        lo += 1
    while hi_a > lo and hi_b > lo and a[hi_a - 1] == b[hi_b - 1]:
        hi_a -= 1
        hi_b -= 1
    a, b = a[lo:hi_a], b[lo:hi_b]
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) < len(b):
        a, b = b, a

    tgt = np.array(list(b))
    idx = np.arange(len(b) + 1)
    prev = idx.copy()
    cur = np.empty_like(prev)
    for i, ch in enumerate(a, start=1):
        cur[0] = i
        np.minimum(prev[1:] + 1, prev[:-1] + (tgt != ch), out=cur[1:])
        # Propagate insertions along the row: cur[j] = min_k<=j cur[k] + (j - k).
        np.minimum.accumulate(cur - idx, out=cur)
        cur += idx
        prev, cur = cur, prev
    return int(prev[-1])


def lev_ratio(a: str, b: str) -> float:
    """1 - levenshtein(a, b) / max(len); two empty strings score 1."""
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein(a, b) / longest


def _encode(names: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Code points as a -1-padded ``(max_len, n)`` int32 array plus the lengths.

    One column per name, so each DP step is one contiguous op across all names.
    """
    lengths = np.array([len(name) for name in names], dtype=np.intp)
    codes = np.full((int(lengths.max()), len(names)), -1, dtype=np.int32)
    for j, name in enumerate(names):
        codes[: len(name), j] = [ord(ch) for ch in name]
    return codes, lengths


def _lev_ratio_rows(
    src_names: Sequence[str], codes: np.ndarray, lengths: np.ndarray, out: np.ndarray
) -> None:
    """Fill ``out[r, t] = lev_ratio(src_names[r], target t)`` for all targets at once.

    This is the row recurrence of ``levenshtein`` run across every target,
    kept in offset form P[j] = D[j] - j: a new row is
    min(P[j] + 1, P[j-1] - (tgt[j] == ch)), and the insertion sweep becomes a
    plain running minimum down the target positions. Padding sits to the
    right of each target, where it cannot reach the cell at the target's own
    length. Buffers are O(max_len * n_tgt) and owned by this call.
    """
    max_len, n_tgt = codes.shape
    cols = np.arange(n_tgt)
    prev = np.empty((max_len + 1, n_tgt), dtype=np.int32)
    cur = np.empty_like(prev)
    match = np.empty(codes.shape, dtype=bool)
    diag = np.empty(codes.shape, dtype=np.int32)
    for r, name in enumerate(src_names):
        prev.fill(0)
        for i, ch in enumerate(name, start=1):
            np.equal(codes, ord(ch), out=match)
            np.subtract(prev[:-1], match, out=diag)
            np.add(prev[1:], 1, out=cur[1:])
            np.minimum(cur[1:], diag, out=cur[1:])
            cur[0] = i
            np.minimum.accumulate(cur, axis=0, out=cur)
            prev, cur = cur, prev
        dist = prev[lengths, cols] + lengths
        # Same operands as lev_ratio's int / int, so the floats are identical;
        # two empty names give 1 - 0 / 1 = 1.
        out[r] = 1.0 - dist / np.maximum(np.maximum(lengths, len(name)), 1)


def string_sim_matrix(
    src_names: Sequence[str], tgt_names: Sequence[str], threads: int = 1
) -> SimilarityMatrix:
    """Levenshtein-ratio scores for every source/target name pair.

    Each source name runs one DP across all target names at once (see
    ``_lev_ratio_rows``); every score equals ``lev_ratio`` bit for bit. With
    ``threads > 1`` the sources are split into contiguous chunks, one per
    worker thread, each with its own DP buffers.
    """
    if not src_names or not tgt_names:
        raise ValueError("name lists must be nonempty")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    codes, lengths = _encode(tgt_names)
    n_src = len(src_names)
    scores = np.empty((n_src, len(tgt_names)))
    workers = min(threads, n_src)
    if workers > 1:
        step = -(-n_src // workers)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_lev_ratio_rows, src_names[lo:lo + step], codes,
                            lengths, scores[lo:lo + step])
                for lo in range(0, n_src, step)
            ]
            for future in futures:
                future.result()
    else:
        _lev_ratio_rows(src_names, codes, lengths, scores)
    return SimilarityMatrix(scores, "string")
