"""Name-based features: averaged word embeddings and edit-distance similarity.

Entity names carry signal at two levels. The semantic level averages
pre-trained word vectors over the tokens of a name; the string level scores
character overlap with a normalized Levenshtein ratio. Names whose tokens
are all out of vocabulary get a zero vector.

The string matrix runs Myers' bit-vector edit distance in Hyyrö's
global-distance form (Myers, JACM 1999; Hyyrö 2003) for every target name
of at most 64 code points: the target is the pattern, one uint64 word per
target, and bit i of Pv/Mv says that the DP column rises/falls by 1 from
row i to row i + 1. Per source character c, with Eq = Peq[c] the positions
of c in the target::

    Xv = Eq | Mv
    Xh = (((Eq & Pv) + Pv) ^ Pv) | Eq
    Ph = Mv | ~(Xh | Pv)
    Mh = Pv & Xh
    score += last bit of Ph - last bit of Mh
    Ph = (Ph << 1) | 1         # row 0 grows by 1 per source character
    Mh = Mh << 1
    Pv = Mh | ~(Xv | Ph)
    Mv = Ph & Xv

starting from Pv = ones over the target, Mv = 0 and score = the target's
length; after the last character the score is the distance. Longer targets
do not fit one word and run a DP per source across them instead.
"""

from __future__ import annotations

import re
from array import array
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ParseError, check_number
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
    """One averaged word vector per entity."""

    rows: np.ndarray


def tokenize(name: str) -> list[str]:
    """Lowercase, strip punctuation and underscores, split on whitespace."""
    return _NON_TOKEN.sub(" ", name.lower()).split()


def load_word_vectors(path) -> WordVectorTable:
    """Parse a text vector file: optional ``count dim`` header, then one
    ``token v1 ... v_d`` line per word (fastText .vec compatible).

    A header's count must equal the number of vector lines. A repeated token
    keeps its first occurrence. The vectors are rows of one float64 array,
    parsed value by value with ``float``.
    """
    path = Path(path)
    tokens: list[str] = []
    values = array("d")
    count = dim = None
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields:
                continue
            if line_no == 1 and len(fields) == 2:
                try:
                    count, dim = int(fields[0]), int(fields[1])
                except ValueError:
                    pass  # not a header; fall through to vector parsing
                else:
                    if dim < 1:
                        raise ParseError(path, line_no, f"dimension {dim} is below 1")
                    continue
            start = len(values)
            try:
                values.extend(map(float, fields[1:]))
            except ValueError as exc:
                raise ParseError(path, line_no, f"bad float value: {exc}") from None
            if dim is None:
                dim = len(fields) - 1
                if dim == 0:
                    raise ParseError(path, line_no, "a vector needs at least one value")
            if len(values) - start != dim:
                raise ParseError(
                    path, line_no, f"expected {dim} values, got {len(values) - start}"
                )
            tokens.append(fields[0])
    if dim is None:
        raise ParseError(path, 1, "empty vector file")
    if count is not None and count != len(tokens):
        raise ParseError(
            path, 1, f"header promises {count} vectors, file has {len(tokens)}"
        )
    rows = np.frombuffer(values, dtype=np.float64).reshape(-1, dim)
    vectors: dict[str, np.ndarray] = {}
    for token, row in zip(tokens, rows):
        vectors.setdefault(token, row)
    return WordVectorTable(vectors=vectors, dim=dim)


def name_embedding_matrix(
    names: Sequence[str], table: WordVectorTable
) -> NameEmbeddingMatrix:
    """Each name's row is the mean of its in-vocabulary tokens' vectors.

    Names with the same number of hits are averaged together: the same
    row-by-row sum ``np.mean`` forms, then one divide, so every row equals
    ``np.mean(hits, axis=0)`` bit for bit. An all-OOV name gets a zero row.
    """
    rows = np.zeros((len(names), table.dim))
    hits = [[table.vectors[t] for t in tokenize(name) if t in table.vectors]
            for name in names]
    by_count: dict[int, list[int]] = {}
    for i, vecs in enumerate(hits):
        by_count.setdefault(len(vecs), []).append(i)
    for count, members in by_count.items():
        if count == 0:
            continue
        stacked = np.array([hits[i] for i in members])  # (names, count, dim)
        total = np.zeros((len(members), table.dim))
        for k in range(count):
            total += stacked[:, k]
        rows[members] = total / count
    return NameEmbeddingMatrix(rows=rows)


def _encode(names: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Code points as a -1-padded ``(max_len, n)`` int32 array plus the lengths.

    One column per name, so each DP step is one contiguous op across all names.
    """
    lengths = np.array([len(name) for name in names], dtype=np.intp)
    codes = np.full((int(lengths.max()), len(names)), -1, dtype=np.int32)
    for j, name in enumerate(names):
        codes[: len(name), j] = [ord(ch) for ch in name]
    return codes, lengths


def _ratio(dist: np.ndarray, src_len: np.ndarray, tgt_len: np.ndarray) -> np.ndarray:
    """1 - distance / max(len) from int distances: the same int / int operands
    as the tests' scalar oracle ``lev_ratio`` (``tests/reference.py``), so the
    floats are identical; two empty names give 1 - 0 / 1 = 1."""
    return 1.0 - dist / np.maximum(np.maximum(tgt_len, src_len[:, None]), 1)


def _lev_ratio_rows(
    src_names: Sequence[str], codes: np.ndarray, lengths: np.ndarray, out: np.ndarray
) -> None:
    """Fill ``out[r, t]`` with the Levenshtein ratio of ``src_names[r]`` and
    target t, for all targets at once.

    This is the row recurrence of the edit-distance DP run across every target,
    kept in offset form P[j] = D[j] - j: a new row is
    min(P[j] + 1, P[j-1] - (tgt[j] == ch)), and the insertion sweep becomes a
    plain running minimum down the target positions. Padding sits to the
    right of each target, where it cannot reach the cell at the target's own
    length. Buffers are O(max_len * n_tgt) and owned by this call. Only
    targets longer than one Myers word take this path.
    """
    max_len, n_tgt = codes.shape
    cols = np.arange(n_tgt)
    dist = np.empty(out.shape, dtype=np.intp)
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
        dist[r] = prev[lengths, cols] + lengths
    src_len = np.array([len(name) for name in src_names], dtype=np.intp)
    out[...] = _ratio(dist, src_len, lengths)


# Myers' kernel holds a target of up to _WORD code points in one uint64.
_WORD = 64
_ONE = np.uint64(1)
_TOP = np.uint64(_WORD - 1)
# Pairs per Myers block: each of the six uint64 working arrays holds at most
# this many (source, target) cells, so memory stays bounded however many
# targets. At 2**15 cells (256 KB an array) they stay in a 2 MB L2 cache:
# 2000 x 2000 names took 0.77 s, against 1.44 s at 2**20 cells.
_BLOCK_CELLS = 1 << 15


@dataclass(frozen=True)
class _Patterns:
    """Targets of at most _WORD code points laid out for Myers' kernel.

    Target t of length m occupies the top m bits of its word: position k is
    bit 64 - m + k, so bit 63 is always its last position, and ``pv0`` has
    those m bits set. Below them Pv and Mv stay 0 and Ph is all ones before
    its shift, so row 0's +1 reaches bit 64 - m by itself; the ``| 1`` of
    the recurrence only matters when m = 64. ``pair_*`` hold one entry per
    distinct (code point, target): the index of the code point in the
    sorted ``chars``, the target, and the bits of its positions, which is
    that target's Peq entry.
    """

    lengths: np.ndarray
    pv0: np.ndarray
    chars: np.ndarray
    pair_char: np.ndarray
    pair_tgt: np.ndarray
    pair_bits: np.ndarray

    @classmethod
    def build(cls, codes: np.ndarray, lengths: np.ndarray) -> "_Patterns":
        pos, tgt = np.nonzero(codes >= 0)
        bits = np.left_shift(_ONE, (_WORD - lengths[tgt] + pos).astype(np.uint64))
        chars, char_idx = np.unique(codes[pos, tgt], return_inverse=True)
        keys, pair = np.unique(char_idx * len(lengths) + tgt, return_inverse=True)
        pair_bits = np.zeros(keys.size, dtype=np.uint64)
        np.bitwise_or.at(pair_bits, pair, bits)
        pair_char, pair_tgt = np.divmod(keys, len(lengths))
        # Built from Python ints: a uint64 shift by 64 is not defined.
        pv0 = np.array([((1 << m) - 1) << (_WORD - m) for m in lengths.tolist()],
                       dtype=np.uint64)
        return cls(lengths, pv0, chars, pair_char, pair_tgt, pair_bits)


def _myers_rows(src_names: Sequence[str], pat: _Patterns, out: np.ndarray) -> None:
    """Fill ``out[r, t]`` with the Levenshtein ratio of ``src_names[r]`` and
    target t from Myers' bit-vector edit distance (see the module docstring),
    all pairs of a block of sources at once.
    """
    n_tgt = pat.lengths.size
    src_len = np.array([len(name) for name in src_names], dtype=np.intp)
    starts = np.cumsum(src_len) - src_len
    # Each source code point as its index in pat.chars, or -1 if no target
    # has it (the -1 sentinel equals no code point).
    flat = "".join(src_names).encode("utf-32-le", "surrogatepass")
    codes = np.frombuffer(flat, dtype=np.uint32).astype(np.int64)
    found = np.searchsorted(pat.chars, codes)
    char_idx = np.where(np.append(pat.chars, -1)[found] == codes, found, -1)
    # Longest first, so the sources still reading at position j are a prefix.
    by_length = np.argsort(-src_len, kind="stable")
    rows = min(len(src_names), max(1, _BLOCK_CELLS // n_tgt))
    eq, xh, ph, pv, mv, score = (np.empty((rows, n_tgt), dtype=np.uint64)
                                 for _ in range(6))
    for lo in range(0, len(src_names), rows):
        block = by_length[lo:lo + rows]
        b, length = block.size, src_len[block]
        width = int(length[0])
        # text[j, i]: the Peq row of position j of source i. Every code point
        # that no target has shares the last, all-zero row. Reads past a
        # source's end are clipped, then masked.
        pos = np.arange(width)[:, None]
        ahead = char_idx[np.minimum(starts[block] + pos, codes.size - 1)]
        text = np.where(pos < length, ahead, -1)
        used = np.unique(text[text >= 0])
        row_of = np.full(pat.chars.size + 1, used.size, dtype=np.intp)
        row_of[used] = np.arange(used.size)
        text = row_of[text]
        peq = np.zeros((used.size + 1, n_tgt), dtype=np.uint64)
        pair_row = row_of[pat.pair_char]
        keep = pair_row < used.size
        peq[pair_row[keep], pat.pair_tgt[keep]] = pat.pair_bits[keep]
        active = b - np.cumsum(np.bincount(length, minlength=width + 1))[:width]
        pv[:b] = pat.pv0
        mv[:b] = 0
        score[:b] = pat.lengths
        for j, a in enumerate(active.tolist()):
            e, x, p, v, m, d = eq[:a], xh[:a], ph[:a], pv[:a], mv[:a], score[:a]
            np.take(peq, text[j, :a], axis=0, out=e, mode="clip")
            np.bitwise_and(e, v, out=x)
            np.add(x, v, out=x)
            np.bitwise_xor(x, v, out=x)
            np.bitwise_or(x, e, out=x)           # Xh
            np.bitwise_or(e, m, out=e)           # Xv
            np.bitwise_or(x, v, out=p)
            np.invert(p, out=p)
            np.bitwise_or(p, m, out=p)           # Ph
            np.bitwise_and(x, v, out=x)          # Mh
            # Mv is spent: m is scratch until it takes the new Mv.
            np.right_shift(p, _TOP, out=m)
            np.add(d, m, out=d)
            np.right_shift(x, _TOP, out=m)
            np.subtract(d, m, out=d)
            np.left_shift(p, _ONE, out=p)
            np.bitwise_or(p, _ONE, out=p)
            np.left_shift(x, _ONE, out=x)
            np.bitwise_or(e, p, out=v)
            np.invert(v, out=v)
            np.bitwise_or(v, x, out=v)           # Pv
            np.bitwise_and(p, e, out=m)          # Mv
        out[block] = _ratio(score[:b].view(np.int64), length, pat.lengths)


def _fill(src_names: Sequence[str], codes: np.ndarray, lengths: np.ndarray,
          pat: _Patterns, out: np.ndarray) -> None:
    """All scores of ``src_names`` into ``out``: Myers for targets of at most
    _WORD code points, the DP for the rest."""
    short = lengths <= _WORD
    if short.all():
        _myers_rows(src_names, pat, out)
        return
    if short.any():
        part = np.empty((len(src_names), int(short.sum())))
        _myers_rows(src_names, pat, part)
        out[:, short] = part
    long = ~short
    part = np.empty((len(src_names), int(long.sum())))
    _lev_ratio_rows(src_names, codes[:, long], lengths[long], part)
    out[:, long] = part


def string_sim_matrix(
    src_names: Sequence[str], tgt_names: Sequence[str], threads: int = 1
) -> SimilarityMatrix:
    """Levenshtein-ratio scores for every source/target name pair.

    Every score is 1 - distance / max(len) and equals the tests' scalar
    oracle ``lev_ratio`` (``tests/reference.py``) bit for bit. Targets of at
    most 64 code points run Myers' recurrence (see the module docstring) over
    all pairs of a block of sources at once, each op over (sources still
    reading) x targets; an empty target has no bits and scores the source
    length. Longer targets run ``_lev_ratio_rows``. With ``threads > 1`` the
    sources are split into contiguous chunks, one per worker thread, each
    with its own buffers.
    """
    if not src_names or not tgt_names:
        raise ValueError("name lists must be nonempty")
    check_number("threads", threads, 1, integer=True)
    codes, lengths = _encode(tgt_names)
    short = lengths <= _WORD
    pat = _Patterns.build(codes[:_WORD, short], lengths[short])
    n_src = len(src_names)
    scores = np.empty((n_src, len(tgt_names)))
    workers = min(threads, n_src)
    if workers > 1:
        step = -(-n_src // workers)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_fill, src_names[lo:lo + step], codes, lengths, pat,
                            scores[lo:lo + step])
                for lo in range(0, n_src, step)
            ]
            for future in futures:
                future.result()
    else:
        _fill(src_names, codes, lengths, pat, scores)
    return SimilarityMatrix(scores, "string")
