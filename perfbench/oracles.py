"""Plain-Python reference formulas for spot-checking similarity matrices.

Written from the definitions in the paper's feature stage, independently of
the library's vectorised kernels, so a faster kernel that changes results
fails the benchmark's output check.
"""

from __future__ import annotations

import math
import re

_NON_TOKEN = re.compile(r"[^\w\s]|_")


def levenshtein(a: str, b: str) -> int:
    """Textbook two-row dynamic programme."""
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def lev_ratio(a: str, b: str) -> float:
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein(a, b) / longest


def bray_curtis_sim(u, v) -> tuple[float, float]:
    """(1 - sum |u_i - v_i| / |u_i + v_i|, magnitude of the summed terms).

    Coordinates with a zero denominator contribute nothing.
    """
    total = 0.0
    for x, y in zip(u, v):
        den = abs(x + y)
        if den > 0:
            total += abs(x - y) / den
    return 1.0 - total, 1.0 + total


def cosine_sim(u, v) -> tuple[float, float]:
    """(cosine similarity, 1); zero when either vector is all zero."""
    nu = math.sqrt(sum(x * x for x in u))
    nv = math.sqrt(sum(y * y for y in v))
    if nu == 0 or nv == 0:
        return 0.0, 1.0
    return sum(x * y for x, y in zip(u, v)) / (nu * nv), 1.0


MEASURES = {"bc": bray_curtis_sim, "cos": cosine_sim}


def read_vectors(path) -> dict[str, list[float]]:
    """Word vectors from a ``.vec`` text file with a ``count dim`` header."""
    table: dict[str, list[float]] = {}
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            token, *values = line.split()
            table.setdefault(token, [float(x) for x in values])
    return table


def name_vector(name: str, table: dict[str, list[float]], dim: int) -> list[float]:
    """Mean of the in-vocabulary token vectors; zeros when none match."""
    hits = [table[t] for t in _NON_TOKEN.sub(" ", name.lower()).split() if t in table]
    if not hits:
        return [0.0] * dim
    return [sum(col) / len(hits) for col in zip(*hits)]


def read_names(path) -> list[str]:
    """Entity names in file order, which is the loader's dense index order."""
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n").split("\t")[1] for line in fh if line.strip()]
