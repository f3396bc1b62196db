"""File formats for matrices, alignment results, ranked lists, and reports.

The TSV matrix layout is one row per entity: the dense row index, then the
vector components, all tab-separated. Floats are written with repr so a
load after save is bit-exact, and a load accepts only the spellings a save
writes. The binary format is plain .npy. Alignment results are
``source_id<TAB>target_id<TAB>provenance`` lines. Every TSV file is read
through :func:`kgalign.kg.read_rows`.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Sequence

import numpy as np

from .collective import AlignmentResult
from .errors import ParseError
from .kg import read_rows

FORMATS = ("npy", "tsv")

# What save_matrix writes: str() of a row index and repr() of a float. int()
# and float() would also take whitespace around a field (U+0085 too),
# underscores between digits and non-ASCII digits.
_INDEX = re.compile(r"0|[1-9][0-9]*")
_FLOAT = re.compile(r"-?(?:[0-9]+\.[0-9]+(?:e[+-][0-9]+)?|[0-9]+e[+-][0-9]+|inf|nan)")


def save_matrix(path, matrix: np.ndarray, fmt: str = "npy") -> None:
    path = Path(path)
    if fmt == "npy":
        np.save(path, np.asarray(matrix, dtype=np.float64))
    elif fmt == "tsv":
        with open(path, "w", encoding="utf-8") as fh:
            for i, row in enumerate(np.asarray(matrix)):
                fh.write("\t".join([str(i)] + [repr(float(x)) for x in row]) + "\n")
    else:
        raise ValueError(f"unknown matrix format {fmt!r}")


def load_matrix(path) -> np.ndarray:
    path = Path(path)
    if path.suffix == ".npy":
        return np.load(path)
    rows: list[list[float]] = []
    for line_no, (index, *values) in read_rows(path):
        if not _INDEX.fullmatch(index):
            raise ParseError(path, line_no, f"invalid row index {index!r}")
        for x in values:
            if not _FLOAT.fullmatch(x):
                raise ParseError(path, line_no, f"could not convert string to float: {x!r}")
        index = int(index)
        if index != len(rows):
            raise ParseError(path, line_no, f"expected row index {len(rows)}, got {index}")
        if rows and len(values) != len(rows[0]):
            raise ParseError(path, line_no,
                             f"expected {len(rows[0])} values, got {len(values)}")
        rows.append([float(x) for x in values])
    return np.array(rows, dtype=np.float64)


def save_result(
    path,
    result: AlignmentResult,
    src_ids: Sequence[str],
    tgt_ids: Sequence[str],
) -> None:
    """Write matrix-indexed pairs as external-id TSV rows, in source order.

    The text is built before the file is opened, so an index outside the ids
    leaves no partial file.
    """
    save_text(path, "".join(f"{src_ids[s]}\t{tgt_ids[t]}\t{result.provenance[s]}\n"
                            for s, t in sorted(result.pairs.items())))


def load_result(path) -> list[tuple[str, str, str]]:
    """The (source id, target id, provenance) rows of a result TSV, in file
    order, read as :func:`kgalign.kg.read_rows` reads.

    A source id may appear once: a repeat raises ParseError naming its line,
    as a line with another field count than 3 does. Target ids may repeat.
    """
    rows = {}
    for line_no, (source, target, provenance) in read_rows(path, 3, "fields"):
        if source in rows:
            raise ParseError(path, line_no, f"duplicate source id {source!r}")
        rows[source] = source, target, provenance
    return list(rows.values())


def load_ranked(path) -> dict[str, list[str]]:
    """Each source id's target ids in rank order, from lines
    ``source_id<TAB>t1<TAB>t2...`` read as :func:`kgalign.kg.read_rows` reads.

    An empty or repeated source id, and a target id that is empty or
    repeats within its line, raise ParseError naming the line: a repeat
    would push every later target down a rank.
    """
    ranked = {}
    for line_no, (source, *targets) in read_rows(path):
        if not source:
            raise ParseError(path, line_no, "empty source id")
        if source in ranked:
            raise ParseError(path, line_no, f"duplicate source id {source!r}")
        if "" in targets:
            raise ParseError(path, line_no, "empty target id")
        if len(set(targets)) < len(targets):
            repeat = next(t for k, t in enumerate(targets) if t in targets[:k])
            raise ParseError(path, line_no, f"duplicate target id {repeat!r}")
        ranked[source] = targets
    return ranked


def save_json(path, payload) -> None:
    """Write ``payload`` as indented, key-sorted JSON plus a newline, in one write.

    The text is built before the file is opened, so a payload that cannot be
    serialised leaves an existing file as it was.
    """
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def save_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
