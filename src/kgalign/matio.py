"""File formats for matrices, alignment results, and reports.

The TSV matrix layout is one row per entity: the dense row index, then the
vector components, all tab-separated. Floats are written with repr so a
load after save is bit-exact. The binary format is plain .npy. Alignment
results are ``source_id<TAB>target_id<TAB>provenance`` lines.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

import numpy as np

from .collective import AlignmentResult
from .errors import ParseError
from .kg import _first_repeat, _line_no, _read_tsv

FORMATS = ("npy", "tsv")


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
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            try:
                index = int(fields[0])
                values = [float(x) for x in fields[1:]]
            except ValueError as exc:
                raise ParseError(path, line_no, str(exc)) from None
            if index != len(rows):
                raise ParseError(
                    path, line_no, f"expected row index {len(rows)}, got {index}"
                )
            if rows and len(values) != len(rows[0]):
                raise ParseError(
                    path, line_no,
                    f"expected {len(rows[0])} values, got {len(values)}",
                )
            rows.append(values)
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
    order, read as the TSV loaders of :mod:`kgalign.kg` read.

    A source id may appear once: a repeat raises ParseError naming its line,
    as a line with another field count than 3 does; the earliest bad line is
    named. Target ids may repeat.
    """
    (sources, targets, provenance), bad = _read_tsv(path, 3, "fields")
    k = _first_repeat(sources)
    if k < len(sources):
        raise ParseError(path, _line_no(path, k), f"duplicate source id {sources[k]!r}")
    if bad:
        raise bad
    return list(zip(sources, targets, provenance))


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
