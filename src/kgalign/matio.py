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
    """Write matrix-indexed pairs as external-id TSV rows."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in sorted(result.pairs):
            t = result.pairs[s]
            fh.write(f"{src_ids[s]}\t{tgt_ids[t]}\t{result.provenance[s]}\n")


def load_result(path) -> list[tuple[str, str, str]]:
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise ParseError(
                    path, line_no, f"expected 3 fields, got {len(fields)}"
                )
            rows.append((fields[0], fields[1], fields[2]))
    return rows


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
