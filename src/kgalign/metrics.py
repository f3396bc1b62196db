"""Alignment quality metrics and diagnostics.

Precision counts correct matches over produced matches, recall over gold
matches, F1 is their harmonic mean. Ranking metrics (hits at k, mean
reciprocal rank) apply when full ranked candidate lists are available. The
precision of confident correspondences supports fusion diagnostics.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .collective import AlignmentResult, count_multiplicities
from .errors import EvaluationError

# Rows per block in gold_ranks: its boolean temporaries stay O(block x columns).
_RANK_BLOCK = 256


@dataclass
class EvalReport:
    """One run's scores. ``to_text`` writes one line per field, in field order,
    with ``hits`` as one ``hits@k`` line per k in ascending order and fields
    that are None left out; ``to_json`` writes every field."""

    precision: float
    recall: float
    f1: float
    hits: dict[int, float] = field(default_factory=dict)
    mrr: float | None = None
    mulse: int | None = None
    multe: int | None = None
    poc: float | None = None

    def to_text(self) -> str:
        lines = []
        for name, value in asdict(self).items():
            if name == "hits":
                lines += [f"hits@{k}\t{value[k]!r}" for k in sorted(value)]
            elif value is not None:
                lines.append(f"{name}\t{value!r}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = asdict(self)
        payload["hits"] = {str(k): v for k, v in self.hits.items()}
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "EvalReport":
        """The report whose ``to_json`` is ``text``; ``hits`` keys come back as ints."""
        payload = json.loads(text)
        payload["hits"] = {int(k): v for k, v in payload["hits"].items()}
        return cls(**payload)


def _pairs_of(pred) -> dict:
    if isinstance(pred, AlignmentResult):
        return pred.pairs
    return dict(pred)


def prf(pred, gold: Mapping) -> tuple[float, float, float]:
    """(precision, recall, f1) of predicted pairs against a gold mapping."""
    gold = dict(gold)
    if not gold:
        raise ValueError("gold mapping is empty")
    pairs = _pairs_of(pred)
    correct = sum(1 for s, t in pairs.items() if gold.get(s) == t)
    precision = correct / len(pairs) if pairs else 0.0
    recall = correct / len(gold)
    if precision == recall:  # keeps P = R = F1 an exact identity
        f1 = precision
    elif precision + recall > 0:
        f1 = 2 * precision * recall / (precision + recall)
    else:
        f1 = 0.0
    return precision, recall, f1


def hits_mrr(
    ranked: Mapping, gold: Mapping, ks: Sequence[int] = (1, 10)
) -> tuple[dict[int, float], float]:
    """Hits at each k and mean reciprocal rank of the gold target."""
    return hits_mrr_of_ranks(ranks_in_lists(ranked, gold), ks)


def ranks_in_lists(ranked: Mapping, gold: Mapping) -> list[int]:
    """The 1-based rank of each gold target in its source's ``ranked`` list, in
    ``gold`` order. A missing list or gold target is an EvaluationError, not a zero."""
    gold = dict(gold)
    if not gold:
        raise ValueError("gold mapping is empty")
    ranks = []
    for s, t in gold.items():
        if s not in ranked:
            raise EvaluationError(f"no ranked list for source {s!r}")
        lst = list(ranked[s])
        try:
            ranks.append(lst.index(t) + 1)
        except ValueError:
            raise EvaluationError(
                f"gold target {t!r} missing from the ranked list of {s!r}"
            ) from None
    return ranks


def gold_ranks(scores: np.ndarray) -> list[int]:
    """Rank of column i in row i, for every row: the gold target of source i.

    The rank is 1 + #{j: s[i, j] > s[i, i]} + #{j < i: s[i, j] == s[i, i]},
    the position of column i in the stable ``argsort(-row)``.
    """
    n_rows, n_cols = scores.shape
    if n_cols < n_rows:
        raise ValueError(f"{n_rows} rows need at least as many columns, got {n_cols}")
    ranks = np.empty(n_rows, dtype=np.int64)
    cols = np.arange(n_cols)
    for lo in range(0, n_rows, _RANK_BLOCK):
        rows = scores[lo:lo + _RANK_BLOCK]
        idx = cols[lo:lo + rows.shape[0], None]
        gold = np.take_along_axis(rows, idx, axis=1)
        above = np.count_nonzero(rows > gold, axis=1)
        tied_before = np.count_nonzero((rows == gold) & (cols < idx), axis=1)
        ranks[lo:lo + _RANK_BLOCK] = 1 + above + tied_before
    return ranks.tolist()


def hits_mrr_of_ranks(
    ranks: Sequence[int], ks: Sequence[int] = (1, 10)
) -> tuple[dict[int, float], float]:
    """Hits at each k and mean reciprocal rank of 1-based gold ranks, in order."""
    if not ranks:
        raise ValueError("need at least one rank")
    n = len(ranks)
    hits = {int(k): sum(1 for r in ranks if r <= k) / n for k in ks}
    mrr = sum(1.0 / r for r in ranks) / n
    return hits, mrr


def fusion_poc(cells: Iterable, gold: Mapping) -> float | None:
    """Fraction of distinct confident (source, target) cells that are gold
    pairs; None when there are no cells at all.
    """
    gold = dict(gold)
    cells = set(cells)
    if not cells:
        return None
    correct = sum(1 for s, t in cells if gold.get(s) == t)
    return correct / len(cells)


def evaluate(result: AlignmentResult, gold: Mapping, ranks: Sequence[int] | None = None,
             cells: Iterable | None = None) -> EvalReport:
    """``result``'s precision, recall, F1 and target reuse against ``gold``; if
    given, hits@1/10 and MRR of the gold targets' 1-based ``ranks`` (``gold``
    order) and the fraction of the confident ``cells`` that are gold pairs."""
    precision, recall, f1 = prf(result, gold)
    hits, mrr = hits_mrr_of_ranks(ranks, ks=(1, 10)) if ranks is not None else ({}, None)
    mulse, multe = count_multiplicities(result)
    return EvalReport(precision, recall, f1, hits, mrr, mulse, multe,
                      poc=None if cells is None else fusion_poc(cells, gold))
