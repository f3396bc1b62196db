"""Seeded synthetic KG pairs with a planted gold alignment.

A random graph is generated once and duplicated; the copy gets fresh ids,
optional edge rewiring, and character-level noise on entity names, so the
pair behaves like a small benchmark where every feature carries partial
signal. The gold alignment is the identity mapping between the two copies.

Stream-exact contract: every file ``write_synthetic`` writes is byte-equal to
what the plain scalar generator writes (tests/reference.py keeps it as the
oracle), which makes one ``rng.random()`` call per entity pair, per copied
triple and per noisy name character, plus ``rng.integers`` for relations,
rewired tails and noise letters. The three per-draw loops replay exactly
those draws through :class:`kgalign.stream.Stream`, whose module states the
draw model and the read-ahead/step-back contract, so the generator ends in
the state the scalar loops leave. Changing the order or number of draws
changes the generated inputs; that is a benchmark change, which re-pins
``perfbench/fingerprints.json`` (``python3 perfbench/pin.py``).
"""

from __future__ import annotations

import string
from pathlib import Path

import numpy as np

from .errors import check_number
from .kg import KnowledgeGraph, save_alignment, save_kg
from .stream import Stream

_LETTERS = string.ascii_lowercase
_BLOCK = 1 << 12  # words the stream reads from the bit generator at a time


def _random_word(rng: np.random.Generator) -> str:
    length = int(rng.integers(4, 9))
    return "".join(_LETTERS[i] for i in rng.integers(len(_LETTERS), size=length))


def _edges(n: int, edge_prob: float, n_relations: int,
           stream: Stream) -> np.ndarray:
    """The scalar pair loop: for each i < j in order, ``random() < edge_prob``
    makes an edge with relation ``integers(n_relations)``, pointing i -> j if
    the next ``random() < 0.5`` and j -> i otherwise.
    """
    n_pairs = n * (n - 1) // 2
    found, rels, forward = [], [], []
    done = 0
    while done < n_pairs:
        passed, hit = stream.scan(edge_prob, n_pairs - done)
        done += passed
        if hit is None:
            break
        found.append(done)
        rels.append(stream.integers(n_relations))
        forward.append(stream.random() < 0.5)
        done += 1
    # Pair p is (i, j) with i the last row whose first pair index is <= p.
    rows = np.arange(n)
    first = rows * (2 * n - rows - 1) // 2
    pair = np.array(found, dtype=np.int64)
    i = np.searchsorted(first, pair, side="right") - 1
    j = pair - first[i] + i + 1
    forward = np.array(forward, dtype=bool)
    return np.column_stack([np.where(forward, i, j), rels,
                            np.where(forward, j, i)]).astype(np.int64)


def _rewire(triples: np.ndarray, n: int, edge_noise: float,
            stream: Stream) -> np.ndarray:
    """The scalar rewiring loop: each triple whose ``random() < edge_noise``
    gets the tail ``integers(n)``, redrawn while it equals the head."""
    out = triples.copy()
    done = 0
    while done < len(out):
        passed, hit = stream.scan(edge_noise, len(out) - done)
        done += passed
        if hit is None:
            break
        head = int(out[done, 0])
        tail = stream.integers(n)
        while tail == head:
            tail = stream.integers(n)
        out[done, 2] = tail
        done += 1
    return out


def _noisy(names: list[str], noise: float, stream: Stream) -> list[str]:
    """Per character, ``op = random()``: below ``noise / 3`` deletes it, below
    ``2 * noise / 3`` substitutes ``integers(26)``'s letter, below ``noise``
    inserts that letter after it, else keeps it. A name left empty stays as
    it was."""
    if noise <= 0:
        return list(names)
    out = []
    for name in names:
        pieces = []
        at = 0
        while at < len(name):
            passed, op = stream.scan(noise, len(name) - at)
            pieces.append(name[at:at + passed])
            at += passed
            if op is None:
                break
            if op >= noise / 3:
                letter = _LETTERS[stream.integers(len(_LETTERS))]
                pieces.append(letter if op < 2 * noise / 3 else name[at] + letter)
            at += 1
        out.append("".join(pieces) or name)
    return out


def gen_synthetic(
    n: int,
    edge_prob: float,
    name_noise: float,
    rng_seed: int,
    edge_noise: float = 0.0,
) -> tuple[KnowledgeGraph, KnowledgeGraph, list[tuple[str, str]]]:
    """Build a KG pair of ``n`` entities each plus the identity gold mapping.

    ``edge_prob`` controls graph density; ``name_noise`` is the per-character
    corruption rate applied to the copy's names; ``edge_noise`` rewires that
    fraction of the copy's triples to a random tail. All three lie in [0, 1].
    """
    check_number("n", n, 4, integer=True)
    check_number("rng_seed", rng_seed, 0, integer=True)
    probabilities = dict(edge_prob=edge_prob, name_noise=name_noise, edge_noise=edge_noise)
    for key, value in probabilities.items():
        check_number(key, value, 0, high=1)
    rng = np.random.default_rng(rng_seed)
    n_relations = max(2, n // 20)
    vocab = [_random_word(rng) for _ in range(max(20, n // 2))]

    names: list[str] = []
    seen: set[str] = set()
    for _ in range(n):
        while True:
            words = [vocab[int(i)] for i in rng.integers(len(vocab), size=3)]
            name = " ".join(words)
            if name not in seen:
                seen.add(name)
                names.append(name)
                break

    stream = Stream(rng, _BLOCK)
    triples = _edges(n, edge_prob, n_relations, stream)
    copy_triples = _rewire(triples, n, edge_noise, stream)
    copy_names = _noisy(names, name_noise, stream)
    stream.close()

    kg1 = KnowledgeGraph(
        entity_ids=tuple(f"s{i}" for i in range(n)),
        relation_ids=tuple(f"r{k}" for k in range(n_relations)),
        triples=triples,
        entity_names=tuple(names),
    )
    kg2 = KnowledgeGraph(
        entity_ids=tuple(f"t{i}" for i in range(n)),
        relation_ids=tuple(f"q{k}" for k in range(n_relations)),
        triples=copy_triples,
        entity_names=tuple(copy_names),
    )
    gold = [(f"s{i}", f"t{i}") for i in range(n)]
    return kg1, kg2, gold


def synth_word_vectors(
    kg1: KnowledgeGraph,
    kg2: KnowledgeGraph,
    dim: int,
    rng_seed: int,
) -> dict[str, np.ndarray]:
    """One random unit vector per token appearing in either KG's names.

    Token k in sorted order gets the k-th ``dim`` normal draws, divided by
    their norm ``sqrt(v.dot(v))`` (what ``np.linalg.norm`` computes).
    """
    from .names import tokenize

    tokens = sorted(
        {t for name in kg1.entity_names + kg2.entity_names for t in tokenize(name)}
    )
    draws = np.random.default_rng(rng_seed).normal(size=(len(tokens), dim))
    for vec in draws:
        vec /= np.sqrt(vec.dot(vec))
    return dict(zip(tokens, draws))


def write_synthetic(
    out_dir,
    n: int,
    edge_prob: float,
    name_noise: float,
    rng_seed: int,
    edge_noise: float = 0.0,
    vec_dim: int = 16,
) -> dict[str, Path]:
    """Generate a pair and write it in the benchmark file layout.

    Produces triples/names TSVs for both KGs, the gold alignment, and a
    word-vector file covering every name token. A bad argument raises
    ``ValueError`` before anything is written.
    """
    check_number("vec_dim", vec_dim, 1, integer=True)
    kg1, kg2, gold = gen_synthetic(n, edge_prob, name_noise, rng_seed, edge_noise)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "triples1": out_dir / "triples1.tsv",
        "names1": out_dir / "names1.tsv",
        "triples2": out_dir / "triples2.tsv",
        "names2": out_dir / "names2.tsv",
        "gold": out_dir / "gold.tsv",
        "vectors": out_dir / "vectors.vec",
    }
    save_kg(kg1, paths["triples1"], paths["names1"])
    save_kg(kg2, paths["triples2"], paths["names2"])
    save_alignment(gold, paths["gold"])
    vectors = synth_word_vectors(kg1, kg2, vec_dim, rng_seed)
    with open(paths["vectors"], "w", encoding="utf-8") as fh:
        fh.write(f"{len(vectors)} {vec_dim}\n")
        fh.writelines(token + " " + " ".join(map(repr, vec.tolist())) + "\n"
                      for token, vec in vectors.items())
    return paths
