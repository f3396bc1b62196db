"""Workload definitions shared by run.py and the worker.

Standard library only: the worker imports this module before it starts the
set-up clock, so nothing heavy may load here.

Each workload is sized so that one hot layer dominates it and another hot
layer is idle or minor: ``walkthrough-70`` is bound by the string kernel,
``structure-250`` by GCN training and the ``bc`` similarity block, and
``rl-250`` by the A2C decision loop. See README.md for the full map.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

# Arguments to kgalign.write_synthetic that every workload shares; n and
# edge_prob come from the workload, the seed from the command line.
SYNTH_COMMON = {"name_noise": 0.25, "edge_noise": 0.12, "vec_dim": 16}

# A workload's input is several alignment tasks ("tasks"), each a synthetic
# KG pair of its own seed (see task_seeds). At these sizes one task's work
# moves with its seed: the fastest cold pipeline spreads by about 0.19 over 16
# seeds of walkthrough-70 and 0.14 of rl-250, so a run reports the mean over
# its tasks.
WORKLOADS = {
    "walkthrough-70": {
        "input": {"n": 70, "edge_prob": 0.115},
        "config": {
            "dim": 32, "epochs": 60, "learning_rate": 0.05,
            "measure": "cos", "strategy": "rl", "rl_epochs": 150,
        },
        "runs": 3,
        "tasks": 6,
        "resume_batch": 6,
        "setups": 5,
    },
    "structure-250": {
        "input": {"n": 250, "edge_prob": 0.024},
        "config": {
            "features": ["structural", "semantic"], "measure": "bc",
            "dim": 64, "epochs": 100, "learning_rate": 0.005,
            "strategy": "hungarian",
        },
        "runs": 3,
        "tasks": 6,
        "resume_batch": 8,
        "setups": 3,
    },
    "rl-250": {
        "input": {"n": 250, "edge_prob": 0.024},
        "config": {
            "features": ["semantic"], "measure": "cos",
            "strategy": "rl", "rl_epochs": 50,
        },
        "runs": 3,
        "tasks": 6,
        "resume_batch": 8,
        "setups": 3,
    },
}

# Smoke mode runs every workload's code path at a size that takes seconds.
SMOKE_INPUT = {"n": 60, "edge_prob": 0.08}
SMOKE_CONFIG = {"epochs": 4, "rl_epochs": 2, "dim": 8}
SMOKE_REPEATS = {"runs": 1, "tasks": 2, "resume_batch": 2, "setups": 2}

# fingerprints.json pins the input hash of every workload for these seeds. A
# run with another seed checks the generator on its pinned seed seed % 100.
PINNED_SEEDS = range(100)

INPUT_FILES = ("triples1.tsv", "names1.tsv", "triples2.tsv", "names2.tsv",
               "gold.tsv", "vectors.vec")


def spec(name: str, smoke: bool) -> dict:
    """The workload's settings, shrunk to smoke size when asked."""
    base = WORKLOADS[name]
    if not smoke:
        return base
    return {
        **base,
        **SMOKE_REPEATS,
        "input": dict(SMOKE_INPUT),
        "config": {**base["config"], **SMOKE_CONFIG},
    }


def task_seeds(seed: int, spec: dict) -> list[int]:
    """The generator seed of each task of the run with this seed."""
    return [seed * spec["tasks"] + k for k in range(spec["tasks"])]


def task_dir(in_dir: Path, k: int) -> Path:
    return in_dir / f"task{k}"


def fingerprint(in_dir: Path, spec: dict) -> str:
    """SHA-256 over every task's generated input files, in a fixed order."""
    h = hashlib.sha256()
    for k in range(spec["tasks"]):
        for name in INPUT_FILES:
            data = (task_dir(in_dir, k) / name).read_bytes()
            h.update(f"{k}/{name}\0{len(data)}\0".encode())
            h.update(data)
    return h.hexdigest()
