"""Regenerate fingerprints.json: the input hash of every workload for seeds 0-99.

  python3 perfbench/pin.py

Run it only after an intended change to the synthetic generator; run.py
fails any run whose generated inputs no longer match these pins.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import kgalign

    scratch = ROOT / ".perfbench_out" / "pin"
    by_input: dict[tuple, dict[str, str]] = {}
    pins = {}
    for name, spec in workloads.WORKLOADS.items():
        key = (spec["tasks"], *sorted(spec["input"].items()))
        if key not in by_input:
            hashes = {}
            for seed in workloads.PINNED_SEEDS:
                shutil.rmtree(scratch, ignore_errors=True)
                for k, task_seed in enumerate(workloads.task_seeds(seed, spec)):
                    kgalign.write_synthetic(workloads.task_dir(scratch, k),
                                            rng_seed=task_seed, **spec["input"],
                                            **workloads.SYNTH_COMMON)
                hashes[str(seed)] = workloads.fingerprint(scratch, spec)
            by_input[key] = hashes
        pins[name] = by_input[key]
    shutil.rmtree(scratch, ignore_errors=True)
    (HERE / "fingerprints.json").write_text(json.dumps(pins, indent=1) + "\n")


if __name__ == "__main__":
    main()
