"""One benchmark process: set up a workload's inputs, then run or trace it.

Started by run.py, one at a time, each in a fresh interpreter so that import
cost, peak RSS and lazy initialisation are those of a real run. The result
goes to the JSON file named by ``--out``; nothing is printed on success.

Modes:
  import  import kgalign and exit (compiles bytecode before anything is timed)
  setup   import kgalign, generate and write the seeded inputs
  run     setup, then one cold run_pipeline pass per task, each into an
          empty directory of its own, and RESUME_INTERVALS timed batches of
          resumed passes over each; the output checks follow every pass,
          outside every timed interval
  trace   setup, then the traced replay of replay.py on the first task,
          cross-checked against the untraced run's report.json for that task,
          given by ``--reference``
"""

from __future__ import annotations

import speedprobe

# The set-up interval starts before anything heavy is imported.
_SETUP = speedprobe.Interval(numpy=False).start()

import argparse
import dataclasses
import json
import os
import random
import re
import resource
import sys
from pathlib import Path

import oracles
import workloads

ROOT = Path(__file__).resolve().parent.parent
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "KGALIGN_THREADS")
CELLS_PER_FEATURE = 64
# Resumed intervals per task and worker: resume takes milliseconds, so a run
# needs several samples per task for its fastest one to be steady.
RESUME_INTERVALS = 4


def import_kgalign():
    """Import the package from this checkout's ``src``, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import kgalign

    if Path(kgalign.__file__).resolve().parent != src / "kgalign":
        raise ImportError(f"kgalign imported from {kgalign.__file__}, not {src}")
    return kgalign


def setup(kg, spec: dict, seed: int, in_dir: Path) -> dict:
    paths = [kg.write_synthetic(workloads.task_dir(in_dir, k), rng_seed=task_seed,
                                **spec["input"], **workloads.SYNTH_COMMON)
             for k, task_seed in enumerate(workloads.task_seeds(seed, spec))]
    _SETUP.stop()
    return {
        "setup": _SETUP.record(),
        "fingerprint": workloads.fingerprint(in_dir, spec),
        "paths": [{k: str(v) for k, v in task.items()} for task in paths],
    }


def pipeline_config(kg, spec: dict, seed: int, paths: dict, out_dir: Path):
    config = dict(spec["config"])
    if "features" in config:
        config["features"] = tuple(config["features"])
    return kg.PipelineConfig(**paths, out_dir=str(out_dir), seed=seed, **config)


def stage_of(exc: Exception) -> str:
    match = re.search(r"stage '([^']+)'", str(exc))
    return match.group(1) if match else type(exc).__name__


def timed_pass(kg, cfg, kind: str, repeat: int = 1) -> tuple[dict, object]:
    """Time ``repeat`` back-to-back run_pipeline calls as one interval."""
    interval = speedprobe.Interval().start()
    try:
        for _ in range(repeat):
            artifacts = kg.run_pipeline(cfg)
    except kg.errors.PipelineError as exc:
        interval.stop()
        return {"kind": kind, "error": str(exc), "stage": stage_of(exc)}, None
    interval.stop()
    return {"kind": kind, "repeat": repeat, "error": None, "stage": None,
            **interval.record()}, artifacts


def check_outputs(cfg, artifacts, seed: int) -> list[str]:
    """Output checks that need only the cold run's artifacts."""
    failures = []
    n_test = len(artifacts.test_pairs)
    pairs = artifacts.result.pairs
    if sorted(pairs) != list(range(n_test)):
        failures.append(f"decoder aligned {len(pairs)} of {n_test} test sources")
    bad = [t for t in pairs.values() if not 0 <= t < n_test]
    if bad:
        failures.append(f"{len(bad)} targets out of range [0, {n_test})")
    report = artifacts.report
    if cfg.strategy == "hungarian" and (report.mulse, report.multe) != (0, 0):
        failures.append(f"hungarian gave mulse={report.mulse} multe={report.multe}")
    failures.extend(check_cells(cfg, Path(cfg.out_dir), seed))
    return failures


def check_cells(cfg, out: Path, seed: int) -> list[str]:
    """Compare a seeded sample of matrix cells with the plain-Python oracles."""
    import numpy as np

    test = json.loads((out / "split.json").read_text())["test"]
    src = [s for s, _ in test]
    tgt = [t for _, t in test]
    n = len(test)
    rng = random.Random(seed)
    half = CELLS_PER_FEATURE // 2
    cells = [(i, i) for i in rng.sample(range(n), min(half, n))]
    cells += [(rng.randrange(n), rng.randrange(n)) for _ in range(half)]

    names1 = oracles.read_names(cfg.names1)
    names2 = oracles.read_names(cfg.names2)
    failures = []
    for tag in cfg.features:
        scores = np.load(out / f"sim_{tag}.npy", mmap_mode="r")
        if tag == "string":
            def expect(i, j):
                return oracles.lev_ratio(names1[src[i]], names2[tgt[j]]), 0.0
        else:
            measure = oracles.MEASURES[cfg.measure]
            if tag == "structural":
                z1, z2 = np.load(out / "z1.npy"), np.load(out / "z2.npy")
                rows1 = {i: z1[src[i]].tolist() for i, _ in cells}
                rows2 = {j: z2[tgt[j]].tolist() for _, j in cells}
            else:
                table = oracles.read_vectors(cfg.vectors)
                dim = len(next(iter(table.values())))
                rows1 = {i: oracles.name_vector(names1[src[i]], table, dim)
                         for i, _ in cells}
                rows2 = {j: oracles.name_vector(names2[tgt[j]], table, dim)
                         for _, j in cells}

            def expect(i, j):
                value, scale = measure(rows1[i], rows2[j])
                return value, 1e-9 * scale
        wrong = 0
        for i, j in cells:
            value, tol = expect(i, j)
            if not abs(float(scores[i, j]) - value) <= tol:
                wrong += 1
        if wrong:
            failures.append(f"sim_{tag}: {wrong} of {len(cells)} sampled cells "
                            f"differ from the reference formula")
    return failures


def run_mode(kg, spec: dict, seed: int, work: Path, base: dict) -> dict:
    """One cold pass per task, then RESUME_INTERVALS resumed intervals over each."""
    passes = []
    failures = []
    reports: dict[int, str] = {}
    cold_cfgs = {}
    for k, task_seed in enumerate(workloads.task_seeds(seed, spec)):
        cfg = pipeline_config(kg, spec, task_seed, base["paths"][k], work / f"out{k}")
        record, artifacts = timed_pass(kg, cfg, "cold")
        passes.append({**record, "task": k})
        if artifacts is None:
            continue
        reports[k] = (Path(cfg.out_dir) / "report.json").read_text()
        failures.extend(check_outputs(cfg, artifacts, task_seed))
        cold_cfgs[k] = cfg
    for k, cfg in cold_cfgs.items():
        for _ in range(RESUME_INTERVALS):
            record, _ = timed_pass(kg, dataclasses.replace(cfg, resume=True), "resume",
                                   spec["resume_batch"])
            passes.append({**record, "task": k})
            if (record["error"] is None
                    and (Path(cfg.out_dir) / "report.json").read_text() != reports[k]):
                failures.append(f"task {k}: a resumed report.json differs from the cold one")
    quality = None
    if 0 in reports:
        first = json.loads(reports[0])
        quality = {"hits1": first["hits"]["1"], "mrr": first["mrr"],
                   "precision": first["precision"]}
    return {**base, "passes": passes,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "report": reports.get(0), "quality": quality, "check_failures": failures}


def environment(kg) -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kgalign": kg.__version__,
        "threads_env": {name: os.environ.get(name) for name in THREAD_ENV},
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("import", "setup", "run", "trace"),
                        required=True)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--work", type=Path)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--reference", type=Path)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    kg = import_kgalign()
    result = {}
    if args.mode == "import":
        speedprobe.off()
    else:
        spec = workloads.spec(args.workload, args.smoke)
        result = setup(kg, spec, args.seed, args.work / "in")
    if args.mode == "run":
        result = run_mode(kg, spec, args.seed, args.work, result)
    elif args.mode == "trace":
        import replay

        cfg = pipeline_config(kg, spec, workloads.task_seeds(args.seed, spec)[0],
                              result["paths"][0], args.work / "out")
        result.update(replay.traced_run(kg, cfg, args.reference.read_text()))
    result["env"] = environment(kg)
    args.out.write_text(json.dumps(result))


if __name__ == "__main__":
    try:
        main()
    finally:
        speedprobe.off()
