"""kgalign benchmark: seeded synthetic alignment workloads, timed end to end.

Usage (from the repository root):

  python3 perfbench/run.py --workload walkthrough-70 --seed 7 --seconds 30 --trace 0
  python3 perfbench/run.py --workload all --seed 7      # every workload, one table each
  python3 perfbench/run.py --smoke                      # tiny sizes, checks names and units

Each timed pipeline runs in its own fresh worker process (worker.py), one
process at a time. ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` reports its per-layer metrics, taken from a
traced replay (replay.py) whose report.json must equal the untraced run's.
The last line of standard output is the JSON result; spans, samples and the
run environment go to ``.perfbench_out/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speedprobe
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
RUN_BUDGET_S = 170  # each invocation must finish within 180 s
FINGERPRINTS = HERE / "fingerprints.json"
# BLAS threads are pinned to 1 so that runs on a shared machine stay steady
# and never use more threads than cores; KGALIGN_THREADS is removed so the
# program's own default is what gets measured.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


# How a run turns its samples into one value. On the shared host this was
# built on, the CPU runs at times up to twice as slow as its fast state, in
# bursts under a second and for minutes at a time, so the same cold pipeline
# takes from 0.40 to 1.29 s within one run. Each timed interval is therefore
# corrected by the host speed probed while it ran (speedprobe.py), and the
# corrected samples are summarised per task, then averaged over the tasks:
# pipeline time by each task's median; resume time, which the probe tracks
# less well (it is mostly file reads), by each task's lower quartile.
# Set-up time and peak RSS take the median. The output file keeps every raw
# and corrected sample, by task.
def median_mean(by_task: dict[int, list[float]]) -> float:
    """Mean over the tasks of the median on each."""
    return statistics.fmean(statistics.median(v) for v in by_task.values())


def lower_quartile_mean(by_task: dict[int, list[float]]) -> float:
    """Mean over the tasks of the lower quartile on each."""
    return statistics.fmean(
        statistics.quantiles(v, n=4, method="inclusive")[0] if len(v) > 1 else v[0]
        for v in by_task.values())


def median_all(by_task: dict[int, list[float]]) -> float:
    return statistics.median(v for vs in by_task.values() for v in vs)


REPORTED = {"pipeline_s": median_mean, "resume_s": lower_quartile_mean,
            "setup_s": median_all, "peak_rss_mb": median_all}


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a trustworthy result at all."""


def summarise(values: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it, count."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "min": ordered[0], "n": n,
           "percentile": None, "percentile_value": None}
    for q in (99.9, 99, 95, 90, 75, 50):
        if n * (100 - q) / 100 >= 10:
            out["percentile"] = q
            out["percentile_value"] = ordered[min(n - 1, int(q / 100 * n))]
            break
    return out


class Session:
    """Runs worker processes for one workload and seed, strictly one at a time."""

    def __init__(self, workload: str, seed: int, smoke: bool, deadline: float):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.spec = workloads.spec(workload, smoke)
        self.deadline = deadline
        self.dir = OUT / f"{workload}-seed{seed}{'-smoke' if smoke else ''}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.count = 0
        self.env = {k: v for k, v in os.environ.items() if k != "KGALIGN_THREADS"}
        self.env.update(WORKER_ENV)

    def worker(self, mode: str, reference: Path | None = None,
               seed: int | None = None) -> dict:
        """Run worker.py once; its work directory is removed afterwards."""
        self.count += 1
        work = self.dir / f"w{self.count}"
        out = self.dir / f"w{self.count}.json"
        seed = self.seed if seed is None else seed
        cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
               "--workload", self.workload, "--seed", str(seed),
               "--work", str(work), "--out", str(out)]
        if reference is not None:
            cmd += ["--reference", str(reference)]
        if self.smoke:
            cmd.append("--smoke")
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchmarkError("time budget spent before the next worker")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, timeout=timeout,
                                  capture_output=True, text=True)
        except subprocess.TimeoutExpired:
            return {"crash": f"{mode} worker timed out after {timeout:.0f} s"}
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if proc.returncode != 0 or not out.exists():
            tail = proc.stderr.strip().splitlines()[-5:]
            return {"crash": f"{mode} worker exited {proc.returncode}: "
                             + " | ".join(tail)}
        return json.loads(out.read_text())


def check_fingerprints(session: Session, results: list[dict]) -> dict:
    """All set-ups must produce identical inputs, equal to the pinned hash.

    A seed without a pin is checked through another: one more set-up on the
    pinned seed ``seed % 100`` must reproduce that seed's pin, so a changed
    generator fails every run, whatever its seed.
    """
    seen = sorted({r["fingerprint"] for r in results if "fingerprint" in r})
    if len(seen) > 1:
        raise BenchmarkError(f"{session.workload} seed {session.seed}: set-ups "
                             f"generated different inputs {seen}")
    record = {"hash": seen[0] if seen else None, "pinned": None, "checked_seed": None}
    if session.smoke:
        return record
    pins = json.loads(FINGERPRINTS.read_text()).get(session.workload)
    if not pins:
        raise BenchmarkError(f"{FINGERPRINTS.name} pins no inputs for "
                             f"{session.workload}; run perfbench/pin.py")
    seed, got = session.seed, record["hash"]
    if str(seed) not in pins:
        seed = seed % len(workloads.PINNED_SEEDS)
        got = session.worker("setup", seed=seed).get("fingerprint")
        if got is None:
            raise BenchmarkError(f"{session.workload}: the set-up on pinned seed "
                                 f"{seed} failed, so the generator is unchecked")
    record.update(pinned=pins[str(seed)], checked_seed=seed)
    if got is not None and got != record["pinned"]:
        raise BenchmarkError(
            f"{session.workload} seed {seed}: generated inputs hash to {got} but "
            f"{FINGERPRINTS.name} pins {record['pinned']}; the generator changed "
            f"what is measured")
    return record


def tally(results: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) over pipeline passes and worker crashes."""
    attempted = failed = 0
    reasons = []
    for r in results:
        if "crash" in r:
            attempted += 1
            failed += 1
            reasons.append(r["crash"])
            continue
        passes = r.get("passes", [])
        attempted += len(passes)
        errors = [p for p in passes if p["error"] is not None]
        checks = r.get("check_failures", [])
        failed += len(errors) + (1 if checks and not errors else 0)
        reasons += [f"stage {p['stage']}: {p['error']}" for p in errors] + checks
    return attempted, failed, reasons


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                              capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, deadline: float) -> dict:
    session = Session(workload, seed, smoke, deadline)
    crash = session.worker("import").get("crash")
    if crash:
        raise BenchmarkError(crash)

    # Workers start while half the last one's length still fits before the
    # stop, so a run on a slowed host overruns --seconds by half a worker at
    # most instead of a whole one.
    runs: list[dict] = []
    stop = time.monotonic() + seconds
    last = 0.0
    while len(runs) < session.spec["runs"] or time.monotonic() + last / 2 < stop:
        started = time.monotonic()
        runs.append(session.worker("run"))
        last = time.monotonic() - started
    setups = [session.worker("setup")
              for _ in range(session.spec["setups"] - len(runs))]
    ok_runs = [r for r in runs if r.get("report")]

    traced = None
    if trace and ok_runs:
        reference = session.dir / "reference_report.json"
        reference.write_text(ok_runs[0]["report"])
        traced = session.worker("trace", reference)

    everything = runs + setups + ([traced] if traced else [])
    fingerprint = check_fingerprints(session, everything)
    attempted, failed, reasons = tally(everything)

    # Every timed interval, by metric and task (set-up covers all tasks: -1).
    intervals: dict[str, dict[int, list[dict]]] = {}
    for r in ok_runs:
        for p in r["passes"]:
            if p["error"] is None:
                name = "pipeline_s" if p["kind"] == "cold" else "resume_s"
                intervals.setdefault(name, {}).setdefault(p["task"], []).append(p)
    for r in runs + setups:
        if "setup" in r:
            intervals.setdefault("setup_s", {}).setdefault(-1, []).append(r["setup"])

    def per_call(i: dict, seconds: float) -> float:
        return seconds / i.get("repeat", 1)

    samples = {name: {task: [per_call(i, i["seconds"]) for i in task_intervals]
                      for task, task_intervals in by_task.items()}
               for name, by_task in intervals.items()}
    corrected = {name: {task: [per_call(i, speedprobe.corrected(i))
                               for i in task_intervals]
                        for task, task_intervals in by_task.items()}
                 for name, by_task in intervals.items()}
    if ok_runs:
        samples["peak_rss_mb"] = {-1: [r["peak_rss_mb"] for r in ok_runs]}
        corrected["peak_rss_mb"] = samples["peak_rss_mb"]
    summary = {k: summarise([v for vs in by_task.values() for v in vs])
               for k, by_task in samples.items()}
    quality = [r["quality"] for r in ok_runs]
    uncorrected = {k: REPORTED[k](v) for k, v in samples.items()}
    if trace:
        per_layer = dict(traced["per_layer"]) if traced and "per_layer" in traced else {}
        if per_layer and 0 in samples.get("pipeline_s", {}):
            per_layer["trace.overhead_s"] = (traced["passes"][0]["seconds"]
                                             - statistics.median(samples["pipeline_s"][0]))
        values = per_layer
    else:
        values = {k: REPORTED[k](v) for k, v in corrected.items()}

    envs = [r["env"] for r in everything if "env" in r]
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "smoke": smoke, "fingerprint": fingerprint,
        "environment": {"nproc": os.cpu_count(),
                        "affinity": len(os.sched_getaffinity(0)),
                        "git_commit": git_commit(),
                        **(envs[0] if envs else {})},
        "attempted": attempted, "failed": failed, "failures": reasons,
        "samples": samples, "corrected_samples": corrected, "summary": summary,
        "uncorrected": uncorrected,
        "probes": {name: [i["probes"] for task in by_task.values() for i in task]
                   for name, by_task in intervals.items()},
        "quality": quality,
        "values": values,
        "spans": traced.get("spans") if traced else None,
    }
    (OUT / f"{session.dir.name}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1))
    shutil.rmtree(session.dir, ignore_errors=True)
    return record


def metric_specs(trace: bool) -> list[dict]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return bench["per_layer" if trace else "end_to_end"]


def result_line(record: dict, specs: list[dict]) -> dict:
    metrics = {s["name"]: {"value": record["values"][s["name"]], "unit": s["unit"]}
               for s in specs if s["name"] in record["values"]}
    correct = record["failed"] == 0 and len(metrics) == len(specs)
    return {"correct": correct, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def print_table(record: dict, result: dict) -> None:
    print(f"# {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"attempted {result['attempted']}, failed {result['failed']}")
    for reason in record["failures"]:
        print(f"#   failure: {reason}")
    for name, m in result["metrics"].items():
        extra = ""
        if name in record["summary"]:
            s = record["summary"][name]
            extra = f"  ({REPORTED[name].__name__} of {s['n']} samples"
            if name in record["probes"]:
                extra += f", {record['uncorrected'][name]:.6g} uncorrected"
            extra += ")"
        print(f"{record['workload']:>16} {name:<34} {m['value']:>14.6g} {m['unit']}{extra}")
    for q in record["quality"][:1]:
        print(f"{record['workload']:>16} quality: hits@1 {q['hits1']:.4f}  "
              f"mrr {q['mrr']:.4f}  precision {q['precision']:.4f}")


def smoke_check(record: dict, result: dict, specs: list[dict]) -> list[str]:
    problems = []
    if not result["correct"]:
        problems.append(f"{record['workload']} trace {record['trace']}: not correct "
                        f"({record['failures']})")
    missing = [s["name"] for s in specs if s["name"] not in result["metrics"]]
    extra = sorted(set(record["values"]) - {s["name"] for s in specs})
    if missing or extra:
        problems.append(f"{record['workload']} trace {record['trace']}: missing "
                        f"{missing}, unexpected {extra}")
    for s in specs:
        m = result["metrics"].get(s["name"])
        if m and (m["unit"] != s["unit"] or not isinstance(m["value"], (int, float))):
            problems.append(f"{s['name']}: bad value or unit {m}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at tiny size, both trace modes; "
                             "checks metric names and units against BENCHMARK.json")
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit, so subprocess.run kills and reaps the
    # running worker instead of leaving it orphaned.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not (ROOT / "src" / "kgalign" / "__init__.py").is_file():
        print(f"no kgalign sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    if args.smoke:
        jobs = [(w, t) for w in workloads.WORKLOADS for t in (False, True)]
        seconds = 0
    elif args.workload == "all":
        jobs = [(w, bool(args.trace)) for w in workloads.WORKLOADS]
        seconds = args.seconds
    else:
        jobs = [(args.workload, bool(args.trace))]
        seconds = args.seconds

    results, problems = {}, []
    for workload, trace in jobs:
        specs = metric_specs(trace)
        deadline = time.monotonic() + RUN_BUDGET_S
        try:
            record = run_workload(workload, args.seed, seconds, trace, args.smoke,
                                  deadline)
        except BenchmarkError as exc:
            print(f"benchmark error: {exc}", file=sys.stderr)
            return 1
        result = result_line(record, specs)
        print_table(record, result)
        if args.smoke:
            problems += smoke_check(record, result, specs)
        results[f"{workload}/trace{int(trace)}"] = result

    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()) and not problems,
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{job}/{name}": m for job, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print(json.dumps(final))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
